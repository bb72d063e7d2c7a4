"""Tests of the benchmark's own code: tracing, reference checks, timeouts.

    python3 -m pytest perfbench/tests
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from toric_kernel import fans as fn  # noqa: E402
from toric_kernel import zlattice as zl  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def _span_names(t):
    return [s[0] for s in t.spans]


def _children(t, k):
    return [s for s in t.spans if s[3] == k]


def test_layer_self_times_sum_to_traced_wall(tracer):
    ref = run.load_reference("geometry")
    for k, case in enumerate(ref["cases"][:6]):
        tracer.run_case(k, workloads.run_case, case["family"], case["input"])
    s = tracer.summary()
    total = sum(own for _, own in s["layers"].values())
    assert s["wall_s"] > 0
    assert total == pytest.approx(s["wall_s"], rel=1e-9)
    assert set(s["layers"]) <= set(run.LAYERS) | {"bench"}
    # the benchmark's own glue between library calls is a small part
    assert s["layers"]["bench"][1] < 0.05 * s["wall_s"]


def test_hnf_inside_solve_integer_is_counted_under_zlattice_hnf(tracer):
    tracer.run_case(0, zl.solve_integer, [[2, 0], [0, 3]], [4, 6])
    names = _span_names(tracer)
    k = names.index("zlattice.solve_integer")
    assert "zlattice.hnf" in [s[0] for s in _children(tracer, k)]
    assert tracer.summary()["functions"]["zlattice.hnf"][0] >= 1


def test_cone_method_is_billed_to_cones(tracer):
    F = fn.fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]], 2)
    tracer.run_case(0, fn.is_smooth, F)
    names = _span_names(tracer)
    k = names.index("fans.is_smooth")
    kids = _children(tracer, k)
    assert [s[0] for s in kids] == ["cones.Cone.is_smooth"] * 3
    summary = tracer.summary()
    outer = tracer.spans[k]
    assert summary["functions"]["fans.is_smooth"][1] == pytest.approx(
        outer[2] - outer[1] - sum(s[2] - s[1] for s in kids))
    assert summary["functions"]["cones.Cone.is_smooth"][0] == 3


def test_uninstall_restores_the_library():
    original = zl.hnf
    t = tracing.Tracer()
    t.install()
    assert zl.hnf is not original
    t.uninstall()
    assert zl.hnf is original


def _case(family, inp, expected):
    return (family, family, inp, expected)


def test_reference_check_passes_and_catches_a_perturbed_result():
    ref = run.load_reference("lattice")
    case = next(c for c in ref["cases"] if c["family"] == "snf")
    good = _case("snf", case["input"], case["expected"])
    perturbed = list(case["expected"])
    perturbed[0] = perturbed[0] + 1 if isinstance(perturbed[0], int) else 0
    bad = _case("snf", case["input"], perturbed)
    p = run.run_pass([good, bad], False, time.monotonic() + 60)
    assert [o[0] for o in p["outcomes"]] == ["ok", "wrong"]


def test_case_times_are_brought_to_the_reference_speed(monkeypatch):
    # a reference unit a million times slower than any host makes every
    # case last far longer at the reference speed than it was measured
    monkeypatch.setattr(calibrate, "REF_UNIT_S", 1e6 * calibrate.timed_unit())
    ref = run.load_reference("lattice")
    case = next(c for c in ref["cases"] if c["family"] == "snf")
    p = run.run_pass([_case("snf", case["input"], case["expected"])] * 3, False,
                     time.monotonic() + 60)
    assert [o[0] for o in p["outcomes"]] == ["ok"] * 3
    measured = p["slowdown"] * p["wall_s"]
    assert 0 < measured < 60 and p["wall_s"] > 1e5 * measured
    e2e = run.end_to_end([p], [0.2])
    assert e2e["wall_s"] == p["wall_s"]
    assert e2e["setup_s"] == 0.2          # set-up time is measured as it is


def _polygon_with_rays(k):
    """A centrally symmetric lattice polygon whose normal fan has k rays."""
    half = [(1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (1, 3), (0, 1), (-1, 3), (-1, 2),
            (-1, 1), (-2, 1)][:k // 2]
    pts, v = [], (0, 0)
    for a, b in half + [(-a, -b) for a, b in half]:
        pts.append(list(v))
        v = (v[0] + a, v[1] + b)
    return pts


def test_timeout_is_recorded_and_the_pass_goes_on():
    # cox_data on a 22-ray fan enumerates 2^22 ray subsets (about 30 s
    # at the seed commit); a 2 s limit must cut it and keep the pass going.
    slow = _case("cox_data", {"points": _polygon_with_rays(22)}, None)
    ref = run.load_reference("lattice")
    quick = next(c for c in ref["cases"] if c["family"] == "snf")
    t0 = time.monotonic()
    p = run.run_pass([slow, _case("snf", quick["input"], quick["expected"])], False,
                     time.monotonic() + 60, limit=2.0)
    assert [o[0] for o in p["outcomes"]] == ["timeout", "ok"]
    assert p["outcomes"][0][1] == 2.0
    assert len(p["setups"]) == 2          # a fresh worker after the kill
    assert time.monotonic() - t0 < 20


def test_default_seed_reproduces_recorded_inputs():
    for workload in run.WORKLOADS:
        ref = run.load_reference(workload)
        cases = run.select_cases(ref, run.DEFAULT_SEED)
        assert run.inputs_digest(cases) == ref["default_inputs_sha256"]
        other = run.select_cases(ref, run.DEFAULT_SEED + 1)
        assert sorted(c[0] for c in other) == sorted(c[0] for c in cases)


def test_cli_fixtures_match_recorded_digests():
    assert run.check_files(run.load_reference("cli")) == []


def test_canonical_form_survives_huge_integers():
    big = 1 << 20000          # decimal formatting would pass the digit limit
    assert workloads.plain([big, -big, 3]) == [hex(big), hex(-big), 3]
    json.dumps(workloads.plain(big))


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v[0] for k, v in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    metrics = set(run.END_TO_END) | set(run.PER_LAYER)
    for row in design["interactions"]:
        assert set(row["per_layer"]) <= metrics
        assert set(row["moves"]) <= set(run.END_TO_END)
        assert set(row["on"]) | set(row["flat_on"]) <= set(run.WORKLOADS)
