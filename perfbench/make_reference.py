"""Build the case pools and reference results in ``reference/``.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Run once, at the commit whose results are the reference. For every rung
(a case family at one input size) it draws inputs from ``POOL_SEED`` until
``count`` of them finish within ``BUDGET_S``, recording each one's
canonical result and its time at that commit. Inputs over the budget sit
past a cliff of that commit (see ROADMAP); they are kept in the file under
``over_budget``, with their rung, and are not run. The CLI workload
records the digests of the fixture requests and goldens.
"""

import hashlib
import json
import random
import signal
import sys
import time
from fractions import Fraction

import run
import workloads
from toric_kernel import cones as cn
from toric_kernel import fans as fn
from toric_kernel import ideals as il
from toric_kernel import polytopes as pt

POOL_SEED = 20220303
BUDGET_S = 2.0


class OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise OverBudget()


def timed_case(family, inp):
    """(seconds, canonical result), or None when the case passes BUDGET_S."""
    old = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        t0 = time.perf_counter()
        out = workloads.run_case(family, inp)
        seconds = time.perf_counter() - t0
    except OverBudget:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return seconds, workloads.canonical(family, inp, out)


def _points(rng, k, d, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(d)] for _ in range(k)]


def full_polytope(rng, k, d, lo, hi):
    while True:
        p = _points(rng, k, d, lo, hi)
        if pt.hull(p).is_full_dim:
            return p


def pointed_cone(rng, d, k, r):
    while True:
        g = [[rng.randint(-r, r) for _ in range(d - 1)] + [rng.randint(1, r)]
             for _ in range(k)]
        C = cn.cone(g, d)
        if C.is_full_dim and C.is_pointed and len(C.rays()) == k:
            return {"gens": g, "dim": d}


def homogeneous_config(rng, s, e):
    while True:
        A = [[1] * s] + [[rng.randint(0, e) for _ in range(s)] for _ in range(2)]
        if len({tuple(col) for col in zip(*A)}) == s:
            return A


def polygon_config(rng, max_points):
    while True:
        P = pt.hull(_points(rng, rng.randint(3, 5), 2, 0, 4))
        pts = pt.lattice_points(P)
        if P.is_full_dim and 6 <= len(pts) <= max_points:
            return [[1] * len(pts), [p[0] for p in pts], [p[1] for p in pts]]


def nonpointed_config(rng, s):
    while True:
        A = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(2)]
        cols = [list(c) for c in zip(*A)]
        if all(any(c) for c in cols) and not cn.cone(cols, 2).is_pointed:
            return A


def random_poly(rng, n, k, deg):
    terms = {}
    for _ in range(k):
        e = [0] * n
        for _ in range(rng.randint(1, deg)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4))
    return il.SparsePolynomial(n, terms)


def _terms(f):
    return [[list(e), [c.numerator, c.denominator]] for e, c in sorted(f.terms.items())]


def membership_input(rng, n, k, deg, m):
    gens = [random_poly(rng, n, k, deg) for _ in range(m)]
    f = gens[0] * random_poly(rng, n, 2, 2) + gens[1] * random_poly(rng, n, 2, 1)
    if rng.random() < 0.5:
        f = f + random_poly(rng, n, 1, deg)
    return {"nvars": n, "f": _terms(f), "gens": [_terms(g) for g in gens]}


def matrix(rng, r, c):
    return {"M": [[rng.randint(-50, 50) for _ in range(c)] for _ in range(r)]}


def fan_polytope(rng, k, R, max_rays=16):
    while True:
        p = _points(rng, k, 3, -R, R)
        P = pt.hull(p)
        if P.is_full_dim and len(P.facets) <= max_rays:
            return p, fn.normal_fan(P)


def fan_input(rng, family, k, R):
    p, F = fan_polytope(rng, k, R)
    inp = {"points": p}
    if family in ("min_cartier", "global_sections"):
        inp["coeffs"] = [rng.randint(0, 3) for _ in F.rays]
    if family == "star_subdivision":
        smooth = [i for i in range(len(F.maximal_cones)) if F.max_cone(i).is_smooth]
        if not smooth:
            return fan_input(rng, family, k, R)
        inp["index"] = rng.choice(smooth)
    return inp


# workload -> [(family, count, generator(rng) -> input)]
RUNGS = {
    "geometry": [
        ("mixed_volume", 3, lambda r: {"polys": [full_polytope(r, 5, 3, 0, 2)
                                                 for _ in range(3)]}),
        ("volume", 6, lambda r: {"points": full_polytope(r, 9, 4, 0, 5)}),
        ("volume", 6, lambda r: {"points": full_polytope(r, 8, 5, 0, 3)}),
        ("ehrhart", 6, lambda r: {"points": full_polytope(r, 8, 3, 0, 6)}),
        ("ehrhart", 5, lambda r: {"points": full_polytope(r, 6, 4, 0, 3)}),
        ("hilbert_basis", 3, lambda r: pointed_cone(r, 3, 6, 4)),
        ("hilbert_basis", 3, lambda r: pointed_cone(r, 4, 5, 3)),
    ],
    "algebra": (
        [("toric_ideal", 1, lambda r, s=s, e=e: {"A": homogeneous_config(r, s, e)})
         for s, e in ((7, 4), (8, 4), (9, 3), (10, 3), (11, 3))]
        + [("toric_ideal", 3, lambda r: {"A": polygon_config(r, 12)}),
           ("toric_ideal", 2, lambda r: {"A": nonpointed_config(r, 5)}),
           ("toric_ideal", 2, lambda r: {"A": nonpointed_config(r, 6)}),
           ("membership", 10, lambda r: membership_input(r, 4, 4, 3, 3)),
           ("hilbert_function", 6, lambda r: {"A": homogeneous_config(r, 7, 4),
                                              "d": r.randint(3, 5)})]),
    "lattice": (
        [(fam, 1, lambda r, n=n, m=m: matrix(r, n, m))
         for fam in ("snf", "hnf", "kernel_basis", "cokernel")
         for n, m in ((8, 8), (16, 16), (20, 20), (24, 24), (12, 18), (20, 16))]
        + [(fam, count, lambda r, fam=fam: fan_input(r, fam, 10, 5))
           for fam, count in (("class_group", 2), ("picard_group", 3), ("min_cartier", 3),
                              ("global_sections", 3), ("star_subdivision", 2),
                              ("cox_data", 3))]),
}


def build(workload):
    cases, over = [], []
    for r, (family, count, gen) in enumerate(RUNGS[workload]):
        rng = random.Random(f"{POOL_SEED}:{workload}:{r}")
        kept = []
        while len(kept) < count:
            inp = json.loads(json.dumps(gen(rng)))
            got = timed_case(family, inp)
            if got is None:
                over.append({"family": family, "rung": r, "input": inp})
            else:
                kept.append({"family": family, "rung": r, "input": inp,
                             "expected": got[1], "seed_s": round(got[0], 6)})
        cases += kept
        print(f"{workload} rung {r} {family}: "
              f"{sum(c['seed_s'] for c in kept):.3f} s per pass", file=sys.stderr)
    return {"workload": workload, "pool_seed": POOL_SEED, "budget_s": BUDGET_S,
            "cases": cases, "over_budget": over}


def build_cli():
    files, cases = {}, []
    for req in sorted(workloads.FIXTURES.glob("*.json")):
        if req.name.endswith(".out.json"):
            continue
        golden = req.with_name(req.stem + ".out.json")
        for p in (req, golden):
            files[str(p.relative_to(run.ROOT))] = hashlib.sha256(p.read_bytes()).hexdigest()
        command = json.loads(req.read_text(encoding="utf-8"))["command"]
        inp = {"name": req.stem, "command": command}
        out = workloads.run_case("cli", inp)
        expected = workloads.canonical("cli", inp, out)
        if expected != {"code": 0, "sha256": files[str(golden.relative_to(run.ROOT))]}:
            raise SystemExit(f"{req.name}: the CLI output differs from its golden")
        cases.append({"family": "cli", "input": inp, "expected": expected})
    return {"workload": "cli", "files": files, "cases": cases}


def write(path, ref):
    """JSON with one case per line, so that diffs stay readable."""
    parts = []
    for key, value in ref.items():
        if key in ("cases", "over_budget"):
            rows = ",\n".join("  " + json.dumps(v, separators=(",", ":")) for v in value)
            parts.append(f"{json.dumps(key)}: [\n{rows}\n]")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}")
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


def main(names):
    for workload in names or run.WORKLOADS:
        ref = build_cli() if workload == "cli" else build(workload)
        ref["default_inputs_sha256"] = run.inputs_digest(
            run.select_cases(ref, run.DEFAULT_SEED))
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        write(path, ref)
        print(f"wrote {path.name}: {len(ref['cases'])} cases, "
              f"{path.stat().st_size} bytes", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
