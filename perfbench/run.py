"""Benchmark of toric-kernel: seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: one case at a time, on one
thread, in a worker process started fresh for every pass, so that no case
is seen twice by one process. A pass runs every case of the workload once.
The cases are drawn once, from a fixed pool seed, and recorded with their
results in ``reference/<workload>.json``; ``--seed`` fixes the order in
which a run sends them. (Drawing the inputs themselves from ``--seed``
made the spread across seeds larger than the bounds: a few heavy cases
decide each workload's p90.) The library only sees the inputs. Every result is compared with the
reference recorded at the seed commit; a case that runs past
``CASE_LIMIT_S`` is killed and counted as a timeout.

Case times are reported in seconds at a fixed reference host speed. The
worker times a fixed unit of plain-Python work (``calibrate.py``) just
before and just after each case, and the case's measured time is scaled
by ``calibrate.REF_UNIT_S`` over the mean of the two. On a shared host
whose speed for one thread drifts by up to 1.5x within seconds, this keeps
the spread of wall_s and the latency percentiles between runs near 0.05;
unscaled, it reached 0.3 and more. setup_s is measured as it is.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics of the traced passes (see ``tracing.py``) plus the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a summary goes to
standard error. The run needs the library sources (``src/``) and the CLI
fixtures (``fixtures/``) of a checkout and fails without them.
"""

import argparse
import hashlib
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("geometry", "algebra", "lattice", "cli")
DEFAULT_SEED = 1
CASE_LIMIT_S = 10.0      # a case past this is killed and counted as a timeout
RUN_LIMIT_S = 150.0      # no pass starts, and no case runs, past this
START_LIMIT_S = 60.0     # worker start-up or final report past this is an error
MIN_SAMPLES = 100        # case latencies per run, so p90 has ten beyond it
MIN_PASSES = 3
SETUP_PROBES = 6         # extra worker starts per run, for a steadier setup_s

LAYERS = ("zlattice", "cones", "polytopes", "fans", "ideals", "divisors", "cox",
          "counting", "cli")

END_TO_END = {"setup_s": "s", "wall_s": "s", "case_p50_s": "s", "case_p90_s": "s",
              "ok_frac": "ratio", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, where it is read from a traced pass summary)
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", ("layer_calls", _layer))
    PER_LAYER[f"{_layer}.self_s"] = ("s", ("layer_self", _layer))
for _fn in ("zlattice.hnf", "zlattice.snf", "zlattice.rank", "zlattice.solve_rational",
            "cones.cone", "polytopes.hull", "ideals.buchberger"):
    PER_LAYER[f"{_fn}.calls"] = ("count", ("calls", _fn))
for _fn in ("cones.hilbert_basis", "polytopes.lattice_points", "ideals.buchberger",
            "cox.primitive_collections"):
    PER_LAYER[f"{_fn}.self_s"] = ("s", ("self", _fn))
for _fn in ("ideals.toric_ideal", "ideals.membership", "divisors.picard_group"):
    PER_LAYER[f"{_fn}.incl_s"] = ("s", ("incl", _fn))
for _name, _unit in (("zlattice.hnf.out_bits_max", "bits"),
                     ("zlattice.snf.out_bits_max", "bits"),
                     ("ideals.buchberger.out_size", "count")):
    PER_LAYER[_name] = (_unit, ("counter", _name))
PER_LAYER["trace.overhead_frac"] = ("ratio", ("overhead", None))


class Worker:
    """One worker process, started and waited for ``ready``."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "0"
        t0 = time.monotonic()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=env)
        self._buf = b""
        ready = self.read(START_LIMIT_S)
        if not ready or "ready" not in ready:
            self.close()
            raise RuntimeError("worker process did not start")
        self.setup_s = ready["ready"] - t0

    def read(self, timeout):
        """Next message; None on timeout, {"eof": True} when the worker died."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return {"eof": True}
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def send(self, job):
        self.proc.stdin.write(json.dumps(job).encode("utf-8") + b"\n")
        self.proc.stdin.close()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            if f and not f.closed:
                f.close()


def probe_setup():
    """Start a worker that runs nothing; returns its set-up time."""
    w = Worker()
    try:
        w.send({"cases": [], "trace": False, "spans": None})
        w.read(START_LIMIT_S)
        return w.setup_s
    finally:
        w.close()


def run_pass(cases, trace, deadline, spans=None, limit=CASE_LIMIT_S):
    """Run every case once, in order, restarting the worker after a timeout.

    cases are (id, family, input, expected). Returns a dict with one
    outcome per case (status, seconds at the reference host speed: the
    measured time times ``calibrate.REF_UNIT_S`` over the case's
    ``unit_s``; a failed case counts at the limit), the measured seconds
    of the cases that passed, worker set-up times, peak memory and, when
    traced, the tracer summaries of the workers.
    """
    outcomes, measured, setups, rss, summaries = [], [], [], [], []
    i = 0
    while i < len(cases):
        if time.monotonic() >= deadline:
            outcomes += [("timeout", limit)] * (len(cases) - i)
            break
        w = Worker()
        try:
            setups.append(w.setup_s)
            w.send({"cases": [[c[1], c[2]] for c in cases[i:]], "trace": trace,
                    "spans": str(spans) if spans else None})
            while i < len(cases):
                left = min(limit, deadline - time.monotonic())
                msg = w.read(max(left, 0.0))
                if msg is None:
                    status = "timeout"
                elif "eof" in msg:
                    status = "crash"
                elif not msg["ok"]:
                    print(f"  {cases[i][0]}: {msg['error']}", file=sys.stderr)
                    status = "error"
                elif msg["result"] != cases[i][3]:
                    print(f"  {cases[i][0]}: result differs from the reference",
                          file=sys.stderr)
                    status = "wrong"
                else:
                    status = "ok"
                    measured.append(msg["s"])
                # a failed case counts as missing any latency target
                outcomes.append((status, msg["s"] * calibrate.REF_UNIT_S / msg["unit_s"]
                                 if status == "ok" else limit))
                i += 1
                if status in ("timeout", "crash"):
                    break
            else:
                end = w.read(START_LIMIT_S)
                if not end or "end" not in end:
                    raise RuntimeError("worker did not report the end of its pass")
                rss.append(end["rss_kb"] / 1024.0)
                if trace:
                    summaries.append(end["trace"])
        finally:
            w.close()
    ok = [s for st, s in outcomes if st == "ok"]
    return {"outcomes": outcomes, "setups": setups, "rss_mb": max(rss, default=0.0),
            "summaries": summaries, "wall_s": sum(s for _, s in outcomes),
            # measured over reference-speed seconds of the same cases
            "slowdown": sum(measured) / sum(ok) if ok else 1.0}


def load_reference(workload):
    with (HERE / "reference" / f"{workload}.json").open(encoding="utf-8") as f:
        return json.load(f)


def select_cases(ref, seed):
    """(id, family, input, expected) for every recorded case, in the
    order the seed gives."""
    cases = [(f"{c['family']}/{k}", c["family"], c["input"], c["expected"])
             for k, c in enumerate(ref["cases"])]
    random.Random(seed).shuffle(cases)
    return cases


def inputs_digest(cases):
    blob = json.dumps([[c[0], c[1], c[2]] for c in cases], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_files(ref):
    """Names of recorded files (fixtures) whose bytes changed."""
    bad = []
    for rel, digest in ref.get("files", {}).items():
        path = ROOT / rel
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            bad.append(rel)
    return bad


def percentile(values, q):
    """q-th percentile (0 < q < 100) by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end(passes, setups):
    """End-to-end metrics of the untraced passes. Case times, and wall_s
    made of them, are at the reference host speed (see ``run_pass``);
    setup_s is measured as it is, being mostly file reading and
    unmarshalling, which the calibration unit does not track."""
    outcomes = [o for p in passes for o in p["outcomes"]]
    lat = [s for _, s in outcomes]
    failed = sum(1 for st, _ in outcomes if st != "ok")
    return {"setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "case_p50_s": statistics.median(lat),
            "case_p90_s": percentile(lat, 90),
            "ok_frac": 1.0 - failed / len(outcomes),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes)}


def _read(summary, source):
    kind, key = source
    if kind == "layer_calls":
        return summary["layers"].get(key, (0, 0.0))[0]
    if kind == "layer_self":
        return summary["layers"].get(key, (0, 0.0))[1]
    if kind == "counter":
        return summary["counters"].get(key, 0)
    calls, own, incl = summary["functions"].get(key, (0, 0.0, 0.0))
    return {"calls": calls, "self": own, "incl": incl}[kind]


def per_layer(plain, traced):
    """Per-layer metrics: medians over the traced passes, times brought
    to the reference host speed by each pass's ``slowdown``. Counts repeat
    exactly between passes; median_low keeps them whole. A run cut by
    RUN_LIMIT_S before any traced pass ended reports zeros, and its
    timeouts show in ``failed``."""
    summaries = [(s, 1.0 / p["slowdown"]) for p in traced for s in p["summaries"]] or [
        ({"layers": {}, "functions": {}, "counters": {}}, 1.0)]
    out = {}
    for name, (_, source) in PER_LAYER.items():
        if source[0] == "overhead":
            out[name] = (statistics.median(p["wall_s"] for p in traced)
                         / statistics.median(p["wall_s"] for p in plain) - 1.0) if traced else 0.0
        elif PER_LAYER[name][0] == "s":
            out[name] = statistics.median(k * _read(s, source) for s, k in summaries)
        else:
            out[name] = statistics.median_low(_read(s, source) for s, _ in summaries)
    return out


def run(workload, seed, seconds, trace, log=sys.stderr):
    """Run the workload; returns the result object printed by main."""
    ref = load_reference(workload)
    cases = select_cases(ref, seed)
    correct = True
    changed = check_files(ref)
    if changed:
        print(f"recorded inputs changed: {', '.join(changed)}", file=log)
        correct = False
    if seed == DEFAULT_SEED and inputs_digest(cases) != ref["default_inputs_sha256"]:
        print("the default seed no longer reproduces its recorded inputs", file=log)
        correct = False

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    probe_setup()  # untimed: compiles bytecode once per checkout
    setups = [probe_setup() for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    spans = HERE / "out" / f"spans-{workload}-seed{seed}.json"
    pass_s = []
    while time.monotonic() < deadline:
        elapsed = time.monotonic() - start
        samples = sum(len(p["outcomes"]) for p in plain)
        if trace:
            enough = len(plain) >= 2 and len(traced) >= 2
        else:
            enough = len(plain) >= MIN_PASSES and samples >= MIN_SAMPLES
        if enough and elapsed + statistics.median(pass_s) > seconds:
            break
        tracing_now = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        p = run_pass(cases, tracing_now, deadline, spans if tracing_now else None)
        pass_s.append(time.monotonic() - t0)
        (traced if tracing_now else plain).append(p)
        setups += p["setups"]

    everything = plain + traced
    outcomes = [o for p in everything for o in p["outcomes"]]
    failed = sum(1 for st, _ in outcomes if st != "ok")
    if any(st in ("wrong", "error", "crash") for st, _ in outcomes):
        correct = False
    if trace:
        values = per_layer(plain, traced)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        values = end_to_end(plain, setups)
        units = END_TO_END
    status = {}
    for st, _ in outcomes:
        status[st] = status.get(st, 0) + 1
    print(f"{workload} seed={seed}: {len(plain)} plain + {len(traced)} traced passes "
          f"of {len(cases)} cases in {time.monotonic() - start:.1f} s; {status}; "
          f"host slowdown {statistics.median(p['slowdown'] for p in plain):.3f}", file=log)
    return {"correct": correct, "attempted": len(outcomes), "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/toric_kernel/cli.py", "fixtures") if not (ROOT / p).exists()]
    if missing:
        print(f"not a toric-kernel checkout: {', '.join(missing)} missing under {ROOT}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
