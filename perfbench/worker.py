"""Worker process: runs the benchmark cases that run.py sends it, one at a time.

Protocol, one JSON object per line. The worker writes ``{"ready": t}``
as soon as ``toric_kernel.cli`` is imported, t being ``time.monotonic()``,
so the parent can measure set-up from the moment it started the process.
It then reads one job ``{"cases": [[family, input], ...], "trace": bool,
"spans": path or null}`` from stdin, writes one line per case in order,
and finishes with ``{"end": true, "rss_kb": ..., "trace": summary}``.
A case's line carries ``unit_s``, the mean time of the calibration units
(``calibrate.py``) run just before and just after the case.
"""

import time

import toric_kernel.cli  # noqa: F401  set-up ends when this import is done

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    proto = sys.stdout
    proto.write(json.dumps({"ready": READY}) + "\n")
    proto.flush()
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)

    import calibrate
    import tracing
    import workloads

    tracer = tracing.Tracer()
    if job["trace"]:
        tracer.install()
    before = calibrate.timed_unit()
    for k, (family, inp) in enumerate(job["cases"]):
        t0 = time.perf_counter()
        try:
            if job["trace"]:
                out, seconds = tracer.run_case(k, workloads.run_case, family, inp)
            else:
                out = workloads.run_case(family, inp)
                seconds = time.perf_counter() - t0
            after = calibrate.timed_unit()
            msg = {"ok": True, "s": seconds, "unit_s": (before + after) / 2,
                   "result": workloads.canonical(family, inp, out)}
            before = after
        except Exception as e:  # a failing case is reported, the pass goes on
            msg = {"ok": False, "s": time.perf_counter() - t0,
                   "error": f"{type(e).__name__}: {e}"[:500]}
            traceback.print_exc(file=sys.stderr)
        proto.write(json.dumps(msg) + "\n")
        proto.flush()
    end = {"end": True, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if job["trace"]:
        tracer.uninstall()
        summary = tracer.summary()
        end["trace"] = summary
        if job.get("spans"):
            names = sorted({s[0] for s in tracer.spans})
            index = {n: i for i, n in enumerate(names)}
            path = Path(job["spans"])
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as f:
                json.dump({"fields": ["name", "start", "end", "parent", "case"],
                           "names": names,
                           "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                                     for s in tracer.spans]}, f)
    proto.write(json.dumps(end) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
