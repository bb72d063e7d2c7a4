"""A fixed unit of plain-Python work that measures how fast the host runs now.

The benchmark shares a host whose speed for one interpreter thread drifts
by up to 1.5x within seconds, as neighbours come and go. The worker times
``unit()`` just before and just after every case, on the same thread, and
``run.py`` scales the case's time by ``REF_UNIT_S`` over the mean of the
two, so that case times are reported in seconds at a fixed host speed.

The unit does what the library's inner loops do: exact elimination over
``Fraction``, big-integer products and remainders, and hashing of small
integer tuples into sets and dicts. It imports nothing from the library,
so no change to the library can change its time.
"""

import gc
import random
import time
from fractions import Fraction

# Median unit time on the reference host (2-vCPU x86-64 container, Python 3.11).
REF_UNIT_S = 0.0035

_rng = random.Random(20220302)
_MATRIX = [[_rng.randint(-50, 50) for _ in range(6)] for _ in range(6)]
_POINTS = [tuple(_rng.randint(-9, 9) for _ in range(4)) for _ in range(60)]
_BIG = [_rng.getrandbits(600) | 1 for _ in range(12)]


def unit():
    """One unit of work; returns a checksum so that none of it is skipped."""
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    acc = 1
    for a in _BIG:
        for b in _BIG:
            acc = (acc * a + b) % (b * b + 1)
    seen = set()
    counts = {}
    for p in _POINTS:
        for q in _POINTS[:20]:
            s = tuple(x + y for x, y in zip(p, q))
            seen.add(s)
            counts[s[0]] = counts.get(s[0], 0) + 1
    return hash((m[-1][-1], acc, len(seen), len(counts)))


def timed_unit():
    """Seconds one ``unit()`` takes now. The collector is off meanwhile, so
    that the size of the library's heap does not enter the unit time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        unit()
        return time.perf_counter() - t0
    finally:
        gc.enable()


if __name__ == "__main__":
    import statistics

    print(statistics.median(timed_unit() for _ in range(200)))
