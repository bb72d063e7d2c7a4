"""Helpers shared by the test modules."""

import time
from contextlib import contextmanager

from toric_kernel import zlattice as zl


@contextmanager
def within(seconds):
    """Fail when the body of the with block runs for `seconds` or longer."""
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def snf_kernel(M):
    """Kernel basis read off the Smith column transform: the oracle for
    zl.kernel_basis and the basis the library printed before it read
    every kernel off the column HNF."""
    rows, cols = zl.shape(M)
    S, _, Q = zl.snf(M)
    rank = sum(1 for i in range(min(rows, cols)) if S[i][i] != 0)
    return [[Q[i][j] for j in range(rank, cols)] for i in range(cols)]
