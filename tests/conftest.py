"""Helpers shared by the test modules."""

import time
from contextlib import contextmanager


@contextmanager
def within(seconds):
    """Fail when the body of the with block runs for `seconds` or longer."""
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"
