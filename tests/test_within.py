"""``conftest.within`` stops a body at its budget rather than after it."""

import signal
import time

import pytest
from conftest import within


def test_a_body_past_its_budget_fails_at_the_budget():
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="budget of 0.2s"):
        with within(0.2):
            while time.monotonic() - start < 3:
                pass
    assert time.monotonic() - start < 1


def test_a_body_expiring_in_a_nested_call_fails_from_within():
    def spin(until):
        while time.monotonic() < until:
            pass

    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="budget of 0.2s") as failure:
        with within(0.2):
            spin(start + 3)
    assert time.monotonic() - start < 1
    # pytest formats the failure without the frame the alarm interrupted
    assert failure.value.__suppress_context__
    tb, names = failure.value.__traceback__, []
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert "spin" not in names and names[-1] == "within"


def test_the_outer_handler_and_timer_are_restored():
    def outer(signum, frame):
        raise AssertionError("outer timer fired")

    old = signal.signal(signal.SIGALRM, outer)
    try:
        signal.setitimer(signal.ITIMER_REAL, 30)
        with within(5):
            pass
        assert signal.getsignal(signal.SIGALRM) is outer
        assert 25 < signal.getitimer(signal.ITIMER_REAL)[0] <= 30
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
