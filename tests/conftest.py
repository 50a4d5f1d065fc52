"""Fixtures shared by the test modules."""

import signal

import pytest


@pytest.fixture
def alarm():
    """Fails a case still running after 10 s: a refusal must come before
    any loop over the value it refuses.  The fixture arms the alarm for
    the whole test; calling the function it yields arms it afresh, so a
    hypothesis test bounds each of its cases."""

    def expire(signum, frame):
        pytest.fail("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield lambda: signal.alarm(10)
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
