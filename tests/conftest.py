"""Fixtures shared by the test modules."""

import signal

import pytest


@pytest.fixture
def deadline(request):
    """Fail the test once it has run for 10 s (or the seconds passed by an
    indirect parametrize), rather than let it hang."""
    seconds = getattr(request, "param", 10)

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
