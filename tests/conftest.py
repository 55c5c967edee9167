"""Shared test helpers."""

import signal
from contextlib import contextmanager


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs longer than ``seconds``
    of wall time (a real-time interval timer on this process)."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
