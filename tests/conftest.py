"""Suite-wide test settings.

The "eprlink" hypothesis profile derandomizes every property test, so each
run of the suite draws the same examples: a failure reproduces from the
commit alone, and no example database is written.

The watchdog fails a test still running after `HANG_S` seconds, about 12
times the slowest test (2.4 s on a 2-core VM), so a loop that never ends
fails its test instead of stalling the run.  It needs SIGALRM, and does
nothing where the platform lacks it.
"""

import signal

import pytest
from hypothesis import settings

settings.register_profile("eprlink", derandomize=True, database=None, deadline=None)
settings.load_profile("eprlink")

HANG_S = 30


class Hang(BaseException):
    """Not an Exception, so neither the code under test nor hypothesis catches it."""


def _expire(signum, frame):
    raise Hang(f"test still running after {HANG_S} s")


@pytest.fixture(autouse=True)
def watchdog():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(HANG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
