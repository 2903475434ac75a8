"""Suite-wide test settings.

The "eprlink" hypothesis profile derandomizes every property test, so each
run of the suite draws the same examples: a failure reproduces from the
commit alone, and no example database is written.

At the end of the session the sampler's helper processes are stopped, and
the run fails if one of them is still running 5 s after its pipe closed.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("eprlink", derandomize=True, database=None, deadline=None)
settings.load_profile("eprlink")


def pytest_sessionfinish(session):
    sampler = sys.modules.get("eprlink._mc")
    if sampler is not None and not sampler._stop_helpers():
        print("\na sampler helper process outlived its pipe by 5 s", file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
