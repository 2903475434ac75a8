"""Suite-wide test settings.

The "eprlink" hypothesis profile derandomizes every property test, so each
run of the suite draws the same examples: a failure reproduces from the
commit alone, and no example database is written.
"""

from hypothesis import settings

settings.register_profile("eprlink", derandomize=True, database=None, deadline=None)
settings.load_profile("eprlink")
