import pytest

from warpbench import blocks
from warpbench._util import clear_caches

# The transfer ODE's tables cost about 10 ms per miss, and no test that takes
# fresh caches reads them, so they stay warm.
KEEP_WARM = (blocks._transfer_curves,)


@pytest.fixture
def fresh_caches():
    """Empty every ``per_key`` cache but ``KEEP_WARM`` before the test, so
    it builds each surgery window and each curve that a builder makes from
    a subset of its parameters, as the first sample of a scan does; and
    again after it, so what the test built stays out of later tests.  Its
    value empties them once more, for a test that needs it midway."""
    def fresh():
        clear_caches(KEEP_WARM)

    fresh()
    yield fresh
    fresh()
