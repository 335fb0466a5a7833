import pytest

from warpbench import blocks, curves


@pytest.fixture
def fresh_windows():
    """Empty the surgery window caches, so the test builds each window it
    uses, as the first sample of a scan does."""
    for factory in (curves._join_window, blocks._flatten_window,
                    blocks._slope_end_window):
        factory.cache_clear()
