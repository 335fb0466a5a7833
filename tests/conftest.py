import pytest

from warpbench import blocks, curves


@pytest.fixture
def fresh_caches():
    """Empty the surgery window caches and the caches of the curves a
    builder makes from a subset of its parameters, so the test builds each
    window and curve it uses, as the first sample of a scan does."""
    for factory in (curves._join_window, blocks._flatten_window,
                    blocks._slope_end_window, blocks._handle1_height,
                    blocks._handle2_collar, blocks._handle2_graph,
                    blocks._projective_warp):
        factory.cache_clear()
