"""Hypothesis draws the same examples on every run: derandomized, with no
example database, so two checkouts run their properties on equal inputs.
Each test keeps its own ``max_examples``."""

import pytest
from hypothesis import settings

from hadperm import cli

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def two_blas_threads():
    """Numpy's bundled OpenBLAS on two threads for the test, restored after
    it; yields the thread-count getter.  Skipped under another BLAS build."""
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    get, set_ = threads
    before = get()
    set_(2)
    yield get
    set_(before)
