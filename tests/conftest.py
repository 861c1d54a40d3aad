"""Hypothesis draws the same examples on every run: derandomized, with no
example database, so two checkouts run their properties on equal inputs.
Each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
