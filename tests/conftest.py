"""Hypothesis settings for the suite: derandomized, so every run draws the
same examples, with no example database and no deadline (timings on a
loaded machine would make the suite flaky)."""

from hypothesis import settings

settings.register_profile("pmat", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("pmat")
