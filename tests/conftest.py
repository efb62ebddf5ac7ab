"""Hypothesis runs derandomized: every run draws the same examples, so tier-1 stays
deterministic, and no failing examples are replayed from an example database."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None, print_blob=True)
settings.load_profile("tier1")
