"""Hypothesis settings for the property tests: a fixed example sequence
and no per-example deadline, so that runs are reproducible and do not
fail on a slow or busy machine."""

from hypothesis import settings

settings.register_profile("nematic_walls", derandomize=True, deadline=None,
                          max_examples=30)
settings.load_profile("nematic_walls")
