"""Hypothesis settings for every run of the suite.

The loaded profile draws the same examples on every run and has no
deadline, so a property test cannot pass on one run and fail on the next,
or fail because a shared machine was slow.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
