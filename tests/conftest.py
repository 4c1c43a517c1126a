import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples on
# every run and drops the per-example deadline, whose timing a loaded CI
# runner cannot keep.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
