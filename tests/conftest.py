"""One Hypothesis profile for every test: examples drawn from a seed fixed
per test (so no example database), and no per-example deadline, so a run
tests what every other run tests, on a loaded host too."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
