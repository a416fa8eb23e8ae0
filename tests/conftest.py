"""Settings shared by the test modules."""

from hypothesis import settings

# Property tests replay the same examples on every run, so a failure
# reproduces, and are not timed per example, since a cold compile or a slow
# host would fail them spuriously. Loaded for every test under tests/.
settings.register_profile("chebdde", derandomize=True, deadline=None)
settings.load_profile("chebdde")
