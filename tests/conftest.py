"""Shared pytest set-up: a deterministic hypothesis profile.

Property tests draw their examples from a hash of the test function
(``derandomize``), so every run checks the same examples, and no example
is failed for its wall time (``deadline=None``), which varies with host
load.  The profile is registered only when hypothesis is installed; the
tests that need it skip without it.
"""

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is an optional test dependency
    settings = None

if settings is not None:
    settings.register_profile("polarfact", derandomize=True, deadline=None, max_examples=60)
    settings.load_profile("polarfact")
