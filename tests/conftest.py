"""Shared test settings: one bounded, reproducible hypothesis profile."""

# first, before anything imports numpy: the session gets the package's one-thread OpenBLAS pool
import qwchannel  # noqa: F401

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("qwchannel", max_examples=50, deadline=None,
                              derandomize=True, database=None)
    settings.load_profile("qwchannel")
