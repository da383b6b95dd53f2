"""Shared test settings.

Property tests draw from a fixed seed and keep no example database, so
every run of the suite draws the same examples."""

from hypothesis import settings

settings.register_profile("imj", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("imj")
