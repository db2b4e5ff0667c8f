"""Shared test settings: Hypothesis runs a fixed, reproducible set of examples."""

from hypothesis import settings

# derandomize draws the same examples on every run and every machine, and no
# example database is read or written; deadline=None because a draw's solve
# time depends on the draw
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("deterministic")
