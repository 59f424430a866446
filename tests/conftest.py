"""Hypothesis runs derandomized with a bounded number of examples, so the
property tests draw the same cases on every run and stay quick."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=80)
settings.load_profile("tier1")
