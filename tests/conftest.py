"""Hypothesis profiles: ``--hypothesis-profile=ci`` draws the same examples on every run
and prints the blob that reproduces a failing one."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
