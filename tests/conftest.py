"""Import jspr before any test module imports numpy, so that the suite
runs with the one-thread BLAS setting jspr applies on import.

HYPOTHESIS_PROFILE=ci runs every property test on derandomized examples,
so a failure in CI replays locally with the same setting; the default
profile stays random."""

import os

from hypothesis import settings

import jspr  # noqa: F401

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
