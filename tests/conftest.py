"""Import jspr before any test module imports numpy, so that the suite
runs with the one-thread BLAS setting jspr applies on import."""

import jspr  # noqa: F401
