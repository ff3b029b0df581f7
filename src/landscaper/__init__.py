"""Drift/diffusion reconstruction from collections of short time series."""

from . import derived, diagnostics, experiments, hmc, inference, sim, tsdata

__version__ = "0.1.0"

__all__ = [
    "tsdata",
    "sim",
    "hmc",
    "diagnostics",
    "inference",
    "derived",
    "experiments",
    "__version__",
]
