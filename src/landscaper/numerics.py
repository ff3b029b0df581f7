"""Small shared numerical routines, and the package's one entry to scipy.

`cumulative_trapezoid` is scipy's formula written out in numpy, so importing
the package (and every CLI start) does not load `scipy.integrate`. `lapack`
is the only place the package touches scipy: it hands out scipy's compiled
LAPACK wrappers without importing `scipy.linalg`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import DegenerateDataError, PreconditionError

__all__ = ["cumulative_trapezoid", "density_from_drift_diffusion", "lapack",
           "nearest_rank", "seed_sequence"]

# Largest rounding error density_from_drift_diffusion accepts in its exponent:
# the unit roundoff times the largest magnitude of the running integral.
DENSITY_ROUNDOFF_BOUND = 1e-6


def seed_sequence(seed) -> np.random.SeedSequence:
    """The SeedSequence of a seed, or `seed` itself if it is one; every seed a
    user gives enters here, and a negative one is a PreconditionError."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(seed)


def cumulative_trapezoid(y, x) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0 (len(x) values).

    The same arithmetic, in the same order, as
    ``scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)`` on 1-D input.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def density_from_drift_diffusion(grid, f, g) -> np.ndarray:
    """Normalized stationary density pi(x) ~ (1/g) exp(2 int f/g) on a grid.

    Cumulative trapezoid of 2 f/g from the grid start, stabilized by
    subtracting its maximum before exponentiation, then normalized by the
    trapezoid integral. Used both by the curve-level derived quantities and by
    the simulators' quadrature so the two stay numerically identical.

    Raises DegenerateDataError, rather than return a wrong density, when the
    normalization overflows or when rounding alone exceeds
    DENSITY_ROUNDOFF_BOUND. The bound is on the integral's largest magnitude,
    not its maximum: one that falls far below zero and climbs back carries
    that rounding into a second peak.
    """
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    exponent = cumulative_trapezoid(2.0 * f / g, grid)
    reach = np.abs(exponent).max()
    if reach * (np.finfo(float).eps / 2) > DENSITY_ROUNDOFF_BOUND:
        raise DegenerateDataError(
            f"stationary density not resolvable on [{grid[0]}, {grid[-1]}]: the running "
            f"integral of 2f/g reaches {reach:.3g} in magnitude, beyond double precision")
    exponent -= exponent.max()
    unnorm = np.exp(exponent) / g
    norm = np.trapezoid(unnorm, grid)
    if not np.isfinite(norm) or norm <= 0:
        raise DegenerateDataError("stationary density normalization overflowed")
    return unnorm / norm


def nearest_rank(n: int, q: float) -> int:
    """0-based position, in n sorted values, of the nearest-rank lower
    q-quantile: the ceil(q*n)-th smallest, and at least the first."""
    return max(1, int(np.ceil(q * n))) - 1



def lapack(*names) -> tuple:
    """scipy's LAPACK wrappers of the given names, such as "dpotrf", in order.

    Loaded on first use rather than at import, so that importing the package
    (and so every CLI start) does not load scipy. Importing
    scipy.linalg.lapack imports all of scipy.linalg, and with it scipy's
    array-API layer: about 0.3 s of every process, against a few milliseconds
    for the compiled wrapper module the routines live in, which is loaded on
    its own when nothing has imported it yet. They are the same objects that
    scipy.linalg.lapack exports.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy

        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
        if spec is None:
            from scipy.linalg import lapack as module
        else:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
    return tuple(getattr(module, n) for n in names)
