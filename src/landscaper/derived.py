"""Quantities derived from drift/diffusion curves.

Stationary density, potentials, root classification, multistability
posterior, tipping region, and mean exit times. Per-draw operations accept
any posterior-like object exposing `grid`, `drift_draws` and
`diffusion_draws` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, PreconditionError
from .numerics import cumulative_trapezoid, density_from_drift_diffusion, lapack, nearest_rank

__all__ = [
    "CurvePair",
    "StabilityStructure",
    "StationaryDensity",
    "ExitTimeSolution",
    "ExitTimeBand",
    "MultistabilityPosterior",
    "TippingRegion",
    "stationary_density",
    "effective_potential",
    "potential",
    "classify_roots",
    "multistability_posterior",
    "tipping_region",
    "exit_time",
    "exit_time_band",
]

DENSITY_FLOOR = 1e-300
# Fewest draws sharing the posterior-mean tipping point that an exit-time band
# is computed from.
MIN_RETAINED = 10
# Fewest valid single-tipping draws that a tipping region is computed from.
MIN_TIPPING_DRAWS = 20


def _check_curves(grid, drift, diffusion):
    """CurvePair's checks, on one curve or on a (draws, grid) stack of them."""
    if grid.ndim != 1 or drift.shape != diffusion.shape or drift.shape[-1:] != grid.shape:
        raise PreconditionError("curve arrays must have equal length")
    if len(grid) < 3:
        raise PreconditionError("need at least 3 grid points")
    if np.any(np.diff(grid) <= 0):
        raise PreconditionError("grid must be strictly increasing")
    if np.any(diffusion <= 0):
        raise PreconditionError("diffusion must be strictly positive")


@dataclass(frozen=True)
class CurvePair:
    """Drift and (strictly positive) diffusion values on an increasing grid."""

    grid: np.ndarray
    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "drift", np.asarray(self.drift, dtype=float))
        object.__setattr__(self, "diffusion", np.asarray(self.diffusion, dtype=float))
        _check_curves(self.grid, self.drift, self.diffusion)


@dataclass(frozen=True)
class StabilityStructure:
    """Zero crossings of the drift: downward = stable, upward = tipping."""

    stable_points: tuple[float, ...]
    tipping_points: tuple[float, ...]
    valid: bool


@dataclass(frozen=True)
class StationaryDensity:
    """Normalized stationary density on a grid."""

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if np.any(self.density < 0):
            raise PreconditionError("density must be non-negative")
        total = float(np.trapezoid(self.density, self.grid))
        if abs(total - 1.0) > 1e-6:
            raise PreconditionError(f"density integrates to {total}, not 1")


@dataclass(frozen=True)
class ExitTimeSolution:
    """Mean exit time T(x), zero at the tipping anchor, on both basin sides."""

    grid: np.ndarray
    times: np.ndarray
    tipping: float
    tipping_index: int


@dataclass(frozen=True)
class ExitTimeBand:
    """Posterior mean exit-time curve with pointwise lower 60%/40% credible curves."""

    grid: np.ndarray
    mean: np.ndarray
    lower60: np.ndarray
    lower40: np.ndarray
    retained: int
    tipping: float


@dataclass(frozen=True)
class MultistabilityPosterior:
    """Distribution over stable-state counts, after excluding ambiguous draws."""

    probabilities: dict[int, float]
    discarded_fraction: float
    n_draws: int

    @property
    def mode(self) -> int:
        return max(sorted(self.probabilities), key=lambda k: self.probabilities[k])


@dataclass(frozen=True)
class TippingRegion:
    """Posterior summary of the single tipping point's location."""

    mean: float
    interval50: tuple[float, float]
    interval95: tuple[float, float]
    n_used: int


def stationary_density(cp: CurvePair) -> StationaryDensity:
    """pi(x) ~ (1/g) exp{2 int f/g} by cumulative trapezoid, normalized."""
    pdf = density_from_drift_diffusion(cp.grid, cp.drift, cp.diffusion)
    return StationaryDensity(grid=cp.grid, density=pdf)


def effective_potential(sd: StationaryDensity) -> np.ndarray:
    """-log pi, with the density floored at 1e-300."""
    return -np.log(np.maximum(sd.density, DENSITY_FLOOR))


def potential(cp: CurvePair) -> np.ndarray:
    """Stability landscape U = -int f, anchored at U(grid start) = 0."""
    return -cumulative_trapezoid(cp.drift, cp.grid)


def _crossings(grid: np.ndarray, drift: np.ndarray):
    """Row, location and direction (True = downward = stable), in row-major
    order, of every sign change between consecutive nonzero values of a row
    of a (rows, grid) drift array, located by linear interpolation."""
    rows, cols = np.nonzero(drift != 0.0)
    f = drift[rows, cols]
    positive = f > 0
    i = np.flatnonzero((positive[:-1] != positive[1:]) & (rows[:-1] == rows[1:]))
    a, b, fa, fb = cols[i], cols[i + 1], f[i], f[i + 1]
    return rows[i], grid[a] - fa * (grid[b] - grid[a]) / (fb - fa), positive[i]


def classify_roots(cp: CurvePair) -> StabilityStructure:
    """Locate strict sign changes of the drift by linear interpolation.

    Touching zero without changing sign is not a root. The structure is valid
    when there is exactly one more stable point than tipping points.
    """
    _, loc, down = _crossings(cp.grid, cp.drift[None])
    stable, tipping = tuple(loc[down].tolist()), tuple(loc[~down].tolist())
    return StabilityStructure(stable, tipping, len(stable) == len(tipping) + 1)


def _roots(p):
    """Each draw's stable count, whether its root structure is valid, and its
    tipping point if it has exactly one, i.e. is valid with two stable points."""
    _check_curves(p.grid, p.drift_draws, p.diffusion_draws)
    n = len(p.drift_draws)
    rows, loc, down = _crossings(p.grid, p.drift_draws)
    stable = np.bincount(rows[down], minlength=n)
    valid = stable == np.bincount(rows[~down], minlength=n) + 1
    single = ~down & (valid & (stable == 2))[rows]
    tipping = np.full(n, np.nan)
    tipping[rows[single]] = loc[single]
    return stable, valid, tipping


def multistability_posterior(p) -> MultistabilityPosterior:
    """Histogram of stable-state counts over valid posterior draws."""
    if len(p.drift_draws) == 0:
        raise PreconditionError("posterior has no draws")
    stable, valid, _ = _roots(p)
    kept = int(valid.sum())
    if kept == 0:
        raise DegenerateDataError("every posterior draw has an ambiguous root structure")
    counts = np.bincount(stable[valid]).tolist()
    return MultistabilityPosterior(
        probabilities={k: c / kept for k, c in enumerate(counts) if c},
        discarded_fraction=1.0 - kept / len(valid),
        n_draws=len(valid),
    )


def tipping_region(p) -> TippingRegion:
    """Mean and central 50%/95% intervals of the tipping location, over the
    valid draws with one tipping point; needs MIN_TIPPING_DRAWS of them."""
    stable, valid, tipping = _roots(p)
    arr = tipping[valid & (stable == 2)]
    if len(arr) < MIN_TIPPING_DRAWS:
        raise PreconditionError(
            f"only {len(arr)} valid bistable draws; need >= {MIN_TIPPING_DRAWS}")
    q = np.quantile(arr, [0.025, 0.25, 0.75, 0.975])
    return TippingRegion(
        mean=float(arr.mean()),
        interval50=(float(q[1]), float(q[2])),
        interval95=(float(q[0]), float(q[3])),
        n_used=len(arr),
    )


def _uniform_spacing(grid: np.ndarray) -> float:
    steps = np.diff(grid)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-8):
        raise PreconditionError("exit_time requires a uniformly spaced grid")
    return h


def exit_time(cp: CurvePair, tipping: float) -> ExitTimeSolution:
    """Solve f T' + (g/2) T'' = -1 on each side of the tipping point.

    Central differences on the uniform grid, one tridiagonal system over the
    whole grid, solved by LAPACK's dgtsv: the grid node nearest the tipping
    location is a Dirichlet row T = 0 that no other row refers to, so the two
    basin sides never mix, and the two outer ends are one-sided zero-slope
    rows. A singular system is a DegenerateDataError.
    """
    grid, f, g = cp.grid, cp.drift, cp.diffusion
    if not (grid[0] < tipping < grid[-1]):
        raise PreconditionError("tipping point must lie strictly inside the grid")
    h = _uniform_spacing(grid)
    n = len(grid)
    k = int(np.argmin(np.abs(grid - tipping)))
    if k == 0 or k == n - 1:
        raise PreconditionError("tipping point snaps to a boundary node")
    if k == 1 or k == n - 2:
        raise PreconditionError("basin side has too few grid nodes")

    # Row j is sub[j - 1] T(j-1) + main[j] T(j) + sup[j] T(j+1).
    adv = f[1:-1] / (2.0 * h)
    dif = g[1:-1] / (2.0 * h * h)
    sub = np.empty(n - 1)
    main = np.empty(n)
    sup = np.empty(n - 1)
    sub[:-1] = dif - adv
    main[1:-1] = -2.0 * dif
    sup[1:] = dif + adv
    # Zero-slope rows T(1) - T(0) = 0 and T(n-1) - T(n-2) = 0.
    main[0], sup[0] = -1.0, 1.0
    sub[-1], main[-1] = -1.0, 1.0
    # Row k is T(k) = 0, and column k is empty but for it.
    main[k] = 1.0
    sub[k - 1] = sub[k] = sup[k - 1] = sup[k] = 0.0
    rhs = np.full(n, -1.0)
    rhs[[0, k, -1]] = 0.0
    dgtsv, = lapack("dgtsv")
    *_, times, info = dgtsv(sub, main, sup, rhs)
    if info:
        raise DegenerateDataError(f"singular exit-time system: zero pivot in row {info}")
    if not np.all(np.isfinite(times)):
        raise DegenerateDataError("exit-time solve produced non-finite values")
    lowest = float(times.min())
    if lowest < -1e-9 * max(1.0, float(np.abs(times).max())):
        raise DegenerateDataError(
            f"exit-time solution dips to {lowest:.3e}; grid too coarse for this drift"
        )
    np.maximum(times, 0.0, out=times)
    return ExitTimeSolution(grid=grid, times=times, tipping=float(grid[k]), tipping_index=k)


def exit_time_band(p) -> ExitTimeBand:
    """Exit-time posterior band from draws sharing the posterior-mean tipping point.

    Draws are retained when they are valid, have exactly one tipping point,
    and that point lies within one grid cell of the posterior-mean drift's
    tipping point; each retained draw's BVP uses that shared anchor node, and
    at least MIN_RETAINED draws must be retained. At each grid node, the lower
    curves are the retained draws' nearest-rank lower 40th and 60th
    percentiles.
    """
    grid = p.grid
    mean_cp = CurvePair(grid, p.drift_draws.mean(axis=0), p.diffusion_draws.mean(axis=0))
    structure = classify_roots(mean_cp)
    if not (structure.valid and len(structure.tipping_points) == 1):
        raise DegenerateDataError("posterior-mean drift is not bistable")
    tip = structure.tipping_points[0]
    stable, valid, tipping = _roots(p)
    near = valid & (stable == 2) & (np.abs(tipping - tip) <= _uniform_spacing(grid))

    solutions = []
    for f, g in zip(p.drift_draws[near], p.diffusion_draws[near]):
        try:
            solutions.append(exit_time(CurvePair(grid, f, g), tip))
        except DegenerateDataError:
            continue
    if len(solutions) < MIN_RETAINED:
        raise DegenerateDataError(f"only {len(solutions)} draws share the posterior-mean "
                                  f"tipping point; need >= {MIN_RETAINED}")
    curves = np.asarray([s.times for s in solutions])
    ranked = np.sort(curves, axis=0)
    return ExitTimeBand(
        grid=grid,
        mean=curves.mean(axis=0),
        lower60=ranked[nearest_rank(len(curves), 0.6)],
        lower40=ranked[nearest_rank(len(curves), 0.4)],
        retained=len(curves),
        tipping=solutions[0].tipping,
    )
