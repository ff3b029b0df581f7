"""Simulators for known stochastic differential equations.

Provides the cusp catastrophe family (polynomial drift, constant noise) and a
bimodal-but-unistable model with state-dependent noise, plus Euler-Maruyama
integration and generation of labeled collections of short series for model
validation. Every built-in model carries one quadrature table of its
stationary distribution: every simulation starts from an inverse-transform
draw of it, and the coverage study scores against it. Single-walker paths
(euler_maruyama and _reference_path) use a scalar loop on Python floats;
collections of series use a vectorized loop over the batch of walkers. Both
do the same arithmetic in the same order, so a path does not depend on which
loop made it. Every trajectory is driven by a seeded generator stream derived
from (seed, series index), so parallel generation is reproducible regardless
of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Callable

import numpy as np

from .errors import PreconditionError, SimulationDiverged
from .numerics import cumulative_trapezoid, density_from_drift_diffusion, seed_sequence
from .tsdata import TimeSeries, TimeSeriesCollection, characteristic_timescale

__all__ = [
    "CuspParams",
    "SdeModel",
    "Trajectory",
    "SimulatedDataset",
    "cusp_model",
    "custom_bimodal_unistable",
    "euler_maruyama",
    "generate_short_series",
    "estimate_timescale",
    "step_from_fraction",
]

INTERNAL_DT = 0.01
DIVERGENCE_LIMIT = 1e6
QUADRATURE_POINTS = 4001


@dataclass(frozen=True)
class CuspParams:
    """Free parameters of the cusp SDE dx = r(a + b(x-lam) - (x-lam)^3)dt + sqrt(eps) dW."""

    alpha: float = 0.0
    beta: float = 1.0
    lam: float = 0.0
    r: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))) or self.r <= 0 or self.epsilon <= 0:
            raise PreconditionError(f"cusp parameters must be finite, and r and epsilon "
                                    f"positive; got {self}")


@dataclass(frozen=True)
class SdeModel:
    """A 1-D SDE dx = drift(x) dt + sqrt(diffusion(x)) dW with optional ground truth.

    ``diffusion`` is the squared noise intensity g (non-negative). ``label``
    is the true number of stable states when known. ``stationary`` is the
    table (grid, cdf) of the stationary distribution (see _stationary_table);
    every built-in model has one, and a model without it can be integrated
    from a given state but not started.
    """

    drift: Callable
    diffusion: Callable
    name: str
    params: dict = field(default_factory=dict)
    label: int | None = None
    stable_points: tuple[float, ...] = ()
    tipping_points: tuple[float, ...] = ()
    stationary: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class Trajectory:
    """Uniformly spaced simulated path."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SimulatedDataset:
    """A simulated collection together with its ground-truth sidecar document."""

    collection: TimeSeriesCollection
    ground_truth: dict


def cusp_model(p: CuspParams) -> SdeModel:
    """Cusp catastrophe SDE with constant squared noise intensity epsilon."""
    alpha, beta, lam, r, eps = p.alpha, p.beta, p.lam, p.r, p.epsilon

    def drift(x):
        u = x - lam
        return r * (alpha + beta * u - u * u * u)

    def diffusion(x):
        # The scalar loop's floats skip np.ndim, which costs more than the step.
        if isinstance(x, float) or not np.ndim(x):
            return eps
        return eps * np.ones_like(np.asarray(x, dtype=float))

    # Real roots of alpha + beta*u - u^3, classified by the drift slope.
    roots = np.roots([-1.0, 0.0, beta, alpha])
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real) + lam
    slope = r * (beta - 3.0 * (real - lam) ** 2)
    stable = tuple(float(x) for x, s in zip(real, slope) if s < 0)
    tipping = tuple(float(x) for x, s in zip(real, slope) if s > 0)

    # Truncation half-width 5*max(1, sqrt(beta)) keeps the quartic tails negligible.
    half = 5.0 * max(1.0, math.sqrt(max(beta, 0.0)))
    grid = np.linspace(lam - half, lam + half, QUADRATURE_POINTS)
    return SdeModel(
        drift=drift,
        diffusion=diffusion,
        name="cusp",
        params={"alpha": alpha, "beta": beta, "lam": lam, "r": r, "epsilon": eps},
        label=len(stable),
        stable_points=stable,
        tipping_points=tipping,
        stationary=_stationary_table(
            grid, r * (alpha + beta * (grid - lam) - (grid - lam) ** 3), np.full_like(grid, eps)),
    )


def custom_bimodal_unistable() -> SdeModel:
    """Unistable model whose state-dependent noise produces bimodal observations.

    drift(x) = exp(-0.08 x) - 0.95 for x <= 0 and -0.5 x^2 + 0.05 for x > 0
    (continuous at 0); squared noise g(x) = 0.844 exp(-(2x - 0.6)^2), peaking
    at x = 0.3. The single stable root sits at sqrt(0.1), between the two
    density peaks near -0.63 and 0.95.

    The stationary table covers (-2, 2.5). Further out g is so small that the
    running integral of 2f/g reaches 1e17 before the mass starts, and the
    quadrature cannot resolve the density.
    """

    def drift(x):
        x = np.asarray(x, dtype=float)
        left = np.exp(-0.08 * np.minimum(x, 0.0)) - 0.95
        right = -0.5 * x * x + 0.05
        out = np.where(x <= 0.0, left, right)
        return out if out.ndim else float(out)

    def diffusion(x):
        # u * u: a scalar's u ** 2 calls pow, which can round otherwise.
        u = 2.0 * np.asarray(x, dtype=float) - 0.6
        out = 0.844 * np.exp(-(u * u))
        return out if out.ndim else float(out)

    grid = np.linspace(-2.0, 2.5, QUADRATURE_POINTS)
    return SdeModel(
        drift=drift,
        diffusion=diffusion,
        name="bimodal-unistable",
        params={},
        label=1,
        stable_points=(math.sqrt(0.1),),
        tipping_points=(),
        stationary=_stationary_table(grid, drift(grid), diffusion(grid)),
    )


def euler_maruyama(m: SdeModel, x0: float, dt: float, n_steps: int, seed) -> Trajectory:
    """Integrate x_{n+1} = x_n + f(x_n) dt + sqrt(g(x_n) dt) z_n from a seeded stream.

    Deterministic given the seed. Raises SimulationDiverged with the step
    index if the state leaves [-1e6, 1e6] or becomes non-finite.
    """
    if not 0 < dt < math.inf:
        raise PreconditionError(f"dt must be finite and positive, got {dt}")
    if not 1 <= n_steps <= np.iinfo(np.intp).max:
        raise PreconditionError(f"n_steps must be from 1 to {np.iinfo(np.intp).max}, "
                                f"got {n_steps}")
    rng = np.random.default_rng(seed_sequence(seed))
    values = _simulate_path(m, x0, dt, rng.standard_normal(n_steps))
    return Trajectory(times=np.arange(n_steps + 1) * dt, values=values)


def _simulate_path(m: SdeModel, x0: float, dt: float, z: np.ndarray) -> np.ndarray:
    """Euler-Maruyama for one walker on Python floats; returns len(z)+1 values.

    The same arithmetic, in the same order, as one row of _simulate_batch,
    without the per-step array overhead that dominates a batch of one.
    """
    sqrt_dt = math.sqrt(dt)
    drift, diffusion = m.drift, m.diffusion
    values = np.empty(len(z) + 1)
    x = float(x0)
    values[0] = x
    for n, zn in enumerate(z.tolist()):
        g = float(diffusion(x))
        x = x + float(drift(x)) * dt + math.sqrt(g) * sqrt_dt * zn
        if not math.isfinite(x) or abs(x) > DIVERGENCE_LIMIT:
            raise SimulationDiverged(n + 1, x)
        values[n + 1] = x
    return values


def _simulate_batch(m: SdeModel, x0: np.ndarray, dt: float, z: np.ndarray) -> np.ndarray:
    """Vectorized Euler-Maruyama over a batch of walkers; returns (k, n_steps+1)."""
    k, n_steps = z.shape
    sqrt_dt = math.sqrt(dt)
    out = np.empty((k, n_steps + 1))
    x = np.asarray(x0, dtype=float).copy()
    out[:, 0] = x
    for n in range(n_steps):
        g = np.asarray(m.diffusion(x), dtype=float)
        x = x + np.asarray(m.drift(x), dtype=float) * dt + np.sqrt(g) * sqrt_dt * z[:, n]
        bad = ~np.isfinite(x) | (np.abs(x) > DIVERGENCE_LIMIT)
        if np.any(bad):
            raise SimulationDiverged(n + 1, float(x[np.argmax(bad)]))
        out[:, n + 1] = x
    return out


def _stationary_table(grid: np.ndarray, f, g) -> tuple[np.ndarray, np.ndarray]:
    """(grid, cdf) of the stationary distribution of drift f and squared noise
    intensity g on `grid`: the quadrature density, its running trapezoid
    integral, normalized to end at 1."""
    cdf = cumulative_trapezoid(density_from_drift_diffusion(grid, f, g), grid)
    cdf /= cdf[-1]
    return grid, cdf


def generate_short_series(
    m: SdeModel,
    n_series: int,
    pts_per_series: int,
    dt_target: float,
    seed,
) -> SimulatedDataset:
    """Simulate a labeled collection of short series with stationary starts.

    Each series draws an independent stationary initial state from the
    model's stationary table, evolves at the internal step INTERNAL_DT and is
    subsampled to dt_target, which must be a whole multiple of it.
    """
    if n_series < 1 or pts_per_series < 2:
        raise PreconditionError("need n_series >= 1 and pts_per_series >= 2")
    if not INTERNAL_DT <= dt_target < math.inf:
        raise PreconditionError(
            f"dt_target must be finite and >= internal step {INTERNAL_DT}, got {dt_target}")
    stride = round(dt_target / INTERNAL_DT)
    if abs(stride * INTERNAL_DT - dt_target) > 1e-9 * max(1.0, stride):
        raise PreconditionError(
            f"dt_target={dt_target} is not a whole multiple of the internal step {INTERNAL_DT}"
        )

    n_obs_steps = (pts_per_series - 1) * stride
    if n_obs_steps > np.iinfo(np.intp).max:
        raise PreconditionError(f"{n_obs_steps} internal steps per series exceed any array's size")
    obs = _short_paths(m, n_series, n_obs_steps, seed)[:, ::stride]
    times = np.arange(pts_per_series) * (stride * INTERNAL_DT)

    width = len(str(max(n_series - 1, 1)))
    series = tuple(
        TimeSeries(f"s{idx:0{width}d}", times, obs[idx]) for idx in range(n_series)
    )
    collection = TimeSeriesCollection(series)
    ground_truth = {
        "model": m.name,
        "params": m.params,
        "label": m.label,
        "stable_points": list(m.stable_points),
        "tipping_points": list(m.tipping_points),
        "state_range": [float(m.stationary[0][0]), float(m.stationary[0][-1])],
        "internal_dt": INTERNAL_DT,
        "dt_target": stride * INTERNAL_DT,
        "n_series": n_series,
        "pts_per_series": pts_per_series,
        "seed": _seed_repr(seed),
    }
    return SimulatedDataset(collection=collection, ground_truth=ground_truth)


def _short_paths(m: SdeModel, n_series: int, n_steps: int, seed) -> np.ndarray:
    """(n_series, n_steps + 1) paths at INTERNAL_DT from stationary starts, one
    stream spawned from `seed` each: generate_short_series' and the coverage study's."""
    rngs = [np.random.default_rng(c) for c in seed_sequence(seed).spawn(n_series)]
    x0 = np.array([_stationary_start(m, r) for r in rngs])
    z = np.stack([r.standard_normal(n_steps) for r in rngs])
    return _simulate_batch(m, x0, INTERNAL_DT, z)


def estimate_timescale(m: SdeModel, seed=0, total_time: float = 1000.0):
    """Characteristic time scale of a model, measured on one long reference run
    at the internal step INTERNAL_DT."""
    path = _reference_path(m, seed, total_time)
    ts = TimeSeries("reference", np.arange(len(path)) * INTERNAL_DT, path)
    return characteristic_timescale(TimeSeriesCollection((ts,)))


def _reference_path(m: SdeModel, seed, total_time: float) -> np.ndarray:
    """One long single-walker run of `total_time` at INTERNAL_DT from a
    stationary start, the values at every step; the reference run of
    estimate_timescale and the long series of the coverage study."""
    n_steps = _internal_steps(total_time, "total_time")
    rng = np.random.default_rng(seed_sequence(seed).spawn(1)[0])
    x0 = _stationary_start(m, rng)
    return _simulate_path(m, x0, INTERNAL_DT, rng.standard_normal(n_steps))


def step_from_fraction(frac: float, t_c: float) -> float:
    """`frac` times the time scale `t_c`, rounded to a whole number of
    INTERNAL_DT steps (see _internal_steps)."""
    return _internal_steps(frac * t_c, f"step fraction {frac} of t_c={t_c}") * INTERNAL_DT


def _internal_steps(duration: float, what: str) -> int:
    """`duration` rounded to a whole number of INTERNAL_DT steps;
    PreconditionError unless that is finite and from 1 to the largest array size."""
    steps = duration / INTERNAL_DT
    count = round(steps) if math.isfinite(steps) else 0
    if not 1 <= count <= np.iinfo(np.intp).max:
        raise PreconditionError(f"{what} is {steps:.3g} times the internal step {INTERNAL_DT}, "
                                f"not a step count from 1 to {np.iinfo(np.intp).max}")
    return count


def _stationary_start(m: SdeModel, rng) -> float:
    """One stationary initial state, drawn by inverse transform of the model's
    stationary table from one uniform of `rng`; the one place a simulation
    starts."""
    if m.stationary is None:
        raise PreconditionError(f"model {m.name!r} has no stationary table to start from")
    grid, cdf = m.stationary
    return float(np.interp(_open_uniform(rng), cdf, grid))


def _open_uniform(rng) -> float:
    # Uniform in the open interval (0,1); rng.uniform can return 0 exactly.
    while True:
        u = float(rng.uniform())
        if 0.0 < u < 1.0:
            return u


def _seed_repr(seed):
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return str(seed)
