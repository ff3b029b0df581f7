"""Bayesian posterior over drift and log-diffusion functions, sampled by HMC.

The increments likelihood is Gaussian,

    dx_n ~ N(f(x_n) dt_n, sqrt(exp(ghat(x_n)) dt_n)),

with GP priors on the drift f (EQ + constant + linear kernel) and on the
log squared noise intensity ghat (EQ kernel). Both EQ priors use the
reduced-rank Hilbert-space basis of Solin & Sarkka (2020, Stat. Comput.
30:419): on [c - L, c + L], with c the centre of the data and L
BOUNDARY_FACTOR times the half-width of the padded data range, the EQ
kernel is approximated by sum_j S(sqrt(lambda_j)) phi_j(x) phi_j(x'), with
phi_j(x) = L^-1/2 sin(pi j (x - c + L) / 2L), lambda_j = (pi j / 2L)^2 and
S the kernel's spectral density. A curve is then a fixed basis times
weights sqrt(S_j) z_j on standard-normal latents z. With m = `n_anchors`,
the drift's m latents are m - 2 basis weights and the exact constant and
linear terms sigma_b z_b + sigma_l z_l (x - c); the diffusion's m latents
are m basis weights. The basis at the observed states is fixed, so the
hyperparameters enter only through the m weight scales: no per-state
factorisation.

Hyperparameters are sampled on log scale with Inverse-Gamma priors on the
constrained scale (shape/scale 2,2 on the kernel amplitudes sigma, 5,5 on
length scales) and the log-scale Jacobian included. The gradient of the log
posterior is computed analytically. The support is the states whose six
log hypers all lie in [-HYPER_BOUND, HYPER_BOUND] (`_in_support`):
`TargetContext.batch` gives any other state log density -inf (its only
rule: a non-finite value or gradient is `hmc`'s to reject), so the sampler
never keeps one, and `Posterior` refuses draws outside it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from . import hmc
from .diagnostics import ess, rhat
from .errors import ConvergenceWarning, DegenerateDataError, IngestError, PreconditionError
from .tsdata import (TimeSeriesCollection, TransitionSet, integer, list_of, number, read_document,
                     to_transitions)

__all__ = [
    "ModelState",
    "FitConfig",
    "Posterior",
    "log_posterior",
    "rhat",
    "ess",
    "fit",
]

HYPER_BOUND = 30.0
# A fit has converged when every parameter's split-chain Rhat is at most this.
MAX_RHAT = 1.05
PADDING = 0.1
GRID_SIZE = 200
# The basis lives on [c - L, c + L], L this many times the padded data
# half-width. On the README data, for length scales between the prior's 1 %
# and 95 % quantiles, the boundary costs the EQ kernel up to 0.7 sigma^2 at
# 1.5; at 3 the error stays below 0.01 sigma^2.
BOUNDARY_FACTOR = 3.0

# Inverse-Gamma prior shapes/scales: variances and length scales.
VAR_PRIOR = (2.0, 2.0)
LEN_PRIOR = (5.0, 5.0)

HYPER_NAMES = (
    "drift_eq_sigma",
    "drift_lengthscale",
    "drift_const_sigma",
    "drift_linear_sigma",
    "diff_eq_sigma",
    "diff_lengthscale",
)
# Prior (shape, scale) per hyper, in vector order; amplitudes sigma carry the
# Inverse-Gamma(2,2), length scales the Inverse-Gamma(5,5).
HYPER_PRIORS = (VAR_PRIOR, LEN_PRIOR, VAR_PRIOR, VAR_PRIOR, VAR_PRIOR, LEN_PRIOR)
N_HYPERS = len(HYPER_NAMES)
PRIOR_SHAPE = np.array([shape for shape, _ in HYPER_PRIORS])
PRIOR_SCALE = np.array([scale for _, scale in HYPER_PRIORS])
# Sum of the Inverse-Gamma log normalisers, shape log(scale) - lgamma(shape).
PRIOR_LOG_NORM = sum(shape * math.log(scale) - math.lgamma(shape) for shape, scale in HYPER_PRIORS)
LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ModelState:
    """Standard-normal latents plus log-scale kernel hyperparameters (the
    HMC state).

    `drift_hypers` is (log eq-amplitude, log lengthscale, log const-amplitude,
    log linear-amplitude); `diff_hypers` is (log eq-amplitude, log lengthscale).
    """

    z_f: np.ndarray
    z_g: np.ndarray
    drift_hypers: np.ndarray
    diff_hypers: np.ndarray

    def __post_init__(self):
        for name in ("z_f", "z_g", "drift_hypers", "diff_hypers"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if len(self.z_f) != len(self.z_g):
            raise PreconditionError("z_f and z_g must have matching basis sizes")
        if len(self.drift_hypers) != 4 or len(self.diff_hypers) != 2:
            raise PreconditionError("expected 4 drift and 2 diffusion hyperparameters")
        for a in (self.z_f, self.z_g, self.drift_hypers, self.diff_hypers):
            if not np.all(np.isfinite(a)):
                raise PreconditionError("model state must be finite")

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.z_f, self.z_g, self.drift_hypers, self.diff_hypers])


@dataclass(frozen=True)
class FitConfig:
    """Sampler and discretization settings for `fit`. `n_anchors` is the
    number m of latents per curve, and so the basis size."""

    n_chains: int = 4
    n_iterations: int = 2000
    n_anchors: int = 30
    max_leapfrog: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_chains", 1), ("n_iterations", 100), ("n_anchors", 2),
                            ("max_leapfrog", 1)):
            if getattr(self, name) < least:
                raise PreconditionError(f"{name} must be >= {least}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc, hint=None) -> "FitConfig":
        """A config from a JSON object setting any of the fields, each an
        integer; IngestError for any other key or value, an unknown key's
        followed by `hint`."""
        return cls(**read_document(doc, dict.fromkeys((f.name for f in fields(cls)), integer),
                                   "FitConfig", hint=hint))

    def layout(self, lo: float, hi: float):
        """(grid, center, half_width) of a fit to data on [lo, hi]: GRID_SIZE
        grid points evenly spaced over the range widened by PADDING times its
        width at each end, its midpoint, and the widened range's half-width."""
        span = hi - lo
        if not 0 < span < math.inf:
            raise DegenerateDataError(f"data range [{lo}, {hi}] is not a finite interval "
                                      "of positive width")
        pad = PADDING * span
        return (np.linspace(lo - pad, hi + pad, GRID_SIZE), 0.5 * (lo + hi),
                0.5 * span + pad)


class TargetContext:
    """The log posterior of one data set, as a target for `hmc.sample`.

    Called on one state it returns (log density, gradient), and `batch`
    evaluates a stack of states at once. The basis functions of both curves
    at the observed states, the only n x m arrays, are made here once.
    """

    def __init__(self, x, dx, dt, m: int, center: float, half_width: float):
        self.x, self.dx, self.dt = (np.asarray(a, dtype=float) for a in (x, dx, dt))
        if m < 2:
            raise PreconditionError("need at least 2 basis functions")
        if not 0 < half_width < math.inf:
            raise PreconditionError(f"the basis domain's half-width {half_width} must be "
                                    "finite and positive")
        self.m, self.center = m, float(center)
        if self.x.size and max(self.center - self.x.min(), self.x.max() - self.center) > half_width:
            raise PreconditionError("the basis domain must cover the observed state range")
        self.boundary = BOUNDARY_FACTOR * half_width
        self.freq = math.pi * np.arange(1, m + 1) / (2.0 * self.boundary)
        self.lam = self.freq**2
        # Which weights belong to an EQ kernel: all of the diffusion's, and all
        # of the drift's but its constant and linear terms.
        self.eq_mask = np.ones((2, m))
        self.eq_mask[0, m - 2:] = 0.0
        self.design = self._design(self.x)
        self.dim = 2 * m + N_HYPERS
        # The state-independent part of the log density: Gaussian normalisers of
        # the increments and of the latents, and the Inverse-Gamma ones.
        self.log_norm = (
            -0.5 * self.x.size * LOG_2PI - 0.5 * float(np.log(self.dt).sum())
            - m * LOG_2PI + PRIOR_LOG_NORM
        )

    def initial_vector(self) -> np.ndarray:
        # Each hyper starts at the log of its Inverse-Gamma prior's mean.
        hypers = [math.log(scale / (shape - 1.0)) for shape, scale in HYPER_PRIORS]
        return np.concatenate([np.zeros(2 * self.m), hypers])

    def _design(self, points) -> np.ndarray:
        """The basis functions at `points`, (2, m, len(points)), one function
        per row: [0] the drift's, the sine functions phi_1 .. phi_(m-2), then
        1 and x - c; [1] the diffusion's, phi_1 .. phi_m. phi_j(x) = L^-1/2
        sin(pi j (x - c + L) / 2L) with L = `boundary`."""
        u = np.asarray(points, dtype=float) - self.center
        phi = np.sin(np.multiply.outer(self.freq, u + self.boundary)) / math.sqrt(self.boundary)
        design = np.stack([phi, phi])
        design[0, -2] = 1.0
        design[0, -1] = u
        return design

    def _scales(self, eta):
        """The prior standard deviations s (k, 2, m) of the weights of k
        states' log hypers `eta` (k, 6), and the squared length scales
        (k, 2) of the drift and diffusion. An EQ weight's is the square root
        of the kernel's spectral density at its frequency, sigma (2 pi)^1/4
        l^1/2 exp(-l^2 lambda_j / 4); the drift's constant and linear
        weights take sigma_b and sigma_l."""
        m = self.m
        log_l = eta[:, 1::4]
        l2 = np.exp(2.0 * log_l)
        log_s = ((eta[:, 0::4] + 0.5 * log_l + 0.25 * LOG_2PI)[:, :, None]
                 - 0.25 * l2[:, :, None] * self.lam)
        log_s[:, 0, m - 2:] = eta[:, 2:4]
        return np.exp(log_s), l2

    # -- forward + gradient ------------------------------------------------

    def log_posterior_and_grad(self, theta):
        """Log posterior and gradient at one state: row 0 of `batch`."""
        logp, grad = self.batch(np.asarray(theta, dtype=float)[None])
        return float(logp[0]), grad[0]

    __call__ = log_posterior_and_grad

    def batch(self, thetas):
        """Log posterior and gradient of each row of `thetas` (k, dim), as
        arrays (k,) and (k, dim).

        A row's bits do not depend on the batch it is in: every row goes
        through the same floating-point operations, on the same BLAS
        routines, as when it is evaluated alone. Array work is stacked
        across rows only where each row stays its own computation:
        elementwise operations, stacked matrix products, row sums, and
        `np.vecdot`, one BLAS dot per row, where a (k, L) @ (L,) product
        would be one matrix-vector product with other bits. Every row is
        evaluated as it stands, silently even with log hypers of +-400, and
        a row outside the support then gets log density -inf. Any other row
        comes back as computed, finite or not: the sampler screens it.
        """
        thetas = np.asarray(thetas, dtype=float)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            logp, grad = self._evaluate(thetas)
        inside = _in_support(thetas[:, 2 * self.m:])
        if not inside.all():  # rare; unguarded, the masked store would slow every call
            logp[~inside] = -np.inf
        return logp, grad

    def _evaluate(self, theta):
        # Stacks (k, 2, ...) hold state i's drift at [i, 0] and its diffusion
        # at [i, 1], so the latents z are theta's first 2m columns as they stand.
        k, m = len(theta), self.m
        eta = theta[:, 2 * m:]
        s, l2 = self._scales(eta)
        z = theta[:, : 2 * m]
        w = s * z.reshape(k, 2, m)
        values = (w[:, :, None, :] @ self.design)[:, :, 0]
        f_x, ghat_x = values[:, 0], values[:, 1]

        # Increment variance is exp(ghat) dt. adj holds the adjoints of the
        # likelihood wrt f(x_n) and wrt ghat(x_n), in the rows of f and ghat.
        adj = np.empty_like(values)
        a_vec, b_vec = adj[:, 0], adj[:, 1]
        resid = self.dx - f_x * self.dt
        np.multiply(resid, np.exp(-ghat_x), out=a_vec)   # resid dt / var
        r2_var = resid * a_vec / self.dt                 # resid^2 / var
        np.multiply(0.5, r2_var, out=b_vec)
        b_vec -= 0.5
        exp_neg = np.exp(-eta)
        logp = (self.log_norm - 0.5 * ghat_x.sum(axis=1) - 0.5 * r2_var.sum(axis=1)
                - 0.5 * np.vecdot(z, z) - np.vecdot(PRIOR_SHAPE, eta)
                - np.vecdot(PRIOR_SCALE, exp_neg))

        # r is the adjoint wrt the weights w = s z; q = r w is the sum of
        # adjoint terms of each weight's log scale.
        r = (self.design @ adj[:, :, :, None])[:, :, :, 0]
        q = r * w
        eq = q * self.eq_mask
        amp = eq.sum(axis=2)
        grad = np.empty((k, self.dim))
        np.subtract((r * s).reshape(k, 2 * m), z, out=grad[:, : 2 * m])
        hyper = grad[:, 2 * m:]
        hyper[:, 0::4] = amp
        hyper[:, 1::4] = 0.5 * amp - 0.5 * l2 * np.vecdot(eq, self.lam)
        hyper[:, 2:4] = q[:, 0, m - 2:]
        hyper += PRIOR_SCALE * exp_neg - PRIOR_SHAPE
        return logp, grad

    def curves_on(self, grid, theta):
        """Drift and diffusion curves on `grid` of each state in `theta`
        (..., dim), as arrays (..., len(grid)): one matrix product per curve
        for the whole stack."""
        theta = np.asarray(theta, dtype=float)
        flat, m = theta.reshape(-1, self.dim), self.m
        w = self._scales(flat[:, 2 * m:])[0] * flat[:, : 2 * m].reshape(-1, 2, m)
        design = self._design(grid)
        shape = theta.shape[:-1] + design.shape[2:]
        return ((w[:, 0] @ design[0]).reshape(shape), np.exp(w[:, 1] @ design[1]).reshape(shape))


def _in_support(eta) -> np.ndarray:
    """Whether each row of log hypers `eta` (..., 6) is in the posterior's
    support: every entry within [-HYPER_BOUND, HYPER_BOUND], which a NaN is
    not."""
    return (np.abs(eta) <= HYPER_BOUND).all(axis=-1)


def log_posterior(state: ModelState, transitions: TransitionSet, domain):
    """Log posterior density and its gradient at one model state.

    `domain` holds m points, such as m evenly spaced ones over the padded
    data range: m is the basis size, and the basis is centred on the
    midpoint of their ends with that half-width. With an empty transition
    set the result is the prior alone. The gradient is exact for the
    implemented density (verified against finite differences in the test
    suite); a state where either is not finite raises PreconditionError.
    """
    domain = np.asarray(domain, dtype=float)
    lo, hi = domain.min(), domain.max()
    ctx = TargetContext(*transitions.arrays(), domain.size, 0.5 * (lo + hi), 0.5 * (hi - lo))
    lp, grad = ctx.log_posterior_and_grad(state.to_vector())
    if not (math.isfinite(lp) and np.isfinite(grad).all()):
        raise PreconditionError("log posterior is not finite at the supplied state")
    return lp, grad


# The keys `Posterior.to_json` writes.
POSTERIOR_KEYS = ("basis_draws", "divergences", "data_range", "config")


def _basis_draws(value) -> np.ndarray:
    """`basis_draws` as a float array: JSON arrays nested three deep, every
    chain of one length holding draws of one length, each entry a JSON number
    (not `true`/`false`) within the float range. `Posterior` checks the
    shape, finiteness and support."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    draws = np.array(value, dtype=object)
    if draws.ndim != 3 or not set(map(type, draws.ravel().tolist())) <= {int, float}:
        raise TypeError("expected chains of one length holding draws of one length, "
                        "each entry a number")
    try:
        return draws.astype(float)
    except OverflowError:
        raise TypeError("expected numbers within the float range") from None


@dataclass(frozen=True)
class Posterior:
    """The sampler's latent draws, plus the divergence count, data range and
    config of the fit that made them.

    `basis_draws` (chains, draws per chain, 2m+6) holds the drift's and the
    diffusion's m standard-normal latents, then the log hypers in
    `HYPER_NAMES` order, each draw in the support; it is the only copy of
    the draws that is saved. The `grid` is `config.layout(*data_range)`'s,
    and the curves `drift_draws` and `diffusion_draws` (n_draws, len(grid))
    are recomputed from the draws; all three are set when the posterior is
    made or loaded. `diagnostics` and `converged` are computed from the
    draws the first time they are read. `to_json` writes the four fields
    and nothing else, and `from_json` reads that layout alone.
    """

    basis_draws: np.ndarray
    divergences: int
    data_range: tuple[float, float]
    config: FitConfig

    def __post_init__(self):
        if self.divergences < 0 or len(self.data_range) != 2:
            raise PreconditionError(f"divergences {self.divergences} must be >= 0 and "
                                    f"data_range {list(self.data_range)} two numbers [lo, hi]")
        grid, center, half_width = self.config.layout(*self.data_range)
        m = self.config.n_anchors
        dim = 2 * m + N_HYPERS
        draws = self.basis_draws
        if draws.ndim != 3 or draws.shape[2] != dim or not np.isfinite(draws).all():
            raise PreconditionError(
                f"basis_draws must be finite, of shape (chains, draws, {dim}) for "
                f"n_anchors {m}; got shape {draws.shape}")
        if not _in_support(draws[:, :, 2 * m:]).all():
            raise PreconditionError("basis_draws log hypers must lie within [-HYPER_BOUND, "
                                    f"HYPER_BOUND] = [{-HYPER_BOUND}, {HYPER_BOUND}], the "
                                    "sampler's support")
        # The curves depend on the basis alone, so a context without data
        # gives the same bits as the one the sampler ran on.
        ctx = TargetContext((), (), (), m, center, half_width)
        drift, diffusion = ctx.curves_on(grid, draws.reshape(-1, dim))
        if np.any(diffusion <= 0):
            raise PreconditionError("diffusion draws must be strictly positive")
        for name, value in (("grid", grid), ("drift_draws", drift),
                            ("diffusion_draws", diffusion)):
            object.__setattr__(self, name, value)

    @cached_property
    def diagnostics(self) -> dict:
        """{"rhat": {name: value}, "ess": {name: value}} per parameter, the log
        hypers taken on their constrained scale; NaN throughout with fewer than
        2 chains or 4 draws per chain. The drift's latents z_drift[m-2] and
        z_drift[m-1] are its constant and linear terms'."""
        m = self.config.n_anchors
        names = [f"z_drift[{i}]" for i in range(m)] + [f"z_diff[{i}]" for i in range(m)]
        names += list(HYPER_NAMES)
        n_chains, n_draws, _ = self.basis_draws.shape
        if n_chains < 2 or n_draws < 4:
            return {"rhat": dict.fromkeys(names, math.nan), "ess": dict.fromkeys(names, math.nan)}
        rhats: dict[str, float] = {}
        esses: dict[str, float] = {}
        for j, name in enumerate(names):
            series = self.basis_draws[:, :, j]
            if j >= 2 * m:
                series = np.exp(series)
            rhats[name] = rhat(series)
            esses[name] = ess(series)
        return {"rhat": rhats, "ess": esses}

    @cached_property
    def converged(self) -> bool:
        """Whether every Rhat is finite and at most 1.05."""
        worst = max(self.diagnostics["rhat"].values())
        return bool(np.isfinite(worst) and worst <= MAX_RHAT)

    def convergence_problem(self) -> str | None:
        """Why the fit is not `converged`, or None when it is."""
        if self.converged:
            return None
        if self.basis_draws.shape[0] < 2:
            return "Rhat needs at least 2 chains"
        return f"max Rhat {max(self.diagnostics['rhat'].values()):.3f} exceeds {MAX_RHAT}"

    @property
    def n_draws(self) -> int:
        return self.drift_draws.shape[0]

    def drift_mean(self) -> np.ndarray:
        return self.drift_draws.mean(axis=0)

    def diffusion_mean(self) -> np.ndarray:
        return self.diffusion_draws.mean(axis=0)

    def band(self, which: str, lo: float, hi: float):
        if which not in ("drift", "diffusion"):
            raise PreconditionError(f"band is 'drift' or 'diffusion', not {which!r}")
        draws = self.drift_draws if which == "drift" else self.diffusion_draws
        return np.quantile(draws, lo, axis=0), np.quantile(draws, hi, axis=0)

    def to_json(self) -> dict:
        return {
            "basis_draws": self.basis_draws.tolist(),
            "divergences": self.divergences,
            "data_range": list(self.data_range),
            "config": self.config.to_json(),
        }

    @classmethod
    def from_json(cls, doc) -> "Posterior":
        """The posterior of a `to_json` document, read with `read_document`
        and its config with `FitConfig.from_json`. A document without one of
        the four keys, or with any other key, top-level or in its config, is
        in a layout this version does not read, such as the `chain_draws` of
        the anchor model that came before the basis: the IngestError names
        the key and says the file must be re-fitted. A value that
        `read_document` or the constructor refuses, such as a negative
        `divergences` or a draw outside the support, is an IngestError
        naming the problem."""
        what = "malformed posterior document"
        refit = (f"a posterior.json holds exactly {', '.join(POSTERIOR_KEYS)} (FitConfig's "
                 "fields), and one in any other layout must be re-fitted")
        try:
            return cls(**read_document(
                doc, {"basis_draws": _basis_draws, "divergences": integer,
                      "data_range": lambda v: tuple(list_of(number)(v)),
                      "config": lambda v: FitConfig.from_json(v, refit)},
                what, required=POSTERIOR_KEYS, hint=refit))
        except (PreconditionError, DegenerateDataError) as exc:
            raise IngestError(f"{what}: {exc}") from None

    def summary_rows(self):
        """Rows of (grid, drift mean/50%/95% bands, diffusion likewise) for CSV."""
        header, cols = ["grid"], [self.grid]
        for which, draws in (("drift", self.drift_draws), ("diffusion", self.diffusion_draws)):
            header += [f"{which}_{q}" for q in ("mean", "q25", "q75", "q025", "q975")]
            cols += [draws.mean(axis=0), *np.quantile(draws, (0.25, 0.75, 0.025, 0.975), axis=0)]
        return header, np.column_stack(cols)


def fit(c: TimeSeriesCollection, cfg: FitConfig = FitConfig()) -> Posterior:
    """End-to-end inference: the basis, HMC over the posterior, curves on a grid.

    The sampler's target is the `TargetContext` itself, so it evaluates the
    points of all its chains with one `TargetContext.batch` call per step,
    in the calling process.
    """
    tset = to_transitions(c)
    if len(tset) < 10:
        raise PreconditionError(f"need at least 10 transitions, got {len(tset)}")
    x, dx, dt = tset.arrays()
    if np.all(dx == 0.0):
        raise DegenerateDataError("all increments are zero; dynamics are unidentifiable")

    _, center, half_width = cfg.layout(*c.value_range)
    ctx = TargetContext(x, dx, dt, cfg.n_anchors, center, half_width)
    chains = hmc.sample(
        ctx,
        ctx.initial_vector(),
        n_chains=cfg.n_chains,
        n_iterations=cfg.n_iterations,
        seed=cfg.seed,
        max_leapfrog=cfg.max_leapfrog,
        threads=1,  # perfbench/run.py takes `max` over this keyword
    )

    posterior = Posterior(chains.draws, chains.divergences, c.value_range, cfg)
    problem = posterior.convergence_problem()
    if problem:
        warnings.warn(problem, ConvergenceWarning, stacklevel=2)
    n_draws = posterior.n_draws
    if chains.divergences > 0.01 * n_draws:
        warnings.warn(
            f"{chains.divergences} divergent transitions ({100 * chains.divergences / n_draws:.1f}%)",
            ConvergenceWarning,
            stacklevel=2,
        )
    return posterior
