"""Bayesian posterior over drift and log-diffusion functions, sampled by HMC.

The increments likelihood is Gaussian,

    dx_n ~ N(f(x_n) dt_n, sqrt(exp(ghat(x_n)) dt_n)),

with GP priors on the drift f (EQ + constant + linear kernel) and on the
log squared noise intensity ghat (EQ kernel). Both latent functions use a
whitened parameterization at a fixed set of anchor points: z ~ N(0, I),
values at the anchors are L z with L the Cholesky factor of the anchor
covariance, and values at the observed states are the GP conditional mean
given the anchors, which reduces to K(x, anchors) L^-T z. Hyperparameters are
sampled on log scale with Inverse-Gamma priors on the constrained scale
(shape/scale 2,2 on the kernel amplitudes sigma, 5,5 on length scales) and
the log-scale Jacobian included. The gradient of the log posterior is computed analytically
(including the hyperparameter dependence through the Cholesky factor).

The support is the states whose six log hypers all lie in [-HYPER_BOUND,
HYPER_BOUND] (`_in_support`): `TargetContext.batch` gives any other state log
density -inf, so the sampler never keeps one, and `Posterior` refuses draws outside it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import hmc
from .diagnostics import ess, rhat
from .errors import ConvergenceWarning, DegenerateDataError, IngestError, PreconditionError
from .numerics import lapack
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

JITTER_REL = 1e-8
HYPER_BOUND = 30.0
# A fit has converged when every parameter's split-chain Rhat is at most this.
MAX_RHAT = 1.05
PADDING = 0.1
GRID_SIZE = 200

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
    """Whitened latents plus log-scale kernel hyperparameters (the HMC state).

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
            raise PreconditionError("z_f and z_g must have matching anchor counts")
        if len(self.drift_hypers) != 4 or len(self.diff_hypers) != 2:
            raise PreconditionError("expected 4 drift and 2 diffusion hyperparameters")
        for a in (self.z_f, self.z_g, self.drift_hypers, self.diff_hypers):
            if not np.all(np.isfinite(a)):
                raise PreconditionError("model state must be finite")

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.z_f, self.z_g, self.drift_hypers, self.diff_hypers])


@dataclass(frozen=True)
class FitConfig:
    """Sampler and discretization settings for `fit`."""

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
    def from_json(cls, doc) -> "FitConfig":
        """A config from a JSON object setting any of the fields, each an
        integer; IngestError for any other key or value."""
        return cls(**read_document(doc, dict.fromkeys((f.name for f in fields(cls)), integer),
                                   "FitConfig"))

    def layout(self, lo: float, hi: float):
        """(grid, anchors, center) of a fit to data on [lo, hi]: GRID_SIZE
        grid points and `n_anchors` anchors evenly spaced over the range
        widened by PADDING times its width at each end, and the midpoint."""
        span = hi - lo
        if not 0 < span < math.inf:
            raise DegenerateDataError(f"data range [{lo}, {hi}] is not a finite interval "
                                      "of positive width")
        pad = PADDING * span
        return (np.linspace(lo - pad, hi + pad, GRID_SIZE),
                np.linspace(lo - pad, hi + pad, self.n_anchors), 0.5 * (lo + hi))


class _Factors(NamedTuple):
    """The kernel constants and anchor factors of k states (see `_factors`)."""

    v_q: np.ndarray
    v_b: np.ndarray
    v_l: np.ndarray
    scale: np.ndarray
    corr: np.ndarray
    chol_t: np.ndarray
    dv: np.ndarray
    failed: set


class TargetContext:
    """Precomputed data-dependent pieces of the log posterior.

    A context is a target for `hmc.sample`: called on one state it returns
    (log density, gradient), and `batch` evaluates a stack of states at once.
    """

    def __init__(self, x, dx, dt, anchors, center: float):
        self._potrf, self._trtri, self._trtrs = lapack("dpotrf", "dtrtri", "dtrtrs")
        self.x = np.asarray(x, dtype=float)
        self.dx = np.asarray(dx, dtype=float)
        self.dt = np.asarray(dt, dtype=float)
        self.anchors = np.asarray(anchors, dtype=float)
        if self.anchors.size < 2:
            raise PreconditionError("need at least 2 anchor points")
        if self.x.size and (
            self.x.min() < self.anchors.min() or self.x.max() > self.anchors.max()
        ):
            raise PreconditionError("anchors must cover the observed state range")
        self.center = float(center)
        self.m = m = self.anchors.size
        s = self.anchors
        self.d2_ss = (s[:, None] - s[None, :]) ** 2
        self.d2_xs = (self.x[:, None] - s[None, :]) ** 2
        self.ls = s - self.center
        self.lx = self.x - self.center
        ls2 = self.ls**2
        self.ls_outer = self.ls[:, None] * self.ls
        self.mean_ls2 = float(ls2.sum()) / m
        self.dim = 2 * m + N_HYPERS
        # E @ (ls_pows * w[:, None]) gives E @ w, E @ (ls w) and E @ (ls^2 w) in one
        # product, and since (x - s)^2 = lx^2 - 2 lx ls + ls^2, the row sums of
        # d2_coef.T times that product are (E * d2_xs) @ w. The expansion uses the
        # centred coordinates: with raw x it cancels badly far from the origin.
        self.ls_pows = np.column_stack([np.ones(m), self.ls, ls2])
        self.d2_coef = np.array([self.lx**2, -2.0 * self.lx, np.ones_like(self.lx)])
        self.half_tril = _half_tril(m)
        # The state-independent part of the log density: Gaussian normalisers of
        # the increments and of the whitened latents, and the Inverse-Gamma ones.
        self.log_norm = (
            -0.5 * self.x.size * LOG_2PI - 0.5 * float(np.log(self.dt).sum())
            - m * LOG_2PI + PRIOR_LOG_NORM
        )

    def initial_vector(self) -> np.ndarray:
        hypers = [math.log(2.0), math.log(1.25), math.log(2.0), math.log(2.0),
                  math.log(2.0), math.log(1.25)]
        return np.concatenate([np.zeros(2 * self.m), hypers])

    def _factors(self, etas) -> _Factors:
        """The kernel constants and anchor factors of k states' log hypers
        `etas` (k, 6), each row in the support.

        The kernel constants are computed on Python floats, as one state
        always was (float ** 2 calls libm pow, which does not always round
        like x * x), so a row outside the support can raise
        ZeroDivisionError or OverflowError. The stacks of 2k
        rows hold state i's drift row at 2i and its diffusion row at 2i + 1:
        v_q the EQ variances, scale -1 / (2 l^2), corr the EQ correlation
        blocks of the anchors, and chol_t the lower Cholesky factors L of the
        anchor covariances, stored transposed: chol_t[j].T is L,
        Fortran-ordered with a zero upper triangle. v_b and v_l (k,) are the
        constant and linear kernel variances, and dv (k, 6) each log hyper's
        gradient factor: d(sigma^2)/d(log sigma) = 2 v for an amplitude, and
        v / l^2 for a length scale. failed holds the states whose covariance
        is not numerically positive definite; their factors are NaN.
        """
        k, m = len(etas), self.m
        rows = []
        for s_qf, l_f, s_b, s_l, s_qg, l_g in np.exp(etas).tolist():
            v_qf, v_b, v_l, v_qg = s_qf**2, s_b**2, s_l**2, s_qg**2
            l2_f, l2_g = l_f * l_f, l_g * l_g
            rows.append((v_qf, v_qg, -0.5 / l2_f, -0.5 / l2_g, v_b, v_l,
                         JITTER_REL * (v_qf + v_b + v_l * self.mean_ls2), JITTER_REL * v_qg,
                         2.0 * v_qf, v_qf / l2_f, 2.0 * v_b, 2.0 * v_l, 2.0 * v_qg, v_qg / l2_g))
        table = np.array(rows)
        v_q, scale, jitter = table[:, 0:2].ravel(), table[:, 2:4].ravel(), table[:, 6:8].ravel()
        v_b, v_l = table[:, 4], table[:, 5]
        corr = self.d2_ss * scale[:, None, None]
        np.exp(corr, out=corr)
        cov = corr * v_q[:, None, None]
        cov_f = cov[0::2]
        cov_f += v_b[:, None, None]
        cov_f += self.ls_outer * v_l[:, None, None]
        cov.reshape(2 * k, -1)[:, :: m + 1] += jitter[:, None]
        failed = set()
        # Both covariances are exactly symmetric, so each Fortran-ordered
        # transpose is the same matrix. LAPACK factors it in place and returns
        # it (a copy, if it made one, goes back in its place); a nonzero info
        # means the covariance is not numerically positive definite.
        for j, c in enumerate(cov):
            c = c.T
            chol, info = self._potrf(c, lower=1, overwrite_a=1)
            if info:
                failed.add(j // 2)
                c[...] = np.nan
            elif chol is not c:
                c[...] = chol
        return _Factors(v_q, v_b, v_l, scale, corr, cov, table[:, 8:], failed)

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
        through the same floating-point operations, on the same BLAS and
        LAPACK routines, as when it is evaluated alone. Array work is stacked
        across rows only where each row stays its own computation: elementwise
        operations, stacked matrix products, row sums, and `np.vecdot`, one
        BLAS dot per row, where a (k, L) @ (L,) product would be one
        matrix-vector product with other bits. A row outside the support,
        whose anchor covariance is not numerically positive definite, or
        whose value or gradient is not finite gets (-inf, zeros).
        """
        thetas = np.asarray(thetas, dtype=float)
        inside = _in_support(thetas[:, 2 * self.m:])
        # A row outside the support is evaluated at the origin, where the
        # kernel constants cannot overflow or divide by zero, and discarded.
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            logp, grad = self._evaluate(np.where(inside[:, None], thetas, 0.0))
        ok = inside & np.isfinite(logp) & np.isfinite(grad).all(axis=1)
        if not ok.all():  # rare; unguarded, the masked stores would slow every call
            logp[~ok], grad[~ok] = -np.inf, 0.0
        return logp, grad

    def _evaluate(self, theta):
        # The k states of `theta`. As in `_factors`, stacks of 2k rows hold
        # state i's drift row at 2i and its diffusion row at 2i + 1, so the
        # latents z are theta's first 2m columns as they stand.
        k, m, n = len(theta), self.m, self.x.size
        eta = theta[:, 2 * m:].copy()
        fac = self._factors(eta)
        v_q, v_b, v_l = fac.v_q, fac.v_b, fac.v_l
        z = np.ascontiguousarray(theta[:, : 2 * m]).reshape(2 * k, m)
        # After a successful dpotrf the factor's diagonal is positive, so the
        # triangular solves and inverses below cannot fail; a NaN factor gives
        # NaNs, which the finiteness check in `batch` rejects.
        chols = [c.T for c in fac.chol_t]
        w = np.array([self._trtrs(c, zj, lower=1, trans=1)[0] for c, zj in zip(chols, z)])
        sum_wf, ls_wf = w[0::2].sum(axis=1), np.vecdot(self.ls, w[0::2])

        # The data-anchor blocks are the only n x m arrays per state.
        xs = np.empty((2 * k, n, m))
        np.multiply(self.d2_xs, fac.scale[:, None, None], out=xs)
        np.exp(xs, out=xs)
        pows = xs @ (self.ls_pows * w[:, :, None])
        eq_x = v_q[:, None] * pows[:, :, 0]
        f_x = eq_x[0::2] + (v_b * sum_wf)[:, None] + (v_l * ls_wf)[:, None] * self.lx
        ghat_x = eq_x[1::2]

        # Increment variance is exp(ghat) dt. adj holds the adjoints of the
        # likelihood wrt f(x_n) and wrt ghat(x_n), in the rows of f and ghat.
        adj = np.empty((2 * k, n))
        a_vec, b_vec = adj[0::2], adj[1::2]
        resid = self.dx - f_x * self.dt
        np.multiply(resid, np.exp(-ghat_x), out=a_vec)   # resid dt / var
        r2_var = resid * a_vec / self.dt                 # resid^2 / var
        np.multiply(0.5, r2_var, out=b_vec)
        b_vec -= 0.5
        exp_neg = np.exp(-eta)
        sum_af, lx_af = a_vec.sum(axis=1), np.vecdot(self.lx, a_vec)
        half_zz = 0.5 * np.vecdot(z, z)
        logp = (self.log_norm - 0.5 * ghat_x.sum(axis=1) - 0.5 * r2_var.sum(axis=1)
                - half_zz[0::2] - half_zz[1::2] - np.vecdot(PRIOR_SHAPE, eta)
                - np.vecdot(PRIOR_SCALE, exp_neg))

        r = v_q[:, None] * (xs.swapaxes(1, 2) @ adj[:, :, None])[:, :, 0]
        r_f = r[0::2]
        r_f += (v_b * sum_af)[:, None]
        r_f += (v_l * lx_af)[:, None] * self.ls
        p = np.array([self._trtrs(c, rj, lower=1)[0] for c, rj in zip(chols, r)])
        # S = L^-T phi(L^T w p^T) L^-1, the K-space adjoint of d(L^-T z): L^T w
        # is z itself, and phi keeps the lower triangle with its diagonal
        # halved. Each L is inverted in place, so chol_t becomes the stack of
        # the inverses' transposes, C-ordered as a single state's were.
        for c in chols:
            l_inv = self._trtri(c, lower=1, overwrite_c=1)[0]
            if l_inv is not c:
                c[...] = l_inv
        l_inv_t = fac.chol_t
        zp = z[:, :, None] * p[:, None, :]
        zp *= self.half_tril
        s = l_inv_t @ zp @ l_inv_t.swapaxes(1, 2)
        # d2_coef.T * adj, one column at a time: broadcasting over the 3-wide
        # rows is several times slower.
        adj_d2 = np.empty((2 * k, n, 3))
        for c in range(3):
            np.multiply(self.d2_coef[c], adj, out=adj_d2[:, :, c])
        flat = (2 * k, -1)
        tr_s = s.trace(axis1=1, axis2=2)

        # The gradient wrt the log hypers: each column's sum of adjoint terms
        # times its factor in dv. The EQ amplitude and length scale sums have
        # one form in the drift and diffusion rows, so each fills two columns.
        grad = np.empty((k, 2 * m + N_HYPERS))
        np.subtract(p.reshape(k, 2 * m), theta[:, : 2 * m], out=grad[:, : 2 * m])
        hyper = grad[:, 2 * m:]
        hyper[:, 0::4] = (np.vecdot(adj, pows[:, :, 0]) - (fac.corr * s).reshape(flat).sum(axis=1)
                          - JITTER_REL * tr_s).reshape(k, 2)
        hyper[:, 1::4] = (np.vecdot(adj_d2.reshape(flat), pows.reshape(flat))
                          - (fac.corr * self.d2_ss * s).reshape(flat).sum(axis=1)).reshape(k, 2)
        s_f, tr_sf = s[0::2], tr_s[0::2]
        hyper[:, 2] = sum_af * sum_wf - s_f.reshape(k, -1).sum(axis=1) - JITTER_REL * tr_sf
        hyper[:, 3] = (lx_af * ls_wf - np.vecdot(self.ls @ s_f, self.ls)
                       - JITTER_REL * self.mean_ls2 * tr_sf)
        hyper *= fac.dv
        hyper += PRIOR_SCALE * exp_neg - PRIOR_SHAPE
        if fac.failed:
            logp[list(fac.failed)] = np.nan
        return logp, grad

    def curves_on(self, grid, theta):
        """Drift and diffusion curves implied by one state vector on a grid."""
        grid = np.asarray(grid, dtype=float)
        m = self.m
        fac = self._factors(theta[None, 2 * m :])
        if fac.failed:
            raise PreconditionError("an anchor covariance is not positive definite")
        # As in `_evaluate`, row 0 of each stack is the drift's, row 1 the diffusion's.
        w_f, w_g = (self._trtrs(c.T, zj, lower=1, trans=1)[0]
                    for c, zj in zip(fac.chol_t, (theta[:m], theta[m : 2 * m])))
        corr = (grid[:, None] - self.anchors[None, :]) ** 2 * fac.scale[:, None, None]
        np.exp(corr, out=corr)
        f_grid = (fac.v_q[0] * (corr[0] @ w_f) + fac.v_b[0] * float(w_f.sum())
                  + fac.v_l[0] * float(self.ls @ w_f) * (grid - self.center))
        return f_grid, np.exp(fac.v_q[1] * (corr[1] @ w_g))


@lru_cache
def _half_tril(m):
    """phi() of the Cholesky adjoint, as a mask: the lower triangle of an
    m x m matrix, diagonal halved."""
    mask = np.tri(m, k=-1) + 0.5 * np.eye(m)
    mask.flags.writeable = False
    return mask


def _in_support(eta) -> np.ndarray:
    """Whether each row of log hypers `eta` (..., 6) is in the posterior's
    support: every entry within [-HYPER_BOUND, HYPER_BOUND], which a NaN is
    not."""
    return (np.abs(eta) <= HYPER_BOUND).all(axis=-1)


def log_posterior(state: ModelState, transitions: TransitionSet, anchors):
    """Log posterior density and its gradient at one model state.

    The linear drift kernel is centred at the anchors' midpoint. With an
    empty transition set the result is the prior alone. The gradient is
    exact for the implemented density (verified against finite differences
    in the test suite).
    """
    anchors = np.asarray(anchors, dtype=float)
    ctx = TargetContext(*transitions.arrays(), anchors, 0.5 * (anchors.min() + anchors.max()))
    lp, grad = ctx.log_posterior_and_grad(state.to_vector())
    if not math.isfinite(lp):
        raise PreconditionError("log posterior is not finite at the supplied state")
    return lp, grad


# The keys `Posterior.to_json` writes.
POSTERIOR_KEYS = ("chain_draws", "divergences", "data_range", "config")


def _chain_draws(value) -> np.ndarray:
    """`chain_draws` as a float array: nested JSON arrays of finite numbers,
    every chain of one length and every draw of one length."""
    chains = list_of(list_of(list_of(number)))(value)
    if len({len(c) for c in chains}) > 1 or len({len(d) for c in chains for d in c}) > 1:
        raise TypeError("expected chains of one length holding draws of one length")
    return np.array(chains)


@dataclass(frozen=True)
class Posterior:
    """The sampler's latent draws, plus the divergence count, data range and
    config of the fit that made them.

    `chain_draws` (chains, draws per chain, 2m+6) holds the whitened drift and
    diffusion latents at the m anchors, then the log hypers in `HYPER_NAMES`
    order, each draw in the support; it is the only copy of the draws that
    is saved. The `grid`, `anchors` and `center` are
    `config.layout(*data_range)`, and the curves `drift_draws` and
    `diffusion_draws` (n_draws, len(grid)) are recomputed from the draws;
    all five are set when the posterior is made or loaded.
    `diagnostics` and `converged` are computed from the draws the first time
    they are read. `to_json` writes the four fields and nothing else, and
    `from_json` reads that layout alone.
    """

    chain_draws: np.ndarray
    divergences: int
    data_range: tuple[float, float]
    config: FitConfig

    def __post_init__(self):
        if self.divergences < 0 or len(self.data_range) != 2:
            raise PreconditionError(f"divergences {self.divergences} must be >= 0 and "
                                    f"data_range {list(self.data_range)} two numbers [lo, hi]")
        grid, anchors, center = self.config.layout(*self.data_range)
        dim = 2 * anchors.size + N_HYPERS
        draws = self.chain_draws
        if draws.ndim != 3 or draws.shape[2] != dim or not np.isfinite(draws).all():
            raise PreconditionError(
                f"chain_draws must be finite, of shape (chains, draws, {dim}) for "
                f"{anchors.size} anchors; got shape {draws.shape}")
        if not _in_support(draws[:, :, 2 * anchors.size:]).all():
            raise PreconditionError("chain_draws log hypers must lie within [-HYPER_BOUND, "
                                    f"HYPER_BOUND] = [{-HYPER_BOUND}, {HYPER_BOUND}], the "
                                    "sampler's support")
        # The curves depend on the anchors alone, so a context without data
        # gives the same bits as the one the sampler ran on.
        ctx = TargetContext((), (), (), anchors, center)
        flat = draws.reshape(-1, dim)
        drift, diffusion = np.empty((2, flat.shape[0], grid.size))
        for i, theta in enumerate(flat):
            drift[i], diffusion[i] = ctx.curves_on(grid, theta)
        if np.any(diffusion <= 0):
            raise PreconditionError("diffusion draws must be strictly positive")
        for name, value in (("grid", grid), ("anchors", anchors), ("center", center),
                            ("drift_draws", drift), ("diffusion_draws", diffusion)):
            object.__setattr__(self, name, value)

    @cached_property
    def diagnostics(self) -> dict:
        """{"rhat": {name: value}, "ess": {name: value}} per parameter, the log
        hypers taken on their constrained scale; NaN throughout with fewer than
        2 chains or 4 draws per chain."""
        m = self.config.n_anchors
        names = [f"z_drift[{i}]" for i in range(m)] + [f"z_diff[{i}]" for i in range(m)]
        names += list(HYPER_NAMES)
        n_chains, n_draws, _ = self.chain_draws.shape
        if n_chains < 2 or n_draws < 4:
            return {"rhat": dict.fromkeys(names, math.nan), "ess": dict.fromkeys(names, math.nan)}
        rhats: dict[str, float] = {}
        esses: dict[str, float] = {}
        for j, name in enumerate(names):
            series = self.chain_draws[:, :, j]
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
        if self.chain_draws.shape[0] < 2:
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
            "chain_draws": self.chain_draws.tolist(),
            "divergences": self.divergences,
            "data_range": list(self.data_range),
            "config": self.config.to_json(),
        }

    @classmethod
    def from_json(cls, doc) -> "Posterior":
        """The posterior of a `to_json` document, read with `read_document`
        and its config with `FitConfig.from_json`. A document without one of
        the four keys, or with any other key, top-level or in its config, is
        in a layout this version does not read: the IngestError names the
        key and says the file must be re-fitted. A value that `read_document`
        or the constructor refuses, such as a negative `divergences` or a
        draw outside the support, is an IngestError naming the problem."""
        what = "malformed posterior document"
        if isinstance(doc, dict):
            config = doc.get("config")
            layout = ([f"no {key}" for key in POSTERIOR_KEYS if key not in doc]
                      + [f"unknown key {key}" for key in sorted(set(doc) - set(POSTERIOR_KEYS))])
            if isinstance(config, dict):
                fitted = {f.name for f in fields(FitConfig)}
                layout += [f"unknown config key {key}" for key in sorted(set(config) - fitted)]
            if layout:
                raise IngestError(f"{what}: {', '.join(layout)}; a posterior.json holds exactly "
                                  f"{', '.join(POSTERIOR_KEYS)} (FitConfig's fields), and "
                                  "one in any other layout must be re-fitted")
        try:
            return cls(**read_document(doc, {"chain_draws": _chain_draws, "divergences": integer,
                                             "data_range": lambda v: tuple(list_of(number)(v)),
                                             "config": FitConfig.from_json}, what))
        except (PreconditionError, DegenerateDataError) as exc:
            raise IngestError(f"{what}: {exc}") from None

    def summary_rows(self):
        """Rows of (grid, drift mean/50%/95% bands, diffusion likewise) for CSV."""
        header, cols = ["grid"], [self.grid]
        for which in ("drift", "diffusion"):
            header += [f"{which}_{q}" for q in ("mean", "q25", "q75", "q025", "q975")]
            cols.append(self.drift_mean() if which == "drift" else self.diffusion_mean())
            for lo, hi in ((0.25, 0.75), (0.025, 0.975)):
                cols += self.band(which, lo, hi)
        return header, np.column_stack(cols)


def fit(c: TimeSeriesCollection, cfg: FitConfig = FitConfig(), *,
        threads: int = 1) -> Posterior:
    """End-to-end inference: anchors, HMC over the posterior, curves on a grid.

    The sampler's target is the `TargetContext` itself, so it evaluates the
    points of all live chains with one `TargetContext.batch` call per step.
    `threads` > 1 splits the chains into up to that many lockstep groups,
    every group but the first in a forked child process, so the groups run
    in parallel; it never changes the posterior. The default runs one group
    in the calling process, as the simulation studies do.
    """
    tset = to_transitions(c)
    if len(tset) < 10:
        raise PreconditionError(f"need at least 10 transitions, got {len(tset)}")
    x, dx, dt = tset.arrays()
    if np.all(dx == 0.0):
        raise DegenerateDataError("all increments are zero; dynamics are unidentifiable")

    _, anchors, center = cfg.layout(*c.value_range)
    ctx = TargetContext(x, dx, dt, anchors, center)
    chains = hmc.sample(
        ctx,
        ctx.initial_vector(),
        n_chains=cfg.n_chains,
        n_iterations=cfg.n_iterations,
        seed=cfg.seed,
        max_leapfrog=cfg.max_leapfrog,
        threads=threads,
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
