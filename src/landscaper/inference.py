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
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import hmc
from .diagnostics import ess, rhat
from .errors import ConvergenceWarning, DegenerateDataError, IngestError, PreconditionError
from .tsdata import TimeSeriesCollection, TransitionSet, integer, read_document, to_transitions

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
# Config keys that older posterior files store, each with the value now fixed.
RETIRED_CONFIG = {"anchors_at_observations": False, "target_accept": hmc.TARGET_ACCEPT,
                  "padding": PADDING, "grid_size": GRID_SIZE}

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
    """The constrained hypers and anchor factors of k states (see `_factors`)."""

    sig: np.ndarray
    consts: list
    v_q: np.ndarray
    v_b: np.ndarray
    v_l: np.ndarray
    scale: np.ndarray
    corr: np.ndarray
    chol_t: np.ndarray
    failed: set


class TargetContext:
    """Precomputed data-dependent pieces of the log posterior.

    A context is a target for `hmc.sample`: called on one state it returns
    (log density, gradient), and `batch` evaluates a stack of states at once.
    """

    def __init__(self, x, dx, dt, anchors, center: float):
        self._potrf, self._trtri, self._trtrs = _lapack_routines()
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
        # The data-anchor blocks of a batch, one array per thread, kept between
        # calls: a fresh (2k, n, m) array on every call costs page faults.
        self._scratch = threading.local()

    def initial_vector(self) -> np.ndarray:
        hypers = [math.log(2.0), math.log(1.25), math.log(2.0), math.log(2.0),
                  math.log(2.0), math.log(1.25)]
        return np.concatenate([np.zeros(2 * self.m), hypers])

    def _factors(self, etas) -> _Factors:
        """The constrained hypers and anchor factors of k states' log hypers
        `etas` (k, 6).

        sig is exp(etas), in `HYPER_NAMES` order. consts lists per state the
        Python floats (v_qf, v_qg, v_b, v_l, l_f^2, l_g^2), the kernel
        variances and squared length scales, computed as one state always
        was (float ** 2 calls libm pow, which does not always round like
        x * x). The stacks of 2k rows hold state i's drift row at 2i and its
        diffusion row at 2i + 1: v_q the EQ variances, scale -1 / (2 l^2),
        corr the EQ correlation blocks of the anchors, and chol_t the lower
        Cholesky factors L of the anchor covariances, stored transposed:
        chol_t[j].T is L, Fortran-ordered with a zero upper triangle. v_b and
        v_l (k,) are the constant and linear kernel variances. failed holds
        the states whose covariance is not numerically positive definite;
        their factors are NaN.
        """
        k, m = len(etas), self.m
        sig = np.exp(etas)
        consts, rows = [], []
        for s_qf, l_f, s_b, s_l, s_qg, l_g in sig.tolist():
            v_qf, v_b, v_l, v_qg = s_qf**2, s_b**2, s_l**2, s_qg**2
            l2_f, l2_g = l_f * l_f, l_g * l_g
            consts.append((v_qf, v_qg, v_b, v_l, l2_f, l2_g))
            rows.append((v_qf, v_qg, -0.5 / l2_f, -0.5 / l2_g, v_b, v_l,
                         JITTER_REL * (v_qf + v_b + v_l * self.mean_ls2), JITTER_REL * v_qg))
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
        return _Factors(sig, consts, v_q, v_b, v_l, scale, corr, cov, failed)

    def _block(self, rows):
        """This thread's (rows, n, m) scratch array."""
        block = getattr(self._scratch, "block", None)
        if block is None or len(block) < rows:
            block = self._scratch.block = np.empty((rows, self.x.size, self.m))
        return block[:rows]

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
        matrix-vector product with other bits. A row whose log hypers leave
        [-HYPER_BOUND, HYPER_BOUND], whose anchor covariance is not
        numerically positive definite, or whose value or gradient is not
        finite gets (-inf, zeros).
        """
        thetas = np.asarray(thetas, dtype=float)
        # A row with a NaN ends at (-inf, zeros) whether or not it passes here:
        # max() compares it either way round.
        rows = [i for i, eta in enumerate(thetas[:, 2 * self.m:].tolist())
                if max(map(abs, eta)) <= HYPER_BOUND]
        if rows:
            with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
                lp, g = self._evaluate(thetas[rows] if len(rows) < len(thetas) else thetas)
                ok = np.isfinite(lp) & np.isfinite(g).all(axis=1)
            if len(rows) == len(thetas) and ok.all():
                return lp, g
            rows = np.asarray(rows)[ok]
        logp = np.full(len(thetas), -np.inf)
        grad = np.zeros_like(thetas)
        if len(rows):
            logp[rows], grad[rows] = lp[ok], g[ok]
        return logp, grad

    def _evaluate(self, theta):
        # The k states of `theta`. As in `_factors`, stacks of 2k rows hold
        # state i's drift row at 2i and its diffusion row at 2i + 1, so the
        # latents z are theta's first 2m columns as they stand. `red` gathers
        # the row reductions that the per-state arithmetic at the end reads.
        k, m, n = len(theta), self.m, self.x.size
        eta = theta[:, 2 * m:].copy()
        fac = self._factors(eta)
        v_q, v_b, v_l = fac.v_q, fac.v_b, fac.v_l
        z = np.ascontiguousarray(theta[:, : 2 * m]).reshape(2 * k, m)
        red = np.empty((15, 2 * k))
        # After a successful dpotrf the factor's diagonal is positive, so the
        # triangular solves and inverses below cannot fail; a NaN factor gives
        # NaNs, which the finiteness check in `batch` rejects.
        chols = [c.T for c in fac.chol_t]
        w = np.array([self._trtrs(c, zj, lower=1, trans=1)[0] for c, zj in zip(chols, z)])
        sum_w, ls_w = w.sum(axis=1, out=red[0]), np.vecdot(self.ls, w, out=red[1])

        # The data-anchor blocks are the only n x m arrays per state.
        xs = self._block(2 * k)
        np.multiply(self.d2_xs, fac.scale[:, None, None], out=xs)
        np.exp(xs, out=xs)
        pows = xs @ (self.ls_pows * w[:, :, None])
        eq_x = v_q[:, None] * pows[:, :, 0]
        f_x = eq_x[0::2] + (v_b * sum_w[0::2])[:, None] + (v_l * ls_w[0::2])[:, None] * self.lx
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
        sum_adj, lx_adj = adj.sum(axis=1, out=red[2]), np.vecdot(self.lx, adj, out=red[3])
        eq_x.sum(axis=1, out=red[4])
        r2_var.sum(axis=1, out=red[5, 0::2])
        np.vecdot(z, z, out=red[6])
        np.vecdot(PRIOR_SHAPE, eta, out=red[7, 0::2])
        np.vecdot(PRIOR_SCALE, exp_neg, out=red[7, 1::2])

        r = v_q[:, None] * (xs.swapaxes(1, 2) @ adj[:, :, None])[:, :, 0]
        r_f = r[0::2]
        r_f += (v_b * sum_adj[0::2])[:, None]
        r_f += (v_l * lx_adj[0::2])[:, None] * self.ls
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
        np.vecdot(adj, pows[:, :, 0], out=red[8])
        np.vecdot(adj_d2.reshape(flat), pows.reshape(flat), out=red[9])
        (fac.corr * s).reshape(flat).sum(axis=1, out=red[10])
        (fac.corr * self.d2_ss * s).reshape(flat).sum(axis=1, out=red[11])
        s.trace(axis1=1, axis2=2, out=red[12])
        s.reshape(flat).sum(axis=1, out=red[13])
        np.vecdot(self.ls @ s, self.ls, out=red[14])

        # Per state, in Python floats: the log density, and the gradient wrt
        # the log hypers. Amplitude entries are log sigma, so the kernel
        # variance contributes d(sigma^2)/d(eta) = 2 sigma^2.
        logp, hyper_grads = [], []
        cols = red.T.tolist()
        for (v_qf, v_qg, v_b, v_l, l2_f, l2_g), (
                sum_wf, ls_wf, sum_a, lx_a, _, r2_sum, zz_f, shape_eta, data_f, data_d2_f,
                corr_s_f, corr_d2_s_f, tr_sf, sum_sf, ls_sf_ls), (
                _, _, _, _, ghat_sum, _, zz_g, scale_exp, data_g, data_d2_g,
                corr_s_g, corr_d2_s_g, tr_sg, _, _) in zip(fac.consts, cols[0::2], cols[1::2]):
            logp.append(self.log_norm - 0.5 * ghat_sum - 0.5 * r2_sum - 0.5 * zz_f
                        - 0.5 * zz_g - shape_eta - scale_exp)
            hyper_grads.append((
                2.0 * v_qf * (data_f - corr_s_f - JITTER_REL * tr_sf),
                (v_qf / l2_f) * (data_d2_f - corr_d2_s_f),
                2.0 * v_b * (sum_a * sum_wf - sum_sf - JITTER_REL * tr_sf),
                2.0 * v_l * (lx_a * ls_wf - ls_sf_ls - JITTER_REL * self.mean_ls2 * tr_sf),
                2.0 * v_qg * (data_g - corr_s_g - JITTER_REL * tr_sg),
                (v_qg / l2_g) * (data_d2_g - corr_d2_s_g),
            ))
        hyper_grads = np.array(hyper_grads)
        hyper_grads += PRIOR_SCALE * exp_neg - PRIOR_SHAPE
        p -= z
        grad = np.concatenate([p.reshape(k, 2 * m), hyper_grads], axis=1)
        logp = np.array(logp)
        if fac.failed:
            logp[list(fac.failed)] = np.nan
        return logp, grad

    def curves_on(self, grid, theta):
        """Drift and diffusion curves implied by one state vector on a grid."""
        grid = np.asarray(grid, dtype=float)
        m = self.m
        fac = self._factors(theta[None, 2 * m :])
        if fac.failed:
            raise np.linalg.LinAlgError("an anchor covariance is not positive definite")
        s_qf, l_f, s_b, s_l, s_qg, l_g = fac.sig[0].tolist()
        chol_f, chol_g = fac.chol_t[0].T, fac.chol_t[1].T
        w_f = _lapack(self._trtrs(chol_f, theta[:m], lower=1, trans=1))
        w_g = _lapack(self._trtrs(chol_g, theta[m : 2 * m], lower=1, trans=1))
        d2_gs = (grid[:, None] - self.anchors[None, :]) ** 2
        f_grid = (s_qf**2 * (_eq(d2_gs, l_f) @ w_f) + s_b**2 * float(w_f.sum())
                  + s_l**2 * float(self.ls @ w_f) * (grid - self.center))
        ghat_grid = s_qg**2 * (_eq(d2_gs, l_g) @ w_g)
        return f_grid, np.exp(ghat_grid)


@lru_cache
def _half_tril(m):
    """phi() of the Cholesky adjoint, as a mask: the lower triangle of an
    m x m matrix, diagonal halved."""
    mask = np.tri(m, k=-1) + 0.5 * np.eye(m)
    mask.flags.writeable = False
    return mask


def _lapack_routines():
    """scipy's LAPACK wrappers dpotrf, dtrtri and dtrtrs.

    Loaded here rather than at module level, so that importing the package
    (and so every CLI start) does not load scipy. Importing
    scipy.linalg.lapack imports all of scipy.linalg, and with it scipy's
    array-API layer: about 0.3 s of every `fit` process, against a few
    milliseconds for the compiled wrapper module the routines live in, which
    is loaded on its own when nothing has imported it yet.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy

        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
        if spec is None:
            from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs
            return dpotrf, dtrtri, dtrtrs
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dpotrf, module.dtrtri, module.dtrtrs


def _eq(d2, length):
    """exp(-d2 / (2 length^2)), the EQ correlation, built in one new array."""
    out = d2 * (-0.5 / (length * length))
    return np.exp(out, out=out)


def _lapack(result):
    """The array of a LAPACK (array, info) pair; LinAlgError on nonzero info."""
    out, info = result
    if info:
        raise np.linalg.LinAlgError(f"LAPACK info {info}")
    return out



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


@dataclass(frozen=True)
class Posterior:
    """The sampler's latent draws, plus the divergence count, data range and
    config of the fit that made them.

    `chain_draws` (chains, draws per chain, 2m+6) holds the whitened drift and
    diffusion latents at the m anchors, then the log hypers in `HYPER_NAMES`
    order; it is the only copy of the draws that is saved. The `grid`,
    `anchors` and `center` are `config.layout(*data_range)`, and the curves
    `drift_draws` and `diffusion_draws` (n_draws, len(grid)) are recomputed
    from the draws; all five are set when the posterior is made or loaded.
    `diagnostics` and `converged` are computed from the draws the first time
    they are read. A `posterior.json` without `chain_draws`, or fitted with a
    retired config key away from its fixed value, must be re-fitted.
    """

    chain_draws: np.ndarray
    divergences: int
    data_range: tuple[float, float]
    config: FitConfig

    def __post_init__(self):
        grid, anchors, center = self.config.layout(*self.data_range)
        dim = 2 * anchors.size + N_HYPERS
        draws = self.chain_draws
        if draws.ndim != 3 or draws.shape[2] != dim or not np.isfinite(draws).all():
            raise PreconditionError(
                f"chain_draws must be finite, of shape (chains, draws, {dim}) for "
                f"{anchors.size} anchors; got shape {draws.shape}")
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
    def from_json(cls, doc: dict) -> "Posterior":
        """The posterior of a `to_json` document. Keys it does not read, such
        as the `diagnostics`, `converged`, `grid`, `anchors` and `center` that
        older files stored, are ignored; an older config's RETIRED_CONFIG key
        is dropped if it holds its fixed value, and refused otherwise."""
        try:
            config = doc["config"]
            if isinstance(config, dict):
                for key, fixed in RETIRED_CONFIG.items():
                    value = config.get(key, fixed)
                    if type(value) is not type(fixed) or value != fixed:
                        raise IngestError(f"config {key} is {value!r}, not {fixed!r}")
                config = {k: v for k, v in config.items() if k not in RETIRED_CONFIG}
            return cls(
                chain_draws=np.asarray(doc["chain_draws"], dtype=float),
                divergences=int(doc["divergences"]),
                data_range=tuple(doc["data_range"]),
                config=FitConfig.from_json(config),
            )
        except KeyError as exc:
            problem = f"missing key {exc}"
        except (AttributeError, TypeError, ValueError, IngestError, PreconditionError,
                DegenerateDataError) as exc:
            problem = str(exc)
        raise IngestError(f"malformed posterior document ({problem}); a posterior.json "
                          "without chain draws, or fitted with a setting that is now "
                          "fixed, must be re-fitted")

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
    if not posterior.converged:
        worst = max(posterior.diagnostics["rhat"].values())
        warnings.warn(f"max Rhat {worst:.3f} exceeds {MAX_RHAT}", ConvergenceWarning,
                      stacklevel=2)
    n_draws = posterior.n_draws
    if chains.divergences > 0.01 * n_draws:
        warnings.warn(
            f"{chains.divergences} divergent transitions ({100 * chains.divergences / n_draws:.1f}%)",
            ConvergenceWarning,
            stacklevel=2,
        )
    return posterior
