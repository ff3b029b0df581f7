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

import math
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property

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


class TargetContext:
    """Precomputed data-dependent pieces of the log posterior."""

    def __init__(self, x, dx, dt, anchors, center: float):
        # Imported here rather than at module level, so that importing the
        # package (and so every CLI start) does not load scipy.
        from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs

        self._potrf, self._trtri, self._trtrs = dpotrf, dtrtri, dtrtrs
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
        self.ls_outer = np.outer(self.ls, self.ls)
        self.mean_ls2 = float(np.mean(self.ls**2))
        self.dim = 2 * m + N_HYPERS
        # E @ (ls_pows * w[:, None]) gives E @ w, E @ (ls w) and E @ (ls^2 w) in one
        # product, and since (x - s)^2 = lx^2 - 2 lx ls + ls^2, the row sums of
        # d2_coef times that product are (E * d2_xs) @ w. The expansion uses the
        # centred coordinates: with raw x it cancels badly far from the origin.
        self.ls_pows = np.column_stack([np.ones(m), self.ls, self.ls**2])
        self.d2_coef = np.column_stack([self.lx**2, -2.0 * self.lx, np.ones_like(self.lx)])
        # phi() of the Cholesky adjoint: the lower triangle, diagonal halved.
        self.half_tril = np.tril(np.ones((m, m)), -1) + 0.5 * np.eye(m)
        # The state-independent part of the log density: Gaussian normalisers of
        # the increments and of the whitened latents, and the Inverse-Gamma ones.
        self.log_norm = (
            -0.5 * self.x.size * LOG_2PI - 0.5 * float(np.sum(np.log(self.dt)))
            - m * LOG_2PI + PRIOR_LOG_NORM
        )

    def initial_vector(self) -> np.ndarray:
        hypers = [math.log(2.0), math.log(1.25), math.log(2.0), math.log(2.0),
                  math.log(2.0), math.log(1.25)]
        return np.concatenate([np.zeros(2 * self.m), hypers])

    def _factors(self, eta):
        """The constrained hypers and anchor factors of one state.

        Returns (sig, e_ss, g_ss, chol_f, chol_g): sig is exp(eta) as a list
        of six Python floats, in `HYPER_NAMES` order; e_ss and g_ss are the EQ
        correlation blocks of the anchors at the drift and the diffusion
        length scale; chol_f and chol_g are the lower Cholesky factors of the
        two anchor covariances, Fortran-ordered with a zero upper triangle.
        Raises LinAlgError when a covariance is not numerically positive
        definite.
        """
        sig = np.exp(eta).tolist()
        s_qf, l_f, s_b, s_l, s_qg, l_g = sig
        v_qf, v_b, v_l, v_qg = s_qf**2, s_b**2, s_l**2, s_qg**2
        e_ss = _eq(self.d2_ss, l_f)
        k_f = e_ss * v_qf
        k_f += v_b
        k_f += self.ls_outer * v_l
        k_f.reshape(-1)[:: self.m + 1] += JITTER_REL * (v_qf + v_b + v_l * self.mean_ls2)
        g_ss = _eq(self.d2_ss, l_g)
        k_g = g_ss * v_qg
        k_g.reshape(-1)[:: self.m + 1] += JITTER_REL * v_qg
        # Both covariances are exactly symmetric, so each Fortran-ordered
        # transpose is the same matrix, and LAPACK factors it in place.
        chol_f = _lapack(self._potrf(k_f.T, lower=1, overwrite_a=1))
        return sig, e_ss, g_ss, chol_f, _lapack(self._potrf(k_g.T, lower=1, overwrite_a=1))

    def _chol_adjoint(self, l_chol, z, p):
        """S = L^-T phi(L^T w p^T) L^-1, the K-space adjoint of d(L^-T z).

        L^T w is z itself, and phi keeps the lower triangle with its diagonal
        halved, which is the elementwise product with `half_tril`. L is
        inverted in place, so `l_chol` is spent.
        """
        l_inv = _lapack(self._trtri(l_chol, lower=1, overwrite_c=1))
        zp = z[:, None] * p
        zp *= self.half_tril
        return l_inv.T @ zp @ l_inv

    # -- forward + gradient ------------------------------------------------

    def log_posterior_and_grad(self, theta):
        theta = np.asarray(theta, dtype=float)
        m = self.m
        z_f = theta[:m]
        z_g = theta[m : 2 * m]
        eta = theta[2 * m :]
        # any() rather than max(), whose result with a NaN depends on the NaN's
        # position; a NaN passes here and fails the finiteness checks below.
        if any(abs(e) > HYPER_BOUND for e in eta.tolist()):
            return -np.inf, np.zeros_like(theta)

        try:
            with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
                sig, e_ss, g_ss, chol_f, chol_g = self._factors(eta)
                s_qf, l_f, s_b, s_l, s_qg, l_g = sig
                v_qf, v_b, v_l, v_qg = s_qf**2, s_b**2, s_l**2, s_qg**2
                w_f = _lapack(self._trtrs(chol_f, z_f, lower=1, trans=1))
                w_g = _lapack(self._trtrs(chol_g, z_g, lower=1, trans=1))

                # The two data-anchor blocks are the only n x m arrays per call.
                e_xs = _eq(self.d2_xs, l_f)
                g_xs = _eq(self.d2_xs, l_g)
                pf = e_xs @ (self.ls_pows * w_f[:, None])
                pg = g_xs @ (self.ls_pows * w_g[:, None])
                sum_wf = float(w_f.sum())
                ls_wf = float(self.ls @ w_f)
                f_x = v_qf * pf[:, 0] + v_b * sum_wf + (v_l * ls_wf) * self.lx
                ghat_x = v_qg * pg[:, 0]

                # Increment variance is exp(ghat) dt.
                resid = self.dx - f_x * self.dt
                a_vec = resid * np.exp(-ghat_x)      # resid dt / var
                r2_var = resid * a_vec / self.dt     # resid^2 / var
                exp_neg = np.exp(-eta)
                logp = float(
                    self.log_norm
                    - 0.5 * ghat_x.sum() - 0.5 * r2_var.sum()
                    - 0.5 * (z_f @ z_f) - 0.5 * (z_g @ z_g)
                    - PRIOR_SHAPE @ eta - PRIOR_SCALE @ exp_neg
                )
                if not math.isfinite(logp):
                    return -np.inf, np.zeros_like(theta)

                # Adjoints of the likelihood wrt f(x_n) and ghat(x_n).
                b_vec = 0.5 * r2_var - 0.5
                sum_a = float(a_vec.sum())
                lx_a = float(self.lx @ a_vec)

                r_f = v_qf * (e_xs.T @ a_vec) + v_b * sum_a + (v_l * lx_a) * self.ls
                p_f = _lapack(self._trtrs(chol_f, r_f, lower=1))
                p_g = _lapack(self._trtrs(chol_g, v_qg * (g_xs.T @ b_vec), lower=1))
                s_f = self._chol_adjoint(chol_f, z_f, p_f)
                s_g = self._chol_adjoint(chol_g, z_g, p_g)
                tr_sf = float(s_f.trace())
                tr_sg = float(s_g.trace())
                # Amplitude entries are log sigma, so the kernel variance
                # contributes d(sigma^2)/d(eta) = 2 sigma^2.
                hyper_grads = np.array([
                    2.0 * v_qf * (a_vec @ pf[:, 0] - (e_ss * s_f).sum() - JITTER_REL * tr_sf),
                    (v_qf / (l_f * l_f)) * (np.vdot(self.d2_coef * a_vec[:, None], pf)
                                            - (e_ss * self.d2_ss * s_f).sum()),
                    2.0 * v_b * (sum_a * sum_wf - s_f.sum() - JITTER_REL * tr_sf),
                    2.0 * v_l * (lx_a * ls_wf - self.ls @ s_f @ self.ls
                                 - JITTER_REL * self.mean_ls2 * tr_sf),
                    2.0 * v_qg * (b_vec @ pg[:, 0] - (g_ss * s_g).sum() - JITTER_REL * tr_sg),
                    (v_qg / (l_g * l_g)) * (np.vdot(self.d2_coef * b_vec[:, None], pg)
                                            - (g_ss * self.d2_ss * s_g).sum()),
                ])
                hyper_grads += PRIOR_SCALE * exp_neg - PRIOR_SHAPE
                grad = np.concatenate([p_f - z_f, p_g - z_g, hyper_grads])

                if not np.isfinite(grad).all():
                    return -np.inf, np.zeros_like(theta)
                return logp, grad
        except np.linalg.LinAlgError:
            return -np.inf, np.zeros_like(theta)

    def curves_on(self, grid, theta):
        """Drift and diffusion curves implied by one state vector on a grid."""
        grid = np.asarray(grid, dtype=float)
        m = self.m
        sig, _, _, chol_f, chol_g = self._factors(theta[2 * m :])
        s_qf, l_f, s_b, s_l, s_qg, l_g = sig
        w_f = _lapack(self._trtrs(chol_f, theta[:m], lower=1, trans=1))
        w_g = _lapack(self._trtrs(chol_g, theta[m : 2 * m], lower=1, trans=1))
        d2_gs = (grid[:, None] - self.anchors[None, :]) ** 2
        f_grid = (s_qf**2 * (_eq(d2_gs, l_f) @ w_f) + s_b**2 * float(w_f.sum())
                  + s_l**2 * float(self.ls @ w_f) * (grid - self.center))
        ghat_grid = s_qg**2 * (_eq(d2_gs, l_g) @ w_g)
        return f_grid, np.exp(ghat_grid)


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

    `threads` > 1 runs up to that many chains on a thread pool; it never
    changes the posterior, and it is usually slower than the serial default.
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
        ctx.log_posterior_and_grad,
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
