"""Hamiltonian Monte Carlo with dual-averaging step size and diagonal mass.

The target is a callable q -> (log density, gradient) on R^d. It may also
have a method `batch(Q)` that maps a (k, d) stack of points to a (k,) array
of log densities and a (k, d) array of gradients, each row as the callable
gives it for that point. Each transition draws a momentum p ~ N(0, M),
integrates Hamilton's equations with a leapfrog integrator for a
per-iteration jittered number of steps (uniform on {1, ..., max_leapfrog})
and applies a Metropolis accept/reject on the total energy. During warmup
the step size follows Nesterov-style dual averaging toward the fixed
acceptance rate TARGET_ACCEPT, and the diagonal mass matrix is re-estimated
from warmup draws in two windows (with shrinkage toward a small constant,
and the step size re-initialized after each update). Transitions whose
energy error exceeds ENERGY_ERROR_LIMIT, or that produce non-finite values,
count as divergent and keep the previous draw.

Each chain runs as a generator that yields every point it needs evaluated
and is sent back the point's (log density, gradient). All the chains are
driven in lockstep in the calling process: at each step, the points all live
chains wait on go to one batch call, the target's `batch` if it has one,
which shares its per-call overhead across the chains. A plain function, such
as a wrapper that times each evaluation, is wrapped once into a batch
function that calls it once per point. Only the sampler's screen of each
batch turns a non-finite evaluation into a rejection: a row whose log density
or gradient is not finite is sent to its chain as log density -inf. Chains
own independent generator streams spawned from the seed by chain index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SamplerError
from .numerics import seed_sequence

__all__ = ["Chains", "sample"]

ENERGY_ERROR_LIMIT = 1000.0
# Every chain but the first, and every retry after a start where the target is
# not finite, starts from `init` plus uniform noise of this half-width; a chain
# gives up after MAX_INIT_ATTEMPTS starts.
INIT_JITTER = 1.0
MAX_INIT_ATTEMPTS = 100

# Dual-averaging target and constants (standard choices, Hoffman & Gelman 2014).
TARGET_ACCEPT = 0.8
DA_GAMMA = 0.05
DA_T0 = 10.0
DA_KAPPA = 0.75


@dataclass(frozen=True)
class Chains:
    """Post-warmup draws, stacked (n_chains, n_draws, dim), plus sampler stats."""

    draws: np.ndarray
    divergences: int
    step_sizes: np.ndarray
    accept_rates: np.ndarray
    warmup: int


def sample(
    target,
    init,
    *,
    n_chains: int = 4,
    n_iterations: int = 2000,
    seed=0,
    max_leapfrog: int = 32,
    threads: int = 1,
) -> Chains:
    """Run `n_chains` HMC chains and return their post-warmup draws.

    The first `n_iterations // 2` iterations of each chain are warmup. All
    the chains run in lockstep here, with one batch call per step. `threads`
    must be 1: it stays only because the benchmark's tracer reads it.
    """
    init = np.asarray(init, dtype=float)
    if n_iterations < 2:
        raise SamplerError(f"need n_iterations >= 2 for warmup and sampling; got {n_iterations}")
    if max_leapfrog < 1:
        raise SamplerError(f"need max_leapfrog >= 1; got {max_leapfrog}")
    if n_chains < 1:
        raise SamplerError(f"need n_chains >= 1; got {n_chains}")
    if threads != 1:
        raise SamplerError(f"need threads == 1, as all chains run in one process; got {threads}")
    warmup = n_iterations // 2
    streams = seed_sequence(seed).spawn(n_chains)

    batch = getattr(target, "batch", None)
    if batch is None:  # a plain function: called once per point

        def batch(points):
            logps, grads = zip(*map(target, points))
            return np.array(logps, dtype=float), np.array(grads, dtype=float)

    results = _lockstep(batch, [
        _run_chain(init, np.random.default_rng(stream), n_iterations=n_iterations,
                   warmup=warmup, max_leapfrog=max_leapfrog, jitter_first=idx > 0)
        for idx, stream in enumerate(streams)
    ])

    draws = np.stack([r[0] for r in results])
    return Chains(
        draws=draws,
        divergences=int(sum(r[1] for r in results)),
        step_sizes=np.array([r[2] for r in results]),
        accept_rates=np.array([r[3] for r in results]),
        warmup=warmup,
    )


def _lockstep(batch, chains):
    """Drive chain generators to their ends and return their results in order.

    Each generator yields the point it needs evaluated and is sent back
    (log density, gradient); all pending points go to one `batch` call, and
    a row whose log density or gradient is not finite is sent as -inf.
    """
    results = [None] * len(chains)
    pending = {i: next(chain) for i, chain in enumerate(chains)}
    while pending:
        logps, grads = batch(np.array(list(pending.values())))
        ok = np.isfinite(logps) & np.isfinite(grads).all(axis=1)
        if not ok.all():  # rare; unguarded, the masked store would slow every step
            logps = np.where(ok, logps, -np.inf)
        for i, logp, grad in zip(list(pending), logps.tolist(), grads):
            try:
                pending[i] = chains[i].send((logp, grad))
            except StopIteration as done:
                del pending[i]
                results[i] = done.value
    return results


# The chain generators below yield each point they need evaluated and receive
# its (log density, gradient), as a float, finite or -inf, and a float array.


def _initialize(init, rng, jitter_first):
    for attempt in range(MAX_INIT_ATTEMPTS):
        if attempt == 0 and not jitter_first:
            q = init.copy()
        else:
            q = init + rng.uniform(-INIT_JITTER, INIT_JITTER, size=init.shape)
        logp, grad = yield q
        if logp != -math.inf:
            return q, logp, grad
    raise SamplerError(f"no finite starting point after {MAX_INIT_ATTEMPTS} jittered attempts")


def _leapfrog(q, p, grad, eps, n_steps, inv_mass):
    half_eps = 0.5 * eps
    step = eps * inv_mass
    for _ in range(n_steps):
        p = p + half_eps * grad
        q = q + step * p
        logp, grad = yield q
        if logp == -math.inf:
            return q, p, logp, grad
        p = p + half_eps * grad
    return q, p, logp, grad


def _kinetic(inv_mass, p) -> float:
    """The kinetic energy of momentum p. A momentum too large to square gives
    inf, which rejects the move, or counts it divergent, without a warning."""
    with np.errstate(over="ignore"):
        return float(0.5 * (inv_mass * p * p).sum())


def _find_step_size(q, logp, grad, rng, inv_mass, sqrt_mass):
    """Crude doubling/halving search for a step size with ~50% acceptance."""
    eps = 1.0
    p = rng.standard_normal(q.shape) * sqrt_mass
    h0 = -logp + _kinetic(inv_mass, p)
    q1, p1, logp1, _ = yield from _leapfrog(q, p, grad, eps, 1, inv_mass)
    log_ratio = -(-logp1 + _kinetic(inv_mass, p1)) + h0
    direction = 1 if log_ratio > math.log(0.5) else -1
    for _ in range(60):
        eps *= 2.0**direction
        if not (1e-10 < eps < 1e10):
            break
        q1, p1, logp1, _ = yield from _leapfrog(q, p, grad, eps, 1, inv_mass)
        log_ratio = -(-logp1 + _kinetic(inv_mass, p1)) + h0
        if direction * log_ratio <= direction * math.log(0.5):
            break
    return float(min(max(eps, 1e-10), 1e10))


class _DualAveraging:
    def __init__(self, eps0):
        self.mu = math.log(10.0 * eps0)
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept_prob):
        self.count += 1
        m = self.count
        frac = 1.0 / (m + DA_T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (TARGET_ACCEPT - accept_prob)
        self.log_eps = self.mu - math.sqrt(m) / DA_GAMMA * self.h_bar
        eta = m**-DA_KAPPA
        self.log_eps_bar = eta * self.log_eps + (1.0 - eta) * self.log_eps_bar

    @property
    def eps(self):
        return math.exp(self.log_eps)

    @property
    def eps_final(self):
        return math.exp(self.log_eps_bar)


def _regularized_variance(draws: np.ndarray) -> np.ndarray:
    # Shrink the sample variance toward 1e-3, as in windowed Stan adaptation.
    n = draws.shape[0]
    return (n / (n + 5.0)) * np.var(draws, axis=0, ddof=1) + 1e-3 * (5.0 / (n + 5.0))


def _run_chain(init, rng, *, n_iterations, warmup, max_leapfrog, jitter_first):
    q, logp, grad = yield from _initialize(init, rng, jitter_first)
    dim = init.size

    inv_mass = np.ones(dim)
    sqrt_mass = np.ones(dim)
    eps = yield from _find_step_size(q, logp, grad, rng, inv_mass, sqrt_mass)
    da = _DualAveraging(eps)

    # Mass-matrix re-estimation points inside warmup.
    updates = sorted({int(0.5 * warmup), int(0.9 * warmup)})
    window_start = int(0.15 * warmup)
    window: list[np.ndarray] = []

    kept = np.empty((n_iterations - warmup, dim))
    divergences = 0
    accept_sum = 0.0

    for it in range(n_iterations):
        adapting = it < warmup
        p = rng.standard_normal(dim) * sqrt_mass
        n_steps = min(1 + int(rng.uniform() * max_leapfrog), max_leapfrog)
        h0 = -logp + _kinetic(inv_mass, p)
        q1, p1, logp1, grad1 = yield from _leapfrog(q, p, grad, eps, n_steps, inv_mass)

        # A rejected point (logp1 = -inf) makes the energy error inf or NaN.
        energy_error = -logp1 + _kinetic(inv_mass, p1) - h0
        divergent = not math.isfinite(energy_error) or energy_error > ENERGY_ERROR_LIMIT
        if divergent:
            accept_prob = 0.0
        elif energy_error <= 0.0:
            accept_prob = 1.0
        else:
            accept_prob = math.exp(-energy_error)

        if not divergent and rng.uniform() < accept_prob:
            q, logp, grad = q1, logp1, grad1

        if adapting:
            da.update(accept_prob)
            eps = da.eps
            if it >= window_start:
                window.append(q.copy())
            if it + 1 in updates and len(window) >= 10:
                inv_mass = _regularized_variance(np.asarray(window))
                sqrt_mass = 1.0 / np.sqrt(inv_mass)
                window = []
                eps = yield from _find_step_size(q, logp, grad, rng, inv_mass, sqrt_mass)
                da = _DualAveraging(eps)
            if it + 1 == warmup:
                eps = da.eps_final
        else:
            kept[it - warmup] = q
            divergences += int(divergent)
            accept_sum += accept_prob

    return kept, divergences, eps, accept_sum / len(kept)
