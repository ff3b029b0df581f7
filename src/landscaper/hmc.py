"""Hamiltonian Monte Carlo with dual-averaging step size and diagonal mass.

The target is a callable q -> (log density, gradient) on R^d. It may also
have a method `batch(Q)` that maps a (k, d) stack of points to a (k,) array
of log densities and a (k, d) array of gradients, each row as the callable
gives it for that point. Each transition
draws a momentum p ~ N(0, M), integrates Hamilton's equations with a leapfrog
integrator for a per-iteration jittered number of steps (uniform on
{1, ..., max_leapfrog}) and applies a Metropolis accept/reject on the total
energy. During warmup the step size follows Nesterov-style dual averaging
toward the fixed acceptance rate TARGET_ACCEPT, and the diagonal mass matrix
is re-estimated from warmup draws in two windows (with shrinkage toward a
small constant, and the step size re-initialized after each update).
Transitions whose energy error exceeds ENERGY_ERROR_LIMIT, or that produce
non-finite values, count as divergent and keep the previous draw.

Each chain runs as a generator that yields every point it needs evaluated
and is sent back the point's (log density, gradient). The chains are driven
in lockstep: at each step, the points all live chains of a group wait on are
evaluated together, with one `batch` call when the target has the method and
with one call per point when it does not (a plain function, such as a
wrapper that times each evaluation). A batched target shares its per-call
overhead across the chains. Chains own independent generator streams
spawned from the seed by chain index, so results do not depend on how the
chains are grouped. `threads` > 1 splits the chains into that many groups.
For a batched target, every group but the first runs in a forked child
process, which sends its chains' results back through a pipe; the groups of
a plain-function target, or on a platform without the `fork` start method,
run one after another in the calling process.
"""

from __future__ import annotations

import math
import pickle
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

    The first `n_iterations // 2` iterations of each chain are warmup. The
    chains are split into `min(threads, n_chains)` groups, each run in
    lockstep; at each step a group evaluates the points all its live chains
    wait on with one `target.batch` call if the target has one, and with one
    `target` call per point otherwise. The groups of a batched target run
    in parallel, the first here and each other one in a forked child process
    (see `_run_groups`); the draws are the same for any number of groups.
    """
    init = np.asarray(init, dtype=float)
    if n_iterations < 2:
        raise SamplerError(f"need n_iterations >= 2 for warmup and sampling; got {n_iterations}")
    if max_leapfrog < 1:
        raise SamplerError(f"need max_leapfrog >= 1; got {max_leapfrog}")
    if n_chains < 1:
        raise SamplerError(f"need n_chains >= 1; got {n_chains}")
    if threads < 1:
        raise SamplerError(f"need threads >= 1; got {threads}")
    warmup = n_iterations // 2
    streams = seed_sequence(seed).spawn(n_chains)

    def run(group):
        return _lockstep(target, [
            _run_chain(init, np.random.default_rng(streams[idx]), n_iterations=n_iterations,
                       warmup=warmup, max_leapfrog=max_leapfrog, jitter_first=idx > 0)
            for idx in group
        ])

    groups = np.array_split(np.arange(n_chains), min(threads, n_chains))
    results = [r for rs in _run_groups(run, groups, hasattr(target, "batch")) for r in rs]

    draws = np.stack([r[0] for r in results])
    return Chains(
        draws=draws,
        divergences=int(sum(r[1] for r in results)),
        step_sizes=np.array([r[2] for r in results]),
        accept_rates=np.array([r[3] for r in results]),
        warmup=warmup,
    )


def _run_groups(run, groups, batched):
    """`run(group)` for every group, in group order.

    With more than one group of a `batched` target, every group but the first
    runs in a child process forked here, which sends back its results or the
    exception it raised; the first group runs here meanwhile. The exception
    of the first failing group, in group order, is raised, and every child is
    killed and reaped before this returns or raises.
    """
    # Forked, not spawned: a child shares the target and the chain closures as
    # they are, with nothing to pickle, and the CLI process runs no threads.
    if len(groups) > 1 and batched:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _run_forked(run, groups, multiprocessing.get_context("fork"))
    return [run(group) for group in groups]


def _run_forked(run, groups, context):
    children = []
    try:
        for group in groups[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_run_child, args=(run, group, sender), daemon=True)
            child.start()
            sender.close()
            children.append((child, receiver))
        results = [run(groups[0])]
        for child, receiver in children:
            try:
                error, value = receiver.recv()
            except EOFError:
                child.join()
                raise SamplerError(f"a chain group's process exited with code {child.exitcode} "
                                   "before sending its results") from None
            if error is not None:
                raise error
            results.append(value)
        return results
    finally:
        for child, receiver in children:
            child.kill()
            child.join()
            receiver.close()


def _run_child(run, group, sender):
    # The body of a forked child: send back (None, results) or (exception,
    # None). An exception that does not survive pickling is sent as a
    # SamplerError that names it. A child that dies without sending, of an
    # interrupt or a signal, is reported by the caller from its exit code.
    try:
        message = (None, run(group))
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = SamplerError(f"a chain group raised {type(exc).__name__}: {exc}")
        message = (exc, None)
    sender.send(message)
    sender.close()


def _lockstep(target, chains):
    """Drive chain generators to their ends and return their results in order.

    Each generator yields the point it needs evaluated and is sent back
    (log density, gradient); all pending points are evaluated together.
    """
    batch = getattr(target, "batch", None)
    results = [None] * len(chains)
    pending = {i: next(chain) for i, chain in enumerate(chains)}
    while pending:
        points = list(pending.values())
        if batch is not None:
            logps, grads = batch(np.array(points))
            values = zip(logps.tolist(), np.asarray(grads, dtype=float))
        else:
            values = [_eval(target, q) for q in points]
        for i, value in zip(list(pending), values):
            try:
                pending[i] = chains[i].send(value)
            except StopIteration as done:
                del pending[i]
                results[i] = done.value
    return results


def _eval(target, q):
    logp, grad = target(q)
    return float(logp), np.asarray(grad, dtype=float)


# The chain generators below yield each point they need evaluated and receive
# its (log density, gradient), as a float and a float array.


def _initialize(init, rng, jitter_first):
    for attempt in range(MAX_INIT_ATTEMPTS):
        if attempt == 0 and not jitter_first:
            q = init.copy()
        else:
            q = init + rng.uniform(-INIT_JITTER, INIT_JITTER, size=init.shape)
        logp, grad = yield q
        if math.isfinite(logp) and np.isfinite(grad).all():
            return q, logp, grad
    raise SamplerError(f"no finite starting point after {MAX_INIT_ATTEMPTS} jittered attempts")


def _leapfrog(q, p, grad, eps, n_steps, inv_mass):
    half_eps = 0.5 * eps
    step = eps * inv_mass
    for _ in range(n_steps):
        p = p + half_eps * grad
        q = q + step * p
        logp, grad = yield q
        if not (math.isfinite(logp) and np.isfinite(grad).all()):
            return q, p, -np.inf, grad
        p = p + half_eps * grad
    return q, p, logp, grad


def _find_step_size(q, logp, grad, rng, inv_mass, sqrt_mass):
    """Crude doubling/halving search for a step size with ~50% acceptance."""
    eps = 1.0
    p = rng.standard_normal(q.shape) * sqrt_mass
    h0 = -logp + 0.5 * (inv_mass * p * p).sum()
    q1, p1, logp1, _ = yield from _leapfrog(q, p, grad, eps, 1, inv_mass)
    log_ratio = -(-logp1 + 0.5 * (inv_mass * p1 * p1).sum()) + h0
    direction = 1 if log_ratio > math.log(0.5) else -1
    for _ in range(60):
        eps *= 2.0**direction
        if not (1e-10 < eps < 1e10):
            break
        q1, p1, logp1, _ = yield from _leapfrog(q, p, grad, eps, 1, inv_mass)
        log_ratio = -(-logp1 + 0.5 * (inv_mass * p1 * p1).sum()) + h0
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
    var = np.var(draws, axis=0, ddof=1) if n > 1 else np.ones(draws.shape[1])
    return (n / (n + 5.0)) * var + 1e-3 * (5.0 / (n + 5.0))


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
        h0 = -logp + 0.5 * (inv_mass * p * p).sum()
        q1, p1, logp1, grad1 = yield from _leapfrog(q, p, grad, eps, n_steps, inv_mass)

        if math.isfinite(logp1):
            h1 = -logp1 + 0.5 * (inv_mass * p1 * p1).sum()
            energy_error = h1 - h0
        else:
            energy_error = np.inf
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

    n_kept = n_iterations - warmup
    return kept, divergences, eps, accept_sum / max(n_kept, 1)
