"""Shared numerical routines in numpy alone, and the package's one way to run
work in parallel processes.

`cumulative_trapezoid` and `solve_tridiagonal` transcribe scipy's
cumulative_trapezoid and LAPACK's dgtsv (over a stack of systems), with the
bits they give. `fork_map` maps a function over items in forked child
processes; the simulation studies run their replicates through it.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np

from .errors import DegenerateDataError, PreconditionError, SamplerError

__all__ = ["cumulative_trapezoid", "density_from_drift_diffusion", "fork_map", "nearest_rank",
           "seed_sequence", "solve_tridiagonal"]

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


def solve_tridiagonal(sub, main, sup, rhs):
    """LAPACK's dgtsv in numpy, on each row of a (systems, n) stack of
    tridiagonal systems, n >= 2; `sub` and `sup` have n - 1 columns.
    Partial pivoting in dgtsv's order of operations gives each system the
    bits dgtsv gives it, overflow included. Returns the solutions and each
    system's `info`: 0, or the 1-based row of its first zero pivot, where
    dgtsv stops and the solution is meaningless."""
    # Row i of each array is row i of every system.
    dl, d, du, b = (np.array(a, dtype=float).T.copy() for a in (sub, main, sup, rhs))
    n = len(d)
    du2 = np.zeros_like(d)  # the second superdiagonal that pivoting fills in
    info = np.zeros(d.shape[1:], dtype=int)
    with np.errstate(all="ignore"):
        for i in range(n - 1):
            # Rows i and i + 1 change places where |sub| > |main|.
            swap = ~(np.abs(d[i]) >= np.abs(dl[i]))
            info[(info == 0) & ~swap & (d[i] == 0.0)] = i + 1
            fact = np.where(swap, d[i] / dl[i], dl[i] / d[i])
            d[i], d[i + 1], du[i] = (
                np.where(swap, dl[i], d[i]),
                np.where(swap, du[i] - fact * d[i + 1], d[i + 1] - fact * du[i]),
                np.where(swap, d[i + 1], du[i]))
            b[i], b[i + 1] = (np.where(swap, b[i + 1], b[i]),
                              np.where(swap, b[i] - fact * b[i + 1], b[i + 1] - fact * b[i]))
            if i < n - 2:
                du2[i] = np.where(swap, du[i + 1], 0.0)
                du[i + 1] = np.where(swap, -fact * du[i + 1], du[i + 1])
        info[(info == 0) & (d[-1] == 0.0)] = n
        b[-1] /= d[-1]
        b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return np.ascontiguousarray(b.T), info


def fork_map(fn, items, workers: int = 1) -> list:
    """`[fn(item) for item in items]`, run in up to `workers` processes.

    The items are split into `min(workers, len(items))` contiguous shares.
    The first share runs here, and each other one in a child process forked
    here, which sends back its results or exception and the warnings it
    issued. The children's warnings are re-issued here in item order, with
    their category, message, file and line, and the exception of the first
    failing item in item order is raised. One that does not survive
    pickling comes back as a SamplerError that names it, as does a child
    that dies without sending anything, with its exit code. Every child is
    killed and reaped before this returns or raises. With one share, or
    without the `fork` start method, every item runs here.
    """
    if workers < 1:
        raise PreconditionError(f"need workers >= 1; got {workers}")
    items = list(items)
    shares = np.array_split(np.arange(len(items)), max(1, min(workers, len(items))))
    # Forked, not spawned: a child shares `fn` and the items as they are,
    # with nothing to pickle.
    if len(shares) > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            return _fork_shares(lambda share: [fn(items[i]) for i in share], shares, context)
    return [fn(item) for item in items]


def _fork_shares(run, shares, context):
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_run_child, args=(run, share, sender), daemon=True)
            child.start()
            sender.close()
            children.append((child, receiver))
        results = run(shares[0])
        for child, receiver in children:
            try:
                error, value, caught = receiver.recv()
            except EOFError:
                child.join()
                raise SamplerError(f"a forked process exited with code {child.exitcode} "
                                   "before sending its results") from None
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            if error is not None:
                raise error
            results += value
        return results
    finally:
        for child, receiver in children:
            child.kill()
            child.join()
            receiver.close()


def _run_child(run, share, sender):
    # The body of a forked child. Its warnings are recorded as they pass the
    # filters it inherited from the caller.
    with warnings.catch_warnings(record=True) as caught:
        try:
            error, value = None, run(share)
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = SamplerError(f"a forked process raised {type(exc).__name__}: {exc}")
            error, value = exc, None
    sender.send((error, value,
                 [(str(w.message), w.category, w.filename, w.lineno) for w in caught]))
    sender.close()
