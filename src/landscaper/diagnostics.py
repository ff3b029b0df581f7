"""Split-chain convergence diagnostics: potential scale reduction and ESS."""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

__all__ = ["rhat", "ess"]


def _extract(chains):
    x = np.asarray(chains, dtype=float)
    if x.ndim != 2:
        raise PreconditionError(f"chains must be one parameter's (n_chains, n_draws) array; "
                                f"got {x.ndim} dimensions")
    if x.shape[0] < 2 or x.shape[1] < 4:
        raise PreconditionError("need at least 2 chains with at least 4 draws each")
    return x


def _split(x: np.ndarray) -> np.ndarray:
    n = x.shape[1] // 2
    return np.concatenate([x[:, :n], x[:, n : 2 * n]], axis=0)


def rhat(chains) -> float:
    """Split-chain potential scale reduction factor of one parameter's
    (n_chains, n_draws) draws.

    Chains that are all identical and constant give 1.0 by convention;
    distinct constant chains give +inf.
    """
    x = _split(_extract(chains))
    m, n = x.shape
    means = x.mean(axis=1)
    w = float(np.mean(np.var(x, axis=1, ddof=1)))
    b = n * float(np.var(means, ddof=1))
    if w == 0.0:
        return 1.0 if b == 0.0 else float("inf")
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def _autocov(x: np.ndarray) -> np.ndarray:
    """Per-chain autocovariance (biased, 1/n normalization) via FFT."""
    m, n = x.shape
    centered = x - x.mean(axis=1, keepdims=True)
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(centered, size, axis=1)
    acov = np.fft.irfft(f * np.conjugate(f), size, axis=1)[:, :n].real
    return acov / n


def ess(chains) -> float:
    """Effective sample size of one parameter's (n_chains, n_draws) draws, with
    Geyer's initial monotone sequence truncation."""
    x = _split(_extract(chains))
    m, n = x.shape
    acov = _autocov(x)
    # Each lag's mean over the chains, as np.mean of that lag's column sums it.
    lag_mean = np.ascontiguousarray(acov.T).mean(axis=1).tolist()
    mean_var = float(np.mean(acov[:, 0] * n / (n - 1)))
    var_plus = mean_var * (n - 1) / n + float(np.var(x.mean(axis=1), ddof=1))
    if var_plus == 0.0:
        return float(m * n)

    rho = [1.0] + [0.0] * (n - 1)
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - lag_mean[1]) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 3 and (rho_even + rho_odd) > 0.0:
        rho_even = 1.0 - (mean_var - lag_mean[t + 1]) / var_plus
        rho_odd = 1.0 - (mean_var - lag_mean[t + 2]) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even

    # Geyer initial monotone sequence: enforce non-increasing paired sums.
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2

    tau = -1.0 + 2.0 * float(np.sum(rho[: max_t + 2]))
    # Floor tau so antithetic chains cannot report more than total*log10(total).
    tau = max(tau, 1.0 / np.log10(max(m * n, 10)))
    return float(m * n / tau)
