"""Independent oracle implementations used only by tests.

These deliberately avoid the library's code paths: brute-force scans, the
kernels and the reduced-rank basis written out from their formulas,
plain-python density sums, a per-draw loop over drift sign changes, a
per-draw loop of scipy's banded solver for exit-time bands, a batch Monte
Carlo first-passage simulator, stationary states reached by a long
Euler-Maruyama burn-in, and a per-budget loop of np.histogram for the
coverage study.
They exist so that library results are checked against something that cannot
share their bugs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

from landscaper.experiments import kl_divergence


def sign_scan_roots(func, lo, hi, n=20001):
    """Brute-force root localization by sign change on a dense grid, refined
    by bisection. Returns (stable, tipping) sorted by location."""
    xs = np.linspace(lo, hi, n)
    fs = np.array([func(x) for x in xs])
    stable, tipping = [], []
    for i in range(n - 1):
        if fs[i] == 0.0 or fs[i] * fs[i + 1] >= 0.0:
            continue
        a, b = xs[i], xs[i + 1]
        fa = fs[i]
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = func(mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        root = 0.5 * (a + b)
        (stable if fs[i] > 0 else tipping).append(root)
    return sorted(stable), sorted(tipping)


def per_draw_roots(grid, drift_draws):
    """Each draw's (stable, tipping) sign-change locations, found one draw at
    a time: sign changes between consecutive nonzero drift values, located by
    linear interpolation, downward = stable."""
    structures = []
    for f in drift_draws:
        nz = np.flatnonzero(f != 0.0)
        stable, tipping = [], []
        if nz.size >= 2:
            positive = f[nz] > 0
            for i in np.flatnonzero(positive[:-1] != positive[1:]):
                a, b = nz[i], nz[i + 1]
                loc = float(grid[a] - f[a] * (grid[b] - grid[a]) / (f[b] - f[a]))
                (stable if f[a] > 0 else tipping).append(loc)
        structures.append((stable, tipping))
    return structures


def per_draw_exit_time_band(grid, drift_draws, diffusion_draws):
    """The exit-time band's retained curves and anchor node, one draw at a
    time. A draw is a candidate when `per_draw_roots` finds it two stable
    points and one tipping point within one grid cell of the posterior-mean
    drift's; its system, in scipy's band storage, is solved by
    `scipy.linalg.solve_banded`, and kept unless singular, not finite, or
    dipping below -1e-9 times its largest magnitude (at least 1)."""
    from scipy.linalg import LinAlgError, solve_banded

    h = grid[1] - grid[0]
    (_, (tip,)), = per_draw_roots(grid, drift_draws.mean(axis=0)[None])
    k = int(np.argmin(np.abs(grid - tip)))
    curves = []
    for (stable, tipping), f, g in zip(per_draw_roots(grid, drift_draws), drift_draws,
                                      diffusion_draws):
        if len(stable) != 2 or len(tipping) != 1 or abs(tipping[0] - tip) > h:
            continue
        # ab[0, j + 1], ab[1, j] and ab[2, j - 1] are row j's super-, main
        # and sub-diagonal entries; row k is T = 0 and column k is empty but
        # for it; the end rows are zero-slope.
        adv, dif = f[1:-1] / (2 * h), g[1:-1] / (2 * h * h)
        ab = np.zeros((3, grid.size))
        ab[0, 2:], ab[1, 1:-1], ab[2, :-2] = dif + adv, -2 * dif, dif - adv
        ab[0, 1], ab[1, 0], ab[1, -1], ab[2, -2] = 1.0, -1.0, 1.0, -1.0
        ab[:, k] = 0.0
        ab[1, k], ab[0, k + 1], ab[2, k - 1] = 1.0, 0.0, 0.0
        rhs = np.full(grid.size, -1.0)
        rhs[[0, k, -1]] = 0.0
        try:
            times = solve_banded((1, 1), ab, rhs, check_finite=False)
        except LinAlgError:
            continue
        if np.all(np.isfinite(times)) and times.min() >= -1e-9 * max(1.0, np.abs(times).max()):
            curves.append(np.maximum(times, 0.0))
    return np.array(curves).reshape(-1, grid.size), k


def drift_kernel(x, x2, sigma_q, l, sigma_b, sigma_l, c):
    """Drift prior covariance (broadcasting), the documented formula
    s_q^2 exp(-(x - x')^2 / (2 l^2)) + s_b^2 + s_l^2 (x - c)(x' - c)."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return eq_kernel(x, x2, sigma_q, l) + sigma_b**2 + sigma_l**2 * (x - c) * (x2 - c)


def eq_kernel(x, x2, sigma_q, l):
    """Diffusion prior covariance (broadcasting), s_q^2 exp(-(x - x')^2 / (2 l^2))."""
    d = np.asarray(x, dtype=float) - np.asarray(x2, dtype=float)
    return sigma_q**2 * np.exp(-(d * d) / (2.0 * l**2))


def increments_loglik(x, dx, dt, f_at_x, ghat_at_x):
    """Plain-python Gaussian increments likelihood (mean f*dt, sd sqrt(g*dt))."""
    total = 0.0
    for xi, dxi, dti, fi, gi in zip(x, dx, dt, f_at_x, ghat_at_x):
        sd = math.sqrt(math.exp(gi) * dti)
        total += float(norm.logpdf(dxi, loc=fi * dti, scale=sd))
    return total


def sine_basis(x, center, boundary, count):
    """The Hilbert-space basis of Solin & Sarkka (2020) on [c - L, c + L] at
    the points x, (len(x), count): phi_j(x) = sin(pi j (x - c + L) / 2L) /
    sqrt(L) for j = 1..count, one value at a time."""
    return np.array([[math.sin(math.pi * j * (xi - center + boundary) / (2.0 * boundary))
                      / math.sqrt(boundary) for j in range(1, count + 1)]
                     for xi in np.asarray(x, dtype=float)])


def eq_spectral_sd(sigma_q, l, boundary, count):
    """Square roots of the EQ kernel's spectral density S(w) = s_q^2 sqrt(2 pi)
    l exp(-l^2 w^2 / 2) at the basis frequencies w_j = pi j / 2L, j = 1..count."""
    return np.array([math.sqrt(sigma_q**2 * math.sqrt(2.0 * math.pi) * l
                               * math.exp(-0.5 * (l * math.pi * j / (2.0 * boundary)) ** 2))
                     for j in range(1, count + 1)])


def first_passage_times(drift, diffusion, x0, barrier, dt, n_walkers, seed):
    """Batch Euler-Maruyama first-passage times to a barrier.

    Walkers start at x0 and are absorbed when they cross `barrier` (from
    either side). Returns the absorption times of all walkers.
    """
    rng = np.random.default_rng(seed)
    x = np.full(n_walkers, float(x0))
    alive = np.arange(n_walkers)
    times = np.zeros(n_walkers)
    start_side = math.copysign(1.0, x0 - barrier)
    sqrt_dt = math.sqrt(dt)
    step = 0
    while alive.size:
        step += 1
        z = rng.standard_normal(alive.size)
        g = np.asarray(diffusion(x), dtype=float)
        x = x + np.asarray(drift(x), dtype=float) * dt + np.sqrt(g) * sqrt_dt * z
        crossed = (x - barrier) * start_side <= 0.0
        if np.any(crossed):
            times[alive[crossed]] = step * dt
            alive = alive[~crossed]
            x = x[~crossed]
    return times


def burned_in_states(drift, diffusion, n_walkers, seed, x0=0.3, dt=0.01, n_steps=10_000):
    """States of n_walkers Euler-Maruyama walkers after n_steps of dt from x0.

    Long enough a burn-in forgets the start, so the walkers are draws from the
    stationary density without any quadrature of it.
    """
    rng = np.random.default_rng(seed)
    x = np.full(n_walkers, float(x0))
    sqrt_dt = math.sqrt(dt)
    for _ in range(n_steps):
        z = rng.standard_normal(n_walkers)
        g = np.asarray(diffusion(x), dtype=float)
        x = x + np.asarray(drift(x), dtype=float) * dt + np.sqrt(g) * sqrt_dt * z
    return x


def per_budget_coverage(table, short_values, long_values, total_time, points, dt, n_bins):
    """One coverage replicate's agreement curves (short, long), one whole-unit
    budget and design at a time. Each prefix of the values seen by the budget
    goes through np.histogram on n_bins equal bins between the 5e-4 and
    1 - 5e-4 quantiles of the (grid, cdf) table, becomes a density over the
    prefix's length, and is scored by a 1-D kl_divergence against the table's
    density on the same bins."""
    grid, cdf = table
    edges = np.linspace(np.interp(5e-4, cdf, grid), np.interp(1.0 - 5e-4, cdf, grid), n_bins + 1)
    width = edges[1] - edges[0]
    ref = np.diff(np.interp(edges, grid, cdf)) / width
    span = (points - 1) * dt
    n_short = int(np.floor(total_time / span))
    kl_s, kl_l = [], []
    for tau in range(1, int(total_time) + 1):
        prefixes = (short_values[: min(int(np.floor(tau / span)), n_short) * points],
                    long_values[: int(round(tau / dt)) + 1])
        for values, out in zip(prefixes, (kl_s, kl_l)):
            counts, _ = np.histogram(values, bins=edges)
            out.append(kl_divergence(counts / (values.size * width), ref, width))
    max_kl = max(max(kl_s), max(kl_l))
    return 1.0 - np.array(kl_s) / max_kl, 1.0 - np.array(kl_l) / max_kl
