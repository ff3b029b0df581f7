import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from landscaper.derived import (
    CurvePair,
    _crossings,
    classify_roots,
    effective_potential,
    exit_time,
    exit_time_band,
    multistability_posterior,
    potential,
    stationary_density,
    tipping_region,
)
from landscaper.errors import DegenerateDataError, PreconditionError
from landscaper.numerics import cumulative_trapezoid, nearest_rank
from landscaper.sim import CuspParams, cusp_model

from oracles import first_passage_times, per_draw_roots


@dataclass
class FakePosterior:
    """Minimal posterior-like object for per-draw operations."""

    grid: np.ndarray
    drift_draws: np.ndarray
    diffusion_draws: np.ndarray


def ou_pair(n=400, span=5.0):
    grid = np.linspace(-span, span, n)
    return CurvePair(grid, -grid, np.ones_like(grid))


class TestStationaryDensity:
    def test_ou_matches_gaussian(self):
        cp = ou_pair()
        sd = stationary_density(cp)
        truth = np.exp(-cp.grid**2)
        truth /= np.trapezoid(truth, cp.grid)
        assert np.abs(sd.density - truth).max() < 1e-3

    def test_zero_drift_uniform(self):
        grid = np.linspace(0, 1, 101)
        sd = stationary_density(CurvePair(grid, np.zeros_like(grid), np.ones_like(grid)))
        np.testing.assert_allclose(sd.density, 1.0, atol=1e-9)

    def test_symmetric_cusp_density_symmetric(self):
        grid = np.linspace(-4, 4, 801)
        f = grid - grid**3
        sd = stationary_density(CurvePair(grid, f, np.full_like(grid, 1.0)))
        np.testing.assert_allclose(sd.density, sd.density[::-1], atol=1e-9)

    def test_matches_simulation_quadrature(self):
        # same cumulative-trapezoid scheme on the same grid as the simulator's
        # stationary table, to 1e-9
        p = CuspParams(alpha=0.1, beta=1.2, lam=-0.2, r=0.8, epsilon=0.6)
        grid, cdf_sim = cusp_model(p).stationary
        f = p.r * (p.alpha + p.beta * (grid - p.lam) - (grid - p.lam) ** 3)
        sd = stationary_density(CurvePair(grid, f, np.full_like(grid, p.epsilon)))
        cdf = cumulative_trapezoid(sd.density, grid)
        np.testing.assert_allclose(cdf / cdf[-1], cdf_sim, atol=1e-9)

    def test_normalization_within_tolerance(self):
        sd = stationary_density(ou_pair())
        assert abs(np.trapezoid(sd.density, sd.grid) - 1.0) < 1e-6


class TestPotentials:
    def test_effective_potential_uniform(self):
        grid = np.linspace(0, 1, 51)
        sd = stationary_density(CurvePair(grid, np.zeros_like(grid), np.ones_like(grid)))
        u = effective_potential(sd)
        np.testing.assert_allclose(u, u[0], atol=1e-9)

    def test_effective_potential_gaussian_quadratic(self):
        cp = ou_pair()
        u = effective_potential(stationary_density(cp))
        second = np.diff(u, 2)
        assert np.abs(second - second.mean()).max() < 1e-6

    def test_density_modes_are_potential_minima(self):
        grid = np.linspace(-3, 3, 601)
        f = grid - grid**3
        sd = stationary_density(CurvePair(grid, f, np.full_like(grid, 0.5)))
        u = effective_potential(sd)
        assert np.argmax(sd.density) == np.argmin(u)

    def test_potential_zero_drift(self):
        grid = np.linspace(0, 2, 101)
        np.testing.assert_array_equal(
            potential(CurvePair(grid, np.zeros_like(grid), np.ones_like(grid))), 0.0)

    def test_potential_linear_drift(self):
        cp = ou_pair()
        u = potential(cp)
        truth = cp.grid**2 / 2
        np.testing.assert_allclose(u - u[0], truth - truth[0], atol=1e-10)

    def test_potential_cusp_quartic(self):
        p = CuspParams(alpha=0.3, beta=1.1, lam=0.2, r=0.9, epsilon=1.0)
        grid = np.linspace(p.lam - 2.5, p.lam + 2.5, 400)
        u_grid = grid - p.lam
        f = p.r * (p.alpha + p.beta * u_grid - u_grid**3)
        u = potential(CurvePair(grid, f, np.ones_like(grid)))
        truth = p.r * (u_grid**4 / 4 - p.beta * u_grid**2 / 2 - p.alpha * u_grid)
        np.testing.assert_allclose(u - u[0], truth - truth[0], atol=1e-3)

    def test_eq7_eq9_consistency_for_constant_g(self):
        # -log pi = (2/g) U + log g + const when g is constant
        g0 = 0.7
        grid = np.linspace(-3, 3, 501)
        f = 0.5 * grid - grid**3
        cp = CurvePair(grid, f, np.full_like(grid, g0))
        u_eff = effective_potential(stationary_density(cp))
        u = potential(cp)
        combo = u_eff - (2.0 / g0) * u - math.log(g0)
        np.testing.assert_allclose(combo, combo[0], atol=1e-6)


class TestClassifyRoots:
    def test_bistable_cubic(self):
        grid = np.linspace(-2, 2, 401)
        st = classify_roots(CurvePair(grid, grid - grid**3, np.ones_like(grid)))
        assert st.valid
        np.testing.assert_allclose(st.stable_points, [-1.0, 1.0], atol=1e-3)
        np.testing.assert_allclose(st.tipping_points, [0.0], atol=1e-9)

    def test_linear_decay_single_stable(self):
        cp = ou_pair(n=101)
        st = classify_roots(cp)
        assert st.valid and st.tipping_points == ()
        assert st.stable_points[0] == pytest.approx(0.0, abs=1e-9)

    def test_sine_alternating_roots(self):
        grid = np.linspace(0.1, 4 * math.pi - 0.1, 2001)
        st = classify_roots(CurvePair(grid, np.sin(grid), np.ones_like(grid)))
        # downward crossings at pi and 3pi, upward at 2pi: alternation holds
        np.testing.assert_allclose(st.stable_points, [math.pi, 3 * math.pi], atol=1e-4)
        np.testing.assert_allclose(st.tipping_points, [2 * math.pi], atol=1e-4)
        assert st.valid

    def test_equal_counts_are_invalid(self):
        grid = np.linspace(0.1, 3 * math.pi - 0.1, 2001)
        st = classify_roots(CurvePair(grid, np.sin(grid), np.ones_like(grid)))
        # one downward (pi) and one upward (2pi) crossing: equal counts
        assert len(st.stable_points) == 1 and len(st.tipping_points) == 1
        assert not st.valid

    def test_tangency_is_not_a_root(self):
        grid = np.linspace(-1, 1, 201)
        f = grid**2  # touches zero at 0 without sign change
        st = classify_roots(CurvePair(grid, f, np.ones_like(grid)))
        assert st.stable_points == () and st.tipping_points == ()

    def test_matches_discrete_extrema_of_potential(self, rng):
        # drift = -dU/dx for random smooth potentials; roots of the drift are
        # the discrete extrema of U found by a scan
        for _ in range(50):
            coeffs = rng.normal(0, 1, 5)
            grid = np.linspace(-2, 2, 801)
            u_curve = sum(c * np.cos((k + 1) * grid + rng.uniform(0, 2 * np.pi))
                          for k, c in enumerate(coeffs))
            du = np.gradient(u_curve, grid)
            st = classify_roots(CurvePair(grid, -du, np.ones_like(grid)))
            interior = slice(2, -2)
            minima = 1 + np.flatnonzero(
                (u_curve[1:-1] < u_curve[:-2]) & (u_curve[1:-1] < u_curve[2:]))
            maxima = 1 + np.flatnonzero(
                (u_curve[1:-1] > u_curve[:-2]) & (u_curve[1:-1] > u_curve[2:]))
            assert len(st.stable_points) == len(minima)
            assert len(st.tipping_points) == len(maxima)
            if len(minima):
                np.testing.assert_allclose(
                    st.stable_points, grid[minima], atol=2 * (grid[1] - grid[0]))


def curves_posterior(grid, drifts, diffusions):
    return FakePosterior(grid=grid, drift_draws=np.asarray(drifts),
                         diffusion_draws=np.asarray(diffusions))


class TestMultistability:
    def test_all_unistable(self):
        grid = np.linspace(-2, 2, 101)
        drifts = [-grid for _ in range(10)]
        diffs = [np.ones_like(grid) for _ in range(10)]
        ms = multistability_posterior(curves_posterior(grid, drifts, diffs))
        assert ms.probabilities == {1: 1.0}
        assert ms.discarded_fraction == 0.0
        assert ms.mode == 1

    def test_sixty_forty_split_after_exclusion(self):
        grid = np.linspace(-2, 2, 401)
        uni = -grid
        bi = grid - grid**3
        invalid = np.sin(2.5 * np.pi * (grid + 2) / 4)  # equal up/down crossings
        drifts = [uni] * 6 + [bi] * 4 + [invalid] * 3
        diffs = [np.ones_like(grid)] * 13
        ms = multistability_posterior(curves_posterior(grid, drifts, diffs))
        assert ms.probabilities[1] == pytest.approx(0.6)
        assert ms.probabilities[2] == pytest.approx(0.4)
        assert ms.discarded_fraction == pytest.approx(3 / 13)
        assert sum(ms.probabilities.values()) == pytest.approx(1.0)

    def test_all_invalid_is_error(self):
        # constant positive drift has no roots at all: zero stable states
        grid = np.linspace(-2, 2, 101)
        drifts = [np.ones_like(grid)] * 5
        diffs = [np.ones_like(grid)] * 5
        with pytest.raises(DegenerateDataError):
            multistability_posterior(curves_posterior(grid, drifts, diffs))


class TestTippingRegion:
    def test_degenerate_point_mass(self):
        grid = np.linspace(-2, 2, 401)
        drifts = [grid - grid**3] * 25
        diffs = [np.ones_like(grid)] * 25
        tr = tipping_region(curves_posterior(grid, drifts, diffs))
        assert tr.mean == pytest.approx(0.0, abs=1e-9)
        assert tr.interval95 == (pytest.approx(0.0, abs=1e-9), pytest.approx(0.0, abs=1e-9))

    def test_uniform_tipping_quantiles(self):
        grid = np.linspace(-2, 2, 801)
        shifts = np.linspace(-0.1, 0.1, 1001)
        drifts = [(grid - s) - (grid - s) ** 3 for s in shifts]
        diffs = [np.ones_like(grid)] * len(shifts)
        tr = tipping_region(curves_posterior(grid, drifts, diffs))
        assert tr.mean == pytest.approx(0.0, abs=1e-3)
        assert tr.interval95[0] == pytest.approx(-0.095, abs=2e-3)
        assert tr.interval95[1] == pytest.approx(0.095, abs=2e-3)
        assert tr.interval50[0] == pytest.approx(-0.05, abs=2e-3)

    def test_requires_twenty_bistable_draws(self):
        grid = np.linspace(-2, 2, 101)
        drifts = [grid - grid**3] * 10 + [-grid] * 30
        diffs = [np.ones_like(grid)] * 40
        with pytest.raises(PreconditionError, match="20"):
            tipping_region(curves_posterior(grid, drifts, diffs))


def root_stack(rng):
    """A draw stack of drift rows on one grid that stress the sign-change rule."""
    grid = np.linspace(-2, 2, 101)
    smooth = [sum(c * np.cos((k + 1) * grid + rng.uniform(0, 2 * np.pi))
                  for k, c in enumerate(rng.normal(0, 1, 4))) for _ in range(15)]
    bistable = [rng.uniform(0.5, 2.0) * ((grid - s) - (grid - s) ** 3)
                for s in rng.uniform(-0.3, 0.3, 25)]
    zero_run = -grid.copy()
    zero_run[45:56] = 0.0  # the sign changes across a run of zeros
    zero_ends = -grid.copy()
    zero_ends[[0, -1]] = 0.0
    tangency = (grid - grid[50]) ** 2
    with_nan = grid - grid**3
    with_nan[62] = np.nan  # inside a positive stretch: two extra sign changes
    # The two `grid` rows meet with row i ending > 0 and row i + 1 starting < 0.
    rows = smooth + bistable + [zero_run, zero_ends, tangency, np.zeros_like(grid),
                                with_nan, grid, grid]
    return grid, np.array(rows)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestArrayPass:
    """The one array pass over a draw stack against the per-draw loop."""

    def test_crossings_match_the_per_draw_loop_bit_for_bit(self, rng):
        grid, drifts = root_stack(rng)
        rows, loc, down = _crossings(grid, drifts)
        reference = per_draw_roots(grid, drifts)
        assert reference[-1] == reference[-2] == ([], [pytest.approx(0.0)])
        assert np.isnan(loc).sum() == 2  # the NaN row's two extra sign changes
        for r, (stable, tipping) in enumerate(reference):
            assert bits(loc[(rows == r) & down]) == bits(stable), r
            assert bits(loc[(rows == r) & ~down]) == bits(tipping), r
            st = classify_roots(CurvePair(grid, drifts[r], np.ones_like(grid)))
            assert bits(st.stable_points) == bits(stable)
            assert bits(st.tipping_points) == bits(tipping)
            assert st.valid == (len(stable) == len(tipping) + 1)

    def test_posterior_summaries_match_the_per_draw_loop(self, rng):
        grid, drifts = root_stack(rng)
        post = curves_posterior(grid, drifts, np.ones_like(drifts))
        valid = [(s, t) for s, t in per_draw_roots(grid, drifts) if len(s) == len(t) + 1]
        counts = Counter(len(s) for s, _ in valid)
        ms = multistability_posterior(post)
        assert list(ms.probabilities.items()) == [
            (k, counts[k] / len(valid)) for k in sorted(counts)]
        assert ms.discarded_fraction == 1.0 - len(valid) / len(drifts)
        locs = np.array([t[0] for _, t in valid if len(t) == 1])
        q = np.quantile(locs, [0.025, 0.25, 0.75, 0.975])
        tr = tipping_region(post)
        assert tr.n_used == len(locs) >= 20
        assert (tr.mean, tr.interval50, tr.interval95) == (locs.mean(), (q[1], q[2]), (q[0], q[3]))


def cusp_curve(eps=0.5, n=201, span=2.5):
    grid = np.linspace(-span, span, n)
    return CurvePair(grid, grid - grid**3, np.full_like(grid, eps))


class TestExitTime:
    def test_zero_at_tipping_and_nonnegative(self):
        sol = exit_time(cusp_curve(), 0.0)
        k = sol.tipping_index
        assert sol.times[k] == 0.0
        assert np.all(sol.times >= 0.0)
        # increasing away from the tipping point toward each basin interior
        left = sol.times[:k]
        right = sol.times[k + 1 :]
        assert np.all(np.diff(left[: np.argmax(left) + 1]) <= 1e-9)
        mid_right = right[: np.argmax(right) + 1]
        assert np.all(np.diff(mid_right) >= -1e-9)

    def test_time_rescaling(self):
        cp = cusp_curve()
        base = exit_time(cp, 0.0)
        scaled = exit_time(CurvePair(cp.grid, 3.0 * cp.drift, 3.0 * cp.diffusion), 0.0)
        np.testing.assert_allclose(scaled.times, base.times / 3.0, rtol=1e-12, atol=1e-12)

    def test_finite_difference_residual(self):
        cp = cusp_curve()
        sol = exit_time(cp, 0.0)
        grid, f, g, T = cp.grid, cp.drift, cp.diffusion, sol.times
        h = grid[1] - grid[0]
        k = sol.tipping_index
        residuals = []
        for i in range(1, len(grid) - 1):
            if abs(i - k) <= 1:
                continue  # rows adjacent to the Dirichlet node use T=0 there
            lhs = f[i] * (T[i + 1] - T[i - 1]) / (2 * h) \
                + g[i] / 2 * (T[i + 1] - 2 * T[i] + T[i - 1]) / h**2
            residuals.append(lhs + 1.0)
        assert np.abs(residuals).max() <= 1e-8

    def test_equals_solve_banded(self, rng):
        # scipy's banded solver on the same system in its band storage:
        # ab[0, j + 1], ab[1, j] and ab[2, j - 1] are row j's super-, main
        # and sub-diagonal entries.
        from scipy.linalg import solve_banded

        grid = np.linspace(-2.5, 2.5, 201)
        h = grid[1] - grid[0]
        for _ in range(8):
            a, b, c = rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(-1.0, 1.0)
            f = a * (grid - grid**3) + b
            g = rng.uniform(0.2, 1.0) * np.exp(0.3 * np.sin(c * grid))
            tipping = rng.uniform(-0.2, 0.2)
            sol = exit_time(CurvePair(grid, f, g), tipping)
            k = sol.tipping_index
            adv, dif = f[1:-1] / (2 * h), g[1:-1] / (2 * h * h)
            ab = np.zeros((3, grid.size))
            ab[0, 2:], ab[1, 1:-1], ab[2, :-2] = dif + adv, -2 * dif, dif - adv
            ab[0, 1], ab[1, 0], ab[1, -1], ab[2, -2] = 1.0, -1.0, 1.0, -1.0
            ab[:, k] = 0.0
            ab[1, k], ab[0, k + 1], ab[2, k - 1] = 1.0, 0.0, 0.0
            rhs = np.full(grid.size, -1.0)
            rhs[[0, k, -1]] = 0.0
            expected = np.maximum(solve_banded((1, 1), ab, rhs), 0.0)
            np.testing.assert_array_equal(sol.times, expected)

    def test_singular_system_is_degenerate(self):
        # g / (2 h^2) underflows to zero, so the rows at x = +-50, where the
        # drift vanishes too, are all zeros.
        grid = np.linspace(-100.0, 100.0, 21)
        cp = CurvePair(grid, grid * (1 - grid**2 / 2500), np.full_like(grid, 5e-324))
        with pytest.raises(DegenerateDataError, match="singular exit-time system"):
            exit_time(cp, 0.0)

    def test_interior_rows_next_to_tipping_satisfy_stencil_with_zero(self):
        cp = cusp_curve()
        sol = exit_time(cp, 0.0)
        grid, f, g = cp.grid, cp.drift, cp.diffusion
        T = sol.times.copy()
        k = sol.tipping_index
        h = grid[1] - grid[0]
        for i in (k - 1, k + 1):
            lhs = f[i] * (T[i + 1] - T[i - 1]) / (2 * h) \
                + g[i] / 2 * (T[i + 1] - 2 * T[i] + T[i - 1]) / h**2
            assert lhs + 1.0 == pytest.approx(0.0, abs=1e-8)

    def test_matches_monte_carlo_first_passage(self):
        g = 0.5
        grid = np.linspace(-2.0, 2.0, 801)
        sol = exit_time(CurvePair(grid, grid - grid**3, np.full_like(grid, g)), 0.0)
        k = sol.tipping_index
        slope = (sol.times[k + 1] - sol.times[k]) / (grid[1] - grid[0])
        dt = 0.002
        # Euler walkers are checked for a crossing only at step ends, so they
        # miss some excursions past the barrier and exit late: in effect the
        # barrier sits 0.5826 sqrt(g dt) further out (Broadie, Glasserman and
        # Kou 1997), which adds about slope * shift to the mean time. The Monte
        # Carlo mean may therefore exceed the BVP value by that bias, plus
        # four standard errors either way.
        bias = slope * 0.5826 * math.sqrt(g * dt)
        for x0 in (-1.0, 1.0):
            t = first_passage_times(lambda x: x - x**3, lambda x: np.full_like(x, g),
                                    x0, 0.0, dt, 4000, seed=5)
            se = t.std(ddof=1) / math.sqrt(t.size)
            expected = sol.times[int(np.argmin(np.abs(grid - x0)))]
            assert expected - 4 * se <= t.mean() <= expected + bias + 4 * se

    def test_tipping_outside_grid_rejected(self):
        with pytest.raises(PreconditionError):
            exit_time(cusp_curve(), 5.0)

    @pytest.mark.parametrize("node", [1, -2])
    def test_tipping_one_node_from_an_end_rejected(self, node):
        cp = cusp_curve()
        with pytest.raises(PreconditionError, match="too few grid nodes"):
            exit_time(cp, float(cp.grid[node]))

    def test_nonuniform_grid_rejected(self):
        grid = np.concatenate([np.linspace(-2, 0, 100), np.linspace(0.1, 2, 50)])
        cp = CurvePair(grid, grid - grid**3, np.ones_like(grid))
        with pytest.raises(PreconditionError, match="uniform"):
            exit_time(cp, 0.0)


class TestExitTimeBand:
    def band_inputs(self, scales):
        grid = np.linspace(-2.5, 2.5, 201)
        f = grid - grid**3
        g = np.full_like(grid, 0.5)
        drifts = [k * f for k in scales]
        diffs = [k * g for k in scales]
        return curves_posterior(grid, drifts, diffs)

    def test_identical_draws_collapse(self):
        post = self.band_inputs([1.0] * 12)
        band = exit_time_band(post)
        np.testing.assert_allclose(band.lower40, band.mean, rtol=1e-12)
        np.testing.assert_allclose(band.lower60, band.mean, rtol=1e-12)
        assert band.retained == 12

    def test_nearest_rank_bounds(self):
        # scaling by 1/k multiplies exit times by k, so pointwise values are
        # base * {1..10}; the lower-40 and lower-60 bands are the 4th and 6th
        post = self.band_inputs([1.0 / k for k in range(1, 11)])
        band = exit_time_band(post)
        base = exit_time(CurvePair(post.grid, post.grid - post.grid**3,
                                   np.full_like(post.grid, 0.5)), 0.0).times
        interior = base > 1e-9
        np.testing.assert_allclose(band.lower40[interior], 4 * base[interior], rtol=1e-9)
        np.testing.assert_allclose(band.lower60[interior], 6 * base[interior], rtol=1e-9)
        np.testing.assert_allclose(band.mean[interior], 5.5 * base[interior], rtol=1e-9)
        # note: for these uniformly spread draws the 60% bound (6T) exceeds the
        # mean (5.5T); only lower40 <= lower60 holds unconditionally
        assert np.all(band.lower40 <= band.lower60 + 1e-12)

    def test_nearest_rank_helper_examples(self):
        values = np.arange(1, 11)
        assert values[nearest_rank(len(values), 0.4)] == 4
        assert values[nearest_rank(len(values), 0.6)] == 6

    def test_non_bistable_mean_rejected(self):
        grid = np.linspace(-2, 2, 101)
        drifts = [-grid] * 15
        diffs = [np.ones_like(grid)] * 15
        with pytest.raises(DegenerateDataError, match="bistable"):
            exit_time_band(curves_posterior(grid, drifts, diffs))

    def test_requires_retained_draws(self):
        grid = np.linspace(-2.5, 2.5, 201)
        f = grid - grid**3
        # only 3 draws share the mean's tipping point; the rest sit far away
        drifts = [f] * 3 + [(grid - 0.8) - (grid - 0.8) ** 3] * 2
        diffs = [np.full_like(grid, 0.5)] * 5
        with pytest.raises(DegenerateDataError, match="share"):
            exit_time_band(curves_posterior(grid, drifts, diffs))


class TestCurvePairValidation:
    def test_rejects_nonpositive_diffusion(self):
        grid = np.linspace(0, 1, 10)
        with pytest.raises(PreconditionError):
            CurvePair(grid, np.zeros(10), np.zeros(10))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(PreconditionError):
            CurvePair(np.linspace(0, 1, 10), np.zeros(9), np.ones(10))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(PreconditionError):
            CurvePair(np.array([0.0, 2.0, 1.0]), np.zeros(3), np.ones(3))
