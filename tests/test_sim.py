import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import ks_2samp

from landscaper import sim
from landscaper.errors import DegenerateDataError, PreconditionError, SimulationDiverged
from landscaper.experiments import coverage_experiment
from landscaper.numerics import density_from_drift_diffusion
from landscaper.sim import (
    CuspParams,
    SdeModel,
    cusp_model,
    custom_bimodal_unistable,
    estimate_timescale,
    euler_maruyama,
    generate_short_series,
    step_from_fraction,
)
from landscaper.tsdata import (
    TimeSeries,
    TimeSeriesCollection,
    characteristic_timescale,
    to_transitions,
)

from oracles import burned_in_states, sign_scan_roots


class TestCuspModel:
    def test_symmetric_roots(self):
        m = cusp_model(CuspParams(alpha=0, beta=1, lam=0, r=1, epsilon=1))
        for x in (0.0, 1.0, -1.0):
            assert m.drift(x) == pytest.approx(0.0, abs=1e-12)
        assert m.drift(0.5) == pytest.approx(0.375)
        assert m.label == 2
        assert m.tipping_points == (0.0,)

    def test_monotone_cubic_is_unistable(self):
        m = cusp_model(CuspParams(alpha=0, beta=-1, lam=0, r=1, epsilon=1))
        assert m.label == 1
        assert m.stable_points == (0.0,)
        assert m.tipping_points == ()

    def test_rejects_bad_params(self):
        with pytest.raises(PreconditionError):
            CuspParams(alpha=0, beta=1, lam=0, r=0.0, epsilon=1)
        with pytest.raises(PreconditionError):
            CuspParams(alpha=0, beta=1, lam=0, r=1, epsilon=-1)
        # np.roots of a non-finite cubic raises LinAlgError in cusp_model.
        for name in ("alpha", "beta", "lam", "r", "epsilon"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(PreconditionError, match="finite"):
                    CuspParams(**{name: value})

    def test_roots_match_sign_scan_oracle(self, rng):
        for _ in range(20):
            p = CuspParams(
                alpha=float(rng.uniform(-0.5, 0.5)),
                beta=float(rng.uniform(-1.5, 1.5)),
                lam=float(rng.uniform(-1.0, 1.0)),
                r=float(rng.uniform(0.2, 2.0)),
                epsilon=float(rng.uniform(0.2, 2.0)),
            )
            m = cusp_model(p)
            stable, tipping = sign_scan_roots(m.drift, p.lam - 6, p.lam + 6)
            np.testing.assert_allclose(m.stable_points, stable, atol=1e-6)
            np.testing.assert_allclose(m.tipping_points, tipping, atol=1e-6)


class TestCustomBimodalUnistable:
    def test_continuous_at_zero(self):
        m = custom_bimodal_unistable()
        assert m.drift(0.0) == pytest.approx(0.05)
        assert m.drift(-1e-12) == pytest.approx(0.05, abs=1e-10)
        assert m.drift(1e-12) == pytest.approx(0.05, abs=1e-10)

    def test_diffusion_peak(self):
        m = custom_bimodal_unistable()
        assert m.diffusion(0.3) == pytest.approx(0.844)
        xs = np.linspace(-3, 3, 2001)
        assert xs[np.argmax(m.diffusion(xs))] == pytest.approx(0.3, abs=0.01)

    def test_single_stable_root_at_sqrt_tenth(self):
        m = custom_bimodal_unistable()
        root = brentq(m.drift, 0.01, 2.0)
        assert root == pytest.approx(math.sqrt(0.1), abs=1e-9)
        assert m.stable_points[0] == pytest.approx(math.sqrt(0.1), abs=1e-6)
        assert m.label == 1
        # left branch strictly positive
        xs = np.linspace(-10, 0, 500)
        assert np.all(m.drift(xs) > 0)

    def test_diffusion_strictly_positive(self):
        m = custom_bimodal_unistable()
        xs = np.linspace(-5, 5, 1001)
        assert np.all(m.diffusion(xs) > 0)

    def test_starts_match_burned_in_walkers(self):
        # Inverse-transform starts against walkers that forgot x = 0.3 over
        # 10,000 Euler-Maruyama steps, which share no code with the table.
        m = custom_bimodal_unistable()
        ds = generate_short_series(m, 2000, 2, 0.01, seed=11)
        starts = np.array([s.values[0] for s in ds.collection.series])
        walkers = burned_in_states(m.drift, m.diffusion, 2000, seed=12)
        assert ks_2samp(starts, walkers).pvalue > 0.01

    def test_stationary_table_is_grid_converged(self):
        m = custom_bimodal_unistable()
        grid, cdf = m.stationary
        fine = np.linspace(grid[0], grid[-1], 10 * sim.QUADRATURE_POINTS)
        fine_grid, fine_cdf = sim._stationary_table(fine, m.drift(fine), m.diffusion(fine))
        us = np.linspace(0.001, 0.999, 999)
        np.testing.assert_allclose(np.interp(us, cdf, grid), np.interp(us, fine_cdf, fine_grid),
                                   rtol=0, atol=1e-3)

    def test_wide_range_density_is_refused(self):
        # On (-3, 3) the running integral of 2f/g reaches about 2.4e17 before
        # the mass starts, and the quadrature's quantiles move with the grid.
        m = custom_bimodal_unistable()
        grid = np.linspace(-3.0, 3.0, sim.QUADRATURE_POINTS)
        with pytest.raises(DegenerateDataError, match="2f/g"):
            density_from_drift_diffusion(grid, m.drift(grid), m.diffusion(grid))


class TestEulerMaruyama:
    def test_deterministic_euler(self):
        m = SdeModel(drift=lambda x: 0.5, diffusion=lambda x: 0.0, name="const")
        path = euler_maruyama(m, 1.0, 0.1, 10, seed=0)
        np.testing.assert_allclose(path, 1.0 + 0.5 * 0.1 * np.arange(11), rtol=1e-12)

    def test_pure_wiener_variance(self):
        m = SdeModel(drift=lambda x: 0.0, diffusion=lambda x: 1.0, name="wiener")
        dt = 0.05
        path = euler_maruyama(m, 0.0, dt, 100_000, seed=42)
        incr = np.diff(path)
        assert abs(incr.var() - dt) < 0.05 * dt

    def test_seed_determinism(self, bistable_cusp):
        a = euler_maruyama(bistable_cusp, 0.5, 0.01, 500, seed=9)
        b = euler_maruyama(bistable_cusp, 0.5, 0.01, 500, seed=9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kw, message", [
        ({"seed": -1}, "seed"), ({"n_steps": -1}, "n_steps"), ({"n_steps": 0}, "n_steps"),
        ({"n_steps": 2**63}, "n_steps"), ({"n_steps": math.nan}, "n_steps"),
        ({"dt": math.nan}, "dt"), ({"dt": math.inf}, "dt"), ({"dt": 0.0}, "dt"),
    ])
    def test_bad_arguments_are_precondition_errors(self, bistable_cusp, kw, message):
        args = {"x0": 0.0, "dt": 0.01, "n_steps": 10, "seed": 0, **kw}
        with pytest.raises(PreconditionError, match=message):
            euler_maruyama(bistable_cusp, **args)

    def test_divergence_reports_step(self):
        m = SdeModel(drift=lambda x: x * x, diffusion=lambda x: 0.0, name="blowup")
        with pytest.raises(SimulationDiverged) as err:
            euler_maruyama(m, 5.0, 1.0, 100, seed=0)
        assert err.value.step > 0

    def test_matches_batch_of_one(self):
        # State-dependent noise: the scalar loop must reproduce the vectorized
        # one bit for bit, divergence step included.
        m = custom_bimodal_unistable()
        path = euler_maruyama(m, 0.3, 0.01, 5000, seed=4)
        z = np.random.default_rng(4).standard_normal((1, 5000))
        np.testing.assert_array_equal(path, sim._simulate_batch(m, [0.3], 0.01, z)[0])

        blowup = SdeModel(drift=lambda x: x * x, diffusion=lambda x: 0.0 * x, name="blowup")
        with pytest.raises(SimulationDiverged) as scalar:
            euler_maruyama(blowup, 5.0, 1.0, 100, seed=0)
        with pytest.raises(SimulationDiverged) as batch:
            sim._simulate_batch(blowup, [5.0], 1.0, np.zeros((1, 100)))
        assert scalar.value.step == batch.value.step

    @pytest.mark.parametrize("model", ["cusp", "bimodal-unistable"])
    def test_batch_of_100_matches_scalar_runs(self, model, bistable_cusp):
        # Every walker of a 100-walker batch equals its own scalar run; for
        # the state-dependent noise this needs the same rounding of its
        # square on arrays and on scalars.
        m = bistable_cusp if model == "cusp" else custom_bimodal_unistable()
        x0 = np.linspace(-1.5, 2.0, 100)
        z = np.random.default_rng(1).standard_normal((100, 500))
        batch = sim._simulate_batch(m, x0, 0.01, z)
        for row, start, noise in zip(batch, x0, z):
            np.testing.assert_array_equal(row, sim._simulate_path(m, start, 0.01, noise))

    def test_long_run_histogram_matches_analytic_density(self, bistable_cusp):
        # Invariant: EM at dt=0.01 converges to the quadrature stationary density.
        path = euler_maruyama(bistable_cusp, -1.0, 0.01, 1_000_000, seed=7)
        grid, cdf = bistable_cusp.stationary
        edges = np.linspace(-2.5, 2.5, 61)
        width = edges[1] - edges[0]
        counts, _ = np.histogram(path, bins=edges)
        hist = counts / (path.size * width)
        ref = np.diff(np.interp(edges, grid, cdf)) / width
        mask = np.maximum(hist, ref) > 1e-12
        kl = float(np.sum(np.maximum(hist[mask], 1e-12)
                          * np.log(np.maximum(hist[mask], 1e-12) / np.maximum(ref[mask], 1e-12))
                          ) * width)
        assert kl < 0.05


class TestStationarySampling:
    @staticmethod
    def icdf(model, u):
        grid, cdf = model.stationary
        return np.interp(u, cdf, grid)

    def test_table_is_a_cdf_on_the_quadrature_grid(self):
        p = CuspParams(alpha=0.2, beta=2.0, lam=0.3, r=1, epsilon=0.5)
        grid, cdf = cusp_model(p).stationary
        half = 5.0 * math.sqrt(2.0)
        np.testing.assert_array_equal(
            grid, np.linspace(0.3 - half, 0.3 + half, sim.QUADRATURE_POINTS))
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0)

    def test_symmetric_median_is_zero(self):
        p = CuspParams(alpha=0, beta=1, lam=0, r=1, epsilon=0.5)
        assert self.icdf(cusp_model(p), 0.5) == pytest.approx(0.0, abs=5e-3)

    def test_monotone(self):
        p = CuspParams(alpha=0.2, beta=1, lam=0.3, r=1, epsilon=0.5)
        vals = self.icdf(cusp_model(p), np.linspace(0.01, 0.99, 99))
        assert np.all(np.diff(vals) >= 0)

    def test_draw_histogram_matches_quadrature(self):
        # Inverse-transform draws from the table against the cusp's analytic
        # unnormalized density exp((2 / eps)(u^2 / 2 - u^4 / 4)), integrated on
        # a grid of its own.
        p = CuspParams(alpha=0, beta=1, lam=0, r=1, epsilon=0.5)
        rng = np.random.default_rng(3)
        draws = self.icdf(cusp_model(p), rng.uniform(1e-12, 1 - 1e-12, 100_000))
        fine = np.linspace(-4.0, 4.0, 16_001)
        pdf = np.exp((2.0 / p.epsilon) * (fine**2 / 2 - fine**4 / 4))
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(fine))))
        cdf /= cdf[-1]
        edges = np.linspace(-2.5, 2.5, 81)
        width = edges[1] - edges[0]
        counts, _ = np.histogram(draws, bins=edges)
        hist = counts / (draws.size * width)
        ref = np.diff(np.interp(edges, fine, cdf)) / width
        kl = float(np.sum(np.maximum(hist, 1e-12)
                          * np.log(np.maximum(hist, 1e-12) / np.maximum(ref, 1e-12))) * width)
        assert kl < 0.01


class TestGenerateShortSeries:
    def test_two_point_series_count(self, bistable_cusp):
        ds = generate_short_series(bistable_cusp, 50, 2, 0.1, seed=0)
        assert len(ds.collection.series) == 50
        assert len(to_transitions(ds.collection)) == 50

    def test_native_step_no_subsampling(self, bistable_cusp):
        ds = generate_short_series(bistable_cusp, 3, 6, 0.01, seed=0)
        for s in ds.collection.series:
            np.testing.assert_allclose(np.diff(s.times), 0.01, rtol=1e-12)

    def test_seeded_repeat_identical(self, bistable_cusp):
        a = generate_short_series(bistable_cusp, 10, 3, 0.05, seed=21)
        b = generate_short_series(bistable_cusp, 10, 3, 0.05, seed=21)
        for sa, sb in zip(a.collection.series, b.collection.series):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_ground_truth_sidecar(self, bistable_cusp):
        ds = generate_short_series(bistable_cusp, 4, 2, 0.1, seed=1)
        gt = ds.ground_truth
        assert gt["model"] == "cusp"
        assert gt["label"] == 2
        assert gt["stable_points"] == [-1.0, 1.0]
        # The two ends of the model's stationary table.
        assert gt["state_range"] == [-5.0, 5.0]
        assert gt["dt_target"] == pytest.approx(0.1)

    def test_invalid_counts(self, bistable_cusp):
        with pytest.raises(PreconditionError):
            generate_short_series(bistable_cusp, 0, 2, 0.1, seed=0)
        with pytest.raises(PreconditionError):
            generate_short_series(bistable_cusp, 5, 1, 0.1, seed=0)

    @pytest.mark.parametrize("dt_target", [math.nan, math.inf, 0.0, -0.1])
    def test_sampling_step_must_be_finite_and_positive(self, bistable_cusp, dt_target):
        with pytest.raises(PreconditionError, match="dt_target"):
            generate_short_series(bistable_cusp, 5, 2, dt_target, seed=0)

    @pytest.mark.parametrize("points, dt_target", [(2, 1e20), (10**19, 0.01)])
    def test_step_count_no_array_holds_rejected(self, bistable_cusp, points, dt_target):
        # Refused before anything is allocated.
        with pytest.raises(PreconditionError, match="exceed any array"):
            generate_short_series(bistable_cusp, 1, points, dt_target, seed=0)

    def test_non_multiple_dt_rejected(self, bistable_cusp):
        with pytest.raises(PreconditionError):
            generate_short_series(bistable_cusp, 5, 2, 0.015, seed=0)
        with pytest.raises(PreconditionError):
            generate_short_series(bistable_cusp, 5, 2, 0.005, seed=0)

    def test_burn_in_start_for_custom_model(self):
        m = custom_bimodal_unistable()
        ds = generate_short_series(m, 20, 2, 0.05, seed=3)
        values = ds.collection.all_values()
        # stationary support of the custom model is roughly [-1, 1.2]
        assert values.min() > -2.0 and values.max() < 2.0

    def test_model_without_stationary_table_cannot_start(self):
        m = SdeModel(drift=lambda x: -x, diffusion=lambda x: 1.0, name="ou")
        with pytest.raises(PreconditionError, match="'ou' has no stationary table"):
            generate_short_series(m, 3, 2, 0.01, seed=0)
        with pytest.raises(PreconditionError, match="no stationary table"):
            estimate_timescale(m, seed=0, total_time=1.0)
        with pytest.raises(PreconditionError, match="'ou' has no stationary table"):
            coverage_experiment(m, total_time=2.0, replicates=1)


def batch_of_one_timescale(m, seed, total_time, internal_dt=0.01):
    """estimate_timescale's reference run on the vectorized integrator."""
    n_steps = int(round(total_time / internal_dt))
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    grid, cdf = m.stationary
    x0 = np.interp(sim._open_uniform(rng), cdf, grid)
    path = sim._simulate_batch(m, np.array([x0]), internal_dt,
                               rng.standard_normal((1, n_steps)))
    ts = TimeSeries("reference", np.arange(n_steps + 1) * internal_dt, path[0])
    return characteristic_timescale(TimeSeriesCollection((ts,)))


class TestEstimateTimescale:
    def test_cusp_matches_batch_of_one(self, bistable_cusp):
        for seed in (0, 5):
            expected = batch_of_one_timescale(bistable_cusp, seed, total_time=200.0)
            assert estimate_timescale(bistable_cusp, seed=seed, total_time=200.0) == expected

    def test_burn_in_model_matches_batch_of_one(self):
        # State-dependent noise, started from the model's stationary table.
        m = custom_bimodal_unistable()
        expected = batch_of_one_timescale(m, 3, total_time=50.0)
        assert estimate_timescale(m, seed=3, total_time=50.0) == expected

    @pytest.mark.parametrize("total_time", [math.nan, math.inf, -1.0, 0.001, 1e20])
    def test_run_length_outside_the_step_counts_is_refused(self, bistable_cusp, total_time):
        with pytest.raises(PreconditionError, match="total_time"):
            estimate_timescale(bistable_cusp, seed=0, total_time=total_time)


class TestStepFromFraction:
    def test_rounds_to_whole_internal_steps(self):
        assert step_from_fraction(0.1, 2.345) == 23 * sim.INTERNAL_DT

    @pytest.mark.parametrize("frac", [math.nan, math.inf, -0.1, 1e-9, 1e20])
    def test_step_outside_the_step_counts_is_refused(self, frac):
        with pytest.raises(PreconditionError, match="internal step 0.01"):
            step_from_fraction(frac, 10.0)
