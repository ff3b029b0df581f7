import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from landscaper import experiments, sim
from landscaper.errors import PreconditionError
from landscaper.experiments import coverage_experiment, kl_divergence, tpr_grid
from landscaper.inference import FitConfig
from landscaper.sim import CuspParams, cusp_model, custom_bimodal_unistable

from oracles import per_budget_coverage


class TestKlDivergence:
    def test_identical_densities(self):
        p = np.array([0.2, 0.5, 0.3])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        val = kl_divergence([0.5, 0.5], [0.9, 0.1])
        expected = 0.5 * math.log(5 / 9) + 0.5 * math.log(5)
        assert val == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.5108, abs=1e-4)

    def test_nonnegative_on_random_densities(self, rng):
        for _ in range(50):
            p = rng.uniform(0, 1, 20)
            q = rng.uniform(0, 1, 20)
            p /= p.sum()
            q /= q.sum()
            assert kl_divergence(p, q) >= -1e-12

    def test_grid_mismatch(self):
        with pytest.raises(PreconditionError):
            kl_divergence([0.5, 0.5], [1.0])
        with pytest.raises(PreconditionError):
            kl_divergence(np.full((3, 2), 0.5), [1.0])

    def test_stack_equals_row_by_row_calls(self, rng):
        p = rng.uniform(0, 1, (40, 50))
        p[rng.uniform(size=p.shape) < 0.2] = 0.0
        q = rng.uniform(0, 1, 50)
        rows = [kl_divergence(row, q, 0.07) for row in p]
        assert all(type(val) is np.float64 for val in rows)
        np.testing.assert_array_equal(kl_divergence(p, q, 0.07), rows)


@pytest.fixture(scope="module")
def small_coverage(bistable_cusp):
    return coverage_experiment(bistable_cusp, total_time=60.0, replicates=4, seed=5)


class TestCoverageExperiment:
    def test_shapes_and_ranges(self, small_coverage):
        res = small_coverage
        assert res.budgets.shape == res.agreement_short.shape == res.agreement_long.shape
        assert res.per_replicate_short.shape == (4, len(res.budgets))
        for arr in (res.agreement_short, res.agreement_long,
                    res.per_replicate_short, res.per_replicate_long):
            assert np.all(arr >= -1e-12) and np.all(arr <= 1.0 + 1e-12)

    def test_replicate_reproducibility(self, bistable_cusp):
        a = coverage_experiment(bistable_cusp, total_time=20.0, replicates=1, seed=9)
        b = coverage_experiment(bistable_cusp, total_time=20.0, replicates=1, seed=9)
        np.testing.assert_array_equal(a.agreement_short, b.agreement_short)
        np.testing.assert_array_equal(a.agreement_long, b.agreement_long)

    def test_short_series_win_at_final_budget(self, small_coverage):
        assert small_coverage.agreement_short[-1] >= small_coverage.agreement_long[-1]

    def test_agreement_grows_with_budget(self, small_coverage):
        rho = spearmanr(small_coverage.budgets, small_coverage.agreement_short).statistic
        assert rho > 0.9

    def test_bimodal_unistable_reaches_its_stationary_density(self):
        # Both designs start from the model's stationary table and are scored
        # against the same density, so both end close to it.
        res = coverage_experiment(custom_bimodal_unistable(), total_time=100,
                                  replicates=3, seed=3)
        assert res.agreement_short[-1] >= 0.9
        assert res.agreement_long[-1] >= 0.9

    def test_scores_against_the_models_table_and_reference_path(self, bistable_cusp,
                                                                 monkeypatch):
        # The reference histogram is read from whatever table the model
        # carries, here that of a cusp shifted by 0.25, and the long series
        # is the model's reference path from the replicate's long seed.
        grid, cdf = cusp_model(CuspParams(lam=0.25, epsilon=0.5)).stationary
        model = replace(bistable_cusp, stationary=(grid, cdf))
        scored = []
        prefix_kl = experiments._prefix_kl
        monkeypatch.setattr(experiments, "_prefix_kl",
                            lambda *a: scored.append(a) or prefix_kl(*a))
        coverage_experiment(model, total_time=2.0, replicates=1, seed=4)
        values, _, edges, ref = scored[-1]
        assert edges[0] == np.interp(5e-4, cdf, grid)
        assert edges[-1] == np.interp(1.0 - 5e-4, cdf, grid)
        width = edges[1] - edges[0]
        np.testing.assert_array_equal(ref, np.diff(np.interp(edges, grid, cdf)) / width)
        long_seed = np.random.SeedSequence(4).spawn(1)[0].spawn(2)[1]
        np.testing.assert_array_equal(values, sim._reference_path(model, long_seed, 2.0))

    @pytest.mark.parametrize("name, total_time", [("cusp", 20), ("cusp", 7.5),
                                                  ("bimodal-unistable", 12.3)])
    def test_equals_the_per_budget_oracle(self, bistable_cusp, name, total_time):
        model = bistable_cusp if name == "cusp" else custom_bimodal_unistable()
        res = coverage_experiment(model, total_time=total_time, replicates=2, seed=8)
        points = experiments.COVERAGE_POINTS_PER_SERIES
        n_short = int(np.floor(total_time / ((points - 1) * sim.INTERNAL_DT)))
        grid, cdf = model.stationary
        lo, hi = np.interp([5e-4, 1.0 - 5e-4], cdf, grid)
        outside = 0
        for i, child in enumerate(np.random.SeedSequence(8).spawn(2)):
            short_seed, long_seed = child.spawn(2)
            ds = sim.generate_short_series(model, n_short, points, sim.INTERNAL_DT, short_seed)
            short_values = np.concatenate([s.values for s in ds.collection.series])
            long_values = sim._reference_path(model, long_seed, total_time)
            short, long = per_budget_coverage(
                model.stationary, short_values, long_values, total_time, points,
                sim.INTERNAL_DT, experiments.COVERAGE_BINS)
            np.testing.assert_array_equal(res.per_replicate_short[i], short)
            np.testing.assert_array_equal(res.per_replicate_long[i], long)
            values = np.concatenate([short_values, long_values])
            outside += np.count_nonzero((values < lo) | (values > hi))
        if total_time == 20:
            # The histograms drop values outside the edges, and here some are.
            assert outside > 0

    def test_replicates_validated(self, bistable_cusp):
        with pytest.raises(PreconditionError):
            coverage_experiment(bistable_cusp, replicates=0)

    def test_worker_count_does_not_change_the_bits(self, bistable_cusp, set_cpus):
        runs = []
        for cpus in (1, 2, 4):
            set_cpus(cpus)
            runs.append(coverage_experiment(bistable_cusp, total_time=20.0, replicates=3, seed=6))
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].per_replicate_short, other.per_replicate_short)
            np.testing.assert_array_equal(runs[0].per_replicate_long, other.per_replicate_long)

    @pytest.mark.parametrize("kw", [{"total_time": 0.5}, {"total_time": math.nan},
                                    {"total_time": math.inf}, {"total_time": 1e19}])
    def test_ranges_validated(self, bistable_cusp, kw):
        with pytest.raises(PreconditionError, match=next(iter(kw))):
            coverage_experiment(bistable_cusp, replicates=1, **kw)


class TestTprGrid:
    def test_zero_replicates_rejected(self, bistable_cusp):
        with pytest.raises(PreconditionError):
            tpr_grid(bistable_cusp, [10], [0.1], replicates=0)

    def test_unlabeled_model_rejected(self, bistable_cusp):
        from dataclasses import replace
        unlabeled = replace(bistable_cusp, label=None)
        with pytest.raises(PreconditionError):
            tpr_grid(unlabeled, [10], [0.1], replicates=1)

    def test_negative_seed_rejected(self, bistable_cusp):
        with pytest.raises(PreconditionError, match="seed"):
            tpr_grid(bistable_cusp, [10], [0.1], replicates=1, seed=-1)

    @pytest.mark.parametrize("counts", [[0], [10, -2]])
    def test_series_count_below_one_rejected(self, bistable_cusp, counts):
        # Refused as a config error, not scored as failed replicates.
        with pytest.raises(PreconditionError, match="series_counts"):
            tpr_grid(bistable_cusp, counts, [0.1], replicates=1)

    @pytest.mark.parametrize("counts, fracs, name", [([], [0.1], "series_counts"),
                                                     ([10], [], "timesteps")])
    def test_empty_grid_rejected(self, bistable_cusp, counts, fracs, name):
        # A grid without cells is a config error, not an empty table.
        with pytest.raises(PreconditionError, match=name):
            tpr_grid(bistable_cusp, counts, fracs, replicates=1)

    def test_too_small_timestep_rejected(self, bistable_cusp):
        with pytest.raises(PreconditionError, match="internal step"):
            tpr_grid(bistable_cusp, [10], [1e-6], replicates=1)

    @pytest.mark.parametrize("frac", [0.0, -0.1, math.nan, math.inf])
    def test_timestep_not_finite_and_positive_rejected(self, bistable_cusp, frac):
        with pytest.raises(PreconditionError, match="finite and positive"):
            tpr_grid(bistable_cusp, [10], [0.1, frac], replicates=1)

    def test_small_grid_runs(self, bistable_cusp):
        cfg = FitConfig(n_chains=2, n_iterations=200, max_leapfrog=16)
        grid = tpr_grid(bistable_cusp, [12, 16], [0.1, 0.05], replicates=1,
                        cfg=cfg, seed=3)
        assert grid.tpr.shape == (2, 2)
        assert np.all((grid.tpr >= 0) & (grid.tpr <= 1))
        assert grid.t_c > 0
        assert grid.failures.shape == (2, 2)

    def test_deterministic_given_seed(self, bistable_cusp):
        cfg = FitConfig(n_chains=2, n_iterations=150, max_leapfrog=8)
        a = tpr_grid(bistable_cusp, [12], [0.1], replicates=1, cfg=cfg, seed=19)
        b = tpr_grid(bistable_cusp, [12], [0.1], replicates=1, cfg=cfg, seed=19)
        np.testing.assert_array_equal(a.tpr, b.tpr)

    def test_worker_count_does_not_change_the_bits(self, bistable_cusp, set_cpus):
        # Seed 3 gives a grid whose TPR is neither all 0 nor all 1.
        cfg = FitConfig(n_chains=2, n_iterations=150, max_leapfrog=8, n_anchors=12)
        runs = []
        for cpus in (1, 2, 4):
            set_cpus(cpus)
            runs.append(tpr_grid(bistable_cusp, [12, 30], [0.1], replicates=3, cfg=cfg, seed=3))
        assert np.any(runs[0].tpr > 0) and np.any(runs[0].tpr < 1)
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].tpr, other.tpr)
            np.testing.assert_array_equal(runs[0].failures, other.failures)

    def test_nonconverged_counts_the_fits_that_ran_but_did_not_converge(
            self, bistable_cusp, monkeypatch, set_cpus):
        # On one CPU the replicates run here in job order, cell by cell; every
        # second fit is marked converged.
        set_cpus(1)
        fit, marked = experiments.fit, []

        def marks_converged(*args, **kwargs):
            post = fit(*args, **kwargs)
            object.__setattr__(post, "converged", len(marked) % 2 == 0)
            marked.append(post.converged)
            return post

        monkeypatch.setattr(experiments, "fit", marks_converged)
        cfg = FitConfig(n_chains=2, n_iterations=100, max_leapfrog=8, n_anchors=12)
        grid = tpr_grid(bistable_cusp, [12, 30], [0.1], replicates=3, cfg=cfg, seed=3)
        assert marked == [True, False] * 3 and grid.failures.sum() == 0
        np.testing.assert_array_equal(grid.nonconverged, [[1], [2]])

    def test_replicate_warning_from_a_child_reaches_the_caller(self, bistable_cusp,
                                                               monkeypatch, set_cpus):
        here = os.getpid()
        fit = experiments.fit

        def warns_in_child(*args, **kwargs):
            if os.getpid() != here:
                warnings.warn("replicate fit in a forked process", UserWarning)
            return fit(*args, **kwargs)

        monkeypatch.setattr(experiments, "fit", warns_in_child)
        cfg = FitConfig(n_chains=2, n_iterations=100, max_leapfrog=8, n_anchors=12)
        set_cpus(2)
        with pytest.warns(UserWarning, match="replicate fit in a forked process"):
            tpr_grid(bistable_cusp, [12], [0.1], replicates=2, cfg=cfg, seed=1)
