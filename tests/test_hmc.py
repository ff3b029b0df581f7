import multiprocessing
import os

import numpy as np
import pytest

from landscaper import hmc
from landscaper.diagnostics import ess, rhat
from landscaper.errors import PreconditionError, SamplerError


def gaussian_target(mean, var):
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)

    def target(q):
        d = q - mean
        return float(-0.5 * np.sum(d * d / var)), -d / var

    return target


class BatchedGaussian:
    """A Gaussian target with `batch`, so `hmc.sample` forks its chain
    groups. `finite_in_children=False` makes every point non-finite in any
    process but the one it was built in."""

    def __init__(self, mean, var, finite_in_children=True):
        self.point = gaussian_target(mean, var)
        self.pid = os.getpid()
        self.finite_in_children = finite_in_children

    def __call__(self, q):
        return self.point(q)

    def batch(self, qs):
        values = [self.point(q) for q in qs]
        logps = np.array([v[0] for v in values])
        if not self.finite_in_children and os.getpid() != self.pid:
            logps[:] = -np.inf
        return logps, np.array([v[1] for v in values])


class TestSampler:
    def test_standard_normal_2d(self):
        target = gaussian_target([0.0, 0.0], [1.0, 1.0])
        chains = hmc.sample(target, np.zeros(2), n_chains=4, n_iterations=2000, seed=5)
        draws = chains.draws.reshape(-1, 2)
        assert draws.shape == (4000, 2)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.05)
        for j in range(2):
            assert rhat(chains.draws[:, :, j]) < 1.01

    def test_variance_recovery_1d(self):
        target = gaussian_target([0.0], [2.5])
        chains = hmc.sample(target, np.zeros(1), n_chains=2, n_iterations=2000, seed=8)
        var = chains.draws.var()
        assert abs(var - 2.5) < 0.25

    def test_seed_determinism(self):
        target = gaussian_target([1.0, -1.0], [1.0, 4.0])
        a = hmc.sample(target, np.zeros(2), n_chains=2, n_iterations=300, seed=13)
        b = hmc.sample(target, np.zeros(2), n_chains=2, n_iterations=300, seed=13)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.divergences == b.divergences

    def test_threaded_chains_match_serial(self):
        target = gaussian_target([0.0, 0.0, 0.0], [1.0, 0.5, 2.0])
        serial = hmc.sample(target, np.zeros(3), n_chains=3, n_iterations=300, seed=4, threads=1)
        threaded = hmc.sample(target, np.zeros(3), n_chains=3, n_iterations=300, seed=4, threads=3)
        np.testing.assert_array_equal(serial.draws, threaded.draws)

    def test_nonfinite_gradient_ends_trajectory(self):
        # The density stays finite for |q0| > 2 but the gradient turns NaN
        # there: the trajectory must stop at that step and count as divergent,
        # so the target is never evaluated at a non-finite point.
        evaluated_nonfinite = []

        def target(q):
            evaluated_nonfinite.append(not np.isfinite(q).all())
            grad = np.full_like(q, np.nan) if abs(q[0]) > 2.0 else -q
            return float(-0.5 * (q @ q)), grad

        chains = hmc.sample(target, np.zeros(2), n_chains=2, n_iterations=600, seed=11)
        assert np.all(np.abs(chains.draws[..., 0]) <= 2.0)
        assert chains.divergences > 0
        assert not any(evaluated_nonfinite)

    def test_initialization_failure(self):
        def bad(q):
            return -np.inf, np.zeros_like(q)

        with pytest.raises(SamplerError, match="100"):
            hmc.sample(bad, np.zeros(2), n_chains=1, n_iterations=200, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(PreconditionError, match="seed"):
            hmc.sample(gaussian_target([0.0], [1.0]), np.zeros(1), n_iterations=100, seed=-1)

    def test_needs_an_iteration_for_warmup_and_for_sampling(self):
        target = gaussian_target([0.0], [1.0])
        with pytest.raises(SamplerError):
            hmc.sample(target, np.zeros(1), n_chains=1, n_iterations=1, seed=0)
        assert hmc.sample(target, np.zeros(1), n_chains=1, n_iterations=2, seed=0).warmup == 1

    def test_needs_a_leapfrog_step(self):
        with pytest.raises(SamplerError, match="max_leapfrog"):
            hmc.sample(gaussian_target([0.0], [1.0]), np.zeros(1), n_chains=1,
                       n_iterations=100, seed=0, max_leapfrog=0)

    @pytest.mark.parametrize("name, value", [("n_chains", 0), ("n_chains", -1),
                                             ("threads", 0), ("threads", -4)])
    def test_needs_a_chain_and_a_thread(self, name, value):
        settings = {"n_chains": 1, "n_iterations": 100, "seed": 0, name: value}
        with pytest.raises(SamplerError, match=name):
            hmc.sample(gaussian_target([0.0], [1.0]), np.zeros(1), **settings)

    def test_batched_target_matches_per_point_target(self):
        # A target with `batch` is evaluated for all live chains at once; the
        # draws are those of the same target evaluated one point at a time.
        target = gaussian_target([0.5, -1.0], [1.0, 0.25])
        batch_sizes = []

        class Batched:
            def __call__(self, q):
                raise AssertionError("a target with batch is not called per point")

            def batch(self, qs):
                batch_sizes.append(len(qs))
                values = [target(q) for q in qs]
                return np.array([v[0] for v in values]), np.array([v[1] for v in values])

        alone = hmc.sample(target, np.zeros(2), n_chains=3, n_iterations=200, seed=9)
        batched = hmc.sample(Batched(), np.zeros(2), n_chains=3, n_iterations=200, seed=9)
        np.testing.assert_array_equal(alone.draws, batched.draws)
        assert alone.divergences == batched.divergences
        assert max(batch_sizes) == 3 and min(batch_sizes) >= 1

    def test_forked_groups_give_the_same_draws(self):
        # One group per process: the draws and sampler stats are bit-equal
        # for any group count, and equal those of the plain-callable path.
        target = BatchedGaussian([0.5, -1.0, 2.0], [1.0, 0.25, 4.0])
        runs = [hmc.sample(target, np.zeros(3), n_chains=4, n_iterations=200, seed=21,
                           threads=threads) for threads in (1, 2, 4)]
        runs.append(hmc.sample(target.point, np.zeros(3), n_chains=4, n_iterations=200,
                               seed=21, threads=2))
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].draws, other.draws)
            assert runs[0].divergences == other.divergences
            np.testing.assert_array_equal(runs[0].step_sizes, other.step_sizes)
            np.testing.assert_array_equal(runs[0].accept_rates, other.accept_rates)
        assert multiprocessing.active_children() == []

    def test_failing_child_group_raises_sampler_error(self):
        target = BatchedGaussian([0.0, 0.0], [1.0, 1.0], finite_in_children=False)
        assert hmc.sample(target, np.zeros(2), n_chains=2, n_iterations=100, seed=0,
                          threads=1).draws.shape == (2, 50, 2)
        with pytest.raises(SamplerError, match="no finite starting point"):
            hmc.sample(target, np.zeros(2), n_chains=2, n_iterations=100, seed=0, threads=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure, message", [
        ("unpicklable", "Unpicklable: bad batch"),
        ("exit", "exited with code 3 before sending its results"),
    ])
    def test_child_failure_is_a_sampler_error(self, failure, message):
        class Unpicklable(Exception):
            pass  # a local class: pickling it fails

        class Failing(BatchedGaussian):
            def batch(self, qs):
                if os.getpid() != self.pid:
                    if failure == "exit":
                        os._exit(3)
                    raise Unpicklable("bad batch")
                return super().batch(qs)

        with pytest.raises(SamplerError, match=message):
            hmc.sample(Failing([0.0], [1.0]), np.zeros(1), n_chains=2, n_iterations=100,
                       seed=0, threads=2)
        assert multiprocessing.active_children() == []

    def test_first_group_error_kills_the_children(self):
        class FailsHere(BatchedGaussian):
            def batch(self, qs):
                if os.getpid() == self.pid:
                    raise ValueError("first group failed")
                return super().batch(qs)

        with pytest.raises(ValueError, match="first group failed"):
            hmc.sample(FailsHere([0.0], [1.0]), np.zeros(1), n_chains=3, n_iterations=2000,
                       seed=0, threads=3)
        assert multiprocessing.active_children() == []

    def test_groups_run_in_process_without_fork(self, monkeypatch):
        target = BatchedGaussian([0.0, 0.0], [1.0, 1.0], finite_in_children=False)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        chains = hmc.sample(target, np.zeros(2), n_chains=2, n_iterations=100, seed=0,
                            threads=2)
        assert chains.draws.shape == (2, 50, 2)

    def test_correlated_scale_adaptation(self):
        # widely different scales exercise the mass-matrix adaptation
        target = gaussian_target([0.0, 0.0], [100.0, 0.01])
        chains = hmc.sample(target, np.zeros(2), n_chains=2, n_iterations=2000, seed=3)
        var = chains.draws.reshape(-1, 2).var(axis=0)
        assert abs(var[0] - 100.0) < 30.0
        assert abs(var[1] - 0.01) < 0.003


class TestDiagnostics:
    def test_identical_constant_chains(self):
        x = np.ones((4, 100))
        assert rhat(x) == 1.0

    def test_distinct_constant_chains(self):
        x = np.vstack([np.zeros((2, 100)), np.ones((2, 100))])
        assert rhat(x) == np.inf

    def test_iid_chains_near_one(self, rng):
        x = rng.standard_normal((4, 1000))
        assert rhat(x) < 1.01
        assert ess(x) > 1500

    def test_nonmixing_chains_flagged(self, rng):
        x = rng.standard_normal((2, 500))
        x[1] += 10.0
        assert rhat(x) > 1.1

    def test_autocorrelated_chains_lower_ess(self, rng):
        n = 2000
        x = np.empty((4, n))
        for c in range(4):
            eps = rng.standard_normal(n)
            for i in range(1, n):
                eps[i] = 0.95 * eps[i - 1] + np.sqrt(1 - 0.95**2) * eps[i]
            x[c] = eps
        assert ess(x) < 0.25 * x.size

    def test_param_index_on_stacked_draws(self, rng):
        draws = rng.standard_normal((4, 200, 3))
        assert rhat(draws[:, :, 1]) < 1.05
        with pytest.raises(PreconditionError):
            rhat(draws)
        with pytest.raises(PreconditionError):
            ess(draws)

    def test_requires_enough_chains_and_draws(self):
        with pytest.raises(PreconditionError):
            rhat(np.zeros((1, 100)))
        with pytest.raises(PreconditionError):
            ess(np.zeros((4, 3)))
