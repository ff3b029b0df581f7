import hashlib
import warnings

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


class WithBatch:
    """Plain target `point` with a `batch` method that evaluates it row by row."""

    def __init__(self, point):
        self.point = point

    def __call__(self, q):
        return self.point(q)

    def batch(self, qs):
        values = [self.point(q) for q in qs]
        return np.array([float(v[0]) for v in values]), np.array([v[1] for v in values])


# The sampler screens plain and batched targets alike.
BOTH_KINDS = pytest.mark.parametrize("kind", [lambda f: f, WithBatch], ids=["plain", "batch"])


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

    @BOTH_KINDS
    def test_nonfinite_gradient_ends_trajectory(self, kind):
        # The density stays finite for |q0| > 2 but the gradient turns NaN
        # there: the trajectory must stop at that step and count as divergent,
        # so the target is never evaluated at a non-finite point.
        evaluated_nonfinite = []

        def target(q):
            evaluated_nonfinite.append(not np.isfinite(q).all())
            grad = np.full_like(q, np.nan) if abs(q[0]) > 2.0 else -q
            return float(-0.5 * (q @ q)), grad

        chains = hmc.sample(kind(target), np.zeros(2), n_chains=2, n_iterations=600, seed=11)
        assert np.all(np.abs(chains.draws[..., 0]) <= 2.0)
        assert chains.divergences > 0
        assert not any(evaluated_nonfinite)

    @BOTH_KINDS
    def test_initialization_failure(self, kind):
        def bad(q):
            return -np.inf, np.zeros_like(q)

        with pytest.raises(SamplerError, match="100"):
            hmc.sample(kind(bad), np.zeros(2), n_chains=1, n_iterations=200, seed=0)

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
                                             ("threads", 0), ("threads", -4), ("threads", 2)])
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
        np.testing.assert_array_equal(alone.step_sizes, batched.step_sizes)
        np.testing.assert_array_equal(alone.accept_rates, batched.accept_rates)
        assert max(batch_sizes) == 3 and min(batch_sizes) >= 1

    def test_stiff_target_warns_nothing_and_keeps_its_draws(self):
        # A Gaussian of precision 1e200: momenta too large to square give an
        # infinite kinetic energy, which rejects the move or counts it
        # divergent, without a numpy overflow warning. The step sizes and the
        # draws (sha256 of their bytes) are those the sampler gave when that
        # warning still escaped.
        def target(q):
            with np.errstate(over="ignore", invalid="ignore"):
                return -0.5 * 1e200 * float(q @ q), -1e200 * q

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chains = hmc.sample(target, np.zeros(1), n_chains=2, n_iterations=100, seed=3)
        assert chains.step_sizes.tolist() == [4.000612624682274e-13] * 2
        assert chains.divergences == 100
        assert hashlib.sha256(chains.draws.tobytes()).hexdigest() == (
            "c80e713e616f116bda8461935a8befc7be58b39689345f91eef83ebcb1c126a5")

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
