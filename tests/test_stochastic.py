import math

import numpy as np
import pytest

from papc.linop import LinearMap, norm
from papc.monotone import CocoerciveMap
from papc.solver import Schedules
from papc.stochastic import (NOISE_BLOCK, DeterministicOracle, GaussianOracle, MinibatchOracle,
                             VarianceSchedule, summability_certificate)
from papc.zoo import build_instance

from checks import empirical_variance


def linear_map(dim=3, scale=1.0):
    return CocoerciveMap(dim, lambda x: scale * x, beta=1.0 / scale)


class TestSample:
    def test_zero_noise_is_exact(self):
        oracle = GaussianOracle(linear_map(), VarianceSchedule.polynomial(0.0), seeds=1)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(oracle.sample(x, 3), x)

    def test_full_batch_is_exact(self):
        D = LinearMap.from_matrix([[1.0, 0.0], [0.0, -1.0], [2.0, 1.0], [0.0, 0.0]])
        oracle = MinibatchOracle(D, [1.0, -1.0, 0.5, 0.0], beta=0.1, seeds=0)
        x = np.array([0.3, -0.4])
        np.testing.assert_allclose(oracle.sample(x, 0), oracle.base.apply(x))

    def test_gaussian_std_per_coordinate(self):
        # sigma_n^2 = 1/(n+1)^2: at n = 3 the per-coordinate std is 1/4.
        # Each replicate is a one-seed oracle with its own seed.
        sched = VarianceSchedule.polynomial(1.0, 1.0)
        assert math.sqrt(sched.sigma_sq(3)) == pytest.approx(0.25)
        B = linear_map(1)
        x = np.array([0.7])
        trials = 10 ** 5
        vals = np.array([GaussianOracle(B, sched, seeds=s).sample(x, 3)[0]
                         for s in range(trials)])
        se = 0.25 / math.sqrt(trials)
        assert abs(vals.mean() - x[0]) <= 3 * se

    def test_unbiasedness_minibatch(self):
        D = LinearMap.from_matrix([[1.0], [3.0], [-1.0], [0.5]])
        a = [0.0, 1.0, 2.0, -4.0]
        x = np.array([1.0])
        mean = MinibatchOracle(D, a, beta=0.1, seeds=0).base.apply(x)
        trials = 10 ** 5
        vals = np.array([MinibatchOracle(D, a, beta=0.1, seeds=s, batch=2).sample(x, 0)[0]
                         for s in range(trials)])
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - mean[0]) <= 3 * se

    def test_bit_reproducible_given_seed_and_history(self):
        sched = VarianceSchedule.polynomial(1.0, 1.0)
        a = GaussianOracle(linear_map(), sched, seeds=7)
        b = GaussianOracle(linear_map(), sched, seeds=7)
        x = np.array([0.1, 0.2, 0.3])
        for n in range(5):
            np.testing.assert_array_equal(a.sample(x, n), b.sample(x, n))
        c = GaussianOracle(linear_map(), sched, seeds=8)
        assert not np.array_equal(a.sample(x, 0), c.sample(x, 0))


class TestBlockStream:
    """The gaussian noise is drawn NOISE_BLOCK steps at a time, yet each
    (seed, n) still names one sample."""

    # Constant variance, so two steps share a sample only if they share noise.
    SCHED = VarianceSchedule.constant(1.0)
    # Block edges on both sides, a later block, and a step back into block 0.
    NS = (0, NOISE_BLOCK - 1, NOISE_BLOCK, 3 * NOISE_BLOCK + 5, 1)

    def oracle(self, seeds):
        return GaussianOracle(linear_map(), self.SCHED, seeds=seeds)

    def test_out_of_order_equals_in_order(self):
        x = np.array([0.1, 0.2, 0.3])
        shuffled = self.oracle(7)
        asked = {n: shuffled.sample(x, n).tobytes() for n in self.NS}
        in_order = self.oracle(7)
        for n in sorted(self.NS):
            assert in_order.sample(x, n).tobytes() == asked[n], n
        assert len(set(asked.values())) == len(self.NS)

    def test_vector_is_row_zero_of_a_batch(self):
        xs = np.array([[0.1, 0.2, 0.3], [1.0, -2.0, 0.5]])
        batch, first, second = self.oracle((7, 3)), self.oracle(7), self.oracle(3)
        for n in self.NS:
            # A vector asked of the two-seed oracle is drawn with its first seed.
            vector = batch.sample(xs[0], n)
            rows = batch.sample(xs, n)
            assert rows[0].tobytes() == first.sample(xs[0], n).tobytes() == vector.tobytes(), n
            assert rows[1].tobytes() == second.sample(xs[1], n).tobytes(), n


class TestMinibatchRows:
    """A minibatch sample is (m/k) sum_{i in I} d_i (d_i^T x - a_i) over the rows
    I = default_rng((seed, n, 0)).choice(m, k, replace=False) of 0.5||Dx - a||^2."""

    @pytest.mark.parametrize("name", ["cls", "fused"])
    def test_sample_is_the_drawn_rows_gradient(self, name):
        inst = build_instance(name, {})
        D, a = inst.least_squares
        rows = D.to_dense()
        m, k, seed = len(a), 3, 5
        oracle = MinibatchOracle(D, a, inst.spec.B.beta, seed, batch=k)
        x = np.random.default_rng(1).standard_normal(D.domain_dim)
        for n in (0, 1, 17, 400):
            drawn = np.random.default_rng((seed, n, 0)).choice(m, k, replace=False)
            ref = (m / k) * sum(rows[i] * (rows[i] @ x - a[i]) for i in drawn)
            assert norm(oracle.sample(x, n) - ref) <= 1e-14 * norm(ref), n
        full = MinibatchOracle(D, a, inst.spec.B.beta, seed).sample(x, 3)
        assert norm(full - inst.spec.B.apply(x)) <= 1e-14 * norm(inst.spec.B.apply(x))


class TestEmpiricalVariance:
    def test_zero_noise(self):
        oracle = DeterministicOracle(linear_map())
        assert empirical_variance([oracle] * 10, np.zeros(3), 0) == 0.0

    def test_gaussian_quarter(self):
        sched = VarianceSchedule.constant(0.25)
        B = linear_map(1)
        trials = 10 ** 5
        est = empirical_variance((GaussianOracle(B, sched, seeds=s) for s in range(trials)),
                                 np.array([0.4]), 0)
        rel_se = math.sqrt(2.0 / (trials - 1))  # chi-square moments
        assert abs(est - 0.25) <= 5 * 0.25 * rel_se

    def test_identical_components_have_zero_variance(self):
        D = LinearMap.from_matrix([[1.0, -2.0]] * 4)
        oracles = (MinibatchOracle(D, [0.5] * 4, beta=0.05, seeds=s, batch=2)
                   for s in range(32))
        assert empirical_variance(oracles, np.ones(2), 0) == 0.0

    def test_requires_two_trials(self):
        oracle = DeterministicOracle(linear_map())
        with pytest.raises(ValueError):
            empirical_variance([oracle], np.zeros(3), 0)


class TestSummability:
    def test_polynomial_certified_with_tail(self):
        sched = VarianceSchedule.polynomial(1.0, 1.0)
        gammas = Schedules.constant(0.5, 1.0, 1.0)
        rep = summability_certificate(sched, gammas, 1000, regime="almost-sure")
        assert rep.certified
        assert rep.tail_sigma_sq <= 1.0 / 1000
        # partial sums approach pi^2/6 from below
        assert rep.partial_sigma_sq < math.pi ** 2 / 6
        assert rep.partial_sigma_sq + rep.tail_sigma_sq >= math.pi ** 2 / 6 - 1e-3

    def test_constant_noise_almost_sure_is_violation(self):
        sched = VarianceSchedule.constant(1.0)
        rep = summability_certificate(sched, Schedules.constant(0.5, 1.0, 1.0), 100,
                                      regime="almost-sure")
        assert rep.status == "violation"

    def test_constant_noise_harmonic_gamma_ergodic_certified(self):
        sched = VarianceSchedule.constant(1.0)
        gammas = Schedules(beta=1.0, gamma_kind="harmonic", gamma0=0.5)
        rep = summability_certificate(sched, gammas, 200, regime="ergodic")
        assert rep.certified
        assert rep.tail_gamma_sigma_sq is not None

    def test_constant_constant_ergodic_reports_finite_horizon(self):
        sched = VarianceSchedule.constant(1.0)
        rep = summability_certificate(sched, Schedules.constant(0.5, 1.0, 1.0), 100,
                                      regime="ergodic")
        assert rep.status == "finite-horizon"
        assert rep.partial_gamma_sigma_sq == pytest.approx(0.25 * 101)
        # No tail: c0 is the dimension times the finite-horizon sum.
        assert rep.noise_constant(3) == 3 * rep.partial_gamma_sigma_sq

    def test_zero_noise_certified(self):
        rep = summability_certificate(VarianceSchedule.polynomial(0.0),
                                      Schedules.constant(0.5, 1.0, 1.0), 10)
        assert rep.certified and rep.partial_sigma_sq == 0.0

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            summability_certificate(VarianceSchedule.constant(1.0),
                                    Schedules.constant(0.5, 1.0, 1.0), 10, regime="sure")


class TestVarianceSchedule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            VarianceSchedule("weird")

    @pytest.mark.parametrize("epsilon", [0.0, -0.5])
    def test_polynomial_needs_positive_epsilon(self, epsilon):
        # 1/(n+1)^(1+epsilon) is not summable for epsilon <= 0.
        with pytest.raises(ValueError):
            VarianceSchedule.polynomial(1.0, epsilon)
