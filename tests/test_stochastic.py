import math

import numpy as np
import pytest

from papc.monotone import CocoerciveMap
from papc.solver import Schedules
from papc.stochastic import (NOISE_BLOCK, DeterministicOracle, GaussianOracle, MinibatchOracle,
                             VarianceSchedule, empirical_variance, summability_certificate)


def linear_map(dim=3, scale=1.0):
    return CocoerciveMap(dim, lambda x: scale * x, beta=1.0 / scale)


class TestSample:
    def test_zero_noise_is_exact(self):
        oracle = GaussianOracle(linear_map(), VarianceSchedule.polynomial(0.0), seeds=1)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(oracle.sample(x, 3), x)

    def test_full_batch_is_exact(self):
        comps = [lambda x: x + 1.0, lambda x: x - 1.0, lambda x: 2 * x, lambda x: 0 * x]
        oracle = MinibatchOracle(comps, beta=1.0, seeds=0, dim=2)
        x = np.array([0.3, -0.4])
        np.testing.assert_allclose(oracle.sample(x, 0), oracle.base.apply(x))

    def test_gaussian_std_per_coordinate(self):
        # sigma_n^2 = 1/(n+1)^2: at n = 3 the per-coordinate std is 1/4.
        sched = VarianceSchedule.polynomial(1.0, 1.0)
        assert math.sqrt(sched.sigma_sq(3)) == pytest.approx(0.25)
        oracle = GaussianOracle(linear_map(1), sched, seeds=42)
        x = np.array([0.7])
        trials = 10 ** 5
        vals = np.array([oracle.sample(x, 3, t)[0] for t in range(trials)])
        se = 0.25 / math.sqrt(trials)
        assert abs(vals.mean() - x[0]) <= 3 * se

    def test_unbiasedness_minibatch(self):
        comps = [lambda x: x, lambda x: 3 * x, lambda x: -x, lambda x: x + 2.0]
        oracle = MinibatchOracle(comps, beta=1.0, seeds=9, dim=1,
                                 batch_schedule=lambda n: 2)
        x = np.array([1.0])
        mean = oracle.base.apply(x)
        trials = 10 ** 5
        vals = np.array([oracle.sample(x, 0, t)[0] for t in range(trials)])
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
    (seed, n, t) still names one sample."""

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

    def test_replicates_differ(self):
        x = np.array([0.1, 0.2, 0.3])
        oracle = self.oracle(7)
        for n in self.NS:
            t0 = oracle.sample(x, n)
            assert not np.array_equal(t0, oracle.sample(x, n, 1)), n
            assert oracle.sample(x, n).tobytes() == t0.tobytes(), n


class TestEmpiricalVariance:
    def test_zero_noise(self):
        oracle = DeterministicOracle(linear_map())
        assert empirical_variance(oracle, np.zeros(3), 0, 10) == 0.0

    def test_gaussian_quarter(self):
        sched = VarianceSchedule.constant(0.25)
        oracle = GaussianOracle(linear_map(1), sched, seeds=3)
        trials = 10 ** 5
        est = empirical_variance(oracle, np.array([0.4]), 0, trials)
        rel_se = math.sqrt(2.0 / (trials - 1))  # chi-square moments
        assert abs(est - 0.25) <= 5 * 0.25 * rel_se

    def test_identical_components_have_zero_variance(self):
        comps = [lambda x: 2 * x] * 4
        oracle = MinibatchOracle(comps, beta=0.5, seeds=0, dim=2,
                                 batch_schedule=lambda n: 2)
        assert empirical_variance(oracle, np.ones(2), 0, 32) == 0.0

    def test_requires_two_trials(self):
        oracle = DeterministicOracle(linear_map())
        with pytest.raises(ValueError):
            empirical_variance(oracle, np.zeros(3), 0, 1)


class TestSummability:
    def test_polynomial_certified_with_tail(self):
        sched = VarianceSchedule.polynomial(1.0, 1.0, regime="almost-sure")
        gammas = Schedules.constant(0.5, 1.0, 1.0)
        rep = summability_certificate(sched, gammas, 1000)
        assert rep.certified
        assert rep.tail_sigma_sq <= 1.0 / 1000
        # partial sums approach pi^2/6 from below
        assert rep.partial_sigma_sq < math.pi ** 2 / 6
        assert rep.partial_sigma_sq + rep.tail_sigma_sq >= math.pi ** 2 / 6 - 1e-3

    def test_constant_noise_almost_sure_is_violation(self):
        sched = VarianceSchedule.constant(1.0, regime="almost-sure")
        rep = summability_certificate(sched, Schedules.constant(0.5, 1.0, 1.0), 100)
        assert rep.status == "violation"

    def test_constant_noise_harmonic_gamma_ergodic_certified(self):
        sched = VarianceSchedule.constant(1.0, regime="ergodic")
        gammas = Schedules.make(beta=1.0, gamma_kind="harmonic", gamma0=0.5)
        rep = summability_certificate(sched, gammas, 200)
        assert rep.certified
        assert rep.tail_gamma_sigma_sq is not None

    def test_constant_constant_ergodic_reports_finite_horizon(self):
        sched = VarianceSchedule.constant(1.0, regime="ergodic")
        rep = summability_certificate(sched, Schedules.constant(0.5, 1.0, 1.0), 100)
        assert rep.status == "finite-horizon"
        assert rep.partial_gamma_sigma_sq == pytest.approx(0.25 * 101)

    def test_zero_noise_certified(self):
        rep = summability_certificate(VarianceSchedule.polynomial(0.0),
                                      Schedules.constant(0.5, 1.0, 1.0), 10)
        assert rep.certified and rep.partial_sigma_sq == 0.0


class TestScheduleTable:
    def test_table_clamps(self):
        sched = VarianceSchedule.from_table([1.0, 0.5])
        assert sched.sigma_sq(0) == 1.0
        assert sched.sigma_sq(5) == 0.5

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            VarianceSchedule("weird")
