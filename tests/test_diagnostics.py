import math
from dataclasses import replace

import numpy as np
import pytest

from papc.diagnostics import (GapRow, fejer_tracker, gap_and_bound, kkt_residual, rate_fit,
                              saddle_value)
from papc.errors import CertificateError, FejerViolationError, IndeterminateValueError
from papc.linop import LinearMap, OrthoProjector, SpdOperator
from papc.monotone import MonotoneBlock, CocoerciveMap, l1, sq_dist, zero_prox, singleton
from papc.solver import ProblemSpec, Schedules, run, validate_hypotheses
from papc.stochastic import DeterministicOracle, GaussianOracle, VarianceSchedule
from papc.zoo import build_instance, oracle_solution
from papc.runner import default_checkpoints

from checks import epsilon_saddle_check


def degenerate_spec(dim=2):
    return ProblemSpec(
        B=CocoerciveMap(dim, lambda x: np.zeros(dim), beta=1.0),
        A=MonotoneBlock.zero(dim),
        L=LinearMap.zero(dim, dim),
        P_V=OrthoProjector.full(dim),
        U=SpdOperator.scalar_op(1.0, dim),
    )


class TestKktResidual:
    def test_exact_pair_is_zero(self):
        inst = build_instance("cls", {})
        x, v = oracle_solution(inst)
        pres, dres = kkt_residual(x, v, inst.spec)
        assert pres <= 1e-10 and dres <= 1e-10

    def test_membership_violation_detected(self):
        inst = build_instance("cls", {})
        x, v = oracle_solution(inst)
        off = x + 0.5 * (np.ones_like(x) - inst.spec.P_V(np.ones_like(x)))
        off_dist = np.linalg.norm(off - inst.spec.P_V(off))
        pres, _ = kkt_residual(off, v, inst.spec)
        assert pres >= off_dist > 0

    def test_degenerate_spec(self):
        spec = degenerate_spec()
        x = np.array([0.4, -0.2])
        pres, dres = kkt_residual(x, np.zeros(2), spec)
        assert pres == 0.0 and dres == 0.0
        # nonzero v: the zero-operator dual block maps J_{A^{-1}} to 0, so the
        # residual equals ||v||, consistent with the inverse-resolvent value.
        v = np.array([0.3, 0.1])
        _, dres = kkt_residual(x, v, spec)
        assert dres == pytest.approx(np.linalg.norm(v))

    def test_continuity_under_perturbation(self):
        inst = build_instance("cls", {})
        x, v = oracle_solution(inst)
        delta = 1e-6
        rng = np.random.default_rng(0)
        factor = 1.0 + inst.spec.L.norm_bound() + inst.spec.B.beta ** -1
        for _ in range(5):
            dx = rng.standard_normal(x.size)
            dv = rng.standard_normal(v.size)
            pres, dres = kkt_residual(x + delta * dx / np.linalg.norm(dx),
                                      v + delta * dv / np.linalg.norm(dv), inst.spec)
            assert pres <= 10 * delta * factor
            assert dres <= 10 * delta * factor


def saddle_spec(h, g, L, P_V):
    """A spec whose saddle function is K(x, v) = h(x) + i_V(x) + <Lx, v> - g*(v);
    its B, A and U are trivial, since K reads only h, g, L and P_V."""
    return ProblemSpec(
        B=CocoerciveMap(L.domain_dim, lambda x: np.zeros_like(x), beta=1.0),
        A=MonotoneBlock.zero(L.codomain_dim),
        L=L,
        P_V=P_V,
        U=SpdOperator.scalar_op(1.0, L.codomain_dim),
        g=g,
        h=h,
    )


class TestSaddleValue:
    def test_all_zero_on_v(self):
        K = saddle_spec(h=zero_prox(2), g=zero_prox(2), L=LinearMap.zero(2, 2),
                        P_V=OrthoProjector.full(2))
        assert saddle_value(K, np.zeros(2), np.zeros(2)) == 0.0

    def test_quadratic_pair_value(self):
        g = sq_dist(0.0, dim=1)
        K = saddle_spec(h=sq_dist(0.0, dim=1), g=g, L=LinearMap.identity(1),
                        P_V=OrthoProjector.full(1))
        val = saddle_value(K, np.array([1.0]), np.array([1.0]))
        assert val == pytest.approx(1.0)  # 0.5 + 1 - 0.5

    def test_outside_subspace_is_plus_inf(self):
        basis = np.array([[1.0], [0.0]])
        K = saddle_spec(h=zero_prox(2), g=sq_dist(0.0, dim=1),
                        L=LinearMap.from_matrix([[1.0, 0.0]]),
                        P_V=OrthoProjector.from_basis(basis))
        assert saddle_value(K, np.array([0.0, 1.0]), np.zeros(1)) == math.inf

    def test_outside_dual_domain_is_minus_inf(self):
        g = l1(1.0, 1)  # g* is the [-1, 1] box indicator
        K = saddle_spec(h=zero_prox(1), g=g, L=LinearMap.identity(1),
                        P_V=OrthoProjector.full(1))
        assert saddle_value(K, np.zeros(1), np.array([2.0])) == -math.inf

    def test_indeterminate_raises(self):
        basis = np.array([[1.0], [0.0]])
        g = l1(1.0, 1)
        K = saddle_spec(h=zero_prox(2), g=g, L=LinearMap.from_matrix([[1.0, 0.0]]),
                        P_V=OrthoProjector.from_basis(basis))
        with pytest.raises(IndeterminateValueError):
            saddle_value(K, np.array([0.0, 1.0]), np.array([2.0]))

    def test_g_without_conjugate_raises(self):
        # a g without a conjugate value oracle, and a spec with no g at all
        g = replace(l1(1.0, 1), conjugate_value=None)
        for spec in (saddle_spec(h=zero_prox(1), g=g, L=LinearMap.identity(1),
                                 P_V=OrthoProjector.full(1)), degenerate_spec(1)):
            with pytest.raises(ValueError,
                               match="^saddle function needs g with a conjugate value oracle$"):
                saddle_value(spec, np.zeros(1), np.zeros(1))


class TestGapAndBound:
    def test_reference_equals_average_gives_zero_gap(self):
        inst = build_instance("lasso", {})
        x, v = oracle_solution(inst)

        class FakeCp:
            N = 0
            x_avg = x
            v_avg = v
            sum_gamma = 1.0

        class FakeRec:
            checkpoints = (FakeCp,)

        rows = gap_and_bound(FakeRec, inst.spec, inst.schedules, (x, v))
        assert rows[0].gap == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_lasso_bound_holds_pathwise(self):
        inst = build_instance("lasso", {})
        x, v = oracle_solution(inst)
        cps = default_checkpoints(5000)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.zeros(5), np.zeros(5), 5000, checkpoints=cps)
        rows = gap_and_bound(rec, inst.spec, inst.schedules, (x, v), c0=0.0)
        assert all(r.finite for r in rows)
        for r in rows:
            assert r.gap >= -1e-10
            assert r.gap <= r.bound

    def test_bound_is_step_zero_fejer_distance(self):
        # From the origin with c0 = 0, c(x, v) is Phi_0 of the Fejer series:
        # each bound is Phi_0 / (2 sum_gamma), bit for bit.
        inst = build_instance("lasso", {})
        x, v = oracle_solution(inst)
        cps = default_checkpoints(300)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.zeros(5), np.zeros(5), 300, checkpoints=cps)
        cert = validate_hypotheses(inst.spec, inst.schedules, 300)
        phi0 = fejer_tracker(rec, (x, v), inst.spec, certificate=cert)[0]
        rows = gap_and_bound(rec, inst.spec, inst.schedules, (x, v), c0=0.0)
        assert rec.ns[0] == 0 and len(rows) == len(cps)
        for r in rows:
            assert r.bound == phi0 / (2.0 * r.sum_gamma)

    def test_g_without_conjugate_raises(self):
        inst = build_instance("lasso", {})
        x, v = oracle_solution(inst)
        spec = replace(inst.spec, g=replace(inst.spec.g, conjugate_value=None))
        rec = run(spec, inst.schedules, DeterministicOracle(spec.B), np.zeros(5),
                  np.zeros(5), 10, checkpoints=(0, 9))
        with pytest.raises(ValueError,
                           match="^saddle function needs g with a conjugate value oracle$"):
            gap_and_bound(rec, spec, inst.schedules, (x, v))

    def test_constant_gamma_bound_slope_is_minus_one(self):
        inst = build_instance("lasso", {})
        x, v = oracle_solution(inst)
        cps = default_checkpoints(2000)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.zeros(5), np.zeros(5), 2000, checkpoints=cps)
        rows = gap_and_bound(rec, inst.spec, inst.schedules, (x, v))
        # bound = c / (2 gamma (N+1)): exact power law in N+1.
        slope = rate_fit([(r.N + 1, r.bound) for r in rows], (1, 3000))
        assert slope == pytest.approx(-1.0, abs=1e-9)


class TestEpsilonSaddle:
    def _table(self):
        return [GapRow(N, 1.0 / (N + 1.0), 2.0 / (N + 1.0), N + 1.0, True)
                for N in range(0, 200, 5)]

    def test_huge_eps_reached_at_first_checkpoint(self):
        assert epsilon_saddle_check([self._table()], 1e9) == 0

    def test_zero_eps_never_reached(self):
        assert epsilon_saddle_check([self._table()], 0.0) is None

    def test_monotone_in_eps(self):
        table = [self._table()]
        n1 = epsilon_saddle_check(table, 0.05)
        n2 = epsilon_saddle_check(table, 0.025)
        assert n1 is not None and n2 is not None and n2 >= n1

    def test_empty_saddle_set_rejected(self):
        with pytest.raises(ValueError):
            epsilon_saddle_check([], 0.1)

    def test_sup_over_saddle_set(self):
        t1 = self._table()
        t2 = [GapRow(r.N, 2.0 * r.gap, r.bound, r.sum_gamma, True) for r in t1]
        n_single = epsilon_saddle_check([t1], 0.05)
        n_sup = epsilon_saddle_check([t1, t2], 0.05)
        assert n_sup >= n_single

    def test_on_real_deterministic_gap_table(self):
        # The lasso problem exposes its unique saddle point; the certified
        # run must reach any positive accuracy at a finite checkpoint, with
        # the checkpoint index monotone as eps halves.
        inst = build_instance("lasso", {})
        x, v = oracle_solution(inst)
        cps = default_checkpoints(4000)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.zeros(5), np.zeros(5), 4000, checkpoints=cps)
        table = gap_and_bound(rec, inst.spec, inst.schedules, (x, v))
        n_eps = epsilon_saddle_check([table], 1e-3)
        n_half = epsilon_saddle_check([table], 5e-4)
        assert n_eps is not None and n_half is not None and n_half >= n_eps
        assert epsilon_saddle_check([table], 0.0) is None


class TestFejerTracker:
    def test_started_at_saddle_stays_zero(self):
        inst = build_instance("cls", {})
        x, v = oracle_solution(inst)
        cert = validate_hypotheses(inst.spec, inst.schedules, 100)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B), x, v, 100)
        phis = fejer_tracker(rec, (x, v), inst.spec, certificate=cert)
        assert np.max(phis) <= 1e-18

    def test_monotone_on_deterministic_run(self):
        inst = build_instance("cls", {})
        x, v = oracle_solution(inst)
        cert = validate_hypotheses(inst.spec, inst.schedules, 2000)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.ones(x.size), np.zeros(v.size), 2000)
        phis = fejer_tracker(rec, (x, v), inst.spec, certificate=cert)
        assert phis[0] > 0
        assert np.all(np.diff(phis) <= 1e-10 * (1 + phis[0]))

    def test_refuses_without_certificate(self):
        inst = build_instance("cls", {})
        x, v = oracle_solution(inst)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.ones(x.size), np.zeros(v.size), 10)
        with pytest.raises(CertificateError):
            fejer_tracker(rec, (x, v), inst.spec)

    def test_stochastic_reported_without_assertion(self):
        inst = build_instance("lasso", {})
        x, v = oracle_solution(inst)
        oracle = GaussianOracle(inst.spec.B, VarianceSchedule.polynomial(1.0, 1.0), 3)
        rec = run(inst.spec, inst.schedules, oracle, np.zeros(5), np.zeros(5), 200)
        phis = fejer_tracker(rec, (x, v), inst.spec)
        assert len(phis) == len(rec.ns)

    def test_violation_detected_with_wrong_reference(self):
        # a non-solution reference breaks monotonicity and must raise
        inst = build_instance("cls", {})
        cert = validate_hypotheses(inst.spec, inst.schedules, 300)
        x, v = oracle_solution(inst)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.ones(x.size), np.zeros(v.size), 300)
        with pytest.raises(FejerViolationError):
            fejer_tracker(rec, (x + 1.0, v), inst.spec, certificate=cert)


class TestRateFit:
    def test_exact_inverse_law(self):
        pairs = [(n, 7.0 / n) for n in range(1, 200)]
        assert rate_fit(pairs, (1, 200)) == pytest.approx(-1.0, abs=1e-9)

    def test_constant_series(self):
        pairs = [(n, 5.0) for n in range(1, 50)]
        assert rate_fit(pairs, (1, 50)) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            rate_fit([(n, 1.0 / n) for n in range(1, 8)], (1, 10))

    def test_nonpositive_excluded(self):
        pairs = [(n, 1.0 / n) for n in range(1, 30)] + [(30, 0.0), (31, -1.0)]
        assert rate_fit(pairs, (1, 40)) == pytest.approx(-1.0, abs=1e-6)
