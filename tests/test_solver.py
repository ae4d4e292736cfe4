import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from papc.errors import DimensionMismatchError, DivergenceError
from papc.linop import LinearMap, OrthoProjector, SpdOperator, norm
from papc.monotone import (CocoerciveMap, MonotoneBlock, ProductMonotoneBlock, l1, sq_dist,
                           zero_prox, gradient_map, inverse_resolvent, quadratic_lipschitz,
                           quadratic_ls, singleton)
from papc.solver import (ConditionCheck, ErgodicAccumulator, PapcState, ProblemSpec,
                         Schedules, dual_resolvent, ergodic_update, papc_step, run,
                         validate_hypotheses)
from papc.stochastic import (DeterministicOracle, GaussianOracle, MinibatchOracle,
                             VarianceSchedule)
from papc.zoo import build_instance, oracle_solution


def one_dim_spec(B_scale=1.0, A=None, L_scale=1.0, g=None):
    return ProblemSpec(
        B=CocoerciveMap(1, lambda x: B_scale * x, beta=1.0 / max(B_scale, 1e-12)),
        A=A if A is not None else MonotoneBlock.zero(1),
        L=LinearMap.from_matrix([[L_scale]]),
        P_V=OrthoProjector.full(1),
        U=SpdOperator.scalar_op(1.0, 1),
        g=g,
    )


def zero_spec(dim=2):
    return ProblemSpec(
        B=CocoerciveMap(dim, lambda x: np.zeros(dim), beta=1.0),
        A=MonotoneBlock.zero(dim),
        L=LinearMap.zero(dim, dim),
        P_V=OrthoProjector.full(dim),
        U=SpdOperator.scalar_op(1.0, dim),
    )


class TestValidateHypotheses:
    def test_constant_admissible(self):
        inst = build_instance("lasso", {})
        cert = validate_hypotheses(inst.spec, inst.schedules, 100)
        assert cert.ok

    def test_gamma0_exceeds_beta(self):
        inst = build_instance("lasso", {})
        bad = Schedules.constant(1.5 * inst.spec.B.beta, 0.9, inst.spec.B.beta)
        cert = validate_hypotheses(inst.spec, bad, 50)
        assert not cert.ok
        assert any("gamma0" in c.name for c in cert.failed())

    def test_schedule_beta_above_operator_beta_rejected(self):
        # gamma0 lies below the schedule's beta but not below B's.
        inst = build_instance("lasso", {})
        beta = inst.spec.B.beta
        bad = Schedules.constant(1.2 * beta, 0.9, 2.0 * beta)
        cert = validate_hypotheses(inst.spec, bad, 50)
        assert [c.name for c in cert.failed()] == ["gamma0 below beta"]

    def test_monotone_varying_schedules_pass(self):
        # Decreasing gamma with a positive floor, increasing capped tau.
        inst = build_instance("lasso", {})
        beta = inst.spec.B.beta
        sched = Schedules(beta, gamma_kind="harmonic_floor", gamma0=0.9 * beta,
                          tau_kind="ramp", tau_cap=0.9)
        cert = validate_hypotheses(inst.spec, sched, 500)
        assert cert.ok, cert.failed()

    def test_increasing_gamma_rejected(self):
        # harmonic_floor with a negative gamma0 rises towards gamma0 / 2.
        inst = build_instance("lasso", {})
        beta = inst.spec.B.beta
        sched = Schedules(beta, gamma_kind="harmonic_floor", gamma0=-0.1 * beta, tau_cap=0.9)
        cert = validate_hypotheses(inst.spec, sched, 50)
        assert any(c.name == "gamma non-increasing" for c in cert.failed())

    def test_ergodic_regime_allows_psd_boundary(self):
        spec = one_dim_spec()
        # tau * lambda_max = 0.999...: fails the strict margin, passes PSD.
        sched = Schedules.constant(0.5, 0.9999995, 1.0)
        strict = validate_hypotheses(spec, sched, 10, regime="almost-sure", margin=1e-6)
        loose = validate_hypotheses(spec, sched, 10, regime="ergodic")
        assert not strict.ok and loose.ok


def sampled_step_checks(spec, sched, horizon, regime):
    """The step-size checks decided from the whole sampled sequences, as the
    gate once did: the reference for its O(1) form."""
    gammas = np.array([float(sched.gamma(n)) for n in range(horizon + 1)])
    taus = np.array([float(sched.tau(n)) for n in range(horizon + 1)])
    slack = 1e-15
    beta = min(sched.beta, spec.B.beta)
    checks = [
        ("gamma non-increasing",
         bool(np.all(np.diff(gammas) <= slack * np.maximum(gammas[:-1], 1.0))),
         "gamma must not increase over the horizon"),
        ("tau non-decreasing",
         bool(np.all(np.diff(taus) >= -slack * np.maximum(taus[:-1], 1.0))),
         "tau must not decrease over the horizon"),
        ("tau capped",
         bool(np.max(taus) <= sched.tau_cap * (1.0 + 1e-12)),
         "max tau %.6g vs cap %.6g" % (float(np.max(taus)), sched.tau_cap)),
        ("gamma0 below beta", bool(gammas[0] < beta),
         "gamma0=%.6g beta=%.6g" % (gammas[0], beta)),
        ("gamma positive", bool(np.min(gammas) > 0.0),
         "all step sizes must be strictly positive"),
    ]
    if regime == "almost-sure":
        checks.append(("inf gamma positive",
                       bool(np.min(gammas) > 0.0 and np.min(gammas) >= 1e-12 * gammas[0]),
                       "inf gamma %.6g over the horizon" % float(np.min(gammas))))
    return checks


class TestStepSizeGate:
    """The step-size checks read a family's first step and endpoints only."""

    @settings(max_examples=300)
    @given(gamma_kind=st.sampled_from(["constant", "harmonic_floor", "harmonic"]),
           tau_kind=st.sampled_from(["constant", "ramp"]),
           gamma0=st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False),
                            st.floats(1e-300, 1e-12), st.floats(-1e-12, -1e-300)),
           tau_cap=st.one_of(st.floats(1e-300, 1e6), st.floats(0.5, 2.0)),
           horizon=st.integers(0, 5000),
           regime=st.sampled_from(["almost-sure", "ergodic"]))
    # The first two rise within the slack per step but not over the horizon;
    # the third has subnormal gamma0 and tau_cap.
    @example("harmonic_floor", "constant", -3e-15, 0.9, 5000, "almost-sure")
    @example("harmonic", "ramp", -1.5e-15, 0.9, 5000, "ergodic")
    @example("harmonic", "ramp", -5e-324, 5e-324, 1, "almost-sure")
    def test_matches_sampled_checks(self, gamma_kind, tau_kind, gamma0, tau_cap, horizon,
                                    regime):
        spec = one_dim_spec()
        sched = Schedules(1.0, gamma_kind=gamma_kind, gamma0=gamma0, tau_kind=tau_kind,
                          tau_cap=tau_cap)
        ref = sampled_step_checks(spec, sched, horizon, regime)
        cert = validate_hypotheses(spec, sched, horizon, regime=regime)
        assert [(c.name, c.ok, c.detail) for c in cert.checks[:len(ref)]] == ref

    def test_memory_flat_in_horizon(self):
        inst = build_instance("lasso", {})
        sched = Schedules(inst.spec.B.beta, gamma_kind="harmonic_floor", tau_kind="ramp",
                          tau_cap=inst.schedules.tau_cap)

        def peak(horizon):
            tracemalloc.start()
            try:
                validate_hypotheses(inst.spec, sched, horizon)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2000)  # warm-up: first-call caches are not the gate's
        assert abs(peak(10 ** 6) - peak(2000)) < 64 * 1024

    @pytest.mark.parametrize("gamma_kind", ["constant", "harmonic"])
    def test_negative_horizon_is_named(self, gamma_kind):
        sched = Schedules(1.0, gamma_kind=gamma_kind, gamma0=0.5, tau_cap=0.5)
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            validate_hypotheses(one_dim_spec(), sched, -1)

    @pytest.mark.parametrize("kinds", [{"gamma_kind": "bogus"}, {"tau_kind": "bogus"}])
    def test_unknown_kind_rejected(self, kinds):
        with pytest.raises(ValueError, match="unknown"):
            Schedules(1.0, **kinds)


class TestNoiseGate:
    """The oracle's summability is one more check of validate_hypotheses."""

    def test_constant_gaussian_fails_almost_surely(self):
        inst = build_instance("lasso", {})
        oracle = GaussianOracle(inst.spec.B, VarianceSchedule.constant(1.0), seeds=0)
        cert = validate_hypotheses(inst.spec, inst.schedules, 100, oracle=oracle)
        assert not cert.ok
        assert [c.name for c in cert.failed()] == ["noise summability"]
        assert cert.summability.status == "violation"
        ergodic = validate_hypotheses(inst.spec, inst.schedules, 100, regime="ergodic",
                                      oracle=oracle)
        assert ergodic.ok and ergodic.summability.status == "finite-horizon"

    def test_deterministic_oracle_adds_no_check(self):
        inst = build_instance("lasso", {})
        plain = validate_hypotheses(inst.spec, inst.schedules, 100)
        for oracle in (None, DeterministicOracle(inst.spec.B)):
            cert = validate_hypotheses(inst.spec, inst.schedules, 100, oracle=oracle)
            assert cert.checks == plain.checks and cert.summability is None

    @pytest.mark.parametrize("regime,status,ok", [("almost-sure", "violation", False),
                                                  ("ergodic", "finite-horizon", True)])
    def test_partial_minibatch(self, regime, status, ok):
        inst = build_instance("lasso", {})
        D, a = inst.least_squares
        oracle = MinibatchOracle(D, a, inst.spec.B.beta, seeds=0, batch=2)
        cert = validate_hypotheses(inst.spec, inst.schedules, 100, regime=regime,
                                   oracle=oracle)
        assert cert.ok is ok
        assert cert.checks[-1] == ConditionCheck(
            "noise summability", ok,
            "status %s: a batch of 2 of 5 rows leaves variance that does not vanish" % status)
        # Minibatch moments depend on the iterate: no noise constant for the gap.
        assert cert.summability.noise_constant(5) is None


class TestPapcStep:
    def test_hand_computed_one_dim(self):
        # B = Id (beta 1), A = 0, L = 1, gamma = tau = 0.5, zero noise,
        # x0 = 1, v0 = 0: p0 = 0.5, v1 = 0 (resolvent of A^{-1} is the zero
        # map), x1 = 0.5.
        spec = one_dim_spec()
        sched = Schedules.constant(0.5, 0.5, 1.0)
        state = PapcState(0, np.array([1.0]), np.array([0.0]))
        out = papc_step(state, spec, sched, DeterministicOracle(spec.B))
        assert out.p[0] == pytest.approx(0.5)
        assert out.v[0] == pytest.approx(0.0, abs=1e-15)
        assert out.x[0] == pytest.approx(0.5)

    def test_zero_dynamics_fixed_point(self):
        spec = zero_spec()
        sched = Schedules.constant(0.5, 0.5, 1.0)
        state = PapcState(0, np.array([0.3, -0.7]), np.zeros(2))
        out = papc_step(state, spec, sched, DeterministicOracle(spec.B))
        np.testing.assert_array_equal(out.x, state.x)
        np.testing.assert_array_equal(out.v, state.v)
        # With A = 0 the dual block collapses: any nonzero v is mapped to 0
        # (the inverse of the zero operator has domain {0}); x stays fixed.
        other = papc_step(PapcState(0, state.x, np.array([0.2, 0.1])), spec, sched,
                          DeterministicOracle(spec.B))
        np.testing.assert_array_equal(other.x, state.x)
        np.testing.assert_array_equal(other.v, np.zeros(2))

    def test_saddle_point_is_fixed_point(self):
        inst = build_instance("cls", {})
        x, v = oracle_solution(inst)
        state = PapcState(0, x, v)
        out = papc_step(state, inst.spec, inst.schedules, DeterministicOracle(inst.spec.B))
        assert np.linalg.norm(out.x - x) <= 1e-10
        assert np.linalg.norm(out.v - v) <= 1e-10

    def test_one_sample_shared_by_both_lines(self):
        calls = []

        class CountingOracle:
            is_deterministic = True

            def sample(self, x, n):
                calls.append(n)
                return np.zeros(1)

        spec = one_dim_spec()
        sched = Schedules.constant(0.5, 0.5, 1.0)
        papc_step(PapcState(0, np.array([1.0]), np.array([0.0])), spec, sched,
                  CountingOracle())
        assert calls == [0]

    @pytest.mark.parametrize("name,params", [("lasso", {}), ("multi", {}),
                                             ("fused", {"dim": "40"})])
    def test_carried_adjoint_is_a_fresh_one(self, rng, name, params):
        # A step applies L* once: the state it returns carries L* v_{n+1},
        # and stepping from it is bitwise stepping from a state without it.
        inst = build_instance(name, params)
        spec, oracle = inst.spec, DeterministicOracle(inst.spec.B)
        start = PapcState(0, rng.standard_normal((3, spec.B.dim)),
                          rng.standard_normal((3, spec.A.dim)))
        one = papc_step(start, spec, inst.schedules, oracle)
        assert one.adj_v.tobytes() == spec.L.adjoint(one.v).tobytes()
        carried = papc_step(one, spec, inst.schedules, oracle)
        fresh = papc_step(PapcState(one.n, one.x, one.v), spec, inst.schedules, oracle)
        for field in ("x", "v", "p", "adj_v"):
            assert getattr(carried, field).tobytes() == getattr(fresh, field).tobytes(), field

    def test_divergence_detected(self):
        spec = one_dim_spec()
        sched = Schedules.constant(1e6, 0.5, 1e7)  # absurd step, explodes via overflow
        oracle = DeterministicOracle(CocoerciveMap(1, lambda x: x * 1e300, beta=1.0))
        state = PapcState(0, np.array([1e300]), np.array([0.0]))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            for _ in range(10):
                state = papc_step(state, spec, sched, oracle)

    def test_divergence_detected_under_the_warning_filter(self):
        # The same run as above without the caller's errstate: the overflow
        # warning is what the error::RuntimeWarning filter makes an error.
        spec = one_dim_spec()
        sched = Schedules.constant(1e6, 0.5, 1e7)
        oracle = DeterministicOracle(CocoerciveMap(1, lambda x: x * 1e300, beta=1.0))
        state = PapcState(0, np.array([1e300]), np.array([0.0]))
        with pytest.raises(RuntimeWarning, match="overflow"):
            for _ in range(10):
                state = papc_step(state, spec, sched, oracle)

    def test_nonscalar_metric_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ProblemSpec(
                B=CocoerciveMap(2, lambda x: x, beta=1.0),
                A=MonotoneBlock.zero(2),
                L=LinearMap.identity(2),
                P_V=OrthoProjector.full(2),
                U=SpdOperator([1.0, 2.0], [1, 1]),
            )

    def test_misaligned_block_metric_rejected(self):
        # U's blocks (1 | 2) do not match A's product layout (2 | 1).
        A = ProductMonotoneBlock((MonotoneBlock.zero(2), MonotoneBlock.zero(1)), (2, 1))
        with pytest.raises(DimensionMismatchError):
            ProblemSpec(
                B=CocoerciveMap(2, lambda x: x, beta=1.0),
                A=A,
                L=LinearMap.from_matrix(np.ones((3, 2))),
                P_V=OrthoProjector.full(2),
                U=SpdOperator([1.0, 2.0], [1, 2]),
            )


class TestDualResolvent:
    @pytest.mark.parametrize("lam", [0.05, 1.0, 7.0])
    def test_block_scalar_equals_per_block_identity(self, rng, lam):
        # multi's three blocks carry three distinct sigma_i.
        spec = build_instance("multi", {}).spec
        sigmas = [sigma for _, _, sigma in spec.U.blocks]
        assert len(set(sigmas)) == 3
        w = 3.0 * rng.standard_normal((5, spec.A.dim))
        w[2] = np.nan
        want = np.concatenate([inverse_resolvent(blk, lam * sigma, w[..., s:e])
                               for blk, (s, e, sigma) in zip(spec.A.blocks, spec.U.blocks)],
                              axis=-1)
        got = dual_resolvent(spec, lam, w)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.isnan(got[2]).all() and np.isfinite(np.delete(got, 2, axis=0)).all()
        assert dual_resolvent(spec, lam, w[0]).tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("lam", [0.05, 1.0, 7.0])
    @pytest.mark.parametrize("name,params", [("lasso", {}), ("fused", {"dim": "500"}),
                                             ("cls", {})])
    def test_single_block_equals_inverse_resolvent(self, rng, name, params, lam):
        # One A is U's one block: the identity at lam * sigma on all of w.
        spec = build_instance(name, params).spec
        (_, _, sigma), = spec.U.blocks
        w = 3.0 * rng.standard_normal((20, spec.A.dim))
        w[2] = np.nan
        want = inverse_resolvent(spec.A, lam * sigma, w)
        got = dual_resolvent(spec, lam, w)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.isnan(got[2]).all() and np.isfinite(np.delete(got, 2, axis=0)).all()
        assert (dual_resolvent(spec, lam, w[0]).tobytes()
                == inverse_resolvent(spec.A, lam * sigma, w[0]).tobytes())

    def test_block_scalar_rejects_nonpositive_lam(self):
        spec = build_instance("multi", {}).spec
        with pytest.raises(ValueError):
            dual_resolvent(spec, 0.0, np.zeros(spec.A.dim))


def saddle_spec(g):
    """The one-dimensional saddle problem of g: A is the subdifferential of g."""
    return one_dim_spec(A=MonotoneBlock.from_prox(g), g=g)


class TestSaddleStep:
    # papc_step on A = the subdifferential of g: the dual line is the
    # conjugate prox of g.
    def test_zero_g_pins_dual_to_zero(self):
        # g = 0 has g* = indicator of {0}, so v_{n+1} = 0 regardless of input.
        spec = saddle_spec(zero_prox(1))
        sched = Schedules.constant(0.5, 0.5, 1.0)
        state = PapcState(0, np.array([2.0]), np.array([5.0]))
        out = papc_step(state, spec, sched, DeterministicOracle(spec.B))
        assert out.v[0] == pytest.approx(0.0, abs=1e-15)

    def test_singleton_g_gives_free_update(self):
        # Negative control: g = indicator of {0} has g* = 0, so the dual
        # update is the unclipped w = v + (tau/gamma) U L p.
        spec = saddle_spec(singleton(0.0, dim=1))
        sched = Schedules.constant(0.5, 0.5, 1.0)
        state = PapcState(0, np.array([2.0]), np.array([5.0]))
        out = papc_step(state, spec, sched, DeterministicOracle(spec.B))
        expected_p = 2.0 - 0.5 * (5.0 + 2.0)
        assert out.v[0] == pytest.approx(5.0 + 1.0 * expected_p)

    def test_quadratic_g_closed_form(self):
        # g = 0.5|.|^2: g* = g, dual update is w / (1 + lam).
        spec = saddle_spec(sq_dist(0.0, dim=1))
        sched = Schedules.constant(0.5, 0.5, 1.0)
        state = PapcState(0, np.array([2.0]), np.array([1.0]))
        out = papc_step(state, spec, sched, DeterministicOracle(spec.B))
        p = 2.0 - 0.5 * (1.0 + 2.0)
        w = 1.0 + 1.0 * p
        assert out.v[0] == pytest.approx(w / 2.0)

    def test_lasso_first_step_by_hand(self):
        # One step from zeros on a 2-d lasso: p0 = -gamma*grad h(0),
        # w = (tau/gamma) p0, v1 = clamp(w, weight), x1 = -gamma*(v1 + grad).
        D = np.eye(2)
        a = np.array([3.0, 0.1])
        h = quadratic_ls(D, a)
        g = l1(1.0, 2)
        spec = ProblemSpec(B=gradient_map(h, 1.0), A=MonotoneBlock.from_prox(g),
                           L=LinearMap.identity(2), P_V=OrthoProjector.full(2),
                           U=SpdOperator.scalar_op(1.0, 2), g=g, h=h)
        sched = Schedules.constant(0.5, 0.8, 1.0)
        out = papc_step(PapcState(0, np.zeros(2), np.zeros(2)), spec, sched,
                        DeterministicOracle(spec.B))
        p0 = -0.5 * (-a)
        w = (0.8 / 0.5) * p0
        v1 = np.clip(w, -1.0, 1.0)
        x1 = -0.5 * (v1 - a)
        np.testing.assert_allclose(out.p, p0, atol=1e-15)
        np.testing.assert_allclose(out.v, v1, atol=1e-15)
        np.testing.assert_allclose(out.x, x1, atol=1e-15)


class TestErgodic:
    def test_constant_sequence(self):
        acc = ErgodicAccumulator()
        c = np.array([2.0, -1.0])
        for _ in range(5):
            acc = ergodic_update(acc, 0.3, c, c)
        np.testing.assert_allclose(acc.x_avg, c)

    def test_uniform_mean(self):
        acc = ErgodicAccumulator()
        acc = ergodic_update(acc, 1.0, np.array([0.0]), np.array([0.0]))
        acc = ergodic_update(acc, 1.0, np.array([2.0]), np.array([0.0]))
        assert acc.x_avg[0] == pytest.approx(1.0)

    def test_weighted_mean(self):
        acc = ErgodicAccumulator()
        acc = ergodic_update(acc, 1.0, np.array([0.0]), np.array([0.0]))
        acc = ergodic_update(acc, 0.5, np.array([3.0]), np.array([0.0]))
        assert acc.x_avg[0] == pytest.approx(1.0)

    def test_matches_offline_recomputation(self, rng):
        xs = rng.standard_normal((60, 3))
        vs = rng.standard_normal((60, 2))
        gammas = rng.uniform(0.1, 1.0, size=60)
        acc = ErgodicAccumulator()
        for g, x, v in zip(gammas, xs, vs):
            acc = ergodic_update(acc, g, x, v)
        offline_x = (gammas[:, None] * xs).sum(axis=0) / gammas.sum()
        offline_v = (gammas[:, None] * vs).sum(axis=0) / gammas.sum()
        assert np.max(np.abs(acc.x_avg - offline_x)) <= 1e-12 * (1 + np.abs(offline_x).max())
        assert np.max(np.abs(acc.v_avg - offline_v)) <= 1e-12 * (1 + np.abs(offline_v).max())

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            ergodic_update(ErgodicAccumulator(), 0.0, np.zeros(1), np.zeros(1))

    def test_run_checkpoints_are_snapshots(self):
        # run averages in place, so each checkpoint must hold its own copy:
        # the average of x_1..x_{N+1}, v_1..v_{N+1} as ergodic_update folds it.
        inst = build_instance("lasso", {})
        spec = inst.spec
        rec = run(spec, inst.schedules, DeterministicOracle(spec.B), np.zeros(spec.B.dim),
                  np.zeros(spec.A.dim), 30, checkpoints=(0, 5, 29))
        assert [cp.N for cp in rec.checkpoints] == [0, 5, 29]
        for cp in rec.checkpoints:
            acc = ErgodicAccumulator()
            for n in range(cp.N + 1):
                ergodic_update(acc, rec.gammas[n], rec.xs[n + 1], rec.vs[n + 1])
            assert cp.x_avg.tobytes() == acc.x_avg.tobytes()
            assert cp.v_avg.tobytes() == acc.v_avg.tobytes()
            assert cp.sum_gamma == acc.weight_sum


class TestRun:
    def test_constant_trace_on_zero_problem(self):
        spec = zero_spec()
        sched = Schedules.constant(0.5, 0.5, 1.0)
        rec = run(spec, sched, DeterministicOracle(spec.B), np.array([1.0, 2.0]),
                  np.zeros(2), 50)
        assert np.all(rec.xs == rec.xs[0])
        assert not rec.stochastic

    def test_projection_invariant_along_trace(self):
        inst = build_instance("cls", {})
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.ones(inst.spec.B.dim), np.zeros(inst.spec.A.dim), 200)
        for x in rec.xs[::20]:
            assert norm(x - inst.spec.P_V(x)) <= 1e-10 * (1 + norm(x))

    def test_x0_projected_at_init(self):
        inst = build_instance("cls", {})
        x0 = np.ones(inst.spec.B.dim)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B), x0,
                  np.zeros(inst.spec.A.dim), 1)
        np.testing.assert_allclose(rec.xs[0], inst.spec.P_V(x0), atol=1e-15)

    def test_checkpoints_and_grad_gap(self):
        inst = build_instance("lasso", {})
        x, v = oracle_solution(inst)
        rec = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.zeros(5), np.zeros(5), 100, checkpoints=(0, 9, 99),
                  grad_gap_reference=x)
        assert [cp.N for cp in rec.checkpoints] == [0, 9, 99]
        # checkpoint 0 averages a single iterate
        one = run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                  np.zeros(5), np.zeros(5), 1)
        np.testing.assert_allclose(rec.checkpoints[0].x_avg, one.terminal_x, atol=1e-15)
        assert rec.grad_gap_partial is not None
        assert np.all(np.diff(rec.grad_gap_partial) >= 0)

    def test_negative_checkpoint_rejected(self):
        # The checkpoint iterator waited at -1 forever, so every later
        # checkpoint was silently dropped.
        spec = zero_spec()
        with pytest.raises(ValueError, match="checkpoints must be nonnegative"):
            run(spec, Schedules.constant(0.5, 0.5, 1.0), DeterministicOracle(spec.B),
                np.zeros(2), np.zeros(2), 50, checkpoints=(-1, 10, 20))

    def test_divergence_keeps_partial_trace(self):
        spec = one_dim_spec()
        sched = Schedules.constant(1e8, 0.5, 1e9)
        oracle = DeterministicOracle(CocoerciveMap(1, lambda x: x * 1e160, beta=1.0))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            run(spec, sched, oracle, np.array([1e160]), np.zeros(1), 50)
        assert exc.value.record is not None
        assert exc.value.record.diverged

    def test_stride_for_long_horizons(self):
        spec = zero_spec()
        rec = run(spec, Schedules.constant(0.5, 0.5, 1.0), DeterministicOracle(spec.B),
                  np.zeros(2), np.zeros(2), 200001)
        assert rec.stride == 3
        assert rec.ns[-1] == 200001


class FixedOracle:
    """r_n = ``scale`` x_n, except the rows ``poison`` of an (S, d) x_n at
    step ``at``, which are ``value``."""

    is_deterministic = True

    def __init__(self, scale=1.0, poison=(), at=0, value=np.nan):
        self.scale, self.poison, self.at, self.value = scale, tuple(poison), at, value

    def sample(self, x, n):
        r = self.scale * x
        if n == self.at and x.ndim == 2:
            for i in self.poison:
                r[i] = self.value
        return r


def ignoring_map():
    """A matrix-free L: R^2 -> R^1 that reads coordinate 0 and ignores 1."""
    def adjoint(y):
        return np.concatenate([y, np.zeros(y.shape[:-1] + (1,))], axis=-1)
    return LinearMap(lambda x: x[..., :1], adjoint, 2, 1, name="ignoring")


def free_dual_spec(L=None):
    """A 2-d spec with B = Id whose dual step is the free update
    v_{n+1} = w (g the indicator of {0}, so A^{-1} = 0)."""
    L = L if L is not None else LinearMap.identity(2)
    g = singleton(0.0, dim=L.codomain_dim)
    return ProblemSpec(B=CocoerciveMap(2, lambda x: x, beta=1.0),
                       A=MonotoneBlock.from_prox(g), L=L, P_V=OrthoProjector.full(2),
                       U=SpdOperator.scalar_op(1.0, L.codomain_dim), g=g)


def rows3(bad, healthy=(0.5, -0.25)):
    """Three rows: ``healthy`` in rows 0 and 2, ``bad`` in row 1."""
    return np.array([healthy, bad, healthy], dtype=float)


# (quantity, spec, schedule, oracle, x, v, errstate kwargs): a step whose
# first non-finite quantity is ``quantity``, in row 1 only.
DIVERGENT_STEPS = {
    # NaN and inf samples; after an inf one the step meets inf - inf.
    "r_n-nan": ("r_n", free_dual_spec(), (0.5, 1.0, 1.0), FixedOracle(poison=[1]),
                rows3([1.0, 2.0]), np.zeros((3, 2)), {}),
    "r_n-inf": ("r_n", free_dual_spec(), (0.5, 1.0, 1.0),
                FixedOracle(poison=[1], value=np.inf), rows3([1.0, 2.0]),
                np.zeros((3, 2)), {}),
    # L* v_n + r_n overflows: 1.5e308 + 1.5e308.
    "p_n-overflow": ("p_n", free_dual_spec(), (0.5, 1.0, 1.0), FixedOracle(),
                     rows3([1.5e308, 0.0]), rows3([1.5e308, 0.0], (0.0, 0.0)),
                     {"over": "ignore"}),
    # p_n overflows in the coordinate L ignores: (1 + gamma) x_n with r_n = -x_n.
    "p_n-ignored-coordinate": ("p_n", free_dual_spec(L=ignoring_map()), (0.5, 1.0, 1.0),
                               FixedOracle(scale=-1.0), rows3([0.0, 1.5e308]),
                               np.zeros((3, 1)), {"over": "ignore"}),
    # L p_n overflows: 4 * 1e308, with r_n = 0.
    "v_{n+1}": ("v_{n+1}", free_dual_spec(L=LinearMap.from_matrix(4.0 * np.eye(2))),
                (0.5, 0.5, 1.0), FixedOracle(scale=0.0), rows3([1e308, 0.0]),
                np.zeros((3, 2)), {"over": "ignore"}),
    # p_n = 0.75e308 and v_{n+1} = 1.5e308 are finite, L* v_{n+1} + r_n is not.
    "x_{n+1}": ("x_{n+1}", free_dual_spec(), (0.5, 1.0, 1.0), FixedOracle(),
                rows3([1.5e308, 0.0]), np.zeros((3, 2)), {"over": "ignore"}),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStepChecks:
    """A step checks v_{n+1} and x_{n+1} only, with floating-point errors
    raised, and takes itself again with four checks when that fails: the
    error names the first non-finite quantity and its rows, as four checks
    in a row would."""

    @pytest.mark.parametrize("case", sorted(DIVERGENT_STEPS))
    def test_error_names_the_first_nonfinite_quantity(self, case):
        quantity, spec, (gamma0, tau0, beta), oracle, x, v, errs = DIVERGENT_STEPS[case]
        sched = Schedules.constant(gamma0, tau0, beta)
        with np.errstate(**errs), pytest.raises(DivergenceError) as exc:
            papc_step(PapcState(0, x, v), spec, sched, oracle)
        assert str(exc.value) == "non-finite values in %s at iteration 0" % quantity
        assert exc.value.rows.tolist() == [1]
        # Each healthy row alone takes the step without an error.
        for i in (0, 2):
            papc_step(PapcState(0, x[i], v[i]), spec, sched, oracle)


# The zoo's specs, with the P_V and U calls a step makes: lasso and fused
# have a full P_V and a unit U, cls projects onto a basis, multi's stacked
# spec scales each block by its sigma_i and its lifted spec also averages.
ZOO_SPECS = {
    "lasso": (lambda: build_instance("lasso", {}).spec, 0, 0),
    "fused": (lambda: build_instance("fused", {}).spec, 0, 0),
    "cls": (lambda: build_instance("cls", {}).spec, 2, 0),
    "multi": (lambda: build_instance("multi", {}).spec, 0, 1),
    "multi-lifted": (lambda: build_instance("multi", {}).lifted, 2, 1),
}


@pytest.mark.parametrize("name", sorted(ZOO_SPECS))
def test_operator_calls_per_step(monkeypatch, name):
    # A step with L* v_n carried applies L and L* once each, a full P_V and
    # a unit U never, and draws one sample; only the spec's own operators
    # are counted.
    make, projections, preconditions = ZOO_SPECS[name]
    spec = make()
    calls = {"L": 0, "L*": 0, "P_V": 0, "U": 0, "sample": 0}
    owners = {"L": spec.L, "L*": spec.L, "P_V": spec.P_V, "U": spec.U}
    for label, cls, attr in (("L", LinearMap, "__call__"), ("L*", LinearMap, "adjoint"),
                             ("P_V", OrthoProjector, "__call__"), ("U", SpdOperator, "apply")):
        def counted(self, arg, label=label, original=getattr(cls, attr)):
            if self is owners[label]:
                calls[label] += 1
            return original(self, arg)
        monkeypatch.setattr(cls, attr, counted)

    class CountingOracle(DeterministicOracle):
        def sample(self, x, n):
            calls["sample"] += 1
            return super().sample(x, n)

    sched = Schedules.constant(0.5 * spec.B.beta, 0.1, spec.B.beta)
    oracle = CountingOracle(spec.B)
    state = papc_step(PapcState(0, np.zeros(spec.B.dim), np.zeros(spec.A.dim)), spec,
                      sched, oracle)
    assert state.adj_v is not None
    calls.update(dict.fromkeys(calls, 0))
    papc_step(state, spec, sched, oracle)
    assert calls == {"L": 1, "L*": 1, "P_V": projections, "U": preconditions, "sample": 1}
