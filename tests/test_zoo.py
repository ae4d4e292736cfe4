import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from papc import config, zoo as zoo_module
from papc.diagnostics import kkt_residual
from papc.errors import ConfigError, OracleError
from papc.solver import PapcState, papc_step, validate_hypotheses
from papc.stochastic import DeterministicOracle
from papc.zoo import (build_instance, cls_kkt_oracle, lasso_sign_oracle, long_run_oracle,
                      oracle_solution, zoo)

from checks import difference_matrix

ALL_NAMES = ("cls", "lasso", "fused", "multi")


def _fingerprint(inst):
    """The bits of three deterministic steps of ``inst`` from a fixed start,
    which pass through each of B, A, L, L*, P_V and U."""
    spec = inst.spec
    rng = np.random.default_rng(0)
    state = PapcState(0, spec.P_V(rng.standard_normal(spec.B.dim)),
                      rng.standard_normal(spec.A.dim))
    oracle = DeterministicOracle(spec.B)
    for _ in range(3):
        state = papc_step(state, spec, inst.schedules, oracle)
    return state.x.tobytes(), state.v.tobytes(), spec.B.beta


class TestRegistry:
    def test_contains_required_problems(self):
        names = set(zoo())
        assert set(ALL_NAMES) <= names

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigError, match="cls"):
            build_instance("nope", {})

    def test_registry_holds_every_configurable_problem(self):
        assert set(config._PROBLEM_KEYS) == set(zoo())

    # Parameters a problem needs beyond its defaults to build at all.
    NEEDS = {"custom": {"h": "sq_dist(b=1.0)"},
             "custom_composite": {"h": "sq_dist(b=1.0)", "block1.g": "l1(weight=0.3)",
                                  "block1.omega": "1"}}

    @pytest.mark.parametrize("name", sorted(config._PROBLEM_KEYS))
    def test_default_text_builds_the_default_problem(self, name):
        # Every key written at its declared default builds, bit for bit, what
        # leaving it out builds: no builder keeps a default of its own.
        given = self.NEEDS.get(name, {})
        values = config.problem_values(name, given)
        spelled = dict(given, **{key: str(value) for key, value in values.items()
                                 if key not in given and value is not None})
        assert set(spelled) - set(given)
        plain, written = build_instance(name, given), build_instance(name, spelled)
        assert plain.schedules == written.schedules
        assert _fingerprint(plain) == _fingerprint(written)

    def test_builds_share_one_reference_computation(self, monkeypatch):
        calls = []
        real = zoo_module.lasso_sign_oracle
        monkeypatch.setattr(zoo_module, "_SOLUTIONS", {})
        monkeypatch.setattr(zoo_module, "lasso_sign_oracle",
                            lambda *args: calls.append(args) or real(*args))
        first, second = build_instance("lasso", {}), build_instance("lasso", {"dim": "5"})
        assert first is not second
        assert oracle_solution(first) is oracle_solution(second)
        assert len(calls) == 1


class TestOracleSelfChecks:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_kkt_within_1e8(self, name):
        inst = build_instance(name, {})
        x, v = oracle_solution(inst)
        pres, dres = kkt_residual(x, v, inst.spec)
        assert max(pres, dres) <= 1e-8
        if inst.lifted is not None:
            # The lifted problem is the reference the composite oracle is
            # computed on; the solution must check there too.
            pres, dres = kkt_residual(np.tile(x, inst.composite.m), v, inst.lifted)
            assert max(pres, dres) <= 1e-8

    @pytest.mark.parametrize("nan_in", ["x", "v", "both"])
    def test_nan_reference_fails_the_self_check(self, nan_in):
        # Every comparison with NaN is False, so "residual > 1e-8" once let a
        # NaN pair through.
        inst = build_instance("lasso", {"dim": "3"})
        x, v = oracle_solution(inst)
        nan_x = np.full_like(x, np.nan) if nan_in in ("x", "both") else x
        nan_v = np.full_like(v, np.nan) if nan_in in ("v", "both") else v
        # A params tuple of its own keeps it out of the memo of the real instance.
        bad = dataclasses.replace(inst, params=inst.params + (("nan_in", nan_in),),
                                  oracle=lambda: (nan_x, nan_v))
        with pytest.raises(OracleError, match="oracle self-check failed for lasso"):
            oracle_solution(bad)


class TestClsExamples:
    def test_zero_data_gives_zero_solution(self):
        dim = 4
        basis = np.linalg.qr(np.random.default_rng(0).standard_normal((dim, 2)))[0]
        x, v = cls_kkt_oracle(np.eye(dim), np.zeros(dim), np.eye(dim), np.zeros(dim), basis)
        assert np.linalg.norm(x) == 0.0 and np.linalg.norm(v) == 0.0


class TestLassoExamples:
    def test_two_dim_soft_threshold_solution(self):
        # h = 0.5||x - (3, 0.1)||^2, weight 1: solution (2, 0), dual (1, 0.1).
        x, v = lasso_sign_oracle(np.eye(2), np.array([3.0, 0.1]), 1.0)
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(v, [1.0, 0.1], atol=1e-12)

    def test_cross_check_against_long_run_oracle(self):
        # Two independent oracles agree on random instances.
        rng = np.random.default_rng(21)
        for trial in range(10):
            dim = 3
            D = np.eye(dim) + 0.2 * rng.standard_normal((dim, dim)) / math.sqrt(dim)
            a = D @ (1.5 * rng.standard_normal(dim))
            weight = 0.4
            x_enum, v_enum = lasso_sign_oracle(D, a, weight)

            from papc.linop import LinearMap, OrthoProjector, SpdOperator
            from papc.monotone import (MonotoneBlock, gradient_map, l1,
                                       quadratic_lipschitz, quadratic_ls)
            from papc.solver import ProblemSpec
            h = quadratic_ls(D, a)
            g = l1(weight, dim)
            spec = ProblemSpec(B=gradient_map(h, quadratic_lipschitz(D)),
                               A=MonotoneBlock.from_prox(g),
                               L=LinearMap.identity(dim),
                               P_V=OrthoProjector.full(dim),
                               U=SpdOperator.scalar_op(1.0, dim), g=g, h=h)
            x_run, v_run = long_run_oracle(spec, spec.B.beta, 0.5, total_steps=10 ** 5,
                                           segment=10 ** 4, accept=1e-7, early_exit=1e-9)
            assert np.linalg.norm(x_run - x_enum) <= 1e-6
            assert np.linalg.norm(v_run - v_enum) <= 1e-6


class TestFusedExamples:
    def test_constant_signal_recovers_constant(self):
        # With a constant input the TV term vanishes at the optimum: the
        # solution is the constant signal itself, with zero differences.
        from papc.linop import LinearMap, OrthoProjector, SpdOperator
        from papc.monotone import MonotoneBlock, gradient_map, l1, quadratic_ls
        from papc.solver import ProblemSpec
        dim = 8
        a = np.full(dim, 1.7)
        h = quadratic_ls(np.eye(dim), a)
        g = l1(0.3, dim - 1)
        Lmat = difference_matrix(dim)
        spec = ProblemSpec(B=gradient_map(h, 1.0), A=MonotoneBlock.from_prox(g),
                           L=LinearMap.from_matrix(Lmat),
                           P_V=OrthoProjector.full(dim),
                           U=SpdOperator.scalar_op(1.0, dim - 1), g=g, h=h)
        lmax = float(np.linalg.eigvalsh(Lmat @ Lmat.T)[-1])
        x, v = long_run_oracle(spec, 1.0, 0.5 / lmax, total_steps=10 ** 5,
                               segment=10 ** 4)
        assert np.max(np.abs(Lmat @ x)) <= 1e-9
        np.testing.assert_allclose(x, a, atol=1e-8)

    def test_closed_form_step_size(self):
        # tau = 0.9 / lambda_max(L L*), with the dense eigendecomposition as the reference.
        for dim in (2, 12, 200):
            inst = build_instance("fused", {"dim": str(dim)})
            mat = difference_matrix(dim)
            lmax = float(np.linalg.eigvalsh(mat @ mat.T)[-1])
            assert inst.schedules.tau_cap == pytest.approx(0.9 / lmax, rel=1e-12)

    def test_wide_build_holds_no_square_array(self):
        # One 5000 x 5000 float array is 200 MB; the matrix-free build needs O(dim).
        tracemalloc.start()
        try:
            inst = build_instance("fused", {"dim": "5000"})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inst.spec.L.matrix is None
        assert peak < 20e6

    def test_oracle_has_piecewise_structure(self):
        inst = build_instance("fused", {})
        x, _ = oracle_solution(inst)
        diffs = np.abs(np.diff(x))
        assert np.sum(diffs < 1e-8) >= len(diffs) // 2  # mostly flat segments


class TestSchedules:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_default_schedules_certified(self, name):
        inst = build_instance(name, {})
        cert = validate_hypotheses(inst.spec, inst.schedules, 1000)
        assert cert.ok, cert.failed()


class TestSaddleFunctions:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_solution_is_saddle_point(self, name):
        # K(x_bar, v) <= K(x_bar, v_bar) <= K(x, v_bar) on probes.
        from papc.diagnostics import saddle_value
        inst = build_instance(name, {})
        spec = inst.spec
        x, v = oracle_solution(inst)
        k_star = saddle_value(spec, x, v)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x_probe = spec.P_V(x + 0.3 * rng.standard_normal(x.size))
            assert saddle_value(spec, x_probe, v) >= k_star - 1e-9
            v_probe = v + 0.3 * rng.standard_normal(v.size)
            assert saddle_value(spec, x, v_probe) <= k_star + 1e-9


class TestLongRunOracle:
    def test_rejects_when_unconverged(self):
        inst = build_instance("cls", {})
        from papc.errors import OracleError
        with pytest.raises(OracleError):
            long_run_oracle(inst.spec, inst.spec.B.beta, inst.schedules.tau_cap,
                            total_steps=3, segment=3, accept=1e-12, early_exit=1e-13)
