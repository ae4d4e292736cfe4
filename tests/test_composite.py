import dataclasses

import numpy as np
import pytest

from papc import composite
from papc.composite import (DENSE_STACK_ENTRIES, CompositeBlock, CompositeProblem,
                            composite_dual_residuals, lift, stack)
from papc.config import parse_config
from papc.errors import DimensionMismatchError
from papc.linop import LinearMap, norm, write_matrix
from papc.runner import bind
from papc.monotone import (MonotoneBlock, gradient_map, l1, quadratic_lipschitz, quadratic_ls,
                           sq_dist, zero_prox)
from papc.solver import PapcState, Schedules, papc_step, run, validate_hypotheses
from papc.stochastic import DeterministicOracle, GaussianOracle, VarianceSchedule
from papc.zoo import build_instance, oracle_solution

from checks import (ReplicatedOracle, adjoint_consistency_check, cocoercivity_check,
                    lift_flat_equivalence)


def single_block_problem(dim=3, seed=2):
    rng = np.random.default_rng(seed)
    D = np.eye(dim) + 0.2 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    h = quadratic_ls(D, rng.standard_normal(dim))
    g = l1(0.5, dim)
    block = CompositeBlock(L=LinearMap.identity(dim), A=MonotoneBlock.from_prox(g),
                           sigma=1.0, g=g)
    cp = CompositeProblem(weights=np.array([1.0]), C=gradient_map(h, quadratic_lipschitz(D)),
                          blocks=(block,), h=h)
    return cp, Schedules.constant(0.9 * cp.C.beta, 0.9, cp.C.beta)


class TestLift:
    def test_single_block_is_base_problem(self):
        cp, _ = single_block_problem()
        lifted = lift(cp)
        assert lifted.B.dim == cp.base_dim
        x = np.array([0.3, -0.2, 0.9])
        np.testing.assert_array_equal(lifted.P_V(x), x)  # V = H for m = 1

    def test_averaging_examples(self):
        cp = build_instance("multi", {}).composite
        # uniform two-block mean is checked at the projector level in linop;
        # here: the lifted diagonal is fixed by the weighted averaging.
        bold = np.tile(np.arange(cp.base_dim, dtype=float), cp.m)
        np.testing.assert_allclose(lift(cp).P_V(bold), bold, atol=1e-14)

    def test_lifted_cocoercivity_constant(self):
        inst = build_instance("multi", {})
        rep = cocoercivity_check(inst.lifted.B, pairs=200, rng=13)
        assert rep.passed

    def test_blockwise_resolvent_of_lifted_dual(self):
        inst = build_instance("multi", {})
        cp = inst.composite
        v = np.random.default_rng(0).standard_normal(sum(cp.dual_dims))
        out = inst.lifted.A.resolvent(0.7, v)
        parts = [blk.A.resolvent(0.7, vi) for blk, vi in zip(cp.blocks, cp.split_dual(v))]
        np.testing.assert_array_equal(out, np.concatenate(parts))

    def test_weights_must_sum_to_one(self):
        cp, _ = single_block_problem()
        with pytest.raises(DimensionMismatchError):
            CompositeProblem(weights=np.array([0.5, 0.4]), C=cp.C,
                             blocks=cp.blocks * 2, h=cp.h)

    def test_zero_weight_rejected(self):
        cp, _ = single_block_problem()
        with pytest.raises(DimensionMismatchError):
            CompositeProblem(weights=np.array([1.0, 0.0]), C=cp.C,
                             blocks=cp.blocks * 2, h=cp.h)

    def test_zero_coupling_rejected(self):
        cp, _ = single_block_problem()
        bad = CompositeBlock(L=LinearMap.from_matrix(np.zeros((3, 3))),
                             A=MonotoneBlock.zero(3), sigma=1.0)
        with pytest.raises(DimensionMismatchError):
            CompositeProblem(weights=np.array([1.0]), C=cp.C, blocks=(bad,))


CUSTOM_COMPOSITE = """
[problem]
name = custom_composite
dim = 4
h = sq_dist(b=0.5)
block1.g = l1(weight=0.3)
block1.L = identity
block1.omega = 0.6
block2.g = sq_dist(b=0.1)
block2.L = matrix:M.txt
block2.omega = 0.4
block2.sigma = 0.5
"""


def custom_composite(tmp_path):
    write_matrix(tmp_path / "M.txt", np.random.default_rng(8).standard_normal((3, 4)))
    return bind(parse_config(CUSTOM_COMPOSITE, base_dir=str(tmp_path))).instance.composite


def matrix_free_stack(cp, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(composite, "DENSE_STACK_ENTRIES", 0)
        return stack(cp)


class TestStack:
    def test_stacked_adjoint_consistent(self):
        cp = build_instance("multi", {}).composite
        assert stack(cp).L.matrix is not None
        assert adjoint_consistency_check(stack(cp).L, 100, rng=3)

    @pytest.mark.parametrize("problem", ["multi", "custom_composite"])
    def test_dense_stack_matches_matrix_free(self, tmp_path, monkeypatch, problem):
        cp = (build_instance("multi", {}).composite if problem == "multi"
              else custom_composite(tmp_path))
        dense, free = stack(cp).L, matrix_free_stack(cp, monkeypatch).L
        assert dense.matrix is not None and free.matrix is None
        assert adjoint_consistency_check(dense, 100, rng=5)
        rng = np.random.default_rng(6)
        for f, g, dim in ((dense, free, dense.domain_dim),
                          (dense.adjoint, free.adjoint, dense.codomain_dim)):
            z = 3.0 * rng.standard_normal((5, dim))
            want = g(z)
            bound = 1e-15 * (1.0 + np.linalg.norm(want, axis=-1))
            assert np.all(np.max(np.abs(f(z) - want), axis=-1) <= bound)

    def test_wide_stack_stays_matrix_free(self):
        cp = build_instance("multi", {"dim": "60"}).composite
        assert sum(cp.dual_dims) * cp.base_dim > DENSE_STACK_ENTRIES
        L = stack(cp).L
        assert L.matrix is None
        assert adjoint_consistency_check(L, 20, rng=3)


class TestCompositeStep:
    def test_m1_bitwise_equals_papc_step(self):
        cp, sched = single_block_problem()
        spec = stack(cp)
        lifted = lift(cp)
        oracle = GaussianOracle(cp.C, VarianceSchedule.polynomial(1.0, 1.0), seeds=3)
        lifted_oracle = ReplicatedOracle(GaussianOracle(
            cp.C, VarianceSchedule.polynomial(1.0, 1.0), seeds=3), 1, cp.base_dim)
        a = PapcState(0, np.zeros(3), np.zeros(3))
        b = PapcState(0, np.zeros(3), np.zeros(3))
        for _ in range(50):
            a = papc_step(a, spec, sched, oracle)
            b = papc_step(b, lifted, sched, lifted_oracle)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.v, b.v)

    def test_zero_operators_fixed_point(self):
        dim = 2
        h = quadratic_ls(np.zeros((1, dim)), np.zeros(1))  # h = 0
        g = zero_prox(dim)
        blk = CompositeBlock(L=LinearMap.identity(dim), A=MonotoneBlock.zero(dim),
                             sigma=1.0, g=g)
        cp = CompositeProblem(weights=np.array([1.0]),
                              C=gradient_map(h, 1.0), blocks=(blk,), h=h)
        sched = Schedules.constant(0.5, 0.5, 1.0)
        st = PapcState(0, np.array([0.4, -0.1]), np.zeros(dim))
        out = papc_step(st, stack(cp), sched, DeterministicOracle(cp.C))
        np.testing.assert_array_equal(out.x, st.x)
        np.testing.assert_array_equal(out.v, st.v)

    def test_multi_one_step_matches_lifted(self):
        inst = build_instance("multi", {})
        cp = inst.composite
        flat = papc_step(PapcState(0, np.zeros(cp.base_dim), np.zeros(sum(cp.dual_dims))),
                         inst.spec, inst.schedules, DeterministicOracle(cp.C))
        lifted = inst.lifted
        bold = papc_step(PapcState(0, np.zeros(lifted.B.dim), np.zeros(lifted.A.dim)),
                         lifted, inst.schedules,
                         ReplicatedOracle(DeterministicOracle(cp.C), cp.m, cp.base_dim))
        np.testing.assert_allclose(bold.x[:cp.base_dim], flat.x, atol=1e-14)
        np.testing.assert_allclose(bold.v, flat.v, atol=1e-14)


class TestEquivalence:
    def test_multi_100_steps_three_seeds(self):
        inst = build_instance("multi", {})
        for seed in (0, 1, 2):
            dev = lift_flat_equivalence(inst.composite, inst.schedules, seed, 100,
                                        noise=VarianceSchedule.polynomial(1.0, 1.0))
            assert dev <= 1e-12, dev

    def test_m1_exactly_zero(self):
        cp, sched = single_block_problem()
        dev = lift_flat_equivalence(cp, sched, 0, 100)
        assert dev == 0.0

    def test_mismatched_weights_is_loud(self):
        inst = build_instance("multi", {})
        cp = inst.composite
        wrong = CompositeProblem(weights=np.array([0.2, 0.3, 0.5]), C=cp.C,
                                 blocks=cp.blocks, h=cp.h)
        lifted_right = lift(cp)
        oracle = DeterministicOracle(cp.C)
        rep = ReplicatedOracle(DeterministicOracle(cp.C), cp.m, cp.base_dim)
        flat = PapcState(0, np.zeros(cp.base_dim), np.zeros(sum(cp.dual_dims)))
        bold = PapcState(0, np.zeros(lifted_right.B.dim), np.zeros(lifted_right.A.dim))
        wrong_spec = stack(wrong)
        for _ in range(20):
            flat = papc_step(flat, wrong_spec, inst.schedules, oracle)
            bold = papc_step(bold, lifted_right, inst.schedules, rep)
        dev = np.max(np.abs(bold.x[:cp.base_dim] - flat.x))
        assert dev > 1e-6


class TestStructuredMin:
    def test_zero_gs_reduce_to_gradient_descent(self):
        dim = 3
        rng = np.random.default_rng(4)
        D = np.eye(dim) + 0.1 * rng.standard_normal((dim, dim))
        h = quadratic_ls(D, rng.standard_normal(dim))
        g = zero_prox(dim)
        blocks = tuple(
            CompositeBlock(L=LinearMap.identity(dim), A=MonotoneBlock.from_prox(g),
                           sigma=1.0, g=g)
            for _ in range(2))
        cp = CompositeProblem(weights=np.array([0.6, 0.4]),
                              C=gradient_map(h, quadratic_lipschitz(D)),
                              blocks=blocks, h=h)
        sched = Schedules.constant(0.9 * cp.C.beta, 0.5, cp.C.beta)
        st = PapcState(0, rng.standard_normal(dim), np.zeros(2 * dim))
        out = papc_step(st, stack(cp), sched, DeterministicOracle(cp.C))
        gamma = sched.gamma0
        np.testing.assert_allclose(out.x, st.x - gamma * cp.C.apply(st.x), atol=1e-14)
        np.testing.assert_array_equal(out.v, np.zeros(2 * dim))

    def test_m1_l1_matches_single_block(self):
        from papc.solver import ProblemSpec
        from papc.linop import OrthoProjector, SpdOperator
        cp, sched = single_block_problem()
        spec = ProblemSpec(B=cp.C, A=cp.blocks[0].A, L=cp.blocks[0].L,
                           P_V=OrthoProjector.full(cp.base_dim),
                           U=SpdOperator.scalar_op(1.0, cp.base_dim),
                           g=cp.blocks[0].g, h=cp.h)
        stacked = stack(cp)
        oracle = DeterministicOracle(cp.C)
        a = PapcState(0, np.zeros(3), np.zeros(3))
        b = PapcState(0, np.zeros(3), np.zeros(3))
        for _ in range(30):
            a = papc_step(a, stacked, sched, oracle)
            b = papc_step(b, spec, sched, oracle)
            assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)


class TestValidateComposite:
    def test_multi_passes(self):
        inst = build_instance("multi", {})
        cert = validate_hypotheses(inst.spec, inst.schedules, 200)
        assert cert.ok, cert.failed()

    def test_gamma_above_mu_fails(self):
        inst = build_instance("multi", {})
        bad = Schedules.constant(2.0 * inst.composite.C.beta, 0.9, inst.composite.C.beta)
        cert = validate_hypotheses(inst.spec, bad, 50)
        assert any("beta" in c.name for c in cert.failed())

    def test_oversized_tau_fails_blockwise(self):
        inst = build_instance("multi", {})
        bad = Schedules.constant(0.5 * inst.composite.C.beta, 5.0,
                                 inst.composite.C.beta)
        cert = validate_hypotheses(inst.spec, bad, 50)
        assert any("block" in c.name for c in cert.failed())

    def test_block_checks_reject_what_the_stacked_check_passes(self):
        # The stacked estimate (0.86 on multi) lies below the per-block ones (1
        # each, since sigma_i normalizes every block), so tau = 1.05 passes the
        # stacked spectral check and must fail on the blocks.
        inst = build_instance("multi", {})
        beta = inst.composite.C.beta
        cert = validate_hypotheses(inst.spec, Schedules.constant(0.9 * beta, 1.05, beta), 50)
        failed = [c.name for c in cert.failed()]
        assert "tau spectral condition" not in failed
        assert any(name.startswith("block") for name in failed)


    def test_zero_dual_weight_fails_its_block(self):
        # A hand-built spec can carry a block whose dual weight is 0; its
        # check fails by name instead of dividing by the weight.
        inst = build_instance("multi", {})
        spec = inst.spec
        start, stop, _ = spec.U.blocks[1]
        w = np.array(spec.dual_weights)
        w[start:stop] = 0.0
        L = LinearMap(spec.L, spec.L.adjoint, spec.L.domain_dim, spec.L.codomain_dim,
                      spec.L.domain_weights, w)
        cert = validate_hypotheses(dataclasses.replace(spec, L=L), inst.schedules, 50)
        failed = [c.name for c in cert.failed()]
        assert "block 1 spectral condition" in failed
        assert "block 0 spectral condition" not in failed


class TestDualStructure:
    def test_residuals_at_convergence(self):
        inst = build_instance("multi", {})
        cp = inst.composite
        x, v = oracle_solution(inst)
        combined, per_block = composite_dual_residuals(cp, x, v)
        assert combined <= 1e-6
        assert max(per_block) <= 1e-6

    def test_stacked_run_reaches_structure(self):
        inst = build_instance("multi", {})
        cp = inst.composite
        rec = run(inst.spec, inst.schedules, DeterministicOracle(cp.C),
                  np.zeros(cp.base_dim), np.zeros(sum(cp.dual_dims)), 5000)
        combined, per_block = composite_dual_residuals(cp, rec.terminal_x, rec.terminal_v)
        assert combined <= 1e-6 and max(per_block) <= 1e-6
