"""Batched evaluation: every operator a step or a trace row calls acts on the
last axis of an (S, d) array with rows that never mix, bitwise; a batched
run equals the runs of its seeds alone, and retires a diverging seed in place
without touching the others."""

import os

import numpy as np
import pytest

from papc import runner
from papc.cli import main as cli_main
from papc import composite
from papc.composite import lift, stack
from papc.diagnostics import kkt_residual
from papc.errors import DivergenceError, StepSizeViolationError
from papc.linop import LinearMap, OrthoProjector, SpdOperator, inner, norm, weighted_norm_sq
from papc.monotone import (PROX_LIBRARY, MonotoneBlock, ProductMonotoneBlock,
                           inverse_resolvent, l1, quadratic_ls)
from papc.solver import PapcState, papc_step, run
from papc.stochastic import (NOISE_BLOCK, DeterministicOracle, GaussianOracle, MinibatchOracle,
                             VarianceSchedule)
from papc.zoo import build_instance, oracle_solution

ROWS = 4


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def assert_rows(f, *batched):
    """f on (S, d) arrays equals f on each row, bit for bit."""
    out = f(*batched)
    assert len(out) == len(batched[0])
    for i in range(len(batched[0])):
        assert bits(out[i]) == bits(f(*(b[i] for b in batched))), i


def batch(rng, dim, rows=ROWS):
    return 3.0 * rng.standard_normal((rows, dim))


def maps(rng):
    dense = rng.standard_normal((4, 6))
    cp = build_instance("multi", {}).composite
    return {
        "dense": LinearMap.from_matrix(dense),
        "dense-weighted": LinearMap.from_matrix(dense, domain_weights=rng.random(6) + 0.5,
                                                codomain_weights=rng.random(4) + 0.5),
        "identity": LinearMap.identity(6),
        "zero": LinearMap.zero(6, 4),
        "difference": LinearMap.difference(6),
        # Above the dense bound the stack applies its blocks one by one.
        "stack": build_instance("multi", {"dim": "60"}).spec.L,
        "stacked-dense": build_instance("multi", {}).spec.L,
        "lifted": lift(cp).spec.L,
    }


def projectors(rng):
    return {
        "full": OrthoProjector.full(6),
        "matrix": OrthoProjector.from_matrix(OrthoProjector.from_basis(
            rng.standard_normal((6, 2))).to_dense()),
        "basis": OrthoProjector.from_basis(rng.standard_normal((6, 3))),
        "averaging": OrthoProjector.averaging(3, 2, block_weights=[0.5, 0.3, 0.2]),
    }


class TestRowsNeverMix:
    @pytest.mark.parametrize("name", ["dense", "dense-weighted", "identity", "zero",
                                      "difference", "stack", "stacked-dense", "lifted"])
    def test_linear_maps(self, rng, name):
        L = maps(rng)[name]
        assert_rows(L, batch(rng, L.domain_dim))
        assert_rows(L.adjoint, batch(rng, L.codomain_dim))

    @pytest.mark.parametrize("name", ["full", "matrix", "basis", "averaging"])
    def test_projectors(self, rng, name):
        P = projectors(rng)[name]
        assert_rows(P, batch(rng, P.dim))

    def test_spd_operators(self, rng):
        for U in (SpdOperator.scalar_op(0.7, 5), SpdOperator(rng.random(5) + 0.1, [1] * 5),
                  SpdOperator([0.5, 2.0], [2, 3])):
            for f in (U.apply, U.apply_inverse, U.sqrt_apply):
                assert_rows(f, batch(rng, 5))

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_prox_library_and_gradients(self, rng, lam):
        for name, f in PROX_LIBRARY(5).items():
            assert_rows(lambda x: f.prox(lam, x), batch(rng, 5))
            if f.gradient is not None:
                assert_rows(f.gradient, batch(rng, 5))

    def test_resolvents(self, rng):
        blocks = [MonotoneBlock.zero(5), MonotoneBlock.from_prox(l1(0.4, 5)),
                  MonotoneBlock.from_linear(np.eye(5) + 0.3 * rng.standard_normal((5, 5))),
                  ProductMonotoneBlock((MonotoneBlock.from_prox(l1(0.2, 2)),
                                        MonotoneBlock.from_linear(np.diag([1.0, 2.0, 3.0]))),
                                       (2, 3))]
        for A in blocks:
            assert_rows(lambda x: A.resolvent(0.7, x), batch(rng, 5))
            assert_rows(lambda x: inverse_resolvent(A, 0.7, x), batch(rng, 5))

    def test_zoo_gradients(self, rng):
        for name in ("cls", "lasso", "fused", "multi"):
            B = build_instance(name, {}).spec.B
            assert_rows(B.apply, batch(rng, B.dim))
        bold_B = build_instance("multi", {}).lifted.spec.B
        assert_rows(bold_B.apply, batch(rng, bold_B.dim))
        h = quadratic_ls(rng.standard_normal((7, 5)), rng.standard_normal(7))
        assert_rows(h.gradient, batch(rng, 5))

    def test_inner_and_norm(self, rng):
        w = rng.random(6) + 0.5
        for weights in (None, w):
            assert_rows(lambda x, y: inner(x, y, weights), batch(rng, 6), batch(rng, 6))
            assert_rows(lambda x: norm(x, weights), batch(rng, 6))

    @pytest.mark.parametrize("name", ["cls", "lasso", "fused", "multi"])
    def test_kkt_residual(self, rng, name):
        spec = build_instance(name, {}).spec
        xs, vs = batch(rng, spec.B.dim), batch(rng, spec.A.dim)
        pres, dres = kkt_residual(xs, vs, spec)
        for i in range(ROWS):
            p1, d1 = kkt_residual(xs[i], vs[i], spec)
            assert bits(pres[i]) == bits(p1) and bits(dres[i]) == bits(d1)

    @pytest.mark.parametrize("name", ["cls", "lasso", "fused", "multi"])
    def test_weighted_norm_sq(self, rng, name):
        inst = build_instance(name, {})
        spec = inst.spec
        tau = inst.schedules.tau_cap * (0.5 + 0.5 * rng.random(ROWS))
        gamma = inst.schedules.gamma0 * (0.5 + rng.random(ROWS))
        vs = batch(rng, spec.A.dim)
        assert_rows(lambda v, t, g: weighted_norm_sq(v, spec.U, t, g, spec.L, spec.P_V),
                    vs, tau, gamma)
        # A tau above the certified cap in rows 1 and 2: the error names row 1.
        tau[1:3] *= 50.0
        with pytest.raises(StepSizeViolationError) as alone:
            weighted_norm_sq(vs[1], spec.U, tau[1], gamma[1], spec.L, spec.P_V)
        with pytest.raises(StepSizeViolationError) as batched:
            weighted_norm_sq(vs, spec.U, tau, gamma, spec.L, spec.P_V)
        assert str(batched.value) == str(alone.value)


def zoo_run(oracle, x0_rows, horizon=40, name="lasso", **kwargs):
    inst = build_instance(name, {})
    spec = inst.spec
    x_ref, _ = oracle_solution(inst)
    shape = (x0_rows,) if x0_rows else ()
    return run(spec, inst.schedules, oracle, np.zeros(shape + (spec.B.dim,)),
               np.zeros(shape + (spec.A.dim,)), horizon, checkpoints=(0, 3, 9, 20, 39),
               grad_gap_reference=x_ref, **kwargs)


def assert_same_record(a, b):
    for field in ("ns", "xs", "vs", "gammas", "taus", "grad_gap_partial"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    assert [cp.N for cp in a.checkpoints] == [cp.N for cp in b.checkpoints]
    for ca, cb in zip(a.checkpoints, b.checkpoints):
        assert bits(ca.x_avg) == bits(cb.x_avg) and bits(ca.v_avg) == bits(cb.v_avg)
        assert ca.sum_gamma == cb.sum_gamma
    assert (a.diverged, a.error) == (b.diverged, b.error)


class PoisonedOracle:
    """A gaussian oracle whose sample for seed s turns NaN at step ``at[s]``."""

    is_deterministic = False

    def __init__(self, seeds, at):
        self.inner = GaussianOracle(build_instance("lasso", {}).spec.B,
                                    VarianceSchedule.polynomial(1.0, 1.0), seeds)
        self.at = dict(at)

    @property
    def seeds(self):
        return self.inner.seeds

    def sample(self, x, n, t=0):
        r = self.inner.sample(x, n, t)
        for i, seed in enumerate(self.seeds):
            if self.at.get(seed) == n:
                r[i] = np.nan
        return r


def solo_record(oracle, horizon=40):
    """The record of a vector run, taken from its error if it diverged."""
    try:
        return zoo_run(oracle, 0, horizon)
    except DivergenceError as exc:
        return exc.record


class TestBatchedRun:
    def test_rows_equal_solo_runs(self):
        # The horizon crosses two noise block edges.
        horizon = 2 * NOISE_BLOCK + 5
        noise = VarianceSchedule.polynomial(1.0, 1.0)
        B = build_instance("lasso", {}).spec.B
        batched = zoo_run(GaussianOracle(B, noise, (4, 0, 9)), 3, horizon)
        for i, seed in enumerate((4, 0, 9)):
            assert_same_record(batched.seed(i),
                               zoo_run(GaussianOracle(B, noise, seed), 0, horizon))

    def test_minibatch_rows_equal_solo_runs(self):
        for name in ("lasso", "cls", "multi", "fused"):
            inst = build_instance(name, {})

            def oracle(seeds):
                return MinibatchOracle(*inst.least_squares, inst.spec.B.beta, seeds, batch=2)

            batched = zoo_run(oracle((1, 2)), 2, name=name)
            for i, seed in enumerate((1, 2)):
                assert_same_record(batched.seed(i), zoo_run(oracle(seed), 0, name=name))

    def test_diverged_seed_is_retired(self):
        # Seed 1 retires inside the first noise block, so the survivors take
        # the rest of that block from the cache drawn before the retirement.
        assert 10 < NOISE_BLOCK
        batched = zoo_run(PoisonedOracle((0, 1, 2), {1: 10}), 3)
        retired = batched.seed(1)
        assert retired.diverged
        assert retired.error == "non-finite values in r_n at iteration 10"
        assert retired.ns.tolist() == list(range(11))
        assert [cp.N for cp in retired.checkpoints] == [0, 3, 9]
        for i in (0, 1, 2):
            assert_same_record(batched.seed(i), solo_record(PoisonedOracle(i, {1: 10})))

    def test_seeds_retire_at_different_steps(self):
        # Retirements inside the first block, across a block edge and late in
        # the run; seed 2 survives to the horizon.
        horizon = 2 * NOISE_BLOCK + 5
        at = {1: 10, 3: NOISE_BLOCK + 2, 0: 2 * NOISE_BLOCK}
        batched = zoo_run(PoisonedOracle((0, 1, 2, 3), at), 4, horizon)
        assert batched.stops == (2 * NOISE_BLOCK, 10, horizon, NOISE_BLOCK + 2)
        for i in range(4):
            assert_same_record(batched.seed(i), solo_record(PoisonedOracle(i, at), horizon))

    def test_every_seed_retired(self):
        batched = zoo_run(PoisonedOracle((5,), {5: 3}), 1)
        assert batched.errors == ("non-finite values in r_n at iteration 3",)
        assert batched.seed(0).ns.tolist() == [0, 1, 2, 3]

    def test_nonfinite_start_retires_at_iteration_zero(self):
        inst = build_instance("lasso", {})
        spec, sched = inst.spec, inst.schedules
        noise = VarianceSchedule.polynomial(1.0, 1.0)
        x0 = np.zeros((3, spec.B.dim))
        x0[1, 2] = np.nan
        v0 = np.zeros((3, spec.A.dim))
        kwargs = dict(checkpoints=(0, 9), grad_gap_reference=oracle_solution(inst)[0])
        batched = run(spec, sched, GaussianOracle(spec.B, noise, (0, 1, 2)), x0, v0, 20,
                      **kwargs)
        assert batched.stops == (20, 0, 20)
        assert batched.errors[1] == "non-finite values in r_n at iteration 0"
        for i in range(3):
            try:
                solo = run(spec, sched, GaussianOracle(spec.B, noise, i), x0[i], v0[i], 20,
                           **kwargs)
            except DivergenceError as exc:
                solo = exc.record
            assert_same_record(batched.seed(i), solo)
        # Called directly, the step checks every row of a state without a mask.
        with pytest.raises(DivergenceError, match="r_n at iteration 0"):
            papc_step(PapcState(0, x0, v0), spec, sched, DeterministicOracle(spec.B))
        with pytest.raises(DivergenceError, match="r_n at iteration 0"):
            papc_step(PapcState(0, x0[1], v0[1]), spec, sched, DeterministicOracle(spec.B))

    def test_dense_stack_retires_like_matrix_free(self, monkeypatch):
        # The dense stack turns an inf into NaN (0 * inf) where the identity
        # block passed it through; the finiteness checks see both alike, so
        # the same rows retire at the same step with the same label.
        inst = build_instance("multi", {})
        cp, sched = inst.composite, inst.schedules
        x0 = np.zeros((4, cp.base_dim))
        v0 = np.zeros((4, sum(cp.dual_dims)))
        x0[1, 0] = np.inf
        v0[2, 0] = np.inf
        v0[3, -1] = -np.inf
        dense = stack(cp)
        monkeypatch.setattr(composite, "DENSE_STACK_ENTRIES", 0)
        free = stack(cp)
        assert dense.L.matrix is not None and free.L.matrix is None
        records = []
        for spec in (dense, free):
            with np.errstate(invalid="ignore", over="ignore"):
                records.append(run(spec, sched, DeterministicOracle(cp.C), x0, v0, 20))
        for rec in records:
            assert rec.stops == (20, 0, 0, 0)
            assert rec.errors == (None, "non-finite values in r_n at iteration 0",
                                  "non-finite values in p_n at iteration 0",
                                  "non-finite values in p_n at iteration 0")
        assert np.allclose(records[0].xs[0], records[1].xs[0], rtol=0, atol=1e-14)


BASIC = """
[problem]
name = lasso

[noise]
kind = gaussian
sigma0 = 1.0
epsilon = 1.0

[run]
horizon = 300
seeds = 1 3 7
checkpoints = log
"""


class TestRunnerGroups:
    def _run(self, tmp_path, name, *extra):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASIC)
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), *extra]) == 0
        return out

    def _bytes(self, out, name):
        with open(os.path.join(out, name), "rb") as fh:
            return fh.read()

    def test_seed_override_matches_its_row(self, tmp_path):
        together = self._run(tmp_path, "all")
        alone = self._run(tmp_path, "one", "--seed-override", "3")
        assert sorted(os.listdir(alone)) == ["config.cfg", "gap_mean.csv", "seed_3_gap.csv",
                                             "seed_3_trace.csv", "summary.json"]
        for name in ("seed_3_trace.csv", "seed_3_gap.csv"):
            assert self._bytes(together, name) == self._bytes(alone, name)

    def test_group_size_changes_no_byte(self, tmp_path, monkeypatch):
        together = self._run(tmp_path, "all")
        monkeypatch.setattr(runner, "_GROUP_BYTES", 1)
        split = self._run(tmp_path, "split")
        for name in sorted(os.listdir(together)):
            if name.endswith(".csv"):
                assert self._bytes(together, name) == self._bytes(split, name), name
