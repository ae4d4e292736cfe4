"""Batched evaluation: every operator a step or a trace row calls acts on the
last axis of an (S, d) array with rows that never mix, bitwise; a batched
run equals the runs of its seeds alone, and retires a diverging seed without
touching the others."""

import os

import numpy as np
import pytest

from papc import runner
from papc.cli import main as cli_main
from papc.composite import lift
from papc.diagnostics import kkt_residual
from papc.errors import StepSizeViolationError
from papc.linop import LinearMap, OrthoProjector, SpdOperator, inner, norm, weighted_norm_sq
from papc.monotone import (PROX_LIBRARY, MonotoneBlock, ProductMonotoneBlock,
                           inverse_resolvent, l1, quadratic_ls)
from papc.solver import run
from papc.stochastic import NOISE_BLOCK, GaussianOracle, MinibatchOracle, VarianceSchedule
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
        "stack": build_instance("multi", {}).spec.L,
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
                                      "difference", "stack", "lifted"])
    def test_linear_maps(self, rng, name):
        L = maps(rng)[name]
        assert_rows(L, batch(rng, L.domain_dim))
        assert_rows(L.adjoint, batch(rng, L.codomain_dim))

    @pytest.mark.parametrize("name", ["full", "matrix", "basis", "averaging"])
    def test_projectors(self, rng, name):
        P = projectors(rng)[name]
        assert_rows(P, batch(rng, P.dim))

    def test_spd_operators(self, rng):
        for U in (SpdOperator.scalar_op(0.7, 5), SpdOperator.diagonal(rng.random(5) + 0.1),
                  SpdOperator.block_scalar([0.5, 2.0], [2, 3])):
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


def lasso_run(oracle, x0_rows, horizon=40, **kwargs):
    inst = build_instance("lasso", {})
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
    """A gaussian oracle whose sample for one seed turns NaN at step ``at``."""

    is_deterministic = False

    def __init__(self, seeds, poisoned, at):
        self.inner = GaussianOracle(build_instance("lasso", {}).spec.B,
                                    VarianceSchedule.polynomial(1.0, 1.0), seeds)
        self.poisoned, self.at = poisoned, at

    @property
    def seeds(self):
        return self.inner.seeds

    def sample(self, x, n, t=0):
        r = self.inner.sample(x, n, t)
        if n == self.at and self.poisoned in self.seeds:
            r[self.seeds.index(self.poisoned)] = np.nan
        return r

    def select(self, rows):
        out = PoisonedOracle((), self.poisoned, self.at)
        out.inner = self.inner.select(rows)
        return out


class TestBatchedRun:
    def test_rows_equal_solo_runs(self):
        # The horizon crosses two noise block edges.
        horizon = 2 * NOISE_BLOCK + 5
        noise = VarianceSchedule.polynomial(1.0, 1.0)
        B = build_instance("lasso", {}).spec.B
        batched = lasso_run(GaussianOracle(B, noise, (4, 0, 9)), 3, horizon)
        for i, seed in enumerate((4, 0, 9)):
            assert_same_record(batched.seed(i),
                               lasso_run(GaussianOracle(B, noise, seed), 0, horizon))

    def test_minibatch_rows_equal_solo_runs(self):
        inst = build_instance("lasso", {})

        def oracle(seeds):
            return MinibatchOracle(inst.components, beta=inst.spec.B.beta, seeds=seeds,
                                   dim=inst.spec.B.dim, batch_schedule=lambda n: 2)

        batched = lasso_run(oracle((1, 2)), 2)
        for i, seed in enumerate((1, 2)):
            assert_same_record(batched.seed(i), lasso_run(oracle(seed), 0))

    def test_diverged_seed_is_retired(self):
        # Seed 1 retires inside the first noise block, so the survivors go on
        # with the rows that select() sliced from the cached block.
        assert 10 < NOISE_BLOCK
        batched = lasso_run(PoisonedOracle((0, 1, 2), poisoned=1, at=10), 3)
        retired = batched.seed(1)
        assert retired.diverged
        assert retired.error == "non-finite values in r_n at iteration 10"
        assert retired.ns.tolist() == list(range(11))
        assert [cp.N for cp in retired.checkpoints] == [0, 3, 9]
        for i in (0, 2):
            assert_same_record(batched.seed(i), lasso_run(PoisonedOracle(i, 1, 10), 0))

    def test_every_seed_retired(self):
        batched = lasso_run(PoisonedOracle((5,), poisoned=5, at=3), 1)
        assert batched.errors == ("non-finite values in r_n at iteration 3",)
        assert batched.seed(0).ns.tolist() == [0, 1, 2, 3]


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
