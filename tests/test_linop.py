import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from papc.errors import DimensionMismatchError, StepSizeViolationError
from papc.linop import (LinearMap, OrthoProjector, SpdOperator, certify_tau,
                        coupling_lambda_max, inner, norm, read_matrix, weighted_norm_sq)
from papc.zoo import build_instance

from checks import adjoint_consistency_check, difference_matrix, write_matrix


def random_projectors(dim, rng):
    yield OrthoProjector.full(dim)
    basis = rng.standard_normal((dim, max(1, dim // 2)))
    proj = OrthoProjector.from_basis(basis)
    yield proj
    yield OrthoProjector.from_matrix(proj.to_dense())


class TestAdjointConsistency:
    def test_identity_is_self_adjoint(self):
        assert adjoint_consistency_check(LinearMap.identity(2), 10, rng=0)

    def test_wrong_adjoint_is_caught(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        wrong = LinearMap(lambda x: mat @ x, lambda y: mat @ y, 2, 2)
        assert not adjoint_consistency_check(wrong, 10, rng=0)

    def test_dense_transpose(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        L = LinearMap.from_matrix(mat)
        assert adjoint_consistency_check(L, 20, rng=0)
        # explicit dense-transpose oracle
        y = np.array([0.3, -0.7])
        np.testing.assert_allclose(L.adjoint(y), mat.T @ y)

    def test_weighted_adjoint(self, rng):
        wd = np.array([0.25, 0.5, 0.25] * 2)
        wc = np.array([0.7, 0.2, 0.1])
        L = LinearMap.from_matrix(rng.standard_normal((3, 6)), wd, wc)
        assert adjoint_consistency_check(L, 50, rng=1)


class TestDifference:
    @pytest.mark.parametrize("dim", [2, 3, 12, 257])
    def test_matches_dense_matrix(self, dim):
        L = LinearMap.difference(dim)
        mat = difference_matrix(dim)
        rng = np.random.default_rng(dim)
        assert adjoint_consistency_check(L, 10, rng=rng)
        assert L.matrix is None
        for _ in range(5):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim - 1)
            np.testing.assert_array_equal(L(x), mat @ x)
            np.testing.assert_array_equal(L.adjoint(y), mat.T @ y)

    @pytest.mark.parametrize("dim", [2, 3, 12, 257])
    def test_closed_form_norm(self, dim):
        mat = difference_matrix(dim)
        lmax = np.linalg.eigvalsh(mat @ mat.T)[-1]
        norm_bound = LinearMap.difference(dim).norm_bound()
        assert norm_bound ** 2 == pytest.approx(lmax, rel=1e-12)

    def test_needs_two_coordinates(self):
        with pytest.raises(DimensionMismatchError):
            LinearMap.difference(1)


class TestCouplingLambdaMax:
    @staticmethod
    def plain(L):
        """lambda_max(L L*) with U = I and P_V the identity."""
        return coupling_lambda_max(SpdOperator.scalar_op(1.0, L.codomain_dim), L,
                                   OrthoProjector.full(L.domain_dim))

    def test_diagonal(self):
        lam = coupling_lambda_max(SpdOperator([1.0, 2.0, 3.0], [1, 1, 1]),
                                  LinearMap.identity(3), OrthoProjector.full(3))
        assert lam == pytest.approx(3.0, rel=1e-14)

    def test_zero_operator(self):
        assert self.plain(LinearMap.zero(4)) == 0.0

    def test_projected_coupling_matches_dense_eig(self):
        L = np.array([[1.0, 1.0], [0.0, 1.0]])
        P = np.array([[1.0, 0.0], [0.0, 0.0]])  # span{(1,0)}
        M = L @ P @ L.T
        expected = np.linalg.eigvalsh(0.5 * (M + M.T))[-1]
        lam = coupling_lambda_max(SpdOperator.scalar_op(1.0, 2), LinearMap.from_matrix(L),
                                  OrthoProjector.from_matrix(P))
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_random_psd_vs_dense_eig(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 21))
            A = rng.standard_normal((dim, dim))
            expected = np.linalg.eigvalsh(A @ A.T)[-1]
            assert self.plain(LinearMap.from_matrix(A)) == pytest.approx(expected, rel=1e-12)

    def test_weighted_lifted_multi_vs_dense(self):
        # The lifted multi spec: weighted product spaces, the weighted
        # averaging projector and a block-scalar U.  Its coupling is
        # self-adjoint only in the weighted dual space, so the reference is
        # the unsymmetrized dense product and its general eigenvalues.
        inst = build_instance("multi", {})
        lifted, cp = inst.lifted, inst.composite
        m, d = cp.m, cp.base_dim
        blocks = (np.eye(d), difference_matrix(d), cp.blocks[2].L.matrix)
        Ld = np.zeros((sum(cp.dual_dims), m * d))
        for i, (mat, (s, e)) in enumerate(zip(blocks, cp.dual_offsets)):
            Ld[s:e, i * d:(i + 1) * d] = mat
        Pd = np.kron(np.ones((m, 1)) @ cp.weights[None, :], np.eye(d))
        wH, wG = lifted.L.domain_weights, lifted.L.codomain_weights
        adjoint = np.diag(1.0 / wH) @ Ld.T @ np.diag(wG)
        root = np.diag(np.sqrt(lifted.U.diag))
        dense = root @ Ld @ Pd @ adjoint @ root
        expected = np.max(np.linalg.eigvals(dense).real)
        lam = coupling_lambda_max(lifted.U, lifted.L, lifted.P_V)
        assert lam == pytest.approx(expected, rel=1e-12)


class TestProjectors:
    def test_invariants_on_100_vectors(self, rng):
        for P in random_projectors(6, rng):
            w = P.weights
            for _ in range(100):
                x = rng.standard_normal(P.dim)
                y = rng.standard_normal(P.dim)
                px = P(x)
                assert norm(P(px) - px, w) <= 1e-12 * (1.0 + norm(x, w))
                lhs = inner(px, y, w)
                rhs = inner(x, P(y), w)
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + norm(x, w) * norm(y, w))

    def test_weighted_averaging_invariants(self, rng):
        P = OrthoProjector.averaging(3, 2, block_weights=[0.5, 0.3, 0.2])
        for _ in range(100):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            px = P(x)
            assert norm(P(px) - px, P.weights) <= 1e-12 * (1.0 + norm(x, P.weights))
            assert abs(inner(px, y, P.weights) - inner(x, P(y), P.weights)) <= 1e-12 * (
                1.0 + norm(x, P.weights) * norm(y, P.weights))

    def test_averaging_values(self):
        P = OrthoProjector.averaging(2, 1)
        np.testing.assert_allclose(P(np.array([1.0, 3.0])), [2.0, 2.0])
        Pw = OrthoProjector.averaging(2, 1, block_weights=[0.25, 0.75])
        np.testing.assert_allclose(Pw(np.array([4.0, 0.0])), [1.0, 1.0])


class TestSpdOperator:
    def test_strong_positivity_and_inverse(self, rng):
        U = SpdOperator(np.array([0.5, 2.0, 1.0]), [1] * 3)
        for _ in range(50):
            v = rng.standard_normal(3)
            assert inner(U.apply(v), v) >= U.diag.min() * inner(v, v) - 1e-12
            assert np.linalg.norm(U.apply(U.apply_inverse(v)) - v) <= 1e-10 * (
                1.0 + np.linalg.norm(v))

    def test_scalar_detection(self):
        assert SpdOperator.scalar_op(2.0, 3).blocks == ((0, 3, 2.0),)
        blocks = SpdOperator([1.0, 3.0], [2, 2])
        assert blocks.blocks == ((0, 2, 1.0), (2, 4, 3.0))
        assert blocks.operator_norm_bound == 3.0

    def test_rejects_nonpositive(self):
        with pytest.raises(Exception):
            SpdOperator([1.0, 0.0], [1, 1])


class TestValidateTau:
    def test_accepts_below_threshold(self):
        U = SpdOperator.scalar_op(1.0, 2)
        L = LinearMap.from_matrix(np.diag([1.0, 2.0]))
        P = OrthoProjector.full(2)
        cert = certify_tau(coupling_lambda_max(U, L, P), 0.2)  # 0.2 * 4 = 0.8 < 1
        assert cert.ok and cert.status == "accepted"
        assert cert.lambda_max == pytest.approx(4.0, rel=1e-14)

    def test_rejects_above_threshold(self):
        U = SpdOperator.scalar_op(1.0, 2)
        L = LinearMap.from_matrix(np.diag([1.0, 2.0]))
        P = OrthoProjector.full(2)
        cert = certify_tau(coupling_lambda_max(U, L, P), 0.3)  # 1.2 >= 1
        assert not cert.ok and cert.status == "rejected"

    def test_nan_coupling_is_rejected(self):
        # LAPACK returns finite eigenvalues for this matrix; the gate must not.
        L = LinearMap.from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        cert = certify_tau(coupling_lambda_max(SpdOperator.scalar_op(1.0, 2), L,
                                               OrthoProjector.full(2)), 1e-3)
        assert not cert.ok and cert.status == "rejected"
        assert math.isnan(cert.lambda_max)

    def test_zero_coupling_always_passes(self):
        cert = certify_tau(coupling_lambda_max(SpdOperator.scalar_op(1.0, 3),
                                               LinearMap.zero(2, 3), OrthoProjector.full(2)),
                           50.0)
        assert cert.ok

    def test_matches_dense_oracle_on_random_instances(self, rng):
        margin = 1e-6
        for trial in range(20):
            dim_h = int(rng.integers(2, 21))
            dim_g = int(rng.integers(2, 21))
            U = SpdOperator(0.2 + rng.random(dim_g), [1] * dim_g)
            L = LinearMap.from_matrix(rng.standard_normal((dim_g, dim_h)) / math.sqrt(dim_h))
            if trial % 3 == 0:
                P = OrthoProjector.full(dim_h)
            else:
                P = OrthoProjector.from_basis(rng.standard_normal((dim_h, max(1, dim_h // 2))))
            sym = np.diag(np.sqrt(U.diag)) @ L.to_dense() @ P.to_dense() @ \
                L.to_dense().T @ np.diag(np.sqrt(U.diag))
            lam = np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1]
            for tau in (0.5 * (1 - margin) / lam, 1.5 / lam, 0.98 / lam, 1.02 / lam):
                cert = certify_tau(coupling_lambda_max(U, L, P), tau, margin=margin)
                assert cert.status != "indeterminate"
                assert cert.ok == (tau * lam < 1 - margin)


class TestWeightedNormSq:
    def test_zero_vector(self):
        U = SpdOperator.scalar_op(1.0, 2)
        L = LinearMap.identity(2)
        P = OrthoProjector.full(2)
        assert weighted_norm_sq(np.zeros(2), U, 0.5, 1.0, L, P) == 0.0

    def test_reduces_to_plain_norm_without_coupling(self):
        U = SpdOperator.scalar_op(1.0, 2)
        val = weighted_norm_sq(np.array([3.0, 4.0]), U, 1.0, 1.0, LinearMap.zero(2, 2),
                               OrthoProjector.full(2))
        assert val == pytest.approx(25.0)

    def test_explicit_two_by_two(self):
        U = SpdOperator.scalar_op(1.0, 2)
        L = LinearMap.identity(2)
        P = OrthoProjector.full(2)
        val = weighted_norm_sq(np.array([1.0, 0.0]), U, 0.5, 2.0, L, P)
        assert val == pytest.approx(4.0)  # 4 * (2 - 1)

    def test_violated_condition_raises(self):
        U = SpdOperator.scalar_op(1.0, 2)
        L = LinearMap.from_matrix(2.0 * np.eye(2))
        P = OrthoProjector.full(2)
        with pytest.raises(StepSizeViolationError):
            weighted_norm_sq(np.array([1.0, 1.0]), U, 1.0, 1.0, L, P)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_nonnegative_under_certified_tau(self, seed):
        rng = np.random.default_rng(seed)
        L = LinearMap.from_matrix(rng.standard_normal((3, 4)))
        P = OrthoProjector.from_basis(rng.standard_normal((4, 2)))
        U = SpdOperator(0.5 + rng.random(3), [1] * 3)
        cert = certify_tau(coupling_lambda_max(U, L, P), 1e-3, margin=1e-6)
        if not cert.ok:
            return
        tau_n = 1e-3 * rng.random()
        if tau_n == 0.0:
            return
        v = 3.0 * rng.standard_normal(3)
        assert weighted_norm_sq(v, U, tau_n, 0.7, L, P) >= 0.0


class TestMatrixIO:
    def test_round_trip(self, tmp_path, rng):
        mat = rng.standard_normal((3, 4))
        path = tmp_path / "m.txt"
        write_matrix(path, mat)
        np.testing.assert_array_equal(read_matrix(path), mat)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_norm_bound_cached(self):
        L = LinearMap.from_matrix(np.diag([1.0, 2.0, 0.5]))
        assert L.norm_bound() == pytest.approx(2.0, rel=1e-9)
        assert L.norm_bound() is L.norm_bound()
