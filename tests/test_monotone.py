import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from papc.monotone import (PROX_LIBRARY, CocoerciveMap, MonotoneBlock, ProductMonotoneBlock,
                           ProxFunction, box, box_support, cocoercivity_check,
                           firm_nonexpansiveness_check, gradient_map, inverse_resolvent, l1,
                           prox_inequality_check, quadratic_lipschitz, quadratic_ls,
                           singleton, sq_dist, zero_prox)

ARR = lambda *vals: np.array(vals, dtype=float)


class TestResolvent:
    def test_identity_operator(self):
        A = MonotoneBlock.from_linear(np.eye(1))
        assert A.resolvent(1.0, ARR(2.0)) == pytest.approx(1.0)

    def test_zero_operator(self):
        A = MonotoneBlock.zero(3)
        x = ARR(1.0, -2.0, 0.5)
        np.testing.assert_array_equal(A.resolvent(3.7, x), x)

    def test_soft_threshold(self):
        A = MonotoneBlock.from_prox(l1(1.0, 1))
        assert A.resolvent(0.5, ARR(2.0)) == pytest.approx(1.5)


class TestInverseResolvent:
    def test_self_inverse_identity(self):
        A = MonotoneBlock.from_linear(np.eye(1))
        assert inverse_resolvent(A, 1.0, ARR(2.0)) == pytest.approx(1.0)

    def test_abs_inverse_clamps(self):
        A = MonotoneBlock.from_prox(l1(1.0, 1))
        assert inverse_resolvent(A, 1.0, ARR(2.0)) == pytest.approx(1.0)
        assert inverse_resolvent(A, 1.0, ARR(0.3)) == pytest.approx(0.3)

    def test_matches_direct_construction(self, rng):
        # A = partial g for g = 0.5||.-b||^2 is x -> x - b, so A^{-1} y = y + b
        # and J_{lam A^{-1}}(x) solves x = p + lam(p + b): p = (x - lam b)/(1 + lam).
        b = rng.standard_normal(4)
        A = MonotoneBlock.from_prox(sq_dist(b))
        for _ in range(20):
            x = rng.standard_normal(4)
            lam = float(rng.uniform(0.1, 5.0))
            direct = (x - lam * b) / (1.0 + lam)
            np.testing.assert_allclose(inverse_resolvent(A, lam, x), direct, atol=1e-12)

    def test_is_firmly_nonexpansive(self):
        A = MonotoneBlock.from_prox(l1(0.7, 3))
        rep = firm_nonexpansiveness_check(lambda z: inverse_resolvent(A, 0.8, z), 3,
                                          pairs=200, rng=5)
        assert rep.passed, rep


class TestConjugateProx:
    def test_l1_conjugate_clamps(self):
        A = MonotoneBlock.from_prox(l1(1.0, 1))
        assert inverse_resolvent(A, 1.0, ARR(2.0)) == pytest.approx(1.0)

    def test_self_conjugate_quadratic(self):
        A = MonotoneBlock.from_prox(sq_dist(0.0, dim=1))
        assert inverse_resolvent(A, 1.0, ARR(4.0)) == pytest.approx(2.0)

    def test_componentwise_clamp(self):
        A = MonotoneBlock.from_prox(l1(1.0, 3))
        got = inverse_resolvent(A, 2.0, ARR(3.0, -0.5, 1.0))
        np.testing.assert_allclose(got, ARR(1.0, -0.5, 1.0), atol=1e-14)

    def test_moreau_identity_against_closed_forms(self, rng):
        # prox of g* computed via the identity must match independent closed forms.
        pairs = [
            (l1(0.8, 4), box(-0.8, 0.8, 4)),
            (box(-0.3, 1.2, 4), box_support(-0.3, 1.2, 4)),
            (box_support(-0.3, 1.2, 4), box(-0.3, 1.2, 4)),
            (zero_prox(4), singleton(0.0, dim=4)),
        ]
        for g, gstar in pairs:
            for lam in (0.1, 1.0, 10.0):
                for _ in range(25):
                    x = 3.0 * rng.standard_normal(4)
                    via = inverse_resolvent(MonotoneBlock.from_prox(g), lam, x)
                    direct = gstar.prox(lam, x)
                    np.testing.assert_allclose(via, direct, atol=1e-10)

    @given(st.integers(0, 2 ** 31), st.sampled_from([0.1, 1.0, 10.0]))
    def test_moreau_identity_form(self, seed, lam):
        rng = np.random.default_rng(seed)
        x = 3.0 * rng.standard_normal(3)
        for g in (l1(0.5, 3), sq_dist(rng.standard_normal(3)), box(-1.0, 1.0, 3)):
            lhs = (inverse_resolvent(MonotoneBlock.from_prox(g), lam, x)
                   + lam * g.prox(1.0 / lam, x / lam))
            np.testing.assert_allclose(lhs, x, atol=1e-10)


class TestProxLibrary:
    def test_box_projection(self):
        f = box(-1.0, 1.0, 1)
        assert f.prox(1.0, ARR(5.0)) == pytest.approx(1.0)
        assert f.value(ARR(0.5)) == 0.0
        assert math.isinf(f.value(ARR(2.0)))

    def test_shrinkage(self):
        f = sq_dist(0.0, dim=1)
        assert f.prox(1.0, ARR(2.0)) == pytest.approx(1.0)

    def test_weighted_soft_threshold(self):
        f = l1(2.0, 1)
        assert f.prox(1.0, ARR(3.0)) == pytest.approx(1.0)

    def test_singleton(self):
        f = singleton(ARR(1.0, -1.0))
        np.testing.assert_array_equal(f.prox(0.3, ARR(9.0, 9.0)), ARR(1.0, -1.0))
        assert f.conjugate_value(ARR(2.0, 1.0)) == pytest.approx(1.0)

    def test_box_support_values(self):
        f = box_support(-1.0, 2.0, 2)
        # sup over [-1,2]^2 of <a, y>: a=(1,-1) -> 2*1 + (-1)*(-1) = 3
        assert f.value(ARR(1.0, -1.0)) == pytest.approx(3.0)

    @pytest.mark.parametrize("lam", [0.05, 0.7, 3.0])
    @pytest.mark.parametrize("lo,hi", [(-0.3, 0.8), (0.0, 1.0), (-0.0, 0.0), (-np.inf, -0.0)])
    def test_box_support_prox_is_the_clip_form(self, rng, lam, lo, hi):
        # The prox clips by minimum/maximum, not np.clip: the same bytes on
        # rows with NaN, +-inf and +-0 entries, at zero bounds too.
        x = 3.0 * rng.standard_normal((1000, 5))
        special = rng.random(x.shape) < 0.4
        x[special] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, lo, hi], special.sum())
        f = box_support(lo, hi, 5)
        bounds = [np.broadcast_to(np.asarray(b, dtype=float), (5,)) for b in (lo, hi)]
        with np.errstate(invalid="ignore"):
            want = x - lam * np.clip(x / lam, *bounds)
            got = f.prox(lam, x)
            assert got.tobytes() == want.tobytes()
            assert f.prox(lam, x[7]).tobytes() == want[7].tobytes()

    def test_quadratic_ls(self, rng):
        D = rng.standard_normal((5, 4))
        a = rng.standard_normal(5)
        f = quadratic_ls(D, a)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(f.gradient(x), D.T @ (D @ x - a), atol=1e-12)
        lam = 0.7
        p = f.prox(lam, x)
        # optimality: p - x + lam * grad(p) = 0
        np.testing.assert_allclose(p - x + lam * f.gradient(p), 0.0, atol=1e-10)
        assert quadratic_lipschitz(D) == pytest.approx(np.linalg.eigvalsh(D.T @ D)[-1])


class TestProxInequality:
    def test_zero_function_passes(self):
        rep = prox_inequality_check(zero_prox(2), 1.0, 50, rng=0)
        assert rep.passed

    def test_l1_passes_on_100_samples(self):
        rep = prox_inequality_check(l1(1.0, 1), 1.0, 100, rng=0)
        assert rep.passed and rep.max_violation <= 1e-9

    def test_broken_prox_fails(self):
        broken = ProxFunction(1, value=lambda x: float(np.abs(x).sum()),
                              prox=lambda lam, x: l1(1.0, 1).prox(lam, x) + 0.1)
        rep = prox_inequality_check(broken, 1.0, 100, rng=0)
        assert not rep.passed

    def test_library_passes(self):
        for name, f in PROX_LIBRARY(3).items():
            if f.value is None or f.prox is None:
                continue
            rep = prox_inequality_check(f, 1.0, 60, rng=2)
            assert rep.passed, (name, rep)


class TestFirmNonexpansiveness:
    def test_every_shipped_prox(self):
        for name, f in PROX_LIBRARY(3).items():
            for lam in (0.1, 1.0, 10.0):
                rep = firm_nonexpansiveness_check(lambda z: f.prox(lam, z), 3,
                                                  pairs=200, rng=7)
                assert rep.passed, (name, lam, rep.max_excess)

    def test_linear_resolvent(self, rng):
        S = rng.standard_normal((4, 4))
        S = S @ S.T  # PSD, hence monotone
        A = MonotoneBlock.from_linear(S)
        rep = firm_nonexpansiveness_check(lambda z: A.resolvent(0.5, z), 4, pairs=200, rng=9)
        assert rep.passed


class TestCocoercivity:
    def test_gradient_map(self, rng):
        D = rng.standard_normal((6, 4))
        f = quadratic_ls(D, rng.standard_normal(6))
        B = gradient_map(f, quadratic_lipschitz(D))
        rep = cocoercivity_check(B, pairs=200, rng=11)
        assert rep.passed

    def test_violation_detected(self):
        # claim beta twice as large as allowed
        B = CocoerciveMap(1, lambda x: 2.0 * x, beta=1.0)
        rep = cocoercivity_check(B, pairs=50, rng=3)
        assert not rep.passed


class TestProductBlock:
    def test_blockwise_resolvent(self):
        A = ProductMonotoneBlock((MonotoneBlock.zero(2), MonotoneBlock.from_prox(l1(1.0, 1))),
                                 (2, 1))
        out = A.resolvent(1.0, ARR(1.0, 2.0, 3.0))
        np.testing.assert_allclose(out, ARR(1.0, 2.0, 2.0))
