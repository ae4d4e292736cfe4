"""Verification references the tests share: sampled checks of the operator
inequalities (prox inequality, firm nonexpansiveness, cocoercivity, adjoint
consistency), the shipped prox library, the dense first-difference matrix,
the lockstep flat/lifted comparison of a composite problem, the sampled
noise variance, epsilon-saddle certification over gap tables, and the
writer of the plain-text matrix format."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from papc.composite import lift, stack
from papc.linop import inner, norm
from papc.monotone import box, box_support, l1, quadratic_ls, singleton, sq_dist, zero_prox
from papc.solver import PapcState, papc_step
from papc.stochastic import DeterministicOracle, GaussianOracle


def as_rng(rng):
    """Return a numpy Generator; ints (or None) seed a fresh one."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# ---------------------------------------------------------------------------
# Operator inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProxInequalityReport:
    max_violation: float
    passed: bool
    samples: int


def prox_inequality_check(f, u, samples=100, rng=0, scale=2.0, tol=1e-9):
    """Check f(p) - f(y) <= <y - p, u (p - x)> with p = prox_{f/u}(x) on samples.

    Half of the test points y are prox images, so indicator domains are
    exercised with finite values as well.
    """
    gen = as_rng(rng)
    worst = -math.inf
    for k in range(int(samples)):
        x = scale * gen.standard_normal(f.dim)
        y = scale * gen.standard_normal(f.dim)
        if k % 2 == 1:
            y = f.prox(1.0 / u, y)
        p = f.prox(1.0 / u, x)
        fy = f.value(y)
        if math.isinf(fy):
            continue  # rhs is -inf <= anything
        lhs = f.value(p) - fy
        rhs = inner(y - p, u * (p - x))
        worst = max(worst, lhs - rhs)
    if worst == -math.inf:
        worst = 0.0
    return ProxInequalityReport(worst, worst <= tol, int(samples))


@dataclass(frozen=True)
class PairwiseCheckReport:
    max_excess: float
    passed: bool
    pairs: int


def firm_nonexpansiveness_check(op, dim, pairs=200, rng=0, tol=1e-10, scale=2.0, weights=None):
    """Check ||Tx - Ty||^2 <= <x - y, Tx - Ty> on sampled pairs."""
    gen = as_rng(rng)
    worst = 0.0
    for _ in range(int(pairs)):
        x = scale * gen.standard_normal(dim)
        y = scale * gen.standard_normal(dim)
        tx, ty = op(x), op(y)
        d = tx - ty
        worst = max(worst, inner(d, d, weights) - inner(x - y, d, weights))
    return PairwiseCheckReport(worst, worst <= tol, int(pairs))


def cocoercivity_check(B, pairs=200, rng=0, tol=1e-10, scale=2.0):
    """Check <Bx - By, x - y> >= beta * ||Bx - By||^2 on sampled pairs."""
    gen = as_rng(rng)
    w = B.weights
    worst = 0.0
    for _ in range(int(pairs)):
        x = scale * gen.standard_normal(B.dim)
        y = scale * gen.standard_normal(B.dim)
        d = B.apply(x) - B.apply(y)
        gap = B.beta * inner(d, d, w) - inner(d, x - y, w)
        slack = tol * (1.0 + inner(x - y, x - y, w))
        worst = max(worst, gap - slack)
    return PairwiseCheckReport(worst, worst <= 0.0, int(pairs))


def adjoint_consistency_check(L, trials, rng, tol=1e-10):
    """True iff sampled pairs satisfy <Lx, y> == <x, L*y> to tolerance."""
    gen = as_rng(rng)
    for _ in range(int(trials)):
        x = gen.standard_normal(L.domain_dim)
        y = gen.standard_normal(L.codomain_dim)
        lhs = inner(L(x), y, L.codomain_weights)
        rhs = inner(x, L.adjoint(y), L.domain_weights)
        bound = tol * (1.0 + norm(x, L.domain_weights) * norm(y, L.codomain_weights))
        if abs(lhs - rhs) > bound:
            return False
    return True


def PROX_LIBRARY(dim=3):
    """Named constructors of the shipped prox functions at a given dimension,
    used by checks that sweep 'every shipped prox'."""
    rng = np.random.default_rng(7)
    b = rng.standard_normal(dim)
    return {
        "zero": zero_prox(dim),
        "sq_dist": sq_dist(b),
        "l1": l1(0.7, dim),
        "box": box(-1.0, 1.0, dim),
        "singleton": singleton(b),
        "box_support": box_support(-0.5, 1.5, dim),
        "quadratic_ls": quadratic_ls(np.eye(dim) + 0.2 * rng.standard_normal((dim, dim)), b),
    }


def difference_matrix(dim):
    """Dense first-difference matrix; the reference that the matrix-free
    :meth:`LinearMap.difference` is tested against."""
    mat = np.zeros((dim - 1, dim))
    for i in range(dim - 1):
        mat[i, i] = -1.0
        mat[i, i + 1] = 1.0
    return mat


# ---------------------------------------------------------------------------
# Product-space equivalence
# ---------------------------------------------------------------------------

class ReplicatedOracle:
    """Lifted oracle that replicates one base-space sample across the copies,
    r_n = (r_n, ..., r_n), as required for exact flat/lifted equivalence."""

    def __init__(self, base_oracle, m, base_dim):
        self.inner = base_oracle
        self.m = int(m)
        self.base_dim = int(base_dim)
        self.dim = self.m * self.base_dim
        self.is_deterministic = getattr(base_oracle, "is_deterministic", False)

    def sample(self, bold_x, n):
        r = self.inner.sample(bold_x[..., : self.base_dim], n)
        return np.tile(r, (1,) * (r.ndim - 1) + (self.m,))


def lift_flat_equivalence(cp, sched, seed, steps, noise=None):
    """Step papc_step on the stacked spec and on the lifted spec in lockstep
    from zero and the same seed, and return the largest relative coordinate
    deviation over all steps.

    The lifted oracle replicates the base-space sample across copies, so with
    exact arithmetic the trajectories coincide; deviations beyond float
    round-off indicate a broken stacking or lifting.
    """
    if noise is None:
        flat_oracle = DeterministicOracle(cp.C)
        base_for_lift = DeterministicOracle(cp.C)
    else:
        flat_oracle = GaussianOracle(cp.C, noise, seed)
        base_for_lift = GaussianOracle(cp.C, noise, seed)

    spec = stack(cp)
    lifted = lift(cp)
    lifted_oracle = ReplicatedOracle(base_for_lift, cp.m, cp.base_dim)

    dual_dim = sum(cp.dual_dims)
    flat = PapcState(0, np.zeros(cp.base_dim), np.zeros(dual_dim))
    bold = PapcState(0, np.zeros(cp.m * cp.base_dim), np.zeros(dual_dim))

    worst = 0.0
    for _ in range(int(steps)):
        flat = papc_step(flat, spec, sched, flat_oracle)
        bold = papc_step(bold, lifted, sched, lifted_oracle)
        mag = max(float(np.max(np.abs(flat.x))), float(np.max(np.abs(flat.v))), 0.0)
        dev_v = float(np.max(np.abs(bold.v - flat.v)))
        dev_x = 0.0
        for k in range(cp.m):
            blockk = bold.x[k * cp.base_dim:(k + 1) * cp.base_dim]
            dev_x = max(dev_x, float(np.max(np.abs(blockk - flat.x))))
        worst = max(worst, max(dev_x, dev_v) / (1.0 + mag))
    return worst


# ---------------------------------------------------------------------------
# Noise and gap tables
# ---------------------------------------------------------------------------

def empirical_variance(oracles, x, n):
    """Unbiased sample variance of the error components of r_n - B x_n, one
    replicate per oracle: one-seed oracles of the same B with distinct seeds.

    All error coordinates across replicates are pooled; for the gaussian
    model this estimates the scheduled per-coordinate sigma_n^2.  ``oracles``
    may be a generator, so that only one oracle is alive at a time.
    """
    errs = [oracle.sample(x, n) - oracle.base.apply(x) for oracle in oracles]
    if len(errs) < 2:
        raise ValueError("need at least 2 trials")
    return float(np.var(np.ravel(errs), ddof=1))


def epsilon_saddle_check(tables, eps):
    """Smallest checkpoint N whose gap, supped over the supplied saddle set,
    is at most eps; ``None`` when the horizon never reaches it."""
    tables = [list(t) for t in tables]
    if not tables or not tables[0]:
        raise ValueError("empty saddle set (or empty gap tables)")
    length = len(tables[0])
    if any(len(t) != length for t in tables):
        raise ValueError("gap tables must share their checkpoints")
    for k in range(length):
        ns = {t[k].N for t in tables}
        if len(ns) != 1:
            raise ValueError("gap tables must share their checkpoints")
        sup = max((t[k].gap if t[k].finite else math.inf) for t in tables)
        if sup <= eps:
            return tables[0][k].N
    return None


def write_matrix(path, matrix):
    """Write ``matrix`` in the plain-text format :func:`papc.linop.read_matrix`
    reads: a "rows cols" line, then one line of entries per row."""
    mat = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % mat.shape)
        for row in mat:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
