"""Problem registry: every problem a config's ``[problem] name`` can pick,
each an instance of the one structured inclusion the solver runs.

Every entry has a builder that reads the parsed values of its
``[problem]`` keys (:func:`papc.config.problem_values`) and returns the
problem with default certified schedules.  The four desk-scale problems also
carry an oracle producing a primal-dual pair by a method independent of the
solver under test: a dense KKT solve on the constraint subspace (`cls`),
exhaustive sign-pattern enumeration (`lasso`), or a conservative
long-horizon run accepted only under a strict KKT residual (`fused`,
`multi`).  The two config-assembled problems, `custom` and
`custom_composite`, have none.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .composite import CompositeBlock, CompositeProblem, lift, stack
from .config import (composite_blocks, parse_projector_spec, parse_prox_spec,
                     parse_smooth_spec, problem_values)
from .diagnostics import kkt_residual
from .errors import ConfigError, OracleError
from .linop import (LinearMap, OrthoProjector, SpdOperator, coupling_lambda_max,
                    read_matrix)
from .monotone import (MonotoneBlock, box_support, gradient_map, l1, quadratic_lipschitz,
                       quadratic_ls, sq_dist)
from .solver import PapcState, ProblemSpec, Schedules, papc_step
from .stochastic import DeterministicOracle

__all__ = [
    "ZooInstance",
    "ZooEntry",
    "zoo",
    "build_instance",
    "oracle_solution",
    "lasso_sign_oracle",
    "cls_kkt_oracle",
    "long_run_oracle",
]


@dataclass(frozen=True)
class ZooInstance:
    """A built problem.  ``spec`` is what the solver runs: the problem itself,
    or the stacked spec of ``composite``; ``lifted`` is a composite's
    independent reference, the spec of :func:`~papc.composite.lift` on H^m,
    where its oracle needs one.  ``oracle`` computes
    the reference pair (x, v) on ``spec`` (None when there is none).
    ``least_squares`` is (D, a), D a :class:`LinearMap`: the smooth term is
    0.5||Dx - a||^2, whose rows the minibatch oracle samples (None for the
    custom problems).  ``params`` is the parsed ``[problem]`` values, sorted
    by key: with ``name``, the key of the memoized reference solution."""

    name: str
    schedules: Schedules
    spec: ProblemSpec
    oracle: Optional[Callable] = None
    composite: Optional[CompositeProblem] = None
    lifted: Optional[ProblemSpec] = None
    least_squares: Optional[tuple] = None
    params: tuple = ()


@dataclass(frozen=True)
class ZooEntry:
    name: str
    description: str
    build: Callable  # (parsed [problem] values, base_dir) -> ZooInstance


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def cls_kkt_oracle(D, a, L, b, basis):
    """Constrained least squares by a dense KKT solve on the subspace.

    With x = Q z and both terms smooth, stationarity along V reads
    Q^T (D^T D + L^T L) Q z = Q^T (D^T a + L^T b); the dual is v = L x - b.
    """
    q = np.asarray(basis, dtype=float)
    mat = q.T @ (D.T @ D + L.T @ L) @ q
    rhs = q.T @ (D.T @ a + L.T @ b)
    z = np.linalg.solve(mat, rhs)
    x = q @ z
    return x, L @ x - b


def lasso_sign_oracle(D, a, weight, sign_tol=1e-10):
    """Exhaustive sign-pattern enumeration for min 0.5||Dx-a||^2 + ||w.x||_1.

    For each of the 3^dim sign patterns the reduced normal equations are
    solved and the subgradient conditions checked; the dual certificate is
    v = -(D^T D x - D^T a).
    """
    D = np.asarray(D, dtype=float)
    a = np.asarray(a, dtype=float)
    d = D.shape[1]
    w = np.broadcast_to(np.asarray(weight, dtype=float), (d,))
    gram = D.T @ D
    dta = D.T @ a
    for pattern in itertools.product((-1, 0, 1), repeat=d):
        s = np.array(pattern, dtype=float)
        supp = s != 0
        x = np.zeros(d)
        if supp.any():
            sub = gram[np.ix_(supp, supp)]
            rhs = dta[supp] - w[supp] * s[supp]
            try:
                x[supp] = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x[supp] * s[supp] < -1e-14):
                continue
        grad = gram @ x - dta
        if np.any(np.abs(grad[~supp]) > w[~supp] + sign_tol):
            continue
        return x, -grad
    raise OracleError("sign enumeration found no pattern satisfying the optimality system")


def long_run_oracle(spec, beta, tau, total_steps=10 ** 6, segment=1000,
                    accept=1e-9, early_exit=1e-10):
    """Conservative long-horizon deterministic run, accepted only under a
    strict KKT residual.  Runs in segments, checking the residual after each,
    and stops early once it is below ``early_exit`` (strictly tighter than
    the acceptance level)."""
    sched = Schedules.constant(0.5 * beta, tau, beta)
    oracle = DeterministicOracle(spec.B)
    state = PapcState(0, spec.P_V(np.zeros(spec.B.dim)), np.zeros(spec.A.dim))
    done = 0
    pres = dres = math.inf
    while done < total_steps:
        seg = min(segment, total_steps - done)
        for _ in range(seg):
            state = papc_step(state, spec, sched, oracle)
        done += seg
        pres, dres = kkt_residual(state.x, state.v, spec)
        if max(pres, dres) <= early_exit:
            break
    # Written so that a NaN residual fails it: every comparison with NaN is False.
    if not (pres <= accept and dres <= accept):
        raise OracleError(
            "long-run oracle rejected: kkt residual %.3e after %d steps (accept %.1e)"
            % (max(pres, dres), done, accept))
    return state.x, state.v


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _build_cls(values, base_dir):
    dim = values["dim"]
    sub = max(1, dim // 2) if values["subspace_dim"] is None else values["subspace_dim"]
    if sub > dim:
        raise ConfigError("[problem] subspace_dim: must be at most dim (%d)" % dim)
    rng = np.random.default_rng(values["data_seed"])
    D = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)) / math.sqrt(dim)
    a = rng.standard_normal(dim)
    gdim = max(2, dim - 2)
    Lmat = 0.6 * rng.standard_normal((gdim, dim)) / math.sqrt(dim)
    b = 0.5 * rng.standard_normal(gdim)
    basis = np.linalg.qr(rng.standard_normal((dim, sub)))[0]

    h = quadratic_ls(D, a)
    g = sq_dist(b)
    spec = ProblemSpec(
        B=gradient_map(h, quadratic_lipschitz(D)),
        A=MonotoneBlock.from_prox(g),
        L=LinearMap.from_matrix(Lmat, name="cls-L"),
        P_V=OrthoProjector.from_basis(basis),
        U=SpdOperator.scalar_op(1.0, gdim),
        g=g, h=h, name="cls",
    )
    lmax = coupling_lambda_max(spec.U, spec.L, spec.P_V)
    sched = Schedules.constant(0.9 * spec.B.beta, 0.9 / lmax, spec.B.beta)
    return ZooInstance("cls", sched, spec, oracle=lambda: cls_kkt_oracle(D, a, Lmat, b, basis),
                       least_squares=(LinearMap.from_matrix(D), a))


def _build_lasso(values, base_dir):
    dim, weight = values["dim"], values["weight"]
    rng = np.random.default_rng(values["data_seed"])
    D = np.eye(dim) + 0.25 * rng.standard_normal((dim, dim)) / math.sqrt(dim)
    # Alternate strong and weak coordinates so the solution has mixed support.
    signs = rng.choice([-1.0, 1.0], size=dim)
    target = signs * np.array([1.8 if i % 2 == 0 else 0.05 for i in range(dim)])
    a = D @ target

    h = quadratic_ls(D, a)
    g = l1(weight, dim)
    spec = ProblemSpec(
        B=gradient_map(h, quadratic_lipschitz(D)),
        A=MonotoneBlock.from_prox(g),
        L=LinearMap.identity(dim, name="lasso-L"),
        P_V=OrthoProjector.full(dim),
        U=SpdOperator.scalar_op(1.0, dim),
        g=g, h=h, name="lasso",
    )
    sched = Schedules.constant(0.9 * spec.B.beta, 0.9, spec.B.beta)
    return ZooInstance("lasso", sched, spec, oracle=lambda: lasso_sign_oracle(D, a, weight),
                       least_squares=(LinearMap.from_matrix(D), a))


def _build_fused(values, base_dir):
    dim = values["dim"]
    rng = np.random.default_rng(values["data_seed"])
    levels = np.concatenate([
        np.full(dim - 2 * (dim // 3), 1.0),
        np.full(dim // 3, 3.0),
        np.full(dim // 3, 0.0),
    ])
    a = levels + 0.05 * rng.standard_normal(dim)

    h = sq_dist(a)
    g = l1(values["weight"], dim - 1)
    spec = ProblemSpec(
        B=gradient_map(h, 1.0),
        A=MonotoneBlock.from_prox(g),
        L=LinearMap.difference(dim),
        P_V=OrthoProjector.full(dim),
        U=SpdOperator.scalar_op(1.0, dim - 1),
        g=g, h=h, name="fused",
    )
    # lambda_max(L L*) = ||L||^2, which the difference operator knows in closed form.
    lmax = spec.L.norm_bound() ** 2
    sched = Schedules.constant(0.9, 0.9 / lmax, 1.0)
    return ZooInstance("fused", sched, spec, oracle=lambda: long_run_oracle(spec, 1.0, 0.5 / lmax),
                       least_squares=(LinearMap.identity(dim), a))


def _build_multi(values, base_dir):
    dim = values["dim"]
    rng = np.random.default_rng(values["data_seed"])
    D = np.eye(dim) + 0.2 * rng.standard_normal((dim, dim)) / math.sqrt(dim)
    a = rng.standard_normal(dim)
    h = quadratic_ls(D, a)
    mu = 1.0 / quadratic_lipschitz(D)
    C = gradient_map(h, quadratic_lipschitz(D))

    # Block 1: l1 on the coordinates.
    g1 = l1(0.4, dim)
    L1 = LinearMap.identity(dim, name="multi-L1")
    # Block 2: support function of an asymmetric box on first differences.
    g2 = box_support(-0.3, 0.8, dim - 1)
    L2 = LinearMap.difference(dim, name="multi-L2")
    # Block 3: squared distance after a random compression.
    gdim = max(2, dim - 2)
    g3 = sq_dist(0.4 * rng.standard_normal(gdim))
    L3 = LinearMap.from_matrix(0.6 * rng.standard_normal((gdim, dim)) / math.sqrt(dim),
                               name="multi-L3")

    blocks = []
    for g_i, L_i in ((g1, L1), (g2, L2), (g3, L3)):
        blocks.append(CompositeBlock(L=L_i, A=MonotoneBlock.from_prox(g_i),
                                     sigma=1.0 / L_i.norm_bound() ** 2, g=g_i))

    cp = CompositeProblem(weights=np.array([0.5, 0.3, 0.2]), C=C,
                          blocks=tuple(blocks), h=h, name="multi")
    lifted = lift(cp)
    sched = Schedules.constant(0.9 * mu, 0.9, mu)

    def oracle():
        # sigma_i = 1/lambda_max(L_i L_i*) normalizes every block's coupling, so
        # the symmetrized lifted spectrum is at most 1 and tau = 0.5 is
        # conservative.  The lifted run is accepted under its own KKT check;
        # the base-space primal is its first diagonal copy.
        bold_x, v = long_run_oracle(lifted, mu, 0.5)
        return bold_x[:dim], v

    return ZooInstance("multi", sched, stack(cp), oracle=oracle, composite=cp, lifted=lifted,
                       least_squares=(LinearMap.from_matrix(D), a))


def _coupling(tag, dim, base_dir, label):
    """The coupling tagged ``identity`` or ``matrix:<path>``."""
    if tag == "identity":
        return LinearMap.identity(dim)
    if tag.startswith("matrix:"):
        return LinearMap.from_matrix(read_matrix(os.path.join(base_dir, tag.split(":", 1)[1])))
    raise ConfigError("%s must be 'identity' or 'matrix:<path>'" % label)


def _finite_lambda(U, L, P):
    """The exact coupling lambda_max of a config-assembled problem; a coupling
    with a non-finite entry is a config error."""
    lam = coupling_lambda_max(U, L, P)
    if not math.isfinite(lam):
        raise ConfigError("the coupling spectrum is not finite")
    return lam


def _smooth_term(values, base_dir):
    """The smooth term h of a custom problem and its gradient map."""
    h, lipschitz = parse_smooth_spec(values["h"], values["dim"], base_dir)
    if lipschitz <= 0:
        raise ConfigError("custom problems need a smooth term with positive curvature")
    return h, gradient_map(h, lipschitz)


def _build_custom(values, base_dir):
    dim = values["dim"]
    h, B = _smooth_term(values, base_dir)
    L = _coupling(values["L"], dim, base_dir, "custom L")
    g = parse_prox_spec(values["g"], L.codomain_dim, base_dir)
    P = parse_projector_spec(values["projector"], dim, base_dir)
    U = SpdOperator.scalar_op(values["sigma"], L.codomain_dim)
    spec = ProblemSpec(B=B, A=MonotoneBlock.from_prox(g), L=L, P_V=P, U=U, g=g, h=h,
                       name="custom")
    tau = 0.9 / max(_finite_lambda(U, L, P), 1e-12)
    return ZooInstance("custom", Schedules.constant(0.9 * B.beta, tau, B.beta), spec)


def _build_custom_composite(values, base_dir):
    dim = values["dim"]
    h, C = _smooth_term(values, base_dir)
    blocks, weights = [], []
    for i in range(1, composite_blocks(values) + 1):
        prefix = "block%d." % i
        L = _coupling(values[prefix + "L"], dim, base_dir, prefix + "L")
        g = parse_prox_spec(values[prefix + "g"], L.codomain_dim, base_dir)
        blocks.append(CompositeBlock(L=L, A=MonotoneBlock.from_prox(g),
                                     sigma=values[prefix + "sigma"], g=g))
        weights.append(values[prefix + "omega"])
    if not blocks:
        raise ConfigError("custom_composite needs block1.g/block1.L/... entries")
    cp = CompositeProblem(weights=np.array(weights), C=C, blocks=tuple(blocks), h=h,
                          name="custom_composite")
    caps = [0.9 / max(_finite_lambda(SpdOperator.scalar_op(blk.sigma, blk.A.dim), blk.L,
                                     OrthoProjector.full(dim)), 1e-12)
            for blk in cp.blocks]
    sched = Schedules.constant(0.9 * C.beta, min(caps), C.beta)
    return ZooInstance("custom_composite", sched, stack(cp), composite=cp)


_ENTRIES = {
    "cls": ZooEntry("cls", "constrained least squares (dense KKT oracle)", _build_cls),
    "lasso": ZooEntry("lasso", "l1-regularized quadratic (sign-enumeration oracle)", _build_lasso),
    "fused": ZooEntry("fused", "1-d total variation (long-run oracle)", _build_fused),
    "multi": ZooEntry("multi", "composite sum of three blocks (lifted long-run oracle)",
                      _build_multi),
    "custom": ZooEntry("custom", "single block assembled from config tags (no oracle)",
                       _build_custom),
    "custom_composite": ZooEntry("custom_composite",
                                 "composite sum of blocks assembled from config tags (no oracle)",
                                 _build_custom_composite),
}

_SOLUTIONS = {}


def zoo():
    """The problem registry."""
    return dict(_ENTRIES)


def build_instance(name, params=None, base_dir="."):
    """Build a problem from the text of its ``[problem]`` keys (a dict of
    strings); relative paths in its tags resolve against ``base_dir``."""
    values = problem_values(name, params or {})
    inst = _ENTRIES[name].build(values, base_dir)
    return replace(inst, params=tuple(sorted(values.items())))


def oracle_solution(inst):
    """The instance's independent reference pair (x, v) on ``inst.spec``,
    memoized, with the KKT self-check (<= 1e-8) enforced before anything
    consumes it."""
    key = (inst.name, inst.params)
    if key not in _SOLUTIONS:
        x, v = inst.oracle()
        pres, dres = kkt_residual(x, v, inst.spec)
        if not (pres <= 1e-8 and dres <= 1e-8):
            raise OracleError("oracle self-check failed for %s: kkt=(%.3e, %.3e)"
                              % (inst.name, pres, dres))
        _SOLUTIONS[key] = (x, v)
    return _SOLUTIONS[key]

