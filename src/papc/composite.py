"""Product-space reduction for sums of composite terms.

A problem  0 in sum_i w_i L_i* A_i (L_i x) + C x  is an instance of the
single-block inclusion: :func:`stack` couples the base space to the product
of the dual spaces through L x = (L_1 x, ..., L_m x), so the algorithm is
:func:`papc.solver.papc_step` on that spec.  :func:`lift` builds the
independent reference, the single-block inclusion on H^m with the w-weighted
inner product, the diagonal subspace as constraint, and block-diagonal
operators; the two are equivalent step by step when the lifted oracle
replicates one base-space sample across the m copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError
from .linop import LinearMap, OrthoProjector, SpdOperator
from .monotone import (CocoerciveMap, MonotoneBlock, ProductMonotoneBlock, ProxFunction,
                       inverse_resolvent)
from .solver import PapcState, ProblemSpec, papc_step
from .stochastic import DeterministicOracle, GaussianOracle

__all__ = [
    "CompositeBlock",
    "CompositeProblem",
    "LiftedProblem",
    "stack",
    "lift",
    "lift_flat_equivalence",
    "composite_dual_residuals",
    "ReplicatedOracle",
]


@dataclass(frozen=True)
class CompositeBlock:
    """One composite term: the coupling L_i, the monotone block A_i (or its
    proxable function g_i), and the scalar dual preconditioner sigma_i."""

    L: LinearMap
    A: MonotoneBlock
    sigma: float = 1.0
    g: Optional[ProxFunction] = None

    def __post_init__(self):
        if self.A.dim != self.L.codomain_dim:
            raise DimensionMismatchError("block A and L codomain disagree")
        if self.sigma <= 0:
            raise DimensionMismatchError("sigma must be positive")


def _is_nonzero(L):
    """True iff L sends some standard unit vector to a non-zero image, i.e.
    L is not the zero map; stops at the first such column."""
    e = np.zeros(L.domain_dim)
    for j in range(L.domain_dim):
        e[j] = 1.0
        if np.any(L(e)):
            return True
        e[j] = 0.0
    return False


@dataclass(frozen=True)
class CompositeProblem:
    weights: np.ndarray
    C: CocoerciveMap
    blocks: tuple
    h: Optional[ProxFunction] = None
    name: str = ""

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or len(self.blocks) != w.size:
            raise DimensionMismatchError("one weight per block required")
        if np.any(w <= 0) or np.any(w > 1) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DimensionMismatchError("weights must lie in (0,1] and sum to 1")
        for blk in self.blocks:
            if blk.L.domain_dim != self.C.dim:
                raise DimensionMismatchError("block L domain must match the base space")
            if not _is_nonzero(blk.L):
                raise DimensionMismatchError("each L_i must be nonzero")

    @property
    def m(self):
        return len(self.blocks)

    @property
    def base_dim(self):
        return self.C.dim

    @property
    def dual_dims(self):
        return tuple(b.A.dim for b in self.blocks)

    @property
    def dual_offsets(self):
        out, start = [], 0
        for d in self.dual_dims:
            out.append((start, start + d))
            start += d
        return tuple(out)

    def split_dual(self, v):
        return [v[s:e] for s, e in self.dual_offsets]

    def stack_dual(self, parts):
        return np.concatenate([np.asarray(p, dtype=float) for p in parts])


@dataclass(frozen=True)
class LiftedProblem:
    """The lifted single-block spec plus the embeddings between base and
    product coordinates.  Dual vectors share the stacked layout of the flat
    iteration, so they compare directly."""

    spec: ProblemSpec
    m: int
    base_dim: int
    weights: np.ndarray

    def embed_primal(self, x):
        return np.tile(np.asarray(x, dtype=float), self.m)

    def extract_primal(self, bold_x):
        # Any diagonal coordinate works; read the first copy.
        return np.asarray(bold_x, dtype=float)[: self.base_dim]

    def average_primal(self, bold_x):
        blocks = np.asarray(bold_x, dtype=float).reshape(self.m, self.base_dim)
        return self.weights @ blocks


def _stacked_dual(cp):
    """A, U and g on the stacked dual space G_1 x ... x G_m with the
    w-weighted inner product: the product block, the per-block scalar
    preconditioner, and the weighted sum of the g_i (when every block has
    one) for the saddle value; the dual step goes through A."""
    omega = cp.weights
    offsets = cp.dual_offsets
    A = ProductMonotoneBlock(tuple(b.A for b in cp.blocks), cp.dual_dims)
    U = SpdOperator.block_scalar([b.sigma for b in cp.blocks], cp.dual_dims,
                                 name="stacked-U")
    g = None
    if all(b.g is not None for b in cp.blocks):
        gs = [b.g for b in cp.blocks]

        def g_value(y):
            return float(sum(w * g.value(y[s:e]) for w, g, (s, e) in zip(omega, gs, offsets)))

        conj = None
        if all(g.conjugate_value is not None for g in gs):
            def conj(v):
                return float(sum(w * g.conjugate_value(v[s:e])
                                 for w, g, (s, e) in zip(omega, gs, offsets)))

        g = ProxFunction(sum(cp.dual_dims), value=g_value, conjugate_value=conj,
                         name="stacked-g")
    return A, U, g


def stack(cp):
    """The composite problem as one single-block spec on the base space.

    L x = (L_1 x, ..., L_m x) maps into the stacked dual space with the
    w-weighted inner product, so its adjoint is sum_i w_i L_i* v_i.  With
    B = C, V = H and the dual side of :func:`_stacked_dual`, papc_step on
    this spec is the composite iteration, and the step-size gate, the run
    loop and the diagnostics apply to it unchanged.
    """
    d = cp.base_dim
    weights = [float(w) for w in cp.weights]
    maps = [b.L for b in cp.blocks]
    slices = [slice(s, e) for s, e in cp.dual_offsets]

    def apply(x):
        return np.concatenate([L(x) for L in maps], axis=-1)

    def adjoint(v):
        out = np.zeros(v.shape[:-1] + (d,))
        for w, L, sl in zip(weights, maps, slices):
            out += w * L.adjoint(v[..., sl])
        return out

    L = LinearMap(apply, adjoint, d, sum(cp.dual_dims),
                  codomain_weights=np.repeat(cp.weights, cp.dual_dims), name="stacked-L")
    A, U, g = _stacked_dual(cp)
    return ProblemSpec(B=cp.C, A=A, L=L, P_V=OrthoProjector.full(d), U=U, g=g, h=cp.h,
                       name="stacked-" + (cp.name or "composite"))


def lift(cp):
    """Build the lifted spec of a composite problem.

    Both product spaces carry the weight-induced inner product; the lifted
    coupling acts blockwise, the projector is the weighted averaging onto the
    diagonal, the lifted cocoercive operator applies C per copy and keeps the
    constant of C, and the dual side is the stacked one.
    """
    m, d = cp.m, cp.base_dim
    omega = cp.weights
    wH = np.repeat(omega, d)
    wG = np.repeat(omega, cp.dual_dims)
    offsets = cp.dual_offsets

    def bold_apply(x):
        parts = [blk.L(x[..., i * d:(i + 1) * d]) for i, blk in enumerate(cp.blocks)]
        return np.concatenate(parts, axis=-1)

    def bold_adjoint(v):
        # Blockwise adjoints: identical block weights cancel in W^{-1} M^T W.
        parts = [blk.L.adjoint(v[..., s:e]) for blk, (s, e) in zip(cp.blocks, offsets)]
        return np.concatenate(parts, axis=-1)

    bold_L = LinearMap(bold_apply, bold_adjoint, m * d, sum(cp.dual_dims),
                       wH, wG, name="lifted-L")
    bold_A, bold_U, bold_g = _stacked_dual(cp)
    P = OrthoProjector.averaging(m, d, block_weights=omega)

    def bold_C_apply(x):
        out = np.empty(x.shape)
        for i in range(m):
            out[..., i * d:(i + 1) * d] = cp.C.apply(x[..., i * d:(i + 1) * d])
        return out

    bold_B = CocoerciveMap(m * d, bold_C_apply, beta=cp.C.beta, weights=wH,
                           name="lifted-" + (cp.C.name or "C"))

    bold_h = None
    if cp.h is not None:
        base_h = cp.h

        def h_value(x):
            return float(sum(w * base_h.value(x[i * d:(i + 1) * d])
                             for i, w in enumerate(omega)))

        grad = None
        if base_h.gradient is not None:
            def grad(x):
                return bold_C_apply(x)

        bold_h = ProxFunction(m * d, value=h_value, gradient=grad, name="lifted-h")

    spec = ProblemSpec(B=bold_B, A=bold_A, L=bold_L, P_V=P, U=bold_U,
                       g=bold_g, h=bold_h, name="lifted-" + (cp.name or "composite"))
    return LiftedProblem(spec=spec, m=m, base_dim=d, weights=omega)


class ReplicatedOracle:
    """Lifted oracle that replicates one base-space sample across the copies,
    r_n = (r_n, ..., r_n), as required for exact flat/lifted equivalence."""

    def __init__(self, base_oracle, m, base_dim):
        self.inner = base_oracle
        self.m = int(m)
        self.base_dim = int(base_dim)
        self.dim = self.m * self.base_dim
        self.is_deterministic = getattr(base_oracle, "is_deterministic", False)

    def sample(self, bold_x, n, t=0):
        r = self.inner.sample(bold_x[..., : self.base_dim], n, t)
        return np.tile(r, (1,) * (r.ndim - 1) + (self.m,))


def lift_flat_equivalence(cp, sched, seed, steps, noise=None, x0=None, vs0=None):
    """Step papc_step on the stacked spec and on the lifted spec in lockstep
    from the same seed and return the largest relative coordinate deviation
    over all steps.

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
    lp = lift(cp)
    lifted_oracle = ReplicatedOracle(base_for_lift, cp.m, cp.base_dim)

    x = np.zeros(cp.base_dim) if x0 is None else np.array(x0, dtype=float)
    v = np.zeros(sum(cp.dual_dims)) if vs0 is None else cp.stack_dual(vs0)
    flat = PapcState(0, x.copy(), v.copy())
    bold = PapcState(0, lp.embed_primal(x), v.copy())

    worst = 0.0
    for _ in range(int(steps)):
        flat = papc_step(flat, spec, sched, flat_oracle)
        bold = papc_step(bold, lp.spec, sched, lifted_oracle)
        mag = max(float(np.max(np.abs(flat.x))), float(np.max(np.abs(flat.v))), 0.0)
        dev_v = float(np.max(np.abs(bold.v - flat.v)))
        dev_x = 0.0
        for k in range(cp.m):
            blockk = bold.x[k * cp.base_dim:(k + 1) * cp.base_dim]
            dev_x = max(dev_x, float(np.max(np.abs(blockk - flat.x))))
        worst = max(worst, max(dev_x, dev_v) / (1.0 + mag))
    return worst


def composite_dual_residuals(cp, x, vs):
    """Residuals of the composite dual-solution structure at (x, v_1..v_m):
    the combined stationarity ||sum_i w_i L_i* v_i + C x|| and, per block, the
    fixed-point residual ||v_i - J_{A_i^{-1}}(v_i + L_i x)||."""
    if isinstance(vs, np.ndarray) and vs.ndim == 1 and vs.size == sum(cp.dual_dims):
        vs = cp.split_dual(vs)
    acc = cp.C.apply(np.asarray(x, dtype=float)).copy()
    for w, blk, v_i in zip(cp.weights, cp.blocks, vs):
        acc += w * blk.L.adjoint(v_i)
    combined = float(np.linalg.norm(acc))
    per_block = []
    for blk, v_i in zip(cp.blocks, vs):
        res = v_i - inverse_resolvent(blk.A, 1.0, v_i + blk.L(np.asarray(x, dtype=float)))
        per_block.append(float(np.linalg.norm(res)))
    return combined, per_block
