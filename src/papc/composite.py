"""Product-space reduction for sums of composite terms.

A problem  0 in sum_i w_i L_i* A_i (L_i x) + C x  is an instance of the
single-block inclusion: :func:`stack` couples the base space to the product
of the dual spaces through L x = (L_1 x, ..., L_m x), so the algorithm is
:func:`papc.solver.papc_step` on that spec.  A small stacked coupling is one
dense matrix (up to :data:`DENSE_STACK_ENTRIES` entries); a wider one
applies its blocks one by one.  :func:`lift` builds the independent
reference, the single-block inclusion on H^m with the w-weighted inner
product, the diagonal subspace as constraint, and block-diagonal operators;
the two are equivalent step by step when the lifted oracle replicates one
base-space sample across the m copies.  A base point x lifts to the
diagonal point (x, ..., x), whose first copy reads it back; dual vectors
share the stacked layout of the flat iteration, so they compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError
from .linop import LinearMap, OrthoProjector, SpdOperator
from .monotone import (CocoerciveMap, MonotoneBlock, ProductMonotoneBlock, ProxFunction,
                       inverse_resolvent)
from .solver import ProblemSpec

__all__ = [
    "CompositeBlock",
    "CompositeProblem",
    "stack",
    "lift",
    "composite_dual_residuals",
    "DENSE_STACK_ENTRIES",
]

# The largest stacked coupling, in matrix entries (dual times base
# dimension), that :func:`stack` forms as one dense matrix.  One apply and
# two adjoints on `multi` cost less dense than block by block up to about
# 7000 entries on a 20-row batch and 1e5 on a one-row batch (one BLAS
# thread); the bound sits below both.
DENSE_STACK_ENTRIES = 4096


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
        # Written so that a NaN weight fails it: every comparison with NaN is False.
        if not np.all((w > 0) & (w <= 1)) or abs(float(w.sum()) - 1.0) > 1e-12:
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


def _stacked_dual(cp):
    """A, U and g on the stacked dual space G_1 x ... x G_m with the
    w-weighted inner product: the product block, the per-block scalar
    preconditioner, and the weighted sum of the g_i (when every block has
    one) for the saddle value; the dual step goes through A."""
    omega = cp.weights
    offsets = cp.dual_offsets
    A = ProductMonotoneBlock(tuple(b.A for b in cp.blocks), cp.dual_dims)
    U = SpdOperator([b.sigma for b in cp.blocks], cp.dual_dims, name="stacked-U")
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

    When the stacked matrix has at most :data:`DENSE_STACK_ENTRIES` entries
    (k * d, for k dual and d base coordinates), L is that matrix, formed
    once from the blocks' dense forms, and its adjoint one matrix-vector
    product with the weights folded in.  Above the bound, L applies the
    blocks one by one, so that matrix-free blocks such as identities and
    differences keep a wide problem O(d) per block.
    """
    d, k = cp.base_dim, sum(cp.dual_dims)
    dual_weights = np.repeat(cp.weights, cp.dual_dims)
    if k * d <= DENSE_STACK_ENTRIES:
        L = LinearMap.from_matrix(np.vstack([b.L.to_dense() for b in cp.blocks]),
                                  codomain_weights=dual_weights, name="stacked-L")
    else:
        L = LinearMap(*_matrix_free_stack(cp), d, k, codomain_weights=dual_weights,
                      name="stacked-L")
    A, U, g = _stacked_dual(cp)
    return ProblemSpec(B=cp.C, A=A, L=L, P_V=OrthoProjector.full(d), U=U, g=g, h=cp.h,
                       name="stacked-" + (cp.name or "composite"))


def _matrix_free_stack(cp):
    """apply and adjoint of the stacked coupling, one block at a time."""
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

    return apply, adjoint


def lift(cp):
    """The lifted spec of a composite problem, on H^m.

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

    return ProblemSpec(B=bold_B, A=bold_A, L=bold_L, P_V=P, U=bold_U,
                       g=bold_g, h=bold_h, name="lifted-" + (cp.name or "composite"))


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
