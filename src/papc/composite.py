"""Product-space reduction for sums of composite terms.

A problem  0 in sum_i w_i L_i* A_i (L_i x) + C x  lifts to the single-block
inclusion on H^m with the w-weighted inner product, the diagonal subspace as
constraint, and block-diagonal operators; the flat iteration below is the
same algorithm written without the lifting, and the two are equivalent step
by step when the lifted oracle replicates one base-space sample across the m
copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .linop import LinearMap, OrthoProjector, SpdOperator, validate_tau
from .monotone import (CocoerciveMap, MonotoneBlock, ProductMonotoneBlock, ProxFunction,
                       conjugate_prox_via_moreau, inverse_resolvent)
from .solver import (ConditionCheck, ErgodicAccumulator, ErgodicCheckpoint,
                     HypothesisCertificate, PapcState, ProblemSpec, TraceBuffer,
                     ergodic_update, papc_step)
from .stochastic import DeterministicOracle, GaussianOracle

__all__ = [
    "CompositeBlock",
    "CompositeProblem",
    "LiftedProblem",
    "lift",
    "composite_step",
    "structured_min_step",
    "run_composite",
    "validate_composite",
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
        if np.any(w < 0) or np.any(w > 1) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DimensionMismatchError("weights must lie in [0,1] and sum to 1")
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


def lift(cp):
    """Build the lifted spec of a composite problem.

    Both product spaces carry the weight-induced inner product; the lifted
    coupling and preconditioner act blockwise, the projector is the weighted
    averaging onto the diagonal, and the lifted cocoercive operator applies C
    per copy and keeps the constant of C.
    """
    m, d = cp.m, cp.base_dim
    omega = cp.weights
    wH = np.repeat(omega, d)
    wG = np.repeat(omega, cp.dual_dims)
    offsets = cp.dual_offsets

    def bold_apply(x):
        parts = [blk.L(x[i * d:(i + 1) * d]) for i, blk in enumerate(cp.blocks)]
        return np.concatenate(parts)

    def bold_adjoint(v):
        # Blockwise adjoints: identical block weights cancel in W^{-1} M^T W.
        parts = [blk.L.adjoint(v[s:e]) for blk, (s, e) in zip(cp.blocks, offsets)]
        return np.concatenate(parts)

    bold_L = LinearMap(bold_apply, bold_adjoint, m * d, sum(cp.dual_dims),
                       wH, wG, name="lifted-L")
    bold_A = ProductMonotoneBlock(tuple(b.A for b in cp.blocks), cp.dual_dims)
    bold_U = SpdOperator.block_scalar([b.sigma for b in cp.blocks], cp.dual_dims,
                                      name="lifted-U")
    P = OrthoProjector.averaging(m, d, block_weights=omega)

    def bold_C_apply(x):
        out = np.empty(m * d)
        for i in range(m):
            out[i * d:(i + 1) * d] = cp.C.apply(x[i * d:(i + 1) * d])
        return out

    bold_B = CocoerciveMap(m * d, bold_C_apply, beta=cp.C.beta, weights=wH,
                           name="lifted-" + (cp.C.name or "C"))

    bold_g = None
    if all(b.g is not None for b in cp.blocks):
        gs = [b.g for b in cp.blocks]

        def g_value(y):
            return float(sum(w * g.value(y[s:e]) for w, g, (s, e) in zip(omega, gs, offsets)))

        def g_prox(lam, y):
            return np.concatenate([g.prox(lam, y[s:e]) for g, (s, e) in zip(gs, offsets)])

        conj = None
        if all(g.conjugate_value is not None for g in gs):
            def conj(v):
                return float(sum(w * g.conjugate_value(v[s:e])
                                 for w, g, (s, e) in zip(omega, gs, offsets)))

        bold_g = ProxFunction(sum(cp.dual_dims), value=g_value, prox=g_prox,
                              conjugate_value=conj, name="lifted-g")

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

    def sample(self, bold_x, n):
        r = self.inner.sample(bold_x[: self.base_dim], n)
        return np.tile(r, self.m)

    def error_second_moment(self, n):
        return self.inner.error_second_moment(n)


def _check_finite(arr, label, n):
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(label, n)


def composite_step(state, cp, sched, oracle):
    """One flat iteration: a single sample of C drives both primal lines, and
    each dual block takes its own preconditioned resolvent step."""
    n = state.n
    gam = float(sched.gamma(n))
    tau = float(sched.tau(n))
    lam = tau / gam
    vs = cp.split_dual(state.v)
    r = oracle.sample(state.x, n)
    _check_finite(r, "r_n", n)

    acc = np.zeros(cp.base_dim)
    for w, blk, v_i in zip(cp.weights, cp.blocks, vs):
        acc += w * (blk.L.adjoint(v_i) + r)
    p = state.x - gam * acc
    _check_finite(p, "p_n", n)

    v_next = []
    for blk, v_i in zip(cp.blocks, vs):
        w_i = v_i + lam * (blk.sigma * blk.L(p))
        v_next.append(inverse_resolvent(blk.A, lam * blk.sigma, w_i))
    v1 = np.concatenate(v_next)
    _check_finite(v1, "v_{n+1}", n)

    acc2 = np.zeros(cp.base_dim)
    for w, blk, v_i in zip(cp.weights, cp.blocks, v_next):
        acc2 += w * (blk.L.adjoint(v_i) + r)
    x1 = state.x - gam * acc2
    _check_finite(x1, "x_{n+1}", n)
    return PapcState(n + 1, x1, v1, p, r)


def structured_min_step(state, cp, sched, oracle):
    """The minimization form: dual blocks step through the conjugate proxes
    of the g_i.  Identical to :func:`composite_step` when A_i = partial g_i."""
    if not all(blk.g is not None for blk in cp.blocks):
        raise ValueError("structured_min_step needs g_i on every block")
    n = state.n
    gam = float(sched.gamma(n))
    tau = float(sched.tau(n))
    lam = tau / gam
    vs = cp.split_dual(state.v)
    r = oracle.sample(state.x, n)
    _check_finite(r, "r_n", n)

    acc = np.zeros(cp.base_dim)
    for w, blk, v_i in zip(cp.weights, cp.blocks, vs):
        acc += w * (blk.L.adjoint(v_i) + r)
    p = state.x - gam * acc
    _check_finite(p, "p_n", n)

    v_next = []
    for blk, v_i in zip(cp.blocks, vs):
        w_i = v_i + lam * (blk.sigma * blk.L(p))
        v_next.append(conjugate_prox_via_moreau(blk.g, lam * blk.sigma, w_i))
    v1 = np.concatenate(v_next)
    _check_finite(v1, "v_{n+1}", n)

    acc2 = np.zeros(cp.base_dim)
    for w, blk, v_i in zip(cp.weights, cp.blocks, v_next):
        acc2 += w * (blk.L.adjoint(v_i) + r)
    x1 = state.x - gam * acc2
    _check_finite(x1, "x_{n+1}", n)
    return PapcState(n + 1, x1, v1, p, r)


def run_composite(cp, sched, oracle, x0, vs0, horizon, callbacks=(), checkpoints=(),
                  grad_gap_reference=None, step=composite_step):
    """Iterate the flat composite algorithm; mirrors :func:`papc.solver.run`."""
    horizon = int(horizon)
    x0 = np.array(x0, dtype=float)
    v0 = vs0 if isinstance(vs0, np.ndarray) else cp.stack_dual(vs0)
    state = PapcState(0, x0, np.array(v0, dtype=float))

    cps = sorted(set(int(c) for c in checkpoints))
    cp_iter = iter(cps)
    next_cp = next(cp_iter, None)

    ref_val = None
    if grad_gap_reference is not None:
        ref_val = cp.C.apply(np.asarray(grad_gap_reference, dtype=float))

    trace = TraceBuffer(horizon, state.x.size, state.v.size, grad_gap=ref_val is not None)
    stride = trace.stride
    stochastic = not getattr(oracle, "is_deterministic", False)
    snaps = []
    acc = ErgodicAccumulator()
    gg = 0.0

    def _store(n, st):
        trace.store(n, st.x, st.v, float(sched.gamma(n)), float(sched.tau(n)), gg)

    for n in range(horizon):
        if ref_val is not None:
            d = cp.C.apply(state.x) - ref_val
            gg += float(np.dot(d, d))
        if n % stride == 0:
            _store(n, state)
        gam = float(sched.gamma(n))
        try:
            state = step(state, cp, sched, oracle)
        except DivergenceError as exc:
            exc.record = trace.record(snaps, stochastic, str(exc))
            raise
        acc = ergodic_update(acc, gam, state.x, state.v)
        if next_cp is not None and n == next_cp:
            snaps.append(ErgodicCheckpoint(n, np.array(acc.x_avg), np.array(acc.v_avg),
                                           acc.weight_sum))
            next_cp = next(cp_iter, None)
        for cb in callbacks:
            cb(n, state, gam, float(sched.tau(n)))

    if ref_val is not None:
        d = cp.C.apply(state.x) - ref_val
        gg += float(np.dot(d, d))
    _store(horizon, state)
    return trace.record(snaps, stochastic)


def validate_composite(cp, sched, horizon, regime="almost-sure", margin=1e-6):
    """Blockwise step-size conditions plus the lifted spectral check.

    The stated blockwise condition is (tau U_i)^{-1} - L_i L_i* positive
    definite per block; the lifted condition uses the averaging projector and
    is provably no stricter, but both are evaluated and the run is gated on
    their conjunction (a discrepancy is reported in the checks).
    """
    horizon = int(horizon)
    gammas = np.array([float(sched.gamma(n)) for n in range(horizon + 1)])
    taus = np.array([float(sched.tau(n)) for n in range(horizon + 1)])
    checks = [
        ConditionCheck("gamma non-increasing", bool(np.all(np.diff(gammas) <= 1e-15)), ""),
        ConditionCheck("tau non-decreasing", bool(np.all(np.diff(taus) >= -1e-15)), ""),
        ConditionCheck("tau capped", bool(np.max(taus) <= sched.tau_cap * (1 + 1e-12)), ""),
        ConditionCheck("gamma0 below mu", bool(gammas[0] < cp.C.beta),
                       "gamma0=%.6g mu=%.6g" % (gammas[0], cp.C.beta)),
        ConditionCheck("gamma positive", bool(np.min(gammas) > 0.0),
                       "all step sizes must be strictly positive"),
    ]
    if regime == "almost-sure":
        checks.append(ConditionCheck("inf gamma positive", bool(np.min(gammas) > 0.0), ""))

    tau_margin = margin if regime == "almost-sure" else 0.0
    block_ok = True
    for i, blk in enumerate(cp.blocks):
        u_i = SpdOperator.scalar_op(blk.sigma, blk.A.dim)
        full = OrthoProjector.full(cp.base_dim)
        cert = validate_tau(u_i, blk.L, full, sched.tau_cap, margin=tau_margin)
        block_ok = block_ok and cert.ok
        checks.append(ConditionCheck(
            "block %d spectral condition" % i, cert.ok,
            "tau*lambda_max=%.6g (status %s)" % (cert.tau * cert.spectral_estimate, cert.status)))

    lp = lift(cp)
    lifted_cert = validate_tau(lp.spec.U, lp.spec.L, lp.spec.P_V, sched.tau_cap,
                               margin=tau_margin)
    checks.append(ConditionCheck(
        "lifted spectral condition", lifted_cert.ok,
        "tau*lambda_max=%.6g (status %s)" % (lifted_cert.tau * lifted_cert.spectral_estimate,
                                             lifted_cert.status)))
    if block_ok != lifted_cert.ok:
        checks.append(ConditionCheck(
            "blockwise/lifted agreement", False,
            "blockwise and lifted spectral gates disagree; the stricter one gates the run"))

    return HypothesisCertificate(
        ok=all(c.ok for c in checks),
        regime=regime,
        horizon=horizon,
        checks=tuple(checks),
        tau_certificate=lifted_cert,
    )


def lift_flat_equivalence(cp, sched, seed, steps, noise=None, x0=None, vs0=None):
    """Run the flat and lifted iterations in lockstep from the same seed and
    return the largest relative coordinate deviation over all steps.

    The lifted oracle replicates the base-space sample across copies, so with
    exact arithmetic the trajectories coincide; deviations beyond float
    round-off indicate a broken lifting.
    """
    if noise is None:
        flat_oracle = DeterministicOracle(cp.C)
        base_for_lift = DeterministicOracle(cp.C)
    else:
        flat_oracle = GaussianOracle(cp.C, noise, seed)
        base_for_lift = GaussianOracle(cp.C, noise, seed)

    lp = lift(cp)
    lifted_oracle = ReplicatedOracle(base_for_lift, cp.m, cp.base_dim)

    x = np.zeros(cp.base_dim) if x0 is None else np.array(x0, dtype=float)
    v = np.zeros(sum(cp.dual_dims)) if vs0 is None else cp.stack_dual(vs0)
    flat = PapcState(0, x.copy(), v.copy())
    bold = PapcState(0, lp.embed_primal(x), v.copy())

    worst = 0.0
    for _ in range(int(steps)):
        flat = composite_step(flat, cp, sched, flat_oracle)
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
