"""The core primal-dual iteration with correction step.

One step reads, with gamma_n the primal step, tau_n the dual scaling, U the
dual preconditioner and r_n one stochastic sample of the cocoercive operator
(drawn once and reused by both primal lines):

    p_n     = P_V(x_n - gamma_n (L* v_n + r_n))
    v_{n+1} = J_{(tau_n/gamma_n) U A^{-1}} (v_n + (tau_n/gamma_n) U L p_n)
    x_{n+1} = P_V(x_n - gamma_n (L* v_{n+1} + r_n))

The dual resolvent is synthesized from A's resolvent through the inversion
identity, block by block: U is one scalar sigma_i per block of A.  A saddle
problem min_x h(x) + g(Lx) is the case A = the subdifferential of g
(``MonotoneBlock.from_prox(g)``).

The iterates are vectors, or (S, d) arrays of S independent runs (one per
seed of the oracle): every operator acts on the last axis and its rows never
mix, so one step advances all S runs and each row is bitwise the run of its
seed alone.  :func:`run` always iterates (S, d) arrays; a vector run is the
one-row batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .linop import (LinearMap, OrthoProjector, SpdOperator, TauCertificate, certify_tau,
                    coupling_matrix, inner, lambda_max)
from .monotone import CocoerciveMap, MonotoneBlock, ProductMonotoneBlock, ProxFunction
from .stochastic import SummabilityReport

__all__ = [
    "ProblemSpec",
    "Schedules",
    "PapcState",
    "ErgodicAccumulator",
    "ErgodicCheckpoint",
    "RunRecord",
    "BatchRecord",
    "HypothesisCertificate",
    "ConditionCheck",
    "validate_hypotheses",
    "papc_step",
    "dual_resolvent",
    "ergodic_update",
    "run",
]


@dataclass(frozen=True)
class ProblemSpec:
    """The full inclusion datum: cocoercive B (or grad h), monotone dual block
    A (or g), coupling L, projector onto the constraint subspace, and the dual
    preconditioner U.  ``g``/``h`` are optional proxable/value oracles used by
    the gap diagnostics.

    U's blocks must be A's (one for a single MonotoneBlock), or
    :class:`DimensionMismatchError` is raised; each block's (resolvent,
    start, stop, sigma) is resolved here, once, for :func:`dual_resolvent`."""

    B: CocoerciveMap
    A: MonotoneBlock | ProductMonotoneBlock
    L: LinearMap
    P_V: OrthoProjector
    U: SpdOperator
    g: Optional[ProxFunction] = None
    h: Optional[ProxFunction] = None
    name: str = ""
    _dual_blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.B.dim == self.L.domain_dim == self.P_V.dim):
            raise DimensionMismatchError("primal dims disagree (B, L domain, P_V)")
        if not (self.A.dim == self.L.codomain_dim == self.U.dim):
            raise DimensionMismatchError("dual dims disagree (A, L codomain, U)")
        A = self.A
        parts, offsets = ((A.blocks, A.offsets) if isinstance(A, ProductMonotoneBlock)
                          else ((A,), ((0, A.dim),)))
        if tuple((s, e) for s, e, _ in self.U.blocks) != offsets:
            raise DimensionMismatchError("U's blocks must be A's blocks %s" % (offsets,))
        object.__setattr__(self, "_dual_blocks", tuple(
            (blk.resolvent, s, e, sigma) for blk, (s, e, sigma) in zip(parts, self.U.blocks)))

    @property
    def primal_weights(self):
        return self.L.domain_weights

    @property
    def dual_weights(self):
        return self.L.codomain_weights


@dataclass(frozen=True)
class Schedules:
    """Step-size sequences with their contracts: gamma non-increasing with
    gamma_0 < beta, tau non-decreasing and capped by tau_cap."""

    gamma: Callable
    tau: Callable
    tau_cap: float
    beta: float
    gamma_kind: str = "custom"

    @property
    def gamma0(self):
        return float(self.gamma(0))

    @classmethod
    def constant(cls, gamma0, tau0, beta):
        gamma0 = float(gamma0)
        tau0 = float(tau0)
        return cls(lambda n: gamma0, lambda n: tau0, tau0, float(beta), "constant")

    @classmethod
    def make(cls, beta, gamma_kind="constant", gamma0=None, tau_kind="constant", tau_cap=1.0):
        """Named schedule families.

        gamma: ``constant`` gamma0; ``harmonic_floor`` (gamma0/2)(1 + 1/(n+1)),
        decreasing to gamma0/2; ``harmonic`` gamma0/(n+1) (ergodic only:
        violates inf gamma > 0).
        tau: ``constant`` tau_cap; ``ramp`` tau_cap (n+1)/(n+2), increasing to
        the cap.
        """
        beta = float(beta)
        gamma0 = 0.9 * beta if gamma0 is None else float(gamma0)
        tau_cap = float(tau_cap)
        if gamma_kind == "constant":
            gamma = lambda n: gamma0
        elif gamma_kind == "harmonic_floor":
            gamma = lambda n: 0.5 * gamma0 * (1.0 + 1.0 / (n + 1.0))
        elif gamma_kind == "harmonic":
            gamma = lambda n: gamma0 / (n + 1.0)
        else:
            raise ValueError("unknown gamma kind %r" % gamma_kind)
        if tau_kind == "constant":
            tau = lambda n: tau_cap
        elif tau_kind == "ramp":
            tau = lambda n: tau_cap * (n + 1.0) / (n + 2.0)
        else:
            raise ValueError("unknown tau kind %r" % tau_kind)
        return cls(gamma, tau, tau_cap=tau_cap, beta=beta, gamma_kind=gamma_kind)


@dataclass(frozen=True)
class PapcState:
    """The iterate before step n.  ``live`` masks the rows of (S, d) iterates
    whose finiteness is checked; None checks every row.  ``adj_v`` is L* v,
    which the step that made v computed; None when it is not known."""

    n: int
    x: np.ndarray
    v: np.ndarray
    p: Optional[np.ndarray] = None
    live: Optional[np.ndarray] = None
    adj_v: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class HypothesisCertificate:
    ok: bool
    regime: str
    horizon: int
    checks: tuple
    tau_certificate: Optional[TauCertificate] = None
    summability: Optional[SummabilityReport] = None

    def failed(self):
        return [c for c in self.checks if not c.ok]


def _tau_detail(tcert):
    return "tau*lambda_max=%.6g (status %s)" % (tcert.tau * tcert.lambda_max, tcert.status)


def validate_hypotheses(spec, sched, horizon, regime="almost-sure", margin=1e-6, oracle=None):
    """Check the step-size and noise hypotheses over the run horizon.

    Almost-sure regime: gamma non-increasing, tau non-decreasing and capped,
    gamma_0 < beta (the smaller of the schedule's and B's), inf gamma > 0,
    and (tau_cap U)^{-1} - L P_V L* positive definite (strict margin).  Ergodic regime: the same monotonicity and
    gamma_0 < beta, with positive semidefiniteness (margin 0) and no floor on
    gamma.  The spectral condition is decided exactly, from the eigenvalues
    of the dense coupling matrix U^{1/2} L P_V L* U^{1/2} (one k x k matrix
    for k dual coordinates, formed once).  When A is a product, every block
    i is also checked on its own: tau_cap lambda_max(block i of that
    matrix) / w_i < 1 - margin, which is tau_cap sigma_i lambda_max(block i of
    L P_V L*) / w_i with w_i the block's dual weight (on a stacked composite
    tau_cap sigma_i lambda_max(L_i L_i*)); a block whose weight is not
    positive fails.  An oracle's ``summability`` report (:mod:`papc.stochastic`),
    when not None, adds the check ``noise summability``, which fails only on a
    ``violation``, and is kept as ``summability``.  Each violated condition is
    reported by name.
    """
    if regime not in ("almost-sure", "ergodic"):
        raise ValueError("unknown regime %r" % regime)
    horizon = int(horizon)
    gammas = np.array([float(sched.gamma(n)) for n in range(horizon + 1)])
    taus = np.array([float(sched.tau(n)) for n in range(horizon + 1)])

    checks = []
    slack = 1e-15
    checks.append(ConditionCheck(
        "gamma non-increasing",
        bool(np.all(np.diff(gammas) <= slack * np.maximum(gammas[:-1], 1.0))),
        "gamma must not increase over the horizon"))
    checks.append(ConditionCheck(
        "tau non-decreasing",
        bool(np.all(np.diff(taus) >= -slack * np.maximum(taus[:-1], 1.0))),
        "tau must not decrease over the horizon"))
    checks.append(ConditionCheck(
        "tau capped",
        bool(np.max(taus) <= sched.tau_cap * (1.0 + 1e-12)),
        "max tau %.6g vs cap %.6g" % (float(np.max(taus)), sched.tau_cap)))
    beta = min(sched.beta, spec.B.beta)
    checks.append(ConditionCheck(
        "gamma0 below beta",
        bool(gammas[0] < beta),
        "gamma0=%.6g beta=%.6g" % (gammas[0], beta)))
    checks.append(ConditionCheck(
        "gamma positive",
        bool(np.min(gammas) > 0.0),
        "all step sizes must be strictly positive"))
    if regime == "almost-sure":
        checks.append(ConditionCheck(
            "inf gamma positive",
            bool(np.min(gammas) > 0.0 and np.min(gammas) >= 1e-12 * gammas[0]),
            "inf gamma %.6g over the horizon" % float(np.min(gammas))))

    tau_margin = margin if regime == "almost-sure" else 0.0
    coupling = coupling_matrix(spec.U, spec.L, spec.P_V)
    tcert = certify_tau(lambda_max(coupling), sched.tau_cap, margin=tau_margin)
    checks.append(ConditionCheck("tau spectral condition", tcert.ok, _tau_detail(tcert)))
    if isinstance(spec.A, ProductMonotoneBlock):
        wG = spec.dual_weights
        for i, (start, stop, _) in enumerate(spec.U.blocks):
            name = "block %d spectral condition" % i
            w_i = 1.0 if wG is None else float(wG[start])
            if not w_i > 0.0:
                # L* scales the block by w_i, so L_i* is lost and the block
                # does not act on x: not a composite weight in (0, 1].
                checks.append(ConditionCheck(name, False, "dual weight %.6g not positive" % w_i))
                continue
            bcert = certify_tau(lambda_max(coupling[start:stop, start:stop]) / w_i,
                                sched.tau_cap, margin=tau_margin)
            checks.append(ConditionCheck(name, bcert.ok, _tau_detail(bcert)))

    report = None if oracle is None else oracle.summability(sched, horizon, regime)
    if report is not None:
        checks.append(ConditionCheck(
            "noise summability", report.status != "violation",
            "status %s: %s" % (report.status, "; ".join(report.messages))))

    return HypothesisCertificate(all(c.ok for c in checks), regime, horizon, tuple(checks),
                                 tau_certificate=tcert, summability=report)


def dual_resolvent(spec, lam, w):
    """J_{lam * U * A^{-1}}(w), U one scalar sigma_i per block A_i of A (one
    block for a single A): per block, the inversion identity of
    :func:`papc.monotone.inverse_resolvent` with the scalar c = lam sigma_i,
    w_i - c J_i(1 / c, w_i / c).  One block returns its result, several are
    concatenated, so each block is bitwise inverse_resolvent(A_i, lam sigma_i, w_i)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    blocks = spec._dual_blocks
    parts = []
    for resolvent, s, e, sigma in blocks:
        c = lam * sigma
        w_i = w if len(blocks) == 1 else w[..., s:e]
        parts.append(w_i - c * resolvent(1.0 / c, w_i / c))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _check_finite(arr, label, n, live):
    finite = np.isfinite(arr)
    if not finite.all():
        bad = ~finite.all(axis=-1)
        if live is not None:
            bad &= live
        if bad.any():
            raise DivergenceError(label, n, rows=np.flatnonzero(bad))


def papc_step(state, spec, sched, oracle):
    """One iteration of the inclusion algorithm.  Draws exactly one oracle
    sample and reuses it in the predictor and the correction line, and
    applies L* once: the returned state carries L* v_{n+1} for the next
    step's predictor (``state.adj_v``; computed here when None).  A
    non-finite quantity in a row of ``state.live`` (in any row, when it is
    None) raises :class:`DivergenceError`, which names those rows of (S, d)
    iterates; the mask is carried to the next state."""
    n, live = state.n, state.live
    gam = float(sched.gamma(n))
    tau = float(sched.tau(n))
    r = oracle.sample(state.x, n)
    _check_finite(r, "r_n", n, live)
    adj_v = spec.L.adjoint(state.v) if state.adj_v is None else state.adj_v
    p = spec.P_V(state.x - gam * (adj_v + r))
    _check_finite(p, "p_n", n, live)
    lam = tau / gam
    w = state.v + lam * spec.U.apply(spec.L(p))
    v1 = dual_resolvent(spec, lam, w)
    _check_finite(v1, "v_{n+1}", n, live)
    adj_v1 = spec.L.adjoint(v1)
    x1 = spec.P_V(state.x - gam * (adj_v1 + r))
    _check_finite(x1, "x_{n+1}", n, live)
    return PapcState(n + 1, x1, v1, p, live, adj_v1)


@dataclass
class ErgodicAccumulator:
    """Step-size-weighted running averages of (x_{n+1}, v_{n+1}) in the
    numerically stable incremental form, updated in place by
    :func:`ergodic_update`."""

    weight_sum: float = 0.0
    x_avg: Optional[np.ndarray] = None
    v_avg: Optional[np.ndarray] = None


def ergodic_update(acc, gamma_n, x_next, v_next):
    """Fold (x_next, v_next) with weight gamma_n into ``acc``'s averages in
    place, avg += (gamma_n / weight_sum) (x_next - avg), and return ``acc``.
    The averages are ``acc``'s own arrays: copy them to keep a snapshot."""
    if gamma_n <= 0:
        raise ValueError("gamma_n must be positive")
    acc.weight_sum += gamma_n
    if acc.x_avg is None:
        acc.x_avg, acc.v_avg = np.array(x_next), np.array(v_next)
        return acc
    frac = gamma_n / acc.weight_sum
    for avg, new in ((acc.x_avg, x_next), (acc.v_avg, v_next)):
        t = new - avg
        t *= frac
        avg += t
    return acc


@dataclass(frozen=True)
class ErgodicCheckpoint:
    N: int
    x_avg: np.ndarray
    v_avg: np.ndarray
    sum_gamma: float


@dataclass(frozen=True)
class RunRecord:
    """Per-iteration trace.  Row k holds the state before step ``ns[k]`` plus
    the scheduled parameters at that index; a stride > 1 subsamples the trace
    for very long horizons (the terminal row is always present)."""

    ns: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    gammas: np.ndarray
    taus: np.ndarray
    checkpoints: tuple
    stochastic: bool
    horizon: int
    stride: int
    grad_gap_partial: Optional[np.ndarray] = None
    diverged: bool = False
    error: Optional[str] = None

    @property
    def terminal_x(self):
        return self.xs[-1]

    @property
    def terminal_v(self):
        return self.vs[-1]


def _trace_stride(horizon):
    """Keeps very long horizons at about 1e5 trace rows."""
    return 1 if horizon <= 100000 else math.ceil(horizon / 100000)


def trace_rows(horizon):
    """Rows of a run's trace: one every stride steps plus the terminal row."""
    return len(range(0, horizon, _trace_stride(horizon))) + 1


@dataclass(frozen=True)
class BatchRecord:
    """The traces of a batched run, seed axis first: ``xs``, ``vs`` and
    ``grad_gap_partial`` hold one trace per row of ``x0``, sharing ``ns``,
    ``gammas`` and ``taus``; a checkpoint's averages are (S, d), NaN in the
    rows of seeds retired before it.  Seed i ran until step ``stops[i]``
    (the horizon, unless it diverged at that step with message
    ``errors[i]``) and owns the trace rows with n <= stops[i]; :meth:`seed`
    is its RunRecord."""

    ns: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    gammas: np.ndarray
    taus: np.ndarray
    checkpoints: tuple
    stochastic: bool
    horizon: int
    stride: int
    stops: tuple
    errors: tuple
    grad_gap_partial: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.stops)

    def seed(self, i):
        """Row i's record, equal to the record of a run of that seed alone."""
        stop, err = self.stops[i], self.errors[i]
        k = int(np.searchsorted(self.ns, stop, side="right"))
        return RunRecord(
            ns=self.ns[:k], xs=self.xs[i, :k], vs=self.vs[i, :k],
            gammas=self.gammas[:k], taus=self.taus[:k],
            checkpoints=tuple(ErgodicCheckpoint(cp.N, cp.x_avg[i], cp.v_avg[i], cp.sum_gamma)
                              for cp in self.checkpoints if cp.N < stop),
            stochastic=self.stochastic, horizon=self.horizon, stride=self.stride,
            grad_gap_partial=(None if self.grad_gap_partial is None
                              else self.grad_gap_partial[i, :k]),
            diverged=err is not None, error=err,
        )


class TraceBuffer:
    """The trace rows of S runs, allocated once for the horizon: one row
    every ``stride`` steps plus the terminal row."""

    def __init__(self, horizon, seeds, x_dim, v_dim, grad_gap=False):
        rows = trace_rows(horizon)
        self.horizon = horizon
        self.stride = _trace_stride(horizon)
        self.ns = np.empty(rows, dtype=int)
        self.xs = np.empty((seeds, rows, x_dim))
        self.vs = np.empty((seeds, rows, v_dim))
        self.gammas = np.empty(rows)
        self.taus = np.empty(rows)
        self.grad_gap = np.empty((seeds, rows)) if grad_gap else None
        self.rows = 0

    def store(self, n, x, v, gamma, tau, grad_gap=None):
        k = self.rows
        self.ns[k] = n
        self.xs[:, k] = x
        self.vs[:, k] = v
        self.gammas[k] = gamma
        self.taus[k] = tau
        if self.grad_gap is not None:
            self.grad_gap[:, k] = grad_gap
        self.rows = k + 1

    def batch(self, checkpoints, stochastic, stops, errors):
        """The rows written so far, as the record of a batched run."""
        k = self.rows
        return BatchRecord(self.ns[:k], self.xs[:, :k], self.vs[:, :k], self.gammas[:k],
                           self.taus[:k], tuple(checkpoints), stochastic, self.horizon,
                           self.stride, tuple(stops), tuple(errors),
                           None if self.grad_gap is None else self.grad_gap[:, :k])


def run(spec, sched, oracle, x0, v0, horizon, callbacks=(), checkpoints=(),
        grad_gap_reference=None):
    """Iterate the algorithm for ``horizon`` steps and record the trace.

    The initial point is projected onto V (the update projects anyway, so
    p_0 and x_1 are unchanged).  ``checkpoints`` are ergodic indices N >= 0
    (a negative one is a ValueError) at which the running weighted averages
    are snapshotted; when ``grad_gap_reference`` is given, the true partial
    sums of ||B x_n - B x_ref||^2 are accumulated online and stored per
    trace row.

    With (S, d) arrays ``x0``, ``v0`` this advances S runs, one per seed of
    the oracle, by one papc_step per step and returns a BatchRecord.  A row
    that goes non-finite at step n is retired with that error's message, its
    trace ending at row n: its iterates become NaN, it leaves the finiteness
    checks, and step n is taken again, which changes no bit of the other
    rows, since rows never mix and the oracle is keyed by (seed, n).
    Vectors ``x0``, ``v0`` are the one-row batch of a one-seed oracle: the
    result is its RunRecord, callbacks see vectors, and divergence raises the
    row's DivergenceError with that record attached.
    """
    horizon = int(horizon)
    x0 = spec.P_V(np.array(x0, dtype=float))
    v0 = np.array(v0, dtype=float)
    vector = x0.ndim == 1
    if vector:
        x0, v0 = x0[None], v0[None]
    seeds = len(x0)
    state = PapcState(0, x0, v0)

    cps = sorted(set(int(c) for c in checkpoints))
    if cps and cps[0] < 0:
        raise ValueError("checkpoints must be nonnegative, got %d" % cps[0])
    cp_iter = iter(cps)
    next_cp = next(cp_iter, None)

    ref_val = None
    if grad_gap_reference is not None:
        ref_val = spec.B.apply(np.asarray(grad_gap_reference, dtype=float))
    wH = spec.primal_weights

    trace = TraceBuffer(horizon, seeds, x0.shape[-1], v0.shape[-1],
                        grad_gap=ref_val is not None)
    stride = trace.stride
    stochastic = not getattr(oracle, "is_deterministic", False)
    snaps = []
    acc = ErgodicAccumulator()
    gg = np.zeros(seeds)
    stops, errors = [horizon] * seeds, [None] * seeds
    failure = None

    def _store(n, st):
        trace.store(n, st.x, st.v, float(sched.gamma(n)), float(sched.tau(n)), gg)

    for n in range(horizon):
        if ref_val is not None:
            d = spec.B.apply(state.x) - ref_val
            gg += inner(d, d, wH)
        if n % stride == 0:
            _store(n, state)
        gam = float(sched.gamma(n))
        while True:
            try:
                state = papc_step(state, spec, sched, oracle)
                break
            except DivergenceError as exc:
                failure = exc
                for i in exc.rows:
                    stops[i], errors[i] = n, str(exc)
                if None not in errors:
                    break
                live = np.array([e is None for e in errors])
                x, v = state.x.copy(), state.v.copy()
                x[~live] = np.nan
                v[~live] = np.nan
                state = PapcState(n, x, v, live=live)
        if None not in errors:
            break
        acc = ergodic_update(acc, gam, state.x, state.v)
        if next_cp is not None and n == next_cp:
            snaps.append(ErgodicCheckpoint(n, acc.x_avg.copy(), acc.v_avg.copy(),
                                           acc.weight_sum))
            next_cp = next(cp_iter, None)
        if callbacks:
            cb_state = (PapcState(state.n, state.x[0], state.v[0], state.p[0]) if vector
                        else state)
            for cb in callbacks:
                cb(n, cb_state, gam, float(sched.tau(n)))
    else:
        if ref_val is not None:
            d = spec.B.apply(state.x) - ref_val
            gg += inner(d, d, wH)
        _store(horizon, state)

    batch = trace.batch(snaps, stochastic, stops, errors)
    if not vector:
        return batch
    record = batch.seed(0)
    if record.diverged:
        failure.record = record
        raise failure
    return record
