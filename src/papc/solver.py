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
seed alone.  :func:`run` always records (S, d) traces, a vector run being
the one-row batch, and steps a one-row batch on its vectors.
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
    :class:`DimensionMismatchError` is raised.  The step plan is resolved
    here, once: each block's (resolvent, start, stop, sigma) for
    :func:`dual_resolvent`, whether P_V is full (the identity) and whether U
    is the identity (every sigma_i is 1.0); :func:`papc_step` skips both
    identities, which changes no bit."""

    B: CocoerciveMap
    A: MonotoneBlock | ProductMonotoneBlock
    L: LinearMap
    P_V: OrthoProjector
    U: SpdOperator
    g: Optional[ProxFunction] = None
    h: Optional[ProxFunction] = None
    name: str = ""
    _dual_blocks: tuple = field(init=False, repr=False, compare=False)
    _full_P: bool = field(init=False, repr=False, compare=False)
    _unit_U: bool = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_full_P", self.P_V.kind == "full")
        object.__setattr__(self, "_unit_U",
                           all(sigma == 1.0 for _, _, sigma in self.U.blocks))

    @property
    def primal_weights(self):
        return self.L.domain_weights

    @property
    def dual_weights(self):
        return self.L.codomain_weights


@dataclass(frozen=True)
class Schedules:
    """The step sizes as named families, with their contracts: gamma
    non-increasing with gamma_0 < beta, tau non-decreasing and capped by
    tau_cap.  gamma: ``constant`` gamma0; ``harmonic_floor``
    (gamma0/2)(1 + 1/(n+1)), decreasing to gamma0/2; ``harmonic``
    gamma0/(n+1), decreasing to 0, so inf gamma > 0 holds only up to a finite
    horizon H (the gate's ``inf gamma positive`` reads gamma0/(H+1) and
    passes).  gamma0 defaults to 0.9 beta.  tau: ``constant`` tau_cap;
    ``ramp`` tau_cap (n+1)/(n+2), increasing to the cap.  ``gamma`` and
    ``tau`` are the family's closures of n, built once.  Every family is
    monotone with its largest step first, which :func:`validate_hypotheses`
    relies on."""

    beta: float
    gamma_kind: str = "constant"
    gamma0: Optional[float] = None
    tau_kind: str = "constant"
    tau_cap: float = 1.0
    gamma: Callable = field(init=False, repr=False, compare=False)
    tau: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        beta = float(self.beta)
        gamma0 = 0.9 * beta if self.gamma0 is None else float(self.gamma0)
        tau_cap = float(self.tau_cap)
        gammas = {"constant": lambda n: gamma0,
                  "harmonic_floor": lambda n: 0.5 * gamma0 * (1.0 + 1.0 / (n + 1.0)),
                  "harmonic": lambda n: gamma0 / (n + 1.0)}
        taus = {"constant": lambda n: tau_cap,
                "ramp": lambda n: tau_cap * (n + 1.0) / (n + 2.0)}
        for label, kind, family in (("gamma", self.gamma_kind, gammas),
                                    ("tau", self.tau_kind, taus)):
            if kind not in family:
                raise ValueError("unknown %s kind %r" % (label, kind))
            object.__setattr__(self, label, family[kind])
        for name, value in (("beta", beta), ("gamma0", gamma0), ("tau_cap", tau_cap)):
            object.__setattr__(self, name, value)

    @classmethod
    def constant(cls, gamma0, tau0, beta):
        return cls(beta, gamma0=gamma0, tau_cap=tau0)


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
    gamma_0 < beta (the smaller of the schedule's and B's), inf gamma > 0
    over n <= horizon, and (tau_cap U)^{-1} - L P_V L* positive definite
    (strict margin); the step-size checks read the schedule at n = 0, 1 and
    the horizon only, O(1) in the horizon.  Ergodic regime: the same monotonicity and
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
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    # Every family is monotone with its largest step first (Schedules): the
    # extremes over [0, H] are the endpoints, and some step leaves the slack
    # exactly when the first one does.
    g0, gH = float(sched.gamma(0)), float(sched.gamma(horizon))
    t0, tH = float(sched.tau(0)), float(sched.tau(horizon))
    g_min, t_max = min(g0, gH), max(t0, tH)

    slack = 1e-15
    beta = min(sched.beta, spec.B.beta)
    checks = [ConditionCheck(*c) for c in (
        ("gamma non-increasing",
         horizon == 0 or float(sched.gamma(1)) - g0 <= slack * max(g0, 1.0),
         "gamma must not increase over the horizon"),
        ("tau non-decreasing",
         horizon == 0 or float(sched.tau(1)) - t0 >= -slack * max(t0, 1.0),
         "tau must not decrease over the horizon"),
        ("tau capped", t_max <= sched.tau_cap * (1.0 + 1e-12),
         "max tau %.6g vs cap %.6g" % (t_max, sched.tau_cap)),
        ("gamma0 below beta", g0 < beta, "gamma0=%.6g beta=%.6g" % (g0, beta)),
        ("gamma positive", g_min > 0.0, "all step sizes must be strictly positive"))]
    if regime == "almost-sure":
        checks.append(ConditionCheck(
            "inf gamma positive", g_min > 0.0 and g_min >= 1e-12 * g0,
            "inf gamma %.6g over the horizon" % g_min))

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
    block for a single A): the inversion identity of
    :func:`papc.monotone.inverse_resolvent` with c = lam sigma_i on block i,
    w - c J(1 / c, w / c).  Several blocks scale by c = lam U's diagonal on
    the whole vector and concatenate the blocks' resolvents, each on its slice
    of w / c; elementwise the same operations, so each block is bitwise
    inverse_resolvent(A_i, lam sigma_i, w_i)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    blocks = spec._dual_blocks
    if len(blocks) == 1:
        resolvent, _, _, sigma = blocks[0]
        c = lam * sigma
        return w - c * resolvent(1.0 / c, w / c)
    c = lam * spec.U.diag
    u = w / c
    return w - c * np.concatenate([resolvent(1.0 / (lam * sigma), u[..., s:e])
                                   for resolvent, s, e, sigma in blocks], axis=-1)


def _check_finite(arr, label, n, live):
    finite = np.isfinite(arr)
    if not finite.all():
        bad = ~finite.all(axis=-1)
        if live is not None:
            bad &= live
        if bad.any():
            raise DivergenceError(label, n, rows=np.flatnonzero(bad))


_sum = np.add.reduce


def _step(state, spec, sched, oracle, checked):
    """The arithmetic of one step; ``checked`` checks r_n, p_n, v_{n+1} and
    x_{n+1} as they are made.  A full P_V and a unit U are skipped."""
    n, live = state.n, state.live
    gam = float(sched.gamma(n))
    tau = float(sched.tau(n))
    r = oracle.sample(state.x, n)
    if checked:
        _check_finite(r, "r_n", n, live)
    adj_v = spec.L.adjoint(state.v) if state.adj_v is None else state.adj_v
    p = state.x - gam * (adj_v + r)
    if not spec._full_P:
        p = spec.P_V(p)
    if checked:
        _check_finite(p, "p_n", n, live)
    lam = tau / gam
    Lp = spec.L(p)
    w = state.v + lam * (Lp if spec._unit_U else spec.U.apply(Lp))
    v1 = dual_resolvent(spec, lam, w)
    if checked:
        _check_finite(v1, "v_{n+1}", n, live)
    adj_v1 = spec.L.adjoint(v1)
    x1 = state.x - gam * (adj_v1 + r)
    if not spec._full_P:
        x1 = spec.P_V(x1)
    if checked:
        _check_finite(x1, "x_{n+1}", n, live)
    return PapcState(n + 1, x1, v1, p, live, adj_v1)


def papc_step(state, spec, sched, oracle):
    """One iteration of the inclusion algorithm.  Draws exactly one oracle
    sample and reuses it in the predictor and the correction line, and
    applies L* once: the returned state carries L* v_{n+1} for the next
    step's predictor (``state.adj_v``; computed here when None).  A
    non-finite quantity in a row of ``state.live`` (in any row, when it is
    None) raises :class:`DivergenceError`, which names those rows of (S, d)
    iterates; the mask is carried to the next state.

    The step is first taken with floating-point overflow, division by zero
    and invalid operations raised, and only v_{n+1} and x_{n+1} checked,
    over the live rows.  If either check fails or an error is raised, it is
    taken again from the same state, under the caller's error state, with
    r_n, p_n, v_{n+1} and x_{n+1} each checked as it is made: so the error
    names the first non-finite quantity, and a warning is what the caller's
    error state makes of it.  The oracle is keyed by (seed, n), so the
    second take draws the same sample."""
    live = state.live
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = _step(state, spec, sched, oracle, False)
            x1, v1 = (out.x, out.v) if live is None else (out.x[live], out.v[live])
            # A sum is finite exactly when its terms are, short of an
            # overflow, which raises: the step is taken again either way.
            if math.isfinite(_sum(x1, axis=None) + _sum(v1, axis=None)):
                return out
    except FloatingPointError:
        pass
    return _step(state, spec, sched, oracle, True)


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
    """The trace rows of S runs, one every ``stride`` steps plus the terminal
    row: all of them, or at most ``cap`` at a time."""

    def __init__(self, horizon, seeds, x_dim, v_dim, grad_gap=False, cap=None):
        self.horizon = horizon
        self.stride = _trace_stride(horizon)
        rows = len(range(0, horizon, self.stride)) + 1
        rows = rows if cap is None else min(rows, cap)
        self.ns = np.empty(rows, dtype=int)
        self.xs = np.empty((seeds, rows, x_dim))
        self.vs = np.empty((seeds, rows, v_dim))
        self.gammas = np.empty(rows)
        self.taus = np.empty(rows)
        self.grad_gap = np.empty((seeds, rows)) if grad_gap else None
        self.rows = 0

    def store(self, n, x, v, gamma, tau):
        """Row n's iterates and parameters; its grad-gap sums, when kept, are
        written by :class:`_GradGapSums`."""
        k = self.rows
        self.ns[k] = n
        self.xs[:, k] = x
        self.vs[:, k] = v
        self.gammas[k] = gamma
        self.taus[k] = tau
        self.rows = k + 1

    def batch(self, checkpoints, stochastic, stops, errors):
        """The rows held, as the record of a batched run; its arrays are views
        of the buffer."""
        k = self.rows
        return BatchRecord(self.ns[:k], self.xs[:, :k], self.vs[:, :k], self.gammas[:k],
                           self.taus[:k], tuple(checkpoints), stochastic, self.horizon,
                           self.stride, tuple(stops), tuple(errors),
                           None if self.grad_gap is None else self.grad_gap[:, :k])


# Trace rows a sink receives at a time, and steps whose iterates are held for
# one grad-gap fold.
_BLOCK = 1024


class _GradGapSums:
    """The partial sums sum_{k<=n} ||B x_k - B x_ref||^2 of S runs, folded a
    block of steps at a time.  :meth:`add` holds a copy of x_n; :meth:`fold`
    applies B and the inner product to the held (K, S, d) block as one
    (K S, d) array and adds the K terms in step order onto the carry with
    ``np.cumsum``, which gives the bits of a running ``sum += term`` however
    the steps are split into blocks, and writes the sums of the trace rows
    the block covers."""

    def __init__(self, spec, ref_val, trace, steps):
        self.B, self.ref_val, self.wH = spec.B, ref_val, spec.primal_weights
        self.trace = trace
        seeds, _, dim = trace.xs.shape
        self.held = np.empty((steps, seeds, dim))
        self.count = 0
        self.rows = []  # (position in the block, trace row)
        self.carry = np.zeros(seeds)

    def add(self, x, row):
        """Hold x_n; ``row`` is the trace row that stores step n, if any."""
        self.held[self.count] = x
        if row is not None:
            self.rows.append((self.count, row))
        self.count += 1
        if self.count == len(self.held):
            self.fold()

    def fold(self):
        k = self.count
        if not k:
            return
        _, seeds, dim = self.held.shape
        d = self.B.apply(self.held[:k].reshape(k * seeds, dim)) - self.ref_val
        terms = inner(d, d, self.wH).reshape(k, seeds)
        np.add(self.carry, terms[0], out=terms[0])
        sums = np.cumsum(terms, axis=0)
        self.carry = sums[-1]
        for pos, row in self.rows:
            self.trace.grad_gap[:, row] = sums[pos]
        self.rows.clear()
        self.count = 0


def run(spec, sched, oracle, x0, v0, horizon, sink=None, checkpoints=(),
        grad_gap_reference=None):
    """Iterate the algorithm for ``horizon`` steps and record the trace.

    The initial point is projected onto V (the update projects anyway, so
    p_0 and x_1 are unchanged).  ``checkpoints`` are ergodic indices N >= 0
    (a negative one is a ValueError) at which the running weighted averages
    are snapshotted; when ``grad_gap_reference`` is given, the true partial
    sums of ||B x_n - B x_ref||^2 are stored per trace row.

    With (S, d) arrays ``x0``, ``v0`` this advances S runs, one per seed of
    the oracle, by one papc_step per step and returns a BatchRecord.  A row
    that goes non-finite at step n is retired with that error's message, its
    trace ending at row n: its iterates become NaN, it leaves the finiteness
    checks, and step n is taken again, which changes no bit of the other
    rows, since rows never mix and the oracle is keyed by (seed, n).
    Vectors ``x0``, ``v0`` are the one-row batch of a one-seed oracle: the
    result is its RunRecord, and divergence raises the row's DivergenceError
    with that record attached.  A one-row batch is stepped on its row as a
    vector, which gives the row's bits faster; its trace and checkpoint
    averages are still (1, d).  Each step is papc_step's: two finiteness
    checks, and the step taken again with four when one fails.

    Given a ``sink``, the trace is held _BLOCK rows at a time: each time
    the rows fill the buffer, and once after the last row, ``sink(block)``
    receives them as a BatchRecord (its stops and errors as of that step,
    no checkpoints, arrays that are views of a buffer reused once the sink
    returns), and the returned record holds no rows.
    """
    horizon = int(horizon)
    x0 = spec.P_V(np.array(x0, dtype=float))
    v0 = np.array(v0, dtype=float)
    vector = x0.ndim == 1
    if vector:
        x0, v0 = x0[None], v0[None]
    seeds = len(x0)
    if seeds == 1 and len(getattr(oracle, "seeds", ())) > 1:
        # A vector sample would be drawn with the first seed alone.
        raise DimensionMismatchError("1 rows for %d seeds" % len(oracle.seeds))
    # One seed steps on vectors, whose bits are its row's (rows never mix)
    # and which numpy steps faster than a one-row array.
    state = PapcState(0, x0[0], v0[0]) if seeds == 1 else PapcState(0, x0, v0)

    cps = sorted(set(int(c) for c in checkpoints))
    if cps and cps[0] < 0:
        raise ValueError("checkpoints must be nonnegative, got %d" % cps[0])
    cp_iter = iter(cps)
    next_cp = next(cp_iter, None)

    trace = TraceBuffer(horizon, seeds, x0.shape[-1], v0.shape[-1],
                        grad_gap=grad_gap_reference is not None,
                        cap=None if sink is None else _BLOCK)
    gaps = None
    if grad_gap_reference is not None:
        gaps = _GradGapSums(spec, spec.B.apply(np.asarray(grad_gap_reference, dtype=float)),
                            trace, min(horizon + 1, _BLOCK))
    stride = trace.stride
    stochastic = not getattr(oracle, "is_deterministic", False)
    snaps = []
    acc = ErgodicAccumulator()
    stops, errors = [horizon] * seeds, [None] * seeds
    failure = None

    def _flush():
        if gaps is not None:
            gaps.fold()
        if sink is not None and trace.rows:
            sink(trace.batch((), stochastic, stops, errors))
            trace.rows = 0

    def _store(n, st):
        row = trace.rows if n == horizon or n % stride == 0 else None
        if row is not None:
            trace.store(n, st.x, st.v, float(sched.gamma(n)), float(sched.tau(n)))
        if gaps is not None:
            gaps.add(st.x, row)
        if trace.rows == len(trace.ns):
            _flush()

    for n in range(horizon):
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
            snaps.append(ErgodicCheckpoint(n, acc.x_avg.reshape(seeds, -1).copy(),
                                           acc.v_avg.reshape(seeds, -1).copy(),
                                           acc.weight_sum))
            next_cp = next(cp_iter, None)
    else:
        _store(horizon, state)
    _flush()

    batch = trace.batch(snaps, stochastic, stops, errors)
    if not vector:
        return batch
    record = batch.seed(0)
    if record.diverged:
        failure.record = record
        raise failure
    return record
