"""Convergence measurement: KKT residuals, saddle values and duality gaps
with their ergodic bound, distance tracking in the step-dependent metric,
and log-log rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, FejerViolationError, IndeterminateValueError
from .linop import inner, norm, weighted_norm_sq
from .monotone import ProxFunction, inverse_resolvent

__all__ = [
    "SaddleFunction",
    "GapConstant",
    "GapRow",
    "kkt_residual",
    "saddle_value",
    "gap_and_bound",
    "fejer_tracker",
    "rate_fit",
]

_MEMBERSHIP_TOL = 1e-10


@dataclass(frozen=True)
class SaddleFunction:
    """K(x, v) = h(x) + i_V(x) + <Lx, v> - g*(v) on the problem's spaces."""

    h: ProxFunction
    g: ProxFunction
    L: object
    P_V: object
    name: str = ""

    def __post_init__(self):
        if self.g.conjugate_value is None:
            raise ValueError("saddle function needs g with a conjugate value oracle")


def saddle_value(K, x, v):
    """Evaluate K(x, v) as an extended real.

    Returns +inf when x is outside V (membership tolerance 1e-10), -inf when
    v is outside dom g*; both at once is an indeterminate inf - inf and
    raises instead of silently propagating NaN.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    wH = K.L.domain_weights
    in_v = norm(x - K.P_V(x), wH) <= _MEMBERSHIP_TOL * (1.0 + norm(x, wH))
    gstar = K.g.conjugate_value(v)
    if not in_v and math.isinf(gstar):
        raise IndeterminateValueError("x is outside V and v outside dom g*: K is inf - inf")
    if not in_v:
        return math.inf
    if math.isinf(gstar):
        return -math.inf
    return K.h.value(x) + inner(K.L(x), v, K.L.codomain_weights) - gstar


def kkt_residual(x, v, spec):
    """Residuals of the primal-dual optimality system.

    primal: distance of x to V plus the norm of the V-component of Bx + L*v
    (stationarity along V, using that the normal cone to V is its orthogonal
    complement).  dual: the fixed-point residual ||v - J_{A^{-1}}(v + Lx)||
    at unit resolvent parameter.  Both vanish exactly at solutions.  For
    (S, d) arrays both are per-row arrays.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    wH = spec.primal_weights
    wG = spec.dual_weights
    px = spec.P_V(x)
    primal = norm(x - px, wH) + norm(spec.P_V(spec.B.apply(x) + spec.L.adjoint(v)), wH)
    dual = norm(v - inverse_resolvent(spec.A, 1.0, v + spec.L(x)), wG)
    return primal, dual


@dataclass(frozen=True)
class GapConstant:
    """The constant c(x, v) of the ergodic gap bound, built from the run
    setup: initial iterates, step-size caps, operator norms, and the
    accumulated noise constant c0 = sum gamma_n^2 E||r_n - grad h(x_n)||^2
    (zero for deterministic runs; schedule certificate times the dimension
    for the gaussian model)."""

    spec: object
    sched: object
    x0: np.ndarray
    v0: np.ndarray
    c0: float = 0.0

    def c_of(self, x, v):
        wH = self.spec.primal_weights
        d0 = inner(self.x0 - x, self.x0 - x, wH)
        d0 += weighted_norm_sq(self.v0 - v, self.spec.U, float(self.sched.tau(0)),
                               float(self.sched.gamma(0)), self.spec.L, self.spec.P_V)
        u_norm = self.spec.U.operator_norm_bound
        l_norm = self.spec.L.norm_bound()
        factor = 2.0 * (math.sqrt(self.sched.tau_cap * float(self.sched.gamma(0)) * u_norm)
                        * l_norm ** 2 + 1.0)
        return d0 + factor * self.c0


@dataclass(frozen=True)
class GapRow:
    N: int
    gap: float
    bound: float
    sum_gamma: float
    finite: bool


def gap_and_bound(record, K, reference, gapc):
    """Per-checkpoint table of the ergodic duality gap against its bound.

    gap_N = K(x~_N, v) - K(x, v~_N) at the reference (x, v), and
    bound_N = c(x, v) / (2 sum_{n<=N} gamma_n).  Rows with infinite or
    indeterminate K are flagged (``finite=False``) and excluded from fits.
    """
    x_ref, v_ref = reference
    cval = gapc.c_of(np.asarray(x_ref, dtype=float), np.asarray(v_ref, dtype=float))
    rows = []
    for cp in record.checkpoints:
        bound = cval / (2.0 * cp.sum_gamma)
        try:
            k1 = saddle_value(K, cp.x_avg, v_ref)
            k2 = saddle_value(K, x_ref, cp.v_avg)
            gap = k1 - k2
            finite = math.isfinite(gap)
        except IndeterminateValueError:
            gap = math.nan
            finite = False
        rows.append(GapRow(int(cp.N), float(gap), float(bound), float(cp.sum_gamma), finite))
    return rows


def fejer_tracker(record, reference, spec, certificate=None, check_monotone=True, tol=1e-10):
    """The distance series Phi_n = ||x_n - x||^2 + ||v_n - v||^2_{R_n}, with
    R_n the step-dependent dual metric.

    On deterministic runs the series must be non-increasing up to
    ``tol * (1 + Phi_0)``; asserting that requires a passing step-size
    certificate (refused otherwise).  Stochastic runs are reported without
    assertion, since noise terms enter the descent inequality.
    """
    x_ref, v_ref = reference
    dx = record.xs - np.asarray(x_ref, dtype=float)
    phis = inner(dx, dx, spec.primal_weights) + weighted_norm_sq(
        record.vs - np.asarray(v_ref, dtype=float), spec.U, record.taus, record.gammas,
        spec.L, spec.P_V)
    if check_monotone and not record.stochastic:
        if certificate is None or not certificate.ok:
            raise CertificateError(
                "monotonicity assertion refused: no passing step-size certificate")
        slack = tol * (1.0 + phis[0])
        worst = float(np.max(np.diff(phis))) if len(phis) > 1 else 0.0
        if worst > slack:
            k = int(np.argmax(np.diff(phis)))
            raise FejerViolationError(
                "Phi increased by %.3e at row %d (n=%d), slack %.3e"
                % (worst, k, int(record.ns[k]), slack))
    return phis


def rate_fit(pairs, window):
    """Least-squares slope of log(value) against log(N) inside the window.

    Non-positive values are excluded; fewer than ten surviving points is an
    error rather than a fit.
    """
    lo, hi = window
    ns, vals = [], []
    for n, v in pairs:
        if lo <= n <= hi and v > 0 and math.isfinite(v):
            ns.append(float(n))
            vals.append(float(v))
    if len(ns) < 10:
        raise ValueError("rate_fit needs at least 10 positive values in the window, got %d"
                         % len(ns))
    slope = np.polyfit(np.log(np.asarray(ns)), np.log(np.asarray(vals)), 1)[0]
    return float(slope)
