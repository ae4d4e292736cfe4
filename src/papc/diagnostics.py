"""Convergence measurement: KKT residuals, saddle values and duality gaps
with their ergodic bound, distance tracking in the step-dependent metric,
and log-log rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, FejerViolationError, IndeterminateValueError
from .linop import inner, norm, weighted_norm_sq
from .monotone import inverse_resolvent

__all__ = [
    "GapRow",
    "kkt_residual",
    "saddle_value",
    "gap_and_bound",
    "fejer_tracker",
    "rate_fit",
]

_MEMBERSHIP_TOL = 1e-10


def saddle_value(spec, x, v):
    """Evaluate K(x, v) = h(x) + i_V(x) + <Lx, v> - g*(v) of ``spec`` (whose g
    needs a conjugate value oracle) as an extended real.

    Returns +inf when x is outside V (membership tolerance 1e-10), -inf when
    v is outside dom g*; both at once is an indeterminate inf - inf and
    raises instead of silently propagating NaN.
    """
    if getattr(spec.g, "conjugate_value", None) is None:
        raise ValueError("saddle function needs g with a conjugate value oracle")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    wH = spec.primal_weights
    in_v = norm(x - spec.P_V(x), wH) <= _MEMBERSHIP_TOL * (1.0 + norm(x, wH))
    gstar = spec.g.conjugate_value(v)
    if not in_v and math.isinf(gstar):
        raise IndeterminateValueError("x is outside V and v outside dom g*: K is inf - inf")
    if not in_v:
        return math.inf
    if math.isinf(gstar):
        return -math.inf
    return spec.h.value(x) + inner(spec.L(x), v, spec.dual_weights) - gstar


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


def _phi(spec, dx, dv, tau, gamma):
    """The step-metric distance ||dx||^2 + ||dv||^2_{R(tau, gamma)}: a float
    for vectors, one value per row for (S, d) arrays with per-row steps."""
    return inner(dx, dx, spec.primal_weights) + weighted_norm_sq(
        dv, spec.U, tau, gamma, spec.L, spec.P_V)


@dataclass(frozen=True)
class GapRow:
    N: int
    gap: float
    bound: float
    sum_gamma: float
    finite: bool


def gap_and_bound(record, spec, sched, reference, c0=0.0):
    """Per-checkpoint table of the ergodic duality gap against its bound, for
    a run of ``spec`` under ``sched`` from the origin.

    gap_N = K(x~_N, v) - K(x, v~_N) at the reference (x, v), and bound_N =
    c(x, v) / (2 sum_{n<=N} gamma_n), with c(x, v) the step-0 distance Phi from
    the origin to (x, v) plus a multiple of the noise constant
    c0 = sum gamma_n^2 E||r_n - grad h(x_n)||^2 (zero for deterministic runs).
    Rows with infinite or indeterminate K are flagged (``finite=False``) and
    excluded from fits.
    """
    x_ref, v_ref = reference
    gamma0 = float(sched.gamma(0))
    cval = _phi(spec, np.zeros(spec.B.dim) - np.asarray(x_ref, dtype=float),
                np.zeros(spec.A.dim) - np.asarray(v_ref, dtype=float),
                float(sched.tau(0)), gamma0)
    factor = 2.0 * (math.sqrt(sched.tau_cap * gamma0 * spec.U.operator_norm_bound)
                    * spec.L.norm_bound() ** 2 + 1.0)
    cval = cval + factor * c0
    rows = []
    for cp in record.checkpoints:
        bound = cval / (2.0 * cp.sum_gamma)
        try:
            k1 = saddle_value(spec, cp.x_avg, v_ref)
            k2 = saddle_value(spec, x_ref, cp.v_avg)
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
    phis = _phi(spec, record.xs - np.asarray(x_ref, dtype=float),
                record.vs - np.asarray(v_ref, dtype=float), record.taus, record.gammas)
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
