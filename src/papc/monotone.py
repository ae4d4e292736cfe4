"""Resolvent and proximal calculus: maximally monotone blocks exposed through
their resolvents, the inversion identity (for A = dg, the Moreau identity of
the prox of g*), and a library of standard prox functions.

Set-valuedness never crosses a module boundary: everything is exchanged as a
resolvent or prox callable.  Indicator values use IEEE ``inf`` as the
explicit infinite variant so domain violations stay detectable downstream.

Resolvents, proxes and gradients act on the last axis like the operators of
:mod:`papc.linop`: the rows of an (S, d) array never mix, and each row is
bitwise the result for that row alone.  Values (``value``,
``conjugate_value``) take one vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError
from .linop import matvec

__all__ = [
    "MonotoneBlock",
    "ProductMonotoneBlock",
    "ProxFunction",
    "CocoerciveMap",
    "inverse_resolvent",
    "zero_prox",
    "sq_dist",
    "l1",
    "box",
    "singleton",
    "box_support",
    "quadratic_ls",
    "gradient_map",
]

INF = math.inf

# Feasibility slack when deciding membership for indicator values.
_DOMAIN_TOL = 1e-9


@dataclass(frozen=True)
class ProxFunction:
    """A proximable convex function.

    ``prox(lam, x)`` returns prox_{lam*f}(x); ``value`` may return ``inf``
    outside the domain.  ``conjugate_value`` and ``gradient`` are optional
    oracles needed only by saddle-value evaluation and smooth terms.
    """

    dim: int
    value: Callable
    prox: Optional[Callable] = None
    conjugate_value: Optional[Callable] = None
    gradient: Optional[Callable] = None
    name: str = ""


@dataclass(frozen=True)
class MonotoneBlock:
    """A maximally monotone operator exposed through its resolvent.

    ``resolvent(lam, x)`` returns J_{lam*A}(x).  When A = subdifferential of
    g, build with :meth:`from_prox` so the resolvent IS g's prox (this makes
    the saddle and inclusion code paths bitwise identical).
    """

    dim: int
    resolvent: Callable
    name: str = ""

    @classmethod
    def zero(cls, dim):
        # A = 0 has J_{lam*A} = Id.
        return cls(dim, lambda lam, x: x, name="zero")

    @classmethod
    def from_prox(cls, g):
        return cls(g.dim, g.prox, name=g.name or "prox-block")

    @classmethod
    def from_linear(cls, mat, name="linear"):
        """A = x -> Sx for a monotone (PSD-symmetric-part) matrix S."""
        s = np.array(mat, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise DimensionMismatchError("linear monotone block needs a square matrix")
        eye = np.eye(s.shape[0])

        def res(lam, x):
            return _solve(eye + lam * s, x)

        return cls(s.shape[0], res, name=name)


@dataclass(frozen=True)
class ProductMonotoneBlock:
    """Blockwise product of monotone operators on stacked coordinates.
    ``offsets`` holds the (start, stop) pair of every block."""

    blocks: tuple
    dims: tuple
    offsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.blocks) != len(self.dims):
            raise DimensionMismatchError("one dim per block required")
        out, start = [], 0
        for b, d in zip(self.blocks, self.dims):
            if b.dim != d:
                raise DimensionMismatchError("block dim mismatch")
            out.append((start, start + d))
            start += d
        object.__setattr__(self, "offsets", tuple(out))

    @property
    def dim(self):
        return sum(self.dims)

    def resolvent(self, lam, x):
        parts = [b.resolvent(lam, x[..., s:e]) for b, (s, e) in zip(self.blocks, self.offsets)]
        return np.concatenate(parts, axis=-1)


@dataclass(frozen=True)
class CocoerciveMap:
    """A beta-cocoercive single-valued operator (e.g. the gradient of a
    convex function with 1/beta-Lipschitz gradient).  ``weights`` names the
    diagonal inner product of the space when it is not the standard one."""

    dim: int
    apply: Callable
    beta: float
    weights: Optional[np.ndarray] = None
    name: str = ""


def inverse_resolvent(A, lam, x):
    """J_{lam*A^{-1}}(x), synthesized from A's resolvent.

    Uses the inversion identity J_{lam*A^{-1}}(x) = x - lam * J_{A/lam}(x/lam),
    so users supply A (or g) and never A^{-1}; for ``MonotoneBlock.from_prox(g)``
    it is the Moreau identity prox_{lam*g*}(x) = x - lam * prox_{g/lam}(x/lam).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    return x - lam * A.resolvent(1.0 / lam, x / lam)


# ---------------------------------------------------------------------------
# Prox library
# ---------------------------------------------------------------------------

def zero_prox(dim):
    """The zero function: prox is the identity."""
    return ProxFunction(dim, value=lambda x: 0.0, prox=lambda lam, x: x,
                        conjugate_value=_singleton_value(np.zeros(dim)), name="zero")


def sq_dist(b, dim=None):
    """f(x) = (1/2) ||x - b||^2; conjugate f*(a) = (1/2)||a||^2 + <a, b>."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if dim is not None and b.size == 1:
        b = np.full(dim, float(b[0]))

    def value(x):
        d = x - b
        return 0.5 * float(np.dot(d, d))

    return ProxFunction(
        b.size,
        value=value,
        prox=lambda lam, x: (x + lam * b) / (1.0 + lam),
        conjugate_value=lambda a: 0.5 * float(np.dot(a, a)) + float(np.dot(a, b)),
        gradient=lambda x: x - b,
        name="sq_dist",
    )


def l1(weight=1.0, dim=1):
    """Weighted l1 norm; prox is the soft threshold, conjugate the box indicator."""
    w = np.atleast_1d(np.asarray(weight, dtype=float))
    # Written so that a NaN weight fails it: every comparison with NaN is False.
    if not np.all(w >= 0):
        raise ValueError("l1 weight must be nonnegative")
    if w.size == 1:
        w = np.full(dim, float(w[0]))

    def conj(a):
        if np.all(np.abs(a) <= w + _DOMAIN_TOL * (1.0 + np.max(w, initial=0.0))):
            return 0.0
        return INF

    return ProxFunction(
        w.size,
        value=lambda x: float(np.dot(w, np.abs(x))),
        prox=lambda lam, x: np.sign(x) * np.maximum(np.abs(x) - lam * w, 0.0),
        conjugate_value=conj,
        name="l1",
    )


def box(lo, hi, dim=1):
    """Indicator of the box [lo, hi]; prox is the projection (clamp)."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (dim,)) if np.isscalar(lo) else np.asarray(lo, dtype=float)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (dim,)) if np.isscalar(hi) else np.asarray(hi, dtype=float)
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    if lo.shape != hi.shape or not np.all(lo <= hi):  # a NaN bound fails it
        raise ValueError("box bounds must satisfy lo <= hi elementwise")
    scale = 1.0 + float(np.max(np.abs(np.concatenate([lo, hi]))))

    def value(x):
        if np.all(x >= lo - _DOMAIN_TOL * scale) and np.all(x <= hi + _DOMAIN_TOL * scale):
            return 0.0
        return INF

    return ProxFunction(
        lo.size,
        value=value,
        prox=lambda lam, x: np.clip(x, lo, hi),
        conjugate_value=lambda a: float(np.sum(np.maximum(lo * a, hi * a))),
        name="box",
    )


def singleton(c, dim=None):
    """Indicator of the single point {c}; prox is the constant map."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if dim is not None and c.size == 1:
        c = np.full(dim, float(c[0]))
    return ProxFunction(
        c.size,
        value=_singleton_value(c),
        prox=lambda lam, x: np.broadcast_to(c, x.shape).copy(),
        conjugate_value=lambda a: float(np.dot(a, c)),
        name="singleton",
    )


def _singleton_value(c):
    scale = 1.0 + float(np.linalg.norm(c))

    def value(x):
        return 0.0 if float(np.linalg.norm(x - c)) <= _DOMAIN_TOL * scale else INF

    return value


def box_support(lo, hi, dim=1):
    """Support function of the box [lo, hi] (the conjugate of its indicator);
    prox comes from the Moreau decomposition against the projection."""
    ind = box(lo, hi, dim)
    lo_a = np.broadcast_to(np.asarray(lo, dtype=float), (ind.dim,))
    hi_a = np.broadcast_to(np.asarray(hi, dtype=float), (ind.dim,))

    def prox(lam, x):
        # np.clip(x / lam, lo_a, hi_a), bitwise (signed-zero ties keep
        # x / lam, so the bound is the first operand), at about half its cost.
        return x - lam * np.minimum(hi_a, np.maximum(lo_a, x / lam))

    return ProxFunction(
        ind.dim,
        value=lambda a: float(np.sum(np.maximum(lo_a * a, hi_a * a))),
        prox=prox,
        conjugate_value=ind.value,
        name="box_support",
    )


def quadratic_ls(D, a):
    """h(x) = (1/2) ||Dx - a||^2 with analytic gradient and prox.

    The gradient Lipschitz constant is lambda_max(D^T D); use
    :func:`gradient_map` to get the cocoercive gradient operator.
    """
    D = np.array(np.atleast_2d(D), dtype=float)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if D.shape[0] != a.size:
        raise DimensionMismatchError("quadratic_ls: D rows must match a")
    gram = D.T @ D
    dta = D.T @ a
    eye = np.eye(D.shape[1])

    def value(x):
        r = D @ x - a
        return 0.5 * float(np.dot(r, r))

    return ProxFunction(
        D.shape[1],
        value=value,
        prox=lambda lam, x: _solve(eye + lam * gram, x + lam * dta),
        gradient=lambda x: matvec(gram, x) - dta,
        name="quadratic_ls",
    )


def _solve(mat, x):
    """mat^{-1} x on the last axis of x, one solve per row of an (S, d) array."""
    return np.linalg.solve(mat, x[..., None])[..., 0]


def quadratic_lipschitz(D):
    """lambda_max(D^T D), the gradient Lipschitz constant of quadratic_ls."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return float(np.linalg.eigvalsh(D.T @ D)[-1])


def gradient_map(f, lipschitz, weights=None):
    """Wrap a smooth ProxFunction's gradient as a cocoercive operator.

    A convex function with L-Lipschitz gradient has a (1/L)-cocoercive
    gradient (Baillon-Haddad).
    """
    if f.gradient is None:
        raise ValueError("%s has no gradient oracle" % (f.name or "f"))
    return CocoerciveMap(f.dim, f.gradient, beta=1.0 / float(lipschitz),
                         weights=weights, name=(f.name or "f") + "-grad")
