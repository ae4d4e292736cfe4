"""Linear-operator layer: adjoints, orthogonal projectors, SPD preconditioners,
power-iteration spectral estimates, and the dual step-size admissibility check.

All spaces are finite-dimensional real coordinate spaces.  A space may carry a
diagonal inner-product weight vector (this is how the weighted product-space
geometry enters); ``weights=None`` means the standard dot product.

Every operator, and ``inner``/``norm``/``weighted_norm_sq``, acts on the last
axis: an ``(S, d)`` array gives S rows that never mix, each bitwise equal to
the call on that row alone, and a vector gives the bits of the one-row
array.  Dense products therefore use the stacked matrix-vector form of
:func:`matvec` (a vector as one stacked row) and reductions the stacked
row-times-column product of :func:`inner`, which run the same kernel per row
as the 1-d call; a matrix-matrix product, ``sum`` or ``einsum`` would round
differently.  ``inner`` and ``norm`` keep a scalar path for vectors, which
the power iterations of the step-size certificate call many thousands of
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, StepSizeViolationError

__all__ = [
    "LinearMap",
    "OrthoProjector",
    "SpdOperator",
    "PowerIterationResult",
    "TauCertificate",
    "inner",
    "norm",
    "matvec",
    "as_rng",
    "adjoint_consistency_check",
    "power_iteration",
    "validate_tau",
    "coupling_spectral_estimate",
    "weighted_norm_sq",
    "read_matrix",
    "write_matrix",
]

# Fixed seed for internally spawned spectral RNGs, so cached estimates are
# deterministic across runs.
_SPECTRAL_SEED = 20177


def as_rng(rng):
    """Return a numpy Generator; ints (or None) seed a fresh one."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def matvec(mat, x):
    """``mat @ x`` on the last axis of x, row by row for an (S, d) array."""
    return np.matmul(mat, x[..., None])[..., 0]


def inner(x, y, weights=None):
    """<x, y> over the last axis: a float for vectors, one value per row
    otherwise."""
    if weights is not None:
        x = x * weights
    if x.ndim == 1:
        return float(np.dot(x, y))
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def norm(x, weights=None):
    sq = inner(x, x, weights)
    if isinstance(sq, float):
        return math.sqrt(max(sq, 0.0))
    return np.sqrt(np.maximum(sq, 0.0))


def _frozen(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


class LinearMap:
    """Bounded linear operator between real coordinate spaces, with adjoint.

    The operator and its adjoint are plain callables; dense instances come
    from :meth:`from_matrix`.  The adjoint is taken with respect to the
    (possibly weighted) inner products of the two spaces, so for a matrix M
    it is ``W_dom^{-1} M^T W_cod``.
    """

    def __init__(self, apply, adjoint_apply, domain_dim, codomain_dim,
                 domain_weights=None, codomain_weights=None, matrix=None, name=""):
        self._apply = apply
        self._adjoint = adjoint_apply
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self.domain_weights = None if domain_weights is None else _frozen(domain_weights)
        self.codomain_weights = None if codomain_weights is None else _frozen(codomain_weights)
        self.matrix = None if matrix is None else _frozen(matrix)
        self.name = name
        self._norm_bound = None

    @classmethod
    def from_matrix(cls, matrix, domain_weights=None, codomain_weights=None, name=""):
        mat = np.array(matrix, dtype=float)
        if mat.ndim != 2:
            raise DimensionMismatchError("expected a 2-d matrix, got shape %r" % (mat.shape,))

        def apply(x):
            return matvec(mat, x)

        if domain_weights is None and codomain_weights is None:
            def adjoint(y):
                return matvec(mat.T, y)
        else:
            wd = np.ones(mat.shape[1]) if domain_weights is None else np.asarray(domain_weights, dtype=float)
            wc = np.ones(mat.shape[0]) if codomain_weights is None else np.asarray(codomain_weights, dtype=float)

            def adjoint(y):
                return matvec(mat.T, wc * y) / wd

        return cls(apply, adjoint, mat.shape[1], mat.shape[0],
                   domain_weights, codomain_weights, matrix=mat, name=name)

    @classmethod
    def identity(cls, dim, weights=None, name="identity"):
        return cls(lambda x: x, lambda y: y, dim, dim, weights, weights, name=name)

    @classmethod
    def zero(cls, domain_dim, codomain_dim=None, name="zero"):
        codomain_dim = domain_dim if codomain_dim is None else codomain_dim
        return cls(lambda x: np.zeros(x.shape[:-1] + (codomain_dim,)),
                   lambda y: np.zeros(y.shape[:-1] + (domain_dim,)),
                   domain_dim, codomain_dim, name=name)

    @classmethod
    def difference(cls, dim, name="diff"):
        """First differences x -> (x[i+1] - x[i]), from R^dim to R^(dim-1),
        applied matrix-free in O(dim).

        The operator norm is known in closed form and cached: L* L is the
        path-graph Laplacian, with eigenvalues 2 - 2 cos(k pi / dim) for
        k = 0..dim-1, so ||L||^2 = 2 + 2 cos(pi / dim) and
        ||L|| = 2 cos(pi / (2 dim)).
        """
        dim = int(dim)
        if dim < 2:
            raise DimensionMismatchError("difference operator needs dim >= 2")

        def apply(x):
            return x[..., 1:] - x[..., :-1]

        def adjoint(y):
            # Written through transposed views, whose first axis is the
            # last axis of y: numpy indexes a leading axis much faster than
            # it indexes after an Ellipsis.
            out = np.empty(y.shape[:-1] + (dim,))
            yt, ot = y.T, out.T
            ot[0] = -yt[0]
            ot[1:-1] = yt[:-1] - yt[1:]
            ot[-1] = yt[-1]
            return out

        op = cls(apply, adjoint, dim, dim - 1, name=name)
        op._norm_bound = 2.0 * math.cos(math.pi / (2.0 * dim))
        return op

    def __call__(self, x):
        return self._apply(x)

    apply = __call__

    def adjoint(self, y):
        return self._adjoint(y)

    def to_dense(self):
        if self.matrix is not None:
            return self.matrix
        cols = [self._apply(e) for e in np.eye(self.domain_dim)]
        return _frozen(np.stack(cols, axis=1))

    def gram(self):
        """The self-adjoint map L*L on the domain."""
        def apply(x):
            return self._adjoint(self._apply(x))
        return LinearMap(apply, apply, self.domain_dim, self.domain_dim,
                         self.domain_weights, self.domain_weights,
                         name=self.name + "*" + self.name if self.name else "gram")

    def norm_bound(self, tol=1e-12, max_iter=50000):
        """Operator norm, estimated as sqrt(lambda_max(L*L)) and cached."""
        if self._norm_bound is None:
            res = power_iteration(self.gram(), tol=tol, max_iter=max_iter, rng=_SPECTRAL_SEED)
            self._norm_bound = math.sqrt(max(res.value, 0.0))
        return self._norm_bound


class OrthoProjector:
    """Orthogonal projector onto a subspace, self-adjoint in the space's inner product."""

    def __init__(self, apply, dim, weights=None, kind="custom", matrix=None):
        self._apply = apply
        self.dim = int(dim)
        self.weights = None if weights is None else _frozen(weights)
        self.kind = kind
        self.matrix = None if matrix is None else _frozen(matrix)

    @classmethod
    def full(cls, dim, weights=None):
        """Projector onto the whole space (identity)."""
        return cls(lambda x: x, dim, weights, kind="full")

    @classmethod
    def from_matrix(cls, matrix, weights=None):
        mat = np.array(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("projector matrix must be square")
        return cls(lambda x: matvec(mat, x), mat.shape[0], weights, kind="matrix", matrix=mat)

    @classmethod
    def from_basis(cls, basis):
        """Projector onto span(columns); the basis is orthonormalized via QR."""
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2:
            raise DimensionMismatchError("basis must be a dim-by-k matrix of columns")
        q, _ = np.linalg.qr(b)

        def apply(x):
            return matvec(q, matvec(q.T, x))

        return cls(apply, b.shape[0], kind="basis")

    @classmethod
    def averaging(cls, m, block_dim=1, block_weights=None):
        """Projector onto the diagonal of an m-fold product space.

        With block weights w (summing to 1) the product space carries the
        w-weighted inner product, and the projector maps every copy to the
        weighted mean of the copies.
        """
        m = int(m)
        if block_weights is None:
            omega = np.full(m, 1.0 / m)
        else:
            omega = np.asarray(block_weights, dtype=float)
            if omega.shape != (m,):
                raise DimensionMismatchError("need one weight per block")
        dim = m * block_dim
        weights = np.repeat(omega, block_dim)

        def apply(x):
            blocks = x.reshape(x.shape[:-1] + (m, block_dim))
            avg = np.matmul(omega, blocks)
            return np.tile(avg, (1,) * (avg.ndim - 1) + (m,))

        return cls(apply, dim, weights, kind="averaging")

    def __call__(self, x):
        return self._apply(x)

    apply = __call__

    def to_dense(self):
        if self.kind == "full":
            return np.eye(self.dim)
        if self.matrix is not None:
            return self.matrix
        cols = [self._apply(e) for e in np.eye(self.dim)]
        return np.stack(cols, axis=1)


class SpdOperator:
    """Diagonal SPD operator.  Scalar and per-block-scalar structure is
    recorded explicitly because the dual metric reductions depend on it."""

    def __init__(self, diag, scalar=None, blocks=None, name=""):
        d = np.asarray(diag, dtype=float)
        if d.ndim != 1 or np.any(d <= 0):
            raise DimensionMismatchError("SPD diagonal must be 1-d and strictly positive")
        self.diag = _frozen(d)
        self.dim = d.shape[0]
        self.scalar = scalar
        self.blocks = None if blocks is None else tuple(blocks)
        self.name = name
        self.operator_norm_bound = float(d.max())
        self.chi = float(d.min())
        self._sqrt = _frozen(np.sqrt(d))

    @classmethod
    def scalar_op(cls, sigma, dim, name=""):
        sigma = float(sigma)
        return cls(np.full(dim, sigma), scalar=sigma, name=name)

    @classmethod
    def diagonal(cls, diag, name=""):
        d = np.asarray(diag, dtype=float)
        scalar = float(d[0]) if d.size and np.all(d == d[0]) else None
        return cls(d, scalar=scalar, name=name)

    @classmethod
    def block_scalar(cls, sigmas, dims, name=""):
        """Block-diagonal operator, one scalar per block (the lifted preconditioner)."""
        sigmas = [float(s) for s in sigmas]
        dims = [int(d) for d in dims]
        if len(sigmas) != len(dims):
            raise DimensionMismatchError("need one scalar per block")
        diag = np.repeat(sigmas, dims)
        blocks, start = [], 0
        for s, d in zip(sigmas, dims):
            blocks.append((start, start + d, s))
            start += d
        scalar = sigmas[0] if all(s == sigmas[0] for s in sigmas) else None
        return cls(diag, scalar=scalar, blocks=blocks, name=name)

    def apply(self, v):
        return self.diag * v

    __call__ = apply

    def apply_inverse(self, v):
        return v / self.diag

    def sqrt_apply(self, v):
        return self._sqrt * v


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    converged: bool
    iterations: int
    residual: float


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


def power_iteration(S, tol=1e-10, max_iter=10000, rng=None):
    """Largest eigenvalue of a self-adjoint PSD operator by power iteration.

    Convergence is declared when the eigen-residual ||Sx - lam*x|| drops
    below ``tol * max(1, lam)``; degenerate spectra can stall, in which case
    an unconverged result carrying the last estimate is returned and the
    caller decides.  The RNG is consumed by value: pass a seed (or a
    Generator that is not shared) for reproducible estimates.
    """
    gen = as_rng(_SPECTRAL_SEED if rng is None else rng)
    w = S.domain_weights
    dim = S.domain_dim
    x = gen.standard_normal(dim)
    nx = norm(x, w)
    if nx == 0.0:  # absurdly unlikely; resample once
        x = gen.standard_normal(dim)
        nx = norm(x, w)
    x = x / nx
    lam = 0.0
    residual = math.inf
    for k in range(1, int(max_iter) + 1):
        sx = S(x)
        lam = inner(x, sx, w)
        residual = norm(sx - lam * x, w)
        if residual <= tol * max(1.0, lam):
            return PowerIterationResult(float(lam), True, k, float(residual))
        ns = norm(sx, w)
        if ns == 0.0:
            # x fell exactly in the kernel; restart from fresh noise
            x = gen.standard_normal(dim)
            x = x / norm(x, w)
            continue
        x = sx / ns
    return PowerIterationResult(float(lam), False, int(max_iter), float(residual))


@dataclass(frozen=True)
class TauCertificate:
    ok: bool
    status: str  # "accepted" | "rejected" | "indeterminate"
    spectral_estimate: float
    tau: float
    margin: float
    iterations: int
    residual: float


def _symmetrized_coupling(U, L, P):
    """The dual-space operator v -> U^{1/2} L P L* U^{1/2} v."""
    def apply(v):
        y = U.sqrt_apply(v)
        u = L.adjoint(y)
        return U.sqrt_apply(L(P(u)))
    return LinearMap(apply, apply, U.dim, U.dim,
                     L.codomain_weights, L.codomain_weights, name="sym-coupling")


def coupling_spectral_estimate(U, L, P, tol=1e-10, max_iter=20000, rng=None):
    """lambda_max(U^{1/2} L P L* U^{1/2}) by power iteration; the quantity the
    dual step cap tau must stay below the reciprocal of."""
    return power_iteration(_symmetrized_coupling(U, L, P), tol=tol, max_iter=max_iter,
                           rng=rng)


def validate_tau(U, L, P, tau, margin=1e-6, tol=1e-10, max_iter=20000, rng=None):
    """Check tau * lambda_max(U^{1/2} L P L* U^{1/2}) < 1 - margin.

    This is the spectral form of requiring (tau*U)^{-1} - L P L* to be
    positive definite (positive semidefinite when margin=0).  An unconverged
    power iteration yields an "indeterminate" certificate, never a silent
    pass.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if L.domain_dim != P.dim or L.codomain_dim != U.dim:
        raise DimensionMismatchError("U/L/P dimensions are inconsistent")
    res = coupling_spectral_estimate(U, L, P, tol=tol, max_iter=max_iter, rng=rng)
    if not res.converged:
        return TauCertificate(False, "indeterminate", res.value, float(tau), margin,
                              res.iterations, res.residual)
    ok = tau * res.value < 1.0 - margin
    return TauCertificate(ok, "accepted" if ok else "rejected", res.value, float(tau),
                          margin, res.iterations, res.residual)


def weighted_norm_sq(v, U, tau_n, gamma_n, L, P):
    """The squared dual seminorm gamma_n^2 * (<(tau_n U)^{-1} v, v> - <L P L* v, v>).

    Nonnegative whenever the step-size certificate holds for tau >= tau_n; a
    negative value beyond -1e-12 * ||v||^2 signals a violated condition and
    raises (naming the first such row of an (S, d) array, whose tau_n and
    gamma_n may be per-row arrays).  Tiny negative round-off inside the band
    is clamped to zero.
    """
    wg = L.codomain_weights
    t1 = inner(U.apply_inverse(v), v, wg) / tau_n
    u = L.adjoint(v)
    t2 = inner(P(u), u, L.domain_weights)
    val = gamma_n * gamma_n * (t1 - t2)
    neg = val < 0.0
    if np.any(neg):
        bad = np.flatnonzero(val < -1e-12 * np.maximum(inner(v, v, wg), 1e-300))
        if bad.size:
            raise _negative_norm(np.ravel(val)[bad[0]])
        val = np.where(neg, 0.0, val)
    return val


def _negative_norm(val):
    return StepSizeViolationError(
        "weighted norm is negative (%.3e): step-size condition violated" % val)


def read_matrix(path):
    """Read a dense matrix from plain text: first line "rows cols", then
    row-major whitespace-separated entries."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("matrix file %s: missing 'rows cols' header" % path)
    rows, cols = int(tokens[0]), int(tokens[1])
    data = [float(t) for t in tokens[2:]]
    if len(data) != rows * cols:
        raise ValueError("matrix file %s: expected %d entries, found %d"
                         % (path, rows * cols, len(data)))
    return np.array(data, dtype=float).reshape(rows, cols)


def write_matrix(path, matrix):
    mat = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % mat.shape)
        for row in mat:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
