"""Linear-operator layer: adjoints, orthogonal projectors, SPD preconditioners,
and the exact dual step-size admissibility check.

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
differently.  The same contract makes one call on ``np.eye(k)`` the dense
matrix of an operator, row i being its value at ``e_i``: that is how
:func:`coupling_matrix` forms the k x k dual coupling whose largest
eigenvalue certifies the step size.
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
    "TauCertificate",
    "inner",
    "norm",
    "matvec",
    "coupling_matrix",
    "coupling_lambda_max",
    "lambda_max",
    "certify_tau",
    "weighted_norm_sq",
    "read_matrix",
    "write_matrix",
]


def matvec(mat, x):
    """``mat @ x`` on the last axis of x, row by row for an (S, d) array."""
    return np.matmul(mat, x[..., None])[..., 0]


def inner(x, y, weights=None):
    """<x, y> over the last axis: a float for vectors, one value per row
    otherwise."""
    if weights is not None:
        x = x * weights
    out = np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]
    return float(out) if out.ndim == 0 else out


def norm(x, weights=None):
    sq = inner(x, x, weights)
    if isinstance(sq, float):
        return math.sqrt(max(sq, 0.0))
    return np.sqrt(np.maximum(sq, 0.0))


def _columns(apply, dim):
    """The matrix of a linear map on R^dim: one call on the identity, whose
    row i is the map at e_i, transposed into column order."""
    return np.ascontiguousarray(apply(np.eye(dim)).T)


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

        # The adjoint W_dom^{-1} M^T W_cod, formed once as a contiguous
        # matrix; a unit weight folds in exactly.
        wd = np.ones(mat.shape[1]) if domain_weights is None else np.asarray(domain_weights, dtype=float)
        wc = np.ones(mat.shape[0]) if codomain_weights is None else np.asarray(codomain_weights, dtype=float)
        adj = np.ascontiguousarray((mat * wc[:, None]).T / wd[:, None])

        def apply(x):
            return matvec(mat, x)

        def adjoint(y):
            return matvec(adj, y)

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
        return _frozen(_columns(self._apply, self.domain_dim))

    def norm_bound(self):
        """Operator norm sqrt(lambda_max(L L*)), exact and cached."""
        if self._norm_bound is None:
            lam = coupling_lambda_max(SpdOperator.scalar_op(1.0, self.codomain_dim), self,
                                      OrthoProjector.full(self.domain_dim))
            self._norm_bound = math.sqrt(max(lam, 0.0))
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
        return _columns(self._apply, self.dim)


class SpdOperator:
    """Diagonal SPD operator, one scalar sigma_i on each block of dims[i]
    coordinates; ``blocks`` holds every block's (start, stop, sigma).  A
    scalar is the one-block case, a general diagonal blocks of one."""

    def __init__(self, sigmas, dims, name=""):
        sigmas = [float(s) for s in sigmas]
        dims = [int(d) for d in dims]
        if len(sigmas) != len(dims) or any(s <= 0 for s in sigmas):
            raise DimensionMismatchError("need one positive scalar per block")
        d = np.repeat(sigmas, dims)
        self.diag = _frozen(d)
        self.dim = d.shape[0]
        stops = np.cumsum(dims, dtype=int).tolist()
        self.blocks = tuple((e - n, e, s) for s, n, e in zip(sigmas, dims, stops))
        self.name = name
        self.operator_norm_bound = float(d.max())
        self._sqrt = _frozen(np.sqrt(d))

    @classmethod
    def scalar_op(cls, sigma, dim, name=""):
        return cls([sigma], [dim], name=name)

    def apply(self, v):
        return self.diag * v

    __call__ = apply

    def apply_inverse(self, v):
        return v / self.diag

    def sqrt_apply(self, v):
        return self._sqrt * v


@dataclass(frozen=True)
class TauCertificate:
    ok: bool
    status: str  # "accepted" | "rejected"
    lambda_max: float
    tau: float
    margin: float


def coupling_matrix(U, L, P):
    """The k x k matrix of the dual coupling U^{1/2} L P L* U^{1/2}, symmetric.

    One batched call on ``np.eye(k)`` gives the coupling at every e_i.  With
    dual weights w the coupling is self-adjoint in the w-weighted space, so
    it is balanced to diag(sqrt w) M diag(1/sqrt w), which is symmetric and
    has the same spectrum; L* scales a coordinate of weight 0 by 0, so its
    column is 0 and it is mapped to 0 rather than divided by.  The result is
    symmetrized against round-off.
    """
    if L.domain_dim != P.dim or L.codomain_dim != U.dim:
        raise DimensionMismatchError("U/L/P dimensions are inconsistent")
    m = U.sqrt_apply(L(P(L.adjoint(U.sqrt_apply(np.eye(U.dim)))))).T
    w = L.codomain_weights
    if w is not None:
        root = np.sqrt(w)
        inv = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
        m = root[:, None] * m * inv
    return 0.5 * (m + m.T)


def lambda_max(m):
    """Largest eigenvalue of a symmetric matrix; NaN when an entry is not
    finite, since LAPACK can return finite, wrong eigenvalues for one."""
    if not np.isfinite(m).all():
        return math.nan
    return float(np.linalg.eigvalsh(m)[-1])


def coupling_lambda_max(U, L, P):
    """lambda_max(U^{1/2} L P L* U^{1/2}), exactly: the quantity the dual step
    cap tau must stay below the reciprocal of."""
    return lambda_max(coupling_matrix(U, L, P))


def certify_tau(lam, tau, margin=1e-6):
    """The certificate of tau * lam < 1 - margin; a NaN lam is rejected."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    ok = bool(tau * lam < 1.0 - margin)
    return TauCertificate(ok, "accepted" if ok else "rejected", lam, float(tau), margin)


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
