"""Finite-sum losses with component-wise first- and second-order oracles.

The objective is f(x) = (1/n) sum_i f_i(x) + c^T x for four families:

- ridge_least_squares: f_i = (a_i^T x - b_i)^2 + reg_scale*lam*||x||^2
- reg_logistic:        f_i = ln(1 + exp(-b_i a_i^T x)) + reg_scale*lam*||x||^2
- nonconvex_svm:       f_i = 1 - tanh(b_i a_i^T x) + reg_scale*lam*||x||^2
- pca_quadratic:       f_i = -(a_i^T x)^2 / 2 + (mu/2)*||x||^2   (lam holds mu)

All four are generalized linear models: the data term is fhat_i(a_i^T x), so
the component Hessian is fhat_i''(a_i^T x) a_i a_i^T plus the regularizer
curvature 2*reg_scale*lam I (the linear term c adds none), and the scalar
curvature fhat_i'' drives the non-uniform sampling distribution.

Gradients are always exact full-batch; only Hessians are ever sub-sampled.
The ridge term is folded into every component so that sub-sampling averages
complete components. `reg_scale` selects the penalty convention:
reg_scale=1.0 gives lam*||x||^2 per component, reg_scale=0.5 gives
(lam/2)*||x||^2 (the convention the benchmark harness uses).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class GlmFamily:
    """Data term fhat(t) of a generalized linear family at margins t, labels b.

    `link` maps (t, b) elementwise to the one transcendental every other map
    shares: expit(-b t) for logistic, tanh(b t) for the SVM, t for ridge and
    pca. `value`, `slope` and `curvature` map (t, b, link value) to fhat,
    fhat' and fhat''; `curvature_range` is (inf, sup) of fhat''(t) for labels
    in {-1, +1}. No map writes into its arguments.
    """

    link: Callable
    value: Callable
    slope: Callable
    curvature: Callable
    curvature_range: tuple[float, float]


def _times(b, t) -> np.ndarray:
    """b t as a new array (0-d for scalars)."""
    return np.asarray(np.multiply(b, t))


def _logistic_value(t, b, s) -> np.ndarray:
    """ln(1 + exp(-b t)) as max(-b t, 0) + log1p(exp(-|b t|)), computed in
    place in the one array b t, with max(-b t, 0) taken as -min(b t, 0).

    This is the formula np.logaddexp(0, -b t) evaluates element by element;
    the whole-array ufuncs take a third of its time. No step overflows, and
    the result is within an ulp of ln(1 + exp(-b t)) wherever it is a normal
    number.
    """
    z = _times(b, t)
    low = np.minimum(z, 0.0)
    np.abs(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.log1p(z, out=z)
    z -= low
    return z


def _logistic_link(t, b) -> np.ndarray:
    """expit(-b t) as 1 / (1 + exp(b t)), computed in place in the one array
    b t: scipy's formula, with numpy's SIMD exp in place of the C library's.
    Where b t passes 709.78, exp overflows to inf and the link is 0, as
    expit's is."""
    z = _times(b, t)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


GLM_FAMILIES = {
    "ridge_least_squares": GlmFamily(
        link=lambda t, b: t,
        value=lambda t, b, u: np.square(t - b),
        slope=lambda t, b, u: 2.0 * (t - b),
        curvature=lambda t, b, u: np.full(np.shape(t), 2.0),
        curvature_range=(2.0, 2.0),
    ),
    "reg_logistic": GlmFamily(
        # fhat = ln(1+exp(-b t)) = softplus(-b t), evaluated without overflow;
        # fhat' = -b s and fhat'' = b^2 s(1-s) with s = sigmoid(-b t), and
        # b^2 = 1 exactly for the labels LossModel admits
        link=_logistic_link,
        value=_logistic_value,
        slope=lambda t, b, s: -(b * s),
        curvature=lambda t, b, s: s * (1.0 - s),
        curvature_range=(0.0, 0.25),
    ),
    "nonconvex_svm": GlmFamily(
        # d^2/dt^2 (1 - tanh(b t)) = 2 b^2 tanh(b t) sech^2(b t)
        link=lambda t, b: np.tanh(b * t),
        value=lambda t, b, u: 1.0 - u,
        slope=lambda t, b, u: -(b * (1.0 - u * u)),
        curvature=lambda t, b, u: 2.0 * b * b * u * (1.0 - u * u),
        # max |d^2/dt^2 (1 - tanh t)| = 4/(3*sqrt(3)), attained where tanh^2 t = 1/3
        curvature_range=(-4.0 / (3.0 * np.sqrt(3.0)), 4.0 / (3.0 * np.sqrt(3.0))),
    ),
    "pca_quadratic": GlmFamily(
        link=lambda t, b: t,
        value=lambda t, b, u: -0.5 * u * u,
        slope=lambda t, b, u: -u,
        curvature=lambda t, b, u: np.full(np.shape(t), -1.0),
        curvature_range=(-1.0, -1.0),
    ),
}
FAMILIES = tuple(GLM_FAMILIES)


def check_integer(name: str, value) -> None:
    """Reject a setting that is not an integer (numpy integers pass, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


class DegenerateCurvatureError(ValueError):
    """All component curvatures vanish; Definition-style weights are undefined."""


# Rows per block of a dense product. OpenBLAS runs ddot on one thread up to
# 10,000 entries, and its threads split a dgemv over a multiple of 8 rows
# where one thread rounds the same, so the products have the same bits at 1
# to 4 BLAS threads.
BLOCK_ROWS = 8192


def _row_blocks(n: int) -> list[slice]:
    """The blocks of rows every pass over n rows of A reads, in row order:
    BLOCK_ROWS rows each up to the last multiple of 8, then the last n % 8."""
    starts = [*range(0, n - n % 8, BLOCK_ROWS), n - n % 8, n]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:]) if hi > lo]


class ProductPair:
    """A v and A^T u over a block of the data's rows, in the layout each
    product streams.

    Dense rows are a column-major `M` and `MT` is None. Every product reads
    them in the same fixed `blocks`, (rows, A[rows]) over `_row_blocks`: A v
    is BLAS dgemv per block, written straight into its rows of the result,
    and A^T u sums one ddot per column and block (numpy's vecdot), block
    after block in row order. Sparse rows are CSR beside A^T in `MT`: a CSR
    copy for the whole matrix, whose gather has the bits of the CSC scatter
    `M.T @ u` in less time, or the free view `M.T` for sampled rows.
    """

    def __init__(self, M: np.ndarray | sp.csr_matrix, MT: sp.spmatrix | None = None):
        self.M, self.MT = M, MT
        if MT is None:
            self.blocks = [(rows, M[rows]) for rows in _row_blocks(M.shape[0])]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.MT is not None:
            return self.M @ v
        out = np.empty(self.M.shape[0])
        for rows, block in self.blocks:
            np.matmul(block, v, out=out[rows])
        return out

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        if self.MT is not None:
            return self.MT @ u
        out = np.zeros(self.M.shape[1])
        for rows, block in self.blocks:
            out += np.vecdot(block.T, u[rows])
        return out

    def hvp(self, c: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A^T (c * A v), bit for bit rmatvec(c * matvec(v)); dense data reads
        each block once, for both products, while it is still in cache."""
        if self.MT is not None:
            return self.MT @ (c * (self.M @ v))
        out, w = np.zeros(self.M.shape[1]), np.empty(self.blocks[0][0].stop)
        for rows, block in self.blocks:
            cv = np.matmul(block, v, out=w[:block.shape[0]])
            cv *= c[rows]
            out += np.vecdot(block.T, cv)
        return out

    def rows(self, idx: np.ndarray) -> "ProductPair":
        """The pair over the rows `idx`, copied out of this one."""
        if self.MT is None:
            # column by column: M[idx] comes out row-major, and reordering it
            # would hold two copies of the block at once
            block = np.empty((len(idx), self.M.shape[1]), order="F")
            for j, column in enumerate(self.M.T):
                np.take(column, idx, out=block[:, j], mode="clip")
            return ProductPair(block)
        sub = self.M[idx]
        return ProductPair(sub, sub.T)


def _csr_from_dense(A: np.ndarray) -> sp.csr_matrix:
    """sp.csr_matrix(A) for a 2-D float array, with the same data, indices,
    indptr and index dtype, built from the mask A != 0 without COO's pair of
    coordinate arrays."""
    if A.ndim != 2:
        raise ValueError(f"dense data must be 2-D, got {A.ndim}-D")
    n, d = A.shape
    keep = A != 0
    idx = sp.get_index_dtype(maxval=max(n, d, np.count_nonzero(keep)))
    indptr = np.zeros(n + 1, dtype=idx)
    np.sum(keep, axis=1, dtype=idx, out=indptr[1:])
    np.cumsum(indptr[1:], out=indptr[1:])
    indices = np.broadcast_to(np.arange(d, dtype=idx), (n, d))[keep]
    return sp.csr_matrix((A[keep], indices, indptr), shape=(n, d))


@dataclass
class Dataset:
    """Observations (a_i, b_i): A is stored as CSR with sorted indices and
    no duplicate entries.

    A float64 CSR and a float64 b are held as given, without a copy, and A's
    duplicates are summed and its indices sorted in place; any other A is
    converted once (a dense array through the mask of its nonzeros).

    Products with A go through `products()`, built on first use: dense data
    is read column-major and sparse data as CSR beside a CSR copy of A^T, so
    a pass costs O(n d) or O(nnz) in the layout each product streams. The
    column-major copy and the row norms are filled one block of rows at a
    time, so building them holds no more than the result and one block.
    """

    A: sp.csr_matrix
    b: np.ndarray

    def __post_init__(self):
        if sp.issparse(self.A):
            self.A = self.A.tocsr().astype(float, copy=False)
        else:
            self.A = _csr_from_dense(np.atleast_2d(np.asarray(self.A, dtype=float)))
        self.A.sum_duplicates()
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.A.shape[0] < 1 or self.A.shape[1] < 1:
            raise ValueError("dataset needs n >= 1 and d >= 1")
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError(
                f"label count {self.b.shape[0]} != row count {self.A.shape[0]}"
            )
        if not np.all(np.isfinite(self.A.data)) or not np.all(np.isfinite(self.b)):
            raise ValueError("dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def row_sq_norms(self) -> np.ndarray:
        """A.multiply(A).sum(axis=1), one block of rows at a time: each row is
        its own reduceat segment, so the bits are those of the whole matrix.
        A norm that overflows is inf."""
        if not hasattr(self, "_row_sq"):
            sq = np.empty(self.n)
            with np.errstate(over="ignore"):
                for rows in _row_blocks(self.n):
                    block = self.A[rows]
                    sq[rows] = np.asarray(block.multiply(block).sum(axis=1)).ravel()
            self._row_sq = sq
        return self._row_sq

    def products(self) -> ProductPair:
        """The pair A v, A^T u. A CSR that stores at least 2/3 of the n d
        entries is read as a column-major copy, which is then no larger."""
        if not hasattr(self, "_products"):
            if 3 * self.A.nnz >= 2 * self.n * self.d:
                M = np.empty((self.n, self.d), order="F")
                for rows in _row_blocks(self.n):
                    M[rows] = self.A[rows].toarray()
                self._products = ProductPair(M)
            else:
                self._products = ProductPair(self.A, self.A.T.tocsr())
        return self._products

    @classmethod
    def from_dense(cls, A, b) -> "Dataset":
        return cls(A, b)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class PointEval:
    """Margins t = A x, the family's link value and, once asked for, the
    curvature fhat''(t) and the data-term gradient A^T fhat'(t) / n at one
    point; all read-only."""

    key: bytes  # x.tobytes() of the point
    t: np.ndarray
    link: np.ndarray
    curvature: np.ndarray | None = None
    data_gradient: np.ndarray | None = None


@dataclass
class LossModel:
    """A named loss family bound to a dataset.

    `lam` is the regularization weight; for pca_quadratic it is the shift mu,
    with `reg_scale` forced to 1/2 so that the component Hessian is
    mu I - a_j a_j^T (mu >= lambda_max of the covariance is not verified).
    `linear` is the vector c of the linear term c^T x (defaults to 0).
    The last point's margins and link value are cached (`at`), so the value,
    gradient, curvature sweep and Hessian build at one point read A once for
    the margins and once more for the gradient.
    """

    family: str
    lam: float
    dataset: Dataset
    reg_scale: float = 1.0
    linear: np.ndarray | None = None
    _point: PointEval | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.reg_scale < np.inf:
            raise ValueError(f"reg_scale must be finite and >= 0, got {self.reg_scale}")
        if self.family in ("reg_logistic", "nonconvex_svm"):
            labels = np.unique(self.dataset.b)
            if not np.all(np.isin(labels, (-1.0, 1.0))):
                raise ValueError(
                    f"{self.family} needs labels in {{-1,+1}}, got {labels}"
                )
        if self.family == "pca_quadratic":
            self.reg_scale = 0.5
        if self.linear is None:
            self.linear = np.zeros(self.dataset.d)
        self.linear = np.asarray(self.linear, dtype=float).ravel()
        if self.linear.shape[0] != self.dataset.d:
            raise ValueError("linear term dimension mismatch")
        if not np.all(np.isfinite(self.linear)):
            raise ValueError("linear term contains non-finite entries")

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    def reg_curvature(self) -> float:
        """Hessian contribution of the per-component regularizer (a multiple of I)."""
        return 2.0 * self.reg_scale * self.lam

    def at(self, x: np.ndarray) -> PointEval:
        """Margins and link value at a checked point x, from a one-entry cache.

        The key is a copy of x's bytes, so editing the caller's array in place
        afterwards can never produce a stale hit. A value or curvature query
        at a new point forms no gradient: rejected trial points never need it.
        """
        key = x.tobytes()
        if self._point is None or self._point.key != key:
            t = _readonly(self.dataset.products().matvec(x))
            link = GLM_FAMILIES[self.family].link(t, self.dataset.b)
            self._point = PointEval(key, t, _readonly(link))
        return self._point


def _check_point(model: LossModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != model.d:
        raise ValueError(f"x has dimension {x.shape[0]}, expected {model.d}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite entries")
    return x


def curvature_vector(model: LossModel, x: np.ndarray) -> np.ndarray:
    """fhat_j''(a_j^T x) for every component (read-only; cached with the
    margins at x)."""
    p = model.at(_check_point(model, x))
    if p.curvature is None:
        curv = GLM_FAMILIES[model.family].curvature(p.t, model.dataset.b, p.link)
        p.curvature = _readonly(curv)
    return p.curvature


def full_value(model: LossModel, x: np.ndarray) -> float:
    """f(x) = (1/n) sum_i f_i(x) + c^T x."""
    x = _check_point(model, x)
    p = model.at(x)
    reg = model.reg_scale * model.lam * float(x @ x)
    fam = GLM_FAMILIES[model.family]
    return float(np.mean(fam.value(p.t, model.dataset.b, p.link)) + reg + model.linear @ x)


def full_gradient(model: LossModel, x: np.ndarray) -> np.ndarray:
    """Exact gradient of f (gradients are never sub-sampled)."""
    x = _check_point(model, x)
    p, fam, b = model.at(x), GLM_FAMILIES[model.family], model.dataset.b
    if p.data_gradient is None:
        g = model.dataset.products().rmatvec(fam.slope(p.t, b, p.link)) / model.n
        p.data_gradient = _readonly(g)
    return p.data_gradient + model.reg_curvature() * x + model.linear


def batch_gradient(model: LossModel, x: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Mean of component gradients over `indices` (an unbiased estimate of
    full_gradient when indices are sampled uniformly)."""
    x = _check_point(model, x)
    indices = np.asarray(indices).ravel()
    if indices.size == 0:
        raise ValueError("batch must be non-empty")
    if not np.issubdtype(indices.dtype, np.integer):  # bools are not rows
        raise TypeError(f"indices must be integers, got dtype {indices.dtype}")
    if indices.min() < 0 or indices.max() >= model.n:
        raise IndexError("batch index out of range")
    rows, b = model.dataset.products().rows(indices), model.dataset.b[indices]
    fam, t = GLM_FAMILIES[model.family], rows.matvec(x)
    g = rows.rmatvec(fam.slope(t, b, fam.link(t, b))) / b.shape[0]
    return g + model.reg_curvature() * x + model.linear


@dataclass
class LipschitzInfo:
    """Per-component gradient-Lipschitz summary: L = max_j L_j, Lbar = mean L_j."""

    L: float
    Lbar: float
    per_component: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not (0.0 < self.Lbar <= self.L < np.inf):
            raise ValueError(f"need 0 < Lbar <= L < inf, got L={self.L}, Lbar={self.Lbar}")


def lipschitz_bounds(model: LossModel) -> LipschitzInfo:
    """Analytic gradient-Lipschitz bounds for the components (||.|| spectral).

    The eigenvalues of fhat_j'' a_j a_j^T + reg I are reg and
    fhat_j'' ||a_j||^2 + reg, so fhat'' in [lo, hi] gives L_j = max(reg,
    |lo ||a_j||^2 + reg|, |hi ||a_j||^2 + reg|): sup|fhat''| ||a_j||^2 + reg
    for ridge, logistic and the SVM, max(mu, |mu - ||a_j||^2|) for pca.
    """
    sq = model.dataset.row_sq_norms()
    reg = model.reg_curvature()
    lo, hi = GLM_FAMILIES[model.family].curvature_range
    per = np.maximum(reg, np.maximum(np.abs(lo * sq + reg), np.abs(hi * sq + reg)))
    L = float(np.max(per))
    # the mean of equal L_j can round above their max
    return LipschitzInfo(L=L, Lbar=min(float(np.mean(per)), L), per_component=per)

