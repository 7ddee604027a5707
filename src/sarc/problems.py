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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.special import expit


@dataclass(frozen=True)
class GlmFamily:
    """Data term fhat(t) of a generalized linear family at margins t, labels b.

    `link` maps (t, b) elementwise to the one transcendental every other map
    shares: expit(-b t) for logistic, tanh(b t) for the SVM, t for ridge and
    pca. `value`, `slope` and `curvature` map (t, b, link value) to fhat,
    fhat' and fhat''; `curvature_range` is (inf, sup) of fhat''(t) for labels
    in {-1, +1}.
    """

    link: Callable
    value: Callable
    slope: Callable
    curvature: Callable
    curvature_range: tuple[float, float]


GLM_FAMILIES = {
    "ridge_least_squares": GlmFamily(
        link=lambda t, b: t,
        value=lambda t, b, u: np.square(t - b),
        slope=lambda t, b, u: 2.0 * (t - b),
        curvature=lambda t, b, u: np.full(np.shape(t), 2.0),
        curvature_range=(2.0, 2.0),
    ),
    "reg_logistic": GlmFamily(
        # d^2/dt^2 ln(1+exp(-b t)) = b^2 s(1-s) with s = sigmoid(-b t)
        link=lambda t, b: expit(-b * t),
        value=lambda t, b, s: np.logaddexp(0.0, -b * t),
        slope=lambda t, b, s: -b * s,
        curvature=lambda t, b, s: b * b * s * (1.0 - s),
        curvature_range=(0.0, 0.25),
    ),
    "nonconvex_svm": GlmFamily(
        # d^2/dt^2 (1 - tanh(b t)) = 2 b^2 tanh(b t) sech^2(b t)
        link=lambda t, b: np.tanh(b * t),
        value=lambda t, b, u: 1.0 - u,
        slope=lambda t, b, u: -b * (1.0 - u * u),
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


class DegenerateCurvatureError(ValueError):
    """All component curvatures vanish; Definition-style weights are undefined."""


@dataclass
class Dataset:
    """Sparse row-major observations (a_i, b_i).

    A is CSR with sorted indices so row dot products are O(nnz).
    """

    A: sp.csr_matrix
    b: np.ndarray

    def __post_init__(self):
        if not sp.issparse(self.A):
            self.A = sp.csr_matrix(np.atleast_2d(np.asarray(self.A, dtype=float)))
        self.A = self.A.tocsr().astype(float)
        self.A.sort_indices()
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
        if not hasattr(self, "_row_sq"):
            self._row_sq = np.asarray(self.A.multiply(self.A).sum(axis=1)).ravel()
        return self._row_sq

    @classmethod
    def from_dense(cls, A, b) -> "Dataset":
        return cls(sp.csr_matrix(np.atleast_2d(np.asarray(A, dtype=float))), b)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class PointEval:
    """Margins t = A x, the family's link value and, once asked for, the
    curvature fhat''(t) at one point; all read-only."""

    key: bytes  # x.tobytes() of the point
    t: np.ndarray
    link: np.ndarray
    curvature: np.ndarray | None = None


@dataclass
class LossModel:
    """A named loss family bound to a dataset.

    `lam` is the regularization weight; for pca_quadratic it is the shift mu,
    with `reg_scale` forced to 1/2 so that the component Hessian is
    mu I - a_j a_j^T (mu >= lambda_max of the covariance is not verified).
    `linear` is the vector c of the linear term c^T x (defaults to 0).
    The last point's margins and link value are cached (`at`), so the value,
    gradient, curvature sweep and Hessian build at one point read A once.
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
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
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
        afterwards can never produce a stale hit.
        """
        key = x.tobytes()
        p = self._point
        if p is None or p.key != key:
            t = _readonly(self.dataset.A @ x)
            link = _readonly(GLM_FAMILIES[self.family].link(t, self.dataset.b))
            p = self._point = PointEval(key, t, link)
        return p


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


def _mean_gradient(model: LossModel, x: np.ndarray, A, b: np.ndarray,
                   t: np.ndarray, link: np.ndarray) -> np.ndarray:
    """Mean of the component gradients over the rows (A, b) at margins t = A x."""
    w = GLM_FAMILIES[model.family].slope(t, b, link)
    return (A.T @ w) / A.shape[0] + model.reg_curvature() * x + model.linear


def full_gradient(model: LossModel, x: np.ndarray) -> np.ndarray:
    """Exact gradient of f (gradients are never sub-sampled)."""
    x = _check_point(model, x)
    p = model.at(x)
    return _mean_gradient(model, x, model.dataset.A, model.dataset.b, p.t, p.link)


def batch_gradient(model: LossModel, x: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Mean of component gradients over `indices` (an unbiased estimate of
    full_gradient when indices are sampled uniformly)."""
    x = _check_point(model, x)
    indices = np.asarray(indices, dtype=int).ravel()
    if indices.size == 0:
        raise ValueError("batch must be non-empty")
    if indices.min() < 0 or indices.max() >= model.n:
        raise IndexError("batch index out of range")
    A, b = model.dataset.A[indices], model.dataset.b[indices]
    t = A @ x
    link = GLM_FAMILIES[model.family].link(t, b)
    return _mean_gradient(model, x, A, b, t, link)


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
    return LipschitzInfo(L=float(np.max(per)), Lbar=float(np.mean(per)), per_component=per)

