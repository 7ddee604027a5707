"""Finite-sum losses with component-wise first- and second-order oracles.

The objective is f(x) = (1/n) sum_i f_i(x). Four families are supported:

- ridge_least_squares: f_i = (a_i^T x - b_i)^2 + reg_scale*lam*||x||^2
- reg_logistic:        f_i = ln(1 + exp(-b_i a_i^T x)) + reg_scale*lam*||x||^2
- nonconvex_svm:       f_i = 1 - tanh(b_i a_i^T x) + reg_scale*lam*||x||^2
- pca_quadratic:       f_j = 0.5 x^T (mu I - a_j a_j^T) x + c^T x   (lam holds mu)

The first three are generalized linear models: the data term is
fhat_j(a_j^T x), so the component Hessian is fhat_j''(a_j^T x) a_j a_j^T plus
the regularizer curvature, and the scalar curvature fhat_j'' drives the
non-uniform sampling distribution. pca_quadratic is not of that form and only
supports uniform sampling.

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

FAMILIES = ("ridge_least_squares", "reg_logistic", "nonconvex_svm", "pca_quadratic")


@dataclass(frozen=True)
class GlmFamily:
    """Data term fhat(t) of a generalized linear family at margins t, labels b.

    `value`, `slope` and `curvature` map (t, b) elementwise to fhat, fhat' and
    fhat''; `curvature_bound` is sup_t |fhat''(t)| for labels in {-1, +1}.
    """

    value: Callable
    slope: Callable
    curvature: Callable
    curvature_bound: float


def _tanh_curvature(t, b):
    # d^2/dt^2 (1 - tanh(b t)) = 2 b^2 tanh(b t) sech^2(b t)
    u = np.tanh(b * t)
    return 2.0 * b * b * u * (1.0 - u * u)


def _logistic_curvature(t, b):
    # d^2/dt^2 ln(1+exp(-b t)) = b^2 s(1-s) with s = sigmoid(-b t)
    s = expit(-b * t)
    return b * b * s * (1.0 - s)


def _tanh_slope(t, b):
    u = np.tanh(b * t)
    return -b * (1.0 - u * u)


# Families whose data term is fhat_j(a_j^T x) (generalized linear form).
GLM_FAMILIES = {
    "ridge_least_squares": GlmFamily(
        value=lambda t, b: np.square(t - b),
        slope=lambda t, b: 2.0 * (t - b),
        curvature=lambda t, b: np.full(np.shape(t), 2.0),
        curvature_bound=2.0,
    ),
    "reg_logistic": GlmFamily(
        value=lambda t, b: np.logaddexp(0.0, -b * t),
        slope=lambda t, b: -b * expit(-b * t),
        curvature=_logistic_curvature,
        curvature_bound=0.25,
    ),
    "nonconvex_svm": GlmFamily(
        value=lambda t, b: 1.0 - np.tanh(b * t),
        slope=_tanh_slope,
        curvature=_tanh_curvature,
        # max |d^2/dt^2 (1 - tanh t)| = 4/(3*sqrt(3)), attained where tanh^2 t = 1/3
        curvature_bound=4.0 / (3.0 * np.sqrt(3.0)),
    ),
}


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

    def row(self, j: int) -> np.ndarray:
        return np.asarray(self.A.getrow(j).todense()).ravel()

    def row_sq_norms(self) -> np.ndarray:
        if not hasattr(self, "_row_sq"):
            self._row_sq = np.asarray(self.A.multiply(self.A).sum(axis=1)).ravel()
        return self._row_sq

    @classmethod
    def from_dense(cls, A, b) -> "Dataset":
        return cls(sp.csr_matrix(np.atleast_2d(np.asarray(A, dtype=float))), b)


@dataclass
class LossModel:
    """A named loss family bound to a dataset.

    `lam` is the regularization weight; for pca_quadratic it holds the shift mu
    instead (the library does not verify mu >= lambda_max of the covariance).
    `linear` is the fixed linear-term vector of pca_quadratic (defaults to 0).
    """

    family: str
    lam: float
    dataset: Dataset
    reg_scale: float = 1.0
    linear: np.ndarray | None = None

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
        if self.family == "pca_quadratic":
            return self.lam  # mu I part of every component
        return 2.0 * self.reg_scale * self.lam

    def is_glm(self) -> bool:
        return self.family in GLM_FAMILIES


def _check_point(model: LossModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != model.d:
        raise ValueError(f"x has dimension {x.shape[0]}, expected {model.d}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite entries")
    return x


def _margins(model: LossModel, x: np.ndarray) -> np.ndarray:
    return model.dataset.A @ x


def glm_curvature(family: str, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """fhat''(t) for a batch of margins t and labels b of a GLM family."""
    if family not in GLM_FAMILIES:
        raise ValueError(f"{family} is not of generalized linear form")
    t = np.asarray(t, dtype=float)
    return GLM_FAMILIES[family].curvature(t, np.asarray(b, dtype=float))


def curvature_vector(model: LossModel, x: np.ndarray) -> np.ndarray:
    """fhat_j''(a_j^T x) for every component of a generalized linear family."""
    if not model.is_glm():
        raise ValueError(f"{model.family} is not of generalized linear form")
    x = _check_point(model, x)
    return glm_curvature(model.family, _margins(model, x), model.dataset.b)


def full_value(model: LossModel, x: np.ndarray) -> float:
    """f(x) = (1/n) sum_i f_i(x)."""
    x = _check_point(model, x)
    t = _margins(model, x)
    if model.is_glm():
        reg = model.reg_scale * model.lam * float(x @ x)
        return float(np.mean(GLM_FAMILIES[model.family].value(t, model.dataset.b))) + reg
    # pca_quadratic: (1/n) sum_j [0.5 x^T(mu I - a_j a_j^T)x] + c^T x
    mu = model.lam
    return float(0.5 * mu * (x @ x) - 0.5 * np.mean(t * t) + model.linear @ x)


def _mean_gradient(model: LossModel, x: np.ndarray, A, b: np.ndarray) -> np.ndarray:
    """Mean of the component gradients over the rows (A, b)."""
    t = A @ x
    m = A.shape[0]
    if not model.is_glm():
        return model.lam * x - (A.T @ t) / m + model.linear
    w = GLM_FAMILIES[model.family].slope(t, b)
    return (A.T @ w) / m + 2.0 * model.reg_scale * model.lam * x


def full_gradient(model: LossModel, x: np.ndarray) -> np.ndarray:
    """Exact gradient of f (gradients are never sub-sampled)."""
    x = _check_point(model, x)
    return _mean_gradient(model, x, model.dataset.A, model.dataset.b)


def batch_gradient(model: LossModel, x: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Mean of component gradients over `indices` (an unbiased estimate of
    full_gradient when indices are sampled uniformly)."""
    x = _check_point(model, x)
    indices = np.asarray(indices, dtype=int).ravel()
    if indices.size == 0:
        raise ValueError("batch must be non-empty")
    if indices.min() < 0 or indices.max() >= model.n:
        raise IndexError("batch index out of range")
    return _mean_gradient(model, x, model.dataset.A[indices], model.dataset.b[indices])


def component_hvp(model: LossModel, j: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product of component j without forming the matrix."""
    if not 0 <= j < model.n:
        raise IndexError(f"component index {j} out of range [0, {model.n})")
    x = _check_point(model, x)
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != model.d:
        raise ValueError("v dimension mismatch")
    a = model.dataset.row(j)
    if model.family == "pca_quadratic":
        return model.lam * v - (a @ v) * a
    curv = scalar_second_derivative(model, j, x)
    return curv * (a @ v) * a + model.reg_curvature() * v


def scalar_second_derivative(model: LossModel, j: int, x: np.ndarray) -> float:
    """fhat_j''(a_j^T x); may be negative for nonconvex_svm."""
    if not model.is_glm():
        raise ValueError(f"{model.family} has no scalar-curvature form")
    if not 0 <= j < model.n:
        raise IndexError(f"component index {j} out of range [0, {model.n})")
    x = _check_point(model, x)
    t = (model.dataset.A.getrow(j) @ x)[0]
    return float(GLM_FAMILIES[model.family].curvature(t, model.dataset.b[j]))


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

    GLM families: L_j = sup|fhat''| ||a_j||^2 + reg curvature, with sup|fhat''|
    = 2 (ridge), 1/4 (logistic), 4/(3 sqrt 3) (nonconvex SVM).
    pca_quadratic: L_j = max(mu, |mu - ||a_j||^2|).
    """
    sq = model.dataset.row_sq_norms()
    if model.is_glm():
        per = GLM_FAMILIES[model.family].curvature_bound * sq + model.reg_curvature()
    else:
        mu = model.lam
        per = np.maximum(mu, np.abs(mu - sq))
    return LipschitzInfo(L=float(np.max(per)), Lbar=float(np.mean(per)), per_component=per)


def dense_hessian(model: LossModel, x: np.ndarray, dense_cap: int = 400) -> np.ndarray:
    """Explicit (d x d) Hessian of f; test instrumentation only.

    Refuses d above `dense_cap` so production paths cannot materialize it by
    accident.
    """
    if model.d > dense_cap:
        raise ValueError(f"d={model.d} exceeds dense cap {dense_cap}")
    x = _check_point(model, x)
    A = model.dataset.A
    n = model.n
    if model.family == "pca_quadratic":
        mu = model.lam
        return mu * np.eye(model.d) - (A.T @ A).toarray() / n
    curv = curvature_vector(model, x)
    scaled = A.multiply(curv[:, None] / n)
    H = (A.T @ scaled).toarray()
    H += model.reg_curvature() * np.eye(model.d)
    return 0.5 * (H + H.T)
