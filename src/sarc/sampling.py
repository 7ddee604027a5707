"""Sample-size rules, importance weights, and the sub-sampled Hessian operator.

The sub-sampled Hessian is H~(x) = (1/(n|S|)) sum_{j in S} (1/p_j) nabla^2 f_j(x)
with S drawn i.i.d. with replacement; the shifted operator used by the solvers
is H(x) = H~(x) + (eps_i/2) I.

Two sample-size rules are implemented, both capped at n (the cap switches the
build to a deduplicated exact full Hessian):

- uniform:     |S| >= max{16 L^2/eps^2, 4 L/eps} * log(2d/delta)
- non-uniform: |S| >= max{4 Lbar^2/eps^2, (2L/eps) (n + 1/p_min - 2)/n} * log(2d/delta)

with the non-uniform weights p_j proportional to |fhat_j''(a_j^T x)| ||a_j||^2
(zero-weight rows are excluded from p_min; 0/0 = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .problems import (
    GLM_FAMILIES,
    DegenerateCurvatureError,
    LossModel,
    curvature_vector,
    dense_hessian,
)


def _uniform_bound(eps: float, per_iter_delta: float, L: float, d: int) -> float:
    if not (0.0 < eps < 1.0 and 0.0 < per_iter_delta < 1.0):
        raise ValueError("eps and per_iter_delta must lie in (0,1)")
    if L <= 0.0 or d < 1:
        raise ValueError("need L > 0 and d >= 1")
    body = max(16.0 * L * L / eps**2, 4.0 * L / eps)
    return body * math.log(2.0 * d / per_iter_delta)


def _nonuniform_bound(
    eps: float, per_iter_delta: float, L: float, Lbar: float, p_min: float, d: int, n: int
) -> float:
    if not (0.0 < eps < 1.0 and 0.0 < per_iter_delta < 1.0):
        raise ValueError("eps and per_iter_delta must lie in (0,1)")
    if not (0.0 < Lbar <= L):
        raise ValueError("need 0 < Lbar <= L")
    if not (0.0 < p_min <= 1.0):
        raise ValueError("p_min must lie in (0,1]; p_min = 0 is a degenerate curvature state")
    body = max(
        4.0 * Lbar * Lbar / eps**2,
        (2.0 * L / eps) * (n + 1.0 / p_min - 2.0) / n,
    )
    return body * math.log(2.0 * d / per_iter_delta)


def _ceil(bound: float) -> int | float:
    # +inf (1/p_min overflows for subnormal p_min, L^2 for huge L) has no
    # integer ceiling; it stays math.inf, and capping it at n selects exact mode
    return math.ceil(bound) if math.isfinite(bound) else math.inf


def lemma_uniform_bound(eps: float, per_iter_delta: float, L: float, d: int) -> int | float:
    """Uncapped uniform sample-size bound (the concentration tests need the raw
    value); math.inf when the bound overflows."""
    return _ceil(_uniform_bound(eps, per_iter_delta, L, d))


def lemma_nonuniform_bound(
    eps: float, per_iter_delta: float, L: float, Lbar: float, p_min: float, d: int, n: int
) -> int | float:
    """Uncapped non-uniform sample-size bound; math.inf when it overflows."""
    return _ceil(_nonuniform_bound(eps, per_iter_delta, L, Lbar, p_min, d, n))


def sample_size_uniform(eps: float, per_iter_delta: float, L: float, d: int, n: int) -> int:
    """Uniform-sampling size, capped at n (cap triggers exact-Hessian mode)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return min(lemma_uniform_bound(eps, per_iter_delta, L, d), n)


def sample_size_nonuniform(
    eps: float, per_iter_delta: float, L: float, Lbar: float, p_min: float, d: int, n: int
) -> int:
    """Non-uniform-sampling size, capped at n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return min(lemma_nonuniform_bound(eps, per_iter_delta, L, Lbar, p_min, d, n), n)


def nonuniform_distribution(model: LossModel, x: np.ndarray):
    """Curvature-weighted sampling probabilities and their smallest nonzero entry.

    p_j = |fhat_j''(a_j^T x)| ||a_j||^2 / sum_k |fhat_k''| ||a_k||^2. Rows with
    zero weight get p_j = 0 and are excluded from p_min. Raises
    DegenerateCurvatureError when every weight vanishes (caller falls back to
    uniform sampling).
    """
    weights = np.abs(curvature_vector(model, x)) * model.dataset.row_sq_norms()
    total = float(weights.sum())
    if total <= 0.0:
        raise DegenerateCurvatureError("all component curvatures vanish at this point")
    p = weights / total
    p_min = float(p[p > 0.0].min())
    return p, p_min


@dataclass
class SamplingPlan:
    """Resolved sampling decision for one Hessian build.

    `eps_i` is the solver's Hessian tolerance; the lemma formulas are evaluated
    at eps_i/2 because the operator also receives an (eps_i/2) I shift.
    `scheme` is the scheme actually used after resolution; when the requested
    non-uniform size exceeds the uniform one the plan downgrades
    (`downgraded=True`) so each lemma keeps its own size/distribution pairing.
    """

    scheme: str
    eps_i: float
    size: int
    exact: bool
    probabilities: np.ndarray | None = None
    p_min: float | None = None
    requested_scheme: str = ""
    downgraded: bool = False
    curvature_sweeps: int = 0  # O(n) probability recomputes, charged 0 epochs

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("resolved sample size must be >= 1")
        if not self.requested_scheme:
            self.requested_scheme = self.scheme
        if self.probabilities is not None:
            s = float(self.probabilities.sum())
            if abs(s - 1.0) > 1e-12:
                raise ValueError(f"probabilities sum to {s}, expected 1")
            if np.any(self.probabilities < 0.0):
                raise ValueError("negative probability")


def resolve_plan(
    model: LossModel,
    x: np.ndarray,
    eps_i: float,
    per_iter_delta: float,
    lip,
    scheme: str = "uniform",
    fixed_size: int | None = None,
) -> SamplingPlan:
    """Pick scheme, size, and (for non-uniform) the weight vector at x.

    Non-GLM families and degenerate curvature silently fall back to uniform.
    `fixed_size` overrides the formula (scripted tests); the cap still applies.
    """
    if not (0.0 < eps_i <= 1.0):
        raise ValueError(f"eps_i must lie in (0,1], got {eps_i}")
    if scheme not in ("uniform", "nonuniform"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n, d = model.n, model.d
    requested = scheme
    eps_half = eps_i / 2.0
    sweeps = 0

    p = p_min = None
    if scheme == "nonuniform":
        if not model.is_glm():
            scheme = "uniform"
        else:
            try:
                p, p_min = nonuniform_distribution(model, x)
                sweeps = 1
            except DegenerateCurvatureError:
                scheme = "uniform"

    size_uni = sample_size_uniform(eps_half, per_iter_delta, lip.L, d, n)
    downgraded = requested == "nonuniform" and scheme == "uniform"
    if scheme == "nonuniform":
        size_non = sample_size_nonuniform(
            eps_half, per_iter_delta, lip.L, lip.Lbar, p_min, d, n
        )
        if size_non <= size_uni:
            size = size_non
        else:
            scheme, size, p, p_min = "uniform", size_uni, None, None
            downgraded = True
    else:
        size = size_uni

    if fixed_size is not None:
        size = min(int(fixed_size), n)
    exact = size >= n
    if exact:
        size = n
        scheme, p, p_min = "uniform", None, None
    return SamplingPlan(
        scheme=scheme,
        eps_i=eps_i,
        size=size,
        exact=exact,
        probabilities=p,
        p_min=p_min,
        requested_scheme=requested,
        downgraded=downgraded,
        curvature_sweeps=sweeps,
    )


class SampleStream:
    """Counter-based seeded index stream; every draw is logged.

    Philox is counter-based, so a stream is reproducible from (seed, draw log).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))
        self.draw_log: list[tuple[int, str, int]] = []  # (draw index, scheme, size)

    def draw(self, plan: SamplingPlan, n: int) -> np.ndarray:
        self.draw_log.append((len(self.draw_log), plan.scheme, plan.size))
        if plan.scheme == "nonuniform":
            return self._gen.choice(n, size=plan.size, replace=True, p=plan.probabilities)
        return self._gen.integers(0, n, size=plan.size)


class SubsampledHessian:
    """Symmetric operator v -> H~(x) v + shift*v built from a weighted sample.

    The scalar curvatures fhat_j''(a_j^T x) are evaluated once per distinct
    sampled row at construction (that is the |S| component-Hessian queries the
    epoch ledger charges); applying the operator afterwards reuses them and
    queries nothing new. Component Hessians are never materialized. Margins
    and link values come from the model's point cache; an exact build also
    takes the cached curvature vector and applies A itself, without a copy.
    """

    def __init__(self, model: LossModel, x: np.ndarray, plan: SamplingPlan,
                 stream: SampleStream | None = None, shift: float | None = None):
        self.model = model
        self.x = np.asarray(x, dtype=float).ravel().copy()
        self.plan = plan
        self.shift = float(plan.eps_i / 2.0 if shift is None else shift)
        self.sample_size = plan.size  # queries charged for this build
        n = model.n

        if plan.exact:
            idx = np.arange(n)
            w = np.full(n, 1.0 / n)
        else:
            if stream is None:
                raise ValueError("sampled build needs a SampleStream")
            drawn = stream.draw(plan, n)
            counts = np.bincount(drawn, minlength=n)
            idx = np.flatnonzero(counts)
            if plan.scheme == "nonuniform":
                pj = plan.probabilities[idx]
            else:
                pj = np.full(idx.shape[0], 1.0 / n)
            w = counts[idx] / (n * plan.size * pj)
        self._indices = idx
        self._weights = w
        self._w_sum = float(w.sum())
        self._A_S = model.dataset.A if plan.exact else model.dataset.A[idx]

        if model.family == "pca_quadratic":
            self._coeffs = -w
            self._diag = self._w_sum * model.lam
        else:
            if plan.exact:
                curv = curvature_vector(model, self.x)
            else:
                p = model.at(self.x)
                b = model.dataset.b[idx]
                curv = GLM_FAMILIES[model.family].curvature(p.t[idx], b, p.link[idx])
            self._coeffs = w * curv
            self._diag = self._w_sum * model.reg_curvature()

    @property
    def d(self) -> int:
        return self.model.d

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float).ravel()
        out = self._A_S.T @ (self._coeffs * (self._A_S @ v))
        out += (self._diag + self.shift) * v
        return out

    __call__ = matvec

    def quad(self, v: np.ndarray) -> float:
        return float(v @ self.matvec(v))

    def unshifted_dense(self, dense_cap: int = 400) -> np.ndarray:
        """Explicit H~(x) without the shift; test instrumentation only."""
        if self.d > dense_cap:
            raise ValueError(f"d={self.d} exceeds dense cap {dense_cap}")
        if sp.issparse(self._A_S):
            scaled = self._A_S.multiply(self._coeffs[:, None])
            H = (self._A_S.T @ scaled).toarray()
        else:
            H = self._A_S.T @ (self._coeffs[:, None] * self._A_S)
        H += self._diag * np.eye(self.d)
        return 0.5 * (H + H.T)


def spectral_error(op: SubsampledHessian, model: LossModel, x: np.ndarray,
                   dense_cap: int = 400) -> float:
    """|| H~(x) - nabla^2 f(x) ||_2 via a dense reference; test instrumentation.

    Compares the operator minus its shift against the exact Hessian. Refuses
    d above `dense_cap`.
    """
    if model.d > dense_cap:
        raise ValueError(f"d={model.d} exceeds dense cap {dense_cap}")
    diff = op.unshifted_dense(dense_cap) - dense_hessian(model, x, dense_cap)
    return float(np.max(np.abs(np.linalg.eigvalsh(diff))))
