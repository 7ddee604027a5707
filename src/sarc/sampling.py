"""Sample-size rules, importance weights, and the sub-sampled Hessian operator.

The sub-sampled Hessian is H~(x) = (1/(n|S|)) sum_{j in S} (1/p_j) nabla^2 f_j(x)
with S drawn i.i.d. with replacement; the solvers apply H~(x) + shift I, with
shift = eps_i/2 on sampled runs.

Each concentration lemma is one function that returns its size capped at n
(the cap switches the build to a deduplicated exact full Hessian; an infinite
or NaN bound selects it too):

- uniform:     |S| >= max{16 L^2/eps^2, 4 L/eps} * log(2d/delta)
- non-uniform: |S| >= max{4 Lbar^2/eps^2, (2L/eps) (n + 1/p_min - 2)/n} * log(2d/delta)

with the non-uniform weights p_j proportional to |fhat_j''(a_j^T x)| ||a_j||^2
(zero-weight rows are excluded from p_min; 0/0 = 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .problems import (
    GLM_FAMILIES, DegenerateCurvatureError, LossModel, check_integer, curvature_vector,
)


def _capped(body: float, per_iter_delta: float, d: int, n: int) -> int:
    # ceil(body * log(2d/delta)) capped at n; +inf (1/p_min overflows for a
    # subnormal p_min, L^2 for huge L) and NaN have no integer ceiling and
    # select exact mode
    bound = body * math.log(2.0 * d / per_iter_delta)
    return math.ceil(bound) if bound < n else n


def sample_size_uniform(eps: float, per_iter_delta: float, L: float, d: int, n: int) -> int:
    """Uniform-sampling size, capped at n (cap triggers exact-Hessian mode)."""
    if not (0.0 < eps < 1.0 and 0.0 < per_iter_delta < 1.0):
        raise ValueError("eps and per_iter_delta must lie in (0,1)")
    if L <= 0.0 or d < 1 or n < 1:
        raise ValueError("need L > 0 and d, n >= 1")
    body = max(16.0 * L * L / eps**2, 4.0 * L / eps)
    return _capped(body, per_iter_delta, d, n)


def _nonuniform_p_free_term(eps: float, Lbar: float) -> float:
    # the term of the non-uniform lemma that does not depend on p
    return 4.0 * Lbar * Lbar / eps**2


def sample_size_nonuniform(
    eps: float, per_iter_delta: float, L: float, Lbar: float, p_min: float, d: int, n: int
) -> int:
    """Non-uniform-sampling size, capped at n."""
    if not (0.0 < eps < 1.0 and 0.0 < per_iter_delta < 1.0):
        raise ValueError("eps and per_iter_delta must lie in (0,1)")
    if not (0.0 < Lbar <= L) or d < 1 or n < 1:
        raise ValueError("need 0 < Lbar <= L and d, n >= 1")
    if not (0.0 < p_min <= 1.0):
        raise ValueError("p_min must lie in (0,1]; p_min = 0 is a degenerate curvature state")
    body = max(
        _nonuniform_p_free_term(eps, Lbar),
        (2.0 * L / eps) * (n + 1.0 / p_min - 2.0) / n,
    )
    return _capped(body, per_iter_delta, d, n)


def nonuniform_distribution(model: LossModel, x: np.ndarray):
    """Curvature-weighted sampling probabilities and their smallest nonzero entry.

    p_j = |fhat_j''(a_j^T x)| ||a_j||^2 / sum_k |fhat_k''| ||a_k||^2. Rows with
    zero weight get p_j = 0 and are excluded from p_min. Raises
    DegenerateCurvatureError when every weight vanishes (caller falls back to
    uniform sampling).
    """
    p = np.abs(curvature_vector(model, x))
    p *= model.dataset.row_sq_norms()
    total = float(p.sum())
    if total <= 0.0:
        raise DegenerateCurvatureError("all component curvatures vanish at this point")
    p /= total
    return p, float(p.min(where=p > 0.0, initial=np.inf))


@dataclass
class SamplingPlan:
    """Resolved sampling decision for one Hessian build.

    The scheme is non-uniform exactly when the plan keeps its probabilities.
    A non-uniform request is `downgraded` to uniform when the curvature is
    degenerate or when its size exceeds the uniform one, so each lemma keeps
    its own size/distribution pairing. A plan that is exact whatever the
    probabilities are is never downgraded and costs no sweep.
    """

    size: int
    exact: bool
    probabilities: np.ndarray | None = None
    downgraded: bool = False
    curvature_sweeps: int = 0  # O(n) probability recomputes, charged 0 epochs

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("resolved sample size must be >= 1")
        if self.probabilities is not None:
            s = float(self.probabilities.sum())
            if not abs(s - 1.0) <= 1e-12:  # NaN fails too
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

    The lemma formulas are evaluated at eps_i/2 because the operator also
    receives an (eps_i/2) I shift. Degenerate curvature silently falls back
    to uniform. `fixed_size` overrides the formula (scripted tests); the cap
    still applies. The weights are not computed where the plan is exact
    whatever they are: a fixed size of at least n, or a uniform size and
    the non-uniform lemma's p-free term that both cap at n.
    """
    if not (0.0 < eps_i <= 1.0):
        raise ValueError(f"eps_i must lie in (0,1], got {eps_i}")
    if scheme not in ("uniform", "nonuniform"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n, d = model.n, model.d
    eps_half = eps_i / 2.0
    size = sample_size_uniform(eps_half, per_iter_delta, lip.L, d, n)
    if fixed_size is not None:
        check_integer("fixed_size", fixed_size)
        exact_for_any_p = fixed_size >= n
    else:
        exact_for_any_p = size >= n and _capped(
            _nonuniform_p_free_term(eps_half, lip.Lbar), per_iter_delta, d, n) >= n
    p = None
    sweeps = 0
    if scheme == "nonuniform" and not exact_for_any_p:
        try:
            p, p_min = nonuniform_distribution(model, x)
            sweeps = 1
        except DegenerateCurvatureError:
            pass

    if p is not None:
        size_non = sample_size_nonuniform(
            eps_half, per_iter_delta, lip.L, lip.Lbar, p_min, d, n
        )
        if size_non <= size:
            size = size_non
        else:
            p = None
    downgraded = scheme == "nonuniform" and p is None and not exact_for_any_p

    if fixed_size is not None:
        size = min(int(fixed_size), n)
    exact = size >= n
    return SamplingPlan(size, exact, None if exact else p, downgraded, sweeps)


class SampleStream:
    """Counter-based seeded index stream: Philox reproduces every draw from
    the seed and the sequence of plans drawn."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(key=int(seed)))

    def draw(self, plan: SamplingPlan, n: int) -> np.ndarray:
        """plan.size rows drawn with replacement; non-uniform draws come out
        sorted.

        A non-uniform draw is Generator.choice's inverse CDF on sorted
        uniforms: the same rows and the same generator state afterwards,
        without choice's search of unsorted keys.
        """
        p = plan.probabilities
        if p is None:
            return self._gen.integers(0, n, size=plan.size)
        if p.shape != (n,):
            raise ValueError(f"probabilities of shape {p.shape} for {n} rows")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        u = self._gen.random(plan.size)
        u.sort()
        return cdf.searchsorted(u, side="right")


def _runs(draw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a sorted draw and how often each was drawn, read
    off its runs in O(m)."""
    first = np.empty(draw.size, dtype=bool)
    first[0] = True
    np.not_equal(draw[1:], draw[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return draw[starts], np.diff(starts, append=draw.size)


@functools.lru_cache(maxsize=4)
def _exact_weight_sum(n: int) -> float:
    # numpy's pairwise sum of n weights 1/n, which can differ from n * (1/n)
    # in the last bit; formed once per n
    return float(np.full(n, 1.0 / n).sum())


class SubsampledHessian:
    """Symmetric operator v -> H~(x) v + shift*v built from a weighted sample.

    The scalar curvatures fhat_j''(a_j^T x) are evaluated once per distinct
    sampled row at construction (that is the |S| component-Hessian queries the
    epoch ledger charges); applying the operator afterwards reuses them and
    queries nothing new. Component Hessians are never materialized. Margins
    and link values come from the model's point cache; an exact build also
    takes the cached curvature vector and the dataset's product pair, without
    a copy; a sampled build copies its rows out of that pair.
    """

    def __init__(self, model: LossModel, x: np.ndarray, plan: SamplingPlan,
                 stream: SampleStream | None = None, *, shift: float):
        x = np.asarray(x, dtype=float).ravel()
        self.plan = plan
        self.shift = float(shift)
        n = model.n

        if plan.exact:
            idx = np.arange(n)
            w = 1.0 / n
            self._rows = model.dataset.products()
            curv = curvature_vector(model, x)
            w_sum = _exact_weight_sum(n)
        else:
            if stream is None:
                raise ValueError("sampled build needs a SampleStream")
            draw = stream.draw(plan, n)
            if plan.probabilities is None:
                draw.sort()  # a non-uniform draw comes sorted
            idx, counts = _runs(draw)
            pj = 1.0 / n if plan.probabilities is None else plan.probabilities[idx]
            w = counts / (n * plan.size * pj)
            self._rows = model.dataset.products().rows(idx)
            p = model.at(x)
            b = model.dataset.b[idx]
            curv = GLM_FAMILIES[model.family].curvature(p.t[idx], b, p.link[idx])
            w_sum = float(w.sum())
        self.indices = idx
        self._weights = w
        self._coeffs = w * curv
        self._diag = w_sum * model.reg_curvature()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float).ravel()
        out = self._rows.hvp(self._coeffs, v)
        out += (self._diag + self.shift) * v
        return out
