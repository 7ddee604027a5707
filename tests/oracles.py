"""Independent reference computations for the test suite.

Everything here is deliberately written with different methods from the
library: finite differences instead of analytic formulas, a dense eigenbasis
secular solve instead of Lanczos, explicit d x d Hessians instead of
operators, so agreement is meaningful. The dense references refuse d above
`dense_cap`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from sarc.problems import GLM_FAMILIES, Dataset, LossModel, curvature_vector


def row(dataset: Dataset, j: int) -> np.ndarray:
    """Row a_j of the data matrix as a dense vector."""
    return np.asarray(dataset.A.getrow(j).todense()).ravel()


def scalar_second_derivative(model: LossModel, j: int, x: np.ndarray) -> float:
    """fhat_j''(a_j^T x) from one row, without the model's point cache."""
    if not 0 <= j < model.n:
        raise IndexError(f"component index {j} out of range [0, {model.n})")
    t = float(row(model.dataset, j) @ np.asarray(x, dtype=float))
    b = model.dataset.b[j]
    fam = GLM_FAMILIES[model.family]
    return float(fam.curvature(t, b, fam.link(t, b)))


def component_hvp(model: LossModel, j: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product of component j: fhat_j'' (a_j.v) a_j + reg v."""
    curv = scalar_second_derivative(model, j, x)
    a = row(model.dataset, j)
    return curv * (a @ v) * a + model.reg_curvature() * np.asarray(v, dtype=float)


def dense_hessian(model: LossModel, x: np.ndarray, dense_cap: int = 400) -> np.ndarray:
    """Explicit (d x d) Hessian of f: (1/n) A^T diag(fhat'') A + reg I."""
    if model.d > dense_cap:
        raise ValueError(f"d={model.d} exceeds dense cap {dense_cap}")
    A = model.dataset.A.toarray()
    H = A.T @ (curvature_vector(model, x)[:, None] / model.n * A)
    H += model.reg_curvature() * np.eye(model.d)
    return 0.5 * (H + H.T)


def unshifted_dense(op, dense_cap: int = 400) -> np.ndarray:
    """Explicit H~(x) of a SubsampledHessian, without its shift."""
    d = op.model.d
    if d > dense_cap:
        raise ValueError(f"d={d} exceeds dense cap {dense_cap}")
    A_S = op._A_S.toarray()
    H = A_S.T @ (op._coeffs[:, None] * A_S) + op._diag * np.eye(d)
    return 0.5 * (H + H.T)


def spectral_error(op, model: LossModel, x: np.ndarray, dense_cap: int = 400) -> float:
    """|| H~(x) - nabla^2 f(x) ||_2: the operator minus its shift against the
    exact Hessian."""
    diff = unshifted_dense(op, dense_cap) - dense_hessian(model, x, dense_cap)
    return float(np.max(np.abs(np.linalg.eigvalsh(diff))))


def quad(op, v: np.ndarray) -> float:
    """The quadratic form v^T H v of an operator."""
    return float(v @ op.matvec(v))


def model_gradient(model, s: np.ndarray) -> np.ndarray:
    """grad m(s) = g + H s + sigma ||s|| s of a CubicModel, in full space."""
    s = np.asarray(s, dtype=float).ravel()
    return model.g + model.H.matvec(s) + model.sigma * np.linalg.norm(s) * s


def model_value(model, s: np.ndarray) -> float:
    """m(s) = f0 + g.s + 0.5 s.Hs + (sigma/3) ||s||^3 of a CubicModel."""
    s = np.asarray(s, dtype=float).ravel()
    sn = np.linalg.norm(s)
    return float(
        model.f0 + model.g @ s + 0.5 * (s @ model.H.matvec(s)) + model.sigma / 3.0 * sn**3
    )


def snapshot(ledger) -> dict:
    """An EpochLedger's counters and epochs as a dict."""
    return {
        "gradient_queries": ledger.component_gradient_queries,
        "hessian_queries": ledger.component_hessian_queries,
        "epochs": ledger.epochs,
    }


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        step = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def fd_hvp(grad_fn, x: np.ndarray, v: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    step = h * (1.0 + float(np.linalg.norm(x))) / max(float(np.linalg.norm(v)), 1e-12)
    return (grad_fn(x + step * v) - grad_fn(x - step * v)) / (2.0 * step)


def cubic_global_min(H: np.ndarray, g: np.ndarray, sigma: float):
    """Global minimizer of g.s + 0.5 s.H s + (sigma/3)||s||^3 by eigenbasis
    secular solve (dense, small d only). Returns (s, value)."""
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float).ravel()
    w, V = np.linalg.eigh(H)
    gt = V.T @ g
    barrier = max(0.0, -float(w[0]))

    def value(s):
        return float(g @ s + 0.5 * s @ H @ s + sigma / 3.0 * np.linalg.norm(s) ** 3)

    if np.linalg.norm(g) == 0.0:
        if w[0] >= 0.0:
            return np.zeros_like(g), 0.0
        s = (barrier / sigma) * V[:, 0]
        return s, value(s)

    # components clashing with the barrier decide between interior root and hard case
    gap = np.abs(w + barrier)
    tight = gap <= 1e-12 * max(1.0, np.abs(w).max())
    if barrier > 0.0 and np.all(np.abs(gt[tight]) <= 1e-14 * np.linalg.norm(gt)):
        y = np.where(tight, 0.0, -gt / np.where(tight, 1.0, w + barrier))
        if sigma * np.linalg.norm(y) <= barrier:
            # boundary solution: pseudo-inverse part plus a null-space component
            extra = (barrier / sigma) ** 2 - float(y @ y)
            e = np.zeros(len(w))
            e[np.argmax(tight)] = 1.0
            y = y + (np.sqrt(extra) if extra > 0.0 else 0.0) * e
            s = V @ y
            return s, value(s)

    def phi(lam):
        return sigma * np.linalg.norm(gt / (w + lam)) - lam

    # phi decreases from +inf-ish near the barrier to -inf; bracket the root
    off = max(barrier, 1.0) * 1e-13
    while off > 1e-300 and phi(barrier + off) < 0.0:
        off *= 0.5
    lo = barrier + off
    hi = max(2.0 * lo, 1.0)
    while phi(hi) > 0.0:
        hi *= 2.0
    lam = brentq(phi, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=300)
    s = V @ (-gt / (w + lam))
    return s, value(s)


def random_glm_instance(rng: np.random.Generator, family: str, n=None, d=None):
    """A small random model plus a probe point for derivative checks."""
    n = int(rng.integers(3, 30)) if n is None else n
    d = int(rng.integers(1, 8)) if d is None else d
    A = rng.standard_normal((n, d)) * rng.uniform(0.3, 2.0)
    if family in ("reg_logistic", "nonconvex_svm"):
        b = rng.choice([-1.0, 1.0], size=n)
    else:
        b = rng.standard_normal(n)
    lam = float(rng.uniform(0.0, 0.1))
    model = LossModel(family, lam, Dataset.from_dense(A, b),
                      reg_scale=float(rng.choice([0.5, 1.0])))
    x = rng.standard_normal(d)
    return model, x


def random_pca_instance(rng: np.random.Generator, n=None, d=None):
    n = int(rng.integers(3, 30)) if n is None else n
    d = int(rng.integers(1, 8)) if d is None else d
    A = rng.standard_normal((n, d))
    mu = float(rng.uniform(0.5, 3.0))
    model = LossModel("pca_quadratic", mu, Dataset.from_dense(A, np.zeros(n)),
                      linear=rng.standard_normal(d))
    x = rng.standard_normal(d)
    return model, x


def diag_quadratic_problem(d: int = 50, cond: float = 1e3):
    """Axis-aligned least-squares whose Hessian is diag(h), h log-spaced with
    the requested condition number; the minimizer is a planted point and
    f* = 0. Rows a_i = sqrt(n h_i / 2) e_i give Hessian (2/n) sum a_i a_i^T =
    diag(h)."""
    n = d
    h = 2.0 * np.logspace(0.0, -np.log10(cond), d)
    A = np.diag(np.sqrt(n * h / 2.0))
    rng = np.random.default_rng(7)
    c = rng.standard_normal(d)
    b = A @ c
    model = LossModel("ridge_least_squares", 0.0, Dataset.from_dense(A, b))
    return model, c, h
