"""Cubic model of f(x + s) - f(x): m(s) = g^T s + 0.5 s^T H s + (sigma/3) ||s||^3.

The minimizer over a growing Krylov subspace is computed by the Lanczos
process with full re-orthogonalization, one Hessian-vector product per Krylov
step; the stored basis grows with k, so memory is O(k d), not O(d^2). Each
subspace problem reduces, in the Lanczos basis, to a tridiagonal cubic whose
stationarity system is

    (T + lambda I) y = -||g|| e1,   lambda = sigma ||y||,

solved by safeguarded Newton/bisection on the secular function
phi(lambda) = 1/||y(lambda)|| - sigma/lambda over
lambda in (max(0, -lambda_min(T)), infinity). The subspace iterate is globally
optimal over span(Q) by construction, which supplies the subspace-optimality
clause of the stronger termination condition for free.

Every shifted system T + lambda I of a secular solve is factored by one
O(k) L D L^T factorization (LAPACK dpttrf), once per Newton step. It first
tries lambda = 0. When that succeeds, T is positive definite, as on every
convex problem, so the barrier is 0 and the hard case cannot occur. Only an
indefinite or singular T pays for its minimal eigenpair (eigh_tridiagonal):
its shifts lie right of the barrier, where T + lambda I is positive definite
again, and the eigenvector is deflated from each solve. The hard case is
read off the deflated solve of a probe just right of the barrier. The Newton
iteration of each solve starts from the previous solve's lambda = sigma ||y||
when that lies inside the new bracket, as in GLTR: T_k extends T_{k-1} by one
row, so the root moves little.

The termination residual and the model decrease come from the Lanczos
recurrence H Q_k = Q_k T_k + beta_k q_{k+1} e_k^T (the GLTR / ARC evaluation
of Gould, Lucidi, Roma & Toint 1999; Cartis, Gould & Toint 2011): for
s = Q_k y,

    ||grad m(s)||^2 = || ||g|| e1 + (T_k + sigma ||y|| I) y ||^2 + (beta_k y_k)^2,
    m(0) - m(s)     = -(||g|| y_1 + 0.5 y^T T_k y + sigma/3 ||y||^3),

so no full-space gradient is formed and s is lifted once, on return.

Termination conditions, THRESHOLDS (r = ||grad m(s)||, gn = ||g|| = ||grad f(x)||):

    condition_3_1: r <= kappa_theta * min(gn, gn^3, ||s||^2)
    condition_4_1: r <= kappa_theta * min(1, ||s||) * min(||s||, gn)

Two departures from the paper's exact-arithmetic conditions let every
Lanczos step reach the threshold it tests:

- The threshold is floored at THRESHOLD_FLOOR * ||g|| (16 u ||g||, u the
  machine epsilon), the level of rounding in r. Relative to ||g||,
  condition 3.1 asks for kappa_theta * gn^2, which falls under 1e-15 once
  gn < ~1e-7; no double-precision iterate can certify that.
- The secular solve stops at SECULAR_TOL * ||g||, which lies above the
  threshold once gn < ~4.5e-5. When a step misses its threshold while the
  Lanczos part |beta_k y_k| of r is already within half of it, the miss is
  the secular solve's own stopping point, not the subspace: the same
  tridiagonal is solved once more with tol = threshold / 4 before the space
  grows. Without it such a subproblem grows the space to k = d and still
  ends unmet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

SECULAR_TOL = 1e-10  # secular stationarity residual target, relative to ||g||
SECULAR_MAX_ITER = 300  # Newton/bisection steps before the best iterate is returned
THRESHOLD_FLOOR = 16.0 * np.finfo(float).eps  # termination threshold floor, relative to ||g||

# threshold(kappa_theta, gn, ||s||) of each termination condition
THRESHOLDS = {
    "condition_3_1": lambda kt, gn, sn: kt * min(gn, gn**3, sn**2),
    "condition_4_1": lambda kt, gn, sn: kt * min(1.0, sn) * min(sn, gn),
}


@dataclass
class SubproblemResult:
    s: np.ndarray
    model_decrease: float  # m(0) - m(s) = -(g.s + 0.5 s.Hs + sigma/3 ||s||^3)
    grad_norm: float  # ||grad m(s)||, from the Lanczos recurrence
    k: int  # Krylov dimension reached
    status: str  # converged | breakdown

    # derived names that perfbench/tracing.py reads
    @property
    def hvp_count(self) -> int:
        return self.k  # one Hessian-vector product per Krylov step

    @property
    def condition_met(self) -> bool:
        return self.status == "converged"


def _tridiag_eig_min(diag, off):
    if diag.shape[0] == 1:
        return float(diag[0]), np.ones(1)
    w, v = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    return float(w[0]), v[:, 0]


def _pd_solver(diag, off, lam):
    """A solver of (T + lam I) x = b from the L D L^T factor of LAPACK dpttrf,
    or None when the factorization finds T + lam I not positive definite."""
    d = diag + lam
    if d.shape[0] == 1:  # the dpttrf wrapper rejects an empty off-diagonal
        return (lambda b: b / d[0]) if d[0] > 0.0 else None
    d, e, info = scipy.linalg.lapack.dpttrf(d, off, overwrite_d=True)
    if info != 0:
        return None
    return lambda b: scipy.linalg.lapack.dpttrs(d, e, b)[0]


class SecularSolveError(RuntimeError):
    """The secular equation could not be bracketed or solved."""


def solve_tridiagonal_cubic(
    diag: np.ndarray,
    off: np.ndarray,
    gnorm: float,
    sigma: float,
    tol: float | None = None,
    lam0: float | None = None,
) -> np.ndarray:
    """Global minimizer of gnorm*e1.y + 0.5 y.T y + (sigma/3)||y||^3.

    Returns subspace coordinates y. The stationarity residual
    |sigma||y|| - lambda| * ||y|| is driven below `tol` (default
    SECULAR_TOL*gnorm), or as close as the bracket allows. The Newton
    iteration starts at the multiplier `lam0` when it lies strictly inside
    the root's bracket (minimize_model passes its previous solve's
    sigma ||y||), at the middle of the bracket otherwise.

    Every Newton step on lambda right of the barrier takes one O(k) LAPACK
    dpttrf factorization of the positive definite T + lambda I and two solves
    with it; a factorization that rounding fails moves the bracket right.
    When T itself factors, T is positive definite and the barrier is 0.
    Otherwise the minimal eigenpair of T is computed, deflated from every
    shifted solve and handled analytically, so roots arbitrarily close to the
    barrier stay resolvable. The hard case (e1 orthogonal to the minimal
    eigenspace, only possible for reducible T) is resolved by the boundary
    root: the deflated solve of a probe just right of the barrier, plus the
    null-space step that puts sigma ||y|| on it. That branch does not honour
    `tol`: a smaller `tol` cannot tighten its residual.

    Raises SecularSolveError when the root cannot be bracketed or no Newton
    iterate is finite.
    """
    diag = np.asarray(diag, dtype=float).ravel()
    off = np.asarray(off, dtype=float).ravel()
    k = diag.shape[0]
    if off.shape[0] != max(k - 1, 0):
        raise ValueError("off-diagonal length must be k-1")
    if not sigma > 0.0:
        raise ValueError("sigma must be > 0")
    if not gnorm >= 0.0:
        raise ValueError("gnorm must be >= 0")
    if tol is None:
        tol = SECULAR_TOL * gnorm
    elif not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and > 0")
    if not (np.isfinite(diag).all() and np.isfinite(off).all() and gnorm < np.inf):
        raise ValueError("array must not contain infs or NaNs")

    rhs = np.zeros(k)
    rhs[0] = -gnorm

    definite = _pd_solver(diag, off, 0.0) is not None
    if definite:
        barrier = 0.0
    else:
        lam_min, v_min = _tridiag_eig_min(diag, off)
        barrier = max(0.0, -lam_min)
        # work in delta = lam - barrier: near-barrier roots are representable in
        # delta to full relative precision, never in lam itself
        base = lam_min + barrier  # exactly 0 whenever the barrier is active

    def shifted(delta):
        # y at lam = barrier + delta and the solver of (T + lam I) z = b it came
        # from; T + lam I is positive definite for delta > 0, so only rounding
        # can fail its factorization
        factored = _pd_solver(diag, off, barrier + delta)
        if factored is None:
            raise scipy.linalg.LinAlgError("shifted tridiagonal not positive definite")
        if definite:
            return factored(rhs), factored

        def solve(b):
            # (T + lam I)^{-1} b with the v_min component treated analytically;
            # the plain solve loses all accuracy in that direction near the barrier
            c = float(v_min @ b)
            z = factored(b - c * v_min)
            z -= float(v_min @ z) * v_min
            return z + (c / (base + delta)) * v_min
        return solve(rhs), solve

    if gnorm == 0.0:
        return (barrier / sigma) * v_min if barrier > 0.0 else np.zeros(k)

    tnorm = float(np.abs(diag).max())
    if k > 1:
        tnorm += 2.0 * float(np.abs(off).max())
    # provable root bound: (lambda - ||T||)^2 <= sigma*gnorm at the root
    lam_hi = tnorm + np.sqrt(sigma * gnorm)

    # probe just right of the barrier to detect the hard case, at 1e-13 of the
    # scale ||T|| at which the barrier and the factorization are rounded: a
    # shift closer to the barrier may not factor
    d_probe = max(tnorm, 1.0) * 1e-13
    if barrier > 0.0:
        try:
            y_p, solve_p = shifted(d_probe)
            hard = sigma * np.linalg.norm(y_p) <= barrier + d_probe
        except scipy.linalg.LinAlgError:
            hard = False
    else:
        hard = False

    if hard:
        # boundary root lambda = barrier: the probe's solve without its v_min
        # part, moved from the probe's shift to the barrier to first order
        # (dz/d lambda = -(T + lambda I)^{-1} z), plus the v_min component that
        # puts sigma*||y|| on the barrier
        y0 = y_p - float(v_min @ y_p) * v_min
        y0 += d_probe * solve_p(y0)
        gap = (barrier / sigma) ** 2 - float(y0 @ y0)
        return y0 + (np.sqrt(gap) if gap > 0.0 else 0.0) * v_min

    d_lo, d_hi = 0.0, max(lam_hi - barrier, np.sqrt(sigma * gnorm))
    # phi(d_hi) must be positive; expand defensively against rounding in lam_hi
    for _ in range(60):
        if sigma * np.linalg.norm(shifted(d_hi)[0]) <= barrier + d_hi:
            break
        d_hi *= 2.0
    else:
        raise SecularSolveError("secular root bracketing failed; degenerate tridiagonal")

    delta = 0.5 * d_hi
    if lam0 is not None and d_lo < lam0 - barrier < d_hi:
        delta = lam0 - barrier
    best_y, best_res = None, np.inf
    for _ in range(SECULAR_MAX_ITER):
        try:
            y, solve = shifted(delta)
        except scipy.linalg.LinAlgError:
            d_lo = delta
            delta = 0.5 * (d_lo + d_hi)
            continue
        lam = barrier + delta
        w = float(np.linalg.norm(y))
        res = abs(sigma * w - lam) * w
        if res <= tol:
            return y
        if np.isfinite(res) and res < best_res:
            best_y, best_res = y, res
        phi = 1.0 / w - sigma / lam
        if phi < 0.0:
            d_lo = delta
        else:
            d_hi = delta
        # Newton step on phi; phi'(lam) = (y.z)/w^3 + sigma/lam^2
        z = solve(y)
        dphi = float(y @ z) / w**3 + sigma / lam**2
        d_new = delta - phi / dphi if dphi > 0.0 else 0.5 * (d_lo + d_hi)
        if not d_lo < d_new < d_hi:
            d_new = 0.5 * (d_lo + d_hi)
        if d_new == d_lo or d_new == d_hi:
            break  # bracket exhausted at machine precision
        delta = d_new
    if best_y is None:
        raise SecularSolveError("secular equation solver did not converge")
    return best_y


def minimize_model(
    g: np.ndarray,
    H,
    sigma: float,
    condition: str,
    kappa_theta: float,
) -> SubproblemResult:
    """Lanczos/Krylov minimization of g.s + 0.5 s.Hs + (sigma/3)||s||^3 until
    the termination rule `condition` (a key of THRESHOLDS) holds.

    H is anything with .matvec. Grows the subspace one Lanczos vector at a
    time (full re-orthogonalization, one Hessian-vector product per step),
    solves each subspace problem exactly through the tridiagonal secular
    equation, and checks the termination residual from the Lanczos
    recurrence; the iterate is lifted to full space once, on return. The
    basis is stored in a buffer of min(d, 16) rows that doubles when k
    outgrows it. Breakdown (an invariant subspace, which k = d always is)
    returns the subspace solution, globally optimal over the reachable
    space, flagged 'breakdown' when it misses the condition.
    """
    g = np.asarray(g, dtype=float).ravel()
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")
    if not sigma > 0.0:
        raise ValueError("sigma must be > 0")
    if condition not in THRESHOLDS:
        raise ValueError(f"unknown termination condition {condition!r}")
    if not 0.0 < kappa_theta < 0.5:
        raise ValueError("kappa_theta must lie in (0, 1/2)")
    threshold = THRESHOLDS[condition]
    gn = float(np.linalg.norm(g))
    d = g.shape[0]
    if gn == 0.0:
        return SubproblemResult(np.zeros(d), 0.0, 0.0, 0, "converged")

    Q = np.empty((min(d, 16), d))
    alphas = np.empty(d)
    betas = np.empty(d)
    q = g / gn
    lam = None  # sigma ||y|| of the last secular solve, its next start

    for k in range(1, d + 1):
        if k > Q.shape[0]:
            grown = np.empty((min(d, 2 * Q.shape[0]), d))
            grown[: k - 1] = Q
            Q = grown
        Q[k - 1] = q
        w = H.matvec(q)
        if k > 1:
            w = w - betas[k - 2] * Q[k - 2]
        alpha = float(q @ w)
        w = w - alpha * q
        # one full re-orthogonalization pass keeps Q^T Q = I to ~1e-14
        w = w - Q[:k].T @ (Q[:k] @ w)
        alphas[k - 1] = alpha
        beta = float(np.linalg.norm(w))

        a, b = alphas[:k], betas[: k - 1]

        def evaluate(tol=None):
            nonlocal lam
            y = solve_tridiagonal_cubic(a, b, gn, sigma, tol, lam)
            sn = float(np.linalg.norm(y))
            lam = sigma * sn
            Ty = a * y
            Ty[:-1] += b * y[1:]
            Ty[1:] += b * y[:-1]
            # Q_k^T grad m(s) and the component along q_{k+1}, which is beta y_k
            grad_y = Ty + sigma * sn * y
            grad_y[0] += gn
            res = float(np.hypot(np.linalg.norm(grad_y), beta * y[-1]))
            decrease = -(gn * float(y[0]) + 0.5 * float(y @ Ty) + sigma / 3.0 * sn**3)
            thr = max(threshold(kappa_theta, gn, sn), THRESHOLD_FLOOR * gn)
            return y, res, decrease, thr

        y, res, decrease, thr = evaluate()
        if res > thr and abs(beta * y[-1]) <= thr / 2.0:
            y, res, decrease, thr = evaluate(thr / 4.0)

        if res <= thr:
            status = "converged"
        elif k == d or beta <= 1e-12 * max(np.abs(a).max(), np.abs(b).max(initial=0.0)):
            status = "breakdown"
        else:
            betas[k - 1] = beta
            q = w / beta
            continue
        return SubproblemResult(Q[:k].T @ y, decrease, res, k, status)
