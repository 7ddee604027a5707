"""Reference methods for the benchmark: exact-Hessian cubic regularization
(plain and accelerated), Nesterov's accelerated gradient, constant-step SGD,
and a plain L-BFGS with Armijo backtracking.

All baselines charge the shared ledger with what they actually query: one
full gradient per iteration for AGD/L-BFGS, the batch size for SGD. Function
values are free, and the full gradient norms written to the trace of SGD/AGD
are diagnostics, not charged queries. Each run aborts when f exceeds a
thousandfold of |f(x0)| (divergence guard).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .accounting import EpochLedger
from .problems import LossModel, batch_gradient, full_gradient, full_value, lipschitz_bounds
from .saarc_driver import saarc_run
from .sarc_driver import SolverConfig, SolverState, TraceRecord, sarc_run


def cr_run(model: LossModel, config: SolverConfig, x0, ledger=None) -> SolverState:
    """Cubic regularization with the exact Hessian: sample size n, zero shift."""
    return sarc_run(model, replace(config, exact_hessian=True), x0, ledger=ledger)


def acr_run(model: LossModel, config: SolverConfig, x0, ledger=None) -> SolverState:
    """Accelerated cubic regularization with the exact Hessian."""
    return saarc_run(model, replace(config, exact_hessian=True), x0, ledger=ledger)


@dataclass
class BaselineResult:
    x: np.ndarray
    f: float
    grad_norm: float
    status: str
    trace: list[TraceRecord]
    ledger: EpochLedger


def _divergence_bound(f0: float) -> float:
    return 1e3 * abs(f0) if f0 != 0.0 else 1e3


def _base_record(trace, ledger, t0, iteration, f, grad_norm):
    trace.append(
        TraceRecord(
            iteration=iteration, f=f, grad_norm=grad_norm,
            sigma=None, eps_i=None, sample_size=None, success=None,
            epochs=ledger.epochs, wall_time=time.perf_counter() - t0,
        )
    )


def agd_run(
    model: LossModel,
    config: SolverConfig,
    x0,
    ledger: EpochLedger | None = None,
    L: float | None = None,
) -> BaselineResult:
    """Nesterov's method with monotone backtracking on the step constant.

    L starts from the mean analytic component bound (an upper bound on the
    full-gradient Lipschitz constant) and only ever grows, so the classical
    O(L/k^2) guarantee applies with the final constant.
    """
    x = np.asarray(x0, dtype=float).ravel()
    ledger = ledger if ledger is not None else EpochLedger(model.n)
    if L is None:
        L = lipschitz_bounds(model).Lbar
    t0 = time.perf_counter()
    f = full_value(model, x)
    bound = _divergence_bound(f)
    gn = float(np.linalg.norm(full_gradient(model, x)))  # diagnostic
    trace: list[TraceRecord] = []
    _base_record(trace, ledger, t0, 0, f, gn)
    if gn <= config.grad_tol:
        return BaselineResult(x, f, gn, "converged", trace, ledger)

    y = x.copy()
    tk = 1.0
    status = "max_iters"
    for it in range(1, config.max_iters + 1):
        grad_y = full_gradient(model, y)
        ledger.add_gradient_pass()
        f_y = full_value(model, y)
        gg = float(grad_y @ grad_y)
        for _ in range(200):
            x_new = y - grad_y / L
            f_new = full_value(model, x_new)
            # descent-lemma test with a relative slack against roundoff
            if f_new <= f_y - 0.5 * gg / L + 1e-12 * abs(f_y):
                break
            L *= 2.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        y = x_new + ((tk - 1.0) / t_next) * (x_new - x)
        x, tk = x_new, t_next
        f = f_new
        gn = float(np.linalg.norm(full_gradient(model, x)))  # diagnostic
        _base_record(trace, ledger, t0, it, f, gn)
        if gn <= config.grad_tol:
            status = "converged"
            break
        if f > bound:
            status = "diverged"
            break
    return BaselineResult(x, f, gn, status, trace, ledger)


def sgd_run(
    model: LossModel,
    config: SolverConfig,
    x0,
    ledger: EpochLedger | None = None,
    batch: int = 32,
    step: float | None = None,
) -> BaselineResult:
    """Constant-step SGD: step 1/L by default, uniform with-replacement batches.

    batch >= n means a full deterministic gradient pass per iteration (plain
    gradient descent), still charged n queries."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    x = np.asarray(x0, dtype=float).ravel()
    n = model.n
    ledger = ledger if ledger is not None else EpochLedger(n)
    if step is None:
        step = 1.0 / lipschitz_bounds(model).Lbar
    rng = np.random.default_rng(np.random.Philox(key=config.seed))
    t0 = time.perf_counter()
    f = full_value(model, x)
    bound = _divergence_bound(f)
    gn = float(np.linalg.norm(full_gradient(model, x)))  # diagnostic
    trace: list[TraceRecord] = []
    _base_record(trace, ledger, t0, 0, f, gn)
    if gn <= config.grad_tol:
        return BaselineResult(x, f, gn, "converged", trace, ledger)

    status = "max_iters"
    for it in range(1, config.max_iters + 1):
        if batch >= n:
            g_est = full_gradient(model, x)
            ledger.add_gradient_pass()
        else:
            idx = rng.integers(0, n, size=batch)
            g_est = batch_gradient(model, x, idx)
            ledger.add_gradient_pass(batch)
        x = x - step * g_est
        f = full_value(model, x)
        gn = float(np.linalg.norm(full_gradient(model, x)))  # diagnostic
        _base_record(trace, ledger, t0, it, f, gn)
        if gn <= config.grad_tol:
            status = "converged"
            break
        if f > bound:
            status = "diverged"
            break
    return BaselineResult(x, f, gn, status, trace, ledger)


def lbfgs_run(
    model: LossModel,
    config: SolverConfig,
    x0,
    ledger: EpochLedger | None = None,
    memory: int = 10,
) -> BaselineResult:
    """Two-loop-recursion L-BFGS with Armijo halving; a plain reference
    implementation, not a tuned production solver."""
    x = np.asarray(x0, dtype=float).ravel()
    ledger = ledger if ledger is not None else EpochLedger(model.n)
    t0 = time.perf_counter()
    f = full_value(model, x)
    bound = _divergence_bound(f)
    grad = full_gradient(model, x)
    ledger.add_gradient_pass()
    gn = float(np.linalg.norm(grad))
    trace: list[TraceRecord] = []
    _base_record(trace, ledger, t0, 0, f, gn)
    if gn <= config.grad_tol:
        return BaselineResult(x, f, gn, "converged", trace, ledger)

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    status = "max_iters"
    for it in range(1, config.max_iters + 1):
        q = grad.copy()
        alphas = []
        for s_v, y_v, r in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = r * (s_v @ q)
            alphas.append(a)
            q -= a * y_v
        if y_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s_v, y_v, r), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            q += (a - r * (y_v @ q)) * s_v
        p = -q
        slope = float(grad @ p)
        if slope >= 0.0:
            p = -grad
            slope = -gn * gn

        t_step = 1.0
        accepted = False
        for _ in range(50):
            x_new = x + t_step * p
            f_new = full_value(model, x_new)
            if f_new <= f + 1e-4 * t_step * slope:
                accepted = True
                break
            t_step *= 0.5
        if not accepted:
            status = "linesearch_failed"
            break

        grad_new = full_gradient(model, x_new)
        ledger.add_gradient_pass()
        s_v = x_new - x
        y_v = grad_new - grad
        sy = float(s_v @ y_v)
        if sy > 1e-10 * np.linalg.norm(s_v) * np.linalg.norm(y_v):
            s_hist.append(s_v)
            y_hist.append(y_v)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, f, grad = x_new, f_new, grad_new
        gn = float(np.linalg.norm(grad))
        _base_record(trace, ledger, t0, it, f, gn)
        if gn <= config.grad_tol:
            status = "converged"
            break
        if f > bound:
            status = "diverged"
            break
    return BaselineResult(x, f, gn, status, trace, ledger)
