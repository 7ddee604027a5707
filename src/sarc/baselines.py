"""Reference methods for the benchmark: exact-Hessian cubic regularization
(plain and accelerated), Nesterov's accelerated gradient, constant-step SGD,
and a plain L-BFGS with Armijo backtracking.

All baselines charge the run's ledger with what they actually query: one
full gradient per iteration for AGD/L-BFGS, the batch size for SGD. Function
values are free, and the full gradient norms written to the trace of SGD/AGD
are diagnostics, not charged queries. Each first-order method is written as
a generator that yields every iterate with the component gradient queries it
took; `_baseline` steps it through the cubic drivers' `SolverState` and `run`,
so the start rule, the trace, the iteration cap and the divergence rule are
theirs.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import replace

import numpy as np

from .accounting import EpochLedger
from .problems import LossModel, batch_gradient, full_gradient, full_value, lipschitz_bounds
from .saarc_driver import saarc_run
from .sarc_driver import SolverConfig, SolverState, _record, _start_status, run, sarc_run


def cr_run(model: LossModel, config: SolverConfig, x0) -> SolverState:
    """Cubic regularization with the exact Hessian: sample size n, zero shift."""
    return sarc_run(model, replace(config, exact_hessian=True), x0)


def acr_run(model: LossModel, config: SolverConfig, x0) -> SolverState:
    """Accelerated cubic regularization with the exact Hessian."""
    return saarc_run(model, replace(config, exact_hessian=True), x0)


def _baseline(method):
    """Turn `method(model, config, x0, **options)`, a generator of iterates,
    into a run with the same signature and its own ledger.

    Each (x, f, grad_norm, queries) the generator yields, the start point
    first, is charged `queries` component gradients and then recorded; the
    shared run loop pulls one iterate per iteration, and the generator's
    return value, when it stops, is the run's status.
    """

    @functools.wraps(method)
    def run_method(model: LossModel, config: SolverConfig, x0, **options) -> SolverState:
        iterates = method(model, config, x0, **options)
        with np.errstate(over="ignore"):  # an overflowing start ends "diverged"
            x, f, gn, queries = next(iterates)
        state = SolverState(x=x, f=f, grad_norm=gn, trace=[], ledger=EpochLedger(model.n),
                            phase="", status=_start_status(f, gn, config))
        state.ledger.add_gradient_pass(queries)
        _record(state, success=None)

        def advance(state: SolverState, model: LossModel, config: SolverConfig):
            try:
                state.x, state.f, state.grad_norm, queries = next(iterates)
            except StopIteration as stop:
                state.status = stop.value
                return state
            state.ledger.add_gradient_pass(queries)
            if state.grad_norm <= config.grad_tol:
                state.status = "converged"
            _record(state, success=None)
            return state

        return run(state, model, config, {"": advance})

    return run_method


def _diagnostic_norm(model: LossModel, x: np.ndarray) -> float:
    return float(np.linalg.norm(full_gradient(model, x)))  # not charged


@_baseline
def agd_run(model, config, x0, L: float | None = None):
    """Nesterov's method with monotone backtracking on the step constant.

    L starts from the mean analytic component bound (an upper bound on the
    full-gradient Lipschitz constant) and only ever grows, so the classical
    O(L/k^2) guarantee applies with the final constant.
    """
    x = np.asarray(x0, dtype=float).ravel()
    yield x, full_value(model, x), _diagnostic_norm(model, x), 0
    if L is None:  # past a stationary start, which may have no curvature to bound
        L = lipschitz_bounds(model).Lbar
    y = x.copy()
    tk = 1.0
    while True:
        grad_y = full_gradient(model, y)
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
        yield x, f_new, _diagnostic_norm(model, x), model.n


@_baseline
def sgd_run(model, config, x0, batch: int = 32, step: float | None = None):
    """Constant-step SGD: step 1/L by default, uniform with-replacement batches.

    batch >= n means a full deterministic gradient pass per iteration (plain
    gradient descent), still charged n queries."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    x = np.asarray(x0, dtype=float).ravel()
    n = model.n
    rng = np.random.default_rng(np.random.Philox(key=config.seed))
    yield x, full_value(model, x), _diagnostic_norm(model, x), 0
    if step is None:  # past a stationary start, as in agd_run
        step = 1.0 / lipschitz_bounds(model).Lbar
    while True:
        if batch >= n:
            g_est = full_gradient(model, x)
        else:
            idx = rng.integers(0, n, size=batch)
            g_est = batch_gradient(model, x, idx)
        x = x - step * g_est
        yield x, full_value(model, x), _diagnostic_norm(model, x), min(batch, n)


LBFGS_MEMORY = 10  # curvature pairs kept


@_baseline
def lbfgs_run(model, config, x0):
    """Two-loop-recursion L-BFGS with Armijo halving; a plain reference
    implementation, not a tuned production solver."""
    x = np.asarray(x0, dtype=float).ravel()
    f = full_value(model, x)
    grad = full_gradient(model, x)
    gn = float(np.linalg.norm(grad))
    yield x, f, gn, model.n

    pairs: deque = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1/(s.y)), oldest first
    while True:
        q = grad.copy()
        alphas = []
        for s_v, y_v, r in reversed(pairs):
            a = r * (s_v @ q)
            alphas.append(a)
            q -= a * y_v
        if pairs:
            s_v, y_v, _ = pairs[-1]
            q *= (s_v @ y_v) / (y_v @ y_v)
        for (s_v, y_v, r), a in zip(pairs, reversed(alphas)):
            q += (a - r * (y_v @ q)) * s_v
        p = -q
        slope = float(grad @ p)
        if slope >= 0.0:
            p = -grad
            slope = -gn * gn

        t_step = 1.0
        for _ in range(50):
            x_new = x + t_step * p
            f_new = full_value(model, x_new)
            if f_new <= f + 1e-4 * t_step * slope:
                break
            t_step *= 0.5
        else:
            return "linesearch_failed"

        grad_new = full_gradient(model, x_new)
        s_v = x_new - x
        y_v = grad_new - grad
        sy = float(s_v @ y_v)
        if sy > 1e-10 * np.linalg.norm(s_v) * np.linalg.norm(y_v):
            pairs.append((s_v, y_v, 1.0 / sy))
        x, f, grad = x_new, f_new, grad_new
        gn = float(np.linalg.norm(grad))
        yield x, f, gn, model.n
