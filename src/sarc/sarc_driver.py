"""Adaptive cubic regularization with sub-sampled Hessians.

Each iteration minimizes the cubic model at the current iterate over a Krylov
subspace, accepts the step when the achieved-to-predicted decrease ratio
theta = (f(x) - f(x+s)) / (f(x) - m(s)) clears eta, and adapts both the cubic
weight sigma and the Hessian accuracy eps_i:

    success:  x <- x + s,  eps <- min(eps, (1-kappa_theta)||grad f(x)||/3),
              sigma <- max(sigma_min, sigma/gamma1), Hessian rebuilt at x
    failure:  sigma <- gamma1*sigma, iterate and Hessian kept

A trial point with a non-finite entry is a failure, and f is not evaluated
there.

The Hessian rebuild is lazy: a fresh operator is sampled at the top of the
next step only if x moved, which charges nothing extra on the terminal
success. Epochs are charged through the run's own ledger: one full gradient per
accepted step, the sample size once per build, function values free.

The run state, the Hessian build, the subproblem call, the trace record and
the run loop defined here are shared with the accelerated and hybrid
drivers: one loop steps the state with the step of its phase and owns the
iteration cap, the terminal statuses and the divergence rule.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .accounting import EpochLedger
from .cubic import SecularSolveError, SubproblemResult, minimize_model
from .problems import LipschitzInfo, LossModel, full_gradient, full_value, lipschitz_bounds
from .sampling import SampleStream, SubsampledHessian, resolve_plan

if TYPE_CHECKING:
    from .saarc_driver import EstimatingSequence


def check_integer(name: str, value) -> None:
    """Reject a setting that is not an integer (numpy integers pass, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass
class SolverConfig:
    gamma1: float = 2.0
    gamma3: float = 2.0
    eta: float = 0.1
    sigma_min: float = 0.1
    sigma0: float = 1.0
    kappa_theta: float = 0.05
    eps: float = 1e-2  # target optimality driving the per-iteration failure budget
    delta: float = 0.1
    scheme: str = "uniform"
    max_iters: int = 500
    grad_tol: float = 1e-9
    exact_hessian: bool = False
    fixed_sample_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.gamma1 > 1.0:
            raise ValueError("gamma1 must be > 1")
        if not self.gamma3 > 1.0:
            raise ValueError("gamma3 must be > 1")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not 0.0 < self.sigma_min < 1.0:
            raise ValueError("sigma_min must lie in (0, 1)")
        if not self.sigma0 >= self.sigma_min:
            raise ValueError("sigma0 must be >= sigma_min")
        kappa_cap = min(0.5, 2.0 * self.sigma_min / 3.0)
        if not 0.0 < self.kappa_theta < kappa_cap:
            raise ValueError(f"kappa_theta must lie in (0, {kappa_cap})")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.scheme not in ("uniform", "nonuniform"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        check_integer("max_iters", self.max_iters)
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not self.grad_tol >= 0.0:
            raise ValueError("grad_tol must be >= 0")
        if self.fixed_sample_size is not None:
            check_integer("fixed_sample_size", self.fixed_sample_size)
            if self.fixed_sample_size < 1:
                raise ValueError("fixed_sample_size must be >= 1")
        check_integer("seed", self.seed)
        if not 0 <= self.seed < 2**128:  # the width of a Philox key
            side = ">= 0" if self.seed < 0 else "< 2**128"
            raise ValueError(f"seed must be {side}, got {self.seed}")


@dataclass
class TraceRecord:
    iteration: int
    epochs: float
    f: float
    grad_norm: float
    sigma: float | None = None
    eps_i: float | None = None
    sample_size: int | None = None
    success: bool | None = None
    phase: str = ""
    wall_time: float = 0.0
    l: int | None = None
    varsigma: float | None = None
    t3: int | None = None


@dataclass
class SolverState:
    """The run state of every cubic driver.

    `phase` is "sarc" for the non-accelerated driver, "one" and "two" for the
    phases of the accelerated one; the hybrid flips "one"/"two" to "sarc" at
    its switch when `hybrid` is set. `x`, `f`, `grad`, `grad_norm` always
    describe the iterate (the anchor xbar_l in phase two); `y`, `grad_y`,
    `seq`, `l` and `T3` (the count of varsigma growths) belong to the
    accelerated phases.
    """

    x: np.ndarray
    f: float
    grad: np.ndarray
    grad_norm: float
    sigma: float
    eps_i: float
    H: SubsampledHessian | None
    trace: list[TraceRecord]
    ledger: EpochLedger
    stream: SampleStream
    lip: LipschitzInfo
    phase: str = "sarc"
    iteration: int = 0
    needs_rebuild: bool = False
    terminal: bool = False
    status: str = "running"
    psd_violations: int = 0
    unmet_subproblems: int = 0  # subproblems that ended without meeting their condition
    y: np.ndarray | None = None
    grad_y: np.ndarray | None = None
    seq: EstimatingSequence | None = None
    l: int = 0
    T3: int = 0
    hybrid: bool = False  # switch to "sarc" once a success makes little progress
    switch_iteration: int | None = None  # hybrid only: iteration of the switch to "sarc"
    t0: float = field(default_factory=time.perf_counter)


def _build(state: SolverState, model: LossModel, config: SolverConfig, point: np.ndarray):
    """Sample a fresh Hessian operator at `point` and charge its build."""
    # union bound over the O(eps^{-1/2}) (sarc) or O(eps^{-1/3}) (accelerated)
    # iteration budget
    if state.phase == "sarc":
        per_iter_delta = config.delta * config.eps**0.5
    else:
        per_iter_delta = config.delta * config.eps ** (1.0 / 3.0)
    plan = resolve_plan(
        model,
        point,
        state.eps_i,
        per_iter_delta,
        state.lip,
        scheme=config.scheme,
        fixed_size=model.dataset.n if config.exact_hessian else config.fixed_sample_size,
    )
    shift = 0.0 if config.exact_hessian else state.eps_i / 2.0
    state.H = SubsampledHessian(model, point, plan, state.stream, shift=shift)
    state.ledger.add_hessian_build(plan.size)
    state.needs_rebuild = False


def _subproblem(state: SolverState, config: SolverConfig, g: np.ndarray) -> SubproblemResult:
    """Minimize the cubic model with gradient g, the current operator and
    sigma, to condition 3.1 in phase "sarc" and to 4.1 in the accelerated
    phases. A subproblem that misses its condition is counted in
    `state.unmet_subproblems`; its step is still returned.

    Every driver's subproblem goes through this module's `minimize_model`,
    the name perfbench/tracing.py patches to count and time subproblems.
    """
    condition = "condition_3_1" if state.phase == "sarc" else "condition_4_1"
    sub = minimize_model(g, state.H, state.sigma, condition, config.kappa_theta)
    if not sub.condition_met:
        state.unmet_subproblems += 1
    return sub


def _record(state: SolverState, *, success: bool | None) -> TraceRecord:
    two = state.phase == "two"
    rec = TraceRecord(
        iteration=state.iteration,
        f=state.f,
        grad_norm=state.grad_norm,
        sigma=state.sigma,
        eps_i=state.eps_i,
        sample_size=state.H.plan.size if state.H is not None else None,
        success=success,
        epochs=state.ledger.epochs,
        wall_time=time.perf_counter() - state.t0,
        phase=state.phase,
        l=state.l if two else None,
        varsigma=state.seq.varsigma if two else None,
        t3=state.T3 if two else None,
    )
    state.trace.append(rec)
    return rec


def _reject(state: SolverState, config: SolverConfig) -> SolverState:
    """A failed step: the iterate is kept and sigma grows by gamma1."""
    state.sigma = config.gamma1 * state.sigma
    _record(state, success=False)
    return state


def _end(state: SolverState, status: str) -> None:
    state.terminal = True
    state.status = status


def _diverged(f: float, f0: float) -> bool:
    """The divergence rule of every run loop: |f| beyond a thousandfold of
    |f(x0)| (of 1 when f(x0) = 0), which also catches -inf and nan."""
    return not abs(f) <= 1e3 * (abs(f0) if f0 != 0.0 else 1.0)


def sarc_init(
    model: LossModel,
    config: SolverConfig,
    x0: np.ndarray,
    phase: str = "sarc",
) -> SolverState:
    """Evaluate the start point, set eps0, and build the first Hessian there;
    a start point where f or ||grad f|| overflows ends the run "diverged".

    `phase` is "sarc" for the adaptive driver and "one" for the accelerated
    ones; it selects the sampling failure budget and the trace's phase column.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape[0] != model.dataset.d:
        raise ValueError("x0 dimension mismatch")
    ledger = EpochLedger(model.n)

    with np.errstate(over="ignore"):
        grad = full_gradient(model, x0)
        gn = float(np.linalg.norm(grad))
        f0 = full_value(model, x0)
    ledger.add_gradient_pass()
    eps0 = min(1.0, (1.0 - config.kappa_theta) * gn / 3.0)

    state = SolverState(
        x=x0.copy(), f=f0, grad=grad, grad_norm=gn,
        sigma=config.sigma0, eps_i=eps0, H=None, trace=[], ledger=ledger,
        stream=SampleStream(config.seed), lip=lipschitz_bounds(model), phase=phase,
    )
    if not (np.isfinite(f0) and np.isfinite(gn)):
        _end(state, "diverged")
    elif gn <= config.grad_tol:
        _end(state, "stationary" if gn == 0.0 else "converged")
    else:
        _build(state, model, config, x0)
    _record(state, success=None)
    return state


def _finite(x: np.ndarray) -> bool:
    """Whether the loss can be evaluated at trial point x; every driver
    rejects a step to a non-finite point like one that failed its test."""
    return bool(np.all(np.isfinite(x)))


def sarc_step(state: SolverState, model: LossModel, config: SolverConfig) -> SolverState:
    """One accept/reject iteration; appends exactly one trace record."""
    if state.terminal:
        raise RuntimeError("step on a terminal state")
    if state.needs_rebuild:
        _build(state, model, config, state.x)

    sub = _subproblem(state, config, state.grad)
    x_trial = state.x + sub.s
    finite = _finite(x_trial)
    f_trial = full_value(model, x_trial) if finite else np.inf
    predicted = sub.model_decrease  # f(x) - m(s)

    if not finite:
        success = False
    elif abs(predicted) < 1e-14 * abs(state.f):
        success = f_trial <= state.f  # division guard at noise level
    elif predicted <= 0.0:
        state.psd_violations += 1
        success = False
    else:
        success = (state.f - f_trial) / predicted >= config.eta

    state.iteration += 1
    if not success:
        return _reject(state, config)
    state.x = x_trial
    state.f = f_trial
    state.grad = full_gradient(model, state.x)
    state.ledger.add_gradient_pass()
    state.grad_norm = float(np.linalg.norm(state.grad))
    state.eps_i = min(state.eps_i, (1.0 - config.kappa_theta) * state.grad_norm / 3.0)
    state.sigma = max(config.sigma_min, state.sigma / config.gamma1)
    state.needs_rebuild = True
    if state.grad_norm <= config.grad_tol:
        _end(state, "converged")
    _record(state, success=True)
    return state


STEPS = {"sarc": sarc_step}


def run(state: SolverState, model: LossModel, config: SolverConfig,
        steps: dict = STEPS) -> SolverState:
    """Step `state` with `steps[state.phase]` until a terminal status, the
    divergence rule or the iteration cap ("phase1_exhausted" if phase one
    never ended, else "max_iters"); the accelerated driver passes its own
    table of steps. A secular solve that fails ends the run as
    "subproblem_failed" with a failed row for the iteration it began."""
    f0 = state.trace[0].f
    while not state.terminal:
        if state.iteration >= config.max_iters:
            state.status = "phase1_exhausted" if state.phase == "one" else "max_iters"
            break
        try:
            steps[state.phase](state, model, config)
        except SecularSolveError:
            # every step calls _subproblem before it changes the iterate
            state.iteration += 1
            _end(state, "subproblem_failed")
            _record(state, success=False)
        if not state.terminal and _diverged(state.f, f0):
            _end(state, "diverged")
    return state


def sarc_run(
    model: LossModel,
    config: SolverConfig,
    x0: np.ndarray,
) -> SolverState:
    return run(sarc_init(model, config, x0), model, config)
