"""Accelerated two-phase cubic regularization and the hybrid scheme.

Phase I runs accept/reject steps from x0 with a single Hessian built at x0,
accepting the first step whose model value overestimates the trial value
(m - f(x+s) > 0). Phase II accelerates from that anchor via an estimating
sequence

    psi_l(z) = lin_const + z . lin_grad + (varsigma_l/6) ||z - xbar1||^3,

whose closed-form minimizer z_l drives the extrapolation point
y_l = l/(l+3) xbar_l + 3/(l+3) z_l. A trial step s at y_l is accepted when
rho = -s . grad f(y_l + s) / ||s||^3 >= eta. On success the sequence gains the
linear term of the new point with weight l(l+1)/2, and varsigma grows by
gamma3 factors until psi_l(z_l) >= (l(l+1)(l+2)/6) f(xbar_l); a growth that
hits its cap or overflows ends the run with status "sequence_growth_failed".

Successful iterations update the Hessian tolerance from the gradient at the
next extrapolation point, eps = min(1, (1-kappa_theta)||grad f(y_l)||/2),
which is the tolerance of the operator actually built at y_l; that gradient
doubles as the next subproblem's linear term, so it is charged once.

The hybrid runs this scheme until the relative progress of a successful step
drops to 0.1, then switches the same state to the non-accelerated step for
the local phase (phase "sarc": sigma carried over, eps re-initialized,
Hessian rebuilt at the anchor). Every phase is one step of the shared run
loop, chosen by `state.phase` from `STEPS`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import LossModel, full_gradient, full_value
from .sampling import resolve_plan  # noqa: F401  perfbench/tracing.py patches it here
from .sarc_driver import (
    SolverConfig,
    SolverState,
    _build,
    _end,
    _finite,
    _record,
    _reject,
    _subproblem,
    run,
    sarc_init,
    sarc_step,
)


@dataclass
class EstimatingSequence:
    xbar1: np.ndarray
    varsigma: float
    lin_const: float
    lin_grad: np.ndarray

    def psi_value(self, z: np.ndarray) -> float:
        r = np.linalg.norm(z - self.xbar1)
        return float(self.lin_const + z @ self.lin_grad + self.varsigma / 6.0 * r**3)

    def psi_grad(self, z: np.ndarray) -> np.ndarray:
        dz = z - self.xbar1
        return self.lin_grad + self.varsigma / 2.0 * np.linalg.norm(dz) * dz

    def argmin(self) -> np.ndarray:
        gn = float(np.linalg.norm(self.lin_grad))
        if gn == 0.0:
            return self.xbar1.copy()
        return self.xbar1 - np.sqrt(2.0 / (self.varsigma * gn)) * self.lin_grad

    def add_point(self, x: np.ndarray, f: float, grad: np.ndarray, coeff: float) -> None:
        # coeff * (f(x) + (z - x).grad) absorbed into the linear representation
        self.lin_const += coeff * (f - float(x @ grad))
        self.lin_grad = self.lin_grad + coeff * grad


class SequenceGrowthError(RuntimeError):
    """varsigma reached its growth cap or overflowed before psi(argmin)
    reached the threshold."""


def grow_varsigma(seq: EstimatingSequence, threshold: float, gamma3: float,
                  cap: int = 10000) -> tuple[np.ndarray, int]:
    """Multiply varsigma by gamma3 until psi(argmin) >= threshold.

    Returns the final minimizer and the number of multiplications (each one
    counts toward T3). The cap guards against objectives outside the convex
    theory, where the loop need not terminate; an overflow to inf stops it
    the same way, since psi(argmin) is nan (inf * 0) from there on.
    """
    z = seq.argmin()
    growths = 0
    while seq.psi_value(z) < threshold:
        seq.varsigma *= gamma3
        growths += 1
        if growths > cap or not np.isfinite(seq.varsigma):
            raise SequenceGrowthError("estimating-sequence weight growth did not terminate")
        z = seq.argmin()
    return z, growths


def relative_progress_trigger(f_old: float, f_new: float) -> bool:
    """True when a successful step improved f by at most 10% relative
    (absolute progress <= 0.1*(1+|f_old|) when f_old = 0)."""
    if f_old != 0.0:
        return abs(f_new - f_old) / abs(f_old) <= 0.1
    return abs(f_new - f_old) <= 0.1 * (1.0 + abs(f_old))


def _audit_sequence(seq: EstimatingSequence, z: np.ndarray, threshold: float):
    """Numeric guards on the estimating sequence at every successful step."""
    psi_z = seq.psi_value(z)
    if not psi_z >= threshold:  # nan fails too
        raise AssertionError(
            f"estimating-sequence lower bound violated: psi(z)={psi_z} < {threshold}"
        )
    scale = max(
        float(np.linalg.norm(seq.lin_grad)),
        seq.varsigma / 2.0 * float(np.linalg.norm(z - seq.xbar1)) ** 2,
        1e-300,
    )
    resid = float(np.linalg.norm(seq.psi_grad(z)))
    if not resid <= 1e-10 * scale:
        raise AssertionError(f"psi minimizer residual {resid} exceeds 1e-10 relative")


def _switch(state: SolverState, config: SolverConfig) -> None:
    """The hybrid's switch, after the success row that triggered it is
    recorded: phase "sarc" from here on, sigma carried over, eps
    re-initialized and the Hessian rebuilt at the anchor."""
    state.switch_iteration = state.iteration
    state.phase = "sarc"
    state.eps_i = min(1.0, (1.0 - config.kappa_theta) * state.grad_norm / 3.0)
    state.needs_rebuild = True


def phase1_step(state: SolverState, model: LossModel, config: SolverConfig) -> SolverState:
    """One phase-one iteration from x0 with the Hessian built there; the first
    step with m - f(x+s) > 0 is accepted and starts phase two."""
    if state.terminal or state.phase != "one":
        raise RuntimeError("phase1_step requires a live phase-one state")
    sub = _subproblem(state, config, state.grad)
    x_trial = state.x + sub.s
    accept = _finite(x_trial)
    if accept:
        f_trial = full_value(model, x_trial)
        accept = (state.f - sub.model_decrease) - f_trial > 0.0  # m(s) - f(x+s) > 0
    state.iteration += 1
    if not accept:
        return _reject(state, config)

    state.x = x_trial
    f_old = state.f
    state.f = f_trial
    state.grad = full_gradient(model, state.x)
    state.ledger.add_gradient_pass()
    state.grad_norm = float(np.linalg.norm(state.grad))
    _record(state, success=True)
    if state.grad_norm <= config.grad_tol:
        _end(state, "converged")
    elif state.hybrid and relative_progress_trigger(f_old, state.f):
        _switch(state, config)
    else:
        state.seq = EstimatingSequence(
            xbar1=state.x.copy(), varsigma=config.sigma0,
            lin_const=state.f, lin_grad=np.zeros(model.dataset.d),
        )
        # z1 = xbar1, so y1 = 1/4 xbar1 + 3/4 z1 is the anchor itself
        state.y = state.x.copy()
        state.grad_y = state.grad
        state.grad_y_norm = state.grad_norm
        state.eps_i = min(1.0, (1.0 - config.kappa_theta) * state.grad_norm / 3.0)
        _build(state, model, config, state.y)
        state.phase = "two"
        state.l = 1
    return state


def phase2_step(state: SolverState, model: LossModel, config: SolverConfig) -> SolverState:
    """One accelerated iteration at the extrapolation point y_l."""
    if state.terminal or state.phase != "two":
        raise RuntimeError("phase2_step requires a live phase-two state")
    sub = _subproblem(state, config, state.grad_y)
    s = sub.s
    sn = float(np.linalg.norm(s))
    state.iteration += 1

    x_trial = state.y + s
    if sn == 0.0 or not _finite(x_trial):
        return _reject(state, config)

    grad_trial = full_gradient(model, x_trial)
    state.ledger.add_gradient_pass()
    rho = -float(s @ grad_trial) / sn**3
    if rho < config.eta:
        return _reject(state, config)

    f_old = state.f
    f_new = full_value(model, x_trial)
    state.sigma = max(config.sigma_min, state.sigma / config.gamma1)
    l_new = state.l + 1
    seq = state.seq
    seq.add_point(x_trial, f_new, grad_trial, l_new * (l_new + 1) / 2.0)
    threshold = l_new * (l_new + 1) * (l_new + 2) / 6.0 * f_new
    try:
        z, growths = grow_varsigma(seq, threshold, config.gamma3)
    except SequenceGrowthError:
        _end(state, "sequence_growth_failed")
        _record(state, success=False)
        return state
    state.T3 += growths
    _audit_sequence(seq, z, threshold)

    state.x = x_trial
    state.f = f_new
    state.grad = grad_trial
    state.grad_norm = float(np.linalg.norm(grad_trial))
    state.l = l_new

    if state.grad_norm <= config.grad_tol:
        _end(state, "converged")
        _record(state, success=True)
        return state
    if state.hybrid and relative_progress_trigger(f_old, f_new):
        _record(state, success=True)
        _switch(state, config)
        return state

    state.y = (l_new / (l_new + 3.0)) * x_trial + (3.0 / (l_new + 3.0)) * z
    state.grad_y = full_gradient(model, state.y)
    state.ledger.add_gradient_pass()
    state.grad_y_norm = float(np.linalg.norm(state.grad_y))
    state.eps_i = min(1.0, (1.0 - config.kappa_theta) * state.grad_y_norm / 2.0)
    if state.grad_y_norm <= config.grad_tol:
        # extrapolation landed on a stationary point; adopt it if it is better
        f_y = full_value(model, state.y)
        if f_y <= state.f:
            state.x = state.y
            state.f = f_y
            state.grad = state.grad_y
            state.grad_norm = state.grad_y_norm
        _end(state, "converged")
    else:
        _build(state, model, config, state.y)
    _record(state, success=True)
    return state


STEPS = {"sarc": sarc_step, "one": phase1_step, "two": phase2_step}


def saarc_run(
    model: LossModel,
    config: SolverConfig,
    x0: np.ndarray,
) -> SolverState:
    state = sarc_init(model, config, x0, phase="one")
    return run(state, model, config, STEPS)


def sacr_run(
    model: LossModel,
    config: SolverConfig,
    x0: np.ndarray,
) -> SolverState:
    """Accelerated scheme until relative progress <= 0.1, then local phase.

    `switch_iteration` is the iteration of the switch, None when the run
    ended before it.
    """
    state = sarc_init(model, config, x0, phase="one")
    state.hybrid = True
    return run(state, model, config, STEPS)
