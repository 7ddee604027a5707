"""Reach a chosen phase of the accelerated driver by stepping it by hand."""

from __future__ import annotations

from sarc.saarc_driver import phase1_step
from sarc.sarc_driver import sarc_init


def run_phase_one(model, config, x0):
    """Step phase one from x0 until it ends, the run ends or the iteration
    cap is reached; the returned state is in phase "two" when phase one
    accepted a step."""
    state = sarc_init(model, config, x0, phase="one")
    while state.phase == "one" and not state.terminal and state.iteration < config.max_iters:
        phase1_step(state, model, config)
    return state
