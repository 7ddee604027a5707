"""Reach a chosen phase of the accelerated driver by stepping it by hand."""

from __future__ import annotations

import numpy as np

from sarc.saarc_driver import STEPS, phase1_step, phase2_step
from sarc.sarc_driver import run, sarc_init


def run_phase_one(model, config, x0):
    """Step phase one from x0 until it ends, the run ends or the iteration
    cap is reached; the returned state is in phase "two" when phase one
    accepted a step."""
    state = sarc_init(model, config, x0, phase="one")
    while state.phase == "one" and not state.terminal and state.iteration < config.max_iters:
        phase1_step(state, model, config)
    return state


def probe_cubic_growth(seq, rng, probes=20):
    """Assert psi(z') - psi(z) >= (varsigma/12)||z' - z||^3, up to rounding,
    at `probes` Gaussian points z' around z = argmin psi."""
    z = seq.argmin()
    psi_z = seq.psi_value(z)
    std = 1.0 + float(np.linalg.norm(z - seq.xbar1))
    for zp in z + rng.standard_normal((probes, z.shape[0])) * std:
        lhs = seq.psi_value(zp) - psi_z
        rhs = seq.varsigma / 12.0 * float(np.linalg.norm(zp - z)) ** 3
        assert lhs >= rhs - 1e-9 * (1.0 + abs(psi_z) + abs(lhs)), (
            "cubic-growth inequality violated at a probe point")


def saarc_run_probing_growth(model, config, x0, seed):
    """saarc_run whose phase-two steps run `probe_cubic_growth` after each
    success; returns the final state and the number of probed successes."""
    rng = np.random.default_rng(seed)
    probed = 0

    def probed_phase2_step(state, model, config):
        nonlocal probed
        phase2_step(state, model, config)
        if state.trace[-1].success:
            probe_cubic_growth(state.seq, rng)
            probed += 1
        return state

    state = sarc_init(model, config, x0, phase="one")
    run(state, model, config, {**STEPS, "two": probed_phase2_step})
    return state, probed
