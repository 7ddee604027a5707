import numpy as np
import pytest
import scipy.optimize

from sarc.bench import exit_code
from sarc.data import synth_logistic
from sarc import saarc_driver
from sarc.problems import Dataset, LossModel
from sarc.saarc_driver import (
    EstimatingSequence,
    _audit_sequence,
    grow_varsigma,
    phase1_step,
    phase2_step,
    relative_progress_trigger,
    STEPS,
    saarc_run,
    sacr_run,
)
from sarc.sarc_driver import SolverConfig, run

from phases import run_phase_one, saarc_run_probing_growth


def _quadratic_model(n=30, d=5, seed=0, lam=1e-3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    b = rng.standard_normal(n)
    return LossModel("ridge_least_squares", lam, Dataset.from_dense(A, b))


def _logistic_model(n=300, d=8, seed=1):
    ds = synth_logistic(n, d, seed, 1.0)
    return LossModel("reg_logistic", 1e-5, ds, reg_scale=0.5)


class TestEstimatingSequence:
    def test_argmin_anchor(self):
        seq = EstimatingSequence(np.zeros(2), 8.0, 0.0, np.array([3.0, 4.0]))
        z = seq.argmin()
        # offset sqrt(2/(8*5)) = 0.223607 along -lin_grad
        assert np.allclose(z, -0.22360679774997896 * np.array([3.0, 4.0]), atol=1e-12)

    def test_argmin_stationarity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            seq = EstimatingSequence(rng.standard_normal(d), float(10 ** rng.uniform(-1, 2)),
                                     float(rng.standard_normal()), rng.standard_normal(d))
            z = seq.argmin()
            gn = np.linalg.norm(seq.lin_grad)
            assert np.linalg.norm(seq.psi_grad(z)) <= 1e-10 * max(gn, 1e-300)

    def test_argmin_homogeneity(self):
        # scaling the linear term by 4 scales the offset by 2
        base = EstimatingSequence(np.zeros(3), 2.0, 0.0, np.array([1.0, 2.0, -1.0]))
        scaled = EstimatingSequence(np.zeros(3), 2.0, 0.0, 4.0 * np.array([1.0, 2.0, -1.0]))
        assert np.allclose(scaled.argmin(), 2.0 * base.argmin(), atol=1e-12)

    def test_argmin_zero_gradient(self):
        anchor = np.array([1.0, -2.0])
        seq = EstimatingSequence(anchor, 1.0, 5.0, np.zeros(2))
        assert np.array_equal(seq.argmin(), anchor)

    def test_add_point_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        d = 4
        xbar1 = rng.standard_normal(d)
        f1 = 2.0
        seq = EstimatingSequence(xbar1.copy(), 1.5, f1, np.zeros(d))
        points = []
        for l_new in range(2, 7):
            x = rng.standard_normal(d)
            fx = float(rng.uniform(0.5, 2.0))
            gx = rng.standard_normal(d)
            coeff = l_new * (l_new + 1) / 2.0
            points.append((x, fx, gx, coeff))
            seq.add_point(x, fx, gx, coeff)
        z = rng.standard_normal(d)
        direct = f1 + seq.varsigma / 6.0 * np.linalg.norm(z - xbar1) ** 3
        direct += sum(c * (fx + (z - x) @ gx) for x, fx, gx, c in points)
        assert seq.psi_value(z) == pytest.approx(direct, rel=1e-12)

    def test_coefficient_mass_identity(self):
        # 1 + sum_{k=2..l} k(k+1)/2 = l(l+1)(l+2)/6, the threshold weight
        for l in range(1, 30):
            total = 1.0 + sum(k * (k + 1) / 2.0 for k in range(2, l + 1))
            assert total == pytest.approx(l * (l + 1) * (l + 2) / 6.0)

    def test_argmin_matches_numeric_minimizer(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = 3
            seq = EstimatingSequence(rng.standard_normal(d), 2.0,
                                     1.0, rng.standard_normal(d))
            z = seq.argmin()
            res = scipy.optimize.minimize(seq.psi_value, z + 0.5, jac=seq.psi_grad,
                                          method="BFGS", options={"gtol": 1e-12})
            assert seq.psi_value(z) <= res.fun + 1e-9


class TestVarsigmaGrowth:
    def test_two_growths_on_toy(self):
        seq = EstimatingSequence(np.zeros(1), 1.0, 1.0, np.array([1.0]))
        z, growths = grow_varsigma(seq, 0.5, 2.0)
        assert growths == 2
        assert seq.varsigma == pytest.approx(4.0)
        assert z[0] == pytest.approx(-np.sqrt(0.5), abs=1e-12)
        assert seq.psi_value(z) >= 0.5

    def test_no_growth_when_already_above(self):
        seq = EstimatingSequence(np.zeros(1), 1.0, 1.0, np.array([1.0]))
        z, growths = grow_varsigma(seq, 0.0, 2.0)
        assert growths == 0
        assert seq.varsigma == 1.0

    def test_cap_raises(self):
        # threshold above the supremum of psi* over varsigma: psi* -> lin_const
        seq = EstimatingSequence(np.zeros(1), 1.0, 1.0, np.array([1.0]))
        with pytest.raises(RuntimeError):
            grow_varsigma(seq, 2.0, 2.0, cap=50)


    def test_overflow_stops_like_the_cap(self):
        # psi(argmin) = -2 sqrt(2 / (varsigma sqrt 3)) < 1 for every finite
        # varsigma; after 1,024 doublings varsigma is inf and psi(argmin) nan
        seq = EstimatingSequence(np.zeros(3), 1.0, 0.0, np.ones(3))
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError):
            grow_varsigma(seq, 1.0, 2.0)


class TestProgressTrigger:
    def test_threshold_is_inclusive(self):
        assert relative_progress_trigger(1.0, 0.9)
        assert not relative_progress_trigger(1.0, 0.89)
        assert relative_progress_trigger(-1.0, -0.95)
        assert relative_progress_trigger(200.0, 199.0)

    def test_zero_reference(self):
        assert relative_progress_trigger(0.0, 0.05)
        assert not relative_progress_trigger(0.0, 0.2)


class TestPhaseOne:
    def test_quadratic_switches_immediately(self):
        model = _quadratic_model()
        cfg = SolverConfig(exact_hessian=True, max_iters=50)
        state = run_phase_one(model, cfg, np.zeros(5))
        assert [r.iteration for r in state.trace if r.phase == "one" and r.success] == [1]
        assert state.phase == "two"
        assert state.l == 1
        assert np.array_equal(state.y, state.x)  # y1 is the anchor exactly
        assert state.seq is not None
        assert state.seq.lin_const == pytest.approx(state.f)
        assert np.all(state.seq.lin_grad == 0.0)
        assert state.seq.varsigma == cfg.sigma0

    def test_stationary_start(self):
        model = LossModel("pca_quadratic", 1.0,
                          Dataset.from_dense(np.zeros((1, 2)), np.zeros(1)))
        state = run_phase_one(model, SolverConfig(exact_hessian=True), np.zeros(2))
        assert state.terminal and state.status == "stationary"

    def test_rejection_keeps_state(self):
        # overshooting first model: m(s) < f(x+s), so no switch and sigma grows
        model = LossModel("reg_logistic", 0.0, Dataset.from_dense([[4.0]], [1.0]))
        cfg = SolverConfig(sigma_min=0.05, sigma0=0.05, eta=0.5, gamma1=2.0,
                           kappa_theta=0.03, exact_hessian=True, max_iters=1)
        state = saarc_run(model, cfg, np.array([-1.0]))
        row = state.trace[-1]
        assert row.success is False and row.phase == "one"
        assert state.phase == "one"
        assert not any(r.success for r in state.trace)
        assert state.sigma == pytest.approx(0.1)
        assert state.status == "phase1_exhausted"

    def test_non_finite_trial_point_is_rejected(self, poison_next_step):
        model = _logistic_model()
        cfg = SolverConfig(gamma1=2.0, max_iters=50)
        poison_next_step(np.nan)
        state = run_phase_one(model, cfg, np.ones(8))
        first = state.trace[1]
        assert first.success is False and first.phase == "one"
        assert first.sigma == 2.0 * cfg.sigma0
        assert first.epochs == state.trace[0].epochs
        assert state.phase == "two"  # a later finite step passes the test

    def test_phase1_step_requires_phase_one(self):
        model = _quadratic_model()
        cfg = SolverConfig(exact_hessian=True, max_iters=50)
        state = run_phase_one(model, cfg, np.zeros(5))
        assert state.phase == "two"
        with pytest.raises(RuntimeError):
            phase1_step(state, model, cfg)

    def test_phase2_step_requires_phase_two(self):
        model = _quadratic_model()
        cfg = SolverConfig(exact_hessian=True, max_iters=0)
        state = run_phase_one(model, cfg, np.zeros(5))
        assert state.phase == "one"
        with pytest.raises(RuntimeError):
            phase2_step(state, model, cfg)


class TestPhaseTwo:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_trial_point_is_rejected(self, poison_next_step, value):
        model = _logistic_model()
        cfg = SolverConfig(gamma1=2.0, max_iters=50)
        state = run_phase_one(model, cfg, np.ones(8))
        assert state.phase == "two"
        x, y, sigma, epochs, l = state.x.copy(), state.y.copy(), state.sigma, state.ledger.epochs, state.l

        poison_next_step(value)
        phase2_step(state, model, cfg)
        assert state.trace[-1].success is False
        assert state.sigma == 2.0 * sigma
        assert state.ledger.epochs == epochs  # no gradient charged at the trial point
        assert np.array_equal(state.x, x) and np.array_equal(state.y, y)
        assert state.l == l and state.status == "running"


class TestSaarcRun:
    def test_converges_on_logistic(self):
        model = _logistic_model()
        cfg = SolverConfig(grad_tol=1e-7, max_iters=500, seed=2)
        rng = np.random.default_rng(3)
        state = saarc_run(model, cfg, rng.standard_normal(8) * 0.5)
        assert state.status in ("converged", "max_iters")
        rows = [r for r in state.trace if r.phase == "two" and r.success]
        # l counts successful accelerated steps, starting at 1 after phase one
        assert state.l == len(rows) + 1
        f_prev = state.trace[0].f
        for row in state.trace[1:]:
            if row.success:
                assert row.f <= f_prev + 1e-12
                f_prev = row.f

    def test_phase_two_rows_carry_sequence_columns(self):
        model = _quadratic_model(seed=5)
        cfg = SolverConfig(exact_hessian=True, grad_tol=1e-9, max_iters=100)
        state = saarc_run(model, cfg, np.full(5, 2.0))
        two_rows = [r for r in state.trace if r.phase == "two"]
        assert two_rows, "no accelerated iterations recorded"
        for r in two_rows:
            assert r.l is not None and r.varsigma is not None and r.t3 is not None
        ls = [r.l for r in two_rows if r.success]
        assert ls == sorted(ls)

    def test_audits_pass_with_probes_enabled(self):
        model = _quadratic_model(seed=6)
        cfg = SolverConfig(exact_hessian=True, grad_tol=1e-8, max_iters=200, seed=4)
        state, probed = saarc_run_probing_growth(model, cfg, np.full(5, 1.5), seed=4)
        assert state.status in ("converged", "max_iters")
        assert probed == sum(r.phase == "two" and bool(r.success) for r in state.trace) > 0

    def test_audit_catches_corrupted_minimizer(self):
        model = _quadratic_model(seed=7)
        cfg = SolverConfig(exact_hessian=True, max_iters=30)
        state = run_phase_one(model, cfg, np.full(5, 2.0))
        assert state.phase == "two"
        phase2_step(state, model, cfg)
        z = state.seq.argmin()
        with pytest.raises(AssertionError):
            _audit_sequence(state.seq, z + 1.0, state.seq.psi_value(z) + 1e3)

    def test_audit_fails_on_nan(self):
        model = _quadratic_model(seed=7)
        cfg = SolverConfig(exact_hessian=True, max_iters=30)
        state = run_phase_one(model, cfg, np.full(5, 2.0))
        state.seq.varsigma = np.inf  # psi and its gradient at xbar1 are nan
        with np.errstate(invalid="ignore"), pytest.raises(AssertionError, match="lower bound"):
            _audit_sequence(state.seq, state.seq.xbar1.copy(), 0.0)

    def test_failed_growth_ends_the_run_with_a_named_status(self):
        # a sequence no finite varsigma can lift to its threshold, as outside
        # the convex theory: the run ends with a status, not an exception
        model = _quadratic_model(seed=7)
        cfg = SolverConfig(exact_hessian=True, max_iters=30)
        state = run_phase_one(model, cfg, np.full(5, 2.0))
        state.seq.lin_const = -1e300
        with np.errstate(invalid="ignore"):
            run(state, model, cfg, STEPS)
        assert state.status == "sequence_growth_failed"
        assert exit_code(state.status) == 1
        assert state.trace[-1].success is False and state.trace[-1].phase == "two"

    def test_failed_audit_ends_the_run_with_a_named_status(self, monkeypatch):
        # z off the minimizer of psi: the audit's residual check fails inside
        # the run loop, which ends the run with a status, not an exception
        real = saarc_driver.grow_varsigma

        def off_minimizer(seq, threshold, gamma3):
            z, growths = real(seq, threshold, gamma3)
            return z + 1.0, growths

        monkeypatch.setattr(saarc_driver, "grow_varsigma", off_minimizer)
        model = _quadratic_model(seed=7)
        cfg = SolverConfig(exact_hessian=True, max_iters=30)
        state = saarc_run(model, cfg, np.full(5, 2.0))
        assert state.status == "sequence_audit_failed"
        assert exit_code(state.status) == 1
        last, before = state.trace[-1], state.trace[-2]
        assert last.success is False and last.phase == "two"
        assert last.f == before.f and last.iteration == before.iteration + 1

    def test_gradient_epochs_charged_even_on_rejection(self):
        # every phase-two trial evaluates a gradient at y+s before the rho test
        model = _logistic_model(n=100, d=4, seed=8)
        cfg = SolverConfig(grad_tol=1e-14, max_iters=40, seed=5)
        state = saarc_run(model, cfg, np.full(4, 0.5))
        rows = state.trace
        for prev, row in zip(rows, rows[1:]):
            if row.phase == "two" and row.success is False:
                de = row.epochs - prev.epochs
                assert de >= 1.0 - 1e-12  # the rho gradient is never free


class TestSacr:
    def test_switch_and_splice(self):
        model = _logistic_model()
        cfg = SolverConfig(grad_tol=1e-9, max_iters=300, seed=3)
        rng = np.random.default_rng(0)
        res = sacr_run(model, cfg, rng.standard_normal(8) * 3.0)
        assert res.status == "converged"
        assert res.grad_norm <= 1e-9
        phases = [r.phase for r in res.trace]
        # one block, optional two block, then sarc, never interleaved
        order = {"one": 0, "two": 1, "sarc": 2}
        ranks = [order[p] for p in phases]
        assert ranks == sorted(ranks)
        assert "sarc" in phases
        iters = [r.iteration for r in res.trace]
        assert iters == list(range(len(res.trace)))
        assert res.switch_iteration is not None
        assert res.trace[res.switch_iteration].phase in ("one", "two")
        assert res.trace[res.switch_iteration + 1].phase == "sarc"
        assert res.phase == "sarc"
        # monotone f on accepted rows across the splice
        f_prev = res.trace[0].f
        for row in res.trace[1:]:
            if row.success:
                assert row.f <= f_prev + 1e-12
                f_prev = row.f

    def test_switch_on_the_last_allowed_iteration(self):
        model = _logistic_model()
        cfg = SolverConfig(grad_tol=1e-9, max_iters=300, seed=3)
        x0 = np.random.default_rng(0).standard_normal(8) * 3.0
        k = sacr_run(model, cfg, x0).switch_iteration
        assert k is not None and k > 0
        res = sacr_run(model, SolverConfig(grad_tol=1e-9, max_iters=k, seed=3), x0)
        assert res.status == "max_iters"
        assert res.phase == "sarc"
        assert res.switch_iteration == k
        assert len(res.trace) == k + 1
        assert res.trace[-1].phase in ("one", "two") and res.trace[-1].success

    def test_no_switch_when_converged_first(self):
        model = _quadratic_model(seed=9)
        cfg = SolverConfig(exact_hessian=True, grad_tol=0.5, max_iters=50)
        res = sacr_run(model, cfg, np.full(5, 3.0))
        assert res.switch_iteration is None
        assert res.phase != "sarc"
        assert res.status == "converged"

    def test_switch_during_phase_one(self):
        # start next to the optimum: the first accepted step cannot improve f
        # by 10%, so the trigger fires before the accelerated phase begins
        from sarc.sarc_driver import sarc_run

        model = _logistic_model(n=200, d=6, seed=10)
        cfg = SolverConfig(grad_tol=1e-9, max_iters=200, seed=6)
        opt = sarc_run(model, cfg, np.zeros(6))
        assert opt.status == "converged"
        rng = np.random.default_rng(11)
        x0 = opt.x + 1e-3 * rng.standard_normal(6)
        res = sacr_run(model, cfg, x0)
        assert res.switch_iteration is not None
        phases = {r.phase for r in res.trace}
        assert "two" not in phases
        assert "sarc" in phases
