import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from sarc import cubic, sarc_driver
from sarc.accounting import EpochLedger
from sarc.data import synth_logistic
from sarc.problems import Dataset, LossModel
from sarc.saarc_driver import saarc_run
from sarc.sarc_driver import SolverConfig, sarc_init, sarc_run, sarc_step


def _half_norm_squared_model(d=1):
    # pca family with all-zero rows and mu=1 collapses to f(x) = 0.5 ||x||^2
    return LossModel("pca_quadratic", 1.0,
                     Dataset.from_dense(np.zeros((1, d)), np.zeros(1)))


class TestSingleStep:
    def test_golden_ratio_step(self):
        # f(x) = x^2/2 from x=1 with sigma=1: the cubic model minimizer is the
        # golden-ratio root of 1 - t - t^2 and the step must be accepted
        model = _half_norm_squared_model()
        cfg = SolverConfig(sigma0=1.0, sigma_min=0.1, eta=0.1,
                           exact_hessian=True, max_iters=1)
        state = sarc_init(model, cfg, np.array([1.0]))
        assert state.f == pytest.approx(0.5)
        assert state.grad_norm == pytest.approx(1.0)
        assert state.eps_i == pytest.approx(0.95 / 3.0)

        sarc_step(state, model, cfg)
        row = state.trace[-1]
        s = (1.0 - np.sqrt(5.0)) / 2.0
        assert row.success is True
        assert state.x[0] == pytest.approx(1.0 + s, abs=1e-10)
        assert state.f == pytest.approx(0.5 * (1.0 + s) ** 2, abs=1e-10)
        assert state.f == pytest.approx(0.07294901687515773, abs=1e-9)
        # theta = (0.5 - 0.072949) / (0.5 - 0.151638) = 1.225875 > eta
        predicted = 0.5 - 0.1516383427084209
        theta = (0.5 - state.f) / predicted
        assert theta == pytest.approx(1.225875, abs=1e-5)
        assert state.sigma == pytest.approx(0.5)  # max(0.1, 1/2)
        assert state.eps_i == pytest.approx(min(0.95 / 3.0, 0.95 * state.grad_norm / 3.0))
        assert state.needs_rebuild

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_trial_point_is_rejected(self, poison_next_step, value):
        model = LossModel("reg_logistic", 1e-3, synth_logistic(200, 4, 0, 1.0), reg_scale=0.5)
        cfg = SolverConfig(gamma1=2.0, max_iters=5)
        state = sarc_init(model, cfg, np.ones(4))
        x0, f0, epochs0, H0 = state.x.copy(), state.f, state.ledger.epochs, state.H

        poison_next_step(value)
        sarc_step(state, model, cfg)
        assert state.trace[-1].success is False
        assert state.sigma == 2.0 * cfg.sigma0
        assert np.array_equal(state.x, x0) and state.f == f0
        assert state.ledger.epochs == epochs0 and state.H is H0
        assert state.psd_violations == 0

        sarc_step(state, model, cfg)  # the next, finite step proceeds as usual
        assert state.trace[-1].success is True

    def test_unmet_subproblem_is_counted_and_its_step_taken(self, monkeypatch):
        model = _half_norm_squared_model()
        cfg = SolverConfig(exact_hessian=True, max_iters=2)
        state = sarc_init(model, cfg, np.array([1.0]))
        real = sarc_driver.minimize_model
        monkeypatch.setattr(sarc_driver, "minimize_model", lambda *a, **kw: dataclasses.replace(
            real(*a, **kw), status="breakdown"))
        sarc_step(state, model, cfg)
        assert state.unmet_subproblems == 1
        assert state.trace[-1].success is True
        monkeypatch.setattr(sarc_driver, "minimize_model", real)
        sarc_step(state, model, cfg)
        assert state.unmet_subproblems == 1

    def test_rejected_step_changes_nothing_but_sigma(self):
        # steep single-row logistic with a tiny sigma overshoots and is rejected
        model = LossModel("reg_logistic", 0.0, Dataset.from_dense([[4.0]], [1.0]))
        cfg = SolverConfig(sigma_min=0.05, sigma0=0.05, eta=0.5, gamma1=2.0,
                           kappa_theta=0.03, exact_hessian=True, max_iters=3)
        state = sarc_init(model, cfg, np.array([-1.0]))
        x0, f0, g0 = state.x.copy(), state.f, state.grad.copy()
        epochs0 = state.ledger.epochs
        H0 = state.H

        sarc_step(state, model, cfg)
        row = state.trace[-1]
        assert row.success is False
        assert np.array_equal(state.x, x0)
        assert state.f == f0
        assert np.array_equal(state.grad, g0)
        assert state.sigma == pytest.approx(0.1)  # gamma1 * sigma0
        assert state.H is H0  # operator reused, nothing rebuilt
        assert state.ledger.epochs == epochs0  # failures charge nothing
        assert not state.needs_rebuild

    def test_step_on_terminal_state_raises(self):
        model = _half_norm_squared_model()
        cfg = SolverConfig(exact_hessian=True)
        state = sarc_init(model, cfg, np.zeros(1))
        assert state.terminal
        with pytest.raises(RuntimeError):
            sarc_step(state, model, cfg)


class TestInitialization:
    def test_eps0_cap_and_formula(self):
        # f = (x-b)^2 single-row ridge: gradient 2x, so x0 sets ||g|| directly
        model = LossModel("ridge_least_squares", 0.0,
                          Dataset.from_dense([[1.0]], [0.0]))
        cfg = SolverConfig(kappa_theta=0.25, sigma_min=0.4, exact_hessian=True)
        state = sarc_init(model, cfg, np.array([6.0]))  # ||g|| = 12
        assert state.eps_i == pytest.approx(1.0)  # 0.75*12/3 = 3 capped at 1
        state = sarc_init(model, cfg, np.array([0.2]))  # ||g|| = 0.4
        assert state.eps_i == pytest.approx(0.1)  # 0.75*0.4/3

    def test_stationary_start(self):
        model = _half_norm_squared_model(3)
        cfg = SolverConfig(exact_hessian=True)
        state = sarc_init(model, cfg, np.zeros(3))
        assert state.terminal
        assert state.status == "stationary"
        assert len(state.trace) == 1
        assert state.trace[0].success is None
        assert state.ledger.epochs == pytest.approx(1.0)  # the gradient pass only

    def test_converged_start(self):
        model = _half_norm_squared_model(2)
        cfg = SolverConfig(exact_hessian=True, grad_tol=1e-2)
        state = sarc_init(model, cfg, np.full(2, 1e-3))
        assert state.terminal and state.status == "converged"

    def test_dimension_mismatch(self):
        model = _half_norm_squared_model(3)
        with pytest.raises(ValueError):
            sarc_init(model, SolverConfig(), np.zeros(4))

    def test_init_row_accounting(self):
        ds = synth_logistic(50, 4, 0, 1.0)
        model = LossModel("reg_logistic", 1e-5, ds, reg_scale=0.5)
        state = sarc_init(model, SolverConfig(), np.ones(4))
        row = state.trace[0]
        assert row.iteration == 0
        assert row.epochs == pytest.approx(1.0 + row.sample_size / 50.0)


class TestConfigValidation:
    def test_kappa_theta_cap_tracks_sigma_min(self):
        SolverConfig(kappa_theta=0.25, sigma_min=0.4)  # cap 0.2667, fine
        with pytest.raises(ValueError):
            SolverConfig(kappa_theta=0.25, sigma_min=0.3)  # cap 0.2
        with pytest.raises(ValueError):
            SolverConfig(kappa_theta=0.5)
        with pytest.raises(ValueError):
            SolverConfig(kappa_theta=0.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma1=1.0)
        with pytest.raises(ValueError):
            SolverConfig(gamma3=1.0)
        with pytest.raises(ValueError):
            SolverConfig(eta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(sigma0=0.05, sigma_min=0.1)
        with pytest.raises(ValueError):
            SolverConfig(eps=1.0)
        with pytest.raises(ValueError):
            SolverConfig(delta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(scheme="stratified")
        with pytest.raises(ValueError):
            SolverConfig(max_iters=-1)
        for bad in (0, -5):
            with pytest.raises(ValueError, match="fixed_sample_size"):
                SolverConfig(fixed_sample_size=bad)
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=-1)

    @pytest.mark.parametrize("name", ["gamma1", "gamma3", "sigma0", "grad_tol"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: float("nan")})

    def test_seed_bound_is_the_philox_key_width(self):
        with pytest.raises(ValueError, match=r"seed must be < 2\*\*128"):
            SolverConfig(seed=2**128)
        # the largest seed keys the sample stream
        model = _half_norm_squared_model(2)
        state = sarc_run(model, SolverConfig(seed=2**128 - 1, max_iters=3), np.ones(2))
        assert state.status in ("converged", "max_iters")


def _run_sparse_logistic(d, nnz_per_row, n=2000):
    rng = np.random.default_rng(np.random.Philox(key=1))
    density = nnz_per_row / d
    A = sp.random(n, d, density=density, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal) * 0.3
    w = rng.standard_normal(d) / np.sqrt(d * density) / 0.3
    b = np.where(A @ w >= 0.0, 1.0, -1.0)
    b[rng.random(n) < 0.1] *= -1.0
    model = LossModel("reg_logistic", 1e-3, Dataset(A, b), reg_scale=0.5)
    cfg = SolverConfig(grad_tol=1e-8, scheme="nonuniform", seed=1)
    return sarc_run(model, cfg, np.zeros(d))


def _run_logistic(scheme="uniform", n=200, d=10, seed=0, **kw):
    ds = synth_logistic(n, d, seed, 1.0)
    model = LossModel("reg_logistic", 1e-5, ds, reg_scale=0.5)
    cfg = SolverConfig(grad_tol=1e-8, max_iters=300, scheme=scheme, seed=seed, **kw)
    rng = np.random.default_rng(seed + 100)
    return sarc_run(model, cfg, rng.standard_normal(d) * 2.0), cfg


class TestFullRuns:
    def test_converges_and_traces_are_disciplined(self):
        state, cfg = _run_logistic()
        assert state.status == "converged"
        assert state.grad_norm <= 1e-8
        rows = state.trace
        assert rows[0].success is None
        f_prev, eps_prev, sig_prev = rows[0].f, rows[0].eps_i, rows[0].sigma
        for row in rows[1:]:
            if row.success:
                assert row.f < f_prev
                assert row.eps_i <= eps_prev + 1e-15
                assert row.sigma == pytest.approx(max(cfg.sigma_min, sig_prev / cfg.gamma1))
            else:
                assert row.f == f_prev
                assert row.eps_i == eps_prev
                assert row.sigma == pytest.approx(cfg.gamma1 * sig_prev)
            assert row.sigma >= cfg.sigma_min - 1e-15
            f_prev, eps_prev, sig_prev = row.f, row.eps_i, row.sigma

    def test_ledger_replays_from_trace(self):
        # epochs increase by exactly 1 per accepted step plus |S|/n per rebuild,
        # and a rebuild happens iff the previous row was an accepted step
        state, _ = _run_logistic(n=150, d=6, seed=3)
        n = 150
        rows = state.trace
        prev_success = False  # the init row built its own operator already
        expected = rows[0].epochs
        for row in rows[1:]:
            expected += (row.sample_size / n if prev_success else 0.0)
            expected += 1.0 if row.success else 0.0
            assert row.epochs == pytest.approx(expected, abs=1e-12)
            prev_success = bool(row.success)
        assert state.ledger.epochs == pytest.approx(expected, abs=1e-12)

    def test_exact_quadratic_every_step_accepted(self):
        # with an exact Hessian on a quadratic, the model underestimates f
        # everywhere, so theta > 1 and no step is ever rejected
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 5))
        b = rng.standard_normal(30)
        model = LossModel("ridge_least_squares", 1e-3, Dataset.from_dense(A, b))
        cfg = SolverConfig(exact_hessian=True, grad_tol=1e-10, max_iters=100)
        state = sarc_run(model, cfg, np.zeros(5))
        assert state.status == "converged"
        assert all(row.success for row in state.trace[1:])

    def test_nonuniform_scheme_runs(self):
        state, _ = _run_logistic(scheme="nonuniform", n=300, d=6, seed=5)
        assert state.status == "converged"
        assert all(r.sample_size >= 1 for r in state.trace)

    def test_max_iters_status(self):
        ds = synth_logistic(100, 5, 7, 1.0)
        model = LossModel("reg_logistic", 1e-5, ds, reg_scale=0.5)
        cfg = SolverConfig(grad_tol=1e-14, max_iters=2)
        state = sarc_run(model, cfg, np.ones(5))
        assert state.status == "max_iters"
        assert not state.terminal
        assert state.iteration == 2

    def test_sparse_logistic_meets_every_subproblem_condition(self):
        # its last subproblems ask for residuals below the secular solve's
        # default stopping point; they once grew the Krylov space to k = d
        state = _run_sparse_logistic(d=100, nnz_per_row=5)
        assert state.status == "converged"
        assert state.unmet_subproblems == 0

    def test_high_dimensional_sparse_logistic_converges(self):
        # d >> k, as in LIBSVM text data: a d x d Lanczos basis would take
        # 11.9 GiB here, the one that grows with k a few rows
        state = _run_sparse_logistic(d=40000, nnz_per_row=20)
        assert state.status == "converged"
        assert state.unmet_subproblems == 0

    @pytest.mark.parametrize("solver", [sarc_run, saarc_run])
    def test_subproblem_counts_repeat_status_and_depth(self, monkeypatch, solver):
        # condition_met and hvp_count are derived names perfbench reads; it also
        # times the secular solves at the public cubic.solve_tridiagonal_cubic
        subs, solves = [], []
        real = sarc_driver.minimize_model
        real_solve = cubic.solve_tridiagonal_cubic

        def recording(*args):
            subs.append(real(*args))
            return subs[-1]

        monkeypatch.setattr(sarc_driver, "minimize_model", recording)
        monkeypatch.setattr(cubic, "solve_tridiagonal_cubic",
                            lambda *a: solves.append(a) or real_solve(*a))
        model = LossModel("reg_logistic", 1e-5, synth_logistic(300, 8, 1, 1.0), reg_scale=0.5)
        solver(model, SolverConfig(grad_tol=1e-8, seed=2), np.full(8, 0.5))
        assert subs
        for sub in subs:
            assert sub.condition_met == (sub.status == "converged")
            assert sub.hvp_count == sub.k
        assert len(solves) >= sum(sub.k for sub in subs) > 0  # one per Krylov step at least

    def test_fixed_sample_size(self):
        state, _ = _run_logistic(n=250, d=5, seed=8, fixed_sample_size=40)
        assert state.status == "converged"
        assert all(r.sample_size == 40 for r in state.trace)
