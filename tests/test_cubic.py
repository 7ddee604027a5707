from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sarc import cubic
from sarc.cubic import (
    THRESHOLD_FLOOR,
    THRESHOLDS,
    _tridiag_solve,
    minimize_model,
    solve_tridiagonal_cubic,
)

from oracles import MatvecOnly, cubic_global_min, fd_gradient, model_gradient, model_value
from test_golden import SPECS


def _tridiag_dense(diag, off):
    T = np.diag(np.asarray(diag, dtype=float))
    off = np.asarray(off, dtype=float)
    for i, b in enumerate(off):
        T[i, i + 1] = T[i + 1, i] = b
    return T


def _stationarity(diag, off, gnorm, sigma, y):
    T = _tridiag_dense(diag, off)
    g = np.zeros(len(diag))
    g[0] = gnorm
    return np.linalg.norm(T @ y + sigma * np.linalg.norm(y) * y + g)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _cubic_subproblems(draw):
    """Random tridiagonal cubics; half of them near the hard case, where e1's
    leading block is cut off from the rest (exactly, or up to a tiny coupling)
    and the rest is shifted down so that it holds the lowest eigenvalue."""
    k = draw(st.integers(1, 8))
    diag = np.array(draw(st.lists(_finite(-5.0, 5.0), min_size=k, max_size=k)))
    off = np.array(draw(st.lists(_finite(-3.0, 3.0), min_size=k - 1, max_size=k - 1)))
    if k > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, k - 1))
        off[cut - 1] = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]))
        diag[cut:] -= draw(_finite(0.0, 10.0))
    gnorm = 10.0 ** draw(_finite(-3.0, 2.0))
    sigma = 10.0 ** draw(_finite(-2.0, 1.0))
    return diag, off, gnorm, sigma


@st.composite
def _irreducible_subproblems(draw):
    """Random tridiagonal cubics with every coupling at least 0.1 in size: no
    hard case, so the secular iteration alone decides the returned y."""
    k = draw(st.integers(1, 8))
    diag = np.array(draw(st.lists(_finite(-5.0, 5.0), min_size=k, max_size=k)))
    off = np.array(draw(st.lists(st.one_of(_finite(-3.0, -0.1), _finite(0.1, 3.0)),
                                 min_size=k - 1, max_size=k - 1)))
    gnorm = 10.0 ** draw(_finite(-3.0, 2.0))
    sigma = 10.0 ** draw(_finite(-2.0, 1.0))
    return diag, off, gnorm, sigma


@st.composite
def _spd_subproblems(draw):
    """Random positive definite tridiagonal cubics, k <= 40, shifted so that
    lambda_min(T) lies between 1e-12 ||T|| and ||T||, with a tol between
    1e-13 and 1e-4 of the scale at which the residual is rounded."""
    k = draw(st.integers(1, 40))
    diag = np.array(draw(st.lists(_finite(-5.0, 5.0), min_size=k, max_size=k)))
    off = np.array(draw(st.lists(_finite(-3.0, 3.0), min_size=k - 1, max_size=k - 1)))
    w = np.linalg.eigvalsh(_tridiag_dense(diag, off))
    spread = w[-1] - w[0] if w[-1] > w[0] else 1.0
    diag += 10.0 ** draw(_finite(-12.0, 0.0)) * spread - w[0]
    gnorm = 10.0 ** draw(_finite(-3.0, 2.0))
    sigma = 10.0 ** draw(_finite(-2.0, 1.0))
    return diag, off, gnorm, sigma, draw(_finite(-13.0, -4.0))


def _spd_case(problem):
    """(diag, off, gnorm, sigma, tol, lambda_min(T), y) with y from the
    positive definite path, which must not compute an eigenpair."""
    diag, off, gnorm, sigma, exponent = problem
    T = _tridiag_dense(diag, off)
    with mock.patch.object(cubic, "_tridiag_eig_min", side_effect=AssertionError):
        w = np.linalg.norm(solve_tridiagonal_cubic(diag, off, gnorm, sigma))
        tol = 10.0**exponent * (gnorm + (np.linalg.norm(T, 2) + sigma * w) * w)
        y = solve_tridiagonal_cubic(diag, off, gnorm, sigma, tol=tol)
    return diag, off, gnorm, sigma, tol, np.linalg.eigvalsh(T)[0], y


def _agree(y, other, lam_min, sigma, tol):
    """Two minimizers agree to within tol: m is strongly convex with modulus
    lambda_min(T) + sigma ||v|| at v, so residuals of at most tol each put
    them within 2 tol / modulus of each other."""
    gap = np.linalg.norm(y - other)
    near = min(np.linalg.norm(y), np.linalg.norm(other))
    return gap <= near and gap * (lam_min + 0.5 * sigma * near) <= 2.0 * tol


class TestPositiveDefiniteSolve:
    @settings(max_examples=200)
    @given(_spd_subproblems())
    def test_global_min_and_tol_bound(self, problem):
        diag, off, gnorm, sigma, tol, _, y = _spd_case(problem)
        T = _tridiag_dense(diag, off)
        g = np.zeros(diag.shape[0])
        g[0] = gnorm
        val = lambda z: float(g @ z + 0.5 * z @ T @ z + sigma / 3.0 * np.linalg.norm(z) ** 3)
        y_star, _ = cubic_global_min(T, g, sigma)
        assert val(y) <= val(y_star) + 1e-8 * max(1.0, abs(val(y_star)))
        assert _stationarity(diag, off, gnorm, sigma, y) <= tol

    @settings(max_examples=200)
    @given(_spd_subproblems())
    def test_agrees_with_the_eigensolve_path(self, problem):
        diag, off, gnorm, sigma, tol, lam_min, y = _spd_case(problem)
        with mock.patch.object(cubic, "_pd_solver", return_value=None):
            y_eig = solve_tridiagonal_cubic(diag, off, gnorm, sigma, tol=tol)
        assert _stationarity(diag, off, gnorm, sigma, y_eig) <= tol
        assert _agree(y, y_eig, lam_min, sigma, tol)

    @settings(max_examples=200)
    @given(_spd_subproblems(), _finite(-3.0, 3.0))
    def test_warm_start_agrees_with_cold_start(self, problem, shift):
        diag, off, gnorm, sigma, tol, lam_min, y = _spd_case(problem)
        lam0 = sigma * np.linalg.norm(y) * 10.0**shift  # inside or outside the bracket
        y_warm = solve_tridiagonal_cubic(diag, off, gnorm, sigma, tol, lam0)
        assert _stationarity(diag, off, gnorm, sigma, y_warm) <= tol
        assert _agree(y, y_warm, lam_min, sigma, tol)

    @settings(max_examples=200)
    @given(_irreducible_subproblems(), _finite(-13.0, -4.0), _finite(-3.0, 3.0))
    def test_warm_start_on_indefinite_tridiagonals(self, problem, exponent, shift):
        # the barrier -lambda_min(T) can lie above the start, which is then ignored
        diag, off, gnorm, sigma = problem
        w = np.linalg.norm(solve_tridiagonal_cubic(diag, off, gnorm, sigma))
        scale = gnorm + (np.linalg.norm(_tridiag_dense(diag, off), 2) + sigma * w) * w
        tol = 10.0**exponent * scale
        y = solve_tridiagonal_cubic(diag, off, gnorm, sigma, tol, sigma * w * 10.0**shift)
        assert _stationarity(diag, off, gnorm, sigma, y) <= tol

    def test_eigensolve_runs_only_for_indefinite_models(self, monkeypatch):
        calls = []
        real = cubic._tridiag_eig_min
        monkeypatch.setattr(cubic, "_tridiag_eig_min",
                            lambda *a: calls.append(a) or real(*a))
        assert SPECS["bench_sarc"]().status == "converged"  # logistic: every T_k > 0
        assert calls == []
        SPECS["family_svm_sarc_uniform"]()  # the nonconvex SVM
        assert calls


class TestTridiagonalSolve:
    def test_scalar_positive(self):
        # 1 + s + s^2 sign structure: root (1 - sqrt(5)) / 2
        y = solve_tridiagonal_cubic(np.array([1.0]), np.array([]), 1.0, 1.0)
        assert y[0] == pytest.approx((1.0 - np.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_scalar_zero_curvature(self):
        y = solve_tridiagonal_cubic(np.array([0.0]), np.array([]), 1.0, 3.0)
        assert y[0] == pytest.approx(-1.0 / np.sqrt(3.0), abs=1e-12)

    def test_indefinite_2d(self):
        diag, off = np.array([1.0, -2.0]), np.array([0.0])
        y = solve_tridiagonal_cubic(diag, off, 1.0, 1.0)
        assert _stationarity(diag, off, 1.0, 1.0, y) < 1e-9
        assert np.linalg.norm(y) >= 2.0 - 1e-9  # multiplier at least the barrier

    def test_hard_case_null_space_step(self):
        # e1 orthogonal to the minimal eigenspace of a reducible T
        diag, off = np.array([1.0, -3.0]), np.array([0.0])
        y = solve_tridiagonal_cubic(diag, off, 1.0, 1.0)
        assert np.linalg.norm(y) == pytest.approx(3.0, abs=1e-9)
        assert y[0] == pytest.approx(-0.25, abs=1e-10)
        assert abs(y[1]) == pytest.approx(np.sqrt(9.0 - 1.0 / 16.0), abs=1e-8)
        assert _stationarity(diag, off, 1.0, 1.0, y) < 1e-8

    def test_zero_gradient_branches(self):
        y = solve_tridiagonal_cubic(np.array([1.0, 2.0]), np.array([0.0]), 0.0, 1.0)
        assert np.all(y == 0.0)
        y = solve_tridiagonal_cubic(np.array([1.0, -3.0]), np.array([0.0]), 0.0, 1.0)
        assert np.linalg.norm(y) == pytest.approx(3.0, abs=1e-10)

    def test_residual_contract_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            diag = rng.standard_normal(k) * 3.0
            off = rng.standard_normal(max(k - 1, 0))
            gnorm = float(10.0 ** rng.uniform(-3, 2))
            sigma = float(10.0 ** rng.uniform(-2, 1))
            y = solve_tridiagonal_cubic(diag, off, gnorm, sigma)
            lam_min = np.linalg.eigvalsh(_tridiag_dense(diag, off)).min()
            assert _stationarity(diag, off, gnorm, sigma, y) <= 1e-8 * max(gnorm, 1.0)
            assert sigma * np.linalg.norm(y) >= max(0.0, -lam_min) - 1e-7

    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            diag = rng.standard_normal(k) * 2.0
            off = rng.standard_normal(max(k - 1, 0))
            gnorm = float(10.0 ** rng.uniform(-2, 1))
            sigma = float(10.0 ** rng.uniform(-1, 1))
            T = _tridiag_dense(diag, off)
            g = np.zeros(k)
            g[0] = gnorm
            y = solve_tridiagonal_cubic(diag, off, gnorm, sigma)
            y_star, _ = cubic_global_min(T, g, sigma)
            val = lambda z: float(g @ z + 0.5 * z @ T @ z + sigma / 3.0 * np.linalg.norm(z) ** 3)
            assert val(y) <= val(y_star) + 1e-8 * max(1.0, abs(val(y_star)))

    @settings(max_examples=300)
    @given(_cubic_subproblems())
    def test_global_min_property(self, problem):
        diag, off, gnorm, sigma = problem
        T = _tridiag_dense(diag, off)
        g = np.zeros(diag.shape[0])
        g[0] = gnorm
        val = lambda z: float(g @ z + 0.5 * z @ T @ z + sigma / 3.0 * np.linalg.norm(z) ** 3)
        y = solve_tridiagonal_cubic(diag, off, gnorm, sigma)
        with np.errstate(divide="ignore"):
            y_star, _ = cubic_global_min(T, g, sigma)
        assert val(y) <= val(y_star) + 1e-8 * max(1.0, abs(val(y_star)))

    @settings(max_examples=200)
    @given(_irreducible_subproblems(), _finite(-13.0, -4.0))
    def test_tol_bounds_the_stationarity_residual(self, problem, exponent):
        diag, off, gnorm, sigma = problem
        # t relative to the scale at which the residual is rounded,
        # ||g|| + (||T|| + sigma ||y||) ||y||
        w = np.linalg.norm(solve_tridiagonal_cubic(diag, off, gnorm, sigma))
        scale = gnorm + (np.linalg.norm(_tridiag_dense(diag, off), 2) + sigma * w) * w
        t = 10.0**exponent * scale
        y = solve_tridiagonal_cubic(diag, off, gnorm, sigma, tol=t)
        assert _stationarity(diag, off, gnorm, sigma, y) <= t

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_tridiagonal_cubic(np.array([1.0, 2.0]), np.array([]), 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_tridiagonal_cubic(np.array([1.0]), np.array([]), 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_tridiagonal_cubic(np.array([1.0]), np.array([]), -1.0, 1.0)

    def test_nan_and_bad_tol_rejected(self):
        one, none = np.array([1.0]), np.array([])
        with pytest.raises(ValueError, match="sigma"):
            solve_tridiagonal_cubic(one, none, 1.0, np.nan)
        with pytest.raises(ValueError, match="gnorm"):
            solve_tridiagonal_cubic(one, none, np.nan, 1.0)
        for tol in (0.0, -1e-12, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol"):
                solve_tridiagonal_cubic(one, none, 1.0, 1.0, tol=tol)


class TestTridiagSolve:
    def test_singular_raises_linalg_error(self):
        with pytest.raises(scipy.linalg.LinAlgError):
            _tridiag_solve(np.array([1.0, 1.0]), np.array([1.0]), 0.0, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        diag, off, rhs = np.array([2.0, 3.0, 4.0]), np.array([1.0, 1.0]), np.ones(3)
        for args in (
            (np.array([2.0, bad, 4.0]), off, 0.0, rhs),
            (diag, np.array([1.0, bad]), 0.0, rhs),
            (diag, off, bad, rhs),
            (diag, off, 0.0, np.array([1.0, 1.0, bad])),
            (np.array([bad]), np.array([]), 0.0, np.ones(1)),
        ):
            with pytest.raises(ValueError):
                _tridiag_solve(*args)


class TestModelPieces:
    def test_value_and_gradient_consistent(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((5, 5))
        H = 0.5 * (H + H.T)
        g = rng.standard_normal(5)
        s = rng.standard_normal(5)
        fd = fd_gradient(lambda z: model_value(g, H, 0.7, z), s)
        assert np.allclose(model_gradient(g, H, 0.7, s), fd, rtol=1e-6, atol=1e-8)
        assert model_value(g, H, 0.7, np.zeros(5)) == 0.0

    def test_model_validation(self):
        one = MatvecOnly(np.eye(1))
        for g in ([np.nan], [np.inf], [1.0, -np.inf]):
            with pytest.raises(ValueError, match="non-finite"):
                minimize_model(np.array(g), one, 1.0, "condition_3_1", 0.05)
        for sigma in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="sigma"):
                minimize_model(np.array([1.0]), one, sigma, "condition_3_1", 0.05)

    def test_termination_spec(self):
        s31, s41 = THRESHOLDS["condition_3_1"], THRESHOLDS["condition_4_1"]
        assert s31(0.1, 2.0, 0.5) == pytest.approx(0.1 * 0.25)
        assert s31(0.1, 0.5, 2.0) == pytest.approx(0.1 * 0.125)
        assert s41(0.1, 2.0, 0.5) == pytest.approx(0.1 * 0.5 * 0.5)
        assert s41(0.1, 0.5, 2.0) == pytest.approx(0.1 * 1.0 * 0.5)
        assert set(THRESHOLDS) == {"condition_3_1", "condition_4_1"}
        one, g = MatvecOnly(np.eye(1)), np.array([1.0])
        with pytest.raises(ValueError, match="condition_9_9"):
            minimize_model(g, one, 1.0, "condition_9_9", 0.1)
        for kappa in (0.5, 0.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="kappa_theta"):
                minimize_model(g, one, 1.0, "condition_3_1", kappa)


class TestMinimizeModel:
    def _random_model(self, rng, d):
        H = rng.standard_normal((d, d))
        H = 0.5 * (H + H.T)
        g = rng.standard_normal(d)
        sigma = float(10.0 ** rng.uniform(-1, 1))
        return g, H, sigma

    def test_reaches_oracle_value(self):
        # tiny kappa_theta forces a near-exact solve so the value must match
        # the global oracle; looser settings may stop early by design
        rng = np.random.default_rng(3)
        for _ in range(60):
            d = int(rng.integers(2, 7))
            g, H, sigma = self._random_model(rng, d)
            res = minimize_model(g, MatvecOnly(H), sigma, "condition_3_1", 1e-8)
            s_star, _ = cubic_global_min(H, g, sigma)
            v_star = model_value(g, H, sigma, s_star)
            v = model_value(g, H, sigma, res.s)
            assert v <= v_star + 1e-6 * max(1.0, abs(v_star))
            assert res.model_decrease == pytest.approx(-v, abs=1e-10)

    def test_termination_residual_honored(self):
        rng = np.random.default_rng(4)
        for kind in ("condition_3_1", "condition_4_1"):
            for _ in range(30):
                g, H, sigma = self._random_model(rng, 6)
                gn = np.linalg.norm(g)
                res = minimize_model(g, MatvecOnly(H), sigma, kind, 0.2)
                if res.status == "converged":
                    thr = THRESHOLDS[kind](0.2, gn, np.linalg.norm(res.s))
                    full = np.linalg.norm(model_gradient(g, H, sigma, res.s))
                    assert full <= thr + 1e-12
                    assert res.condition_met

    def test_identity_hessian_one_step(self):
        # Krylov space collapses after one vector; solution is exact there
        g = np.array([2.0, 0.0, 0.0])
        res = minimize_model(g, MatvecOnly(np.eye(3)), 1.0, "condition_3_1", 0.05)
        assert res.status == "converged"
        assert res.k == 1
        # full-space solution solves 2 - t - t^2 = 0 along -e1
        assert np.allclose(res.s, [-1.0, 0.0, 0.0], atol=1e-12)
        assert np.linalg.norm(model_gradient(g, np.eye(3), 1.0, res.s)) < 1e-10

    def test_basis_grows_with_k_at_a_million_dimensions(self):
        # a d x d basis would take 8 TB here; the stored one grows with k
        d = 10**6
        rng = np.random.default_rng(11)
        h = 1.0 + rng.random(d)
        g = rng.standard_normal(d)

        class Diagonal:
            def matvec(self, v):
                return h * v

        res = minimize_model(g, Diagonal(), 1.0, "condition_3_1", 1e-8)
        assert res.condition_met and res.status == "converged"
        assert res.k <= 16 and res.s.shape == (d,)
        full = np.linalg.norm(g + h * res.s + np.linalg.norm(res.s) * res.s)
        assert abs(res.grad_norm - full) <= 1e-10 * np.linalg.norm(g)

    @pytest.mark.parametrize("gn", [1e-5, 1e-7, 1e-9])
    def test_small_gradient_meets_condition_below_full_dimension(self, gn):
        # d = 200, cond 1e4: five curvatures up to 1e4 over a bulk in [1, 1.1].
        # At these ||g|| condition 3.1 asks for less than the secular solve's
        # default stopping point (1e-10 ||g||), or for less than rounding
        # allows; the subproblem must still meet its (floored) threshold
        # rather than grow the space to k = d. g_i ~ h_i keeps ||H|| ||s||
        # near ||g||, so the 16u ||g|| floor lies above the rounding of r.
        d = 200
        rng = np.random.default_rng(0)
        h = np.concatenate([np.logspace(1.0, 4.0, 5), 1.0 + 0.1 * rng.random(d - 5)])
        u = h * rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
        g = gn * u / np.linalg.norm(u)
        H = np.diag(h)
        res = minimize_model(g, MatvecOnly(H), 1.0, "condition_3_1", 0.05)
        assert res.condition_met and res.status == "converged"
        assert res.k < d
        full = np.linalg.norm(model_gradient(g, H, 1.0, res.s))
        sn = np.linalg.norm(res.s)
        assert full <= max(THRESHOLDS["condition_3_1"](0.05, gn, sn), THRESHOLD_FLOOR * gn)

    def test_zero_gradient_short_circuit(self):
        res = minimize_model(np.zeros(4), MatvecOnly(np.eye(4)), 1.0, "condition_3_1", 0.05)
        assert res.status == "converged" and np.all(res.s == 0.0) and res.hvp_count == 0

    def test_hvp_count_tracks_iterations(self):
        rng = np.random.default_rng(6)
        g, H, sigma = self._random_model(rng, 8)
        res = minimize_model(g, MatvecOnly(H), sigma, "condition_3_1", 0.05)
        assert res.hvp_count == res.k
        assert res.k >= 1

    def test_recurrence_residual_and_decrease_match_full_space(self):
        # grad_norm and model_decrease come from the Lanczos recurrence; the
        # explicit full-space gradient and model value are the oracle
        rng = np.random.default_rng(9)
        for i in range(120):
            d = int(rng.integers(2, 30))
            g, H, sigma = self._random_model(rng, d)
            kind = ("condition_3_1", "condition_4_1")[i % 3 == 0]
            kappa = float(rng.choice([1e-8, 0.05, 0.2]))
            res = minimize_model(g, MatvecOnly(H), sigma, kind, kappa)
            full = np.linalg.norm(model_gradient(g, H, sigma, res.s))
            assert abs(res.grad_norm - full) <= 1e-10 * np.linalg.norm(g)
            assert res.model_decrease == pytest.approx(
                -model_value(g, H, sigma, res.s), rel=1e-10, abs=1e-10)
