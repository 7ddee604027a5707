import numpy as np
import pytest

from sarc.problems import (
    Dataset,
    LossModel,
    batch_gradient,
    curvature_vector,
    full_gradient,
    full_value,
    lipschitz_bounds,
)

from oracles import (
    component_hvp,
    dense_hessian,
    fd_gradient,
    fd_hvp,
    random_glm_instance,
    random_pca_instance,
    row,
    scalar_second_derivative,
)

ALL_FAMILIES = ("ridge_least_squares", "reg_logistic", "nonconvex_svm", "pca_quadratic")


def _instance(rng, family):
    if family == "pca_quadratic":
        return random_pca_instance(rng)
    return random_glm_instance(rng, family)


class TestValues:
    def test_ridge_single_row(self):
        model = LossModel("ridge_least_squares", 0.0,
                          Dataset.from_dense([[1.0, 0.0]], [1.0]))
        assert full_value(model, np.zeros(2)) == 1.0
        assert full_value(model, np.array([1.0, 3.0])) == 0.0

    def test_logistic_at_origin(self):
        model = LossModel("reg_logistic", 0.0,
                          Dataset.from_dense([[2.0, 1.0], [0.5, -1.0]], [1.0, -1.0]))
        assert full_value(model, np.zeros(2)) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_svm_at_origin(self):
        model = LossModel("nonconvex_svm", 0.0,
                          Dataset.from_dense([[1.0], [2.0]], [1.0, -1.0]))
        assert full_value(model, np.zeros(1)) == pytest.approx(1.0)

    def test_pca_pure_quadratic(self):
        # rows zero: f = 0.5*mu*||x||^2 + c.x
        model = LossModel("pca_quadratic", 2.0,
                          Dataset.from_dense(np.zeros((3, 2)), np.zeros(3)),
                          linear=np.array([1.0, -1.0]))
        x = np.array([3.0, 4.0])
        assert full_value(model, x) == pytest.approx(0.5 * 2.0 * 25.0 + (3.0 - 4.0))

    def test_reg_scale_convention(self):
        ds = Dataset.from_dense([[1.0, 2.0]], [1.0])
        x = np.array([0.5, -0.25])
        half = LossModel("reg_logistic", 0.1, ds, reg_scale=0.5)
        full = LossModel("reg_logistic", 0.1, ds, reg_scale=1.0)
        base = LossModel("reg_logistic", 0.0, ds)
        f0 = full_value(base, x)
        assert full_value(half, x) - f0 == pytest.approx(0.05 * float(x @ x))
        assert full_value(full, x) - f0 == pytest.approx(0.1 * float(x @ x))


class TestDerivatives:
    @pytest.mark.parametrize("family", [
        "ridge_least_squares", "reg_logistic", "nonconvex_svm", "pca_quadratic",
    ])
    def test_gradient_matches_fd(self, family):
        rng = np.random.default_rng(hash(family) % 2**32)
        for _ in range(5):
            model, x = _instance(rng, family)
            g = full_gradient(model, x)
            g_fd = fd_gradient(lambda z: full_value(model, z), x)
            assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("family", [
        "ridge_least_squares", "reg_logistic", "nonconvex_svm", "pca_quadratic",
    ])
    def test_component_hvp_matches_fd(self, family):
        rng = np.random.default_rng(hash(family) % 2**31)
        for _ in range(5):
            model, x = _instance(rng, family)
            j = int(rng.integers(0, model.n))
            v = rng.standard_normal(model.d)
            hv = component_hvp(model, j, x, v)
            hv_fd = fd_hvp(lambda z: batch_gradient(model, z, [j]), x, v)
            assert np.allclose(hv, hv_fd, rtol=1e-5, atol=1e-6)

    def test_batch_gradient_full_equals_gradient(self):
        rng = np.random.default_rng(3)
        for family in ("ridge_least_squares", "reg_logistic", "pca_quadratic"):
            model, x = _instance(rng, family)
            g_all = batch_gradient(model, x, np.arange(model.n))
            assert np.allclose(g_all, full_gradient(model, x), rtol=1e-12)

    def test_dense_hessian_matches_fd_gradient(self):
        rng = np.random.default_rng(4)
        for family in ("ridge_least_squares", "reg_logistic", "nonconvex_svm"):
            model, x = _instance(rng, family)
            H = dense_hessian(model, x)
            assert np.allclose(H, H.T)
            for _ in range(3):
                v = rng.standard_normal(model.d)
                hv_fd = fd_hvp(lambda z: full_gradient(model, z), x, v)
                assert np.allclose(H @ v, hv_fd, rtol=1e-4, atol=1e-6)

    def test_dense_hessian_cap(self):
        rng = np.random.default_rng(5)
        model, x = random_glm_instance(rng, "reg_logistic", n=4, d=3)
        with pytest.raises(ValueError):
            dense_hessian(model, x, dense_cap=2)


class TestCurvature:
    def test_logistic_curvature_at_origin(self):
        model = LossModel("reg_logistic", 0.0,
                          Dataset.from_dense([[1.0], [2.0]], [1.0, -1.0]))
        assert np.allclose(curvature_vector(model, np.zeros(1)), 0.25)

    def test_ridge_curvature_constant(self):
        model = LossModel("ridge_least_squares", 0.3,
                          Dataset.from_dense([[1.0], [5.0]], [0.0, 1.0]))
        assert np.allclose(curvature_vector(model, np.array([2.0])), 2.0)

    def test_svm_curvature_vanishes_at_origin(self):
        model = LossModel("nonconvex_svm", 0.0,
                          Dataset.from_dense([[1.0], [2.0]], [1.0, -1.0]))
        assert np.allclose(curvature_vector(model, np.zeros(1)), 0.0)

    def test_scalar_matches_vector(self):
        rng = np.random.default_rng(6)
        model, x = random_glm_instance(rng, "reg_logistic")
        vec = curvature_vector(model, x)
        for j in range(model.n):
            assert scalar_second_derivative(model, j, x) == pytest.approx(vec[j])

    def test_pca_curvature_is_minus_one(self):
        rng = np.random.default_rng(7)
        model, x = random_pca_instance(rng)
        assert np.all(curvature_vector(model, x) == -1.0)


class TestLipschitz:
    def test_analytic_logistic(self):
        model = LossModel("reg_logistic", 0.0,
                          Dataset.from_dense([[2.0, 0.0], [0.0, 1.0]], [1.0, -1.0]))
        info = lipschitz_bounds(model)
        assert info.L == pytest.approx(1.0)  # 0.25 * ||(2,0)||^2
        assert info.Lbar == pytest.approx(0.625)

    def test_analytic_dominates_true_curvature(self):
        # L_j bounds the spectral norm of every component Hessian
        rng = np.random.default_rng(8)
        for family in ALL_FAMILIES:
            model, x = _instance(rng, family)
            info = lipschitz_bounds(model)
            for j in range(model.n):
                a = row(model.dataset, j)
                H_j = scalar_second_derivative(model, j, x) * np.outer(a, a)
                H_j += model.reg_curvature() * np.eye(model.d)
                top = float(np.abs(np.linalg.eigvalsh(H_j)).max())
                assert top <= info.per_component[j] * (1.0 + 1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_per_component_closed_forms_bitwise(self, family):
        rng = np.random.default_rng(9)
        model, _ = _instance(rng, family)
        sq = model.dataset.row_sq_norms()
        reg = 2.0 * model.reg_scale * model.lam
        expected = {
            "ridge_least_squares": lambda: 2.0 * sq + reg,
            "reg_logistic": lambda: 0.25 * sq + reg,
            "nonconvex_svm": lambda: 4.0 / (3.0 * np.sqrt(3.0)) * sq + reg,
            "pca_quadratic": lambda: np.maximum(model.lam, np.abs(model.lam - sq)),
        }[family]()
        assert np.array_equal(lipschitz_bounds(model).per_component, expected)


class TestValidation:
    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset.from_dense([[1.0], [2.0]], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset.from_dense([[np.nan]], [1.0])

    def test_logistic_needs_pm1_labels(self):
        with pytest.raises(ValueError):
            LossModel("reg_logistic", 0.0, Dataset.from_dense([[1.0]], [0.5]))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LossModel("ridge_least_squares", -1.0, Dataset.from_dense([[1.0]], [1.0]))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            LossModel("huber", 0.0, Dataset.from_dense([[1.0]], [1.0]))

    def test_dimension_mismatch_on_eval(self):
        model = LossModel("ridge_least_squares", 0.0, Dataset.from_dense([[1.0, 2.0]], [1.0]))
        with pytest.raises(ValueError):
            full_value(model, np.zeros(3))

    def test_component_index_range(self):
        model = LossModel("ridge_least_squares", 0.0, Dataset.from_dense([[1.0]], [1.0]))
        with pytest.raises(IndexError):
            component_hvp(model, 5, np.zeros(1), np.ones(1))


def _fresh(model):
    """The same loss on the same data with an empty point cache."""
    return LossModel(model.family, model.lam, model.dataset, model.reg_scale, model.linear)


class TestPointCache:
    """Margins and link values are cached for the last point; hits must be
    bit-identical to a cold evaluation and never stale."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_warm_equals_cold_bitwise(self, family):
        rng = np.random.default_rng(11)
        model, x = _instance(rng, family)
        fns = [full_value, full_gradient, curvature_vector]
        cold = [fn(_fresh(model), x) for fn in fns]
        for order in (fns, fns[::-1]):
            warm_model = _fresh(model)
            warm = {fn: fn(warm_model, x) for fn in order}
            for fn, ref in zip(fns, cold):
                assert np.array_equal(warm[fn], ref)
                assert np.array_equal(fn(warm_model, x), ref)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_interleaved_points_and_in_place_edits(self, family):
        rng = np.random.default_rng(12)
        model, x1 = _instance(rng, family)
        x2 = x1 + rng.standard_normal(x1.shape[0])
        ref = {i: (full_value(_fresh(model), x), full_gradient(_fresh(model), x))
               for i, x in ((1, x1), (2, x2))}
        for i, x in ((1, x1), (2, x2), (1, x1), (1, x1), (2, x2)):
            assert full_value(model, x) == ref[i][0]
            assert np.array_equal(full_gradient(model, x), ref[i][1])
        x = x1.copy()
        assert full_value(model, x) == ref[1][0]
        x[:] = x2  # the caller edits its array in place: no stale hit
        assert full_value(model, x) == ref[2][0]
        assert np.array_equal(full_gradient(model, x), ref[2][1])

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_cached_arrays_reject_writes(self, family):
        rng = np.random.default_rng(13)
        model, x = _instance(rng, family)
        full_gradient(model, x)
        p = model.at(x)
        for a in (p.t, p.link, curvature_vector(model, x)):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_batch_gradient_does_not_touch_the_cache(self):
        rng = np.random.default_rng(14)
        model, x = random_glm_instance(rng, "reg_logistic", n=20, d=3)
        batch_gradient(model, x, np.arange(5))
        assert model._point is None
