import json
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from sarc.problems import (
    BLOCK_ROWS,
    GLM_FAMILIES,
    Dataset,
    LossModel,
    ProductPair,
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
    traced_peak,
)

ALL_FAMILIES = ("ridge_least_squares", "reg_logistic", "nonconvex_svm", "pca_quadratic")

# Each family's link and slope as plain whole-array formulas, for the maps,
# some of which work in place in one array, to match bit for bit.
def _logistic_link_formula(t, b):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(b * t))


FORMULAS = {
    "ridge_least_squares": (lambda t, b: t, lambda t, b, u: 2.0 * (t - b)),
    "reg_logistic": (_logistic_link_formula, lambda t, b, s: -b * s),
    "nonconvex_svm": (lambda t, b: np.tanh(b * t), lambda t, b, u: -b * (1.0 - u * u)),
    "pca_quadratic": (lambda t, b: t, lambda t, b, u: -u),
}


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


def _softplus_exact(z: float) -> Decimal:
    """ln(1 + e^z) to 800 digits, enough to hold 1 + e^z at z = -745."""
    with localcontext(prec=800):
        tail = (1 + Decimal(-abs(z)).exp()).ln()  # ln(1 + e^-|z|)
        return tail + Decimal(max(z, 0.0))


class TestLogisticMaps:
    LOGISTIC = GLM_FAMILIES["reg_logistic"]
    # z = -b t over the range where exp(-|z|) is normal or subnormal, with the
    # points where log1p(exp(-|z|)) falls under an ulp of z (37) and where
    # exp(z) alone would overflow (708)
    Z = np.concatenate([np.linspace(-745.0, 745.0, 61),
                        [0.0, 37.0, -37.0, 708.0, -708.0, 0.5, -0.5, 1e-300, -1e-300]])

    def test_value_within_an_ulp_of_softplus(self):
        b = np.where(np.arange(self.Z.size) % 2 == 0, 1.0, -1.0)
        t = -b * self.Z
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = self.LOGISTIC.value(t, b, self.LOGISTIC.link(t, b))
        for z, v in zip(self.Z, value):
            exact = _softplus_exact(float(z))
            if exact >= Decimal(np.finfo(float).tiny):
                assert abs(Decimal(float(v)) - exact) <= Decimal(np.spacing(float(exact))), z

    def test_link_is_one_over_one_plus_exp_b_t_bit_for_bit(self):
        # expit(z) is 1/(1 + exp(-z)) in scipy too; at z = -b t the link
        # takes exp(b t) from numpy's SIMD exp, which rounds differently from
        # the C library's on some inputs, so it stays within 2 ulps of expit
        tiny = np.finfo(float).smallest_subnormal
        edges = [0.0, -0.0, 700.0, -700.0, tiny, -tiny, 7 * tiny, -1e-310, 1e-310,
                 745.0, -745.0, 1e300, -1e300]
        rng = np.random.default_rng(13)
        t = np.concatenate([edges, rng.standard_normal(2000) * 10.0 ** rng.uniform(-3, 3, 2000),
                            np.linspace(-760.0, 760.0, 20001)])
        for b in (rng.choice([-1.0, 1.0], t.size), rng.choice([0.5, -3.0, -0.0], t.size)):
            link = self.LOGISTIC.link(t, b)
            with np.errstate(over="ignore"):
                assert link.tobytes() == (1.0 / (1.0 + np.exp(b * t))).tobytes()
            # both lie in [0, 1], where the gap between the bit patterns
            # counts the ulps between them
            assert np.all(np.abs(link.view(np.int64) - expit(-b * t).view(np.int64)) <= 2)
        scalar = self.LOGISTIC.link(0.5, -1.0)  # scalars too
        assert scalar == 1.0 / (1.0 + np.exp(-0.5))
        assert abs(scalar - expit(0.5)) <= 2 * np.spacing(expit(0.5))

    def test_value_is_the_softplus_formula_bit_for_bit(self):
        # max(-b t, 0) + log1p(exp(-|b t|)) as written, against the value's
        # in-place form, which takes max(-b t, 0) as -min(b t, 0)
        b = np.where(np.arange(self.Z.size) % 2 == 0, 1.0, -1.0)
        for t in (-b * self.Z, np.random.default_rng(14).standard_normal(4000) * 30.0):
            bb = np.resize(b, t.size)
            z = -(bb * t)
            formula = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
            value = self.LOGISTIC.value(t, bb, self.LOGISTIC.link(t, bb))
            assert value.tobytes() == formula.tobytes()

    def test_curvature_is_the_general_formula_bit_for_bit(self):
        rng = np.random.default_rng(12)
        b = rng.choice([-1.0, 1.0], 4000)
        t = rng.standard_normal(4000) * 10.0 ** rng.uniform(-3, 3, 4000)
        s = self.LOGISTIC.link(t, b)
        assert np.array_equal(self.LOGISTIC.curvature(t, b, s), b * b * s * (1.0 - s))


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

    def test_equal_bounds_keep_their_mean_at_most_their_max(self):
        # every row is short, so every pca L_j is mu; their float mean is
        # 0.010000000000000002 > 0.01
        A = np.random.default_rng(0).standard_normal((489, 1)) * 0.03125
        model = LossModel("pca_quadratic", 0.01, Dataset.from_dense(A, np.ones(489)))
        info = lipschitz_bounds(model)
        assert info.L == info.Lbar == 0.01

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
        for bad in (np.nan, np.inf, -np.inf):
            for A in ([[bad]], [[0.0, 1.0], [2.0, bad], [0.0, 0.0]]):
                with pytest.raises(ValueError, match="^dataset contains non-finite entries$"):
                    Dataset.from_dense(A, np.ones(len(A)))

    def test_logistic_needs_pm1_labels(self):
        with pytest.raises(ValueError):
            LossModel("reg_logistic", 0.0, Dataset.from_dense([[1.0]], [0.5]))

    def test_negative_lambda_rejected(self):
        ds = Dataset.from_dense([[1.0]], [1.0])
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam must be finite and >= 0"):
                LossModel("ridge_least_squares", lam, ds)
        for c in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="linear term contains non-finite"):
                LossModel("ridge_least_squares", 0.0, ds, linear=np.array([c]))
        for reg_scale in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="reg_scale must be finite and >= 0"):
                LossModel("ridge_least_squares", 1.0, ds, reg_scale=reg_scale)
        assert LossModel("ridge_least_squares", 1.0, ds, reg_scale=0.0).reg_curvature() == 0.0

    def test_zero_data_with_only_a_linear_term_rejected(self):
        # zero data and no regularizer curvature: every Lipschitz bound is 0,
        # and f = const + c^T x has no minimizer
        zero = Dataset.from_dense(np.zeros((5, 2)), np.ones(5))
        stored_zeros = Dataset(sp.csr_matrix((np.array([0.0, -0.0]), np.array([0, 1]),
                                              np.array([0, 1, 2])), shape=(2, 2)), np.ones(2))
        unbounded = "zero data and no regularizer curvature make every Lipschitz bound 0"
        for ds in (zero, stored_zeros):
            for family, lam, reg_scale in (("reg_logistic", 0.0, 1.0), ("pca_quadratic", 0.0, 1.0),
                                           ("ridge_least_squares", 1.0, 0.0)):
                with pytest.raises(ValueError, match=unbounded):
                    LossModel(family, lam, ds, reg_scale=reg_scale, linear=[1, 0])
            LossModel("reg_logistic", 0.0, ds)
            LossModel("reg_logistic", 1.0, ds, linear=[1, 0])

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

    def test_batch_rows_must_be_integers(self):
        ds = Dataset.from_dense([[1.0], [2.0]], [1.0, 0.0])
        model = LossModel("ridge_least_squares", 0.0, ds)
        for bad in ([0.7], [True, False], np.array([1.0, 0.0])):
            with pytest.raises(TypeError, match="^indices must be integers, got dtype"):
                batch_gradient(model, np.zeros(1), bad)
        assert batch_gradient(model, np.zeros(1), np.array([1], dtype=np.uint8)).tolist() == [0.0]


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


_ENTRY = (st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.sampled_from([0.0, -0.0]))


@st.composite
def _csr_and_vectors(draw):
    """A CSR matrix up to 30 x 8 with empty rows and explicit zeros, at a
    density drawn on either side of 2/3, and vectors to multiply it with."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.65, 0.7, 0.9, 1.0]))
    keep = draw(hnp.arrays(float, (n, d), elements=st.floats(0.0, 1.0))) < density
    keep[draw(hnp.arrays(bool, n))] = False  # empty rows
    rows, cols = np.nonzero(keep)
    values = draw(hnp.arrays(float, rows.size, elements=_ENTRY))  # zeros stay stored
    A = sp.csr_matrix((values, (rows, cols)), shape=(n, d))
    v = draw(hnp.arrays(float, d, elements=_ENTRY))
    u = draw(hnp.arrays(float, n, elements=_ENTRY))
    idx = draw(hnp.arrays(np.intp, draw(st.integers(1, 40)), elements=st.integers(0, n - 1)))
    return A, v, u, idx


class TestProductPair:
    """Both layouts of A's product pair compute A v and A^T u, and sparse data
    keeps the bits of the CSR products it replaces."""

    @settings(max_examples=150)
    @seed(0)
    @given(_csr_and_vectors())
    def test_layouts_agree_with_csr_products(self, case):
        A, v, u, idx = case
        n, d = A.shape
        pair = Dataset(A, np.ones(n)).products()
        assert isinstance(pair.M, np.ndarray) == (3 * A.nnz >= 2 * n * d)
        norm = np.linalg.norm(A.toarray())
        dense = ProductPair(A.toarray(order="F"))
        sparse = ProductPair(A, A.T.tocsr(), np.argsort(np.diff(A.indptr), kind="stable"))
        for layout in (pair, dense, sparse):
            for block, rows in ((layout, A), (layout.rows(idx), A[idx])):
                ub = np.resize(u, rows.shape[0])
                assert np.all(np.abs(block.matvec(v) - rows @ v)
                              <= 1e-13 * norm * np.linalg.norm(v))
                assert np.all(np.abs(block.rmatvec(ub) - rows.T @ ub)
                              <= 1e-13 * norm * np.linalg.norm(ub))
        assert sparse.rmatvec(u).tobytes() == (A.T @ u).tobytes()
        assert sparse.matvec(v).tobytes() == (A @ v).tobytes()
        c = np.abs(np.resize(u, n))
        assert sparse.hvp(c, v).tobytes() == (A.T.tocsr() @ (c * (A @ v))).tobytes()
        sub = sparse.rows(idx)
        ub = np.resize(u, idx.size)
        assert sub.rmatvec(ub).tobytes() == (A[idx].T @ ub).tobytes()

    def test_long_uneven_rows_keep_the_csr_bits(self):
        # rows longer than the property test's 8 columns, in no order of length
        rng = np.random.default_rng(0)
        lengths = [0, 26, 1, 13, 2, 26, 0, 9, 1, 3, 17, 5] * 25
        indices = np.concatenate([np.sort(rng.choice(400, k, replace=False)) for k in lengths])
        A = sp.csr_matrix((rng.standard_normal(indices.size), indices,
                           np.concatenate([[0], np.cumsum(lengths)])), shape=(len(lengths), 400))
        pair = Dataset(A, np.ones(A.shape[0])).products()
        assert np.array_equal(pair.order, np.argsort(lengths, kind="stable"))
        v, c = rng.standard_normal(400), rng.random(A.shape[0])
        assert pair.matvec(v).tobytes() == (A @ v).tobytes()
        assert pair.hvp(c, v).tobytes() == (A.T.tocsr() @ (c * (A @ v))).tobytes()

    def test_dense_rows_stay_column_major(self):
        pair = Dataset.from_dense(np.arange(12.0).reshape(4, 3) + 1.0, np.ones(4)).products()
        block = pair.rows(np.array([3, 0, 3]))
        assert pair.M.flags.f_contiguous and block.M.flags.f_contiguous
        assert np.array_equal(block.M, [[10.0, 11.0, 12.0], [1.0, 2.0, 3.0], [10.0, 11.0, 12.0]])

    def test_pair_is_built_once_and_not_at_setup(self):
        ds = Dataset.from_dense(np.ones((5, 2)), np.ones(5))
        assert not hasattr(ds, "_products")
        assert ds.products() is ds.products()

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 3 * 8192 + 5])
    def test_hvp_and_gradients_equal_composed_products(self, n):
        # on both sides of the dense block size, with tails of 1 and 5 rows;
        # density 1 is read column-major and 0.3 as CSR
        rng = np.random.default_rng(n)
        d = 12
        b = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        x, v, c = rng.standard_normal(d), rng.standard_normal(d), rng.random(n)
        for density in (1.0, 0.3):
            A = sp.random(n, d, density=density, format="csr", random_state=rng,
                          data_rvs=rng.standard_normal)
            ds = Dataset(A, b)
            pair = ds.products()
            assert isinstance(pair.M, np.ndarray) == (density == 1.0)
            for block in (pair, pair.rows(np.sort(rng.integers(0, n, n // 2)))):
                cb = c[:block.M.shape[0]]
                composed = block.rmatvec(cb * block.matvec(v))
                assert block.hvp(cb, v).tobytes() == composed.tobytes()
            for family in ALL_FAMILIES:
                fam = GLM_FAMILIES[family]
                t = pair.matvec(x)
                link = fam.link(t, b)
                link_formula, slope_formula = FORMULAS[family]
                assert link.tobytes() == link_formula(t, b).tobytes()
                slope = slope_formula(t, b, link)
                assert fam.slope(t, b, link).tobytes() == slope.tobytes()
                composed = pair.rmatvec(fam.slope(t, b, link)) / n
                gradient_first = LossModel(family, 0.01, ds)
                value_first = LossModel(family, 0.01, ds)
                full_value(value_first, x)
                g = full_gradient(gradient_first, x)
                assert g.tobytes() == full_gradient(value_first, x).tobytes()
                assert g.tobytes() == (composed + gradient_first.reg_curvature() * x).tobytes()
                p = gradient_first.at(x)
                assert p.t.tobytes() == t.tobytes() and p.link.tobytes() == link.tobytes()
                assert p.data_gradient.tobytes() == composed.tobytes()


_DENSE_ENTRY = (st.floats(-1e3, 1e3, allow_subnormal=False)
                | st.sampled_from([0.0, -0.0, 5e-324, 1e300]))


@st.composite
def _dense(draw):
    """A dense array up to 30 x 8 with zeros, -0.0 and all-zero rows and
    columns, as floats or integers."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        A = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-3, 3)))
    else:
        A = draw(hnp.arrays(float, (n, d), elements=_DENSE_ENTRY))
    A[draw(hnp.arrays(bool, n))] = 0
    A[:, draw(hnp.arrays(bool, d))] = 0
    return A


# |entry| magnitudes: ordinary, squares that underflow to 0 or to a
# subnormal, and squares or sums of squares that overflow to inf
_SCALES = np.array([1.0, 1e-170, 1e-155, 1e154, 1e200])


@st.composite
def _tall_csr(draw):
    """A CSR whose row count straddles BLOCK_ROWS, or a small one, with empty
    rows, stored zeros, entries whose squares underflow or overflow, and
    duplicate entries in half the rows, in the first row alone or in none;
    the bulk comes from a drawn seed."""
    n = draw(st.sampled_from([BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                              2 * BLOCK_ROWS + 5]) | st.integers(1, 30))
    d = draw(st.integers(1, 8))
    dup_share = draw(st.sampled_from([0.0, 0.5]))
    dup_first = draw(st.booleans())  # a duplicate in row 0, summed like any other
    scales = draw(st.lists(st.sampled_from(_SCALES), min_size=1, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 2 * d + 1, n)
    counts[rng.random(n) < 0.1] = 0  # empty rows
    dup = rng.random(n) < dup_share
    dup[0] |= dup_first
    counts[~dup] = np.minimum(counts[~dup], d)
    counts[0] = max(counts[0], 2 * dup_first)
    indices = np.concatenate([rng.integers(0, d, k) if twice else rng.permutation(d)[:k]
                              for k, twice in zip(counts, dup)])
    if dup_first:
        indices[1] = indices[0]
    nnz = indices.size
    data = rng.standard_normal(nnz) * rng.choice(scales, nnz)
    data[rng.random(nnz) < 0.1] = 0.0  # stored zeros
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sp.csr_matrix((data, indices.astype(np.int32), indptr.astype(np.int32)), shape=(n, d))


class TestDatasetBuild:
    """The arrays a Dataset builds from its input keep the bits of the
    whole-matrix scipy formulas they replace, and hold no more memory than
    their result and a few blocks of rows while they are built."""

    @settings(max_examples=150)
    @seed(0)
    @given(_dense())
    def test_from_dense_equals_scipy_csr(self, A):
        ds = Dataset.from_dense(A, np.ones(A.shape[0]))
        ref = sp.csr_matrix(A.astype(float))
        for name in ("data", "indices", "indptr"):
            ours, theirs = getattr(ds.A, name), getattr(ref, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
        assert ds.A.shape == ref.shape

    def test_from_dense_keeps_a_one_dimensional_row_and_rejects_more_dimensions(self):
        assert Dataset.from_dense([0.0, 2.0], [1.0]).A.toarray().tolist() == [[0.0, 2.0]]
        with pytest.raises(ValueError, match="^dense data must be 2-D, got 3-D$"):
            Dataset.from_dense(np.ones((2, 2, 2)), np.ones(2))

    @settings(max_examples=40, deadline=None)
    @seed(0)
    @given(_tall_csr())
    def test_column_major_copy_and_row_norms_keep_their_bits(self, A):
        ds = Dataset(A, np.ones(A.shape[0]))
        if 3 * A.nnz >= 2 * A.shape[0] * A.shape[1]:
            M = ds.products().M
            assert M.flags.f_contiguous
            assert M.tobytes(order="F") == ds.A.toarray(order="F").tobytes(order="F")
        norms = ds.row_sq_norms()  # an overflow to inf warns nothing: warnings are errors here
        with np.errstate(over="ignore"):
            ref = np.asarray(ds.A.multiply(ds.A).sum(axis=1)).ravel()
        assert norms.tobytes() == ref.tobytes()

    def test_a_duplicate_in_one_block_keeps_every_row_norm(self):
        # a duplicate entry is summed in place once, so every later pass
        # reads a canonical CSR in the same blocks as any other
        rng = np.random.default_rng(1)
        n, d, k = BLOCK_ROWS + 100, 8, 6
        indices = np.concatenate([[0, 0]] + [np.sort(rng.permutation(d)[:k]) for _ in range(n - 1)])
        indptr = np.concatenate(([0], 2 + k * np.arange(n)))
        A = sp.csr_matrix((rng.standard_normal(indices.size), indices, indptr), shape=(n, d))
        summed = A.copy()
        summed.sum_duplicates()
        ds = Dataset(A, np.ones(n))
        assert ds.A is A and A.has_canonical_format
        ref = np.asarray(summed.multiply(summed).sum(axis=1)).ravel()
        assert ds.row_sq_norms().tobytes() == ref.tobytes()
        assert ds.products().M.tobytes(order="F") == summed.toarray(order="F").tobytes(order="F")

    def test_row_norm_overflow_is_inf_without_a_warning(self):
        # each square is finite, their sum is not
        A = [[1e154, 1e154], [1e200, 0.0], [3.0, 4.0]]
        assert Dataset.from_dense(A, np.ones(3)).row_sq_norms().tolist() == [np.inf, np.inf, 25.0]

    @staticmethod
    def _dataset(n=100_000, d=10):
        rng = np.random.default_rng(0)
        return rng.standard_normal((n, d)), np.ones(n)

    def test_from_dense_holds_little_beyond_its_result(self):
        A, b = self._dataset()
        ds, peak = traced_peak(lambda: Dataset.from_dense(A, b))
        result = ds.A.data.nbytes + ds.A.indices.nbytes + ds.A.indptr.nbytes
        assert peak <= 1.2 * result

    @pytest.mark.parametrize("build,data,blocks", [
        ("products", "dense", 4), ("row_sq_norms", "dense", 4),
        ("products", "duplicate", 4), ("row_sq_norms", "duplicate", 4),
        # the sparse pair holds its CSR copies of A^T and of A's rows ordered
        # by length, their order and A itself, not a copy
        ("products", "sparse", 1), ("row_sq_norms", "sparse", 4),
    ], ids=["products", "row_sq_norms", "products-duplicate", "row_sq_norms-duplicate",
            "products-sparse", "row_sq_norms-sparse"])
    def test_column_major_copy_and_row_norms_hold_a_few_blocks(self, build, data, blocks):
        if data == "sparse":
            A = sp.random(50_000, 1_000, density=0.01, format="csr", rng=np.random.default_rng(0))
        else:
            A = sp.csr_matrix(self._dataset()[0])
            if data == "duplicate":
                A.indices[1] = A.indices[0]  # one duplicate entry, in row 0
        ds = Dataset(A, np.ones(A.shape[0]))
        # a CSR block: 8 bytes of value, 4 of index per entry
        block = BLOCK_ROWS * ds.A.nnz / ds.n * 12
        result, peak = traced_peak(getattr(ds, build))
        if build == "row_sq_norms":
            size = result.nbytes
        elif result.MT is None:
            size = result.M.nbytes
        else:
            size = result.order.nbytes + sum(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
                                             for M in (result.MT, result.ordered))
        assert peak <= size + blocks * block

    def test_float_csr_and_labels_are_held_without_a_copy(self):
        A = sp.csr_matrix((np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1]), np.array([0, 2, 3])),
                          shape=(2, 3))
        b = np.array([1.0, -1.0])
        ds = Dataset(A, b)
        assert ds.A is A and np.shares_memory(ds.b, b)
        assert A.indices.tolist() == [0, 2, 1]  # sorted in place
        assert A.data.tolist() == [2.0, 1.0, 3.0]
        ints = sp.csr_matrix(np.array([[0, 4], [5, 0]]))
        held = Dataset(ints, np.ones(2)).A
        assert held.dtype == float and not np.shares_memory(held.data, ints.data)


# Products and a sampled saarc trace on dense data above OpenBLAS's threading
# threshold, printed as digests; the test runs it at 1, 2 and 4 BLAS threads.
# Neither row count is a multiple of 8: a dgemv over all 50,003 rows, or over
# the 6,001 x 100 block whole, splits them between threads where one thread
# rounds differently.
_THREADS_PROBE = """
import hashlib, json
import numpy as np
from sarc.bench import trace_rows
from sarc.data import synth_logistic
from sarc.problems import Dataset, LossModel
from sarc.saarc_driver import saarc_run
from sarc.sarc_driver import SolverConfig

ds = synth_logistic(50_003, 10, 3, 1.0, scale=0.25)
pair = ds.products()
rng = np.random.default_rng(4)
v, u = rng.standard_normal(10), rng.standard_normal(50_003)
block = pair.rows(np.flatnonzero(rng.random(50_003) < 0.4))
wide = Dataset.from_dense(rng.standard_normal((6_001, 100)), np.ones(6_001)).products()
w = rng.standard_normal(100)
model = LossModel("reg_logistic", 1e-4, ds, reg_scale=0.5)
config = SolverConfig(grad_tol=1e-5, max_iters=40, scheme="nonuniform", seed=1)
trace = saarc_run(model, config, np.random.default_rng(1).standard_normal(10)).trace
rows = [list(trace_rows(trace)), [(r.phase, r.l, r.varsigma, r.t3) for r in trace]]
out = {"matvec": pair.matvec(v), "rmatvec": pair.rmatvec(u), "hvp": pair.hvp(u, v),
       "rows.matvec": block.matvec(v), "rows.rmatvec": block.rmatvec(u[:block.M.shape[0]]),
       "wide.matvec": wide.matvec(w), "wide.hvp": wide.hvp(u[:6_001], w),
       "trace": repr(rows).encode()}
print(json.dumps({k: hashlib.sha256(bytes(x)).hexdigest() for k, x in out.items()}))
"""


def test_dense_products_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(json.loads(proc.stdout))
    assert digests == [digests[0]] * 3
