import math

import numpy as np
import pytest

from sarc.problems import (
    Dataset,
    DegenerateCurvatureError,
    LipschitzInfo,
    LossModel,
    curvature_vector,
    dense_hessian,
    full_gradient,
    lipschitz_bounds,
)
from sarc.sampling import (
    SampleStream,
    SamplingPlan,
    SubsampledHessian,
    lemma_nonuniform_bound,
    lemma_uniform_bound,
    nonuniform_distribution,
    resolve_plan,
    sample_size_nonuniform,
    sample_size_uniform,
    spectral_error,
)

from oracles import random_glm_instance, random_pca_instance


class TestLemmaBounds:
    def test_uniform_frozen_values(self):
        # quadratic term dominates: max(16*1/0.25, 4/0.5) = 64; 64*ln(2000) -> 487
        assert lemma_uniform_bound(0.5, 0.1, 1.0, 100) == 487
        # max(16*0.25/0.25, 4*0.5/0.5) = 16; 16*ln(2000) -> 122
        assert lemma_uniform_bound(0.5, 0.1, 0.5, 100) == 122
        # linear term dominates: max(16*0.01/0.64, 0.5) = 0.5; 0.5*ln(100) -> 3
        assert lemma_uniform_bound(0.8, 0.2, 0.1, 10) == 3

    def test_nonuniform_frozen_value(self):
        # max(4*4/0.25, 16*1.98) = 64; 64*ln(1000) -> 443
        assert lemma_nonuniform_bound(0.5, 0.1, 4.0, 2.0, 0.01, 50, 100) == 443

    def test_nonuniform_grows_as_p_min_shrinks(self):
        kw = dict(eps=0.5, per_iter_delta=0.1, L=4.0, Lbar=2.0, d=50, n=100)
        sizes = [lemma_nonuniform_bound(p_min=p, **kw) for p in (0.5, 0.01, 1e-5)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            lemma_uniform_bound(0.0, 0.1, 1.0, 10)
        with pytest.raises(ValueError):
            lemma_uniform_bound(1.0, 0.1, 1.0, 10)
        with pytest.raises(ValueError):
            lemma_uniform_bound(0.5, 0.1, 0.0, 10)
        with pytest.raises(ValueError, match="degenerate"):
            lemma_nonuniform_bound(0.5, 0.1, 4.0, 2.0, 0.0, 50, 100)
        with pytest.raises(ValueError):
            lemma_nonuniform_bound(0.5, 0.1, 1.0, 2.0, 0.1, 50, 100)  # Lbar > L

    def test_sizes_cap_at_n(self):
        assert sample_size_uniform(0.5, 0.1, 1.0, 100, 50) == 50
        assert sample_size_uniform(0.5, 0.1, 1.0, 100, 10**6) == 487
        assert sample_size_nonuniform(0.5, 0.1, 4.0, 2.0, 0.01, 50, 80) == 80

    def test_uniform_infinite_bound_selects_exact_mode(self):
        # L^2 overflows to inf; the size is n, not an OverflowError
        assert sample_size_uniform(0.5, 0.1, 1e200, 10, 100) == 100

    def test_nonuniform_infinite_bound_selects_exact_mode(self):
        # 1/p_min overflows to inf for a subnormal p_min
        assert sample_size_nonuniform(0.5, 0.1, 1.0, 0.5, 5e-324, 10, 100) == 100

    def test_uniform_lemma_infinite_bound(self):
        assert lemma_uniform_bound(0.5, 0.1, 1e200, 10) == math.inf

    def test_nonuniform_lemma_infinite_bound(self):
        assert lemma_nonuniform_bound(0.5, 0.1, 1.0, 0.5, 5e-324, 10, 100) == math.inf

    def test_finite_bounds_match_capped_lemma(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            eps, delta = rng.uniform(0.01, 0.99, size=2)
            L = float(10.0 ** rng.uniform(-3, 3))
            Lbar = L * float(rng.uniform(0.01, 1.0))
            p_min = float(10.0 ** rng.uniform(-9, 0))
            d, n = int(rng.integers(1, 1000)), int(10 ** rng.uniform(0, 7))
            assert sample_size_uniform(eps, delta, L, d, n) == min(
                lemma_uniform_bound(eps, delta, L, d), n)
            assert sample_size_nonuniform(eps, delta, L, Lbar, p_min, d, n) == min(
                lemma_nonuniform_bound(eps, delta, L, Lbar, p_min, d, n), n)
        # the infinite bounds agree with the cap as well
        assert sample_size_uniform(0.5, 0.1, 1e200, 10, 100) == min(
            lemma_uniform_bound(0.5, 0.1, 1e200, 10), 100)
        assert sample_size_nonuniform(0.5, 0.1, 1.0, 0.5, 5e-324, 10, 100) == min(
            lemma_nonuniform_bound(0.5, 0.1, 1.0, 0.5, 5e-324, 10, 100), 100)


class TestDistribution:
    def test_ridge_weights_proportional_to_row_norms(self):
        # curvature is 2 for every ridge row, so p_j tracks ||a_j||^2
        model = LossModel("ridge_least_squares", 0.0,
                          Dataset.from_dense([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0]))
        p, p_min = nonuniform_distribution(model, np.zeros(2))
        assert np.allclose(p, [0.2, 0.8])
        assert p_min == pytest.approx(0.2)

    def test_zero_weight_rows_excluded_from_p_min(self):
        model = LossModel("ridge_least_squares", 0.0,
                          Dataset.from_dense([[0.0], [1.0], [3.0]], [0.0, 0.0, 0.0]))
        p, p_min = nonuniform_distribution(model, np.zeros(1))
        assert p[0] == 0.0
        assert p_min == pytest.approx(0.1)

    def test_all_zero_curvature_raises(self):
        # the svm data term has zero second derivative at zero margin
        model = LossModel("nonconvex_svm", 0.0,
                          Dataset.from_dense([[1.0], [2.0]], [1.0, -1.0]))
        with pytest.raises(DegenerateCurvatureError):
            nonuniform_distribution(model, np.zeros(1))


def _tiny_curvature_model(n=400, d=3):
    # one nearly-zero-norm row drives p_min toward 0 while L stays small,
    # putting the non-uniform size above the uniform one
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, d)) * 0.1
    A[0] *= 1e-4
    return LossModel("ridge_least_squares", 0.0, Dataset.from_dense(A, np.zeros(n)))


class TestResolvePlan:
    def test_uniform_exact_cap(self):
        rng = np.random.default_rng(1)
        model, x = random_glm_instance(rng, "reg_logistic", n=20, d=5)
        plan = resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model))
        assert plan.exact and plan.size == 20 and plan.scheme == "uniform"

    def test_non_glm_falls_back_to_uniform(self):
        model = LossModel("pca_quadratic", 2.0,
                          Dataset.from_dense(np.eye(3), np.zeros(3)))
        plan = resolve_plan(model, np.ones(3), 0.5, 0.1, LipschitzInfo(2.0, 2.0),
                            scheme="nonuniform")
        assert plan.scheme == "uniform"
        assert plan.requested_scheme == "nonuniform"
        assert plan.downgraded
        assert plan.curvature_sweeps == 0

    def test_degenerate_curvature_falls_back(self):
        model = LossModel("nonconvex_svm", 0.0,
                          Dataset.from_dense([[1.0], [2.0]], [1.0, -1.0]))
        plan = resolve_plan(model, np.zeros(1), 0.5, 0.1,
                            LipschitzInfo(1.0, 0.5), scheme="nonuniform")
        assert plan.scheme == "uniform" and plan.downgraded

    def test_plan_picks_smaller_size(self):
        model = _tiny_curvature_model()
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, np.zeros(3), 0.9, 0.1, lip, scheme="nonuniform")
        uni = sample_size_uniform(0.45, 0.1, lip.L, 3, model.n)
        assert plan.downgraded and plan.scheme == "uniform"
        assert plan.size == uni
        assert plan.probabilities is None
        assert plan.curvature_sweeps == 1  # the sweep happened before the downgrade

    def test_nonuniform_kept_when_smaller(self):
        # equal-norm rows: Lbar == L, so the non-uniform size is about a
        # quarter of the uniform one and neither hits the cap
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4000, 6))
        A *= 2.0 / np.linalg.norm(A, axis=1, keepdims=True)
        b = np.where(rng.random(4000) < 0.5, 1.0, -1.0)
        model = LossModel("reg_logistic", 0.0, Dataset.from_dense(A, b))
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, np.zeros(6), 0.8, 0.1, lip, scheme="nonuniform")
        uni = sample_size_uniform(0.4, 0.1, lip.L, 6, model.n)
        assert plan.scheme == "nonuniform"
        assert not plan.downgraded
        assert plan.size < uni < model.n
        assert plan.probabilities is not None
        assert plan.p_min == pytest.approx(float(plan.probabilities[plan.probabilities > 0].min()))

    def test_fixed_size_override_still_capped(self):
        rng = np.random.default_rng(3)
        model, x = random_glm_instance(rng, "reg_logistic", n=30, d=4)
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, x, 0.5, 0.1, lip, fixed_size=7)
        assert plan.size == 7 and not plan.exact
        plan = resolve_plan(model, x, 0.5, 0.1, lip, fixed_size=10**6)
        assert plan.size == 30 and plan.exact

    def test_eps_domain(self):
        rng = np.random.default_rng(4)
        model, x = random_glm_instance(rng, "reg_logistic")
        lip = LipschitzInfo(1.0, 0.5)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                resolve_plan(model, x, bad, 0.1, lip)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan("uniform", 0.5, 0, False)
        with pytest.raises(ValueError):
            SamplingPlan("nonuniform", 0.5, 3, False,
                         probabilities=np.array([0.5, 0.4]))


class TestSampleStream:
    def test_same_seed_same_draws(self):
        plan = SamplingPlan("uniform", 0.5, 50, False)
        a = SampleStream(42).draw(plan, 100)
        b = SampleStream(42).draw(plan, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, SampleStream(43).draw(plan, 100))

    def test_draw_log(self):
        stream = SampleStream(0)
        plan = SamplingPlan("uniform", 0.5, 10, False)
        stream.draw(plan, 100)
        stream.draw(plan, 100)
        assert stream.draw_log == [(0, "uniform", 10), (1, "uniform", 10)]

    def test_nonuniform_respects_probabilities(self):
        p = np.zeros(5)
        p[2] = 1.0
        plan = SamplingPlan("nonuniform", 0.5, 20, False, probabilities=p, p_min=1.0)
        idx = SampleStream(7).draw(plan, 5)
        assert np.all(idx == 2)


class TestSubsampledHessian:
    def _model(self, n=40, d=6, seed=5):
        rng = np.random.default_rng(seed)
        return random_glm_instance(rng, "reg_logistic", n=n, d=d)

    def test_exact_mode_matches_dense(self):
        model, x = self._model()
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, x, 0.5, 0.1, lip)  # caps at n here
        assert plan.exact
        op = SubsampledHessian(model, x, plan, SampleStream(0), shift=0.0)
        H = dense_hessian(model, x)
        rng = np.random.default_rng(6)
        for _ in range(5):
            v = rng.standard_normal(model.d)
            assert np.allclose(op.matvec(v), H @ v, rtol=1e-12, atol=1e-12)
        assert op.sample_size == model.n

    def test_shift_adds_multiple_of_identity(self):
        model, x = self._model()
        plan = resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model))
        a = SubsampledHessian(model, x, plan, SampleStream(0), shift=0.0)
        b = SubsampledHessian(model, x, plan, SampleStream(0), shift=0.3)
        v = np.random.default_rng(7).standard_normal(model.d)
        assert np.allclose(b.matvec(v), a.matvec(v) + 0.3 * v, rtol=1e-12)

    def test_sampled_weights_reconstruction(self):
        # rebuild the dense sampled operator from the stored indices by hand
        model, x = self._model(n=60, d=4, seed=8)
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, x, 0.9, 0.1, lip, scheme="nonuniform", fixed_size=25)
        op = SubsampledHessian(model, x, plan, SampleStream(11), shift=0.0)
        drawn = SampleStream(11).draw(plan, model.n)  # replay the same draw
        idx, counts = np.unique(drawn, return_counts=True)
        assert np.array_equal(idx, op.indices)
        p = plan.probabilities if plan.probabilities is not None else np.full(model.n, 1.0 / model.n)
        n, m = model.n, plan.size
        curv = curvature_vector(model, x)
        expected = np.zeros((model.d, model.d))
        w_sum = 0.0
        for j, c in zip(idx, counts):
            a = model.dataset.row(j)
            w = c / (n * m * p[j])
            expected += w * curv[j] * np.outer(a, a)
            w_sum += w
        expected += w_sum * model.reg_curvature() * np.eye(model.d)
        assert np.allclose(op.unshifted_dense(), expected, rtol=1e-10, atol=1e-12)

    def test_quad_form_consistent(self):
        model, x = self._model()
        plan = resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model), fixed_size=15)
        op = SubsampledHessian(model, x, plan, SampleStream(1))
        v = np.random.default_rng(9).standard_normal(model.d)
        assert op.quad(v) == pytest.approx(float(v @ op.matvec(v)), rel=1e-12)

    def test_sampled_mean_approaches_dense(self):
        model, x = self._model(n=200, d=5, seed=10)
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, x, 0.9, 0.1, lip, fixed_size=40)
        stream = SampleStream(2)
        acc = np.zeros((5, 5))
        trials = 400
        for _ in range(trials):
            op = SubsampledHessian(model, x, plan, stream, shift=0.0)
            acc += op.unshifted_dense()
        acc /= trials
        H = dense_hessian(model, x)
        err = np.linalg.norm(acc - H, 2) / max(np.linalg.norm(H, 2), 1e-12)
        assert err < 0.05

    def test_spectral_error_zero_in_exact_mode(self):
        model, x = self._model()
        plan = resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model))
        op = SubsampledHessian(model, x, plan, SampleStream(0))
        assert spectral_error(op, model, x) < 1e-12


class TestHessianBuildCache:
    """Builds read margins, link values and (exact mode) curvature from the
    model's point cache and apply A itself in exact mode."""

    BUILDS = [("reg_logistic", "uniform", 15), ("reg_logistic", "nonuniform", 15),
              ("reg_logistic", "uniform", None), ("nonconvex_svm", "nonuniform", 15),
              ("nonconvex_svm", "uniform", None), ("ridge_least_squares", "uniform", 15),
              ("pca_quadratic", "uniform", 15), ("pca_quadratic", "uniform", None)]

    def _instance(self, family):
        rng = np.random.default_rng(21)
        if family == "pca_quadratic":
            return random_pca_instance(rng, n=40, d=5)
        return random_glm_instance(rng, family, n=40, d=5)

    def _plan(self, model, x, scheme, size):
        # exact mode when size is None (the lemma size caps at n = 40)
        return resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model),
                            scheme=scheme, fixed_size=size)

    @pytest.mark.parametrize("family,scheme,size", BUILDS)
    def test_matvec_warm_equals_cold_bitwise(self, family, scheme, size):
        model, x = self._instance(family)
        plan = self._plan(model, x, scheme, size)
        assert plan.exact == (size is None)
        cold_model = LossModel(model.family, model.lam, model.dataset, model.reg_scale,
                               model.linear)
        cold = SubsampledHessian(cold_model, x, plan, SampleStream(3))
        full_gradient(model, x)
        if model.is_glm():
            curvature_vector(model, x)
        warm = SubsampledHessian(model, x, plan, SampleStream(3))
        assert np.array_equal(warm.indices, cold.indices)
        for v in np.random.default_rng(22).standard_normal((3, model.d)):
            assert np.array_equal(warm.matvec(v), cold.matvec(v))

    @pytest.mark.parametrize("family", ["reg_logistic", "pca_quadratic"])
    def test_exact_build_shares_A(self, family):
        model, x = self._instance(family)
        exact = SubsampledHessian(model, x, self._plan(model, x, "uniform", None))
        assert np.shares_memory(exact._A_S.data, model.dataset.A.data)
        sampled = SubsampledHessian(model, x, self._plan(model, x, "uniform", 15),
                                    SampleStream(0))
        assert not np.shares_memory(sampled._A_S.data, model.dataset.A.data)

    def test_uniform_sampled_build_computes_no_curvature_vector(self):
        model, x = self._instance("reg_logistic")
        plan = self._plan(model, x, "uniform", 15)
        full_gradient(model, x)
        SubsampledHessian(model, x, plan, SampleStream(0))
        assert model.at(x).curvature is None
