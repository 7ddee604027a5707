import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sarc.problems import (
    FAMILIES,
    Dataset,
    DegenerateCurvatureError,
    LipschitzInfo,
    LossModel,
    curvature_vector,
    full_gradient,
    lipschitz_bounds,
)
from sarc.sampling import (
    SampleStream,
    SamplingPlan,
    SubsampledHessian,
    nonuniform_distribution,
    resolve_plan,
    sample_size_nonuniform,
    sample_size_uniform,
)

from oracles import (
    always_sweep_plan,
    counted_build,
    dense_hessian,
    lemma_nonuniform_bound,
    lemma_uniform_bound,
    quad,
    random_glm_instance,
    random_pca_instance,
    row,
    spectral_error,
    unshifted_dense,
)


class TestLemmaBounds:
    """The capped src sizes against the uncapped formulas in `oracles`."""

    def test_uniform_frozen_values(self):
        # quadratic term dominates: max(16*1/0.25, 4/0.5) = 64; 64*ln(2000) -> 487
        # max(16*0.25/0.25, 4*0.5/0.5) = 16; 16*ln(2000) -> 122
        # linear term dominates: max(16*0.01/0.64, 0.5) = 0.5; 0.5*ln(100) -> 3
        for args, size in (((0.5, 0.1, 1.0, 100), 487), ((0.5, 0.1, 0.5, 100), 122),
                           ((0.8, 0.2, 0.1, 10), 3)):
            assert math.ceil(lemma_uniform_bound(*args)) == size
            assert sample_size_uniform(*args, n=10**6) == size

    def test_nonuniform_frozen_value(self):
        # max(4*4/0.25, 16*1.98) = 64; 64*ln(1000) -> 443
        assert math.ceil(lemma_nonuniform_bound(0.5, 0.1, 4.0, 2.0, 0.01, 50, 100)) == 443
        # n only enters the linear term, which does not dominate here
        assert sample_size_nonuniform(0.5, 0.1, 4.0, 2.0, 0.01, 50, 10**6) == 443

    def test_nonuniform_grows_as_p_min_shrinks(self):
        # the p_min term overtakes the quadratic term (64) once 1/p_min is
        # about 3n; n is large enough that no size reaches the cap
        kw = dict(eps=0.5, per_iter_delta=0.1, L=4.0, Lbar=2.0, d=50, n=10**6)
        sizes = [sample_size_nonuniform(p_min=p, **kw) for p in (0.5, 1e-5, 1e-8)]
        assert sizes[0] <= sizes[1] < sizes[2] < kw["n"]
        assert sizes[2] == math.ceil(lemma_nonuniform_bound(0.5, 0.1, 4.0, 2.0, 1e-8, 50, 10**6))

    def test_domain_validation(self):
        for args in ((0.0, 0.1, 1.0, 10, 100), (1.0, 0.1, 1.0, 10, 100),
                     (0.5, 0.1, 0.0, 10, 100), (0.5, 0.1, 1.0, 10, 0)):
            with pytest.raises(ValueError):
                sample_size_uniform(*args)
        with pytest.raises(ValueError, match="degenerate"):
            sample_size_nonuniform(0.5, 0.1, 4.0, 2.0, 0.0, 50, 100)
        with pytest.raises(ValueError):
            sample_size_nonuniform(0.5, 0.1, 1.0, 2.0, 0.1, 50, 100)  # Lbar > L
        with pytest.raises(ValueError):
            sample_size_nonuniform(0.5, 0.1, 4.0, 2.0, 0.01, 50, 0)

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
        # the uncapped formula on the input the exact-mode test caps
        assert lemma_uniform_bound(0.5, 0.1, 1e200, 10) == math.inf

    def test_nonuniform_lemma_infinite_bound(self):
        assert lemma_nonuniform_bound(0.5, 0.1, 1.0, 0.5, 5e-324, 10, 100) == math.inf

    def test_nan_bound_selects_exact_mode(self):
        assert sample_size_uniform(0.5, 0.1, math.nan, 10, 100) == 100

    def test_finite_bounds_match_capped_lemma(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            eps, delta = rng.uniform(0.01, 0.99, size=2)
            L = float(10.0 ** rng.uniform(-3, 3))
            Lbar = L * float(rng.uniform(0.01, 1.0))
            p_min = float(10.0 ** rng.uniform(-9, 0))
            d, n = int(rng.integers(1, 1000)), int(10 ** rng.uniform(0, 7))
            assert sample_size_uniform(eps, delta, L, d, n) == min(
                math.ceil(lemma_uniform_bound(eps, delta, L, d)), n)
            assert sample_size_nonuniform(eps, delta, L, Lbar, p_min, d, n) == min(
                math.ceil(lemma_nonuniform_bound(eps, delta, L, Lbar, p_min, d, n)), n)


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


def _degenerate_curvature_model(n=400, d=3):
    # the svm data term has zero second derivative at zero margin, so every
    # non-uniform weight vanishes at x = 0
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, d)) * 0.1
    b = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return LossModel("nonconvex_svm", 0.0, Dataset.from_dense(A, b))


def _equal_norm_model(n=4000, d=6):
    # equal-norm rows: Lbar == L, so the non-uniform size is about a quarter
    # of the uniform one and neither hits the cap
    rng = np.random.default_rng(2)
    A = rng.standard_normal((n, d))
    A *= 2.0 / np.linalg.norm(A, axis=1, keepdims=True)
    b = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return LossModel("reg_logistic", 0.0, Dataset.from_dense(A, b))


_PLAN_CASES = {
    "degenerate": _degenerate_curvature_model,  # lemma sizes: uniform 6
    "nonuniform_smaller": _equal_norm_model,  # uniform 479, non-uniform 120
    "nonuniform_larger": _tiny_curvature_model,  # uniform 40 < non-uniform
}

# (requested scheme, curvature case, fixed_size) -> (weighted, size, exact,
# downgraded, curvature_sweeps), where weighted means the plan keeps its
# probabilities; fixed_size "n" means exactly n. A plan that is exact whatever
# the probabilities are sweeps nothing, so it is never downgraded.
_PLAN_TABLE = [
    ("uniform", "degenerate", None, (False, 6, False, False, 0)),
    ("uniform", "degenerate", 50, (False, 50, False, False, 0)),
    ("uniform", "degenerate", "n", (False, 400, True, False, 0)),
    ("uniform", "degenerate", 10**6, (False, 400, True, False, 0)),
    ("uniform", "nonuniform_smaller", None, (False, 479, False, False, 0)),
    ("uniform", "nonuniform_smaller", 50, (False, 50, False, False, 0)),
    ("uniform", "nonuniform_smaller", "n", (False, 4000, True, False, 0)),
    ("uniform", "nonuniform_smaller", 10**6, (False, 4000, True, False, 0)),
    ("uniform", "nonuniform_larger", None, (False, 40, False, False, 0)),
    ("uniform", "nonuniform_larger", 50, (False, 50, False, False, 0)),
    ("uniform", "nonuniform_larger", "n", (False, 400, True, False, 0)),
    ("uniform", "nonuniform_larger", 10**6, (False, 400, True, False, 0)),
    ("nonuniform", "degenerate", None, (False, 6, False, True, 0)),
    ("nonuniform", "degenerate", 50, (False, 50, False, True, 0)),
    ("nonuniform", "degenerate", "n", (False, 400, True, False, 0)),
    ("nonuniform", "degenerate", 10**6, (False, 400, True, False, 0)),
    ("nonuniform", "nonuniform_smaller", None, (True, 120, False, False, 1)),
    ("nonuniform", "nonuniform_smaller", 50, (True, 50, False, False, 1)),
    ("nonuniform", "nonuniform_smaller", "n", (False, 4000, True, False, 0)),
    ("nonuniform", "nonuniform_smaller", 10**6, (False, 4000, True, False, 0)),
    ("nonuniform", "nonuniform_larger", None, (False, 40, False, True, 1)),
    ("nonuniform", "nonuniform_larger", 50, (False, 50, False, True, 1)),
    ("nonuniform", "nonuniform_larger", "n", (False, 400, True, False, 0)),
    ("nonuniform", "nonuniform_larger", 10**6, (False, 400, True, False, 0)),
]


class TestResolvePlan:
    @pytest.mark.parametrize("requested,case,fixed,expected", _PLAN_TABLE)
    def test_decision_table(self, requested, case, fixed, expected):
        model = _PLAN_CASES[case]()
        fixed = model.n if fixed == "n" else fixed
        plan = resolve_plan(model, np.zeros(model.d), 0.8, 0.1, lipschitz_bounds(model),
                            scheme=requested, fixed_size=fixed)
        weighted = plan.probabilities is not None
        got = (weighted, plan.size, plan.exact, plan.downgraded, plan.curvature_sweeps)
        assert got == expected

    def test_uniform_exact_cap(self):
        rng = np.random.default_rng(1)
        model, x = random_glm_instance(rng, "reg_logistic", n=20, d=5)
        plan = resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model))
        assert plan.exact and plan.size == 20 and plan.probabilities is None

    def test_pca_keeps_nonuniform(self):
        # curvature -1 everywhere: p_j is proportional to ||a_j||^2
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 3)) * rng.uniform(0.5, 2.0, size=(40, 1))
        model = LossModel("pca_quadratic", 2.0, Dataset.from_dense(A, np.zeros(40)))
        plan = resolve_plan(model, np.ones(3), 0.5, 0.1, lipschitz_bounds(model),
                            scheme="nonuniform", fixed_size=10)
        assert plan.probabilities is not None and not plan.downgraded and not plan.exact
        sq = np.sum(A * A, axis=1)
        assert np.allclose(plan.probabilities, sq / sq.sum(), rtol=1e-12, atol=0.0)
        assert plan.curvature_sweeps == 1

    def test_degenerate_curvature_falls_back(self):
        # a fixed size below n keeps the plan sampled, so the sweep runs
        model = LossModel("nonconvex_svm", 0.0,
                          Dataset.from_dense([[1.0], [2.0]], [1.0, -1.0]))
        plan = resolve_plan(model, np.zeros(1), 0.5, 0.1,
                            LipschitzInfo(1.0, 0.5), scheme="nonuniform", fixed_size=1)
        assert plan.probabilities is None and plan.downgraded
        assert plan.curvature_sweeps == 0 and not plan.exact

    def test_plan_picks_smaller_size(self):
        model = _tiny_curvature_model()
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, np.zeros(3), 0.9, 0.1, lip, scheme="nonuniform")
        uni = sample_size_uniform(0.45, 0.1, lip.L, 3, model.n)
        assert plan.downgraded and plan.probabilities is None
        assert plan.size == uni
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
        assert plan.probabilities is not None
        assert not plan.downgraded
        assert plan.size < uni < model.n

    def test_fixed_size_override_still_capped(self):
        rng = np.random.default_rng(3)
        model, x = random_glm_instance(rng, "reg_logistic", n=30, d=4)
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, x, 0.5, 0.1, lip, fixed_size=7)
        assert plan.size == 7 and not plan.exact
        plan = resolve_plan(model, x, 0.5, 0.1, lip, fixed_size=10**6)
        assert plan.size == 30 and plan.exact

    def test_fixed_size_must_be_an_integer(self):
        rng = np.random.default_rng(3)
        model, x = random_glm_instance(rng, "reg_logistic", n=30, d=4)
        lip = lipschitz_bounds(model)
        for bad in (2.5, True, 3.0):
            with pytest.raises(TypeError, match="^fixed_size must be an integer"):
                resolve_plan(model, x, 0.5, 0.1, lip, fixed_size=bad)
        assert resolve_plan(model, x, 0.5, 0.1, lip, fixed_size=np.int64(7)).size == 7

    def test_eps_domain(self):
        rng = np.random.default_rng(4)
        model, x = random_glm_instance(rng, "reg_logistic")
        lip = LipschitzInfo(1.0, 0.5)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                resolve_plan(model, x, bad, 0.1, lip)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(0, False)
        with pytest.raises(ValueError):
            SamplingPlan(3, False, probabilities=np.array([0.5, 0.4]))

    def test_nan_probabilities_are_rejected(self):
        with pytest.raises(ValueError, match="sum to nan"):
            SamplingPlan(3, False, probabilities=np.array([np.nan, 0.5, 0.5]))

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1),
           family=st.sampled_from(FAMILIES),
           n=st.integers(2, 3000),
           d=st.integers(1, 6),
           row_scale=st.floats(1e-3, 2.0),
           eps_i=st.floats(1e-3, 1.0),
           delta=st.floats(1e-4, 0.05),
           fixed=st.none() | st.integers(1, 3003))
    def test_size_and_exact_match_an_always_sweep_reference(
            self, seed, family, n, d, row_scale, eps_i, delta, fixed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, d)) * row_scale
        b = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        model = LossModel(family, 0.01, Dataset.from_dense(A, b))
        x = rng.standard_normal(d)
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, x, eps_i, delta, lip, scheme="nonuniform", fixed_size=fixed)
        assert (plan.size, plan.exact) == always_sweep_plan(model, x, eps_i, delta, lip, fixed)
        if plan.curvature_sweeps == 0 and not plan.downgraded:
            assert plan.exact  # only a plan exact for any weights skips the sweep


class TestSampleStream:
    def test_same_seed_same_draws(self):
        plan = SamplingPlan(50, False)
        a = SampleStream(42).draw(plan, 100)
        b = SampleStream(42).draw(plan, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, SampleStream(43).draw(plan, 100))

    def test_nonuniform_respects_probabilities(self):
        p = np.zeros(5)
        p[2] = 1.0
        plan = SamplingPlan(20, False, probabilities=p)
        idx = SampleStream(7).draw(plan, 5)
        assert np.all(idx == 2)

    @settings(max_examples=200)
    @given(key=st.integers(0, 2**64 - 1),
           weights=hnp.arrays(float, st.integers(1, 60),
                              elements=st.sampled_from([0.0]) | st.floats(1e-3, 1.0)),
           size=st.integers(1, 150))
    def test_nonuniform_draw_is_generator_choice_sorted(self, key, weights, size):
        weights[0] += 1e-3  # some row has positive probability
        n = weights.shape[0]
        p = weights / weights.sum()
        stream = SampleStream(key)
        got = stream.draw(SamplingPlan(size, False, probabilities=p), n)
        ref = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(got, np.sort(ref.choice(n, size, replace=True, p=p)))
        assert np.array_equal(stream.draw(SamplingPlan(7, False), n), ref.integers(0, n, 7))

    def test_probabilities_of_another_length_are_rejected(self):
        plan = SamplingPlan(4, False, probabilities=np.full(5, 0.2))
        with pytest.raises(ValueError, match="for 6 rows"):
            SampleStream(0).draw(plan, 6)


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
        assert op.plan.size == model.n

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
            a = row(model.dataset, j)
            w = c / (n * m * p[j])
            expected += w * curv[j] * np.outer(a, a)
            w_sum += w
        expected += w_sum * model.reg_curvature() * np.eye(model.d)
        assert np.allclose(unshifted_dense(op), expected, rtol=1e-10, atol=1e-12)

    def test_quad_form_consistent(self):
        model, x = self._model()
        plan = resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model), fixed_size=15)
        op = SubsampledHessian(model, x, plan, SampleStream(1), shift=0.25)
        v = np.random.default_rng(9).standard_normal(model.d)
        dense = unshifted_dense(op) + op.shift * np.eye(model.d)
        assert quad(op, v) == pytest.approx(float(v @ dense @ v), rel=1e-12)

    def test_sampled_mean_approaches_dense(self):
        model, x = self._model(n=200, d=5, seed=10)
        lip = lipschitz_bounds(model)
        plan = resolve_plan(model, x, 0.9, 0.1, lip, fixed_size=40)
        stream = SampleStream(2)
        acc = np.zeros((5, 5))
        trials = 400
        for _ in range(trials):
            op = SubsampledHessian(model, x, plan, stream, shift=0.0)
            acc += unshifted_dense(op)
        acc /= trials
        H = dense_hessian(model, x)
        err = np.linalg.norm(acc - H, 2) / max(np.linalg.norm(H, 2), 1e-12)
        assert err < 0.05

    @pytest.mark.parametrize("size", [15, None])
    def test_point_as_list_or_column(self, size):
        # sampled and exact builds both read x as d floats, whatever its form
        model, x = self._model()
        plan = resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model), fixed_size=size)
        assert plan.exact == (size is None)
        x32 = x.astype(np.float32)
        v = np.random.default_rng(12).standard_normal(model.d)
        for point, same in ((list(x), x), (x.reshape(-1, 1), x), (x32, x32.astype(float))):
            op = SubsampledHessian(model, point, plan, SampleStream(4), shift=0.25)
            ref = SubsampledHessian(model, same, plan, SampleStream(4), shift=0.25)
            assert np.array_equal(op.matvec(v), ref.matvec(v))

    def test_spectral_error_zero_in_exact_mode(self):
        model, x = self._model()
        plan = resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model))
        op = SubsampledHessian(model, x, plan, SampleStream(0), shift=0.25)
        assert spectral_error(op, model, x) < 1e-12


class TestWeightsUnbiased:
    """The build's importance weight of component j is count_j / (n m p_j)
    with count_j ~ Binomial(m, p_j), so E[w_j] = 1/n whenever p_j > 0. One
    build with m = 200,000 draws checks it to within 6 standard deviations,
    for every family under both schemes. Rows with p_j = 0 are never drawn;
    their component Hessian term vanishes, but their weight does not average
    to 1/n, so they are left out."""

    @settings(max_examples=40)
    @given(st.sampled_from(FAMILIES), st.sampled_from(["uniform", "nonuniform"]),
           st.integers(0, 2**32 - 1))
    def test_weights_average_to_one_over_n(self, family, scheme, seed):
        rng = np.random.default_rng(seed)
        if family == "pca_quadratic":
            model, x = random_pca_instance(rng)
        else:
            model, x = random_glm_instance(rng, family)
        n, m = model.n, 200_000
        plan = resolve_plan(model, x, 0.5, 0.1, lipschitz_bounds(model),
                            scheme=scheme, fixed_size=n - 1)
        assert (plan.probabilities is not None) == (scheme == "nonuniform")
        assert not plan.exact
        op = SubsampledHessian(model, x, dataclasses.replace(plan, size=m), SampleStream(seed),
                                shift=0.0)
        w = np.zeros(n)
        w[op.indices] = op._weights
        p = plan.probabilities if scheme == "nonuniform" else np.full(n, 1.0 / n)
        live = p > 0.0
        tol = (6.0 * np.sqrt(m * p[live]) + 6.0) / (n * m * p[live])
        assert np.all(np.abs(w[live] - 1.0 / n) <= tol)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBuildCounts:
    """A sampled build reads its distinct rows and their counts off the runs
    of the sorted draw, and an exact build scales the curvature by 1/n: both
    keep the bits of a bincount over all n rows and of the weight array
    np.full(n, 1/n) (`oracles.counted_build`)."""

    @staticmethod
    def _model(family, n, seed):
        rng = np.random.default_rng(seed)
        if family == "pca_quadratic":
            return random_pca_instance(rng, n=n, d=3)
        return random_glm_instance(rng, family, n=n, d=3)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sampled_build_matches_a_bincount_over_all_rows(self, data):
        family = data.draw(st.sampled_from(FAMILIES))
        n = data.draw(st.integers(1, 40))
        size = data.draw(st.integers(1, 3 * n))  # below, at and above n
        seed = data.draw(st.integers(0, 2**32 - 1))
        model, x = self._model(family, n, seed)
        if data.draw(st.booleans()):
            # rows with zero probability, and at least one without
            weights = data.draw(hnp.arrays(float, n, elements=st.sampled_from([0.0])
                                           | st.floats(1e-3, 1.0)))
            weights[data.draw(st.integers(0, n - 1))] += 1e-3
            plan = SamplingPlan(size, False, probabilities=weights / weights.sum())
        else:
            plan = SamplingPlan(size, False)
        op = SubsampledHessian(model, x, plan, SampleStream(seed), shift=0.0)
        idx, w, coeffs, diag = counted_build(model, x, plan, SampleStream(seed))
        assert _same_bits(op.indices, idx)
        assert _same_bits(op._weights, w)
        assert _same_bits(op._coeffs, coeffs)
        assert _same_bits(op._diag, diag)

    @pytest.mark.parametrize("n, p, row", [(1, None, 0), (5, [0.0, 0.0, 1.0, 0.0, 0.0], 2)])
    def test_a_single_distinct_row(self, n, p, row):
        # every draw lands on one row: a uniform draw over one row, or the
        # only row with positive probability
        model, x = self._model("reg_logistic", n, 3)
        plan = SamplingPlan(7, False, probabilities=None if p is None else np.array(p))
        op = SubsampledHessian(model, x, plan, SampleStream(0), shift=0.0)
        idx, w, coeffs, diag = counted_build(model, x, plan, SampleStream(0))
        assert op.indices.tolist() == [row] and _same_bits(op.indices, idx)
        assert _same_bits(op._weights, w) and _same_bits(op._coeffs, coeffs)
        assert _same_bits(op._diag, diag)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 3, 7, 10, 49, 129, 1000, 8193, 200_003])
    def test_exact_build_matches_the_weight_array(self, family, n):
        # numpy's pairwise sum of n copies of 1/n misses 1 in the last bit at
        # some n; the build keeps that sum's bits
        model, x = self._model(family, n, n)
        op = SubsampledHessian(model, x, SamplingPlan(n, True), shift=0.0)
        idx, w, coeffs, diag = counted_build(model, x, SamplingPlan(n, True), None)
        assert _same_bits(op.indices, idx)
        assert _same_bits(op._coeffs, coeffs)
        assert _same_bits(op._diag, diag)
        assert op._weights == 1.0 / n


class TestHessianBuildCache:
    """Builds read margins, link values and (exact mode) curvature from the
    model's point cache and apply the dataset's product pair in exact mode."""

    BUILDS = [("reg_logistic", "uniform", 15), ("reg_logistic", "nonuniform", 15),
              ("reg_logistic", "uniform", None), ("nonconvex_svm", "nonuniform", 15),
              ("nonconvex_svm", "uniform", None), ("ridge_least_squares", "uniform", 15),
              ("pca_quadratic", "uniform", 15), ("pca_quadratic", "nonuniform", 15),
              ("pca_quadratic", "uniform", None)]

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
        cold = SubsampledHessian(cold_model, x, plan, SampleStream(3), shift=0.25)
        full_gradient(model, x)
        curvature_vector(model, x)
        warm = SubsampledHessian(model, x, plan, SampleStream(3), shift=0.25)
        assert np.array_equal(warm.indices, cold.indices)
        for v in np.random.default_rng(22).standard_normal((3, model.d)):
            assert np.array_equal(warm.matvec(v), cold.matvec(v))

    @pytest.mark.parametrize("family,sparse", [
        pytest.param("reg_logistic", False, id="reg_logistic"),
        pytest.param("pca_quadratic", False, id="pca_quadratic"),
        pytest.param("reg_logistic", True, id="reg_logistic-sparse")])
    def test_exact_build_shares_A(self, family, sparse):
        model, x = self._instance(family)
        if sparse:  # below 2/3 density the pair keeps the CSR itself
            A = model.dataset.A.toarray()
            A[np.random.default_rng(23).random(A.shape) < 0.6] = 0.0
            model = LossModel(family, model.lam, Dataset.from_dense(A, model.dataset.b),
                              model.reg_scale, model.linear)
        cached = model.dataset.products()
        assert sp.issparse(cached.M) == sparse

        def buffer(M):
            return M.data if sp.issparse(M) else M

        exact = SubsampledHessian(model, x, self._plan(model, x, "uniform", None), shift=0.0)
        assert exact._rows is cached
        assert np.shares_memory(buffer(exact._rows.M), buffer(cached.M))
        if sparse:
            assert np.shares_memory(cached.M.data, model.dataset.A.data)
        sampled = SubsampledHessian(model, x, self._plan(model, x, "uniform", 15),
                                    SampleStream(0), shift=0.0)
        assert sampled._rows is not cached
        assert not np.shares_memory(buffer(sampled._rows.M), buffer(cached.M))
        assert not np.shares_memory(buffer(sampled._rows.M), model.dataset.A.data)

    def test_uniform_sampled_build_computes_no_curvature_vector(self):
        model, x = self._instance("reg_logistic")
        plan = self._plan(model, x, "uniform", 15)
        full_gradient(model, x)
        SubsampledHessian(model, x, plan, SampleStream(0), shift=0.0)
        assert model.at(x).curvature is None
