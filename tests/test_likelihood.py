"""Tests for cut-point expansion, cell probabilities and analytic derivatives."""

import math

import numpy as np
import pytest

from discretefit import (
    Dataset,
    Link,
    ModelSpec,
    ParamVector,
    cell_logprob,
    cutpoints_from_delta,
    fit_intercept_only,
    fit_ml,
    grad_loglik,
    hess_loglik,
    loglik,
    simulate_dataset,
)
from discretefit import predict_prob
from discretefit import likelihood as lk
from discretefit.likelihood import _cut_weights, _evaluate, _interval_logprob, score_matrix

from oracles import finite_diff_grad, finite_diff_jac

# from the erf-series oracle
PHI_1 = 0.8413447460685429
LOG_MID_CELL = math.log(PHI_1 - 0.5)          # ln(Phi(1) - Phi(0))
LOG_TOP_CELL = math.log(1.0 - PHI_1)          # ln(1 - Phi(1))


def _random_instance(family, link, J, n, seed, k=3):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(family, link, J=J, k=k, intercept=True)
    beta = np.array([0.4, -0.8, 0.3])[:k]
    cuts = np.linspace(0.9, 1.8, J - 2) if J > 2 else []
    data = simulate_dataset(spec, beta, cuts, n, rng)
    return spec, data


class TestCutpoints:
    def test_J3_unit_spacing(self):
        np.testing.assert_array_equal(
            cutpoints_from_delta([0.0]), [-np.inf, 0.0, 1.0, np.inf]
        )

    def test_J2_empty(self):
        np.testing.assert_array_equal(cutpoints_from_delta([]), [-np.inf, 0.0, np.inf])

    def test_J4_cumulative(self):
        got = cutpoints_from_delta([math.log(2.0), math.log(3.0)])
        np.testing.assert_allclose(got, [-np.inf, 0.0, 2.0, 5.0, np.inf])

    def test_always_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gamma = cutpoints_from_delta(rng.normal(scale=3.0, size=4))
            assert np.all(np.diff(gamma) > 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cutpoints_from_delta([np.nan])


class TestCellLogprob:
    def test_binary_probit_half(self):
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1)
        gamma = np.array([-np.inf, 0.0, np.inf])
        assert cell_logprob(spec, 0.0, 1, gamma) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_middle_cell_against_cdf_oracle(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1)
        gamma = np.array([-np.inf, 0.0, 1.0, np.inf])
        assert cell_logprob(spec, 0.0, 2, gamma) == pytest.approx(LOG_MID_CELL, rel=1e-12)
        assert cell_logprob(spec, 0.0, 3, gamma) == pytest.approx(LOG_TOP_CELL, rel=1e-12)

    def test_binary_logit_top_cell(self):
        spec = ModelSpec("binary", Link.LOGIT, J=2, k=1)
        gamma = np.array([-np.inf, 0.0, np.inf])
        assert cell_logprob(spec, 0.0, 2, gamma) == pytest.approx(math.log(0.5), abs=1e-15)

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_finite_out_to_35(self, link):
        spec = ModelSpec("ordinal", link, J=3, k=1)
        gamma = np.array([-np.inf, 0.0, 1.0, np.inf])
        for xb in (-35.0, -20.0, 20.0, 34.0):
            for j in (1, 2, 3):
                value = cell_logprob(spec, xb, j, gamma)
                assert math.isfinite(value)
                assert value <= 0.0

    def test_deep_tail_clamps_at_floor(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1)
        gamma = np.array([-np.inf, 0.0, 1.0, np.inf])
        value = cell_logprob(spec, -60.0, 3, gamma)
        assert value == -745.0

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_cells_sum_to_one(self, link):
        spec = ModelSpec("ordinal", link, J=4, k=1)
        gamma = cutpoints_from_delta([-0.3, 0.9])
        for xb in np.linspace(-8.0, 8.0, 33):
            total = sum(math.exp(cell_logprob(spec, xb, j, gamma)) for j in range(1, 5))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_category_out_of_range(self):
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1)
        gamma = np.array([-np.inf, 0.0, np.inf])
        with pytest.raises(ValueError):
            cell_logprob(spec, 0.0, 3, gamma)

    def test_location_identification(self):
        # shifting all cut-points and the linear index by the same constant
        # leaves every cell probability unchanged (evaluated directly on a
        # shifted gamma, bypassing the gamma_1 = 0 normalization)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1)
        gamma = np.array([-np.inf, 0.0, 1.3, np.inf])
        for c in (-2.0, 0.7, 4.2):
            shifted = gamma + c
            for xb in (-1.0, 0.0, 2.5):
                for j in (1, 2, 3):
                    assert cell_logprob(spec, xb, j, gamma) == pytest.approx(
                        cell_logprob(spec, xb + c, j, shifted), rel=1e-12
                    )


class TestLoglik:
    def test_binary_probit_at_zero(self):
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        data = Dataset(y=[1, 1, 2, 2], X=np.ones((4, 1)), column_names=["intercept"], J=2)
        value = loglik(spec, ParamVector([0.0]), data)
        assert value == pytest.approx(4.0 * math.log(0.5), abs=1e-14)

    def test_one_observation_per_cell(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1, intercept=True)
        data = Dataset(y=[1, 2, 3], X=np.ones((3, 1)), column_names=["intercept"], J=3)
        value = loglik(spec, ParamVector([0.0], [0.0]), data)
        expected = math.log(0.5) + LOG_MID_CELL + LOG_TOP_CELL
        assert value == pytest.approx(expected, rel=1e-12)

    def test_binary_reduction_formula(self):
        # the generic cell likelihood collapses to the familiar
        # (1-y) log F(-xb) + y log F(xb) form for J = 2
        rng = np.random.default_rng(3)
        for link in (Link.PROBIT, Link.LOGIT):
            spec = ModelSpec("binary", link, J=2, k=2, intercept=True)
            data = simulate_dataset(spec, [0.3, -0.6], [], 200, rng)
            params = ParamVector([0.2, -0.4])
            xb = data.X @ params.beta
            y01 = (data.y == 2).astype(float)
            direct = np.sum(
                (1.0 - y01) * np.log(link.cdf(-xb)) + y01 * np.log(link.cdf(xb))
            )
            assert loglik(spec, params, data) == pytest.approx(direct, rel=1e-12)

    def test_permutation_invariance(self):
        spec, data = _random_instance("ordinal", Link.LOGIT, J=3, n=100, seed=10)
        params = ParamVector([0.1, -0.2, 0.3], [0.1])
        base = loglik(spec, params, data)
        perm = np.random.default_rng(0).permutation(data.n)
        shuffled = Dataset(y=data.y[perm], X=data.X[perm], column_names=data.column_names, J=3)
        # equality up to summation-order rounding
        assert loglik(spec, params, shuffled) == pytest.approx(base, rel=1e-12)

    def test_binary_equals_J2_ordinal_exactly(self):
        rng = np.random.default_rng(4)
        spec_b = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        data = simulate_dataset(spec_b, [0.5, -0.5], [], 300, rng)
        spec_o = ModelSpec("ordinal", Link.PROBIT, J=2, k=2, intercept=True)
        params = ParamVector([0.3, -0.3])
        assert loglik(spec_b, params, data) == loglik(spec_o, params, data)

    def test_dimension_mismatch(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=2, intercept=True)
        data = Dataset(y=[1, 2, 3], X=np.ones((3, 1)), column_names=["x"], J=3)
        with pytest.raises(ValueError):
            loglik(spec, ParamVector([0.0, 0.0], [0.0]), data)


class TestProportionalOdds:
    def test_cumulative_odds_ratio_constant_over_categories(self):
        spec, data = _random_instance("ordinal", Link.LOGIT, J=4, n=50, seed=11)
        params = ParamVector([0.4, -0.7, 0.2], [-0.2, 0.5])
        gamma = params.cutpoints()
        x1, x2 = data.X[0], data.X[1]
        expected = math.exp(-(x1 - x2) @ params.beta)
        for j in range(1, 4):
            odds = []
            for x in (x1, x2):
                xb = float(x @ params.beta)
                probs = [math.exp(cell_logprob(spec, xb, h, gamma)) for h in range(1, 5)]
                cum = sum(probs[:j])
                odds.append(cum / (1.0 - cum))
            assert odds[0] / odds[1] == pytest.approx(expected, rel=1e-10)


class TestGradient:
    def test_balanced_binary_stationary_at_zero(self):
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        data = Dataset(y=[1, 2] * 10, X=np.ones((20, 1)), column_names=["intercept"], J=2)
        grad = grad_loglik(spec, ParamVector([0.0]), data)
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    @pytest.mark.parametrize("family,J", [("binary", 2), ("ordinal", 3), ("ordinal", 4)])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_matches_finite_differences(self, family, J, link):
        spec, data = _random_instance(family, link, J=J, n=150, seed=17)
        rng = np.random.default_rng(99)
        for _ in range(5):
            theta = np.concatenate([
                rng.uniform(-1.0, 1.0, size=spec.k),
                rng.uniform(-0.5, 0.5, size=J - 2),
            ])
            params = ParamVector(theta[:spec.k], theta[spec.k:])
            analytic = grad_loglik(spec, params, data)

            def f(t):
                return loglik(spec, ParamVector(t[:spec.k], t[spec.k:]), data)

            fd = finite_diff_grad(f, theta, h=1e-5)
            np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-7)


class TestHessian:
    def test_intercept_only_concave_at_mle(self):
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        y = np.array([1] * 5 + [2] * 15)
        data = Dataset(y=y, X=np.ones((20, 1)), column_names=["intercept"], J=2)
        from discretefit import norm_inv_cdf
        beta_hat = norm_inv_cdf(0.75)
        H = hess_loglik(spec, ParamVector([beta_hat]), data)
        assert H.shape == (1, 1)
        assert H[0, 0] < 0.0

    @pytest.mark.parametrize("family,J", [("binary", 2), ("ordinal", 3), ("ordinal", 4)])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_matches_fd_jacobian_of_gradient(self, family, J, link):
        spec, data = _random_instance(family, link, J=J, n=120, seed=23)
        rng = np.random.default_rng(55)
        for _ in range(3):
            theta = np.concatenate([
                rng.uniform(-0.8, 0.8, size=spec.k),
                rng.uniform(-0.4, 0.4, size=J - 2),
            ])
            params = ParamVector(theta[:spec.k], theta[spec.k:])
            H = hess_loglik(spec, params, data)

            def g(t):
                return grad_loglik(spec, ParamVector(t[:spec.k], t[spec.k:]), data)

            fd = finite_diff_jac(g, theta, h=1e-5)
            np.testing.assert_allclose(H, fd, rtol=1e-4, atol=1e-5)

    def test_exactly_symmetric(self):
        spec, data = _random_instance("ordinal", Link.LOGIT, J=4, n=100, seed=27)
        params = ParamVector([0.2, -0.2, 0.4], [0.0, 0.3])
        H = hess_loglik(spec, params, data)
        np.testing.assert_array_equal(H, H.T)


def _two_tail_logprob(link, a, b):
    """Reference form of ``_interval_logprob``: both tails evaluated for
    every element, the one on the side of the interval midpoint kept."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        use_left = b <= -a
        lfa, lfb = link.log_cdf(a), link.log_cdf(b)
        left = lfb + np.log1p(-np.exp(lfa - lfb))
        lsa, lsb = link.log_cdf(-a), link.log_cdf(-b)
        right = lsa + np.log1p(-np.exp(lsb - lsa))
        return np.where(use_left, left, right)


def _mask_cut_weights(y, J, upper, lower):
    """The boolean-mask scatter that built the cut-point weights before."""
    W = np.zeros((y.size, J - 2))
    upper_free = (y >= 2) & (y <= J - 1)
    lower_free = y >= 3
    W[upper_free, y[upper_free] - 2] = upper[upper_free]
    W[lower_free, y[lower_free] - 3] += lower[lower_free]
    return W


class TestFusedKernel:
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_one_tail_logprob_bit_identical_to_two_tail(self, link):
        rng = np.random.default_rng(31)
        ends = np.concatenate([
            [-np.inf, np.inf, 0.0], np.linspace(-40.0, 40.0, 81), rng.uniform(-40.0, 40.0, 300),
        ])
        a, b = np.meshgrid(ends, ends)
        keep = a < b
        lo = rng.uniform(-40.0, 40.0, 2000)
        narrow = lo + 10.0 ** rng.uniform(-12.0, 0.0, lo.size)
        a = np.concatenate([a[keep], lo])
        b = np.concatenate([b[keep], narrow])
        want = _two_tail_logprob(link, a, b)
        got, n_clamped = _interval_logprob(link, a, b)
        assert n_clamped == int(np.sum(want < -745.0))
        np.testing.assert_array_equal(got, np.maximum(want, -745.0))

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_zero_dimensional_bounds_match_arrays(self, link):
        a = np.array([-np.inf, -np.inf, -3.0, 0.5, 30.0, -30.0])
        b = np.array([-2.0, np.inf, np.inf, 0.75, 30.5, -29.5])
        want, _ = _interval_logprob(link, a, b)
        for i in range(a.size):
            got, n_clamped = _interval_logprob(link, a[i], b[i])
            assert np.ndim(got) == 0 and n_clamped == 0
            assert got == want[i]

    @pytest.mark.parametrize("family,J", [("binary", 2), ("ordinal", 3), ("ordinal", 5)])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_evaluate_orders_agree_with_public_kernels(self, family, J, link):
        spec, data = _random_instance(family, link, J=J, n=300, seed=41)
        params = ParamVector([0.2, -0.5, 0.3], np.linspace(-0.2, 0.3, J - 2))
        ll0, clamps0, grad0, H0 = _evaluate(spec, params, data, 0)
        ll1, clamps1, grad1, H1 = _evaluate(spec, params, data, 1)
        ll2, clamps2, grad2, H2 = _evaluate(spec, params, data, 2)
        assert grad0 is None and H0 is None and H1 is None
        assert ll0 == ll1 == ll2 == loglik(spec, params, data)
        assert clamps0 == clamps1 == clamps2 == 0
        np.testing.assert_array_equal(grad1, grad2)
        np.testing.assert_array_equal(grad1, grad_loglik(spec, params, data))
        np.testing.assert_array_equal(H2, hess_loglik(spec, params, data))
        # the per-observation scores sum to the gradient up to rounding
        scores = score_matrix(spec, params, data)
        assert scores.shape == (data.n, spec.n_params)
        np.testing.assert_allclose(grad1, scores.sum(axis=0), rtol=1e-12, atol=1e-11)

    @pytest.mark.parametrize("family,J", [("binary", 2), ("ordinal", 3), ("ordinal", 5)])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_closed_form_baseline_matches_intercept_only_fit(self, family, J, link):
        spec, data = _random_instance(family, link, J=J, n=2000, seed=43)
        fit = fit_ml(spec, data)
        baseline = fit_intercept_only(spec, data)
        assert baseline.converged
        assert fit.loglik_0 == pytest.approx(baseline.loglik_fit, rel=1e-10)


    @pytest.mark.parametrize("J", [3, 4, 5])
    @pytest.mark.parametrize("absent", ["none", "first", "last", "both"])
    def test_cut_weights_bit_identical_to_mask_scatter(self, J, absent):
        # rows of categories 1 and J take no weight at gamma_y
        rng = np.random.default_rng(J)
        y = rng.integers(1, J + 1, 500)
        if absent in ("first", "both"):
            y[y == 1] = 2
        if absent in ("last", "both"):
            y[y == J] = J - 1
        upper, lower = rng.standard_normal((2, y.size))
        got = _cut_weights(y, J, upper, lower)
        want = _mask_cut_weights(y, J, upper, lower)
        np.testing.assert_array_equal(got, want)
        X = rng.standard_normal((y.size, 4))
        np.testing.assert_array_equal(X.T @ got, X.T @ want)

    @pytest.mark.parametrize("J", [2, 3, 4, 5])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_predict_prob_bit_identical_to_all_columns_form(self, J, link):
        rng = np.random.default_rng(50 + J)
        spec = ModelSpec("binary" if J == 2 else "ordinal", link, J=J, k=2, intercept=True)
        params = ParamVector([0.3, 1.0], rng.normal(scale=0.5, size=J - 2))
        x = np.concatenate([np.linspace(-40.0, 40.0, 161), rng.uniform(-40.0, 40.0, 300)])
        X = np.column_stack([np.ones(x.size), x])
        xb = X @ params.beta
        # the cdf at every cut-point, -inf and +inf included
        want = np.diff(link.cdf(params.cutpoints()[None, :] - xb[:, None]), axis=1)
        np.testing.assert_array_equal(predict_prob(spec, params, X), want)


def _inline_pdf_ratios(spec, a, b, logp):
    """The pdf ratios from one ``log_pdf`` call per bound, and the logit
    cdf from a separate ``cdf`` call per bound."""
    link = spec.link
    with np.errstate(invalid="ignore", over="ignore"):
        r_a = np.exp(link.log_pdf(a) - logp)
        r_b = np.exp(link.log_pdf(b) - logp)
    cdfs = None if link is Link.PROBIT else (link.cdf(a), link.cdf(b))
    return r_a, r_b, cdfs


def _inline_curvature_terms(spec, a, b, r_a, r_b):
    """d2 log p / d(a, b)^2 written out from ``Link.cdf``."""
    if spec.link is Link.PROBIT:
        with np.errstate(invalid="ignore"):
            da = np.where(np.isfinite(a), a * r_a, 0.0)
            db = np.where(np.isfinite(b), -b * r_b, 0.0)
    else:
        da = -r_a * (1.0 - 2.0 * spec.link.cdf(a))
        db = r_b * (1.0 - 2.0 * spec.link.cdf(b))
    return da - r_a * r_a, db - r_b * r_b, r_a * r_b


def _wide_instance(link, J, n, seed):
    """Data drawn from the model with x'b spread over [-40, 40], so the
    interval bounds reach |w| = 40 besides the infinite outer cut-points."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec("binary" if J == 2 else "ordinal", link, J=J, k=3, intercept=True)
    params = ParamVector([0.3, 1.0, -0.5], np.linspace(-0.3, 0.2, J - 2))
    X = np.column_stack([np.ones(n), rng.uniform(-40.0, 40.0, n), rng.standard_normal(n)])
    noise = rng.logistic(size=n) if link is Link.LOGIT else rng.standard_normal(n)
    y = np.searchsorted(params.cutpoints()[1:-1], X @ params.beta + noise, side="left") + 1
    data = Dataset(y=y, X=X, column_names=["intercept", "x1", "x2"], J=J)
    return spec, params, data


class TestSharedExponentialDerivatives:
    """The derivative stage, which takes the logit log-density and cdf at a
    bound from one exp(-|w|), keeps the bits of the inline formulas."""

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_bound_terms_bit_identical(self, link):
        rng = np.random.default_rng(61)
        ends = np.concatenate([[-np.inf, np.inf, 0.0], np.linspace(-40.0, 40.0, 81),
                               rng.uniform(-40.0, 40.0, 200)])
        a, b = np.meshgrid(ends, ends)
        keep = a < b
        a, b = a[keep], b[keep]
        spec = ModelSpec("ordinal", link, J=3, k=1)
        logp, _ = _interval_logprob(link, a, b)
        r_a, r_b, cdfs = lk._pdf_ratios(spec, a, b, logp)
        want_a, want_b, _ = _inline_pdf_ratios(spec, a, b, logp)
        np.testing.assert_array_equal(r_a, want_a)
        np.testing.assert_array_equal(r_b, want_b)
        got = lk._curvature_terms(spec, a, b, r_a, r_b, cdfs)
        for g, w in zip(got, _inline_curvature_terms(spec, a, b, want_a, want_b)):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("J", [2, 3, 4, 5])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_gradient_and_hessian_bit_identical(self, link, J, monkeypatch):
        spec, params, data = _wide_instance(link, J, n=400, seed=70 + J)
        _, _, grad, H = _evaluate(spec, params, data, 2)
        assert np.all(np.isfinite(H))
        monkeypatch.setattr(lk, "_pdf_ratios", _inline_pdf_ratios)
        monkeypatch.setattr(lk, "_curvature_terms",
                            lambda spec, a, b, r_a, r_b, cdfs: _inline_curvature_terms(spec, a, b, r_a, r_b))
        _, _, want_grad, want_H = _evaluate(spec, params, data, 2)
        np.testing.assert_array_equal(grad, want_grad)
        np.testing.assert_array_equal(H, want_H)


class TestModelSpecValidation:
    def test_binary_requires_two_categories(self):
        with pytest.raises(ValueError):
            ModelSpec("binary", Link.PROBIT, J=3, k=1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ModelSpec("multinomial", Link.PROBIT, J=3, k=1)

    def test_ordinal_accepts_J2(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=2, k=1)
        assert spec.n_params == 1
