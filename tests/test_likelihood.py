"""Tests for cut-point expansion, cell probabilities and analytic derivatives."""

import dataclasses
import math
import os
import signal
import threading
import time
import warnings

import mpmath
import numpy as np
import pytest

from discretefit import (
    Dataset,
    Link,
    ModelSpec,
    ParamVector,
    cutpoints_from_delta,
    fit_intercept_only,
    fit_ml,
    grad_loglik,
    hess_loglik,
    loglik,
    simulate_dataset,
)
from discretefit import predict_prob
from discretefit import estimation
from discretefit import likelihood as lk
from discretefit.likelihood import _interval_logprob, score_matrix

from oracles import (
    bound_terms_unblocked,
    cut_weights_unblocked,
    derivative_pass_unblocked,
    finite_diff_grad,
    finite_diff_jac,
)

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
    """Cell log-probabilities of ``_interval_logprob``: at a linear index xb
    the cells 1..J of cut-point vector gamma have the intervals
    (gamma[:-1] - xb, gamma[1:] - xb)."""

    def test_binary_probit_half(self):
        gamma = np.array([-np.inf, 0.0, np.inf])
        logp = _interval_logprob(Link.PROBIT, gamma[:-1], gamma[1:])
        assert logp[0] == pytest.approx(math.log(0.5), abs=1e-15)

    def test_middle_cell_against_cdf_oracle(self):
        gamma = np.array([-np.inf, 0.0, 1.0, np.inf])
        logp = _interval_logprob(Link.PROBIT, gamma[:-1], gamma[1:])
        assert logp[1] == pytest.approx(LOG_MID_CELL, rel=1e-12)
        assert logp[2] == pytest.approx(LOG_TOP_CELL, rel=1e-12)

    def test_binary_logit_top_cell(self):
        gamma = np.array([-np.inf, 0.0, np.inf])
        logp = _interval_logprob(Link.LOGIT, gamma[:-1], gamma[1:])
        assert logp[1] == pytest.approx(math.log(0.5), abs=1e-15)

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_finite_out_to_35(self, link):
        gamma = np.array([-np.inf, 0.0, 1.0, np.inf])
        for xb in (-35.0, -20.0, 20.0, 34.0):
            logp = _interval_logprob(link, gamma[:-1] - xb, gamma[1:] - xb)
            assert np.all(np.isfinite(logp))
            assert np.all(logp <= 0.0)

    def test_deep_tail_is_finite_below_the_log_of_the_smallest_double(self):
        gamma = np.array([-np.inf, 0.0, 1.0, np.inf])
        a, b = gamma[:-1] + 60.0, gamma[1:] + 60.0
        logp = _interval_logprob(Link.PROBIT, a, b)
        assert np.all(np.isfinite(logp))
        assert np.all(logp[1:] < -745.0)  # cells 2 and 3 of xb = -60
        np.testing.assert_array_equal(logp, _two_tail_logprob(Link.PROBIT, a, b))

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_cells_sum_to_one(self, link):
        gamma = cutpoints_from_delta([-0.3, 0.9])
        for xb in np.linspace(-8.0, 8.0, 33):
            logp = _interval_logprob(link, gamma[:-1] - xb, gamma[1:] - xb)
            assert math.fsum(np.exp(logp)) == pytest.approx(1.0, abs=1e-12)

    def test_location_identification(self):
        # shifting all cut-points and the linear index by the same constant
        # leaves every cell probability unchanged (evaluated directly on a
        # shifted gamma, bypassing the gamma_1 = 0 normalization)
        gamma = np.array([-np.inf, 0.0, 1.3, np.inf])
        for c in (-2.0, 0.7, 4.2):
            shifted = gamma + c
            for xb in (-1.0, 0.0, 2.5):
                base = _interval_logprob(Link.PROBIT, gamma[:-1] - xb, gamma[1:] - xb)
                moved = _interval_logprob(Link.PROBIT, shifted[:-1] - (xb + c),
                                          shifted[1:] - (xb + c))
                np.testing.assert_allclose(moved, base, rtol=1e-12)


class TestIntervalLogprobAccuracy:
    """``_interval_logprob`` against a 60-digit reference, for every link.

    150 seeded intervals per width, with lower bounds drawn from U(-38, 38);
    the reference takes F(b) - F(a) in the tail on the midpoint's side. A
    narrower interval loses digits to the cancellation in 1 - F(lo)/F(hi):
    about 1e-16 / width, relative. Width 1e-12 is left out: there the error
    is about 3e-5, the known cancellation still to be measured and bounded.
    """

    RELATIVE_BOUND = {1.0: 1e-15, 1e-3: 1e-12, 1e-6: 1e-9}
    # a new link needs its cdf here, or its case fails with a KeyError
    MP_CDF = {Link.PROBIT: mpmath.ncdf, Link.LOGIT: lambda w: 1 / (1 + mpmath.exp(-w))}

    @classmethod
    def _reference(cls, link, a, b) -> float:
        cdf = cls.MP_CDF[link]
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if a + b < 0:
            return float(mpmath.log(cdf(b) - cdf(a)))
        return float(mpmath.log(cdf(-a) - cdf(-b)))

    @pytest.mark.parametrize("width", sorted(RELATIVE_BOUND))
    @pytest.mark.parametrize("link", list(Link))
    def test_relative_error_within_bound(self, link, width):
        a = np.random.default_rng(31).uniform(-38.0, 38.0, 150)
        b = a + width
        got = _interval_logprob(link, a, b)
        with mpmath.workdps(60):
            want = np.array([self._reference(link, lo, hi) for lo, hi in zip(a, b)])
        assert np.max(np.abs(got - want) / np.abs(want)) <= self.RELATIVE_BOUND[width]


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

    def test_deep_tail_is_the_sum_of_the_two_tail_cells(self):
        # a slope 30 times the true one puts cells of this 400-row J = 3
        # probit set below the log of the smallest double; nothing floors them
        spec, _, data = _wide_instance(Link.PROBIT, 3, n=400, seed=73)
        params = ParamVector([0.3, 30.0, -0.5], [0.0])
        a, b = lk._bounds(params.delta, data.y, data.X @ params.beta)
        want = _two_tail_logprob(Link.PROBIT, a, b)
        assert np.any(want < -745.0)
        assert loglik(spec, params, data) == np.sum(want)

        def f(t):
            return loglik(spec, ParamVector(t[:spec.k], t[spec.k:]), data)

        fd = finite_diff_grad(f, params.flat, h=1e-5)
        np.testing.assert_allclose(grad_loglik(spec, params, data), fd, rtol=1e-6, atol=1e-7)

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
                probs = np.exp(_interval_logprob(spec.link, gamma[:-1] - xb, gamma[1:] - xb))
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
        beta_hat = Link.PROBIT.quantile(0.75)
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

    @pytest.mark.parametrize("J", [3, 5])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_stage_is_concave_in_the_cutpoints(self, link, J):
        # a log-concave link makes the log-likelihood concave in (beta, gamma)
        # (Pratt 1981), also at probit points whose cells reach far below
        # the log of the smallest double; in (beta, delta) it is not
        spec, data = _random_instance("ordinal", link, J=J, n=2000, seed=31)
        rng = np.random.default_rng(37)
        for scale in (3.0, 40.0) if link is Link.PROBIT else (3.0,):
            deep = 0
            for _ in range(100):
                params = ParamVector(rng.uniform(-scale, scale, spec.k),
                                     rng.uniform(-2.0, 2.0, J - 2))
                _, state = lk._loglik_pass(spec, params, data)
                deep += bool(np.any(state[2] < -745.0))
                eig = np.linalg.eigvalsh(-lk._derivative_pass(spec, data, state)[1])
                assert eig[0] >= -1e-10 * eig[-1]
            assert deep > 0 or scale == 3.0

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
        # intervals (-xb, 2e-16 - xb) a few ulps wide, those not empty once
        # rounded, and intervals past where log Phi is -inf at both ends
        xb = np.random.default_rng(1).normal(0.0, 1.5, 100_000)
        tiny = -xb < 2e-16 - xb
        a = np.concatenate([a[keep], lo, -xb[tiny], [-1e300, 1e299]])
        b = np.concatenate([b[keep], narrow, 2e-16 - xb[tiny], [-1e299, 1e300]])
        want = _two_tail_logprob(link, a, b)
        got = _interval_logprob(link, a, b)
        assert np.any(np.isnan(want)) == (link is Link.PROBIT)
        assert not np.any(np.isnan(got))
        # where log-cdf values round out of order or are both -inf, the
        # reference takes log1p of a value below -1 or of nan, and the
        # kernel log1p(-1) = -inf
        np.testing.assert_array_equal(got, np.where(np.isnan(want), -np.inf, want))

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_zero_dimensional_bounds_match_arrays(self, link):
        a = np.array([-np.inf, -np.inf, -3.0, 0.5, 30.0, -30.0])
        b = np.array([-2.0, np.inf, np.inf, 0.75, 30.5, -29.5])
        want = _interval_logprob(link, a, b)
        for i in range(a.size):
            got = _interval_logprob(link, a[i], b[i])
            assert np.ndim(got) == 0
            assert got == want[i]

    @pytest.mark.parametrize("family,J", [("binary", 2), ("ordinal", 3), ("ordinal", 5)])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_stages_agree_with_public_kernels(self, family, J, link):
        spec, data = _random_instance(family, link, J=J, n=300, seed=41)
        params = ParamVector([0.2, -0.5, 0.3], np.linspace(-0.2, 0.3, J - 2))
        ll, state = lk._loglik_pass(spec, params, data)
        grad, H = lk._delta_derivatives(params.delta, *lk._derivative_pass(spec, data, state))
        assert ll == loglik(spec, params, data)
        np.testing.assert_array_equal(grad, grad_loglik(spec, params, data))
        np.testing.assert_array_equal(H, hess_loglik(spec, params, data))
        # the per-observation scores sum to the gradient up to rounding
        scores = score_matrix(spec, params, data)
        assert scores.shape == (data.n, spec.n_params)
        np.testing.assert_allclose(grad, scores.sum(axis=0), rtol=1e-12, atol=1e-11)

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
    def test_scattered_cut_weights_bit_identical_to_mask_scatter(self, J, absent):
        # rows of categories 1 and J take no weight at gamma_y
        rng = np.random.default_rng(J)
        y = rng.integers(1, J + 1, 500)
        if absent in ("first", "both"):
            y[y == 1] = 2
        if absent in ("last", "both"):
            y[y == J] = J - 1
        upper, lower = rng.standard_normal((2, y.size))
        want = cut_weights_unblocked(y, J, upper, lower)
        # the scatter writes the observations' columns of a wider buffer
        for width in (y.size, y.size + 37):
            cuts = np.zeros((J + 1, width))
            lk._scatter_cuts(cuts, y, upper, lower)
            np.testing.assert_array_equal(cuts[2:J, :y.size].T, want)
            assert not np.any(cuts[2:J, y.size:])

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


def _inline_bound_terms(link, a, b, logp):
    """``_bound_terms`` from the whole-array reference formulas."""
    r_a, r_b, da, db = bound_terms_unblocked(link, a, b, logp)
    return np.array([[r_a, r_b], [-da, db]])


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
    """The derivative stage, which takes the log-density and its slope at a
    bound from ``Link.log_pdf_slope`` and skips the infinite bounds, keeps
    the bits of the inline formulas."""

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_bound_terms_bit_identical(self, link):
        rng = np.random.default_rng(61)
        ends = np.concatenate([[-np.inf, np.inf, 0.0], np.linspace(-40.0, 40.0, 81),
                               rng.uniform(-40.0, 40.0, 200)])
        a, b = np.meshgrid(ends, ends)
        keep = a < b
        a, b = a[keep], b[keep]
        logp = _interval_logprob(link, a, b)
        np.testing.assert_array_equal(lk._bound_terms(link, a, b, logp),
                                      _inline_bound_terms(link, a, b, logp))

    @pytest.mark.parametrize("J", [2, 3, 4, 5])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_gradient_and_hessian_bit_identical(self, link, J, monkeypatch):
        spec, params, data = _wide_instance(link, J, n=400, seed=70 + J)
        state = lk._loglik_pass(spec, params, data)[1]
        grad, H = lk._derivative_pass(spec, data, state)
        assert np.all(np.isfinite(H))
        monkeypatch.setattr(lk, "_bound_terms", _inline_bound_terms)
        want_grad, want_H = lk._derivative_pass(spec, data, state)
        np.testing.assert_array_equal(grad, want_grad)
        np.testing.assert_array_equal(H, want_H)


class TestBlockedDerivativeStage:
    """The derivative stage reduces fixed blocks of rows; it agrees with the
    whole-array formulas, and no link kernel sees an infinite bound."""

    BLOCK = lk._BLOCK_ROWS

    @pytest.mark.parametrize("n", [100, BLOCK, 3 * BLOCK + 17])
    @pytest.mark.parametrize("J", [2, 3, 5])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_matches_unblocked_formulas(self, link, J, n):
        spec, params, data = _wide_instance(link, J, n=n, seed=80 + J)
        state = lk._loglik_pass(spec, params, data)[1]
        grad, H = lk._derivative_pass(spec, data, state)
        # relative in the max norm: an entry that cancels to near 0 keeps
        # the rounding of its largest terms
        for got, want in zip((grad, H), derivative_pass_unblocked(spec, data, state)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("J", [2, 3, 5])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_kernels_see_only_finite_bounds(self, link, J, monkeypatch):
        spec, params, data = _wide_instance(link, J, n=self.BLOCK + 5, seed=90 + J)
        state = lk._loglik_pass(spec, params, data)[1]
        seen = []

        def recording(kernel):
            def wrapped(*args):
                seen.append(np.asarray(args[-1]))
                return kernel(*args)
            return wrapped

        monkeypatch.setattr(Link, "log_pdf_slope", recording(Link.log_pdf_slope))
        lk._derivative_pass(spec, data, state)
        w = np.concatenate(seen)
        assert np.all(np.isfinite(w))
        # one bound per end-category row, two per interior row
        n_end = int(np.sum((data.y == 1) | (data.y == J)))
        assert w.size == 2 * data.n - n_end

    @pytest.mark.parametrize("logp", [-0.5, -745.0])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_infinite_bounds_contribute_exactly_zero(self, link, logp):
        # a deep-tail cell (log p = -745) would overflow f(w)/p at any stand-in
        a = np.array([-np.inf, -np.inf, 0.3, -1.0])
        b = np.array([0.5, np.inf, np.inf, 2.0])
        (r_a, r_b), (t_a, t_b) = lk._bound_terms(link, a, b, np.full(4, logp))
        for values, infinite in ((r_a, np.isinf(a)), (t_a, np.isinf(a)),
                                 (r_b, np.isinf(b)), (t_b, np.isinf(b))):
            assert np.all(values[infinite] == 0.0)
            assert np.all(values[~infinite] != 0.0)


def _pass_outputs(spec, params, data):
    """Every output of one pass and the hit rate, by name."""
    ll, state = lk._loglik_pass(spec, params, data)
    grad, H = lk._derivative_pass(spec, data, state)
    a, b, logp = state
    return {"ll": ll, "a": a, "b": b, "logp": logp, "grad": grad,
            "H": H, "hit_rate": estimation.hit_rate(spec, params, data)}


def _fit_fields(fit):
    """Every field of a FitResult, the parameter vector as its flat array."""
    fields = {f.name: getattr(fit, f.name) for f in dataclasses.fields(fit)}
    fields["params"] = fit.params.flat
    return fields


class TestSameBitsAtEveryCpuCount:
    """A pass cuts its rows into one run of whole blocks per CPU; every
    output keeps its bits at any CPU count, because every sum keeps its
    order."""

    BLOCK = lk._BLOCK_ROWS

    @pytest.mark.parametrize("n", [BLOCK, 2 * BLOCK + 1, 5 * BLOCK + 17])
    @pytest.mark.parametrize("J", [2, 3, 5])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_passes_and_fit_identical_at_one_two_and_three_cpus(self, link, J, n, monkeypatch):
        spec, params, data = _wide_instance(link, J, n=n, seed=100 + J)
        # a steep slope of the wrong sign puts cells of x1 = +-40 below -745
        far = ParamVector([0.3, -20.0, -0.5], params.delta)
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(lk, "_cpu_count", lambda: cpus)
            results.append((_pass_outputs(spec, params, data), _pass_outputs(spec, far, data),
                            _fit_fields(fit_ml(spec, data))))
        assert np.any(results[0][1]["logp"] < -745.0)
        for got in results[1:]:
            for want_part, got_part in zip(results[0], got):
                assert want_part.keys() == got_part.keys()
                for name, want in want_part.items():
                    if name == "spec":
                        assert got_part[name] == want
                    else:
                        np.testing.assert_array_equal(got_part[name], want, err_msg=name)

    @pytest.mark.parametrize("n, cpus, edges", [
        (BLOCK, 3, [0, BLOCK]),
        (BLOCK + 1, 3, [0, BLOCK, BLOCK + 1]),
        (5 * BLOCK + 17, 3, [0, 2 * BLOCK, 4 * BLOCK, 5 * BLOCK + 17]),
        (5 * BLOCK + 17, 2, [0, 3 * BLOCK, 5 * BLOCK + 17]),
        (5 * BLOCK + 17, 1, [0, 5 * BLOCK + 17]),
    ])
    def test_runs_are_contiguous_whole_blocks_in_row_order(self, n, cpus, edges, monkeypatch):
        monkeypatch.setattr(lk, "_cpu_count", lambda: cpus)
        runs = lk._row_runs(n, lambda chunks: chunks)
        assert [(chunks[0].start, chunks[-1].stop) for chunks in runs] == list(zip(edges[:-1], edges[1:]))
        covered = [row for chunks in runs for rows in chunks for row in range(rows.start, rows.stop)]
        assert covered == list(range(n))
        assert all(rows.stop - rows.start <= lk._CHUNK_ROWS and rows.start % self.BLOCK == 0
                   for chunks in runs for rows in chunks)

    def test_one_block_starts_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was asked for")

        monkeypatch.setattr(lk, "_cpu_count", lambda: 3)
        monkeypatch.setattr(lk, "_pool", (None, 0, None))
        monkeypatch.setattr(lk, "ThreadPoolExecutor", no_pool)
        spec, params, data = _wide_instance(Link.PROBIT, 3, n=self.BLOCK, seed=7)
        _pass_outputs(spec, params, data)
        assert fit_ml(spec, data).converged
        # a second block would ask for the pool
        spec, params, data = _wide_instance(Link.PROBIT, 3, n=self.BLOCK + 1, seed=7)
        with pytest.raises(AssertionError, match="a thread pool was asked for"):
            lk._loglik_pass(spec, params, data)


class TestRowRunFailures:
    """A run on the pool fails the way the serial pass fails, and leaves the
    pool usable; a forked child makes its own pool."""

    BLOCK = lk._BLOCK_ROWS

    def test_worker_exception_reaches_the_caller_unchanged(self, monkeypatch):
        monkeypatch.setattr(lk, "_cpu_count", lambda: 2)
        spec, _, data = _wide_instance(Link.LOGIT, 3, n=3 * self.BLOCK, seed=11)
        want = _fit_fields(fit_ml(spec, data))
        caller = threading.get_ident()
        error = RuntimeError("kernel failed in the second run")
        kernel = lk._interval_logprob

        def failing(link, a, b):
            if threading.get_ident() != caller:
                raise error
            return kernel(link, a, b)

        monkeypatch.setattr(lk, "_interval_logprob", failing)
        with pytest.raises(RuntimeError) as info:
            fit_ml(spec, data)
        assert info.value is error
        monkeypatch.setattr(lk, "_interval_logprob", kernel)
        got = _fit_fields(fit_ml(spec, data))
        for name in ("params", "se", "loglik_fit", "history"):
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflow_in_a_worker_run_raises_under_the_callers_errstate(self, cpus, monkeypatch):
        monkeypatch.setattr(lk, "_cpu_count", lambda: cpus)
        spec, _, data = _wide_instance(Link.PROBIT, 3, n=2 * self.BLOCK + 1, seed=12)
        # gamma_2 = exp(709) and a last row whose x'b is near -1.7e308: its
        # lower bound gamma_2 - x'b overflows, in the second run at two CPUs
        data.X[-1, 1] = -1.7e308
        data.y[-1] = 3
        params = ParamVector([0.3, 1.0, -0.5], [709.0])
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                lk._loglik_pass(spec, params, data)
        with np.errstate(over="ignore"):
            a = lk._loglik_pass(spec, params, data)[1][0]
        assert a[-1] == np.inf and np.all(np.isfinite(a[:-1][data.y[:-1] > 1]))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_forked_child_fits_after_the_parent_made_its_pool(self, monkeypatch):
        monkeypatch.setattr(lk, "_cpu_count", lambda: 2)
        spec, _, data = _wide_instance(Link.PROBIT, 5, n=3 * self.BLOCK + 5, seed=13)
        want = fit_ml(spec, data)
        assert lk._pool[2] is not None
        with warnings.catch_warnings():
            # Python 3.12 warns of forking a process that runs threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                got = fit_ml(spec, data)
                code = 0 if np.array_equal(got.params.flat, want.params.flat) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its fit within 120 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


def _two_stages(spec, params, data):
    """(loglik, gradient, Hessian) from the two stages, with no derivatives
    where the log-likelihood is not finite: a fit never asks for them."""
    ll, state = lk._loglik_pass(spec, params, data)
    if not math.isfinite(ll):
        return ll, None, None
    return (ll, *lk._derivative_pass(spec, data, state))


def _warned(fn):
    """(fn(), the set of (category, message) of the warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, {(w.category, str(w.message)) for w in caught}


class TestBinaryPass:
    """The fused J = 2 pass of the Newton fit keeps every bit of the two
    stages where the log-likelihood is finite, is not finite where theirs is
    not, and raises no warning that they do not raise."""

    BLOCK = lk._BLOCK_ROWS
    OVERFLOW = {(RuntimeWarning, "overflow encountered in matmul")}

    @staticmethod
    def _passes(spec, params, data):
        """(two stages, fused pass), each with the warnings it raised; the
        fused pass raises none that the two stages do not."""
        (want, want_warned), (got, got_warned) = (
            _warned(lambda: _two_stages(spec, params, data)),
            _warned(lambda: lk._binary_pass(spec, params, data)))
        assert got_warned <= want_warned
        return want, got, got_warned

    def _assert_same_bits(self, spec, params, data):
        want, got, _ = self._passes(spec, params, data)
        assert math.isfinite(want[0])
        for name, w, g in zip(("loglik", "grad", "H"), want, got):
            np.testing.assert_array_equal(g, w, err_msg=name)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), name

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [100, BLOCK, 3 * BLOCK + 17])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_bit_identical_to_the_two_stages(self, link, n, order, monkeypatch):
        spec, params, data = _wide_instance(link, 2, n=n, seed=120)
        data.X = np.asarray(data.X, order=order)
        # a steep slope of the wrong sign puts cells of x1 = +-40 below -745
        far = ParamVector([0.3, -20.0, -0.5])
        assert np.min(lk._loglik_pass(spec, far, data)[1][2]) < -745.0
        for cpus in (1, 2, 3):
            monkeypatch.setattr(lk, "_cpu_count", lambda: cpus)
            for candidate in (params, far):
                self._assert_same_bits(spec, candidate, data)

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_intercept_only_bit_identical(self, link, monkeypatch):
        _, _, data = _wide_instance(link, 2, n=3 * self.BLOCK + 17, seed=121)
        data = Dataset(y=data.y, X=np.ones((data.n, 1)), column_names=["intercept"], J=2)
        spec = ModelSpec(None, link, J=2, k=1)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(lk, "_cpu_count", lambda: cpus)
            for beta in ([0.0], [0.4], [-30.0]):
                self._assert_same_bits(spec, ParamVector(beta), data)

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_overflowed_xb_is_not_finite_in_both(self, link, rows, monkeypatch):
        monkeypatch.setattr(lk, "_cpu_count", lambda: 2)
        spec, _, data = _wide_instance(link, 2, n=3 * self.BLOCK + 17, seed=122)
        if rows:
            # only two rows overflow, each to the bound of its own cell, where
            # log F(+inf) = 0 would hide the overflow: one in each run
            data.X[5, 1], data.y[5] = 1e300, 2
            data.X[-1, 1], data.y[-1] = -1e300, 1
            params = ParamVector([0.3, 1e9, -0.5])
        else:
            params = ParamVector([0.3, 1e307, -0.5])
        want, got, got_warned = self._passes(spec, params, data)
        assert not math.isfinite(want[0])
        assert not math.isfinite(got[0])
        assert got[1:] == (None, None)
        assert got_warned <= self.OVERFLOW

    def test_minus_inf_candidate_raises_no_warning(self):
        # past |w| of about 1.9e154, log Phi(w) is -inf and f(w)/p is
        # -inf - -inf; the logit's log-cdf is -inf only at an overflowed w
        spec, _, data = _wide_instance(Link.PROBIT, 2, n=3 * self.BLOCK + 17, seed=123)
        params = ParamVector([0.3, 1e200, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _two_stages(spec, params, data)
            got = lk._binary_pass(spec, params, data)
        assert want[0] == got[0] == -np.inf
        assert got[1:] == (None, None)


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

    @pytest.mark.parametrize("family, J, message", [
        ("multinomial", 3, "^unknown family 'multinomial'$"),
        ("binary", 3, "^binary family requires J = 2, got J = 3$"),
    ])
    def test_family_refusals_named(self, family, J, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec(family, Link.PROBIT, J=J, k=1)

    @pytest.mark.parametrize("family", [None, "binary", "ordinal"])
    def test_J_alone_picks_the_model(self, family):
        spec = ModelSpec(family, Link.LOGIT, J=2, k=2)
        assert spec.family == "binary"
        assert spec == ModelSpec(None, Link.LOGIT, J=2, k=2)
        if family != "binary":
            assert ModelSpec(family, Link.LOGIT, J=3, k=2).family == "ordinal"

    @pytest.mark.parametrize("J, k, message", [
        (2.5, 2, r"^J must be an integer, got 2\.5$"),
        (3, 1.5, r"^k must be an integer, got 1\.5$"),
        (float("nan"), 2, r"^J must be an integer, got nan$"),
    ])
    def test_non_integer_dimension_refused_by_name(self, J, k, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec("ordinal", Link.PROBIT, J=J, k=k)

    def test_integral_float_dimensions_become_ints(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=3.0, k=2.0)
        assert type(spec.J) is int and type(spec.k) is int
        assert type(spec.n_params) is int and spec.n_params == 3
        data = simulate_dataset(spec, [0.2, -0.4], [0.8], 50, np.random.default_rng(3))
        assert data.J == 3 and data.X.shape == (50, 2)
