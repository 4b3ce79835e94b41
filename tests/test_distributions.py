"""Tests for the probability kernels and the truncated-normal sampler."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from discretefit import Link, trunc_norm_draws
from discretefit.distributions import _upper_tail_draw

from oracles import (
    ks_statistic,
    logistic_log_cdf_oracle,
    logistic_log_pdf_oracle,
    norm_cdf_float_oracle,
    norm_cdf_oracle,
    norm_log_tail_oracle,
    trunc_norm_cdf_oracle,
    trunc_norm_draws_masked,
    ulp_distance,
)

# values derived once from the series / asymptotic oracles in oracles.py
PHI_1 = 0.8413447460685429
PHI_NEG_8_3 = 5.205569744890075e-17
Q_975 = 1.9599639845400527
HALF_NORMAL_MEAN = 0.7978845608028654
LOGISTIC_VARIANCE = 3.289868133696453  # pi^2 / 3


class TestNormCdf:
    def test_zero_is_half(self):
        assert Link.PROBIT.cdf(0.0) == 0.5

    def test_matches_series_oracle(self):
        assert Link.PROBIT.cdf(1.0) == pytest.approx(PHI_1, abs=1e-15)
        for w in np.linspace(-6, 6, 121):
            assert Link.PROBIT.cdf(w) == pytest.approx(norm_cdf_oracle(w), abs=1e-14)

    def test_far_left_tail_positive(self):
        value = Link.PROBIT.cdf(-8.3)
        assert 0.0 < value < 1e-15
        assert value == pytest.approx(PHI_NEG_8_3, rel=1e-12)

    def test_symmetry(self):
        for w in np.linspace(-8, 8, 161):
            assert Link.PROBIT.cdf(w) + Link.PROBIT.cdf(-w) == pytest.approx(1.0, abs=1e-15)

    def test_monotone(self):
        grid = np.linspace(-10, 10, 2001)
        values = Link.PROBIT.cdf(grid)
        assert np.all(np.diff(values) >= 0.0)
        # strict openness checked where doubles can represent it; past
        # w ~ 8.3 the upper tail is below machine epsilon and saturates
        inner = Link.PROBIT.cdf(np.linspace(-8, 8, 1601))
        assert np.all((inner > 0.0) & (inner < 1.0))


class TestNormPdf:
    def test_peak_value(self):
        assert Link.PROBIT.pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_even(self):
        assert Link.PROBIT.pdf(1.0) == Link.PROBIT.pdf(-1.0)
        assert Link.PROBIT.pdf(5.5) == Link.PROBIT.pdf(-5.5)

    def test_underflow_to_zero_is_fine(self):
        assert Link.PROBIT.pdf(40.0) == 0.0


class TestLogisticKernels:
    def test_cdf_values(self):
        assert Link.LOGIT.cdf(0.0) == 0.5
        assert Link.LOGIT.cdf(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_cdf_deep_negative_not_zero(self):
        value = Link.LOGIT.cdf(-40.0)
        expected = math.exp(-40.0) / (1.0 + math.exp(-40.0))
        assert value > 0.0
        assert value == pytest.approx(expected, rel=1e-14)

    def test_cdf_stable_out_to_700(self):
        assert Link.LOGIT.cdf(700.0) == 1.0
        assert Link.LOGIT.cdf(-700.0) > 0.0
        assert np.isfinite(Link.LOGIT.cdf(np.array([-700.0, -1.0, 0.0, 1.0, 700.0]))).all()

    def test_pdf_at_zero(self):
        assert Link.LOGIT.pdf(0.0) == 0.25

    def test_pdf_even(self):
        assert Link.LOGIT.pdf(5.0) == Link.LOGIT.pdf(-5.0)

    def test_pdf_variance_matches_pi_squared_third(self):
        integral, _ = quad(lambda w: w * w * float(Link.LOGIT.pdf(w)), -50, 50, limit=200)
        assert integral == pytest.approx(LOGISTIC_VARIANCE, abs=1e-6)


def _sign_split_cdf(w):
    """The masked two-branch logistic cdf: 1/(1 + exp(-w)) where w >= 0,
    exp(w)/(1 + exp(w)) elsewhere (nan included)."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    pos = w >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-w[pos]))
    ew = np.exp(w[~pos])
    out[~pos] = ew / (1.0 + ew)
    return out


def _sign_split_pdf(w):
    return _sign_split_cdf(w) * _sign_split_cdf(-np.asarray(w, dtype=float))


def _same_bits(got, want) -> bool:
    """Equal values and shapes; nan where nan, and the sign of every zero."""
    got, want = np.asarray(got), np.asarray(want)
    keep = ~np.isnan(want)
    return (got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[keep]), np.signbit(want[keep])))


class TestLogisticKernelBits:
    """The branch-free logistic kernels keep the bits of the sign-split forms."""

    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
             1e-310, -1e-310, 745.0, -745.0, 800.0, -800.0]

    def _inputs(self):
        draws = np.random.default_rng(11).normal(0.0, 5.0, 1200)
        return np.concatenate([self.EDGES, draws])

    @pytest.fixture(autouse=True)
    def _no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("shape", [(-1,), (5, -1), (-1, 1)])
    def test_arrays(self, shape):
        w = self._inputs()[: 5 * 241].reshape(shape)
        assert _same_bits(Link.LOGIT.cdf(w), _sign_split_cdf(w))
        assert _same_bits(Link.LOGIT.pdf(w), _sign_split_pdf(w))

    def test_zero_dimensional(self):
        for v in self._inputs()[:60]:
            for w in (v, np.float64(v), np.array(v)):
                assert _same_bits(Link.LOGIT.cdf(w), _sign_split_cdf(w))
                assert _same_bits(Link.LOGIT.pdf(w), _sign_split_pdf(w))

    def test_empty(self):
        for w in (np.zeros(0), np.zeros((0, 3))):
            assert Link.LOGIT.cdf(w).shape == w.shape
            assert Link.LOGIT.pdf(w).shape == w.shape


def _logaddexp_log_cdf(w):
    """The logaddexp form of the logistic log-cdf, -log(1 + exp(-w))."""
    return -np.logaddexp(0.0, -np.asarray(w, dtype=float))


def _logaddexp_log_pdf(w):
    w = np.asarray(w, dtype=float)
    return _logaddexp_log_cdf(w) + _logaddexp_log_cdf(-w)


class TestLogisticLogKernels:
    """The logistic log-cdf and log-density against the 50-digit oracle."""

    GRID = np.concatenate([
        np.linspace(-740.0, 740.0, 1481),
        np.random.default_rng(12).normal(0.0, 5.0, 1000),
        np.random.default_rng(13).normal(0.0, 1e-3, 200),
    ])

    @pytest.fixture(autouse=True)
    def _no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("kernel,oracle", [
        (Link.LOGIT.log_cdf, logistic_log_cdf_oracle),
        (Link.LOGIT.log_pdf, logistic_log_pdf_oracle),
    ])
    def test_within_one_ulp(self, kernel, oracle):
        got = kernel(self.GRID)
        worst = max(ulp_distance(g, oracle(w)) for g, w in zip(got, self.GRID))
        assert worst <= 1

    def test_edges_bit_for_bit(self):
        w = np.array(TestLogisticKernelBits.EDGES)
        with np.errstate(invalid="ignore"):
            want_cdf, want_pdf = _logaddexp_log_cdf(w), _logaddexp_log_pdf(w)
        assert _same_bits(Link.LOGIT.log_cdf(w), want_cdf)
        assert _same_bits(Link.LOGIT.log_pdf(w), want_pdf)
        for v, c, d in zip(w, want_cdf, want_pdf):
            assert _same_bits(Link.LOGIT.log_cdf(v), c)
            assert _same_bits(Link.LOGIT.log_pdf(v), d)
            if math.isfinite(v):
                assert c == float(logistic_log_cdf_oracle(v))
                assert d == float(logistic_log_pdf_oracle(v))
        # log F = -log1p(exp(-w)) underflows to -0.0 past w ~ 745
        assert np.signbit(Link.LOGIT.log_cdf(np.array([800.0, np.inf]))).all()

    @pytest.mark.parametrize("shape", [(-1,), (5, -1), (-1, 1)])
    def test_shared_exponential_matches_link_methods(self, shape):
        w = TestLogisticKernelBits()._inputs()[: 5 * 241].reshape(shape)
        log_f, slope = Link.LOGIT.log_pdf_slope(w)
        assert _same_bits(log_f, Link.LOGIT.log_pdf(w))
        assert _same_bits(slope, 1.0 - 2.0 * Link.LOGIT.cdf(w))

    def test_shared_exponential_zero_dimensional(self):
        for v in TestLogisticKernelBits.EDGES:
            log_f, slope = Link.LOGIT.log_pdf_slope(v)
            assert _same_bits(log_f, Link.LOGIT.log_pdf(v))
            assert _same_bits(slope, 1.0 - 2.0 * Link.LOGIT.cdf(v))


class TestNormInvCdf:
    def test_median(self):
        assert Link.PROBIT.quantile(0.5) == 0.0

    def test_inverts_cdf_oracle_value(self):
        assert Link.PROBIT.quantile(PHI_1) == pytest.approx(1.0, abs=1e-12)

    def test_root_found_on_series_oracle(self):
        assert Link.PROBIT.quantile(0.975) == pytest.approx(Q_975, abs=1e-10)

    def test_roundtrip(self):
        for p in np.logspace(-12, -0.301, 40):
            assert Link.PROBIT.cdf(Link.PROBIT.quantile(p)) == pytest.approx(p, rel=1e-10)


class TestLinkProperties:
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_cdf_symmetry(self, link):
        for w in np.arange(-5.0, 5.01, 0.1):
            assert link.cdf(w) == pytest.approx(1.0 - link.cdf(-w), abs=1e-14)

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_pdf_is_cdf_derivative(self, link):
        # the difference is formed in the lower tail where the cdf values are
        # small and carry small absolute error; near cdf ~ 1 the subtraction
        # itself would drown in cancellation noise (both pdf and cdf are
        # symmetric, so this checks the identity at every grid point)
        h = 1e-6
        for w in np.arange(-5.0, 5.01, 0.1):
            v = -abs(w)
            fd = (link.cdf(v + h) - link.cdf(v - h)) / (2.0 * h)
            assert link.pdf(w) == pytest.approx(fd, rel=1e-6)

    def test_link_methods_tolerate_infinities(self):
        for link in (Link.PROBIT, Link.LOGIT):
            assert link.cdf(np.inf) == 1.0
            assert link.cdf(-np.inf) == 0.0
            assert link.pdf(np.inf) == 0.0
            assert link.pdf(-np.inf) == 0.0
            assert link.log_cdf(-np.inf) == -np.inf

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_log_pdf_at_infinite_bounds_is_minus_inf_without_a_flag(self, link):
        # the likelihood's end-category rows have a bound at +/-inf
        with np.errstate(all="raise"):
            got = link.log_pdf(np.array([-np.inf, np.inf]))
        assert np.all(got == -np.inf)


class TestLinkLaws:
    """Laws every ``Link`` member keeps, so a new member is tested for free."""

    @pytest.mark.parametrize("link", list(Link))
    def test_log_pdf_slope_log_density_is_log_pdf(self, link):
        w = np.concatenate([np.linspace(-40.0, 40.0, 801), [-np.inf, 0.0, -0.0, np.inf]])
        assert _same_bits(link.log_pdf_slope(w)[0], link.log_pdf(w))

    @pytest.mark.parametrize("link", list(Link))
    def test_log_pdf_slope_is_log_pdf_derivative(self, link):
        w, h = np.linspace(-5.0, 5.0, 201), 1e-5
        fd = (link.log_pdf(w + h) - link.log_pdf(w - h)) / (2.0 * h)
        np.testing.assert_allclose(link.log_pdf_slope(w)[1], fd, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("link", list(Link))
    def test_noise_follows_the_link_law(self, link):
        draws = link.noise(np.random.default_rng(5), 20_000)
        assert draws.shape == (20_000,)
        assert ks_statistic(draws, link.cdf) < 0.02


class TestTruncNormSample:
    def test_unconstrained_matches_standard_normal(self):
        rng = np.random.default_rng(101)
        draws = trunc_norm_draws(np.zeros(100_000), -np.inf, np.inf, rng)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    def test_half_normal_mean(self):
        rng = np.random.default_rng(102)
        draws = trunc_norm_draws(np.zeros(100_000), 0.0, np.inf, rng)
        assert np.all(draws > 0.0)
        assert draws.mean() == pytest.approx(HALF_NORMAL_MEAN, abs=0.01)

    def test_far_tail_is_robust(self):
        rng = np.random.default_rng(103)
        draws = np.array([trunc_norm_draws(2.0, 10.0, np.inf, rng) for _ in range(2000)])
        assert np.all(np.isfinite(draws))
        assert np.all(draws > 10.0)
        # conditional mean from the log-space tail oracle: 2 + phi(8)/Phi(-8)
        phi8 = math.exp(-32.0) / math.sqrt(2.0 * math.pi)
        expected = 2.0 + phi8 / math.exp(norm_log_tail_oracle(8.0))
        assert draws.mean() == pytest.approx(expected, abs=0.02)

    @pytest.mark.parametrize("bound", [39.0, 45.0, 100.0, 1e4])
    def test_draws_stay_inside_intervals_beyond_the_log_underflow(self, bound):
        # log Phi(-bound) lies below -745 for a bound past about 38.5
        rng = np.random.default_rng(105)
        right = trunc_norm_draws(np.zeros(500), bound, np.inf, rng)
        left = trunc_norm_draws(np.zeros(500), -np.inf, -bound, rng)
        narrow = trunc_norm_draws(np.zeros(500), bound, bound + 1.0, rng)
        for draws in (right, left, narrow):
            assert np.all(np.isfinite(draws))
        assert np.all(right > bound) and np.all(left <= -bound)
        assert np.all((narrow > bound) & (narrow <= bound + 1.0))
        # the excess over the bound is about exponential with mean 1/bound
        assert np.mean(right - bound) == pytest.approx(1.0 / bound, rel=0.2)

    @pytest.mark.parametrize("lower,upper", [(45.0, np.inf), (-np.inf, -45.0), (7.0, np.inf)])
    def test_tail_draw_at_a_zero_uniform_is_finite(self, lower, upper):
        class ZeroUniforms:
            def random(self, out):
                out[:] = 0.0
                return out

        draws = trunc_norm_draws(np.zeros(3), lower, upper, ZeroUniforms())
        assert np.all(np.isfinite(draws))
        assert np.all((draws > lower) & (draws <= upper))

    @pytest.mark.parametrize("bound", [1e10, 1e100, 1e200])
    @pytest.mark.parametrize("far", [np.inf, 2.0])
    def test_far_tail_draws_finite_and_strictly_inside(self, bound, far):
        # past a bound of about 1e8 the excess over it, about Exp(1)/bound,
        # is below half an ulp; past about 1.3e154 log Phi(-bound) is -inf
        rng = np.random.default_rng(106)
        for lower, upper in ((bound, far * bound), (-far * bound, -bound)):
            draws = trunc_norm_draws(np.zeros(200), lower, upper, rng)
            assert np.all(np.isfinite(draws))
            assert np.all((draws > lower) & (draws <= upper))
            if bound >= 1e100:  # the only double inside within an ulp of the bound
                assert np.all(np.abs(draws) == np.nextafter(bound, np.inf))

    @pytest.mark.parametrize("a", [1e10, 1e200])
    def test_far_tail_draw_at_extreme_uniforms(self, a):
        u = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        for b in (np.inf, 3.0 * a):
            x = _upper_tail_draw(np.full(3, a), np.full(3, b), u)
            assert np.all(x == np.nextafter(a, np.inf))

    @pytest.mark.parametrize(
        "mean,lower,upper",
        [(0.0, -np.inf, np.inf), (0.0, 0.0, np.inf), (1.0, -0.5, 2.0), (0.0, -np.inf, -1.0)],
    )
    def test_ks_against_truncated_cdf(self, mean, lower, upper):
        rng = np.random.default_rng(104)
        draws = trunc_norm_draws(np.full(100_000, mean), lower, upper, rng)
        fa = norm_cdf_float_oracle(lower - mean) if np.isfinite(lower) else 0.0
        fb = norm_cdf_float_oracle(upper - mean) if np.isfinite(upper) else 1.0

        def cdf(x):
            return (norm_cdf_float_oracle(x - mean) - fa) / (fb - fa)

        assert ks_statistic(draws, cdf) < 0.01
        assert np.all(draws > lower) and np.all(draws <= upper)

    @pytest.mark.parametrize("a", [6.5, 12.0, 40.0])
    @pytest.mark.parametrize("finite_b", [False, True])
    def test_tail_draws_ks_against_exact_cdf(self, a, finite_b):
        # the log-space tail draw against an exact cdf that shares no code
        # with it; half the draws come from the mirrored interval (-b, -a]
        b = a + 1.0 / a if finite_b else np.inf
        n = 1000
        lower = np.repeat([a, -b], n // 2)
        upper = np.repeat([b, -a], n // 2)
        draws = trunc_norm_draws(np.zeros(n), lower, upper, np.random.default_rng(107))
        assert np.all((draws > lower) & (draws <= upper))
        draws[n // 2:] *= -1.0
        cdf = trunc_norm_cdf_oracle(a, b)
        assert ks_statistic(draws, cdf) < 1.95 / math.sqrt(n)
        # and draw by draw: each is the inverse cdf at 1 - u of its own uniform u
        u = np.random.default_rng(107).random(n)[::25]
        np.testing.assert_allclose([cdf(x) for x in draws[::25]], 1.0 - u, rtol=0.0, atol=1e-9)

    def test_deterministic_given_seed(self):
        a = trunc_norm_draws(np.full(50, 0.5), 0.0, 3.0, np.random.default_rng(7))
        b = trunc_norm_draws(np.full(50, 0.5), 0.0, 3.0, np.random.default_rng(7))
        assert np.array_equal(a, b)
        s1 = trunc_norm_draws(0.0, -1.0, 1.0, np.random.default_rng(8))
        s2 = trunc_norm_draws(0.0, -1.0, 1.0, np.random.default_rng(8))
        assert s1 == s2

    def test_empty_interval_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="require lower < upper"):
            trunc_norm_draws(0.0, 1.0, 1.0, rng)
        with pytest.raises(ValueError, match="require lower < upper"):
            trunc_norm_draws(0.0, 2.0, -2.0, rng)
        with pytest.raises(ValueError, match="mean must be finite"):
            trunc_norm_draws(np.nan, 0.0, 1.0, rng)


class TestTruncNormMatchesMaskedForm:
    """The whole-array draw reproduces the masked per-branch draw bit for bit
    and consumes the same uniforms."""

    @staticmethod
    def _both(mean, lower, upper, seed=120):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = trunc_norm_draws(mean, lower, upper, rng_new)
        want = trunc_norm_draws_masked(mean, lower, upper, rng_ref)
        assert rng_new.uniform() == rng_ref.uniform()  # same stream position
        return got, want

    def test_one_dimensional_mix_of_tails(self):
        rng = np.random.default_rng(121)
        n = 3000
        mean = rng.uniform(-12.0, 12.0, n)
        lower = mean + rng.uniform(-15.0, 10.0, n)
        upper = lower + 10.0 ** rng.uniform(-3.0, 1.5, n)
        lower[::7] = -np.inf
        upper[::5] = np.inf
        a, b = lower - mean, upper - mean
        # every branch occurs, and so do both outer intervals
        assert np.any(a >= 6.0) and np.any(b <= -6.0) and np.any((a < 6.0) & (b > -6.0))
        got, want = self._both(mean, lower, upper)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lower,upper", [(-np.inf, -8.0), (-1.0, 2.0), (7.0, np.inf),
                                             (-np.inf, np.inf), (6.0, 6.5), (-6.5, -6.0)])
    def test_zero_dimensional(self, lower, upper):
        got, want = self._both(0.0, lower, upper)
        assert np.ndim(got) == 0
        assert got == want

    @pytest.mark.parametrize("mean,lower,upper", [
        # both sides infinite: the cdf runs on no element
        (np.array([0.0, -3.0, 7.0]), np.full(3, -np.inf), np.full(3, np.inf)),
        # every element in one tail or the other, beyond +-6
        (np.array([0.0, 1.0, -2.0, 0.5]), np.array([6.0, 9.0, -np.inf, -30.0]),
         np.array([np.inf, 12.0, -8.5, -7.0])),
        # a scalar mean over array bounds
        (1.5, np.array([-np.inf, -3.0, 0.0, 8.0]), np.array([-6.0, 1.0, np.inf, np.inf])),
        # n = 0
        (np.zeros(0), np.zeros(0), np.ones(0)),
    ])
    def test_edge_inputs(self, mean, lower, upper):
        got, want = self._both(mean, lower, upper)
        assert got.shape == np.broadcast_shapes(np.shape(mean), lower.shape, upper.shape)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_broadcast_shapes(self, lead):
        mean = np.broadcast_to(np.linspace(-9.0, 9.0, 5)[:, None], lead + (5, 1))
        lower = np.array([-np.inf, -10.0, -2.0, 3.0])
        upper = np.array([-7.0, -4.0, 8.0, np.inf])
        got, want = self._both(mean, lower[None, :], upper)
        assert got.shape == lead + (5, 4)
        np.testing.assert_array_equal(got, want)
