"""Probability kernels for the probit and logit links.

``Link`` is the one interface to the standard-normal and logistic
cdf/pdf/quantile and their logs: elementwise on arrays, tolerant of +/-inf,
and used by the likelihood, the effects and the sampler alike. The module
also gives unit-variance truncated-normal sampling.

The normal kernels delegate to scipy.special (ndtr/ndtri/log_ndtr), which are
accurate to well below 1e-14 absolute error. Every logistic kernel is built
on one vectorized e = exp(-|w|), which never overflows. The cdf and density
pick the sign-split formula per element arithmetically instead of through
masked gathers and scatters; the log-cdf and log-density add one log1p(e)
to max(-w, 0) or |w|. ``Link.log_pdf_slope`` gives the likelihood's
derivative stage the log-density and its slope f'/f, for the logit from the
same e, and ``Link.noise`` gives the simulator the latent error's draws, so
no other module branches on the link for arithmetic. Truncated-normal
draws use inverse-cdf sampling, switching to a log-domain formulation once
the truncation interval sits beyond |6| standard deviations, where the naive
inverse cdf loses all precision. That formula has no floor on the log of
the tail mass, since ``special.ndtri_exp`` stays accurate far below -745, so
a draw lies inside its interval also past a bound of about 38.5, where
that log falls below -745. Further out, a draw that rounds onto the bound
or overflows is drawn again from its uniform by the exponential limit of
the tail. One kernel,
``_trunc_norm_sampler``, holds that formula for ``trunc_norm_draws`` and
for the Gibbs sweep; it takes the cdf at the finite bounds only, since it
is exactly 0 at -inf and 1 at +inf.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy import special

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Standardized bound beyond which inverse-cdf sampling moves to the log domain.
_TAIL_SPLIT = 6.0
_LARGEST_P_BELOW_1 = np.nextafter(1.0, 0.0)


class Link(str, enum.Enum):
    """Error-distribution link: standard normal (probit) or logistic (logit).

    The methods tolerate +/-inf arguments (cdf saturates at 0/1, pdf at 0),
    which the likelihood code relies on for the open-ended outer cut-points.
    """

    PROBIT = "probit"
    LOGIT = "logit"

    def cdf(self, w):
        w = np.asarray(w, dtype=float)
        if self is Link.PROBIT:
            return special.ndtr(w)
        return _logistic_cdf(w, _exp_neg_abs(w))

    def pdf(self, w):
        w = np.asarray(w, dtype=float)
        if self is Link.PROBIT:
            with np.errstate(over="ignore"):
                return _INV_SQRT_2PI * np.exp(-0.5 * w * w)
        # cdf(w) * cdf(-w) as (1/d) * (e/d), d = 1 + e: for either sign of w
        # the two factors are the sign-split cdf values, with no cancellation
        e = _exp_neg_abs(w)
        d = 1.0 + e
        return (1.0 / d) * (e / d)

    def log_cdf(self, w):
        w = np.asarray(w, dtype=float)
        if self is Link.PROBIT:
            return special.log_ndtr(w)
        return _logistic_log_cdf(w, np.log1p(_exp_neg_abs(w)))

    def log_pdf(self, w):
        w = np.asarray(w, dtype=float)
        if self is Link.PROBIT:
            return -0.5 * w * w - 0.5 * math.log(2.0 * math.pi)
        return _logistic_log_pdf(w, np.log1p(_exp_neg_abs(w)))

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if self is Link.PROBIT:
            return special.ndtri(p)
        return np.log(p) - np.log1p(-p)

    def log_pdf_slope(self, w):
        """(log f(w), f'(w)/f(w)): ``log_pdf``'s bits and the slope -w or
        1 - 2 F(w), the logit's from the same exp(-|w|). The probit's
        -w*w/2 overflows past |w| of about 1e154: call this under
        ``np.errstate(over="ignore")`` where w may be that large."""
        w = np.asarray(w, dtype=float)
        if self is Link.PROBIT:
            return self.log_pdf(w), -w
        e = _exp_neg_abs(w)
        # left to right: log1p(e) is taken before _logistic_cdf overwrites e
        return _logistic_log_pdf(w, np.log1p(e)), 1.0 - 2.0 * _logistic_cdf(w, e)

    def noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws of the latent error: standard normal or standard logistic."""
        if self is Link.PROBIT:
            return rng.standard_normal(n)
        return rng.logistic(size=n)


def _exp_neg_abs(w: np.ndarray) -> np.ndarray:
    """exp(-|w|) in one new array; it never overflows and lies in [0, 1]."""
    e = np.abs(w, out=np.empty_like(w))
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _logistic_cdf(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Logistic cdf from e = exp(-|w|), which it overwrites.

    This is where(w >= 0, 1, e) / (1 + e): per element the sign-split
    formula 1/(1 + exp(-w)) or exp(w)/(1 + exp(w)), so the same bits as
    evaluating each sign under a mask, ±0, ±inf and nan included, without
    the gathers and scatters.
    """
    out = np.maximum(e, w >= 0)  # the where() above: e <= 1, and nan stays nan
    e += 1.0
    out /= e
    return out


def _logistic_log_cdf(w: np.ndarray, log1p_e: np.ndarray) -> np.ndarray:
    """log F(w) = -(max(-w, 0) + log1p(exp(-|w|))) from log1p_e.

    Per element the sign-split form -log1p(exp(-w)) or w - log1p(exp(w));
    -0.0 where log F underflows (w beyond about 745, and +inf), -inf at -inf.
    """
    return -(np.maximum(-w, 0.0) + log1p_e)


def _logistic_log_pdf(w: np.ndarray, log1p_e: np.ndarray) -> np.ndarray:
    """log f(w) = log F(w) + log F(-w) = -log1p(e) - (|w| + log1p(e)).

    One of max(-w, 0) and max(w, 0) is zero, so this adds the two log-cdf
    terms in the same order and with the same roundings.
    """
    return -(np.abs(w) + log1p_e) - log1p_e


def _upper_tail_draw(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-cdf draw on (a, b] with a >= _TAIL_SPLIT, done in log space.

    Past a of about 1e8 the excess over a, about Exp(1)/a, is below half an
    ulp of a, so a draw can round onto a; past about 1.3e154 log Phi(-a) is
    -inf and the draw overflows. Only a draw that is infinite or outside
    (a, b] is replaced: from the same uniform, by a + t, with t the inverse
    cdf of the excess's exponential limit a exp(-a t) truncated at b - a,
    kept in (a, b] and at least the next double above a. The left tail
    calls this on (-b, -a], so a draw there that rounds onto its closed
    bound b is moved one double inside too.
    """
    log_sa = special.log_ndtr(-a)
    log_sb = special.log_ndtr(-b)  # -inf when b = +inf
    with np.errstate(invalid="ignore"):
        ratio = np.exp(log_sb - log_sa)
    ratio = np.where(np.isneginf(log_sb), 0.0, ratio)
    # capped as p is on the main path: u = 0 with b = +inf would take log1p(-1)
    tail_share = np.minimum((1.0 - u) * (1.0 - ratio), _LARGEST_P_BELOW_1)
    x = -special.ndtri_exp(log_sa + np.log1p(-tail_share))
    out = np.flatnonzero(~((x > a) & (x <= b) & (x < np.inf)))
    if out.size:
        a, b = a[out], b[out]
        with np.errstate(over="ignore"):
            mass = -np.expm1(-a * (b - a))  # 1 at b = +inf
        share = np.minimum((1.0 - u[out]) * mass, _LARGEST_P_BELOW_1)
        t = -np.log1p(-share) / a
        x[out] = np.minimum(np.maximum(a + t, np.nextafter(a, np.inf)), b)
    return x


def _check_finite_mean(mean: np.ndarray) -> None:
    if not np.all(np.isfinite(mean)):
        raise ValueError("mean must be finite")


def _check_intervals(lower: np.ndarray, upper: np.ndarray) -> None:
    if not np.all(lower < upper):
        raise ValueError("require lower < upper for every element")


def _trunc_norm_sampler(lower_rows: np.ndarray, upper_rows: np.ndarray, n: int):
    """Inverse-cdf draws on n standardized intervals (a, b] whose finite
    bounds sit in fixed rows: ``lower_rows`` index the rows with a > -inf,
    ``upper_rows`` those with b < +inf.

    At an infinite bound the cdf is exactly 0 (lower) or 1 (upper), so
    ``special.ndtr`` runs on those rows only; every other row keeps
    Phi(-inf) = 0 in ``fa`` and Phi(+inf) = 1 in ``fb`` from one call to
    the next. ``draw(a, b, rng)`` takes one uniform per row from ``rng``,
    inverts p = fa + (1 - u)(fb - fa), and then redraws, from the same
    uniform and in log space, the rows whose interval lies beyond
    ``_TAIL_SPLIT``; one max or min per side finds whether any does. It
    returns the draws in a buffer that the next call overwrites.
    """
    fa, fb = np.zeros(n), np.ones(n)
    u, p = np.empty(n), np.empty(n)

    def draw(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        fa[lower_rows] = special.ndtr(a[lower_rows])
        fb[upper_rows] = special.ndtr(b[upper_rows])
        rng.random(out=u)  # the stream of rng.uniform(size=n): 0 + 1 * x is x
        np.subtract(1.0, u, out=p)
        np.multiply(p, fb - fa, out=p)
        np.add(p, fa, out=p)
        np.minimum(p, _LARGEST_P_BELOW_1, out=p)
        special.ndtri(p, out=p)
        if a.max(initial=-np.inf) >= _TAIL_SPLIT:
            right = a >= _TAIL_SPLIT
            p[right] = _upper_tail_draw(a[right], b[right], u[right])
        if b.min(initial=np.inf) <= -_TAIL_SPLIT:
            left = b <= -_TAIL_SPLIT
            p[left] = -_upper_tail_draw(-b[left], -a[left], u[left])
        return p

    return draw


def trunc_norm_draws(mean, lower, upper, rng: np.random.Generator):
    """Vectorized unit-variance truncated-normal draws on (lower, upper].

    ``mean``, ``lower`` and ``upper`` broadcast against each other, and their
    broadcast shape is the shape of the result; each draw consumes exactly
    one uniform from ``rng`` so streams stay aligned no matter which branch
    an element takes. Each call finds the elements whose standardized
    lower bound is -inf and those whose upper bound is +inf, and draws
    every element through ``_trunc_norm_sampler``: the cdf runs at the
    other bounds only, the inverse-cdf formula on every element, and the
    elements whose interval lies beyond ``_TAIL_SPLIT`` are then redrawn,
    from the same uniform, in log space.
    """
    mean = np.asarray(mean, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    _check_finite_mean(mean)
    _check_intervals(lower, upper)
    shape = np.broadcast_shapes(mean.shape, lower.shape, upper.shape)

    a = np.broadcast_to(lower - mean, shape).ravel()
    b = np.broadcast_to(upper - mean, shape).ravel()
    draw = _trunc_norm_sampler(np.flatnonzero(a != -np.inf), np.flatnonzero(b != np.inf), a.size)
    return draw(a, b, rng).reshape(shape) + mean
