"""Scalar probability kernels for the probit and logit links.

Provides the standard-normal and logistic cdf/pdf/quantile plus unit-variance
truncated-normal sampling. Everything else in the package is built on these.

The normal kernels delegate to scipy.special (ndtr/ndtri/log_ndtr), which are
accurate to well below 1e-14 absolute error. Every logistic kernel is built
on one vectorized e = exp(-|w|), which never overflows. The cdf and density
pick the sign-split formula per element arithmetically instead of through
masked gathers and scatters; the log-cdf and log-density add one log1p(e)
to max(-w, 0) or |w|. ``logistic_log_pdf_cdf`` gives the likelihood's
derivative stage the log-density and the cdf from the same e. Truncated-normal
draws use inverse-cdf sampling, switching to a log-domain formulation once
the truncation interval sits beyond |6| standard deviations, where the naive
inverse cdf loses all precision. That formula has no floor on the log of
the tail mass, since ``special.ndtri_exp`` stays accurate far below -745, so
a draw lies inside its interval also past a bound of about 38.5, where
that log falls below -745. One kernel,
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


def _scalar_like(value: np.ndarray, reference) -> float | np.ndarray:
    if np.isscalar(reference) or np.ndim(reference) == 0:
        return float(value)
    return value


def _finite_kernel(kernel, w):
    """``kernel`` at w, refusing a non-finite input; a scalar w gives a float."""
    arr = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"w must be finite, got {w!r}")
    return _scalar_like(kernel(arr), w)


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


def logistic_log_pdf_cdf(w) -> tuple[np.ndarray, np.ndarray]:
    """Logistic (log f(w), F(w)) from one exp(-|w|) and one log1p.

    The same bits as ``Link.LOGIT.log_pdf`` and ``Link.LOGIT.cdf``; ±inf
    give (-inf, 0) and (-inf, 1).
    """
    w = np.asarray(w, dtype=float)
    e = _exp_neg_abs(w)
    return _logistic_log_pdf(w, np.log1p(e)), _logistic_cdf(w, e)


def norm_cdf(w):
    """Standard normal cdf Phi(w). Input must be finite."""
    return _finite_kernel(Link.PROBIT.cdf, w)


def norm_pdf(w):
    """Standard normal density phi(w). Input must be finite."""
    return _finite_kernel(Link.PROBIT.pdf, w)


def logistic_cdf(w):
    """Logistic cdf exp(w)/(1+exp(w)), computed without overflow."""
    return _finite_kernel(Link.LOGIT.cdf, w)


def logistic_pdf(w):
    """Logistic density cdf(w)*cdf(-w), free of cancellation."""
    return _finite_kernel(Link.LOGIT.pdf, w)


def norm_inv_cdf(p):
    """Standard normal quantile. Requires 0 < p < 1."""
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    return _scalar_like(special.ndtri(arr), p)


def _upper_tail_draw(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-cdf draw on (a, b] with a >= _TAIL_SPLIT, done in log space."""
    log_sa = special.log_ndtr(-a)
    log_sb = special.log_ndtr(-b)  # -inf when b = +inf
    with np.errstate(invalid="ignore"):
        ratio = np.exp(log_sb - log_sa)
    ratio = np.where(np.isneginf(log_sb), 0.0, ratio)
    # capped as p is on the main path: u = 0 with b = +inf would take log1p(-1)
    tail_share = np.minimum((1.0 - u) * (1.0 - ratio), _LARGEST_P_BELOW_1)
    return -special.ndtri_exp(log_sa + np.log1p(-tail_share))


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
