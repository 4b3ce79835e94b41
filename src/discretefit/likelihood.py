"""Log-likelihood, analytic gradient and Hessian for binary/ordinal models.

Model: a latent utility z = x'beta + eps falls in category j when
gamma_{j-1} < z <= gamma_j, with gamma_0 = -inf, gamma_1 = 0 and
gamma_J = +inf. The interior cut-points are parametrized through their log
spacings, delta_j = log(gamma_j - gamma_{j-1}) for j = 2..J-1, so any real
delta vector yields a strictly increasing cut-point sequence and the
optimizer can run unconstrained.

Cell probabilities F(gamma_j - x'b) - F(gamma_{j-1} - x'b) are evaluated as a
log-difference in whichever tail of the link distribution has the smaller
magnitude; the textbook subtraction of two cdf values loses all precision
once both arguments are beyond ~6; only that tail's log-cdf values are
computed, two per row or one for an end-category row. Cells whose
log-probability falls below -745 (the smallest representable log) are
clamped there and counted, so a line search can survive extreme parameter
values instead of dying on -inf.

One likelihood pass runs in two stages. The first computes the interval
bounds and log-probabilities and sums them into the log-likelihood; it
returns them as a state. The derivative stage turns that state into the
gradient and, if asked, the Hessian, computing the pdf ratios and curvature
once for both. For the logit it takes the log-density (for the ratios f/p)
and the cdf (for the curvature) at each bound from one exp(-|w|) and one
log1p. A line search scores its candidates with the first stage
alone and runs the derivative stage only on the candidate it accepts, so no
bound or log-probability is computed twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .distributions import Link, logistic_log_pdf_cdf

FAMILY_BINARY = "binary"
FAMILY_ORDINAL = "ordinal"

_LOG_FLOOR = -745.0


@dataclass
class ModelSpec:
    """Family, link and dimensions of a model.

    ``binary`` requires J = 2. ``ordinal`` is intended for J >= 3 but J = 2
    is accepted (the cut-point vector is then empty and the model coincides
    with the binary one).
    """

    family: str
    link: Link
    J: int
    k: int
    intercept: bool = True

    def __post_init__(self):
        if self.family not in (FAMILY_BINARY, FAMILY_ORDINAL):
            raise ValueError(f"unknown family {self.family!r}")
        self.link = Link(self.link)
        self.intercept = bool(self.intercept)
        if self.family == FAMILY_BINARY and self.J != 2:
            raise ValueError(f"binary family requires J = 2, got J = {self.J}")
        if self.J < 2:
            raise ValueError(f"need at least two response categories, got J = {self.J}")
        if self.k < 1:
            raise ValueError("need at least one design column")

    @property
    def n_params(self) -> int:
        return self.k + self.J - 2

    @classmethod
    def for_dataset(cls, family: str, link, data: Dataset, intercept: bool = True) -> "ModelSpec":
        return cls(family=family, link=Link(link), J=data.J, k=data.X.shape[1], intercept=intercept)


@dataclass
class ParamVector:
    """Coefficients plus log spacings of the interior cut-points."""

    beta: np.ndarray
    delta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        self.delta = np.atleast_1d(np.asarray(self.delta, dtype=float)) if np.size(self.delta) else np.zeros(0)

    @property
    def flat(self) -> np.ndarray:
        return np.concatenate([self.beta, self.delta])

    @classmethod
    def from_flat(cls, theta: np.ndarray, k: int) -> "ParamVector":
        theta = np.asarray(theta, dtype=float)
        return cls(beta=theta[:k], delta=theta[k:])

    def cutpoints(self) -> np.ndarray:
        return cutpoints_from_delta(self.delta)


def cutpoints_from_delta(delta) -> np.ndarray:
    """Expand log spacings into the full cut-point vector.

    Returns (-inf, 0, gamma_2, ..., gamma_{J-1}, +inf) of length J + 1 where
    gamma_j = gamma_{j-1} + exp(delta_j); strictly increasing by construction.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if delta.size and not np.all(np.isfinite(delta)):
        raise ValueError("delta must be finite")
    interior = np.cumsum(np.exp(delta)) if delta.size else np.zeros(0)
    return np.concatenate([[-np.inf, 0.0], interior, [np.inf]])


def _interval_logprob(link: Link, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """log(F(b) - F(a)) elementwise for a < b, tail-stable.

    Evaluates in the left tail when the interval midpoint is negative and in
    the right (survival) tail otherwise, so the difference is never formed
    from two cdf values saturating at the same end. Only the chosen tail is
    computed: with F(-w) = 1 - F(w) both cases are
    log F(hi) + log1p(-F(lo)/F(hi)) for (hi, lo) = (b, a) or (-a, -b).
    An end-category row (a = -inf or b = +inf) has lo = -inf, where the
    correction is log1p(-0) = -0 and the sum is exactly log F(hi), so such a
    row takes one log-cdf and the correction runs only where lo > -inf.
    Returns the clamped log-probabilities and the number of clamped cells.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        use_left = b <= -a
        hi = np.where(use_left, b, -a)
        lo = np.where(use_left, a, -b)
        out = np.asarray(link.log_cdf(hi))  # an array even for 0-d input
        rows = np.flatnonzero(lo != -np.inf)
        log_hi = np.take(out, rows)
        np.put(out, rows, log_hi + np.log1p(-np.exp(link.log_cdf(np.take(lo, rows)) - log_hi)))
    n_clamped = int(np.sum(out < _LOG_FLOOR))
    if n_clamped:
        out = np.maximum(out, _LOG_FLOOR)
    return out, n_clamped


def _check_dimensions(spec: ModelSpec, params: ParamVector, data: Dataset) -> None:
    if data.J != spec.J:
        raise ValueError(f"data has J = {data.J} categories but spec declares J = {spec.J}")
    if data.X.shape[1] != spec.k:
        raise ValueError(f"design has {data.X.shape[1]} columns but spec declares k = {spec.k}")
    if params.beta.shape != (spec.k,):
        raise ValueError(f"beta has shape {params.beta.shape}, expected ({spec.k},)")
    if params.delta.shape != (spec.J - 2,):
        raise ValueError(f"delta has length {params.delta.size}, expected J - 2 = {spec.J - 2}")


def _bounds(params: ParamVector, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation (a, b) = (gamma_{y-1} - x'b, gamma_y - x'b)."""
    gamma = cutpoints_from_delta(params.delta)
    xb = data.X @ params.beta
    return gamma[data.y - 1] - xb, gamma[data.y] - xb


def cell_logprob(spec: ModelSpec, xb: float, j: int, gamma: np.ndarray) -> float:
    """log P(y = j) for linear index xb under cut-point vector gamma.

    ``gamma`` is the full extended vector (-inf, gamma_1, ..., +inf); it is
    taken as given so shifted/unidentified configurations can be evaluated
    directly.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not 1 <= j <= gamma.size - 1:
        raise ValueError(f"category {j} outside 1..{gamma.size - 1}")
    val, _ = _interval_logprob(spec.link, gamma[j - 1] - xb, gamma[j] - xb)
    return float(val)


def _spacing_jacobian(delta: np.ndarray) -> np.ndarray:
    """d gamma_j / d delta_m = exp(delta_m) for m <= j; lower triangular."""
    m = delta.size
    if m == 0:
        return np.zeros((0, 0))
    return np.tril(np.tile(np.exp(delta), (m, 1)))


def _pdf_ratios(spec: ModelSpec, a, b, logp):
    """f(a)/p and f(b)/p computed in log space, zero at infinite bounds, and
    the cdf at (a, b) that the logit curvature needs (None for the probit).

    The logit takes log f and F at each bound from one exp(-|w|) and one
    log1p.
    """
    link = spec.link
    with np.errstate(invalid="ignore", over="ignore"):
        if link is Link.PROBIT:
            log_fa, log_fb, cdfs = link.log_pdf(a), link.log_pdf(b), None
        else:
            log_fa, cdf_a = logistic_log_pdf_cdf(a)
            log_fb, cdf_b = logistic_log_pdf_cdf(b)
            cdfs = cdf_a, cdf_b
        r_a = np.exp(log_fa - logp)
        r_b = np.exp(log_fb - logp)
    return r_a, r_b, cdfs


def _curvature_terms(spec: ModelSpec, a, b, r_a, r_b, cdfs):
    """Second derivatives of log p w.r.t. the interval bounds (a, b);
    ``cdfs`` is the third value ``_pdf_ratios`` returns."""
    if spec.link is Link.PROBIT:
        # d/dw phi(w) = -w phi(w); the infinite bounds contribute nothing
        with np.errstate(invalid="ignore"):
            da = np.where(np.isfinite(a), a * r_a, 0.0)
            db = np.where(np.isfinite(b), -b * r_b, 0.0)
    else:
        # d/dw f(w) = f(w) (1 - 2 F(w))
        lam_a, lam_b = cdfs
        da = -r_a * (1.0 - 2.0 * lam_a)
        db = r_b * (1.0 - 2.0 * lam_b)
    d2aa = da - r_a * r_a
    d2bb = db - r_b * r_b
    d2ab = r_a * r_b
    return d2aa, d2bb, d2ab


def _cut_weights(y: np.ndarray, J: int, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """n x (J - 2) matrix holding ``upper`` in the column of gamma_y and
    ``lower`` in the column of gamma_{y-1}, wherever that cut-point is free."""
    W = np.zeros((y.size, J - 2))
    rows = np.flatnonzero((y >= 2) & (y <= J - 1))  # gamma_y is a free cut-point
    W[rows, y[rows] - 2] = upper[rows]
    rows = np.flatnonzero(y >= 3)                    # gamma_{y-1} is a free cut-point
    W[rows, y[rows] - 3] += lower[rows]
    return W


def _loglik_pass(spec: ModelSpec, params: ParamVector, data: Dataset):
    """First stage of a pass: (loglik, clamp count, state).

    ``state`` holds the parameters, the interval bounds and the clamped
    log-probabilities, everything ``_derivative_pass`` needs.
    """
    _check_dimensions(spec, params, data)
    a, b = _bounds(params, data)
    logp, n_clamped = _interval_logprob(spec.link, a, b)
    return float(np.sum(logp)), n_clamped, (params, a, b, logp)


def _derivative_pass(spec: ModelSpec, data: Dataset, state, order: int):
    """Second stage of a pass: (gradient, Hessian or None) from the state of
    ``_loglik_pass``; ``order`` 1 stops after the gradient.

    Derivatives are taken with respect to the interval bounds, mapped
    through the (linear) bound Jacobian and then the exp-spacing chain rule;
    the Hessian is symmetrized before returning.
    """
    params, a, b, logp = state
    X, y, J = data.X, data.y, spec.J
    r_a, r_b, cdfs = _pdf_ratios(spec, a, b, logp)
    A = _spacing_jacobian(params.delta)
    n_bins = J + 2  # bincount target length
    grad_gamma = np.bincount(y, r_b, n_bins)[2:J] - np.bincount(y, r_a, n_bins)[3:J + 1]
    grad_delta = A.T @ grad_gamma
    grad = np.concatenate([X.T @ (r_a - r_b), grad_delta])
    if order == 1:
        return grad, None

    d2aa, d2bb, d2ab = _curvature_terms(spec, a, b, r_a, r_b, cdfs)
    H = X.T @ (X * (d2aa + d2bb + 2.0 * d2ab)[:, None])
    if J > 2:
        bb_by_cat = np.bincount(y, d2bb, n_bins)
        aa_by_cat = np.bincount(y, d2aa, n_bins)
        ab_by_cat = np.bincount(y, d2ab, n_bins)
        H_gg = (np.diag(bb_by_cat[2:J] + aa_by_cat[3:J + 1])
                + np.diag(ab_by_cat[3:J], 1) + np.diag(ab_by_cat[3:J], -1))
        H_bg = -X.T @ _cut_weights(y, J, d2bb + d2ab, d2aa + d2ab)
        H_dd = A.T @ H_gg @ A + np.diag(grad_delta)
        H_bd = H_bg @ A
        H = np.block([[H, H_bd], [H_bd.T, H_dd]])
    return grad, 0.5 * (H + H.T)


def _evaluate(spec: ModelSpec, params: ParamVector, data: Dataset, order: int):
    """One pass over the data: (loglik, clamp count, gradient, Hessian).

    Runs ``_loglik_pass`` and, for ``order`` 1 or 2, ``_derivative_pass`` on
    its state. ``order`` 0 returns only the log-likelihood and clamp count,
    1 adds the gradient and 2 the Hessian; what is not requested is None.
    """
    ll, n_clamped, state = _loglik_pass(spec, params, data)
    if order == 0:
        return ll, n_clamped, None, None
    grad, H = _derivative_pass(spec, data, state, order)
    return ll, n_clamped, grad, H


def _loglik_clamped(spec: ModelSpec, params: ParamVector, data: Dataset) -> tuple[float, int]:
    return _evaluate(spec, params, data, 0)[:2]


def loglik(spec: ModelSpec, params: ParamVector, data: Dataset) -> float:
    """Sum of per-observation cell log-probabilities."""
    return _loglik_clamped(spec, params, data)[0]


def score_matrix(spec: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """Per-observation score contributions, shape (n, k + J - 2).

    Row sums reproduce ``grad_loglik`` up to summation order.
    """
    _check_dimensions(spec, params, data)
    a, b = _bounds(params, data)
    logp, _ = _interval_logprob(spec.link, a, b)
    r_a, r_b, _ = _pdf_ratios(spec, a, b, logp)
    scores_beta = data.X * (r_a - r_b)[:, None]
    if spec.J == 2:
        return scores_beta
    scores_gamma = _cut_weights(data.y, spec.J, r_b, -r_a)
    return np.hstack([scores_beta, scores_gamma @ _spacing_jacobian(params.delta)])


def grad_loglik(spec: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """Analytic gradient of ``loglik`` in (beta, delta) coordinates."""
    return _evaluate(spec, params, data, 1)[2]


def hess_loglik(spec: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """Analytic Hessian of ``loglik`` in (beta, delta) coordinates."""
    return _evaluate(spec, params, data, 2)[3]


def initial_params(spec: ModelSpec, data: Dataset) -> ParamVector:
    """Starting values from the empirical cumulative category shares.

    The intercept is set to the link quantile of the observed P(y > 1) and
    the cut-point spacings to differences of share quantiles, so the start
    is always interior and an intercept-only fit starts at its optimum.
    """
    if data.n == 0:
        raise ValueError("no observations to take starting values from")
    counts = np.bincount(data.y, minlength=spec.J + 1)[1:]
    cum_shares = np.cumsum(counts)[:-1] / data.n
    if np.any(cum_shares <= 0.0) or np.any(cum_shares >= 1.0):
        raise ValueError("every response category must appear at least once")
    q = spec.link.quantile(cum_shares)
    beta = np.zeros(spec.k)
    if spec.intercept:
        beta[0] = -q[0]
    delta = np.log(np.diff(q)) if spec.J > 2 else np.zeros(0)
    return ParamVector(beta=beta, delta=delta)
