"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports ``discretefit``. The ordinal log-likelihood and score
are written from the model definition: y = j when
gamma_{j-1} < x'beta + eps <= gamma_j, with gamma_0 = -inf, gamma_1 = 0,
gamma_J = +inf and gamma_j = gamma_{j-1} + exp(delta_j) for the interior
cut-points. Cell probabilities are differences of cdf values (survival
values for cells right of zero), not the log-space form the package uses.

The effective sample size follows Geyer (1992): autocovariances are summed
in adjacent pairs up to the first non-positive pair (initial positive
sequence), and the pair sums are made non-increasing (initial monotone
sequence).
"""

from __future__ import annotations

import numpy as np
from scipy import special

PROBIT = "probit"
LOGIT = "logit"


def _cdf(link: str, w: np.ndarray) -> np.ndarray:
    return special.ndtr(w) if link == PROBIT else special.expit(w)


def _pdf(link: str, w: np.ndarray) -> np.ndarray:
    w = np.where(np.isfinite(w), w, 0.0)
    if link == PROBIT:
        return np.exp(-0.5 * w * w) / np.sqrt(2.0 * np.pi)
    return special.expit(w) * special.expit(-w)


def cutpoints(delta) -> np.ndarray:
    """(-inf, 0, gamma_2, ..., gamma_{J-1}, +inf) from the log spacings."""
    delta = np.asarray(delta, dtype=float)
    return np.concatenate([[-np.inf, 0.0], np.cumsum(np.exp(delta)), [np.inf]])


def cell_probs(link: str, beta, delta, X) -> np.ndarray:
    """n x J matrix of P(y = j | x)."""
    gamma = cutpoints(delta)
    xb = np.asarray(X, dtype=float) @ np.asarray(beta, dtype=float)
    upper = _cdf(link, gamma[None, 1:] - xb[:, None])
    lower = _cdf(link, gamma[None, :-1] - xb[:, None])
    return upper - lower


def _cell_terms(link: str, beta, delta, X, y):
    gamma = cutpoints(delta)
    xb = np.asarray(X, dtype=float) @ np.asarray(beta, dtype=float)
    y = np.asarray(y)
    a = gamma[y - 1] - xb
    b = gamma[y] - xb
    # cells right of zero use survival values, which keeps small upper-tail
    # cells from being the difference of two numbers near one
    right = a + b > 0
    p = np.where(right, _cdf(link, -a) - _cdf(link, -b), _cdf(link, b) - _cdf(link, a))
    return a, b, p


def loglik(link: str, beta, delta, X, y) -> float:
    """Ordinal (binary when delta is empty) log-likelihood."""
    _, _, p = _cell_terms(link, beta, delta, X, y)
    return float(np.sum(np.log(p)))


def score(link: str, beta, delta, X, y) -> np.ndarray:
    """Gradient of ``loglik`` in (beta, delta) coordinates."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    delta = np.asarray(delta, dtype=float)
    a, b, p = _cell_terms(link, beta, delta, X, y)
    fa = _pdf(link, a) * np.isfinite(a)
    fb = _pdf(link, b) * np.isfinite(b)
    g_beta = -(X * ((fb - fa) / p)[:, None]).sum(axis=0)
    J = delta.size + 2
    # d log p / d gamma_j for the free cut-points j = 2..J-1
    g_gamma = np.array([
        np.sum(fb[y == j] / p[y == j]) - np.sum(fa[y == j + 1] / p[y == j + 1])
        for j in range(2, J)
    ])
    # gamma_j = sum_{m <= j} exp(delta_m), so d gamma_j / d delta_m = exp(delta_m)
    g_delta = np.exp(delta) * np.cumsum(g_gamma[::-1])[::-1] if delta.size else np.zeros(0)
    return np.concatenate([g_beta, g_delta])


def loglik_intercept_only(y, J: int) -> float:
    """Closed form sum_j n_j log(n_j / n) of the intercept-only model."""
    counts = np.bincount(np.asarray(y), minlength=J + 1)[1:].astype(float)
    n = counts.sum()
    counts = counts[counts > 0]
    return float(np.sum(counts * np.log(counts / n)))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    n = x.size
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size)
    return np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n


def iat(x) -> float:
    """Integrated autocorrelation time by Geyer's initial monotone sequence."""
    x = np.asarray(x, dtype=float)
    acov = _autocovariance(x)
    if acov[0] <= 0.0:
        return 1.0
    n_pairs = acov.size // 2
    pairs = acov[0:2 * n_pairs:2] + acov[1:2 * n_pairs:2]
    positive = np.nonzero(pairs <= 0.0)[0]
    m = positive[0] if positive.size else n_pairs
    monotone = np.minimum.accumulate(pairs[:m])
    tau = (-acov[0] + 2.0 * monotone.sum()) / acov[0]
    return float(max(tau, 1.0 / x.size))


def ess(x) -> float:
    """Effective sample size N / IAT of one chain."""
    x = np.asarray(x, dtype=float)
    return x.size / iat(x)


def pooled_ess(chains) -> np.ndarray:
    """Per-parameter ESS summed over independent chains, each (draws, params)."""
    total = None
    for draws in chains:
        per_param = np.array([ess(draws[:, i]) for i in range(draws.shape[1])])
        total = per_param if total is None else total + per_param
    return total
