"""Independent numerical oracles used to derive expected test values.

Nothing here touches scipy or the package under test: the normal cdf comes
from a high-precision Taylor series for erf (>= 30 terms, evaluated in
50-digit arithmetic), far tails from the asymptotic Mills-ratio expansion,
the cdf of a truncated normal from mpmath's erfc, quantiles from bisection
on the series, the logistic log-cdf and log-density from their definitions
in 50-digit arithmetic, and chi-square tails from a direct series /
continued-fraction evaluation of the regularized incomplete gamma.
``encode_rowwise`` is a row-by-row reference for the schema encoder; it
reads the table through ``table_rows``, a row view the package does not keep.
``trunc_norm_draws_masked`` and ``gibbs_probit_reference`` are the earlier
forms of the truncated-normal draws and of the probit sweep loop (masked
branches, full likelihood passes, scipy's solve wrappers); they do use scipy
and the package, and the faster forms must reproduce their draws bit for bit.
``bound_terms_unblocked`` and ``derivative_pass_unblocked`` are the earlier,
whole-array form of the likelihood's derivative stage (link kernels on every
bound, infinite ones included, an n x k weighted copy of X and an
n x (J - 2) cut-weight matrix); the blocked stage must agree with them to
rounding, and per row bit for bit.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import linalg, special

from discretefit import bayes
from discretefit import likelihood as lk
from discretefit.distributions import (
    _LARGEST_P_BELOW_1,
    _TAIL_SPLIT,
    Link,
    _upper_tail_draw,
)

mpmath.mp.dps = 50

_SQRT2 = mpmath.sqrt(2)


def erf_series(z) -> mpmath.mpf:
    """Taylor series erf(z) = 2/sqrt(pi) * sum (-1)^n z^(2n+1) / (n! (2n+1)).

    Runs at least 30 terms and keeps going until the terms fall below
    1e-40; with 50-digit arithmetic the alternating cancellation for
    moderate z is harmless.
    """
    z = mpmath.mpf(z)
    total = mpmath.mpf(0)
    term = z
    n = 0
    while n < 30 or abs(term) > mpmath.mpf("1e-40"):
        total += term
        n += 1
        term = term * (-z * z) / n * (2 * n - 1) / (2 * n + 1)
        if n > 500:
            raise RuntimeError("erf series failed to converge")
    return 2 / mpmath.sqrt(mpmath.pi) * total


def norm_cdf_oracle(w) -> float:
    """Standard normal cdf via the erf series (|w| <= ~8) or the tail expansion."""
    w = float(w)
    if abs(w) <= 8.0:
        return float(mpmath.mpf("0.5") * (1 + erf_series(w / _SQRT2)))
    tail = math.exp(norm_log_tail_oracle(abs(w)))
    return tail if w < 0 else 1.0 - tail


def norm_log_tail_oracle(w) -> float:
    """log Phi(-w) for large w > 0 from the asymptotic expansion
    Phi(-w) ~ phi(w)/w * (1 - 1/w^2 + 3/w^4 - 15/w^6 + ...)."""
    w = mpmath.mpf(w)
    series = mpmath.mpf(1)
    term = mpmath.mpf(1)
    coef = 1
    for n in range(1, 20):
        coef *= 2 * n - 1
        new = mpmath.mpf(coef) / w ** (2 * n)
        if new > abs(term):
            break  # asymptotic series started diverging
        term = new
        series += (-1) ** n * new
    log_phi = -w * w / 2 - mpmath.log(mpmath.sqrt(2 * mpmath.pi))
    return float(log_phi - mpmath.log(w) + mpmath.log(series))


def trunc_norm_cdf_oracle(a: float, b: float):
    """The cdf of a unit normal truncated to (a, b], from mpmath's erfc in
    30-digit arithmetic; b may be +inf."""
    def tail(w) -> mpmath.mpf:
        return mpmath.erfc(mpmath.mpf(w) / _SQRT2) / 2

    with mpmath.workdps(30):
        tail_a, tail_b = tail(a), tail(b)

    def cdf(x: float) -> float:
        with mpmath.workdps(30):
            return float((tail_a - tail(x)) / (tail_a - tail_b))

    return cdf


def norm_cdf_float_oracle(w: float) -> float:
    """Float-precision Phi(w) from the C library erfc; fast enough to serve
    as the reference cdf in sample-level (KS) comparisons."""
    return 0.5 * math.erfc(-float(w) / math.sqrt(2.0))


def norm_quantile_oracle(p: float) -> float:
    """Bisection for Phi^{-1}(p) on the series oracle."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_cdf_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def logistic_log_cdf_oracle(w) -> mpmath.mpf:
    """log F(w) = -log(1 + exp(-w)) of the logistic, in 50-digit arithmetic."""
    return -mpmath.log1p(mpmath.exp(-mpmath.mpf(w)))


def logistic_log_pdf_oracle(w) -> mpmath.mpf:
    """log f(w) = log F(w) + log F(-w) of the logistic, in 50-digit arithmetic."""
    return logistic_log_cdf_oracle(w) + logistic_log_cdf_oracle(-w)


def ulp_distance(got, exact) -> int:
    """How many doubles lie between ``got`` and the double nearest to
    ``exact``, plus one if they differ: 0 when ``got`` is correctly rounded,
    1 when it is a neighbour of that double. Both zeros count as one value."""

    def rank(x: float) -> int:
        bits = int(np.float64(x).view(np.int64))
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(rank(got) - rank(float(exact)))


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by its power series."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(10000):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by a Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf_oracle(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution via the incomplete gamma."""
    a = df / 2.0
    t = x / 2.0
    if t <= 0:
        return 1.0
    if t < a + 1.0:
        return 1.0 - _lower_gamma_series(a, t)
    return _upper_gamma_cf(a, t)


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return out


def finite_diff_jac(g, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a vector function, one row per coordinate."""
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        rows.append((g(x + step) - g(x - step)) / (2.0 * h))
    return np.asarray(rows)


def ks_statistic(draws: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sample from a cdf."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    f = np.asarray([cdf(v) for v in x])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def table_rows(raw):
    """The cells of a ``RawTable`` as one list per row."""
    columns = [list(map(cells.tolist().__getitem__, codes.tolist()))
               for codes, cells in zip(raw.codes, raw.cells)]
    return [list(row) for row in zip(*columns)]


def encode_rowwise(raw, schema):
    """Row-by-row reference for ``discretefit.data.build_dataset``.

    Reads only the header and the row view (``columns``, ``table_rows``) and
    of the schema. Returns ``(X, y, names, (n_raw, n_dropped, n, warnings))``,
    or raises ValueError with the message the encoder gives for the input:
    unknown columns first, then missing base levels, then the first kept row
    with an unknown label, then each covariate's first faulty kept row or,
    for a continuous one, a sum of squares that overflows.
    """
    missing = {tok.strip() for tok in schema.missing}
    rows = table_rows(raw)

    def index(name):
        if name not in raw.columns:
            raise ValueError(f"column {name!r} not present in the data")
        return raw.columns.index(name)

    resp_idx = index(schema.response)
    cov_idx = {cov.name: index(cov.name) for cov in schema.covariates}
    label_code = {label: j for j, label in enumerate(schema.labels, start=1)}
    levels = {}
    for cov in schema.covariates:
        if cov.kind == "categorical":
            observed = {row[cov_idx[cov.name]].strip() for row in rows} - missing
            if cov.base not in observed:
                raise ValueError(
                    f"base level {cov.base!r} of covariate {cov.name!r} does not occur in the data"
                )
            levels[cov.name] = sorted(observed - {cov.base})

    kept, y = [], []
    for i, row in enumerate(rows, start=1):
        cells = [row[resp_idx]] + [row[cov_idx[cov.name]] for cov in schema.covariates]
        if any(cell.strip() in missing for cell in cells):
            continue
        label = row[resp_idx].strip()
        if label not in label_code:
            raise ValueError(f"row {i}: unknown response label {label!r}")
        kept.append(i)
        y.append(label_code[label])

    names = ["intercept"] if schema.intercept else []
    columns = [[1.0] * len(kept)] if schema.intercept else []
    warnings = []
    for cov in schema.covariates:
        idx = cov_idx[cov.name]
        if cov.kind == "categorical":
            for level in levels[cov.name]:
                indicator = [1.0 if rows[i - 1][idx].strip() == level else 0.0 for i in kept]
                if kept and not any(indicator):
                    warnings.append(
                        f"level {level!r} of {cov.name!r} has no remaining observations; "
                        "indicator column is all zeros"
                    )
                names.append(f"{cov.name}={level}")
                columns.append(indicator)
            continue
        values = []
        for i in kept:
            cell = rows[i - 1][idx].strip()
            where = f"row {i}, column {cov.name!r}"
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{where}: cannot parse {cell!r} as a number") from None
            if not math.isfinite(value):
                raise ValueError(f"{where}: non-finite value {cell!r}")
            if cov.kind == "log":
                if value <= 0.0:
                    raise ValueError(f"{where}: log transform of non-positive value {value}")
                value = math.log(value)
            values.append(value)
        if cov.kind == "continuous" and not math.isfinite(sum(v * v for v in values)):
            raise ValueError(f"column {cov.name!r}: values too large to fit, "
                             "their sum of squares overflows")
        names.append(cov.name)
        columns.append(values)

    X = np.array(columns, dtype=float).reshape(len(columns), len(kept)).T
    n_raw = len(rows)
    return X, np.array(y, dtype=int), names, (n_raw, n_raw - len(kept), len(kept), warnings)


def trunc_norm_draws_masked(mean, lower, upper, rng):
    """``trunc_norm_draws`` with each branch evaluated under its own mask on
    broadcast copies: the form it had before the whole-array formula."""
    mean = np.asarray(mean, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    shape = np.broadcast_shapes(mean.shape, lower.shape, upper.shape)
    a = np.broadcast_to(lower - mean, shape).copy()
    b = np.broadcast_to(upper - mean, shape).copy()
    u = rng.uniform(size=shape)
    out = np.empty(shape)
    right = a >= _TAIL_SPLIT
    left = b <= -_TAIL_SPLIT
    mid = ~(right | left)
    if np.any(mid):
        fa = special.ndtr(a[mid])
        fb = special.ndtr(b[mid])
        p = fa + (1.0 - u[mid]) * (fb - fa)
        out[mid] = special.ndtri(np.minimum(p, _LARGEST_P_BELOW_1))
    if np.any(right):
        out[right] = _upper_tail_draw(a[right], b[right], u[right])
    if np.any(left):
        out[left] = -_upper_tail_draw(-b[left], -a[left], u[left])
    return out + np.broadcast_to(mean, shape)


def gibbs_probit_reference(data, prior=None, S=11000, burn=1000, rng=0, mh_step=0.0):
    """The probit sweep loop in its earlier form, for bit-for-bit checks.

    Two full ``loglik`` passes per ordinal sweep (the proposal, and the
    refresh after the coefficient draw), ``X @ beta`` recomputed for the
    latent draw, ``cho_solve`` and ``solve_triangular`` for the coefficient
    block, and ``trunc_norm_draws_masked``. Returns a ``ChainDraws``.
    """
    prior = prior or bayes.PriorSpec()
    rng, seed = bayes._resolve_rng(rng)
    k = data.X.shape[1]
    b0, B0 = prior.resolved(k)
    P0 = linalg.cho_solve(linalg.cho_factor(B0), np.eye(k))
    L = np.linalg.cholesky(P0 + data.X.T @ data.X)
    P0b0 = P0 @ b0
    spec = lk.ModelSpec(family=None, link=Link.PROBIT, J=data.J, k=k,
                        intercept=bool(data.n) and np.all(data.X[:, 0] == 1.0))
    counts = np.bincount(data.y, minlength=data.J + 1)[1:]
    if np.all(counts):
        start = lk.initial_params(spec, counts)
        beta, delta = start.beta, start.delta
    else:
        beta, delta = np.zeros(k), np.zeros(data.J - 2)

    m_free = data.J - 2
    beta_draws = np.empty((S, k))
    delta_draws = np.empty((S, m_free))
    accepted = 0
    half_prec = 0.5 / prior.delta_var
    if m_free:
        cur_ll = lk.loglik(spec, lk.ParamVector(beta, delta), data)
        cur_prior = -half_prec * float(delta @ delta)
    lower, upper = lk._bounds(delta, data.y, 0.0)
    z = np.zeros(0)
    for s in range(S):
        if m_free:
            proposal = delta + mh_step * rng.standard_normal(m_free)
            prop_ll = lk.loglik(spec, lk.ParamVector(beta, proposal), data)
            prop_prior = -half_prec * float(proposal @ proposal)
            log_ratio = (prop_ll + prop_prior) - (cur_ll + cur_prior)
            if rng.uniform() < math.exp(min(0.0, log_ratio)):
                delta = proposal
                cur_ll, cur_prior = prop_ll, prop_prior
                accepted += 1
                lower, upper = lk._bounds(delta, data.y, 0.0)
        if data.n:
            z = trunc_norm_draws_masked(data.X @ beta, lower, upper, rng)
        mean = linalg.cho_solve((L, True), P0b0 + data.X.T @ z)
        beta = mean + linalg.solve_triangular(L.T, rng.standard_normal(k), lower=False)
        if m_free:
            cur_ll = lk.loglik(spec, lk.ParamVector(beta, delta), data)
        beta_draws[s] = beta
        delta_draws[s] = delta
    return bayes.ChainDraws(
        beta=beta_draws, delta=delta_draws,
        param_names=list(data.column_names) + bayes._delta_names(data.J),
        burn=burn, accept_rate=accepted / S if m_free else None, seed=seed,
    )


def bound_terms_unblocked(link, a, b, logp):
    """Per-row (r_a, r_b, da, db): the pdf ratios f/p at the bounds and
    f'/p, from ``Link.log_pdf`` and ``Link.cdf`` evaluated on every bound,
    the infinite ones guarded afterwards."""
    with np.errstate(invalid="ignore", over="ignore"):
        r_a = np.exp(link.log_pdf(a) - logp)
        r_b = np.exp(link.log_pdf(b) - logp)
        if link is Link.PROBIT:
            da = np.where(np.isfinite(a), a * r_a, 0.0)
            db = np.where(np.isfinite(b), -b * r_b, 0.0)
        else:
            da = -r_a * (1.0 - 2.0 * link.cdf(a))
            db = r_b * (1.0 - 2.0 * link.cdf(b))
    return r_a, r_b, da, db


def cut_weights_unblocked(y, J, upper, lower):
    """n x (J - 2) matrix holding ``upper`` in the column of gamma_y and
    ``lower`` in the column of gamma_{y-1}, by boolean-mask scatter."""
    W = np.zeros((y.size, J - 2))
    upper_free = (y >= 2) & (y <= J - 1)
    lower_free = y >= 3
    W[upper_free, y[upper_free] - 2] = upper[upper_free]
    W[lower_free, y[lower_free] - 3] += lower[lower_free]
    return W


def derivative_pass_unblocked(spec, data, state):
    """(gradient, Hessian) in (beta, gamma_2..gamma_{J-1}) from a
    ``_loglik_pass`` state, all rows at once."""
    a, b, logp = state
    X, y, J = data.X, data.y, spec.J
    r_a, r_b, da, db = bound_terms_unblocked(spec.link, a, b, logp)
    d2aa, d2bb, d2ab = da - r_a * r_a, db - r_b * r_b, r_a * r_b
    n_bins = J + 2
    grad_gamma = np.bincount(y, r_b, n_bins)[2:J] - np.bincount(y, r_a, n_bins)[3:J + 1]
    grad = np.concatenate([X.T @ (r_a - r_b), grad_gamma])
    H = X.T @ (X * (d2aa + d2bb + 2.0 * d2ab)[:, None])
    bb_by_cat = np.bincount(y, d2bb, n_bins)
    aa_by_cat = np.bincount(y, d2aa, n_bins)
    ab_by_cat = np.bincount(y, d2ab, n_bins)
    H_gg = (np.diag(bb_by_cat[2:J] + aa_by_cat[3:J + 1])
            + np.diag(ab_by_cat[3:J], 1) + np.diag(ab_by_cat[3:J], -1))
    H_bg = -X.T @ cut_weights_unblocked(y, J, d2bb + d2ab, d2aa + d2ab)
    H = np.block([[H, H_bg], [H_bg.T, H_gg]])
    return grad, 0.5 * (H + H.T)
