"""Maximum-likelihood fitting, standard errors and goodness-of-fit measures.

The optimizer is a full Newton ascent in the coefficients and the free
cut-points (beta, gamma_2..gamma_{J-1}), where a log-concave link makes the
log-likelihood concave. Each iterate's log-likelihood, gradient and Hessian
come from one likelihood pass. For J >= 3 the line search scores a
candidate with the pass's first stage and, once it accepts one, runs the
derivative stage on that candidate's state. A binary fit scores each
candidate with one fused pass that gives the derivatives too, so a halved
binary candidate costs a whole pass. Unordered cut-points score -inf without
a pass; each proposed step is halved (up to 30 times) until the
log-likelihood improves, and when -H does not factor the fit stops
unconverged. A full step that loses no more than a few ulps of |loglik| is
also accepted, since near the optimum its gain can be smaller than the
rounding of the n-term sum. The accepted iterate sequence is therefore
monotone up to that rounding, and the whole fit is deterministic.
``FitOptions`` sets the iteration cap and the gradient tolerance; the other
settings are the module constants below.

The intercept-only log-likelihood behind the LR test and McFadden's R2 has
the closed form sum_j n_j log(n_j / n), because the intercept-only model
reproduces the observed category shares exactly.

Standard errors come from the observed information (inverse negative Hessian)
at the optimum; in (beta, cut-point) coordinates it is already on the scale
applied tables print.

Category probabilities F(gamma_j - x'b) - F(gamma_{j-1} - x'b) come from one
routine, ``_category_differences``, one category at a time: ``predict_prob``
stacks them, ``hit_rate`` keeps a running maximum over them, and the
effects take the same differences of the density.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import linalg, special

from . import likelihood as lk
from .data import Dataset, _text_table, check_square_sums
from .likelihood import ModelSpec, ParamVector


# a full Newton step may lose this many ulps of |loglik| and still be taken
_FULL_STEP_SLACK_ULPS = 8
# the fit stops once a step moves no parameter by more than this
_STEP_TOL = 1e-10
# halvings of a Newton step before the line search gives up
_MAX_HALVINGS = 30


class EstimationError(Exception):
    """The model cannot be estimated on this data."""


class SeparationError(EstimationError):
    """A covariate separates the response; the MLE does not exist."""


@dataclass
class FitOptions:
    """The iteration cap of the Newton fit, and the max |gradient| that ends
    it; the gradient is taken in the public (beta, delta) coordinates, the
    coefficients and the log spacings of the cut-points."""

    max_iter: int = 100
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")


@dataclass
class FitResult:
    spec: ModelSpec
    params: ParamVector
    se: np.ndarray
    vcov: np.ndarray
    loglik_fit: float
    loglik_0: float
    lr_stat: float | None
    lr_df: int | None
    lr_pvalue: float | None
    mcfadden_r2: float
    hit_rate: float
    iterations: int
    converged: bool
    n_obs: int
    history: list[float] = field(default_factory=list)

    @property
    def cutpoints(self) -> np.ndarray:
        return self.params.cutpoints()


def _neg_hessian_cholesky(H: np.ndarray):
    """Cholesky factor of -H, or None when -H is not positive definite."""
    try:
        return linalg.cho_factor(-H, lower=True)
    except linalg.LinAlgError:
        return None


def _params_at(theta: np.ndarray, k: int) -> ParamVector | None:
    """The parameters at (beta, gamma_2..gamma_{J-1}) = ``theta``, or None
    when the cut-points do not rise strictly, and finitely, above gamma_1 = 0."""
    spacings = np.diff(theta[k:], prepend=0.0)
    if not np.all((spacings > 0.0) & (spacings < np.inf)):
        return None
    return ParamVector(theta[:k], np.log(spacings))


def _validate_fit_inputs(spec: ModelSpec, data: Dataset) -> np.ndarray:
    """Refuse data the model cannot be fitted to; return the category counts."""
    counts = np.bincount(data.y, minlength=spec.J + 1)[1:spec.J + 1]
    for j, c in enumerate(counts, start=1):
        if c == 0:
            raise EstimationError(f"response category {j} never occurs in the data")
    if data.n <= spec.n_params:
        raise EstimationError(
            f"need more observations than parameters: n = {data.n}, parameters = {spec.n_params}"
        )
    if spec.intercept and not np.all(data.X[:, 0] == 1.0):
        raise EstimationError("spec declares an intercept but the first design column is not all ones")
    with np.errstate(over="ignore"):
        square_sums = np.einsum("ij,ij->j", data.X, data.X)
    check_square_sums(data.column_names, square_sums, EstimationError)
    # squares of |x| < 1e-162 underflow to 0, so a zero sum is confirmed on its column
    for j in np.flatnonzero(square_sums == 0.0):
        if not np.any(data.X[:, j]):
            raise EstimationError(
                f"design column {data.column_names[j]!r} is zero in every observation; "
                "its coefficient cannot be estimated"
            )
    return counts


def _grad_max(params: ParamVector, grad: np.ndarray, H: np.ndarray) -> float:
    """max |d loglik / d(beta, delta)| from the (beta, cut-point) derivatives:
    ``grad_tol`` bounds the gradient in the public coordinates."""
    return float(np.max(np.abs(lk._delta_derivatives(params.delta, grad, H)[0])))


def _evaluate(spec: ModelSpec, data: Dataset, params: ParamVector):
    """(loglik, derivatives) at ``params``, where derivatives() gives the
    (gradient, Hessian) in (beta, cut-points). At J = 2 one fused pass has
    already made them; above, the derivative stage runs on the call, so a
    candidate the line search rejects never pays for it."""
    if spec.J == 2:
        ll, grad, H = lk._binary_pass(spec, params, data)
        return ll, lambda: (grad, H)
    ll, state = lk._loglik_pass(spec, params, data)
    return ll, lambda: lk._derivative_pass(spec, data, state)


def _maximize(spec: ModelSpec, data: Dataset, opts: FitOptions, params: ParamVector):
    """Newton ascent in (beta, cut-points) from ``params``; the last iterate
    comes with its Hessian in those coordinates and the factor of -H.

    ``_evaluate`` scores the start and each candidate: at J = 2 with one
    fused pass, above with the first stage, the accepted candidate then
    going on to the derivative stage."""
    k = spec.k
    theta = np.concatenate([params.beta, params.cutpoints()[2:spec.J]])
    ll, derivatives = _evaluate(spec, data, params)
    grad, H = derivatives()
    factor = _neg_hessian_cholesky(H)
    history = [ll]

    for _ in range(opts.max_iter):
        if _grad_max(params, grad, H) < opts.grad_tol or factor is None:
            break
        direction = linalg.cho_solve(factor, grad)
        # near the optimum a full Newton step may move the log-likelihood by
        # less than the rounding of its n-term sum; accept it within a few
        # ulps so the gradient can still collapse to the tolerance
        slack = max(1e-12, _FULL_STEP_SLACK_ULPS * float(np.spacing(abs(ll))))
        # unordered cut-points or a cell narrower than the rounding score
        # -inf; the accepted candidate's derivatives are those of the new
        # iterate
        alpha = 1.0
        for halving in range(_MAX_HALVINGS + 1):
            step = alpha * direction
            cand = theta + step
            cand_params = _params_at(cand, k)
            cand_ll = -math.inf
            if cand_params is not None:
                cand_ll, derivatives = _evaluate(spec, data, cand_params)
            acceptable = cand_ll > ll or (halving == 0 and cand_ll >= ll - slack)
            if math.isfinite(cand_ll) and acceptable:
                break
            alpha *= 0.5
        else:
            break

        theta, params, ll = cand, cand_params, cand_ll
        grad, H = derivatives()
        factor = _neg_hessian_cholesky(H)
        history.append(ll)

        beta_max = float(np.max(np.abs(theta[:k])))
        if beta_max > 30.0:
            name = data.column_names[int(np.argmax(np.abs(theta[:k])))]
            raise SeparationError(
                f"coefficient for {name!r} diverged past |30| while the log-likelihood is still "
                "improving; the data appear to be perfectly separated"
            )
        if np.max(np.abs(step)) < _STEP_TOL:
            break

    converged = _grad_max(params, grad, H) < opts.grad_tol and factor is not None
    return params, ll, H, factor, converged, history


def fit_ml(spec: ModelSpec, data: Dataset, opts: FitOptions | None = None) -> FitResult:
    """Fit a binary/ordinal model by Newton ascent on the log-likelihood.

    Raises :class:`EstimationError` when a response category is absent, a
    design column is zero in every row or too large to fit, or the sample
    is smaller than the parameter count, and :class:`SeparationError` when a
    coefficient diverges. Non-convergence is not an exception: the result
    comes back with ``converged=False`` and diagnostics intact.
    """
    opts = opts or FitOptions()
    counts = _validate_fit_inputs(spec, data)

    params, ll, H, factor, converged, history = _maximize(
        spec, data, opts, lk.initial_params(spec, counts))
    # the inverse of -H in (beta, cut-points) is already the reported covariance
    vcov = np.linalg.pinv(-H) if factor is None else linalg.cho_solve(factor, np.eye(H.shape[0]))
    se = np.sqrt(np.clip(np.diag(vcov), 0.0, None))

    if spec.intercept and spec.k == 1:
        ll0 = ll
    else:
        ll0 = float(np.sum(counts * np.log(counts / data.n)))

    lr_df = (spec.k - 1) if spec.intercept else spec.k
    # a non-converged fit can sit below the baseline; no LR test then
    if lr_df > 0 and ll >= ll0 - 1e-8:
        lr_stat, lr_pvalue = lr_test(ll0, ll, lr_df)
    else:
        lr_stat = lr_pvalue = lr_df = None

    r2 = mcfadden_r2(ll0, ll)
    hr = hit_rate(spec, params, data)

    return FitResult(
        spec=spec, params=params, se=se, vcov=vcov,
        loglik_fit=ll, loglik_0=ll0,
        lr_stat=lr_stat, lr_df=lr_df, lr_pvalue=lr_pvalue,
        mcfadden_r2=r2, hit_rate=hr,
        iterations=len(history) - 1, converged=converged,
        n_obs=data.n, history=history,
    )


def fit_intercept_only(spec: ModelSpec, data: Dataset, opts: FitOptions | None = None) -> FitResult:
    """Fit the same link and J with the design reduced to an intercept."""
    reduced = Dataset(
        y=data.y, X=np.ones((data.n, 1)), column_names=["intercept"], J=data.J
    )
    reduced_spec = ModelSpec(family=None, link=spec.link, J=spec.J, k=1, intercept=True)
    return fit_ml(reduced_spec, reduced, opts)


def lr_test(loglik_0: float, loglik_fit: float, df: int) -> tuple[float, float]:
    """Likelihood-ratio statistic -2(lnL0 - lnLfit) and its chi-square p-value."""
    if df < 1:
        raise ValueError("the likelihood-ratio test needs at least one restriction")
    if loglik_fit < loglik_0 - 1e-8:
        raise ValueError(
            f"fitted log-likelihood {loglik_fit} is below the intercept-only value {loglik_0}"
        )
    stat = max(0.0, -2.0 * (loglik_0 - loglik_fit))
    pvalue = float(special.chdtrc(df, stat))
    return stat, pvalue


def mcfadden_r2(loglik_0: float, loglik_fit: float) -> float:
    """McFadden's pseudo R-square, 1 - lnLfit/lnL0."""
    if loglik_0 == 0.0:
        raise ValueError("intercept-only log-likelihood must be negative")
    return max(0.0, 1.0 - loglik_fit / loglik_0)


def _category_differences(fn, gamma: np.ndarray, xb: np.ndarray, top: float):
    """For j = 1..J, the column fn(gamma_j - xb) - fn(gamma_{j-1} - xb), one
    at a time. fn is taken as 0 at gamma_0 = -inf and as ``top`` at
    gamma_J = +inf, so only the interior cut-points are evaluated."""
    lower = 0.0
    for cut in gamma[1:-1]:
        upper = fn(cut - xb)
        yield upper - lower
        lower = upper
    yield top - lower


def predict_prob(spec: ModelSpec, params: ParamVector, X_new: np.ndarray) -> np.ndarray:
    """n x J matrix of cell probabilities; each row sums to one exactly.

    Computed as first differences of the link cdf over the cut-points, so
    the row sum telescopes to F(inf) - F(-inf) = 1. Raises ValueError, with
    the likelihood's messages, for parameters that do not fit ``spec``
    ("beta has shape (3,), expected (2,)", "delta has length 1, expected
    J - 2 = 2") or a design whose width is not k ("design has 3 columns but
    spec declares k = 2").
    """
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    lk._check_dimensions(spec, params, X_new)
    probs = _category_differences(spec.link.cdf, params.cutpoints(), X_new @ params.beta, 1.0)
    return np.stack(list(probs), axis=1)


def hit_rate(spec: ModelSpec, params: ParamVector, data: Dataset) -> float:
    """Percentage of observations whose observed category has the highest
    predicted probability; ties go to the lowest category index. It takes
    ``predict_prob``'s probabilities one category at a time and keeps the
    running maximum and its category in place, over one chunk of rows at a
    time in each of the likelihood's row runs, so no n x J matrix is built
    and each run only counts its hits. Refuses what ``predict_prob``
    refuses, and data of another J ("data has J = 3 categories but spec
    declares J = 4")."""
    lk._check_dimensions(spec, params, data.X, data.J)
    gamma = params.cutpoints()

    def run(chunks):
        hits = 0
        for rows in chunks:
            y = data.y[rows]
            probs = _category_differences(spec.link.cdf, gamma, data.X[rows] @ params.beta, 1.0)
            best = next(probs)
            predicted = np.ones(y.size, dtype=y.dtype)
            for j, prob in enumerate(probs, start=2):
                np.copyto(predicted, j, where=prob > best)
                np.maximum(best, prob, out=best)
            hits += np.count_nonzero(predicted == y)
        return hits

    # a numpy division: no rows give nan and a RuntimeWarning, as a mean would
    return float(np.float64(sum(lk._row_runs(data.n, run))) / data.n * 100.0)


def _stars(p: float) -> str:
    if p < 0.05:
        return "**"
    if p < 0.10:
        return "*"
    return ""


def coefficient_rows(fit: FitResult, names: list[str]) -> list[dict]:
    """One dict per coefficient/cut-point: estimate, se, z, p, stars."""
    spec = fit.spec
    if len(names) != spec.k:
        raise ValueError(f"got {len(names)} names for {spec.k} coefficients")
    labels = list(names) + [f"cut-point {j}" for j in range(2, spec.J)]
    estimates = np.concatenate([fit.params.beta, fit.cutpoints[2:spec.J]])
    rows = []
    for label, est, se in zip(labels, estimates, fit.se):
        if se > 0:
            z = est / se
            p = 2.0 * float(special.ndtr(-abs(z)))
        else:
            z = math.inf if est != 0 else 0.0
            p = 0.0 if est != 0 else 1.0
        rows.append({
            "name": label,
            "estimate": float(est),
            "se": float(se),
            "z": float(z),
            "p": float(p),
            "stars": _stars(p),
        })
    return rows


def fit_report_dict(fit: FitResult, names: list[str]) -> dict:
    """Machine-readable report mirroring the FitResult fields."""
    return {
        "model": asdict(fit.spec),
        "coefficients": coefficient_rows(fit, names),
        "loglik_fit": fit.loglik_fit,
        "loglik_0": fit.loglik_0,
        "lr_stat": fit.lr_stat,
        "lr_df": fit.lr_df,
        "lr_pvalue": fit.lr_pvalue,
        "mcfadden_r2": fit.mcfadden_r2,
        "hit_rate": fit.hit_rate,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "n_obs": fit.n_obs,
    }


def summary_table(fit: FitResult, names: list[str]) -> str:
    """Aligned plain-text estimation report (4-decimal rounding).

    Significance stars: ** for p < 0.05, * for p < 0.10 (two-sided normal).
    """
    rows = coefficient_rows(fit, names)
    columns = [("estimate", 10), ("se", 10), ("z", 10), ("p", 8)]
    table = _text_table(columns, [(r["name"], [r[key] for key, _ in columns]) for r in rows])
    lines = table[:2] + [f"{line}  {r['stars']}" for line, r in zip(table[2:], rows)] + [table[1]]
    if fit.lr_stat is not None:
        lines.append(
            f"LR chi2({fit.lr_df}) = {fit.lr_stat:.4f}   p = {fit.lr_pvalue:.4f}"
        )
    else:
        lines.append("LR chi2: not defined (no slope restrictions)")
    lines.append(f"McFadden R2 = {fit.mcfadden_r2:.4f}")
    lines.append(f"hit rate = {fit.hit_rate:.4f}%")
    lines.append(
        f"n = {fit.n_obs}   loglik = {fit.loglik_fit:.4f}   "
        f"intercept-only loglik = {fit.loglik_0:.4f}"
    )
    lines.append(f"iterations = {fit.iterations}   converged = {str(fit.converged).lower()}")
    lines.append("** p < 0.05, * p < 0.10")
    return "\n".join(lines) + "\n"
