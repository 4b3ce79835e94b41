"""Gibbs sampling for the probit model via data augmentation.

One sweep loop serves every J >= 2; binary data is its J = 2 case. Each
sweep first moves the transformed cut-points (log spacings, so order is
preserved by construction) through a random-walk Metropolis-Hastings step
whose acceptance ratio uses the ordinal likelihood with z integrated out,
together with the cut-point prior. With J = 2 there is no free cut-point and
this block is skipped. The sweep then draws the latent utilities z
element-wise from normals truncated to the interval their observed category
dictates, and the coefficient block from its conjugate multivariate normal
full conditional N((B0^-1 + X'X)^-1 (B0^-1 b0 + X'z), (B0^-1 + X'X)^-1).
Chains start from the share-quantile values of ``likelihood.initial_params``,
or from zero when some category is unobserved.

The sweep does only the work that can change a draw. It computes X beta once
per coefficient draw; the latent draw and the per-row log-likelihood at the
new beta both use it. A cut-point proposal moves no bound of a row with
y = 1, whose interval is (-inf, 0], so the MH step re-evaluates only the
rows with y >= 2 and sums them with the kept values of the others, which
gives the bits of a full pass. The draws are the same as from full
likelihood passes.

Default priors are weakly informative: beta ~ N(0, 100 I) and each log
spacing ~ N(0, 25). With no data the samplers reproduce the prior.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from . import likelihood as lk
from .data import Dataset
from .distributions import Link, trunc_norm_draws
from .likelihood import FAMILY_ORDINAL, ModelSpec


@dataclass
class PriorSpec:
    """Normal prior on the coefficients and the transformed cut-points."""

    b0: np.ndarray | None = None
    B0: np.ndarray | None = None
    delta_var: float = 25.0

    def resolved(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        b0 = np.zeros(k) if self.b0 is None else np.atleast_1d(np.asarray(self.b0, dtype=float))
        B0 = 100.0 * np.eye(k) if self.B0 is None else np.asarray(self.B0, dtype=float)
        if b0.shape != (k,):
            raise ValueError(f"prior mean has shape {b0.shape}, expected ({k},)")
        if not np.all(np.isfinite(b0)):
            raise ValueError(f"prior mean b0 must be finite, got {b0}")
        if not np.all(np.isfinite(B0)):
            raise ValueError("prior covariance B0 must be finite")
        if B0.shape != (k, k) or not np.allclose(B0, B0.T):
            raise ValueError("prior covariance must be a symmetric k x k matrix")
        try:
            linalg.cho_factor(B0)
        except linalg.LinAlgError:
            raise ValueError("prior covariance must be positive definite") from None
        if not (math.isfinite(self.delta_var) and self.delta_var > 0):
            raise ValueError(
                f"delta_var (the delta prior variance) must be positive and finite, "
                f"got {self.delta_var}"
            )
        return b0, B0


@dataclass
class ChainDraws:
    """Stored MCMC draws plus sampler metadata (burn-in rows included)."""

    beta: np.ndarray                  # (S, k)
    delta: np.ndarray                 # (S, J-2)
    param_names: list[str]
    burn: int
    accept_rate: float | None = None
    seed: int | None = None
    latent_z: np.ndarray | None = None

    @property
    def n_draws(self) -> int:
        return self.beta.shape[0]

    def draws(self, include_burn: bool = False) -> np.ndarray:
        all_draws = np.hstack([self.beta, self.delta]) if self.delta.size else self.beta
        return all_draws if include_burn else all_draws[self.burn:]

    def save_csv(self, path) -> None:
        """Flat CSV, one row per draw (burn-in rows included), full precision."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.param_names)
            for row in self.draws(include_burn=True):
                writer.writerow([repr(float(v)) for v in row])


def _resolve_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng)), int(rng)
    return rng, None


def _check_lapack_info(routine: str, info: int) -> None:
    """Raise as scipy's solve wrappers do on a nonzero LAPACK ``info``."""
    if info > 0:
        raise linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal {routine}")


def _coef_sampler(X: np.ndarray, b0: np.ndarray, B0: np.ndarray):
    """Precompute the conjugate-normal pieces for the beta full conditional.

    A draw solves with the Cholesky factor L of the posterior precision by
    LAPACK ``potrs`` (the mean) and ``trtrs`` on L' (the noise), fetched
    once: the routines and the Fortran-ordered operands that ``cho_solve``
    and ``solve_triangular(L.T, ..., lower=False)`` reach, without their
    per-call conversions and finiteness checks. The inputs are checked once,
    by ``PriorSpec.resolved`` and the Dataset.
    """
    P0 = linalg.cho_solve(linalg.cho_factor(B0), np.eye(B0.shape[0]))
    precision = P0 + X.T @ X
    try:
        L = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError:
        raise ValueError("posterior precision for beta is singular") from None
    P0b0 = P0 @ b0
    L_fortran = np.asfortranarray(L)
    L_upper = L.T  # a Fortran-ordered view
    potrs, trtrs = linalg.get_lapack_funcs(("potrs", "trtrs"), (L_fortran,))

    def draw(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        mean, info = potrs(L_fortran, P0b0 + X.T @ z, lower=1, overwrite_b=1)
        _check_lapack_info("potrs", info)
        noise, info = trtrs(L_upper, rng.standard_normal(b0.size), lower=0, trans=0,
                            overwrite_b=1)
        _check_lapack_info("trtrs", info)
        return mean + noise

    return draw


def _latent_bounds(delta: np.ndarray, y: np.ndarray, debug: bool):
    """Interval (gamma_{y-1}, gamma_y] of each latent utility."""
    gamma = lk.cutpoints_from_delta(delta)
    if debug:
        assert np.all(np.diff(gamma) > 0.0)
    return gamma[y - 1], gamma[y]


def _delta_names(J: int) -> list[str]:
    return [f"delta{j}" for j in range(2, J)]


def gibbs_binary_probit(data: Dataset, prior: PriorSpec | None = None,
                        S: int = 11000, burn: int = 1000, rng=0,
                        debug: bool = False) -> ChainDraws:
    """Data-augmentation Gibbs sampler for the binary probit model.

    ``rng`` may be a seed (recorded in the output) or a Generator. All S
    draws are stored; summaries discard the first ``burn``.
    """
    if data.J != 2:
        raise ValueError("gibbs_binary_probit needs binary (J = 2) data")
    return _gibbs_probit(data, prior, S, burn, rng, debug)


def gibbs_ordinal_probit(data: Dataset, prior: PriorSpec | None = None,
                         S: int = 11000, burn: int = 1000, mh_step: float = 0.1,
                         rng=0, debug: bool = False) -> ChainDraws:
    """Gibbs sampler for the ordinal probit with an MH block on the cut-points.

    The log spacings delta move jointly by a random walk with scale
    ``mh_step``; the acceptance ratio combines the z-marginalized ordinal
    likelihood at the current beta with the N(0, delta_var) prior.
    """
    if data.J == 2:
        raise ValueError("J = 2 data is binary; use gibbs_binary_probit")
    if data.J < 3:
        raise ValueError("ordinal sampler needs J >= 3 categories")
    if not (math.isfinite(mh_step) and mh_step > 0):
        raise ValueError(f"mh_step must be positive and finite, got {mh_step}")
    return _gibbs_probit(data, prior, S, burn, rng, debug, mh_step)


def _gibbs_probit(data: Dataset, prior: PriorSpec | None, S: int, burn: int,
                  rng, debug: bool, mh_step: float = 0.0) -> ChainDraws:
    """The sweep loop shared by both samplers, for any J >= 2.

    With J = 2 the cut-point block is empty: no likelihood pass, no MH
    draws (``mh_step`` is unused), and ``accept_rate`` is None. Otherwise
    ``cur_logp`` holds the per-row log-probabilities at the current
    (beta, delta), refreshed after each coefficient draw.
    """
    if not S > burn >= 0:
        raise ValueError(f"need S > burn >= 0, got S = {S}, burn = {burn}")
    prior = prior or PriorSpec()
    rng, seed = _resolve_rng(rng)
    X, y = data.X, data.y
    k = X.shape[1]
    b0, B0 = prior.resolved(k)
    draw_beta = _coef_sampler(X, b0, B0)
    spec = ModelSpec(family=FAMILY_ORDINAL, link=Link.PROBIT, J=data.J, k=k,
                     intercept=bool(data.n) and np.all(X[:, 0] == 1.0))

    try:
        start = lk.initial_params(spec, data)
        beta, delta = start.beta, start.delta
    except ValueError:
        beta, delta = np.zeros(k), np.zeros(data.J - 2)

    m_free = data.J - 2
    beta_draws = np.empty((S, k))
    delta_draws = np.empty((S, m_free))
    accepted = 0
    half_prec = 0.5 / prior.delta_var
    lower, upper = _latent_bounds(delta, y, debug)
    xb = X @ beta
    if m_free:
        moved = np.flatnonzero(y >= 2)  # rows with a bound among the free cut-points
        y_moved = y[moved]
        cur_logp = lk._interval_logprob(Link.PROBIT, lower - xb, upper - xb)[0]
        cur_ll = float(np.sum(cur_logp))
        cur_prior = -half_prec * float(delta @ delta)
    z = np.zeros(0)

    for s in range(S):
        # cut-point block: random-walk MH on the log spacings
        if m_free:
            proposal = delta + mh_step * rng.standard_normal(m_free)
            gamma = lk.cutpoints_from_delta(proposal)
            xb_moved = xb[moved]
            prop_logp = cur_logp.copy()
            prop_logp[moved] = lk._interval_logprob(
                Link.PROBIT, gamma[y_moved - 1] - xb_moved, gamma[y_moved] - xb_moved)[0]
            prop_ll = float(np.sum(prop_logp))
            prop_prior = -half_prec * float(proposal @ proposal)
            log_ratio = (prop_ll + prop_prior) - (cur_ll + cur_prior)
            if rng.uniform() < math.exp(min(0.0, log_ratio)):
                delta, cur_prior = proposal, prop_prior  # cur_logp is refreshed below
                accepted += 1
                lower, upper = _latent_bounds(delta, y, debug)

        # latent utilities, then the coefficient block
        if data.n:
            z = trunc_norm_draws(xb, lower, upper, rng)
            if debug:
                assert np.all(lower < z) and np.all(z <= upper)
        beta = draw_beta(z, rng)
        xb = X @ beta
        if m_free:
            cur_logp = lk._interval_logprob(Link.PROBIT, lower - xb, upper - xb)[0]
            cur_ll = float(np.sum(cur_logp))
        beta_draws[s] = beta
        delta_draws[s] = delta

    return ChainDraws(
        beta=beta_draws, delta=delta_draws,
        param_names=list(data.column_names) + _delta_names(data.J),
        burn=burn, accept_rate=accepted / S if m_free else None, seed=seed,
        latent_z=z if z.size else None,
    )


_MIN_SUMMARY_DRAWS = 100


def check_summary_draws(n_kept: int) -> None:
    """Raise ValueError unless ``n_kept`` post-burn-in draws can be summarized."""
    if n_kept < _MIN_SUMMARY_DRAWS:
        raise ValueError(
            f"need at least {_MIN_SUMMARY_DRAWS} post-burn-in draws, have {n_kept}"
        )


def posterior_summary(chain: ChainDraws) -> list[dict]:
    """Mean, sd and (2.5, 50, 97.5)% quantiles per parameter, post burn-in.

    Quantiles use linear interpolation of the order statistics.
    """
    draws = chain.draws()
    check_summary_draws(draws.shape[0])
    qs = np.quantile(draws, [0.025, 0.5, 0.975], axis=0, method="linear")
    out = []
    for i, name in enumerate(chain.param_names):
        col = draws[:, i]
        out.append({
            "name": name,
            "mean": float(col.mean()),
            "sd": float(col.std(ddof=1)),
            "q2.5": float(qs[0, i]),
            "q50": float(qs[1, i]),
            "q97.5": float(qs[2, i]),
        })
    return out


def summary_text(chain: ChainDraws) -> str:
    rows = posterior_summary(chain)
    name_width = max(12, max(len(r["name"]) for r in rows))
    header = (
        f"{'':{name_width}}  {'mean':>10}  {'sd':>10}  {'2.5%':>10}  {'50%':>10}  {'97.5%':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['name']:{name_width}}  {r['mean']:>10.4f}  {r['sd']:>10.4f}  "
            f"{r['q2.5']:>10.4f}  {r['q50']:>10.4f}  {r['q97.5']:>10.4f}"
        )
    if chain.accept_rate is not None:
        lines.append(f"cut-point MH acceptance rate = {chain.accept_rate:.4f}")
    lines.append(f"draws = {chain.n_draws}   burn-in = {chain.burn}   seed = {chain.seed}")
    return "\n".join(lines) + "\n"
