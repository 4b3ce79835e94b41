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
Chains count y once and start from the share-quantile values of
``likelihood.initial_params``, or from zero when a category is unobserved.
Every row interval comes from ``likelihood._bounds``, as in the Newton fit.

The sweep does only the work that can change a draw, and carries no
likelihood state from one sweep to the next. It computes X beta once per
coefficient draw; the latent draw and the next cut-point block both use it.
A proposal moves no bound of a row with y = 1, whose interval is
(-inf, 0], so that row's log-probability is the same at both cut-point
vectors and cancels out of the acceptance ratio. The block therefore
evaluates the rows with y >= 2 only, at the current delta and at the
proposal, stacked into one pass of 2 (n_moved + n_interior) log-cdf
elements; the current delta's moved-row bounds change only where the
latent bounds do. The two sums are not log-likelihoods, but their
difference is the log ratio of full passes up to the rounding of the sums,
so the draws are those of full likelihood passes unless a uniform lands
within that rounding of the acceptance probability. A proposal whose step,
spacing, cut-point or prior term overflows has posterior density 0 (under
the default prior, a log spacing past 709, where its spacing overflows,
alone puts it below exp(-1e4)): it is rejected with no warning, and its
acceptance uniform is still drawn, so the random stream is the same.

The latent block reads the chain's row structure, fixed by y, once per
chain: the rows with y >= 2 have a finite lower bound and those with y < J
a finite upper one. Its sampler (``distributions._trunc_norm_sampler``, the
kernel of ``trunc_norm_draws``) takes the normal cdf at those bounds only,
n + n_interior elements per sweep instead of 2n (n_interior counts the
rows with 1 < y < J), and reuses its buffers
from sweep to sweep; it reads the same uniforms and gives the same bits as
``trunc_norm_draws``.

The sweep keeps no latent draws and checks each input of the latent draw
where it can change. X beta must be finite, every sweep. The cut-points
increase by construction, yet a spacing that underflows to 0 or a cut-point
that overflows to +inf would empty a category's interval; the bounds change
only at the chain's start and at an accepted proposal, and there the
refusal of ``trunc_norm_draws`` (lower < upper) runs on them.

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
from .data import Dataset, check_square_sums
from .distributions import Link, _check_finite_mean, _check_intervals, _trunc_norm_sampler
from .likelihood import FAMILY_ORDINAL, ModelSpec

# chain length (burn-in included), burn-in, and the cut-point random-walk scale
DEFAULT_DRAWS = 11000
DEFAULT_BURN = 1000
DEFAULT_MH_STEP = 0.1


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

    @property
    def n_draws(self) -> int:
        return self.beta.shape[0]

    def draws(self, include_burn: bool = False) -> np.ndarray:
        all_draws = np.hstack([self.beta, self.delta])
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


def _coef_sampler(data: Dataset, b0: np.ndarray, B0: np.ndarray):
    """Precompute the conjugate-normal pieces for the beta full conditional.

    A draw solves with the Cholesky factor L of the posterior precision by
    LAPACK ``potrs`` (the mean) and ``trtrs`` on L' (the noise), fetched
    once: the routines and the Fortran-ordered operands that ``cho_solve``
    and ``solve_triangular(L.T, ..., lower=False)`` reach, without their
    per-call conversions and finiteness checks. The inputs are checked once,
    by ``PriorSpec.resolved``, the Dataset and, for a column too large to
    fit, the diagonal of X'X.
    """
    X = data.X
    P0 = linalg.cho_solve(linalg.cho_factor(B0), np.eye(B0.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        gram = X.T @ X
    check_square_sums(data.column_names, np.diag(gram), ValueError)
    precision = P0 + gram
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


def _delta_names(J: int) -> list[str]:
    return [f"delta{j}" for j in range(2, J)]


def gibbs_binary_probit(data: Dataset, prior: PriorSpec | None = None,
                        S: int = DEFAULT_DRAWS, burn: int = DEFAULT_BURN,
                        rng=0) -> ChainDraws:
    """Data-augmentation Gibbs sampler for the binary probit model.

    ``rng`` may be a seed (recorded in the output) or a Generator. All S
    draws are stored; summaries discard the first ``burn``.
    """
    if data.J != 2:
        raise ValueError("gibbs_binary_probit needs binary (J = 2) data")
    return _gibbs_probit(data, prior, S, burn, rng)


def gibbs_ordinal_probit(data: Dataset, prior: PriorSpec | None = None,
                         S: int = DEFAULT_DRAWS, burn: int = DEFAULT_BURN,
                         mh_step: float = DEFAULT_MH_STEP,
                         rng=0) -> ChainDraws:
    """Gibbs sampler for the ordinal probit with an MH block on the cut-points.

    The log spacings delta move jointly by a random walk with scale
    ``mh_step``; the acceptance ratio combines the z-marginalized ordinal
    likelihood at the current beta with the N(0, delta_var) prior.
    """
    if data.J == 2:
        raise ValueError("J = 2 data is binary; use gibbs_binary_probit")
    if data.J < 3:
        raise ValueError("ordinal sampler needs J >= 3 categories")
    check_mh_step(mh_step)
    return _gibbs_probit(data, prior, S, burn, rng, mh_step)


def _gibbs_probit(data: Dataset, prior: PriorSpec | None, S: int, burn: int,
                  rng, mh_step: float = 0.0) -> ChainDraws:
    """The sweep loop shared by both samplers, for any J >= 2.

    With J = 2 the cut-point block is empty: no likelihood pass, no MH
    draws (``mh_step`` is unused), and ``accept_rate`` is None. Its
    ``if m_free:`` is the loop's one J = 2 guard and keeps the random
    stream: without it a J = 2 chain would draw an MH uniform each sweep.
    No likelihood state is carried between sweeps; the moved rows' bounds
    and the prior term at the current delta change only at an accepted
    proposal, with the latent bounds.
    """
    check_chain_length(S, burn)
    prior = prior or PriorSpec()
    rng, seed = _resolve_rng(rng)
    X, y = data.X, data.y
    k = X.shape[1]
    b0, B0 = prior.resolved(k)
    draw_beta = _coef_sampler(data, b0, B0)
    spec = ModelSpec(family=FAMILY_ORDINAL, link=Link.PROBIT, J=data.J, k=k,
                     intercept=np.all(X[:, :1] == 1.0))
    counts = np.bincount(y, minlength=data.J + 1)[1:]
    start = (lk.initial_params(spec, counts) if np.all(counts)
             else lk.ParamVector(np.zeros(k), np.zeros(data.J - 2)))
    beta, delta = start.beta, start.delta

    m_free = data.J - 2
    beta_draws = np.empty((S, k))
    delta_draws = np.empty((S, m_free))
    accepted = 0
    half_prec = 0.5 / prior.delta_var
    # the rows with a finite lower bound; with J > 2, also the rows with a
    # bound among the free cut-points
    moved = np.flatnonzero(y >= 2)
    y_moved = y[moved]
    draw_latent = _trunc_norm_sampler(moved, np.flatnonzero(y < data.J), y.size)
    lower, upper = lk._bounds(delta, y, 0.0)
    _check_intervals(lower, upper)
    lower_moved, upper_moved = lower[moved], upper[moved]
    cur_prior = half_prec * float(delta @ delta)
    xb = X @ beta

    for s in range(S):
        # cut-point block: random-walk MH on the log spacings, over the
        # moved rows at the current delta and at the proposal in one pass
        if m_free:
            xb_moved = xb[moved]
            try:
                with np.errstate(over="raise"):
                    proposal = delta + mh_step * rng.standard_normal(m_free)
                    a_prop, b_prop = lk._bounds(proposal, y_moved, xb_moved)
                    prop_prior = half_prec * float(proposal @ proposal)
            except FloatingPointError:
                rng.uniform()  # posterior density 0: rejected, same stream
            else:
                logp = lk._interval_logprob(
                    Link.PROBIT, np.concatenate([lower_moved - xb_moved, a_prop]),
                    np.concatenate([upper_moved - xb_moved, b_prop]))[0]
                cur = float(np.sum(logp[:moved.size])) - cur_prior
                prop = float(np.sum(logp[moved.size:])) - prop_prior
                if rng.uniform() < math.exp(min(0.0, prop - cur)):
                    delta, cur_prior = proposal, prop_prior
                    accepted += 1
                    lower, upper = lk._bounds(delta, y, 0.0)
                    _check_intervals(lower, upper)
                    lower_moved, upper_moved = lower[moved], upper[moved]

        # latent utilities, then the coefficient block
        _check_finite_mean(xb)
        z = draw_latent(lower - xb, upper - xb, rng)
        z += xb
        beta = draw_beta(z, rng)
        xb = X @ beta
        beta_draws[s] = beta
        delta_draws[s] = delta

    return ChainDraws(
        beta=beta_draws, delta=delta_draws,
        param_names=list(data.column_names) + _delta_names(data.J),
        burn=burn, accept_rate=accepted / S if m_free else None, seed=seed,
    )


def check_chain_length(S: int, burn: int) -> None:
    """Raise ValueError unless a chain of ``S`` draws can drop its first
    ``burn``; the command line runs it before it reads the data."""
    if not S > burn >= 0:
        raise ValueError(f"need S > burn >= 0, got S = {S}, burn = {burn}")


def check_mh_step(mh_step: float) -> None:
    """Raise ValueError unless ``mh_step`` can scale the cut-point random
    walk; the command line runs it for every J, before it reads the data."""
    if not (math.isfinite(mh_step) and mh_step > 0):
        raise ValueError(f"mh_step must be positive and finite, got {mh_step}")


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
