"""The benchmark's workloads: generated inputs, timed operations, checks.

Each workload builds its inputs from the run's seed alone, then runs whole
rounds of the same operations. Every operation's output is checked against
an independent computation (``oracle``) or a property the method must have.
End-to-end metrics are medians over rounds, or pooled over all chains of a
run for the ESS rates; per-layer metrics come from the spans of a traced run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import discretefit as df
import discretefit.cli
import oracle

# Estimates must lie within this many standard errors of the simulation
# truth. A two-sided 5-SE excursion has probability 5.7e-7 per parameter, so
# the roughly 900 independent parameter checks of 70 runs flag a correct
# program about once in 2,000 evaluations; at 4 SE (6.3e-5 each) it would be
# about once in 17.
Z_TRUTH = 5.0

LOGLIK_RTOL = 1e-9
EFFECT_ATOL = 1e-10
EFFECT_SUM_ATOL = 1e-12


# Every workload reports every metric. The end-to-end metrics are the same
# four everywhere; ``op1_s`` and ``op2_s`` are the wall times of the
# workload's first and second operation (see each workload's docstring).
# A per-layer metric of a layer the workload leaves idle reads 0.
# BENCHMARK.json lists the same names and units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op1_s": "s", "op2_s": "s"}
PER_LAYER = {
    "data.parse_csv_s": "s",
    "data.build_dataset_s": "s",
    "likelihood.loglik_passes": "count",
    "likelihood.score_passes": "count",
    "likelihood.hess_passes": "count",
    "likelihood.loglik_ms": "ms",
    "likelihood.score_ms": "ms",
    "likelihood.hess_ms": "ms",
    "likelihood.loglik_passes_per_sweep": "count",
    "distributions.log_cdf_evals": "count",
    "distributions.log_cdf_s": "s",
    "distributions.trunc_norm_draws_s": "s",
    "estimation.newton_iterations": "count",
    "estimation.fit_ml_calls": "count",
    "estimation.baseline_s": "s",
    "estimation.linesearch_evals_per_iter": "ratio",
    "estimation.hit_rate_s": "s",
    "effects.effects_table_s": "s",
    "effects.predict_prob_calls": "count",
    "bayes.ordinal_sweep_ms": "ms",
    "bayes.binary_sweep_ms": "ms",
    "bayes.ordinal_min_ess": "count",
    "bayes.binary_min_ess": "count",
    "bayes.ordinal_max_iat": "sweeps",
    "bayes.accept_rate": "ratio",
    "cli.import_s": "s",
    "cli.report_s": "s",
    "trace.overhead_s": "s",
}


def _median(values) -> float:
    return float(statistics.median(values))


def _timing_metrics(samples: dict, rss_mb: float) -> dict:
    """Median wall time of each operation, and the peak resident set."""
    out = {key: (_median(v), "s") for key, v in samples.items() if v}
    out["peak_rss_mb"] = (rss_mb, "MB")
    return out


class Ledger:
    """Operations attempted and failed, and correctness problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def attempt(self, label: str, fn):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
            return None

    def check(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _check_score(ledger: Ledger, label: str, link: str, beta, delta, X, y,
                 grad_tol: float) -> None:
    """The oracle score at the estimate must satisfy the first-order condition.

    The program stops at max|grad| < grad_tol; the oracle sums the same n
    terms in another order and form, so rounding that grows with n is allowed.
    """
    grad = oracle.score(link, beta, delta, X, y)
    worst = float(np.max(np.abs(grad)))
    ledger.check(worst <= grad_tol + 1e-11 * len(y),
                 f"{label}: oracle score {worst:.3e} at the estimate")


def check_fit(ledger: Ledger, label: str, link: str, fit, X, y, J: int,
              beta_true, cuts_true, grad_tol: float) -> None:
    """Checks an ML fit: convergence, oracle log-likelihood and score,
    closed-form baseline, and estimates near the simulation truth."""
    beta, delta = fit.params.beta, fit.params.delta
    ledger.check(fit.converged, f"{label}: not converged")
    ll = oracle.loglik(link, beta, delta, X, y)
    ledger.check(_rel_close(fit.loglik_fit, ll, LOGLIK_RTOL),
                 f"{label}: loglik_fit {fit.loglik_fit!r} != oracle {ll!r}")
    _check_score(ledger, label, link, beta, delta, X, y, grad_tol)
    ll0 = oracle.loglik_intercept_only(y, J)
    ledger.check(_rel_close(fit.loglik_0, ll0, LOGLIK_RTOL),
                 f"{label}: loglik_0 {fit.loglik_0!r} != closed form {ll0!r}")
    estimates = np.concatenate([beta, fit.cutpoints[2:J]])
    truth = np.concatenate([np.asarray(beta_true, float), np.asarray(cuts_true, float)])
    z = np.abs(estimates - truth) / fit.se
    ledger.check(bool(np.all(z <= Z_TRUTH)),
                 f"{label}: estimate {int(np.argmax(z))} is {np.max(z):.2f} SE from the truth")


def check_chain(ledger: Ledger, label: str, chain, truth, ordinal: bool) -> None:
    """Checks a Gibbs chain: finite draws, MH acceptance, posterior means
    near the simulation truth."""
    all_draws = chain.draws(include_burn=True)
    ledger.check(bool(np.all(np.isfinite(all_draws))), f"{label}: non-finite draw")
    if ordinal:
        ledger.check(0.05 < chain.accept_rate < 0.9,
                     f"{label}: MH acceptance {chain.accept_rate} outside (0.05, 0.9)")
    post = chain.draws()
    z = np.abs(post.mean(axis=0) - np.asarray(truth, float)) / post.std(axis=0, ddof=1)
    ledger.check(bool(np.all(z <= Z_TRUTH)),
                 f"{label}: posterior mean {int(np.argmax(z))} is {np.max(z):.2f} SD from the truth")


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _likelihood_layer(ix, per: float) -> dict:
    out = {}
    for part in ("loglik", "score", "hess"):
        ids = ix.ids(f"likelihood.{part}")
        out[f"likelihood.{part}_passes"] = (len(ids) / per, "count")
        out[f"likelihood.{part}_ms"] = (1e3 * ix.total(ids) / max(len(ids), 1), "ms")
    return out


def _fit_layers(ix) -> dict:
    """The likelihood, distributions and estimation metrics per top-level
    ``fit_ml`` call, its baseline refit included."""
    per = max(len(ix.ids("estimation.fit_ml")), 1)
    fits = ix.named("estimation.fit_ml")
    iterations = ix.detail_sum(fits, "iterations")
    evaluations = len(ix.ids("likelihood.hess", under="estimation.fit_ml"))
    line_search = len(ix.ids("likelihood.loglik", under="estimation.fit_ml")) - evaluations
    log_cdf = ix.ids("distributions.log_cdf", under="estimation.fit_ml")
    out = _likelihood_layer(ix, per)
    out.update({
        "distributions.log_cdf_evals": (ix.detail_sum(log_cdf, "elements") / per, "count"),
        "distributions.log_cdf_s": (ix.total(log_cdf) / per, "s"),
        "estimation.newton_iterations": (iterations / per, "count"),
        "estimation.fit_ml_calls": (len(fits) / per, "count"),
        "estimation.baseline_s": (ix.total(ix.ids("estimation.fit_intercept_only")) / per, "s"),
        "estimation.linesearch_evals_per_iter": (line_search / max(iterations, 1), "ratio"),
        "estimation.hit_rate_s": (ix.total(ix.ids("estimation.hit_rate")) / per, "s"),
    })
    return out


# ---------------------------------------------------------------- ml-large-n

class MlLargeN:
    """Newton ML fits at n = 200,000, k = 6, on separately drawn designs and
    responses. ``op1_s``: ``fit_ml`` of an ordinal probit with J = 5, up to
    a converged result; ``op2_s``: the same for a binary logit."""

    N = 200_000
    ORDINAL_BETA = [0.2, 0.5, -0.4, 0.3, -0.2, 0.6]
    ORDINAL_CUTS = [0.7, 1.4, 2.2]
    LOGIT_BETA = [-0.3, 0.8, -0.6, 0.4, 0.2, -0.5]
    SETUP_REPEATS = 1
    # 5e-8 per observation. At the package default of 1e-8 the last Newton
    # step's gain falls below one ulp of |loglik| (about 6e-11 at this n),
    # the line search rejects it on some seeds, and about one fit in seven
    # ends with converged=False or 30-60 extra loglik passes. At 1e-2 every
    # fit tried stopped after 3 (ordinal) or 4 (binary) full steps.
    GRAD_TOL = 1e-2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.samples = {"op1_s": [], "op2_s": []}

    @classmethod
    def design(cls, rng: np.random.Generator) -> np.ndarray:
        """Intercept, four correlated normal covariates and one indicator."""
        X = np.ones((cls.N, 6))
        common = rng.standard_normal(cls.N)
        X[:, 1:5] = 0.6 * rng.standard_normal((cls.N, 4)) + 0.4 * common[:, None]
        X[:, 5] = rng.random(cls.N) < 0.4
        return X

    def setup(self, index: int) -> None:
        rng = np.random.default_rng([self.seed, 1])
        X = self.design(rng)
        z = X @ self.ORDINAL_BETA + rng.standard_normal(self.N)
        y = 1 + np.searchsorted([0.0] + self.ORDINAL_CUTS, z, side="left")
        ordinal = df.Dataset(y=y, X=X, column_names=[f"x{i}" for i in range(6)], J=5)
        X = self.design(rng)
        z = X @ self.LOGIT_BETA + rng.logistic(size=self.N)
        binary = df.Dataset(y=1 + (z > 0.0), X=X, column_names=[f"x{i}" for i in range(6)], J=2)
        self.models = [
            ("op1_s", "ordinal probit fit", df.ModelSpec("ordinal", df.Link.PROBIT, J=5, k=6),
             ordinal, oracle.PROBIT, self.ORDINAL_BETA, self.ORDINAL_CUTS),
            ("op2_s", "binary logit fit", df.ModelSpec("binary", df.Link.LOGIT, J=2, k=6),
             binary, oracle.LOGIT, self.LOGIT_BETA, []),
        ]

    def run_round(self, index: int, ledger: Ledger, in_process: bool) -> None:
        for key, label, spec, data, link, beta_true, cuts_true in self.models:
            start = time.perf_counter()
            fit = ledger.attempt(
                label, lambda: df.fit_ml(spec, data, df.FitOptions(grad_tol=self.GRAD_TOL)))
            elapsed = time.perf_counter() - start
            if fit is None:
                continue
            self.samples[key].append(elapsed)
            check_fit(ledger, label, link, fit, data.X, data.y, spec.J, beta_true, cuts_true,
                      self.GRAD_TOL)

    def end_to_end(self) -> dict:
        return _timing_metrics(self.samples, peak_rss_mb())

    def per_layer(self, ix) -> dict:
        return _fit_layers(ix)


# -------------------------------------------------------------- gibbs-probit

class GibbsProbit:
    """Data-augmentation Gibbs chains at n = 2,000, k = 3: one ordinal probit
    chain (J = 3) and one binary probit chain per round, each seeded apart,
    on data drawn afresh for each round.
    ``op1_s``: sampler wall time per 1,000 effective draws of the ordinal
    chains, pooled over the run; ``op2_s``: the same for the binary chains."""

    N = 2_000
    BETA = [0.5, -1.0, 0.25]
    CUT = 1.0
    ORDINAL_SWEEPS = 2_000
    BINARY_SWEEPS = 2_500
    BURN_SHARE = 10     # the first tenth of each chain is burn-in
    MH_STEP = 0.1
    SETUP_REPEATS = 9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.chains = {"ordinal": [], "binary": []}   # (post-burn draws, wall s)
        self.accept = []

    def setup(self, index: int) -> None:
        # fresh data every round, so the ESS rates average over datasets
        rng = np.random.default_rng([self.seed, 2, index])
        names = ["intercept", "x1", "x2"]
        datasets = []
        for cuts in ([0.0, self.CUT], [0.0]):
            X = np.column_stack([np.ones(self.N), rng.standard_normal((self.N, 2))])
            z = X @ self.BETA + rng.standard_normal(self.N)
            y = 1 + np.searchsorted(cuts, z, side="left")
            datasets.append(df.Dataset(y=y, X=X, column_names=names, J=len(cuts) + 1))
        self.ordinal, self.binary = datasets

    def _chain_seed(self, index: int, kind: int) -> int:
        return int(np.random.SeedSequence([self.seed, index, kind]).generate_state(1)[0])

    def run_round(self, index: int, ledger: Ledger, in_process: bool) -> None:
        runs = [
            ("ordinal", lambda s: df.gibbs_ordinal_probit(
                self.ordinal, S=self.ORDINAL_SWEEPS, burn=self.ORDINAL_SWEEPS // self.BURN_SHARE,
                mh_step=self.MH_STEP, rng=s),
             self.BETA + [math.log(self.CUT)]),
            ("binary", lambda s: df.gibbs_binary_probit(
                self.binary, S=self.BINARY_SWEEPS, burn=self.BINARY_SWEEPS // self.BURN_SHARE,
                rng=s),
             self.BETA),
        ]
        for kind, (label, sample, truth) in enumerate(runs):
            seed = self._chain_seed(index, kind)
            start = time.perf_counter()
            chain = ledger.attempt(f"{label} chain", lambda: sample(seed))
            elapsed = time.perf_counter() - start
            if chain is None:
                continue
            check_chain(ledger, f"{label} chain {index}", chain, truth, label == "ordinal")
            self.chains[label].append((chain.draws(), elapsed))
            if label == "ordinal":
                self.accept.append(chain.accept_rate)

    def _seconds_per_kess(self, label: str) -> float:
        """Summed sampler wall time per 1,000 effective draws, where the
        effective draws are the smallest per-parameter ESS summed over the
        run's chains."""
        draws, walls = zip(*self.chains[label])
        return float(1e3 * sum(walls) / np.min(oracle.pooled_ess(draws)))

    def end_to_end(self) -> dict:
        out = {key: (self._seconds_per_kess(label), "s")
               for key, label in (("op1_s", "ordinal"), ("op2_s", "binary"))
               if self.chains[label]}
        out["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return out

    def per_layer(self, ix) -> dict:
        ordinal = ix.ids("bayes.gibbs_ordinal_probit")
        binary = ix.ids("bayes.gibbs_binary_probit")
        ord_sweeps = max(ix.detail_sum(ordinal, "sweeps"), 1)
        bin_sweeps = max(ix.detail_sum(binary, "sweeps"), 1)
        log_cdf = ix.ids("distributions.log_cdf", under="bayes.gibbs_ordinal_probit")
        # the first round's chains, traced or not, so these repeat exactly
        first_ord, first_bin = self.chains["ordinal"][0][0], self.chains["binary"][0][0]
        ord_ess = oracle.pooled_ess([first_ord])
        out = _likelihood_layer(ix, ord_sweeps)
        out.update({
            "likelihood.loglik_passes_per_sweep": (
                len(ix.ids("likelihood.loglik", under="bayes.gibbs_ordinal_probit")) / ord_sweeps,
                "count"),
            "distributions.log_cdf_evals": (ix.detail_sum(log_cdf, "elements") / ord_sweeps, "count"),
            "distributions.log_cdf_s": (ix.total(log_cdf) / ord_sweeps, "s"),
            "distributions.trunc_norm_draws_s": (
                ix.total(ix.ids("distributions.trunc_norm_draws")) / (ord_sweeps + bin_sweeps), "s"),
            "bayes.ordinal_sweep_ms": (1e3 * ix.total(ordinal) / ord_sweeps, "ms"),
            "bayes.binary_sweep_ms": (1e3 * ix.total(binary) / bin_sweeps, "ms"),
            "bayes.ordinal_min_ess": (float(np.min(ord_ess)), "count"),
            "bayes.binary_min_ess": (float(np.min(oracle.pooled_ess([first_bin]))), "count"),
            "bayes.ordinal_max_iat": (float(first_ord.shape[0] / np.min(ord_ess)), "sweeps"),
            "bayes.accept_rate": (float(self.accept[0]), "ratio"),
        })
        return out


# ---------------------------------------------------------------- cli-survey

SURVEY_LEVELS = {
    "pastuse": (["no", "yes"], [0.55, 0.45], "no"),
    "gender": (["male", "female"], [0.48, 0.52], "male"),
    "education": (["less than high school", "high school", "some college, no degree",
                   "bachelor's degree", "graduate degree"],
                  [0.10, 0.28, 0.27, 0.22, 0.13], "high school"),
    "race": (["white", "black", "hispanic", "asian", "other"],
             [0.62, 0.12, 0.16, 0.06, 0.04], "white"),
    "party": (["republican", "democrat", "independent"], [0.30, 0.33, 0.37], "republican"),
    "religion": (["protestant", "catholic", "none", "other"], [0.42, 0.22, 0.26, 0.10], "protestant"),
}

# true ordinal-logit coefficients, by design-column name; cut-point 2 below
SURVEY_TRUTH = {
    "intercept": 1.5, "age": -0.6, "income": 0.1, "household": -0.05,
    "pastuse=yes": 1.1, "gender=female": -0.25,
    "education=bachelor's degree": 0.3, "education=graduate degree": 0.4,
    "education=less than high school": -0.2, "education=some college, no degree": 0.15,
    "race=asian": -0.3, "race=black": 0.1, "race=hispanic": -0.15, "race=other": 0.05,
    "party=democrat": 0.6, "party=independent": 0.35,
    "religion=catholic": -0.1, "religion=none": 0.5, "religion=other": 0.2,
}
SURVEY_CUT = 1.5
CLI_GRAD_TOL = 1e-8   # the CLI's default --tol
SURVEY_LABELS = ["oppose", "medicinal", "personal"]
# (column, token, probability a cell carries it)
SURVEY_MISSING = [
    ("opinion", "don't know", 0.03), ("opinion", "refused", 0.01),
    ("income", "refused", 0.03), ("party", "don't know", 0.01),
    ("religion", "refused", 0.01),
]
SURVEY_SCHEMA = """\
# generated survey: opinion on legalising marijuana
response = opinion
labels = oppose, medicinal, personal
missing = don't know, refused
intercept = true
covariate.age = log
covariate.income = log
covariate.household = continuous
covariate.pastuse = categorical:no
covariate.gender = categorical:male
covariate.education = categorical:high school
covariate.race = categorical:white
covariate.party = categorical:republican
covariate.religion = categorical:protestant
"""


def survey_columns() -> list[str]:
    """Design-column names in the order ``build_dataset`` emits them."""
    names = ["intercept", "age", "income", "household"]
    for column, (levels, _, base) in SURVEY_LEVELS.items():
        names += [f"{column}={level}" for level in sorted(set(levels) - {base})]
    return names


def generate_survey(seed: int, n: int):
    """Survey rows as CSV text columns, plus the encoded design and the
    responses of the rows that carry no missing token."""
    rng = np.random.default_rng([seed, 3])
    age = rng.integers(18, 91, n)
    income = np.maximum(1000, np.round(np.exp(rng.normal(10.8, 0.7, n)))).astype(np.int64)
    household = np.minimum(1 + rng.poisson(1.6, n), 9)
    codes = {col: rng.choice(len(levels), size=n, p=probs)
             for col, (levels, probs, _) in SURVEY_LEVELS.items()}

    names = survey_columns()
    X = np.empty((n, len(names)))
    X[:, 0] = 1.0
    X[:, 1] = np.log(age)
    X[:, 2] = np.log(income)
    X[:, 3] = household
    for j, name in enumerate(names[4:], start=4):
        column, level = name.split("=", 1)
        X[:, j] = codes[column] == SURVEY_LEVELS[column][0].index(level)
    beta = np.array([SURVEY_TRUTH[name] for name in names])
    z = X @ beta + rng.logistic(size=n)
    y = 1 + (z > 0.0) + (z > SURVEY_CUT)

    text = {
        "respondent": [f"R{i:06d}" for i in range(1, n + 1)],
        "opinion": list(np.array(SURVEY_LABELS, dtype=object)[y - 1]),
        "age": [str(v) for v in age.tolist()],
        "income": [str(v) for v in income.tolist()],
        "household": [str(v) for v in household.tolist()],
    }
    for col, (levels, _, _) in SURVEY_LEVELS.items():
        text[col] = list(np.array(levels, dtype=object)[codes[col]])
    dropped = np.zeros(n, dtype=bool)
    for column, token, prob in SURVEY_MISSING:
        hit = (rng.random(n) < prob) & ~dropped
        for i in np.nonzero(hit)[0]:
            text[column][i] = token
        dropped |= hit
    return text, X[~dropped], y[~dropped], int(dropped.sum())


def write_survey(path: Path, text: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(text))
        writer.writerows(zip(*text.values()))


def check_fit_report(ledger: Ledger, report: dict, X, y, n_dropped: int) -> None:
    """Checks the JSON report of ``discretefit fit`` on the survey."""
    ledger.check(report["encoding"]["n_dropped"] == n_dropped,
                 f"fit: n_dropped {report['encoding']['n_dropped']} != generated {n_dropped}")
    ledger.check(report["converged"], "fit: not converged")
    rows = report["coefficients"]
    names = survey_columns() + ["cut-point 2"]
    ledger.check([r["name"] for r in rows] == names, "fit: unexpected coefficient names")
    truth = [SURVEY_TRUTH.get(r["name"], SURVEY_CUT) for r in rows]
    z = [abs(r["estimate"] - t) / r["se"] for r, t in zip(rows, truth)]
    worst = int(np.argmax(z))
    ledger.check(max(z) <= Z_TRUTH,
                 f"fit: {rows[worst]['name']} is {z[worst]:.2f} SE from the truth")
    beta, delta = _report_params(report)
    ll = oracle.loglik(oracle.LOGIT, beta, delta, X, y)
    ledger.check(_rel_close(report["loglik_fit"], ll, LOGLIK_RTOL),
                 f"fit: loglik_fit {report['loglik_fit']!r} != oracle {ll!r}")
    _check_score(ledger, "fit", oracle.LOGIT, beta, delta, X, y, CLI_GRAD_TOL)
    ll0 = oracle.loglik_intercept_only(y, len(SURVEY_LABELS))
    ledger.check(_rel_close(report["loglik_0"], ll0, LOGLIK_RTOL),
                 f"fit: loglik_0 {report['loglik_0']!r} != closed form {ll0!r}")


def _report_params(report: dict):
    rows = report["coefficients"]
    beta = np.array([r["estimate"] for r in rows[:-1]])
    delta = np.array([math.log(rows[-1]["estimate"])])
    return beta, delta


def check_effects_report(ledger: Ledger, report: dict, fit_report: dict, X) -> None:
    """Checks the JSON report of ``discretefit effects`` on the survey."""
    effects = {e["name"]: e for e in report["effects"]}
    ledger.check(list(effects) == survey_columns()[1:], "effects: unexpected covariates")
    for name, eff in effects.items():
        ledger.check(abs(math.fsum(eff["average"])) <= EFFECT_SUM_ATOL,
                     f"effects: {name} sums to {math.fsum(eff['average'])!r}, not 0")
    beta, delta = _report_params(fit_report)
    column = survey_columns().index("pastuse=yes")
    X_on, X_off = X.copy(), X.copy()
    X_on[:, column], X_off[:, column] = 1.0, 0.0
    expected = (oracle.cell_probs(oracle.LOGIT, beta, delta, X_on)
                - oracle.cell_probs(oracle.LOGIT, beta, delta, X_off)).mean(axis=0)
    got = np.array(effects["pastuse=yes"]["average"])
    ledger.check(bool(np.all(np.abs(got - expected) <= EFFECT_ATOL)),
                 f"effects: pastuse=yes {got.tolist()} != oracle {expected.tolist()}")


class CliSurvey:
    """``discretefit fit`` then ``discretefit effects`` on a 100,000-row
    survey CSV: ordinal logit, J = 3, k = 19. A plain run starts each
    command as a child process; a traced run calls the CLI in-process.
    ``op1_s``: wall time of ``fit``; ``op2_s``: wall time of ``effects``."""

    N = 100_000
    SETUP_REPEATS = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # the children import the same sources and inherit the BLAS setting
        src = Path(df.__file__).resolve().parents[1]
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.csv_path = workdir / "survey.csv"
        self.schema_path = workdir / "survey.schema"
        self.samples = {"op1_s": [], "op2_s": []}

    def setup(self, index: int) -> None:
        text, self.X, self.y, self.n_dropped = generate_survey(self.seed, self.N)
        write_survey(self.csv_path, text)
        self.schema_path.write_text(SURVEY_SCHEMA, encoding="utf-8")

    def _invoke(self, argv: list[str], in_process: bool) -> int:
        if in_process:
            return df.cli.main(argv)
        done = subprocess.run([sys.executable, "-m", "discretefit.cli", *argv],
                              env=self.env, capture_output=True, timeout=100, check=False)
        if done.returncode:
            sys.stderr.write(done.stderr.decode("utf-8", "replace"))
        return done.returncode

    def run_round(self, index: int, ledger: Ledger, in_process: bool) -> None:
        fit_report = None
        for key, command in (("op1_s", "fit"), ("op2_s", "effects")):
            out = self.workdir / f"{command}-{index}"
            argv = [command, "--data", str(self.csv_path), "--schema", str(self.schema_path),
                    "--family", "ordinal", "--link", "logit", "--out", str(out)]
            start = time.perf_counter()
            code = ledger.attempt(command, lambda: self._invoke(argv, in_process))
            elapsed = time.perf_counter() - start
            if code is None:
                continue
            self.samples[key].append(elapsed)
            ledger.check(code == 0, f"{command}: exit code {code}")
            if code != 0:
                continue
            report = json.loads(Path(f"{out}.json").read_text(encoding="utf-8"))
            if command == "fit":
                fit_report = report
                check_fit_report(ledger, report, self.X, self.y, self.n_dropped)
            elif fit_report is not None:
                check_effects_report(ledger, report, fit_report, self.X)
            for suffix in (".json", ".txt"):
                Path(f"{out}{suffix}").unlink()

    def end_to_end(self) -> dict:
        return _timing_metrics(self.samples, peak_rss_mb(children=True))

    def import_seconds(self, repeats: int = 3) -> float:
        code = ("import time; t = time.perf_counter(); import discretefit.cli; "
                "print(time.perf_counter() - t)")
        times = []
        for _ in range(repeats):
            done = subprocess.run([sys.executable, "-c", code], env=self.env,
                                  capture_output=True, timeout=60, check=True)
            times.append(float(done.stdout))
        return _median(times)

    def per_layer(self, ix) -> dict:
        mains = ix.ids("cli.main")
        per = max(len(mains), 1)
        tables = ix.ids("effects.effects_table")
        n_effects = max(len(tables), 1)
        out = _fit_layers(ix)   # one top-level fit per command
        out.update({
            "data.parse_csv_s": (ix.total(ix.ids("data.parse_csv")) / per, "s"),
            "data.build_dataset_s": (ix.total(ix.ids("data.build_dataset")) / per, "s"),
            "effects.effects_table_s": (ix.total(tables) / n_effects, "s"),
            "effects.predict_prob_calls": (
                len(ix.ids("estimation.predict_prob", under="effects.effects_table")) / n_effects,
                "count"),
            "cli.import_s": (self.import_seconds(), "s"),
            "cli.report_s": (ix.self_time(mains) / per, "s"),
        })
        return out


WORKLOADS = {
    "ml-large-n": MlLargeN,
    "gibbs-probit": GibbsProbit,
    "cli-survey": CliSurvey,
}
