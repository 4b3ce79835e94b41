"""Tests of the benchmark's oracle and checks.

    PYTHONPATH=src python3 -m pytest bench
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import discretefit as df  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _instance(link, J, seed, n=60, k=3):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    y = np.concatenate([np.arange(1, J + 1), rng.integers(1, J + 1, n - J)])
    beta = rng.uniform(-1.0, 1.0, k)
    delta = rng.uniform(-0.7, 0.7, J - 2)
    family = "binary" if J == 2 else "ordinal"
    spec = df.ModelSpec(family, link, J=J, k=k)
    data = df.Dataset(y=y, X=X, column_names=[f"x{i}" for i in range(k)], J=J)
    return spec, data, df.ParamVector(beta, delta)


@pytest.mark.parametrize("link", ["probit", "logit"])
@pytest.mark.parametrize("J", [2, 3, 4, 5])
def test_oracle_matches_package_loglik_and_score(link, J):
    for seed in range(5):
        spec, data, params = _instance(link, J, seed)
        ll = oracle.loglik(link, params.beta, params.delta, data.X, data.y)
        grad = oracle.score(link, params.beta, params.delta, data.X, data.y)
        assert abs(ll - df.loglik(spec, params, data)) <= 1e-10
        np.testing.assert_allclose(grad, df.grad_loglik(spec, params, data), rtol=0, atol=1e-10)


def test_closed_form_baseline_matches_intercept_only_fit():
    spec, data, _ = _instance("probit", 4, seed=3, n=400)
    fit = df.fit_intercept_only(spec, data)
    assert abs(fit.loglik_fit - oracle.loglik_intercept_only(data.y, 4)) <= 1e-9


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_iat_recovers_ar1_value(rho):
    rng = np.random.default_rng(17)
    noise = rng.standard_normal(400_000)
    x = np.empty_like(noise)
    x[0] = noise[0] / np.sqrt(1.0 - rho * rho)
    for i in range(1, x.size):
        x[i] = rho * x[i - 1] + noise[i]
    expected = (1.0 + rho) / (1.0 - rho)
    assert abs(oracle.iat(x) / expected - 1.0) < 0.05
    assert abs(oracle.ess(x) * expected / x.size - 1.0) < 0.05


def test_pooled_ess_adds_chains():
    rng = np.random.default_rng(5)
    chains = [rng.standard_normal((5000, 2)) for _ in range(3)]
    pooled = oracle.pooled_ess(chains)
    assert np.allclose(pooled, sum(oracle.pooled_ess([c]) for c in chains))
    assert np.all(np.abs(pooled / 15000 - 1.0) < 0.1)


def test_tracer_counts_outermost_passes_and_log_cdf_elements():
    spec, data, params = _instance("probit", 4, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        df.loglik(spec, params, data)
        df.grad_loglik(spec, params, data)
    finally:
        tracer.uninstall()
    assert df.loglik.__module__ == "discretefit.likelihood"
    ix = tracing.SpanIndex(tracer.spans)
    assert len(ix.named("likelihood.loglik")) == 2      # loglik -> _loglik_clamped
    assert len(ix.ids("likelihood.loglik")) == 1
    assert len(ix.ids("likelihood.score")) == 1         # grad_loglik -> score_matrix
    log_cdf = ix.ids("distributions.log_cdf")
    assert ix.detail_sum(log_cdf, "elements") == 8 * data.n
    outer = ix.ids("likelihood.loglik")
    assert 0.0 <= ix.self_time(outer) <= ix.total(outer)
    assert tracer.spans[ix.named("likelihood.loglik")[1]][3] == outer[0]


def _small_fit(family, link, J, seed):
    rng = np.random.default_rng(seed)
    n = 3000
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    beta = [0.3, -0.6, 0.4]
    cuts = [0.8] if J == 3 else []
    eps = rng.standard_normal(n) if link == "probit" else rng.logistic(size=n)
    y = 1 + np.searchsorted([0.0] + cuts, X @ beta + eps, side="left")
    data = df.Dataset(y=y, X=X, column_names=["intercept", "x1", "x2"], J=J)
    fit = df.fit_ml(df.ModelSpec(family, link, J=J, k=3), data)
    return fit, data, beta, cuts


@pytest.mark.parametrize("family,link,J", [("ordinal", "probit", 3), ("binary", "logit", 2)])
def test_fit_checks_pass_and_catch_a_perturbed_coefficient(family, link, J):
    fit, data, beta, cuts = _small_fit(family, link, J, seed=11)
    ledger = workloads.Ledger()
    workloads.check_fit(ledger, "fit", link, fit, data.X, data.y, J, beta, cuts, 1e-8)
    assert ledger.problems == []

    # the looser tolerance of the ml-large-n workload still catches it
    bad = copy.deepcopy(fit)
    bad.params.beta[1] += 1e-4
    ledger = workloads.Ledger()
    workloads.check_fit(ledger, "fit", link, bad, data.X, data.y, J, beta, cuts,
                        workloads.MlLargeN.GRAD_TOL)
    assert any("oracle" in p for p in ledger.problems)

    bad = copy.deepcopy(fit)
    bad.loglik_0 += 1e-4
    ledger = workloads.Ledger()
    workloads.check_fit(ledger, "fit", link, bad, data.X, data.y, J, beta, cuts, 1e-8)
    assert any("closed form" in p for p in ledger.problems)


def test_chain_checks_pass_and_catch_a_shifted_chain():
    rng = np.random.default_rng(4)
    n = 2000
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    beta = [0.5, -1.0, 0.25]
    y = 1 + np.searchsorted([0.0, 1.0], X @ beta + rng.standard_normal(n), side="left")
    data = df.Dataset(y=y, X=X, column_names=["intercept", "x1", "x2"], J=3)
    chain = df.gibbs_ordinal_probit(data, S=1500, burn=200, rng=9)
    truth = beta + [0.0]
    ledger = workloads.Ledger()
    workloads.check_chain(ledger, "chain", chain, truth, ordinal=True)
    assert ledger.problems == []

    shifted = copy.deepcopy(chain)
    shifted.beta[:, 1] += 10.0 * chain.draws()[:, 1].std()
    ledger = workloads.Ledger()
    workloads.check_chain(ledger, "chain", shifted, truth, ordinal=True)
    assert any("posterior mean" in p for p in ledger.problems)

    shifted = copy.deepcopy(chain)
    shifted.accept_rate = 0.97
    ledger = workloads.Ledger()
    workloads.check_chain(ledger, "chain", shifted, truth, ordinal=True)
    assert any("acceptance" in p for p in ledger.problems)


@pytest.fixture(scope="module")
def survey_reports(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("survey")
    text, X, y, n_dropped = workloads.generate_survey(seed=8, n=20_000)
    workloads.write_survey(workdir / "s.csv", text)
    (workdir / "s.schema").write_text(workloads.SURVEY_SCHEMA, encoding="utf-8")
    reports = {}
    for command in ("fit", "effects"):
        code = df.cli.main([command, "--data", str(workdir / "s.csv"),
                            "--schema", str(workdir / "s.schema"), "--family", "ordinal",
                            "--link", "logit", "--out", str(workdir / command)])
        assert code == 0
        reports[command] = json.loads((workdir / f"{command}.json").read_text())
    return reports, X, y, n_dropped


def test_survey_generator_counts_dropped_rows():
    text, X, y, n_dropped = workloads.generate_survey(seed=2, n=5000)
    tokens = {"don't know", "refused"}
    rows = list(zip(*text.values()))
    assert n_dropped == sum(any(cell in tokens for cell in row) for row in rows)
    assert X.shape == (5000 - n_dropped, len(workloads.survey_columns())) == (y.size, 19)


def test_survey_checks_pass_and_catch_perturbed_outputs(survey_reports):
    reports, X, y, n_dropped = survey_reports
    ledger = workloads.Ledger()
    workloads.check_fit_report(ledger, reports["fit"], X, y, n_dropped)
    workloads.check_effects_report(ledger, reports["effects"], reports["fit"], X)
    assert ledger.problems == []

    bad = copy.deepcopy(reports["fit"])
    bad["coefficients"][4]["estimate"] += 1e-5
    ledger = workloads.Ledger()
    workloads.check_fit_report(ledger, bad, X, y, n_dropped)
    assert any("oracle" in p for p in ledger.problems)

    ledger = workloads.Ledger()
    workloads.check_fit_report(ledger, reports["fit"], X, y, n_dropped + 1)
    assert any("n_dropped" in p for p in ledger.problems)

    bad = copy.deepcopy(reports["effects"])
    effect = next(e for e in bad["effects"] if e["name"] == "pastuse=yes")
    effect["average"][0] += 1e-8
    effect["average"][2] -= 1e-8
    ledger = workloads.Ledger()
    workloads.check_effects_report(ledger, bad, reports["fit"], X)
    assert any("pastuse=yes" in p for p in ledger.problems)

    bad = copy.deepcopy(reports["effects"])
    bad["effects"][0]["average"][1] += 1e-9
    ledger = workloads.Ledger()
    workloads.check_effects_report(ledger, bad, reports["fit"], X)
    assert any("sums to" in p for p in ledger.problems)


def test_metric_tables_match_the_manifest():
    manifest = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in manifest[key]} == table
