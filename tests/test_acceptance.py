"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s -v`` to see
them stream).
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from discretefit import (
    Dataset,
    Link,
    ModelSpec,
    ParamVector,
    cumulative_odds,
    effects_table,
    fit_ml,
    gibbs_binary_probit,
    gibbs_ordinal_probit,
    grad_loglik,
    hess_loglik,
    loglik,
    lr_test,
    mcfadden_r2,
    posterior_summary,
    predict_prob,
    simulate_dataset,
)
from discretefit.cli import main as cli_main

from oracles import finite_diff_grad, finite_diff_jac

ALL_COMBOS = [
    ("binary", 2, Link.PROBIT), ("binary", 2, Link.LOGIT),
    ("ordinal", 3, Link.PROBIT), ("ordinal", 3, Link.LOGIT),
]


@contextlib.contextmanager
def criterion(number, text):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text} ({time.perf_counter() - start:.1f}s)")


def _instance(family, J, link, n, seed, k=3):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(family, link, J=J, k=k, intercept=True)
    cuts = [1.0] if J == 3 else np.linspace(0.9, 1.8, J - 2) if J > 2 else []
    data = simulate_dataset(spec, [0.5, -1.0, 0.25][:k], cuts, n, rng)
    return spec, data


def test_criterion_1_gradient_and_hessian_match_finite_differences():
    with criterion(1, "analytic gradient (1e-6) and Hessian (1e-4) vs central differences"):
        start = time.perf_counter()
        for family, J, link in ALL_COMBOS:
            spec, data = _instance(family, J, link, n=200, seed=31)
            rng = np.random.default_rng(137)
            for _ in range(20):
                theta = np.concatenate([
                    rng.uniform(-1.0, 1.0, size=spec.k),
                    rng.uniform(-0.5, 0.5, size=J - 2),
                ])
                params = ParamVector(theta[:spec.k], theta[spec.k:])

                def f(t):
                    return loglik(spec, ParamVector(t[:spec.k], t[spec.k:]), data)

                def g(t):
                    return grad_loglik(spec, ParamVector(t[:spec.k], t[spec.k:]), data)

                grad = grad_loglik(spec, params, data)
                fd_grad = finite_diff_grad(f, theta, h=1e-5)
                np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-7)

                hess = hess_loglik(spec, params, data)
                fd_hess = finite_diff_jac(g, theta, h=1e-5)
                np.testing.assert_allclose(hess, fd_hess, rtol=1e-4, atol=1e-5)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_brute_force_mle_oracle():
    with criterion(2, "n=8 binary MLE within 2e-3 of an exhaustive grid search"):
        start = time.perf_counter()
        x = np.array([0.5, -1.2, 0.3, 2.0, -0.7, 1.5, -2.0, 0.9])
        y = np.array([2, 1, 2, 2, 1, 2, 1, 1])
        data = Dataset(y=y, X=x[:, None], column_names=["x"], J=2)
        grid = np.arange(-5.0, 5.0 + 1e-9, 1e-3)
        for link in (Link.PROBIT, Link.LOGIT):
            # independent oracle: direct likelihood formula on the grid
            w = np.where(y[None, :] == 2, grid[:, None] * x[None, :],
                         -grid[:, None] * x[None, :])
            if link is Link.PROBIT:
                from scipy.special import log_ndtr
                ll = log_ndtr(w).sum(axis=1)
            else:
                ll = -np.logaddexp(0.0, -w).sum(axis=1)
            oracle = grid[np.argmax(ll)]
            spec = ModelSpec("binary", link, J=2, k=1, intercept=False)
            fit = fit_ml(spec, data)
            assert fit.converged
            assert abs(fit.params.beta[0] - oracle) <= 2e-3
        assert time.perf_counter() - start < 5.0


def test_criterion_3_parameter_recovery_coverage():
    with criterion(3, "3-SE recovery in >= 95/100 seeded replications, both families"):
        start = time.perf_counter()
        truth = np.array([0.5, -1.0, 0.25])
        for family, J, cuts in (("binary", 2, []), ("ordinal", 3, [1.0])):
            spec = ModelSpec(family, Link.PROBIT, J=J, k=3, intercept=True)
            hits = 0
            for rep in range(100):
                rng = np.random.default_rng(10_000 + rep)
                data = simulate_dataset(spec, truth, cuts, 5000, rng)
                fit = fit_ml(spec, data)
                ok = np.all(np.abs(fit.params.beta - truth) <= 3.0 * fit.se[:3])
                if J == 3:
                    ok = ok and abs(fit.cutpoints[2] - 1.0) <= 3.0 * fit.se[3]
                hits += bool(ok)
            assert hits >= 95, f"{family}: only {hits}/100 replications covered"
        assert time.perf_counter() - start < 60.0


def test_criterion_4_closed_form_intercept_only():
    with criterion(4, "intercept-only closed forms (binary quantile, ordinal shares)"):
        for n1, n2 in ((25, 75), (40, 60), (81, 19)):
            y = np.array([1] * n1 + [2] * n2)
            data = Dataset(y=y, X=np.ones((y.size, 1)), column_names=["intercept"], J=2)
            spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
            fit = fit_ml(spec, data)
            p_hat = n2 / (n1 + n2)
            assert abs(fit.params.beta[0] - Link.PROBIT.quantile(p_hat)) <= 1e-6

        counts = (30, 45, 25)
        y = np.concatenate([np.full(c, j + 1) for j, c in enumerate(counts)])
        data = Dataset(y=y, X=np.ones((y.size, 1)), column_names=["intercept"], J=3)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1, intercept=True)
        fit = fit_ml(spec, data)
        probs = predict_prob(spec, fit.params, np.ones((1, 1)))[0]
        shares = np.asarray(counts) / y.size
        assert np.max(np.abs(probs - shares)) <= 1e-8


def test_criterion_5_ordinal_J2_equals_binary():
    with criterion(5, "ordinal J=2 fit equals the binary fit on 10 random datasets"):
        for rep in range(10):
            rng = np.random.default_rng(20_000 + rep)
            link = Link.PROBIT if rep % 2 == 0 else Link.LOGIT
            spec_b = ModelSpec("binary", link, J=2, k=3, intercept=True)
            data = simulate_dataset(spec_b, [0.4, -0.8, 0.3], [], 600, rng)
            spec_o = ModelSpec("ordinal", link, J=2, k=3, intercept=True)
            fit_b = fit_ml(spec_b, data)
            fit_o = fit_ml(spec_o, data)
            assert abs(fit_b.loglik_fit - fit_o.loglik_fit) <= 1e-8
            assert np.max(np.abs(fit_b.params.beta - fit_o.params.beta)) <= 1e-8


def test_criterion_6_proportional_odds_of_fitted_logit():
    with criterion(6, "cumulative-odds ratios of fitted ordinal logit constant in j (1e-10)"):
        for J in (3, 4):
            rng = np.random.default_rng(30_000 + J)
            spec = ModelSpec("ordinal", Link.LOGIT, J=J, k=3, intercept=True)
            data = simulate_dataset(
                spec, [0.5, -1.0, 0.25], np.linspace(1.0, 2.0, J - 2), 3000, rng
            )
            fit = fit_ml(spec, data)
            assert fit.converged
            x1 = np.concatenate([[1.0], rng.normal(size=2)])
            x2 = np.concatenate([[1.0], rng.normal(size=2)])
            expected = math.exp(-(x1 - x2) @ fit.params.beta)
            for j in range(1, J):
                ratio = (cumulative_odds(spec, fit.params, x1, j)
                         / cumulative_odds(spec, fit.params, x2, j))
                assert abs(ratio - expected) <= 1e-10 * abs(expected)


def test_criterion_7_effects_and_fit_statistics():
    with criterion(7, "covariate effects vs oracles; LR and McFadden arithmetic"):
        for family, J, link in ALL_COMBOS:
            spec, data = _instance(family, J, link, n=300, seed=77)
            fit = fit_ml(spec, data)

            # continuous: analytic derivative vs centered finite difference
            eff = effects_table(spec, fit.params, data, columns=[1]).rows[0]
            h = 1e-6
            X_hi, X_lo = data.X.copy(), data.X.copy()
            X_hi[:, 1] += h
            X_lo[:, 1] -= h
            fd = (predict_prob(spec, fit.params, X_hi)
                  - predict_prob(spec, fit.params, X_lo)) / (2.0 * h)
            assert np.max(np.abs(eff.per_obs - fd)) <= 1e-6
            assert np.max(np.abs(eff.per_obs.sum(axis=1))) <= 1e-10

            # indicator: exact two-point evaluation; add a synthetic dummy
            X_ind = np.column_stack([data.X, (data.X[:, 2] > 0).astype(float)])
            data_ind = Dataset(y=data.y, X=X_ind,
                               column_names=data.column_names + ["flag"], J=J)
            spec_ind = ModelSpec(family, link, J=J, k=4, intercept=True)
            params_ind = ParamVector(
                np.concatenate([fit.params.beta, [0.3]]), fit.params.delta
            )
            eff_ind = effects_table(spec_ind, params_ind, data_ind, columns=[3]).rows[0]
            X1, X0 = X_ind.copy(), X_ind.copy()
            X1[:, 3], X0[:, 3] = 1.0, 0.0
            direct = (predict_prob(spec_ind, params_ind, X1)
                      - predict_prob(spec_ind, params_ind, X0))
            assert np.array_equal(eff_ind.per_obs, direct)
            assert np.max(np.abs(eff_ind.per_obs.sum(axis=1))) <= 1e-10

        # fit-statistic arithmetic on constructed log-likelihood pairs
        stat, _ = lr_test(-100.0, -90.0, 5)
        assert stat == -2.0 * (-100.0 - -90.0)
        stat0, p0 = lr_test(-64.25, -64.25, 3)
        assert stat0 == 0.0 and p0 == 1.0
        assert mcfadden_r2(-100.0, -90.0) == 1.0 - (-90.0) / (-100.0)
        assert mcfadden_r2(-812.5, -812.5) == 0.0


def test_criterion_8_sampler_agreement_and_prior_recovery():
    with criterion(8, "Gibbs vs MLE at n=5000 (3 posterior SDs); n=0 prior recovery"):
        start = time.perf_counter()

        spec_b, data_b = _instance("binary", 2, Link.PROBIT, n=5000, seed=88)
        fit_b = fit_ml(spec_b, data_b)
        chain_b = gibbs_binary_probit(data_b, S=11000, burn=1000, rng=881)
        for row, mle in zip(posterior_summary(chain_b), fit_b.params.beta):
            assert abs(row["mean"] - mle) <= 3.0 * row["sd"], row

        spec_o, data_o = _instance("ordinal", 3, Link.PROBIT, n=5000, seed=89)
        fit_o = fit_ml(spec_o, data_o)
        chain_o = gibbs_ordinal_probit(data_o, S=11000, burn=1000, mh_step=0.1, rng=891)
        for row, mle in zip(posterior_summary(chain_o)[:3], fit_o.params.beta):
            assert abs(row["mean"] - mle) <= 3.0 * row["sd"], row
        gamma2 = np.exp(chain_o.delta[1000:, 0])
        assert abs(gamma2.mean() - fit_o.cutpoints[2]) <= 3.0 * gamma2.std(ddof=1)

        empty = Dataset(y=np.zeros(0, dtype=int), X=np.zeros((0, 2)),
                        column_names=["b0", "b1"], J=2)
        chain_p = gibbs_binary_probit(empty, S=10_000, burn=0, rng=882)
        draws = chain_p.draws()
        assert np.max(np.abs(draws.mean(axis=0))) <= 0.4          # 4 x MC se
        assert np.max(np.abs(draws.var(axis=0, ddof=1) - 100.0)) <= 6.0

        assert time.perf_counter() - start < 120.0


def test_criterion_9_pipeline_reproducibility(tmp_path):
    with criterion(9, "simulate -> ingest -> fit -> effects byte-identical twice"):
        def pipeline(workdir):
            workdir.mkdir()
            sim = workdir / "sim.csv"
            assert cli_main([
                "simulate", "--family", "ordinal", "--link", "probit",
                "--beta", "0.5,-1.0,0.25", "--cutpoints", "1.0",
                "--n", "1200", "--seed", "42", "--out", str(sim),
            ]) == 0
            assert cli_main([
                "fit", "--data", str(sim), "--schema", str(workdir / "sim.schema"),
                "--family", "ordinal", "--out", str(workdir / "rep"),
            ]) == 0
            assert cli_main([
                "effects", "--data", str(sim), "--schema", str(workdir / "sim.schema"),
                "--family", "ordinal", "--out", str(workdir / "eff"),
            ]) == 0
            return sorted(p for p in workdir.iterdir())

        files_a = pipeline(tmp_path / "a")
        files_b = pipeline(tmp_path / "b")
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name
