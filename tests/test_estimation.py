"""Tests for the Newton fitter, fit statistics and reporting."""

import dataclasses
import math

import numpy as np
import pytest

from discretefit import (
    Dataset,
    EstimationError,
    FitOptions,
    Link,
    ModelSpec,
    ParamVector,
    SeparationError,
    effects_table,
    fit_intercept_only,
    fit_ml,
    hit_rate,
    lr_test,
    mcfadden_r2,
    predict_prob,
    simulate_dataset,
    summary_table,
)
from discretefit import estimation, likelihood as lk
from discretefit.estimation import coefficient_rows, fit_report_dict

from oracles import chi2_sf_oracle, norm_cdf_float_oracle

# from the quantile bisection oracle
Q_75 = 0.6744897501960816
CHI2_SF_20_5 = 0.0012497305630313762


def _intercept_data(counts, J):
    y = np.concatenate([np.full(c, j + 1, dtype=int) for j, c in enumerate(counts)])
    return Dataset(y=y, X=np.ones((y.size, 1)), column_names=["intercept"], J=J)


class TestClosedForms:
    def test_intercept_only_binary_probit(self):
        data = _intercept_data([25, 75], J=2)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        fit = fit_ml(spec, data)
        assert fit.converged
        assert fit.params.beta[0] == pytest.approx(Q_75, abs=1e-6)
        assert fit.mcfadden_r2 == 0.0
        assert fit.lr_stat is None

    def test_intercept_only_binary_loglik(self):
        data = _intercept_data([50, 50], J=2)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        fit = fit_ml(spec, data)
        assert fit.loglik_fit == pytest.approx(100.0 * math.log(0.5), rel=1e-12)
        assert fit.loglik_0 == fit.loglik_fit

    def test_intercept_only_ordinal_reproduces_shares(self):
        data = _intercept_data([30, 50, 20], J=3)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1, intercept=True)
        fit = fit_ml(spec, data)
        probs = predict_prob(spec, fit.params, np.ones((1, 1)))[0]
        np.testing.assert_allclose(probs, [0.3, 0.5, 0.2], atol=1e-8)

    def test_fit_intercept_only_matches_fit_ml_on_intercept_design(self):
        data = _intercept_data([40, 25, 35], J=3)
        spec = ModelSpec("ordinal", Link.LOGIT, J=3, k=1, intercept=True)
        a = fit_ml(spec, data)
        b = fit_intercept_only(spec, data)
        assert a.loglik_fit == pytest.approx(b.loglik_fit, abs=1e-10)
        np.testing.assert_allclose(a.params.flat, b.params.flat, atol=1e-8)


class TestBruteForceOracle:
    X8 = np.array([0.5, -1.2, 0.3, 2.0, -0.7, 1.5, -2.0, 0.9])
    Y8 = np.array([2, 1, 2, 2, 1, 2, 1, 1])

    @staticmethod
    def _grid_mle(x, y01, link: Link) -> float:
        """Independent oracle: exhaustive search of the direct likelihood
        formula over beta in [-5, 5] with step 1e-3."""
        grid = np.arange(-5.0, 5.0 + 1e-9, 1e-3)
        best_beta, best_ll = None, -np.inf
        for beta in grid:
            ll = 0.0
            for xi, yi in zip(x, y01):
                # success prob is F(w), failure prob F(-w) by symmetry;
                # evaluating each directly keeps the tails representable
                w = beta * xi if yi else -beta * xi
                if link is Link.PROBIT:
                    p = norm_cdf_float_oracle(w)
                else:
                    p = 1.0 / (1.0 + math.exp(-w)) if w >= 0 else math.exp(w) / (1.0 + math.exp(w))
                ll += math.log(p)
            if ll > best_ll:
                best_ll, best_beta = ll, beta
        return best_beta

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_tiny_instance_matches_grid(self, link):
        data = Dataset(y=self.Y8, X=self.X8[:, None], column_names=["x"], J=2)
        spec = ModelSpec("binary", link, J=2, k=1, intercept=False)
        fit = fit_ml(spec, data)
        oracle = self._grid_mle(self.X8, (self.Y8 == 2).astype(int), link)
        assert fit.converged
        assert fit.params.beta[0] == pytest.approx(oracle, abs=2e-3)


class TestParameterRecovery:
    def test_binary_probit_single_replication(self):
        rng = np.random.default_rng(501)
        truth = np.array([0.5, -1.0, 0.25])
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=3, intercept=True)
        data = simulate_dataset(spec, truth, [], 5000, rng)
        fit = fit_ml(spec, data)
        assert fit.converged
        assert np.all(np.abs(fit.params.beta - truth) <= 3.0 * fit.se[:3])

    def test_ordinal_probit_cutpoint_recovery(self):
        rng = np.random.default_rng(502)
        truth = np.array([0.5, -1.0, 0.25])
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=3, intercept=True)
        data = simulate_dataset(spec, truth, [1.0], 5000, rng)
        fit = fit_ml(spec, data)
        gamma2_hat = fit.cutpoints[2]
        gamma2_se = fit.se[3]
        assert abs(gamma2_hat - 1.0) <= 3.0 * gamma2_se


class TestOptimizerBehavior:
    def test_monotone_ascent(self):
        rng = np.random.default_rng(61)
        spec = ModelSpec("ordinal", Link.LOGIT, J=4, k=3, intercept=True)
        data = simulate_dataset(spec, [0.4, -0.9, 0.3], [0.8, 1.7], 800, rng)
        fit = fit_ml(spec, data)
        history = np.asarray(fit.history)
        assert np.all(np.diff(history) >= -1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(62)
        spec = ModelSpec("binary", Link.LOGIT, J=2, k=2, intercept=True)
        data = simulate_dataset(spec, [0.2, 0.7], [], 400, rng)
        a = fit_ml(spec, data)
        b = fit_ml(spec, data)
        assert np.array_equal(a.params.flat, b.params.flat)
        assert a.loglik_fit == b.loglik_fit

    def test_full_step_within_loglik_rounding_is_taken_at_large_n(self):
        # at n = 200,000 one ulp of |loglik| is about 6e-11; a fixed 1e-12
        # slack rejected the last Newton step on this draw, and the fit
        # stopped with max |grad| 5e-5 and converged = False
        n = 200_000
        rng = np.random.default_rng([7, 1])
        X = np.ones((n, 6))
        common = rng.standard_normal(n)
        X[:, 1:5] = 0.6 * rng.standard_normal((n, 4)) + 0.4 * common[:, None]
        X[:, 5] = rng.random(n) < 0.4
        z = X @ [0.2, 0.5, -0.4, 0.3, -0.2, 0.6] + rng.standard_normal(n)
        y = 1 + np.searchsorted([0.0, 0.7, 1.4, 2.2], z, side="left")
        data = Dataset(y=y, X=X, column_names=[f"x{i}" for i in range(6)], J=5)
        fit = fit_ml(ModelSpec("ordinal", Link.PROBIT, J=5, k=6), data)
        assert fit.converged
        assert fit.iterations <= 5

    def test_non_convergence_returns_result(self):
        rng = np.random.default_rng(63)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=3, intercept=True)
        data = simulate_dataset(spec, [0.5, -1.0, 0.25], [], 500, rng)
        fit = fit_ml(spec, data, FitOptions(max_iter=1))
        assert not fit.converged
        assert fit.iterations == 1
        assert math.isfinite(fit.loglik_fit)

    def test_separation_detected(self):
        x = np.concatenate([np.linspace(-2.0, -0.1, 20), np.linspace(0.1, 2.0, 20)])
        y = np.where(x > 0.0, 2, 1)
        data = Dataset(y=y, X=x[:, None], column_names=["x"], J=2)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=False)
        with pytest.raises(SeparationError, match="x"):
            fit_ml(spec, data)

    def test_absent_category_named(self):
        data = Dataset(y=[1, 1, 3, 3], X=np.ones((4, 1)), column_names=["intercept"], J=3)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1, intercept=True)
        with pytest.raises(EstimationError, match="category 2"):
            fit_ml(spec, data)

    def test_too_few_observations(self):
        data = Dataset(y=[1, 2], X=np.column_stack([np.ones(2), [0.1, 0.4]]),
                       column_names=["intercept", "x"], J=2)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        with pytest.raises(EstimationError):
            fit_ml(spec, data)

    def test_intercept_column_checked(self):
        data = Dataset(y=[1, 2, 1, 2], X=np.arange(4.0)[:, None],
                       column_names=["intercept"], J=2)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        with pytest.raises(EstimationError):
            fit_ml(spec, data)

    def test_all_zero_column_named(self):
        rng = np.random.default_rng(65)
        x = rng.standard_normal(200)
        X = np.column_stack([np.ones(200), x, np.zeros(200)])
        y = 1 + (x + rng.standard_normal(200) > 0.0)
        data = Dataset(y=y, X=X, column_names=["intercept", "x", "party=c"], J=2)
        spec = ModelSpec("binary", Link.LOGIT, J=2, k=3, intercept=True)
        with pytest.raises(EstimationError, match="'party=c' is zero in every observation"):
            fit_ml(spec, data)

    def test_column_too_large_to_fit_named(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=2, intercept=True)
        data = simulate_dataset(spec, [0.2, 0.5], [1.0], 300, np.random.default_rng(66))
        data.X[3, 1], data.X[7, 1] = 1e308, -1e308
        with pytest.raises(EstimationError, match="^column 'x1': values too large to fit, "
                                                  "their sum of squares overflows$"):
            fit_ml(spec, data)

    def test_column_whose_squares_underflow_is_not_all_zero(self):
        data = _intercept_data([30, 40], J=2)
        data.X = np.column_stack([data.X[:, 0], np.full(data.n, 1e-170)])
        data.column_names = ["intercept", "tiny"]
        spec = ModelSpec("binary", Link.LOGIT, J=2, k=2, intercept=True)
        counts = estimation._validate_fit_inputs(spec, data)
        assert counts.tolist() == [30, 40]

    def test_vcov_symmetric_psd(self):
        rng = np.random.default_rng(64)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=3, intercept=True)
        data = simulate_dataset(spec, [0.5, -1.0, 0.25], [1.0], 2000, rng)
        fit = fit_ml(spec, data)
        np.testing.assert_allclose(fit.vcov, fit.vcov.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(fit.vcov)) >= -1e-10
        np.testing.assert_allclose(fit.se, np.sqrt(np.diag(fit.vcov)))


class TestPassCounts:
    """Each Newton iterate costs one likelihood pass. For J >= 3 the line
    search scores candidates with the first stage alone, and only the
    accepted candidate's state goes on to the derivative stage; at J = 2
    each candidate is one fused pass."""

    @staticmethod
    def _record_stages(monkeypatch):
        calls = {"first": [], "derivative": []}
        first, derivative = lk._loglik_pass, lk._derivative_pass

        def recorded_first(spec, params, data):
            out = first(spec, params, data)
            calls["first"].append(out)
            return out

        def recorded_derivative(spec, data, state):
            calls["derivative"].append(state)
            return derivative(spec, data, state)

        monkeypatch.setattr(lk, "_loglik_pass", recorded_first)
        monkeypatch.setattr(lk, "_derivative_pass", recorded_derivative)
        return calls

    @staticmethod
    def _derivative_logliks(calls):
        loglik_of = {id(state): ll for ll, state in calls["first"]}
        return [loglik_of[id(state)] for state in calls["derivative"]]

    def test_full_steps_cost_one_pass_per_iterate(self, monkeypatch):
        calls = self._record_stages(monkeypatch)
        spec = ModelSpec("ordinal", Link.LOGIT, J=4, k=3, intercept=True)
        data = simulate_dataset(spec, [0.4, -0.9, 0.3], [0.8, 1.7], 800,
                                np.random.default_rng(61))
        fit = fit_ml(spec, data)
        assert fit.converged
        assert len(calls["first"]) == fit.iterations + 1
        assert len(calls["derivative"]) == fit.iterations + 1
        assert self._derivative_logliks(calls) == fit.history

    def test_halved_candidates_get_no_derivatives(self, monkeypatch):
        spec = ModelSpec("ordinal", Link.LOGIT, J=3, k=2, intercept=True)
        data = simulate_dataset(spec, [0.3, 0.5], [1.0], 400, np.random.default_rng(5))
        start = lk.initial_params(spec, np.bincount(data.y)[1:])
        # a slope far past the optimum makes the first Newton steps overshoot
        monkeypatch.setattr(lk, "initial_params",
                            lambda spec, counts: ParamVector([start.beta[0], 10.0], start.delta))
        calls = self._record_stages(monkeypatch)
        fit = fit_ml(spec, data)
        assert fit.converged
        assert len(calls["derivative"]) == fit.iterations + 1
        assert len(calls["first"]) > len(calls["derivative"])
        assert self._derivative_logliks(calls) == fit.history

    def test_binary_candidates_cost_one_fused_pass_each(self, monkeypatch):
        # at J = 2 every candidate, halved or accepted, is one fused pass that
        # also gives the derivatives, and the two stages never run
        spec = ModelSpec("binary", Link.LOGIT, J=2, k=2, intercept=True)
        data = simulate_dataset(spec, [0.3, 0.5], [], 400, np.random.default_rng(5))
        start = lk.initial_params(spec, np.bincount(data.y)[1:])
        monkeypatch.setattr(lk, "initial_params",
                            lambda spec, counts: ParamVector([start.beta[0], 10.0]))
        stages = self._record_stages(monkeypatch)
        passes = []
        binary = lk._binary_pass

        def recorded(spec, params, data):
            out = binary(spec, params, data)
            passes.append(out)
            return out

        monkeypatch.setattr(lk, "_binary_pass", recorded)
        fit = fit_ml(spec, data)
        assert fit.converged
        assert stages == {"first": [], "derivative": []}
        assert len(passes) > fit.iterations + 1
        assert all(grad.shape == (2,) and H.shape == (2, 2) for _, grad, H in passes)
        assert [ll for ll, _, _ in passes if ll in fit.history] == fit.history


class TestFitOptions:
    def test_only_the_cap_and_the_tolerance_are_settings(self):
        assert [f.name for f in dataclasses.fields(FitOptions)] == ["max_iter", "grad_tol"]

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1e-8])
    def test_bad_tolerance_refused_by_name(self, tol):
        with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
            FitOptions(grad_tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_iteration_cap_below_one_refused(self, max_iter):
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            FitOptions(max_iter=max_iter)


class TestNewtonBranches:
    """A -H that does not factor, the line search and the final curvature
    check, each driven to the branch that a well-posed fit never takes, and
    the line search's rejection of unordered cut-points. At J = 2 the fit
    scores with the fused pass, above with the two stages; each is patched
    where the fit calls it."""

    @staticmethod
    def _instance(J):
        spec = ModelSpec(None, Link.PROBIT, J=J, k=3, intercept=True)
        data = simulate_dataset(spec, [0.5, -1.0, 0.25], [1.0] * (J - 2), 500,
                                np.random.default_rng(66))
        return spec, data

    @staticmethod
    def _patch_logliks(monkeypatch, J, change):
        """Score every point the fit evaluates at change(loglik)."""
        if J == 2:
            binary = lk._binary_pass

            def patched(spec, params, data):
                ll, grad, H = binary(spec, params, data)
                return change(ll), grad, H

            monkeypatch.setattr(lk, "_binary_pass", patched)
        else:
            first = lk._loglik_pass

            def patched(spec, params, data):
                ll, state = first(spec, params, data)
                return change(ll), state

            monkeypatch.setattr(lk, "_loglik_pass", patched)

    @staticmethod
    def _patch_derivatives(monkeypatch, J, change):
        """Give the fit change(grad, H) for every (gradient, Hessian)."""
        if J == 2:
            binary = lk._binary_pass

            def patched(spec, params, data):
                ll, grad, H = binary(spec, params, data)
                return (ll, *change(grad, H))

            monkeypatch.setattr(lk, "_binary_pass", patched)
        else:
            derivative = lk._derivative_pass
            monkeypatch.setattr(lk, "_derivative_pass",
                                lambda spec, data, state: change(*derivative(spec, data, state)))

    @pytest.mark.parametrize("J", [2, 3])
    def test_no_direction_stops_the_fit_unconverged(self, J, monkeypatch):
        spec, data = self._instance(J)
        self._patch_derivatives(monkeypatch, J, lambda grad, H: (grad, 1e40 * np.eye(H.shape[0])))
        fit = fit_ml(spec, data)
        assert not fit.converged
        assert fit.iterations == 0
        assert len(fit.history) == 1

    @pytest.mark.parametrize("J", [2, 3])
    def test_exhausted_line_search_stops_the_fit_unconverged(self, J, monkeypatch):
        spec, data = self._instance(J)
        calls = []

        def worse_candidates(ll):
            calls.append(ll)
            # every candidate scores below the start, however short the step
            return min(ll, calls[0] - 1.0) if len(calls) > 1 else ll

        self._patch_logliks(monkeypatch, J, worse_candidates)
        fit = fit_ml(spec, data)
        assert not fit.converged
        assert fit.iterations == 0
        assert fit.history == [calls[0]]
        assert len(calls) == 1 + estimation._MAX_HALVINGS + 1

    def test_unordered_cut_points_are_halved_without_a_pass(self, monkeypatch):
        spec = ModelSpec(None, Link.LOGIT, J=3, k=2)
        data = simulate_dataset(spec, [0.3, 0.5], [1.0], 400, np.random.default_rng(5))
        reference = fit_ml(spec, data)
        # from a start far from the optimum the first full Newton steps
        # overshoot and carry gamma_2 below gamma_1 = 0
        monkeypatch.setattr(lk, "initial_params",
                            lambda spec, counts: ParamVector([-4.0, 0.0], [0.5]))
        params_at = estimation._params_at
        rejected = []

        def recorded(theta, k):
            params = params_at(theta, k)
            if params is None:
                rejected.append(theta)
            return params

        monkeypatch.setattr(estimation, "_params_at", recorded)
        fit = fit_ml(spec, data)
        assert rejected and all(theta[2] <= 0.0 for theta in rejected)
        assert fit.converged
        np.testing.assert_allclose(fit.params.flat, reference.params.flat, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("J", [2, 3])
    def test_unfactorable_final_hessian_demotes_convergence(self, J, monkeypatch):
        spec, data = self._instance(J)
        reference = fit_ml(spec, data)
        assert reference.converged

        def flipped_at_optimum(grad, H):
            small = np.max(np.abs(grad)) < FitOptions.grad_tol
            return grad, (-H if small else H)

        self._patch_derivatives(monkeypatch, J, flipped_at_optimum)
        fit = fit_ml(spec, data)
        assert not fit.converged
        assert fit.iterations == reference.iterations
        assert fit.history == reference.history


@pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
def test_duplicated_column_is_not_reported_converged(link):
    # a repeated column leaves no unique optimum: -H is singular and
    # factors only by rounding, if at all
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400)
    y = 1 + (0.3 + 0.7 * x + rng.logistic(size=400) > 0)
    data = Dataset(y=y, X=np.column_stack([np.ones(400), x, x]),
                   column_names=["intercept", "x", "xc"], J=2)
    assert not fit_ml(ModelSpec(None, link, J=2, k=3), data).converged


class TestBinaryOrdinalEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_J2_ordinal_equals_binary(self, seed):
        rng = np.random.default_rng(700 + seed)
        spec_b = ModelSpec("binary", Link.LOGIT, J=2, k=2, intercept=True)
        data = simulate_dataset(spec_b, [0.4, -0.6], [], 600, rng)
        spec_o = ModelSpec("ordinal", Link.LOGIT, J=2, k=2, intercept=True)
        fit_b = fit_ml(spec_b, data)
        fit_o = fit_ml(spec_o, data)
        assert fit_b.loglik_fit == pytest.approx(fit_o.loglik_fit, abs=1e-8)
        np.testing.assert_allclose(fit_b.params.beta, fit_o.params.beta, atol=1e-8)

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_J2_fit_is_one_model_bit_for_bit(self, link):
        # J alone picks the model: either family name fits the same one
        data = simulate_dataset(ModelSpec(None, link, J=2, k=3), [0.4, -0.6, 0.3], [], 500,
                                np.random.default_rng(710))
        fit_b = fit_ml(ModelSpec("binary", link, J=2, k=3), data)
        fit_o = fit_ml(ModelSpec("ordinal", link, J=2, k=3), data)
        assert np.array_equal(fit_b.params.flat, fit_o.params.flat)
        for field in ("se", "vcov", "loglik_fit", "iterations", "converged"):
            assert np.array_equal(getattr(fit_b, field), getattr(fit_o, field)), field
        assert fit_b.spec == fit_o.spec


class TestLinkScaleFolklore:
    def test_logit_probit_slope_ratio(self):
        # folklore: logit slopes ~ 1.6-1.8 times probit slopes on the same
        # data; checked loosely at simulation scale
        rng = np.random.default_rng(71)
        spec_l = ModelSpec("binary", Link.LOGIT, J=2, k=2, intercept=True)
        data = simulate_dataset(spec_l, [0.3, 1.0], [], 20_000, rng)
        fit_logit = fit_ml(spec_l, data)
        fit_probit = fit_ml(ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True), data)
        ratio = fit_logit.params.beta[1] / fit_probit.params.beta[1]
        assert 1.6 <= ratio <= 1.8


class TestFitStatistics:
    def test_lr_arithmetic(self):
        stat, _ = lr_test(-100.0, -90.0, 5)
        assert stat == 20.0

    def test_lr_zero_statistic(self):
        stat, p = lr_test(-50.0, -50.0, 3)
        assert stat == 0.0
        assert p == 1.0

    def test_lr_pvalue_against_incomplete_gamma_oracle(self):
        _, p = lr_test(-100.0, -90.0, 5)
        assert p == pytest.approx(CHI2_SF_20_5, rel=1e-10)
        assert p == pytest.approx(chi2_sf_oracle(20.0, 5), rel=1e-10)

    def test_lr_df_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_test(-100.0, -90.0, 0)

    def test_lr_decreasing_loglik_rejected(self):
        with pytest.raises(ValueError):
            lr_test(-90.0, -100.0, 2)

    def test_mcfadden_hand_computation(self):
        assert mcfadden_r2(-100.0, -90.0) == 1.0 - (-90.0) / (-100.0)
        assert mcfadden_r2(-100.0, -90.0) == pytest.approx(0.10, abs=1e-12)

    def test_mcfadden_zero_when_no_improvement(self):
        assert mcfadden_r2(-100.0, -100.0) == 0.0

    def test_mcfadden_domain(self):
        with pytest.raises(ValueError):
            mcfadden_r2(0.0, -1.0)


class TestHitRate:
    def test_intercept_only_predicts_majority(self):
        data = _intercept_data([25, 75], J=2)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        fit = fit_ml(spec, data)
        assert fit.hit_rate == 75.0

    def test_hand_enumerated_instance(self):
        # beta = (0, 1), so the predicted class is 2 iff Phi(x) > 0.5 iff x > 0
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        X = np.column_stack([np.ones(4), [-1.0, -0.2, 0.3, 1.5]])
        data = Dataset(y=[1, 2, 2, 1], X=X, column_names=["intercept", "x"], J=2)
        params = ParamVector([0.0, 1.0])
        # predictions: 1, 1, 2, 2 -> hits on rows 1 and 3
        assert hit_rate(spec, params, data) == 50.0

    def test_tie_breaks_to_lowest_category(self):
        # beta = 0 and symmetric cells: category 1 and 2 tie at 0.5
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        data = Dataset(y=[1, 2], X=np.ones((2, 1)), column_names=["intercept"], J=2)
        params = ParamVector([0.0])
        assert hit_rate(spec, params, data) == 50.0  # always predicts category 1

    @pytest.mark.parametrize("J", [2, 3, 5])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_predicts_the_first_argmax_of_predict_prob(self, link, J):
        rng = np.random.default_rng(20 + J)
        spec = ModelSpec("binary" if J == 2 else "ordinal", link, J=J, k=2, intercept=True)
        params = ParamVector([0.0, 1.0], np.zeros(J - 2))
        # x = 0 ties categories 1 and 2 when J = 2, and x = 0.5 puts 1 and 3
        # within an ulp when J = 3; the rest spread over both tails
        x = np.concatenate([[0.0, 0.5, -0.5, 1.0], rng.uniform(-40.0, 40.0, 3000)])
        X = np.column_stack([np.ones(x.size), x])
        predicted = np.argmax(predict_prob(spec, params, X), axis=1) + 1
        names = ["intercept", "x"]
        exact = Dataset(y=predicted, X=X, column_names=names, J=J)
        assert hit_rate(spec, params, exact) == 100.0
        y = rng.integers(1, J + 1, x.size)
        data = Dataset(y=y, X=X, column_names=names, J=J)
        assert hit_rate(spec, params, data) == float(np.mean(predicted == y) * 100.0)


class TestPredictProb:
    def test_known_cells(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1, intercept=True)
        params = ParamVector([0.0], [0.0])
        probs = predict_prob(spec, params, np.ones((5, 1)))
        expected = [0.5, 0.3413447460685429, 0.15865525393145707]
        for row in probs:
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_binary_success_column_is_cdf(self):
        spec = ModelSpec("binary", Link.LOGIT, J=2, k=1, intercept=False)
        params = ParamVector([0.8])
        X = np.linspace(-3, 3, 11)[:, None]
        probs = predict_prob(spec, params, X)
        np.testing.assert_allclose(probs[:, 1], Link.LOGIT.cdf(0.8 * X[:, 0]), atol=1e-14)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(81)
        spec = ModelSpec("ordinal", Link.LOGIT, J=5, k=3, intercept=True)
        params = ParamVector(rng.normal(size=3), rng.normal(scale=0.5, size=3))
        X = rng.normal(size=(50, 3))
        probs = predict_prob(spec, params, X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_column_mismatch(self):
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        with pytest.raises(ValueError):
            predict_prob(spec, ParamVector([0.0, 0.0]), np.ones((3, 5)))


@pytest.mark.parametrize("params, message", [
    (ParamVector([0.1, 0.5], [0.2]), r"^delta has length 1, expected J - 2 = 2$"),
    (ParamVector([0.1, 0.5], [0.2, 0.1, 0.3]), r"^delta has length 3, expected J - 2 = 2$"),
    (ParamVector([0.1], [0.2, 0.1]), r"^beta has shape \(1,\), expected \(2,\)$"),
    (ParamVector([0.1, 0.5, 0.3], [0.2, 0.1]), r"^beta has shape \(3,\), expected \(2,\)$"),
])
def test_probabilities_refuse_params_that_do_not_fit_the_spec(params, message):
    # a J = 4, k = 2 spec: a misfit is refused by name, not broadcast or indexed
    spec = ModelSpec("ordinal", Link.PROBIT, J=4, k=2, intercept=True)
    X = np.column_stack([np.ones(3), [-0.4, 0.2, 1.1]])
    data = Dataset(y=[1, 2, 4], X=X, column_names=["intercept", "x"], J=4)
    with pytest.raises(ValueError, match=message):
        predict_prob(spec, params, X)
    with pytest.raises(ValueError, match=message):
        hit_rate(spec, params, data)

@pytest.mark.parametrize("J, width, message", [
    (3, 2, r"^data has J = 3 categories but spec declares J = 4$"),
    (5, 2, r"^data has J = 5 categories but spec declares J = 4$"),
    (4, 3, r"^design has 3 columns but spec declares k = 2$"),
    (4, 1, r"^design has 1 columns but spec declares k = 2$"),
])
def test_probabilities_refuse_data_that_does_not_fit_the_spec(J, width, message):
    # the J = 4, k = 2 spec above, on data of another J or another width
    spec = ModelSpec("ordinal", Link.PROBIT, J=4, k=2, intercept=True)
    params = ParamVector([0.1, 0.5], [0.2, 0.1])
    X = np.column_stack([np.ones(3), [-0.4, 0.2, 1.1], [0.3, -0.2, 0.5]])[:, :width]
    data = Dataset(y=[1, 2, 3], X=X, column_names=["intercept", "x", "z"][:width], J=J)
    with pytest.raises(ValueError, match=message):
        hit_rate(spec, params, data)
    if J == spec.J:
        with pytest.raises(ValueError, match=message):
            predict_prob(spec, params, X)


class TestSummaryTable:
    def _fixed_fit(self, z_value):
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        from discretefit.estimation import FitResult
        return FitResult(
            spec=spec, params=ParamVector([z_value]), se=np.array([1.0]),
            vcov=np.eye(1), loglik_fit=-50.0, loglik_0=-60.0,
            lr_stat=20.0, lr_df=2, lr_pvalue=4.5399929762484854e-05,
            mcfadden_r2=1.0 - 50.0 / 60.0, hit_rate=75.0, iterations=3,
            converged=True, n_obs=100,
        )

    def test_stars_follow_computed_p(self):
        # just below the 5% critical value 1.95996...: p > 0.05 -> one star
        rows = coefficient_rows(self._fixed_fit(1.9599), ["x"])
        assert rows[0]["p"] > 0.05
        assert rows[0]["stars"] == "*"
        # just above it: p < 0.05 -> two stars
        rows = coefficient_rows(self._fixed_fit(1.9600), ["x"])
        assert rows[0]["p"] < 0.05
        assert rows[0]["stars"] == "**"

    def test_no_stars_above_ten_percent(self):
        rows = coefficient_rows(self._fixed_fit(1.0), ["x"])
        assert rows[0]["p"] > 0.10
        assert rows[0]["stars"] == ""

    def test_footer_fields_match_fit_result(self):
        fit = self._fixed_fit(1.0)
        text = summary_table(fit, ["x"])
        assert f"LR chi2({fit.lr_df}) = {fit.lr_stat:.4f}" in text
        assert f"McFadden R2 = {fit.mcfadden_r2:.4f}" in text
        assert f"hit rate = {fit.hit_rate:.4f}%" in text
        assert f"loglik = {fit.loglik_fit:.4f}" in text

    def test_report_dict_mirrors_fit(self):
        fit = self._fixed_fit(1.2)
        payload = fit_report_dict(fit, ["x"])
        assert payload["loglik_fit"] == fit.loglik_fit
        assert payload["mcfadden_r2"] == fit.mcfadden_r2
        assert payload["hit_rate"] == fit.hit_rate
        assert payload["converged"] is True
        assert payload["coefficients"][0]["estimate"] == 1.2


class TestLogitWithoutLogaddexp:
    @pytest.mark.parametrize("J", [2, 4])
    def test_fit_and_effects_never_call_logaddexp(self, J, monkeypatch):
        rng = np.random.default_rng(90 + J)
        spec = ModelSpec("binary" if J == 2 else "ordinal", Link.LOGIT, J=J, k=3, intercept=True)
        sim = simulate_dataset(spec, [0.3, -0.7, 0.5], np.linspace(0.8, 1.6, J - 2), 500, rng)
        X = sim.X.copy()
        X[:, 2] = X[:, 2] > 0.0  # one indicator, one continuous covariate
        data = Dataset(y=sim.y, X=X, column_names=sim.column_names, J=J)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.logaddexp was called")

        monkeypatch.setattr(np, "logaddexp", refuse)
        fit = fit_ml(spec, data)
        assert fit.converged
        assert fit.hit_rate == hit_rate(spec, fit.params, data) > 0.0
        table = effects_table(spec, fit.params, data)
        assert [eff.kind for eff in table.rows] == ["continuous", "indicator"]
