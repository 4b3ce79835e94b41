"""Tests for covariate effects and odds interpretation helpers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discretefit.effects as effects_module
import discretefit.likelihood as lk

from discretefit import (
    ColumnKindError,
    Dataset,
    Link,
    ModelSpec,
    ParamVector,
    UnsupportedLinkError,
    cumulative_odds,
    effects_table,
    odds_ratio_logit,
    predict_prob,
    simulate_dataset,
)
from discretefit.effects import effects_report_dict, effects_text

PHI_0_DENSITY = 0.3989422804014327
DELTA_PHI_0_1 = 0.3413447460685429  # Phi(1) - Phi(0), from the series oracle


def _continuous_instance(link, J, seed, n=120):
    rng = np.random.default_rng(seed)
    spec = ModelSpec("ordinal" if J > 2 else "binary", link, J=J, k=3, intercept=True)
    cuts = np.linspace(0.8, 1.6, J - 2) if J > 2 else []
    data = simulate_dataset(spec, [0.4, -0.7, 0.3], cuts, n, rng)
    params = ParamVector([0.3, -0.6, 0.2], np.full(J - 2, 0.1))
    return spec, data, params


class TestContinuousEffects:
    def test_binary_probit_at_zero_index(self):
        # rows with x'beta = 0 and beta_l = 0.5: effect on the success
        # category is 0.5 * phi(0)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        X = np.column_stack([np.ones(3), [0.0, 0.0, 2.0]])
        data = Dataset(y=[1, 2, 2], X=X, column_names=["intercept", "x"], J=2)
        params = ParamVector([0.0, 0.5])
        eff = effects_table(spec, params, data, columns=[1]).rows[0]
        np.testing.assert_allclose(eff.per_obs[:2, 1], 0.5 * PHI_0_DENSITY, atol=1e-12)
        np.testing.assert_allclose(eff.per_obs[:2, 0], -0.5 * PHI_0_DENSITY, atol=1e-12)

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    @pytest.mark.parametrize("J", [2, 3, 4])
    def test_matches_finite_difference_of_predict_prob(self, link, J):
        spec, data, params = _continuous_instance(link, J, seed=42)
        eff = effects_table(spec, params, data, columns=[1]).rows[0]
        h = 1e-6
        X_hi, X_lo = data.X.copy(), data.X.copy()
        X_hi[:, 1] += h
        X_lo[:, 1] -= h
        fd = (predict_prob(spec, params, X_hi) - predict_prob(spec, params, X_lo)) / (2.0 * h)
        np.testing.assert_allclose(eff.per_obs, fd, atol=1e-6)
        np.testing.assert_allclose(eff.average, fd.mean(axis=0), atol=1e-6)

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_sign_law_for_extreme_categories(self, link):
        spec, data, params = _continuous_instance(link, 4, seed=43)
        for l, beta_l in ((1, params.beta[1]), (2, params.beta[2])):
            eff = effects_table(spec, params, data, columns=[l]).rows[0]
            assert np.all(np.sign(eff.per_obs[:, 0]) == -np.sign(beta_l))
            assert np.all(np.sign(eff.per_obs[:, -1]) == np.sign(beta_l))

    def test_per_row_effects_sum_to_zero(self):
        spec, data, params = _continuous_instance(Link.LOGIT, 3, seed=44)
        eff = effects_table(spec, params, data, columns=[2]).rows[0]
        np.testing.assert_allclose(eff.per_obs.sum(axis=1), 0.0, atol=1e-10)
        assert abs(eff.average.sum()) < 1e-10

    def test_intercept_rejected(self):
        spec, data, params = _continuous_instance(Link.PROBIT, 3, seed=45)
        with pytest.raises(ColumnKindError):
            effects_table(spec, params, data, columns=[0]).rows[0]


class TestIndicatorEffects:
    def _indicator_instance(self, beta_m, xb_rest=0.0, n=6):
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        X = np.column_stack([np.ones(n), np.tile([0.0, 1.0], n // 2)])
        data = Dataset(y=[1, 2] * (n // 2), X=X, column_names=["intercept", "d"], J=2)
        params = ParamVector([xb_rest, beta_m])
        return spec, data, params

    def test_zero_coefficient_gives_exact_zero(self):
        spec, data, params = self._indicator_instance(0.0)
        eff = effects_table(spec, params, data, columns=[1]).rows[0]
        assert np.all(eff.per_obs == 0.0)
        assert np.all(eff.average == 0.0)

    def test_unit_coefficient_from_cdf_oracle(self):
        spec, data, params = self._indicator_instance(1.0, xb_rest=0.0)
        eff = effects_table(spec, params, data, columns=[1]).rows[0]
        np.testing.assert_allclose(eff.per_obs[:, 1], DELTA_PHI_0_1, atol=1e-12)
        np.testing.assert_allclose(eff.per_obs[:, 0], -DELTA_PHI_0_1, atol=1e-12)

    def test_two_evaluation_oracle(self):
        rng = np.random.default_rng(46)
        spec = ModelSpec("ordinal", Link.LOGIT, J=3, k=3, intercept=True)
        X = np.column_stack([np.ones(50), rng.normal(size=50), rng.integers(0, 2, 50)])
        y = rng.integers(1, 4, 50)
        data = Dataset(y=y, X=X, column_names=["intercept", "x", "d"], J=3)
        params = ParamVector([0.2, -0.5, 0.8], [0.3])
        eff = effects_table(spec, params, data, columns=[2]).rows[0]
        X1, X0 = data.X.copy(), data.X.copy()
        X1[:, 2], X0[:, 2] = 1.0, 0.0
        expected = predict_prob(spec, params, X1) - predict_prob(spec, params, X0)
        np.testing.assert_array_equal(eff.per_obs, expected)
        np.testing.assert_allclose(eff.per_obs.sum(axis=1), 0.0, atol=1e-10)


class TestOddsRatio:
    def _logit_spec(self, k=2):
        return ModelSpec("binary", Link.LOGIT, J=2, k=k, intercept=True)

    def test_zero_coefficient(self):
        assert odds_ratio_logit(self._logit_spec(), ParamVector([0.1, 0.0]), 1) == 1.0

    def test_log_two(self):
        value = odds_ratio_logit(self._logit_spec(), ParamVector([0.1, math.log(2.0)]), 1)
        assert value == pytest.approx(2.0, rel=1e-15)

    def test_reciprocal(self):
        value = odds_ratio_logit(self._logit_spec(), ParamVector([0.1, -math.log(2.0)]), 1)
        assert value == pytest.approx(0.5, rel=1e-15)

    def test_probit_rejected(self):
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        with pytest.raises(UnsupportedLinkError):
            odds_ratio_logit(spec, ParamVector([0.0, 1.0]), 1)

    def test_ordinal_model_accepted(self):
        # exp(beta_m) is the odds ratio of y > j for every j
        spec = ModelSpec("ordinal", Link.LOGIT, J=3, k=2, intercept=True)
        value = odds_ratio_logit(spec, ParamVector([0.0, math.log(2.0)], [0.0]), 1)
        assert value == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("m", [-1, 2])
    def test_column_index_out_of_range(self, m):
        with pytest.raises(ValueError, match=f"^column index {m} out of range$"):
            odds_ratio_logit(self._logit_spec(), ParamVector([0.0, 1.0]), m)

    def test_intercept_refused(self):
        # exp(beta_0) is the baseline odds, not an odds ratio
        with pytest.raises(ColumnKindError, match="^the intercept has no covariate effect$"):
            odds_ratio_logit(self._logit_spec(), ParamVector([0.3, 1.0]), 0)


class TestParamsCheckedAgainstSpec:
    """A beta or delta of the wrong length, data of another J and a design
    of another width are refused by name, with the messages of the
    likelihood's dimension check."""

    @pytest.mark.parametrize("params, message", [
        (ParamVector([0.1, 0.5], [0.2]), r"^delta has length 1, expected J - 2 = 2$"),
        (ParamVector([0.1], [0.2, 0.1]), r"^beta has shape \(1,\), expected \(2,\)$"),
        (ParamVector([0.1, 0.5, 0.3], [0.2, 0.1]), r"^beta has shape \(3,\), expected \(2,\)$"),
    ])
    def test_effects_table(self, params, message):
        spec = ModelSpec("ordinal", Link.LOGIT, J=4, k=2, intercept=True)
        X = np.column_stack([np.ones(4), [-0.4, 0.2, 1.1, 0.0]])
        data = Dataset(y=[1, 2, 4, 3], X=X, column_names=["intercept", "x"], J=4)
        with pytest.raises(ValueError, match=message):
            effects_table(spec, params, data)

    def test_cumulative_odds(self):
        spec = ModelSpec("ordinal", Link.LOGIT, J=4, k=2, intercept=True)
        with pytest.raises(ValueError, match=r"^delta has length 1, expected J - 2 = 2$"):
            cumulative_odds(spec, ParamVector([0.0, 0.5], [0.2]), [1.0, 0.3], 3)
        with pytest.raises(ValueError, match=r"^beta has shape \(3,\), expected \(2,\)$"):
            cumulative_odds(spec, ParamVector([0.0, 0.5, 0.1], [0.2, 0.1]), [1.0, 0.3, 2.0], 2)

    @pytest.mark.parametrize("J, width, message", [
        (3, 2, r"^data has J = 3 categories but spec declares J = 4$"),
        (4, 3, r"^design has 3 columns but spec declares k = 2$"),
        (4, 1, r"^design has 1 columns but spec declares k = 2$"),
    ])
    def test_effects_table_on_data_of_another_shape(self, J, width, message):
        spec = ModelSpec("ordinal", Link.LOGIT, J=4, k=2, intercept=True)
        X = np.column_stack([np.ones(4), [-0.4, 0.2, 1.1, 0.0], [0.3, -0.2, 0.5, 1.0]])
        data = Dataset(y=[1, 2, 3, 3], X=X[:, :width],
                       column_names=["intercept", "x", "z"][:width], J=J)
        with pytest.raises(ValueError, match=message):
            effects_table(spec, ParamVector([0.1, 0.5], [0.2, 0.1]), data)

    @pytest.mark.parametrize("x, message", [
        ([1.0, 0.3, 2.0], r"^design has 3 columns but spec declares k = 2$"),
        ([1.0], r"^design has 1 columns but spec declares k = 2$"),
    ])
    def test_cumulative_odds_on_x_of_another_width(self, x, message):
        spec = ModelSpec("ordinal", Link.LOGIT, J=4, k=2, intercept=True)
        with pytest.raises(ValueError, match=message):
            cumulative_odds(spec, ParamVector([0.0, 0.5], [0.2, 0.1]), x, 2)

    @pytest.mark.parametrize("params, message", [
        (ParamVector([0.1]), r"^beta has shape \(1,\), expected \(2,\)$"),
        (ParamVector([0.1, 0.5, 0.3]), r"^beta has shape \(3,\), expected \(2,\)$"),
        (ParamVector([0.1, 0.5], [0.2]), r"^delta has length 1, expected J - 2 = 0$"),
    ])
    def test_odds_ratio_logit(self, params, message):
        spec = ModelSpec("binary", Link.LOGIT, J=2, k=2, intercept=True)
        with pytest.raises(ValueError, match=message):
            odds_ratio_logit(spec, params, 1)


class TestCumulativeOdds:
    def _spec(self, J=3):
        return ModelSpec("ordinal", Link.LOGIT, J=J, k=2, intercept=True)

    def test_unit_odds_at_zero(self):
        spec = self._spec()
        params = ParamVector([0.0, 0.0], [0.0])
        assert cumulative_odds(spec, params, [1.0, 0.0], 1) == pytest.approx(1.0, rel=1e-15)

    def test_ratio_category_free(self):
        spec = self._spec(J=4)
        params = ParamVector([0.3, -0.8], [0.2, 0.4])
        x1 = np.array([1.0, 0.7])
        x2 = np.array([1.0, -0.4])
        expected = math.exp(-(x1 - x2) @ params.beta)
        for j in (1, 2, 3):
            ratio = cumulative_odds(spec, params, x1, j) / cumulative_odds(spec, params, x2, j)
            assert ratio == pytest.approx(expected, rel=1e-10)

    def test_consistent_with_cell_probabilities(self):
        spec = self._spec(J=4)
        params = ParamVector([0.2, 0.5], [-0.1, 0.6])
        x = np.array([1.0, 0.3])
        probs = predict_prob(spec, params, x[None, :])[0]
        for j in (1, 2, 3):
            cum = probs[:j].sum()
            assert cumulative_odds(spec, params, x, j) == pytest.approx(
                cum / (1.0 - cum), rel=1e-10
            )

    @pytest.mark.parametrize("J", [3, 4])
    def test_odds_ratio_is_the_cumulative_odds_ratio_for_every_j(self, J):
        spec = self._spec(J)
        params = ParamVector([0.3, -0.8], np.linspace(-0.2, 0.4, J - 2))
        x = np.array([1.0, 0.7])
        ratio = odds_ratio_logit(spec, params, 1)
        assert ratio == pytest.approx(math.exp(-0.8), rel=1e-12)
        for j in range(1, J):
            by_odds = (cumulative_odds(spec, params, x, j)
                       / cumulative_odds(spec, params, x + [0.0, 1.0], j))
            assert by_odds == pytest.approx(ratio, rel=1e-12)

    def test_binary_odds_are_the_probability_ratio(self):
        spec = self._spec(J=2)
        params = ParamVector([0.2, 0.5])
        x = np.array([1.0, -0.9])
        probs = predict_prob(spec, params, x[None, :])[0]
        assert cumulative_odds(spec, params, x, 1) == pytest.approx(probs[0] / probs[1],
                                                                      rel=1e-12)

    def test_top_category_rejected(self):
        spec = self._spec()
        with pytest.raises(ValueError):
            cumulative_odds(spec, ParamVector([0.0, 0.0], [0.0]), [1.0, 0.0], 3)

    def test_probit_rejected(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=2, intercept=True)
        with pytest.raises(UnsupportedLinkError):
            cumulative_odds(spec, ParamVector([0.0, 0.0], [0.0]), [1.0, 0.0], 1)

    def test_binary_model_accepted(self):
        # at J = 2 the odds of y <= 1 are exp(-x'beta)
        spec = ModelSpec("binary", Link.LOGIT, J=2, k=2, intercept=True)
        value = cumulative_odds(spec, ParamVector([0.0, math.log(2.0)]), [1.0, 1.0], 1)
        assert value == pytest.approx(0.5, rel=1e-15)


class TestEffectsTable:
    def test_table_rows_and_scaling(self):
        rng = np.random.default_rng(48)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=3, intercept=True)
        X = np.column_stack([np.ones(80), rng.normal(size=80), rng.integers(0, 2, 80)])
        data = Dataset(y=rng.integers(1, 3, 80), X=X,
                       column_names=["intercept", "age", "member"], J=2)
        params = ParamVector([0.1, -0.3, 0.5])
        table = effects_table(spec, params, data, scales={"age": 10.0})
        assert [r.name for r in table.rows] == ["age", "member"]
        assert table.rows[0].kind == "continuous"
        assert table.rows[1].kind == "indicator"
        np.testing.assert_allclose(
            table.rows[0].scaled_average, 10.0 * table.rows[0].average
        )
        text = effects_text(table, ["no", "yes"])
        assert "age (x10)" in text
        assert "dP(yes)" in text
        payload = effects_report_dict(table, ["no", "yes"])
        assert payload["effects"][0]["scale"] == 10.0

    def test_scaling_an_indicator_rejected(self):
        rng = np.random.default_rng(49)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        X = np.column_stack([np.ones(40), rng.integers(0, 2, 40)])
        data = Dataset(y=rng.integers(1, 3, 40), X=X,
                       column_names=["intercept", "d"], J=2)
        with pytest.raises(ColumnKindError):
            effects_table(spec, ParamVector([0.0, 0.4]), data, scales={"d": 10.0})


def _mixed_instance(n, J, link, intercept, seed):
    """Continuous columns at offsets 0 and 2, indicators at 1 and 3, after an
    optional intercept; draws and parameters from ``seed``."""
    rng = np.random.default_rng(seed)
    cols = [rng.normal(size=n), rng.integers(0, 2, n), rng.normal(2.0, 3.0, n),
            rng.integers(0, 2, n)]
    names = ["x", "d", "z", "e"]
    if intercept:
        cols, names = [np.ones(n)] + cols, ["intercept"] + names
    X = np.column_stack(cols).astype(float)
    spec = ModelSpec("ordinal" if J > 2 else "binary", link, J=J, k=X.shape[1],
                     intercept=intercept)
    data = Dataset(y=rng.integers(1, J + 1, n), X=X, column_names=names, J=J)
    params = ParamVector(rng.normal(0.0, 0.8, X.shape[1]), rng.normal(0.0, 0.3, J - 2))
    return spec, data, params, int(intercept)


def _two_copy_effect(spec, params, X, m):
    X1, X0 = X.copy(), X.copy()
    X1[:, m], X0[:, m] = 1.0, 0.0
    return predict_prob(spec, params, X1) - predict_prob(spec, params, X0)


class TestTableBitIdentity:
    """``effects_table`` shares one base pass and one flipped working copy of X
    among its columns; every row must keep the bits of the per-column forms."""

    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    @pytest.mark.parametrize("J", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 7, 300, 1001])
    def test_rows_equal_per_column_and_two_copy_forms(self, n, J, link, intercept):
        spec, data, params, o = _mixed_instance(n, J, link, intercept, seed=1000 * n + 10 * J)
        X_before = data.X.copy()
        # out of order and repeated: indicators o+3, o+1, o+3; continuous o+2, o, o+2
        columns = [o + 3, o + 2, o + 1, o, o + 3, o + 2]
        table = effects_table(spec, params, data, columns=columns)
        assert [r.name for r in table.rows] == [data.column_names[c] for c in columns]
        for idx, row in zip(columns, table.rows):
            if row.kind == "indicator":
                single = effects_table(spec, params, data, columns=[idx]).rows[0]
                two_copy = _two_copy_effect(spec, params, data.X, idx)
                assert np.array_equal(row.per_obs, two_copy)
                assert np.array_equal(row.average, two_copy.mean(axis=0))
            else:
                single = effects_table(spec, params, data, columns=[idx]).rows[0]
            assert np.array_equal(row.per_obs, single.per_obs)
            assert np.array_equal(row.average, single.average)
        assert [r.kind for r in table.rows] == ["indicator", "continuous"] * 3
        assert np.array_equal(data.X, X_before)

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    @pytest.mark.parametrize("J", [2, 4])
    def test_same_bits_at_every_cpu_count(self, monkeypatch, J, link):
        # several chunks and runs: runs start on block boundaries, and the
        # last chunk at two CPUs holds 17 rows
        n = 2 * lk._CHUNK_ROWS + 17
        spec, data, params, o = _mixed_instance(n, J, link, True, seed=40 + J)
        tables = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(lk, "_cpu_count", lambda: cpus)
            tables.append(effects_table(spec, params, data))
        for table in tables[1:]:
            for row, want in zip(table.rows, tables[0].rows, strict=True):
                assert np.array_equal(row.per_obs, want.per_obs)
                assert np.array_equal(row.average, want.average)
        for m in (o + 1, o + 3):
            two_copy = _two_copy_effect(spec, params, data.X, m)
            for table in tables:
                assert table.rows[m - 1].kind == "indicator"
                assert np.array_equal(table.rows[m - 1].per_obs, two_copy)

    def test_default_columns_skip_the_intercept(self):
        spec, data, params, _ = _mixed_instance(50, 3, Link.LOGIT, True, seed=5)
        table = effects_table(spec, params, data)
        assert [r.name for r in table.rows] == ["x", "d", "z", "e"]
        for m in (2, 4):
            assert np.array_equal(table.rows[m - 1].per_obs,
                                  _two_copy_effect(spec, params, data.X, m))


def test_bit_identity_holds_with_one_blas_thread():
    """The bit-identity rests on the matrix product computing each row the
    same way whatever the other rows hold; rerun it in a fresh interpreter
    with a single BLAS thread, as the benchmark uses."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::TestTableBitIdentity"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert " passed" in done.stdout


class TestPredictProbCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        original = effects_module.predict_prob

        def counting(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(effects_module, "predict_prob", counting)
        return count

    def test_one_base_pass_plus_one_per_indicator(self, calls):
        spec, data, params, _ = _mixed_instance(200, 4, Link.LOGIT, True, seed=6)
        effects_table(spec, params, data)
        assert calls[0] == 1 + 2

    def test_continuous_columns_only_need_no_probabilities(self, calls):
        spec, data, params, _ = _mixed_instance(200, 4, Link.PROBIT, True, seed=7)
        effects_table(spec, params, data, columns=[3, 1])
        assert calls[0] == 0


@pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
@pytest.mark.parametrize("J", [2, 4])
def test_density_never_evaluated_at_an_infinite_cut_point(monkeypatch, link, J):
    # f(+-inf) = 0 exactly, so the end cut-points need no density call
    seen = []
    original = Link.pdf

    def recording(self, w):
        seen.append(np.asarray(w))
        return original(self, w)

    monkeypatch.setattr(Link, "pdf", recording)
    spec, data, params, _ = _mixed_instance(300, J, link, True, seed=8 + J)
    effects_table(spec, params, data)
    assert seen
    assert all(np.all(np.isfinite(w)) for w in seen)


@pytest.mark.parametrize("scales, scanned", [({}, []), ({"z": 1.0}, []), ({"z": 2.0}, [3])])
def test_request_check_reads_only_scaled_columns(monkeypatch, scales, scanned):
    """The table tests each column it reports for 0/1 values; the request
    check before it tests only the columns a scale other than 1 applies to."""
    spec, data, _, _ = _mixed_instance(60, 3, Link.LOGIT, True, seed=12)
    read = []
    original = effects_module._is_indicator
    monkeypatch.setattr(effects_module, "_is_indicator",
                        lambda column: read.append(column) or original(column))
    assert effects_module.check_request(spec, data, None, scales) == [1, 2, 3, 4]
    assert len(read) == len(scanned)
    for column, idx in zip(read, scanned):
        assert np.array_equal(column, data.X[:, idx])


class TestColumnIndexChecks:
    @pytest.mark.parametrize("idx", [5, 6, 50, -1])
    def test_out_of_range_index_named(self, idx):
        spec, data, params, _ = _mixed_instance(20, 3, Link.LOGIT, True, seed=8)
        with pytest.raises(ValueError, match=f"column index {idx} out of range"):
            effects_table(spec, params, data, columns=[idx]).rows[0]
        with pytest.raises(ValueError, match=f"column index {idx} out of range"):
            effects_table(spec, params, data, columns=[1, idx])

    def test_intercept_refused_before_its_column_is_read(self):
        spec, data, params, _ = _mixed_instance(20, 3, Link.LOGIT, True, seed=9)
        for call in (lambda: effects_table(spec, params, data, columns=[0]).rows[0],
                     lambda: effects_table(spec, params, data, columns=[0])):
            with pytest.raises(ColumnKindError, match="the intercept has no covariate effect"):
                call()

    def test_scale_on_a_column_not_reported_refused(self):
        spec, data, params, _ = _mixed_instance(20, 3, Link.LOGIT, True, seed=10)
        for scales in ({"zzz": 2.0}, {"z": 2.0}):
            with pytest.raises(ValueError, match="--scale names unknown covariates"):
                effects_table(spec, params, data, columns=[1], scales=scales)
