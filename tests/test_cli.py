"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discretefit
import discretefit.effects as effects_module
from discretefit import bayes, data, estimation
from discretefit.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sim_files(tmp_path):
    """A simulated ordinal dataset plus matching schema on disk."""
    out = tmp_path / "sim.csv"
    rc = run([
        "simulate", "--family", "ordinal", "--link", "probit",
        "--beta", "0.5,-1.0,0.25", "--cutpoints", "1.0",
        "--n", "1500", "--seed", "7", "--out", out,
    ])
    assert rc == 0
    return out, tmp_path / "sim.schema"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import, and every command pays it
    src = Path(discretefit.__file__).resolve().parents[1]
    code = "import sys, discretefit.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120, check=True)
    assert done.stdout.strip() == "False"


class TestSimulate:
    def test_writes_data_and_schema(self, sim_files):
        data_path, schema_path = sim_files
        assert data_path.exists() and schema_path.exists()
        header = data_path.read_text().splitlines()[0]
        assert header == "y,x1,x2"

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["simulate", "--family", "binary", "--beta", "0.3,0.4",
                "--n", "500", "--seed", "11"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_omitted_family_follows_the_cutpoints(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = run(["simulate", "--beta", "0.3,0.5", "--cutpoints", "1.0",
                  "--n", "200", "--out", out])
        assert rc == 0
        assert "labels = 1, 2, 3" in (tmp_path / "o.schema").read_text()

    @pytest.mark.parametrize("family, cutpoints, message", [
        ("binary", "1.0", "binary simulation takes no --cutpoints"),
        ("ordinal", "", "ordinal simulation needs at least one --cutpoints value"),
    ])
    def test_contradicting_family_is_input_error(self, tmp_path, capsys, family, cutpoints,
                                                 message):
        rc = run(["simulate", "--family", family, "--beta", "0.3,0.5",
                  "--cutpoints", cutpoints, "--out", tmp_path / "o.csv"])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_nonpositive_n_is_input_error(self, tmp_path, capsys, n):
        out = tmp_path / "o.csv"
        rc = run(["simulate", "--beta", "0.3,0.5", "--n", n, "--out", out])
        assert rc == 1
        assert f"--n must be at least 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_cutpoints_rejected(self, tmp_path, capsys):
        rc = run([
            "simulate", "--family", "ordinal", "--beta", "0.1",
            "--cutpoints", "1.0,0.5", "--n", "100",
            "--out", tmp_path / "x.csv",
        ])
        assert rc == 1
        assert "increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("beta, cutpoints, message", [
        ("nan,1", "", "beta must be finite"),
        ("0.1,inf", "", "beta must be finite"),
        ("0.1,-inf", "1.0", "beta must be finite"),
        ("0.1,1", "nan", "cutpoints must be finite"),
        ("0.1,1", "1.0,inf", "cutpoints must be finite"),
    ])
    def test_non_finite_true_values_are_input_errors(self, tmp_path, capsys, beta, cutpoints,
                                                     message):
        out = tmp_path / "o.csv"
        rc = run(["simulate", "--beta", beta, "--cutpoints", cutpoints, "--n", "50",
                  "--out", out])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "o.schema").exists()


class TestFit:
    def test_text_and_json_agree_field_for_field(self, sim_files, tmp_path):
        data_path, schema_path = sim_files
        out = tmp_path / "rep"
        rc = run([
            "fit", "--data", data_path, "--schema", schema_path,
            "--family", "ordinal", "--link", "probit", "--out", out,
        ])
        assert rc == 0
        text = (tmp_path / "rep.txt").read_text()
        payload = json.loads((tmp_path / "rep.json").read_text())
        for coef in payload["coefficients"]:
            line = next(l for l in text.splitlines() if l.startswith(coef["name"]))
            for key in ("estimate", "se", "z", "p"):
                assert f"{coef[key]:.4f}" in line
        assert f"McFadden R2 = {payload['mcfadden_r2']:.4f}" in text
        assert f"hit rate = {payload['hit_rate']:.4f}%" in text
        assert f"LR chi2({payload['lr_df']}) = {payload['lr_stat']:.4f}" in text

    def test_omitted_family_fits_ordinal_on_three_labels(self, sim_files, tmp_path):
        data_path, schema_path = sim_files
        rc = run(["fit", "--data", data_path, "--schema", schema_path, "--out", tmp_path / "rep"])
        assert rc == 0
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert payload["model"]["family"] == "ordinal"
        assert payload["model"]["J"] == 3

    def test_binary_family_on_three_labels_is_input_error(self, sim_files, tmp_path, capsys):
        data_path, schema_path = sim_files
        rc = run(["fit", "--data", data_path, "--schema", schema_path,
                  "--family", "binary", "--out", tmp_path / "rep"])
        assert rc == 1
        assert "binary" in capsys.readouterr().err

    def test_missing_schema_exits_1_naming_path(self, sim_files, tmp_path, capsys):
        data_path, _ = sim_files
        rc = run([
            "fit", "--data", data_path, "--schema", tmp_path / "nope.schema",
            "--out", tmp_path / "rep",
        ])
        assert rc == 1
        assert "nope.schema" in capsys.readouterr().err

    @pytest.mark.parametrize("intercept", ["true", "false"])
    def test_covariate_named_intercept_is_refused(self, tmp_path, capsys, intercept):
        rng = np.random.default_rng(5)
        data_path = tmp_path / "d.csv"
        rows = [f"{1 + (v > 0)},{w}" for v, w in zip(rng.standard_normal(300),
                                                     rng.standard_normal(300))]
        data_path.write_text("y,intercept\n" + "\n".join(rows) + "\n")
        schema_path = tmp_path / "d.schema"
        schema_path.write_text(f"response = y\nlabels = 1, 2\nintercept = {intercept}\n"
                               "covariate.intercept = continuous\n")
        rc = run(["fit", "--data", data_path, "--schema", schema_path,
                  "--out", tmp_path / "rep"])
        assert rc == 1
        assert "covariate name 'intercept' is reserved" in capsys.readouterr().err
        assert not (tmp_path / "rep.txt").exists()

    @pytest.mark.parametrize("name,message", [
        ("y", "covariate 'y' is the response column"),
        ("", "covariate name is empty"),
    ])
    def test_response_or_empty_covariate_name_is_refused(self, tmp_path, capsys, name, message):
        rng = np.random.default_rng(6)
        data_path = tmp_path / "d.csv"
        y, blank, x = rng.standard_normal((3, 300))
        rows = [f"{1 + (v > 0)},{w},{u}" for v, w, u in zip(y, blank, x)]
        data_path.write_text("y,,x\n" + "\n".join(rows) + "\n")
        schema_path = tmp_path / "d.schema"
        schema_path.write_text(f"response = y\nlabels = 1, 2\ncovariate.{name} = continuous\n")
        rc = run(["fit", "--data", data_path, "--schema", schema_path,
                  "--out", tmp_path / "rep"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "rep.txt").exists()

    def test_intercept_only_fit_has_no_lr_test(self, tmp_path):
        sim = tmp_path / "sim.csv"
        assert run(["simulate", "--beta", "0.3,0.5", "--n", "200", "--out", sim]) == 0
        schema = tmp_path / "sim.schema"
        schema.write_text("response = y\nlabels = 1, 2\n")
        assert run(["fit", "--data", sim, "--schema", schema, "--out", tmp_path / "rep"]) == 0
        assert "LR chi2: not defined (no slope restrictions)\n" in (tmp_path / "rep.txt").read_text()
        assert json.loads((tmp_path / "rep.json").read_text())["lr_stat"] is None

    def test_separation_exits_1_with_diagnostic(self, tmp_path, capsys):
        data = tmp_path / "sep.csv"
        lines = ["y,x"] + [f"1,{v}" for v in np.linspace(-2, -0.1, 20)] + \
                [f"2,{v}" for v in np.linspace(0.1, 2, 20)]
        data.write_text("\n".join(lines) + "\n")
        schema = tmp_path / "sep.schema"
        schema.write_text(
            "response = y\nlabels = 1, 2\nintercept = false\ncovariate.x = continuous\n"
        )
        rc = run(["fit", "--data", data, "--schema", schema, "--out", tmp_path / "rep"])
        assert rc == 1
        assert "separated" in capsys.readouterr().err

    def test_level_lost_to_dropped_rows_is_named_exit_1(self, tmp_path, capsys):
        # every carrier of level c is dropped, so its indicator is all zeros
        rng = np.random.default_rng(11)
        x = rng.standard_normal(400)
        party = rng.choice(["a", "b"], 400)
        y = np.where(0.3 + x + rng.logistic(size=400) > 0.0, "yes", "no")
        lines = ["y,x,party"] + [f"{r},{v:.6f},{p}" for r, v, p in zip(y, x, party)]
        lines += ["refused,0.5,c", "refused,-0.2,c", "refused,1.1,c"]
        data = tmp_path / "lost.csv"
        data.write_text("\n".join(lines) + "\n")
        schema = tmp_path / "lost.schema"
        schema.write_text(
            "response = y\nlabels = no, yes\nmissing = refused\n"
            "covariate.x = continuous\ncovariate.party = categorical:a\n"
        )
        rc = run(["fit", "--data", data, "--schema", schema, "--link", "logit",
                  "--out", tmp_path / "rep"])
        assert rc == 1
        assert "'party=c' is zero in every observation" in capsys.readouterr().err

    def test_carriage_return_line_endings_exit_1_with_message(self, sim_files, tmp_path, capsys):
        data_path, schema_path = sim_files
        mac = tmp_path / "mac.csv"
        mac.write_bytes(data_path.read_bytes().replace(b"\n", b"\r"))
        rc = run(["fit", "--data", mac, "--schema", schema_path, "--out", tmp_path / "rep"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: header row: new-line character seen in unquoted field")
        assert "Traceback" not in err

    def test_byte_order_mark_fits_like_the_plain_file(self, sim_files, tmp_path):
        data_path, schema_path = sim_files
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + data_path.read_bytes())
        assert run(["fit", "--data", data_path, "--schema", schema_path,
                    "--out", tmp_path / "plain"]) == 0
        assert run(["fit", "--data", marked, "--schema", schema_path,
                    "--out", tmp_path / "bom"]) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_non_convergence_exits_2_report_written(self, sim_files, tmp_path):
        data_path, schema_path = sim_files
        out = tmp_path / "hard"
        rc = run([
            "fit", "--data", data_path, "--schema", schema_path,
            "--family", "ordinal", "--max-iter", "1", "--out", out,
        ])
        assert rc == 2
        assert (tmp_path / "hard.txt").exists()
        payload = json.loads((tmp_path / "hard.json").read_text())
        assert payload["converged"] is False


class TestEffects:
    def test_end_to_end_with_scale_and_filter(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rc = run([
            "simulate", "--family", "binary", "--beta", "0.5,-1.0,0.0",
            "--n", "2500", "--seed", "13", "--out", data,
        ])
        assert rc == 0
        out = tmp_path / "eff"
        rc = run([
            "effects", "--data", data, "--schema", tmp_path / "d.schema",
            "--family", "binary", "--scale", "x1=10", "--pfilter", "0.05",
            "--out", out,
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "eff.json").read_text())
        names = [row["name"] for row in payload["effects"]]
        assert "x1" in names            # true slope -1.0: certainly significant
        assert "x2" not in names        # true slope 0: filtered at 5%
        text = (tmp_path / "eff.txt").read_text()
        assert "x1 (x10)" in text

    def test_each_column_is_tested_for_0_1_values_once(self, sim_files, tmp_path, monkeypatch):
        data_path, schema_path = sim_files
        scanned = []
        original = effects_module._is_indicator
        monkeypatch.setattr(effects_module, "_is_indicator",
                            lambda column: scanned.append(column) or original(column))
        rc = run(["effects", "--data", data_path, "--schema", schema_path,
                  "--out", tmp_path / "eff"])
        assert rc == 0
        assert len(scanned) == 2  # x1 and x2

    def test_requesting_intercept_is_input_error(self, sim_files, tmp_path, capsys):
        data_path, schema_path = sim_files
        rc = run([
            "effects", "--data", data_path, "--schema", schema_path,
            "--family", "ordinal", "--columns", "intercept",
            "--out", tmp_path / "eff",
        ])
        assert rc == 1
        assert "intercept" in capsys.readouterr().err

    def test_unknown_scale_name_is_input_error(self, sim_files, tmp_path, capsys):
        data_path, schema_path = sim_files
        rc = run([
            "effects", "--data", data_path, "--schema", schema_path,
            "--family", "ordinal", "--scale", "zzz=10",
            "--out", tmp_path / "eff",
        ])
        assert rc == 1
        assert "zzz" in capsys.readouterr().err

    def test_columns_limits_the_table(self, sim_files, tmp_path):
        data_path, schema_path = sim_files
        rc = run([
            "effects", "--data", data_path, "--schema", schema_path,
            "--columns", "x2", "--pfilter", "1", "--out", tmp_path / "eff",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "eff.json").read_text())
        assert [row["name"] for row in payload["effects"]] == ["x2"]

    def test_unknown_column_is_input_error(self, sim_files, tmp_path, capsys):
        data_path, schema_path = sim_files
        rc = run([
            "effects", "--data", data_path, "--schema", schema_path,
            "--columns", "x1,zzz", "--out", tmp_path / "eff",
        ])
        assert rc == 1
        assert "unknown covariate 'zzz'" in capsys.readouterr().err
        assert not (tmp_path / "eff.json").exists()

    @pytest.mark.parametrize("mult", ["nan", "inf", "-inf"])
    def test_non_finite_scale_is_input_error(self, sim_files, tmp_path, capsys, mult):
        data_path, schema_path = sim_files
        rc = run([
            "effects", "--data", data_path, "--schema", schema_path,
            "--scale", f"x1={mult}", "--out", tmp_path / "eff",
        ])
        assert rc == 1
        assert f"--scale multiplier must be finite, got 'x1={mult}'" in capsys.readouterr().err
        assert not (tmp_path / "eff.json").exists()

    @pytest.mark.parametrize("mult", ["0", "-0", "0.0", "0e5"])
    def test_zero_scale_is_input_error(self, sim_files, tmp_path, capsys, mult):
        data_path, schema_path = sim_files
        rc = run([
            "effects", "--data", data_path, "--schema", schema_path,
            "--scale", f"x1={mult}", "--out", tmp_path / "eff",
        ])
        assert rc == 1
        assert f"--scale multiplier must be nonzero, got 'x1={mult}'" in capsys.readouterr().err
        assert not (tmp_path / "eff.json").exists()

    def test_negative_scale_is_allowed(self, sim_files, tmp_path):
        data_path, schema_path = sim_files
        rc = run([
            "effects", "--data", data_path, "--schema", schema_path,
            "--scale", "x1=-2", "--out", tmp_path / "eff",
        ])
        assert rc == 0
        assert "x1 (x-2)" in (tmp_path / "eff.txt").read_text()

    @pytest.mark.parametrize("level", ["nan", "0", "-0.1", "1.5", "inf"])
    def test_pfilter_outside_unit_interval_is_input_error(self, sim_files, tmp_path, capsys,
                                                          level):
        data_path, schema_path = sim_files
        rc = run([
            "effects", "--data", data_path, "--schema", schema_path,
            "--pfilter", level, "--out", tmp_path / "eff",
        ])
        assert rc == 1
        assert "--pfilter must lie in (0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "eff.json").exists()


class TestBayes:
    def test_end_to_end_ordinal(self, sim_files, tmp_path):
        data_path, schema_path = sim_files
        out = tmp_path / "ch"
        rc = run([
            "bayes", "--data", data_path, "--schema", schema_path,
            "--family", "ordinal", "--draws", "400", "--burn", "150",
            "--mh-step", "0.1", "--seed", "3", "--out", out,
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "ch.json").read_text())
        assert payload["draws"] == 400
        assert payload["burn"] == 150
        assert 0.0 <= payload["accept_rate"] <= 1.0
        names = [row["name"] for row in payload["summary"]]
        assert names == ["intercept", "x1", "x2", "delta2"]
        chain_lines = (tmp_path / "ch.csv").read_text().splitlines()
        assert len(chain_lines) == 401  # header + one row per draw

    def test_binary_family_on_ordinal_data_is_input_error(self, sim_files, tmp_path, capsys):
        data_path, schema_path = sim_files
        rc = run([
            "bayes", "--data", data_path, "--schema", schema_path,
            "--family", "binary", "--draws", "200", "--burn", "50",
            "--out", tmp_path / "ch",
        ])
        assert rc == 1

    def test_ordinal_family_on_binary_data_is_input_error(self, tmp_path, capsys):
        sim = tmp_path / "bin.csv"
        assert run(["simulate", "--family", "binary", "--beta", "0.3,0.4",
                    "--n", "200", "--out", sim]) == 0
        rc = run([
            "bayes", "--data", sim, "--schema", tmp_path / "bin.schema",
            "--family", "ordinal", "--draws", "200", "--burn", "50",
            "--out", tmp_path / "ch",
        ])
        assert rc == 1
        assert "gibbs_binary_probit" in capsys.readouterr().err

    def test_logit_link_is_input_error(self, sim_files, tmp_path, capsys):
        data_path, schema_path = sim_files
        rc = run([
            "bayes", "--data", data_path, "--schema", schema_path,
            "--family", "ordinal", "--link", "logit", "--draws", "200", "--burn", "50",
            "--out", tmp_path / "ch",
        ])
        assert rc == 1
        assert "probit-only" in capsys.readouterr().err
        assert not (tmp_path / "ch.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "bayes"])
    def test_empty_design_is_input_error(self, tmp_path, capsys, command):
        data_path, schema_path = tmp_path / "d.csv", tmp_path / "d.schema"
        data_path.write_text("y\n1\n2\n1\n2\n")
        schema_path.write_text("response = y\nlabels = 1, 2\nintercept = false\n")
        chain = ["--draws", "200", "--burn", "50"] if command == "bayes" else []
        rc = run([command, "--data", data_path, "--schema", schema_path, *chain,
                  "--out", tmp_path / "o"])
        assert rc == 1
        assert "need at least one design column" in capsys.readouterr().err

    def test_omitted_family_samples_the_binary_chain_on_two_labels(self, tmp_path):
        sim = tmp_path / "bin.csv"
        assert run(["simulate", "--beta", "0.3,0.4", "--n", "200", "--out", sim]) == 0
        rc = run(["bayes", "--data", sim, "--schema", tmp_path / "bin.schema",
                  "--draws", "200", "--burn", "50", "--out", tmp_path / "ch"])
        assert rc == 0
        assert json.loads((tmp_path / "ch.json").read_text())["accept_rate"] is None

    def test_valid_mh_step_accepted_on_binary_data(self, tmp_path):
        sim = tmp_path / "bin.csv"
        assert run(["simulate", "--beta", "0.3,0.4", "--n", "200", "--out", sim]) == 0
        rc = run(["bayes", "--data", sim, "--schema", tmp_path / "bin.schema",
                  "--draws", "200", "--burn", "50", "--mh-step", "0.3", "--out", tmp_path / "ch"])
        assert rc == 0
        assert json.loads((tmp_path / "ch.json").read_text())["accept_rate"] is None

    def test_nonpositive_mh_step_is_input_error(self, sim_files, tmp_path, capsys):
        data_path, schema_path = sim_files
        rc = run([
            "bayes", "--data", data_path, "--schema", schema_path,
            "--family", "ordinal", "--draws", "200", "--burn", "50",
            "--mh-step", "0", "--out", tmp_path / "ch",
        ])
        assert rc == 1
        assert "mh_step" in capsys.readouterr().err

    def test_overflowing_mh_step_runs_without_a_warning(self, tmp_path, capsys):
        # every proposal overflows and is rejected; filterwarnings = error
        # would turn an overflow warning into a failure
        golden = Path(__file__).parent / "golden"
        rc = run(["bayes", "--data", golden / "ord.csv", "--schema", golden / "ord.schema",
                  "--draws", "300", "--burn", "100", "--mh-step", "1e300",
                  "--out", tmp_path / "ch"])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "ch.json").read_text())["accept_rate"] == 0.0

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_nonfinite_mh_step_is_input_error(self, sim_files, tmp_path, capsys, step):
        data_path, schema_path = sim_files
        rc = run([
            "bayes", "--data", data_path, "--schema", schema_path,
            "--family", "ordinal", "--draws", "200", "--burn", "50",
            f"--mh-step={step}", "--out", tmp_path / "ch",
        ])
        assert rc == 1
        assert f"mh_step must be positive and finite, got {step}" in capsys.readouterr().err
        assert not (tmp_path / "ch.csv").exists()


class TestFailFast:
    """Faults found without the data are reported before it is parsed or
    sampled."""

    @pytest.fixture
    def no_parse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("data.parse_csv was called")

        monkeypatch.setattr(data, "parse_csv", refuse)

    @pytest.mark.parametrize("command", ["fit", "effects", "bayes"])
    def test_missing_schema_reported_before_parsing(self, sim_files, tmp_path, capsys,
                                                    no_parse, command):
        data_path, _ = sim_files
        rc = run([command, "--data", data_path, "--schema", tmp_path / "absent.schema",
                  "--out", tmp_path / "rep"])
        assert rc == 1
        assert "schema file not found" in capsys.readouterr().err

    def test_malformed_schema_reported_before_parsing(self, sim_files, tmp_path, capsys,
                                                      no_parse):
        data_path, _ = sim_files
        schema = tmp_path / "bad.schema"
        schema.write_text("garbage line\n")
        rc = run(["fit", "--data", data_path, "--schema", schema, "--out", tmp_path / "rep"])
        assert rc == 1
        assert "schema line 1: expected 'key = value'" in capsys.readouterr().err
        assert not (tmp_path / "rep.txt").exists()

    @pytest.mark.parametrize("command", ["fit", "effects"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-0.5"])
    def test_bad_tolerance_reported_before_parsing(self, sim_files, tmp_path, capsys,
                                                   no_parse, command, tol):
        data_path, schema_path = sim_files
        rc = run([command, "--data", data_path, "--schema", schema_path,
                  "--tol", tol, "--out", tmp_path / "rep"])
        assert rc == 1
        assert "grad_tol must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "rep.txt").exists()

    @pytest.mark.parametrize("option,name", [
        (["--columns", "x1,x1"], "x1"),
        (["--columns", "x2, x1,x2"], "x2"),
        (["--scale", "x1=10", "--scale", "x1=2"], "x1"),
        (["--scale", "x2=3", "--scale", "x1=1", "--scale", " x2 =3"], "x2"),
    ])
    def test_repeated_effects_name_reported_before_parsing(self, sim_files, tmp_path, capsys,
                                                           no_parse, option, name):
        data_path, schema_path = sim_files
        rc = run(["effects", "--data", data_path, "--schema", schema_path, *option,
                  "--out", tmp_path / "eff"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {option[0]} names {name!r} more than once\n"
        assert not any(tmp_path.glob("eff.*"))

    @pytest.mark.parametrize("option,message", [
        (["--columns", "x,zzz"], "unknown covariate 'zzz'"),
        (["--columns", "intercept"], "the intercept has no covariate effect"),
        (["--scale", "zzz=2"], "--scale names unknown covariates: ['zzz']"),
        (["--columns", "x", "--scale", "d=2"], "--scale names unknown covariates: ['d']"),
        (["--scale", "d=2"], "scale multipliers apply to continuous covariates only, not 'd'"),
    ])
    def test_bad_effects_request_reported_before_fitting(self, tmp_path, capsys, monkeypatch,
                                                         option, message):
        def refuse(*args, **kwargs):
            raise AssertionError("estimation.fit_ml was called")

        rng = np.random.default_rng(8)
        data_path = tmp_path / "d.csv"
        x, d, e = rng.standard_normal((3, 200))
        rows = [f"{1 + (v + u > 0)},{v},{int(w > 0)}" for v, w, u in zip(x, d, e)]
        data_path.write_text("y,x,d\n" + "\n".join(rows) + "\n")
        schema_path = tmp_path / "d.schema"
        schema_path.write_text("response = y\nlabels = 1, 2\n"
                               "covariate.x = continuous\ncovariate.d = continuous\n")
        monkeypatch.setattr(estimation, "fit_ml", refuse)
        rc = run(["effects", "--data", data_path, "--schema", schema_path, *option,
                  "--out", tmp_path / "eff"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.glob("eff.*"))

    @pytest.mark.parametrize("cutpoints", ["", "1.0"])
    @pytest.mark.parametrize("step,shown", [("nan", "nan"), ("-5", "-5.0")])
    def test_bad_mh_step_reported_before_parsing_for_every_J(self, tmp_path, capsys, no_parse,
                                                             cutpoints, step, shown):
        sim = tmp_path / "sim.csv"
        assert run(["simulate", "--beta", "0.3,0.4", "--cutpoints", cutpoints,
                    "--n", "300", "--out", sim]) == 0
        rc = run(["bayes", "--data", sim, "--schema", tmp_path / "sim.schema",
                  f"--mh-step={step}", "--out", tmp_path / "ch"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: mh_step must be positive and finite, got {shown}\n"
        assert not any(tmp_path.glob("ch.*"))

    @pytest.mark.parametrize("draws,burn", [("500", "-1"), ("300", "300")])
    def test_bad_chain_length_reported_before_the_data_is_read(self, tmp_path, capsys, no_parse,
                                                               draws, burn):
        # a missing data file would otherwise be reported first
        rc = run(["bayes", "--data", tmp_path / "absent.csv", "--schema", tmp_path / "absent.schema",
                  "--draws", draws, "--burn", burn, "--out", tmp_path / "ch"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: need S > burn >= 0, got S = {draws}, burn = {burn}\n")
        assert not any(tmp_path.glob("ch.*"))

    @pytest.mark.parametrize("command", ["bayes", "simulate"])
    def test_negative_seed_named_before_anything_is_read(self, sim_files, tmp_path, capsys,
                                                          no_parse, command):
        data_path, schema_path = sim_files
        inputs = (["--data", data_path, "--schema", schema_path] if command == "bayes"
                  else ["--beta", "0.3,0.4"])
        rc = run([command, *inputs, "--seed", "-1", "--out", tmp_path / "o"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: argument --seed: must be a non-negative integer, got -1\n")
        assert not any(tmp_path.glob("o*"))

    def test_iteration_cap_below_one_reported_before_parsing(self, sim_files, tmp_path, capsys,
                                                             no_parse):
        data_path, schema_path = sim_files
        rc = run(["fit", "--data", data_path, "--schema", schema_path,
                  "--max-iter", "0", "--out", tmp_path / "rep"])
        assert rc == 1
        assert "max_iter must be at least 1, got 0" in capsys.readouterr().err

    def test_missing_data_reported_first(self, tmp_path, capsys, no_parse):
        rc = run(["fit", "--data", tmp_path / "absent.csv", "--schema", tmp_path / "absent.schema"])
        assert rc == 1
        assert "data file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("family,cutpoints", [("binary", ""), ("ordinal", "1.0")])
    def test_too_few_kept_draws_refused_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                        family, cutpoints):
        sim = tmp_path / "sim.csv"
        assert run(["simulate", "--family", family, "--beta", "0.3,0.4",
                    "--cutpoints", cutpoints, "--n", "300", "--out", sim]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(bayes, "_gibbs_probit", refuse)
        out = tmp_path / "ch"
        rc = run(["bayes", "--data", sim, "--schema", tmp_path / "sim.schema",
                  "--draws", "150", "--burn", "100", "--out", out])
        assert rc == 1
        assert "need at least 100 post-burn-in draws, have 50" in capsys.readouterr().err
        assert not any(tmp_path.glob("ch.*"))


class TestRefusedByName:
    """Hostile data or schemas exit 1 with one ``error:`` line that names the
    fault, and write nothing."""

    CHAIN = ["--draws", "200", "--burn", "50"]

    @pytest.fixture
    def sim4(self, tmp_path):
        sim = tmp_path / "sim.csv"
        assert run(["simulate", "--beta", "0.3,0.5", "--cutpoints", "0.8,1.6",
                    "--n", "300", "--seed", "3", "--out", sim]) == 0
        return sim, tmp_path / "sim.schema"

    def _refused(self, tmp_path, capsys, argv):
        rc = run([*argv, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert rc == 1
        assert not any(tmp_path.glob("o.*"))
        return err.splitlines()

    @pytest.mark.parametrize("command", ["fit", "bayes"])
    def test_missing_token_that_is_a_label(self, sim4, tmp_path, capsys, command):
        sim, schema = sim4
        assert "labels = 1, 2, 3, 4" in schema.read_text()
        schema.write_text(schema.read_text() + "missing = 1\n")
        chain = self.CHAIN if command == "bayes" else []
        lines = self._refused(tmp_path, capsys,
                              [command, "--data", sim, "--schema", schema, *chain])
        assert lines == ["error: schema line 5: missing token '1' is also a response label"]

    @pytest.mark.parametrize("command", ["fit", "effects", "bayes"])
    def test_column_too_large_to_fit(self, sim4, tmp_path, capsys, recwarn, command):
        sim, schema = sim4
        header, *rows = sim.read_text().splitlines()
        assert header == "y,x1"
        rows[3] = rows[3].split(",")[0] + ",1e308"
        rows[7] = rows[7].split(",")[0] + ",-1e308"
        sim.write_text("\n".join([header, *rows]) + "\n")
        chain = self.CHAIN if command == "bayes" else []
        lines = self._refused(tmp_path, capsys,
                              [command, "--data", sim, "--schema", schema, *chain])
        assert lines == ["error: column 'x1': values too large to fit, "
                         "their sum of squares overflows"]
        assert not recwarn.list

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--beta", "1,x"], "expected a comma-separated list of numbers, got '1,x'"),
        (["effects", "--data", "DATA", "--schema", "SCHEMA", "--scale", "x1"],
         "--scale expects <column>=<multiplier>, got 'x1'"),
        (["effects", "--data", "DATA", "--schema", "SCHEMA", "--scale", "x1=abc"],
         "--scale multiplier must be numeric, got 'x1=abc'"),
        (["fit", "--schema", "SCHEMA"], "data path is required"),
    ])
    def test_malformed_option(self, sim4, tmp_path, capsys, argv, message):
        paths = dict(zip(("DATA", "SCHEMA"), sim4))
        argv = [paths.get(arg, arg) for arg in argv]
        assert self._refused(tmp_path, capsys, argv) == [f"error: {message}"]

    @pytest.mark.parametrize("text, message", [
        ("response = y\nlabels = 1, 2\ncovariate.x1 = categorical:\n",
         "categorical covariate 'x1' needs a base level"),
        ("response =\nlabels = 1, 2\n", "schema must name a response column"),
        ("response = y\nlabels = 1, 2\ncovariate.x1 = continuous\ncovariate.x1 = log\n",
         "covariate 'x1' declared twice"),
        ("response = y\nlabels = 1, 2\nintercept = maybe\n",
         "schema line 3: intercept must be true or false"),
    ])
    def test_malformed_schema(self, sim4, tmp_path, capsys, text, message):
        sim, schema = sim4
        schema.write_text(text)
        lines = self._refused(tmp_path, capsys, ["fit", "--data", sim, "--schema", schema])
        assert lines == [f"error: {message}"]


class TestReproducibility:
    def _pipeline(self, workdir):
        sim = workdir / "sim.csv"
        run([
            "simulate", "--family", "ordinal", "--link", "probit",
            "--beta", "0.5,-1.0,0.25", "--cutpoints", "1.0",
            "--n", "800", "--seed", "21", "--out", sim,
        ])
        run([
            "fit", "--data", sim, "--schema", workdir / "sim.schema",
            "--family", "ordinal", "--out", workdir / "rep",
        ])
        run([
            "effects", "--data", sim, "--schema", workdir / "sim.schema",
            "--family", "ordinal", "--out", workdir / "eff",
        ])
        return [sim, workdir / "sim.schema", workdir / "rep.txt",
                workdir / "rep.json", workdir / "eff.txt", workdir / "eff.json"]

    def test_pipeline_byte_identical_across_runs(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        files_a = self._pipeline(dir_a)
        files_b = self._pipeline(dir_b)
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name


class TestUsageErrors:
    """A usage error exits 1 with one ``error:`` line, like any input error;
    exit 2 stays reserved for a fit that did not converge."""

    def test_unknown_option_is_named(self, capsys):
        assert run(["fit", "--bogus"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --bogus\n"

    def test_list_starting_with_a_minus_needs_the_equals_form(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run(["simulate", "--beta", "-0.5,1", "--out", out]) == 1
        assert "argument --beta: expected one argument" in capsys.readouterr().err
        assert not out.exists()
        assert run(["simulate", "--beta=-0.5,1", "--out", out]) == 0
        assert out.exists()

    def test_missing_beta_is_input_error(self, tmp_path, capsys):
        assert run(["simulate", "--out", tmp_path / "o.csv"]) == 1
        assert "--beta is required for simulate" in capsys.readouterr().err

    def test_missing_subcommand_is_input_error(self, capsys):
        assert run([]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["fit", "effects", "simulate", "bayes"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: discretefit {command}")

    @pytest.mark.parametrize("command, option", [
        ("fit", ["--seed", "3"]),
        ("effects", ["--seed", "3"]),
        ("simulate", ["--data", "x.csv"]),
        ("simulate", ["--schema", "x.schema"]),
    ])
    def test_subcommand_refuses_options_it_does_not_read(self, sim_files, tmp_path, capsys,
                                                         command, option):
        data_path, schema_path = sim_files
        if command == "simulate":
            argv = ["simulate", "--beta", "0.3,0.5", "--out", tmp_path / "o.csv"]
        else:
            argv = [command, "--data", data_path, "--schema", schema_path,
                    "--out", tmp_path / "o"]
        assert run(argv + option) == 1
        err = capsys.readouterr().err
        assert err == f"error: unrecognized arguments: {' '.join(option)}\n"
        assert not any(tmp_path.glob("o.*"))

    def test_entry_point_exits_1_on_a_usage_error(self):
        src = Path(discretefit.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-m", "discretefit.cli", "fit", "--bogus"],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.returncode == 1
        assert done.stderr == "error: unrecognized arguments: --bogus\n"


class TestThreadStableReports:
    """The ``.json`` reports carry every bit of the fit; they must not depend
    on the BLAS thread count. The design is wide enough (k = 19) and the
    file long enough that a BLAS runs the fit's products on two threads."""

    def test_json_reports_identical_at_one_and_two_blas_threads(self, tmp_path):
        betas = "0.3,0.5,-0.4,0.3,-0.2,0.6,0.1,-0.3,0.25,0.4,-0.5,0.2,0.15,-0.1,0.35,-0.45,0.05,0.3,-0.2"
        data_path = tmp_path / "wide.csv"
        assert run(["simulate", "--family", "ordinal", "--link", "logit", "--beta", betas,
                    "--cutpoints", "1.0", "--n", "20011", "--seed", "11", "--out", data_path]) == 0
        src = Path(discretefit.__file__).resolve().parents[1]
        reports = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            for command in ("fit", "effects"):
                out = tmp_path / f"{command}-{threads}"
                subprocess.run([sys.executable, "-m", "discretefit.cli", command,
                                "--data", str(data_path), "--schema", str(tmp_path / "wide.schema"),
                                "--link", "logit", "--out", str(out)],
                               env=env, capture_output=True, timeout=300, check=True)
                reports[command, threads] = Path(f"{out}.json").read_bytes()
        assert reports["fit", "1"] == reports["fit", "2"]
        assert reports["effects", "1"] == reports["effects", "2"]
