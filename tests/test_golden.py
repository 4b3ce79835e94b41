"""Golden text reports: the CLI's outputs on small seeded files, byte for byte.

The pipeline simulates a binary and an ordinal file, fits both under each
link, computes their effects, and runs a short probit chain on each (J = 2
and J = 3). It also writes a seeded J = 3 survey whose schema has a
categorical, a ``log`` and a continuous covariate and a ``missing`` token,
and fits it and computes its effects (columns out of order, two scaled)
under each link; that is the byte test of the categorical encoder and of
indicator effects. A copy of the ordinal file whose ``x1`` is renamed to a
32-character name is fitted, its effects computed with that column scaled
and with a ``--pfilter`` that keeps no row, and its chain run: the byte
test of the tables' layout when a name or a scale label is wider than the
12-character name column, and of a header-only table. Every text report,
and each CSV and schema, must equal its copy under ``tests/golden/``. The
``.json`` reports are left out: a chain's last digits depend on the BLAS
thread count at large n (the sampler's ``X.T @ z``), which the rounded
text does not show; the fit and effects reports are thread-stable, which
``tests/test_cli.py`` checks.

To regenerate the golden files (only for a deliberate change of output)::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from discretefit.cli import main

GOLDEN = Path(__file__).parent / "golden"

SIMULATIONS = {
    "bin": ["--family", "binary", "--link", "logit", "--beta", "0.5,-1.0,0.25",
            "--n", "300", "--seed", "3"],
    "ord": ["--link", "probit", "--beta", "0.5,-1.0,0.25", "--cutpoints", "1.0",
            "--n", "300", "--seed", "4"],
}
CHAINS = {"bin": "bayes2", "ord": "bayes3"}
SURVEY = "ind"
SURVEY_SCHEMA = """response = opinion
labels = oppose, medical, legal
missing = refused, dont know
intercept = true
covariate.party = categorical:ind
covariate.age = log
covariate.hours = continuous
"""
WIDE = "support_for_recreational_legal_x"  # 32 characters
WIDE_RUNS = {
    "wide-fit": ["fit"],
    "wide-effects": ["effects", "--scale", f"{WIDE}=10"],
    "wide-pfilter": ["effects", "--pfilter", "1e-300"],
    "wide-bayes": ["bayes", "--draws", "600", "--burn", "100"],
}
SURVEY_EFFECTS = ["--columns", "party=rep,hours,age,party=dem,party=green",
                  "--scale", "hours=10", "--scale", "age=0.1"]


def write_survey(csv_path: Path, schema_path: Path) -> None:
    """A seeded 400-row survey from an ordinal probit model, with a party
    categorical of four levels, a log age, continuous weekly news hours and
    missing tokens in the response and in two covariates."""
    rng = np.random.default_rng(23)
    n = 400
    levels = np.array(["dem", "ind", "rep", "green"], dtype=object)
    party = rng.choice(levels, size=n, p=[0.35, 0.3, 0.3, 0.05])
    age = rng.integers(18, 90, size=n)
    hours = np.round(rng.gamma(2.0, 3.0, size=n), 1)
    effect = {"dem": 0.6, "ind": 0.0, "rep": -0.7, "green": 0.9}
    z = (1.5 + np.array([effect[p] for p in party]) - 0.5 * np.log(age)
         + 0.05 * hours + rng.standard_normal(n))
    labels = np.array(["oppose", "medical", "legal"], dtype=object)
    opinion = labels[np.searchsorted([0.0, 0.8], z)]
    opinion[rng.random(n) < 0.03] = "dont know"
    party[rng.random(n) < 0.04] = "refused"
    age_cells = age.astype(str).astype(object)
    age_cells[rng.random(n) < 0.03] = "refused"
    rows = ["opinion,party,age,hours"] + [
        f"{o},{p},{a},{h}" for o, p, a, h in zip(opinion, party, age_cells, hours)
    ]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    schema_path.write_text(SURVEY_SCHEMA, encoding="utf-8")


def golden_names() -> list[str]:
    names = []
    for data in SIMULATIONS:
        names += [f"{data}.csv", f"{data}.schema"]
        for link in ("probit", "logit"):
            names += [f"{data}-{link}-fit.txt", f"{data}-{link}-effects.txt"]
        names.append(f"{CHAINS[data]}.txt")
    names += [f"{SURVEY}.csv", f"{SURVEY}.schema"]
    for link in ("probit", "logit"):
        names += [f"{SURVEY}-{link}-fit.txt", f"{SURVEY}-{link}-effects.txt"]
    return names + [f"{name}.txt" for name in WIDE_RUNS]


def run_pipeline(workdir: Path) -> None:
    """Write every golden file's counterpart into ``workdir``."""
    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    for data, options in SIMULATIONS.items():
        csv_path, schema_path = workdir / f"{data}.csv", workdir / f"{data}.schema"
        run("simulate", *options, "--out", csv_path)
        files = ["--data", csv_path, "--schema", schema_path]
        for link in ("probit", "logit"):
            for command in ("fit", "effects"):
                run(command, *files, "--link", link, "--out", workdir / f"{data}-{link}-{command}")
        run("bayes", *files, "--draws", "600", "--burn", "100",
            "--out", workdir / CHAINS[data])

    csv_path, schema_path = workdir / f"{SURVEY}.csv", workdir / f"{SURVEY}.schema"
    write_survey(csv_path, schema_path)
    files = ["--data", csv_path, "--schema", schema_path]
    for link in ("probit", "logit"):
        run("fit", *files, "--link", link, "--out", workdir / f"{SURVEY}-{link}-fit")
        run("effects", *files, "--link", link, *SURVEY_EFFECTS,
            "--out", workdir / f"{SURVEY}-{link}-effects")

    csv_path, schema_path = workdir / "wide.csv", workdir / "wide.schema"
    csv_path.write_text((workdir / "ord.csv").read_text(encoding="utf-8")
                        .replace("x1", WIDE, 1), encoding="utf-8")
    schema_path.write_text((workdir / "ord.schema").read_text(encoding="utf-8")
                           .replace("x1", WIDE), encoding="utf-8")
    files = ["--data", csv_path, "--schema", schema_path]
    for name, (command, *options) in WIDE_RUNS.items():
        run(command, *files, *options, "--out", workdir / name)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    run_pipeline(workdir)
    return workdir


@pytest.mark.parametrize("name", golden_names())
def test_output_matches_golden_file(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for name in golden_names():
            shutil.copyfile(Path(tmp) / name, GOLDEN / name)
