"""Golden text reports: the CLI's outputs on small seeded files, byte for byte.

The pipeline simulates a binary and an ordinal file, fits both under each
link, computes their effects, and runs a short probit chain on each (J = 2
and J = 3). Every text report, and the simulated CSV and schema, must equal
its copy under ``tests/golden/``. The ``.json`` reports are left out: a
chain's last digits depend on the BLAS thread count at large n (the
sampler's ``X.T @ z``), which the rounded text does not show; the fit and
effects reports are thread-stable, which ``tests/test_cli.py`` checks.

To regenerate the golden files (only for a deliberate change of output)::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

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


def golden_names() -> list[str]:
    names = []
    for data in SIMULATIONS:
        names += [f"{data}.csv", f"{data}.schema"]
        for link in ("probit", "logit"):
            names += [f"{data}-{link}-fit.txt", f"{data}-{link}-effects.txt"]
        names.append(f"{CHAINS[data]}.txt")
    return names


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
