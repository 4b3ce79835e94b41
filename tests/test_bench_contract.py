"""The package names that bench/tracing.py wraps must exist and be used.

The tracer looks every target up when it installs, so renaming or deleting
one of them would crash each traced benchmark run. This test fails first.
It loads the tracing module by file path and never installs the tracer.
A target that exists but is no longer called would make its traced layer
read 0 without an error, so the CLI's calls are pinned too. Every
``df.<name>`` that a bench module reads from the package must exist as well.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import discretefit
from discretefit import cli, data

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_the_package():
    targets = _load_tracing().TARGETS
    assert targets
    missing = []
    for _, module_name, attr in targets:
        module = importlib.import_module(module_name)
        if "." in attr:  # a method, looked up in its class's own namespace
            owner_name, method = attr.split(".")
            found = method in vars(getattr(module, owner_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_every_package_name_the_bench_reads_exists():
    # bench/ imports the package as ``df`` (and ``discretefit.cli``, which
    # this module imports too); a name trimmed from ``__init__`` would break
    # the workloads and bench/test_bench.py while the rest of tier-1 passes
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        names.update(re.findall(r"\bdf\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert {"loglik", "grad_loglik", "fit_intercept_only", "ParamVector"} <= names
    assert sorted(name for name in names if not hasattr(discretefit, name)) == []


def test_cli_fit_reads_through_the_traced_data_functions(tmp_path, monkeypatch):
    calls = []
    for name in ("parse_csv", "build_dataset"):
        original = getattr(data, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(data, name, counted)
    csv_path, schema_path = tmp_path / "d.csv", tmp_path / "d.schema"
    csv_path.write_text("y,x\n" + "".join(f"{1 + (i * 7) % 3},{i % 5}\n" for i in range(30)))
    schema_path.write_text("response = y\nlabels = 1, 2, 3\ncovariate.x = continuous\n")
    code = cli.main(["fit", "--data", str(csv_path), "--schema", str(schema_path),
                     "--out", str(tmp_path / "rep")])
    assert code == 0
    assert calls == ["parse_csv", "build_dataset"]
