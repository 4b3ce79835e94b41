"""The package names that bench/tracing.py wraps must exist.

The tracer looks every target up when it installs, so renaming or deleting
one of them would crash each traced benchmark run. This test fails first.
It loads the tracing module by file path and never installs the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
