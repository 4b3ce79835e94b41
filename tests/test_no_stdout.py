"""The package writes its reports to files and its errors to stderr; no
module prints to stdout."""

import ast
from pathlib import Path

import discretefit

PACKAGE = Path(discretefit.__file__).resolve().parent


def _writes_to_stderr(call: ast.Call) -> bool:
    return any(
        kw.arg == "file"
        and isinstance(kw.value, ast.Attribute)
        and kw.value.attr == "stderr"
        and isinstance(kw.value.value, ast.Name)
        and kw.value.value.id == "sys"
        for kw in call.keywords
    )


def test_every_print_writes_to_stderr():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print" and not _writes_to_stderr(node)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
