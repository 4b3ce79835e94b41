"""Work ledger: machine-independent counts of what ``discretefit fit`` does,
pinned in ``tests/golden/work.txt`` next to the golden reports.

The golden ``bin`` and ``ord`` inputs, and a seeded binary file of
2 * 16,384 + 17 rows (three blocks of the likelihood's rows, two chunks per
pass), are each fitted under both links through ``cli.main``, in-process.
Each fit gives one line with its counts:

- ``iterations``: the Newton iterations of the report;
- ``candidates``: the points the line search tried
  (``estimation._params_at`` calls);
- ``binary``, ``first_stage``, ``derivative``: calls of
  ``likelihood._binary_pass``, ``_loglik_pass`` and ``_derivative_pass``;
- ``log_cdf``: the elements ``Link.log_cdf`` evaluated.

The counting wrappers are monkeypatched here; nothing in ``src/`` counts.
``likelihood._cpu_count`` is pinned to 1, so every pass runs in the calling
thread and the counters need no lock; the counts themselves do not depend
on the CPU count. When a count moves on purpose, regenerate the file::

    PYTHONPATH=src python tests/test_work.py
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from discretefit import Link, estimation
from discretefit import likelihood as lk
from discretefit.cli import main

GOLDEN = Path(__file__).parent / "golden"
LEDGER = GOLDEN / "work.txt"
BIG = ["--family", "binary", "--link", "logit", "--beta", "0.5,-1.0,0.25",
       "--n", str(2 * 16_384 + 17), "--seed", "5"]
COUNTS = ["iterations", "candidates", "binary", "first_stage", "derivative", "log_cdf"]


def _count_calls(mp: pytest.MonkeyPatch, counts: Counter) -> None:
    """Wrap each counted function so that it adds to ``counts``."""
    def counted(owner, name, key, size=lambda args: 1):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += size(args)
            return original(*args, **kwargs)

        mp.setattr(owner, name, wrapper)

    counted(estimation, "_params_at", "candidates")
    counted(lk, "_binary_pass", "binary")
    counted(lk, "_loglik_pass", "first_stage")
    counted(lk, "_derivative_pass", "derivative")
    counted(Link, "log_cdf", "log_cdf", lambda args: int(np.size(args[1])))


def ledger(workdir: Path) -> list[str]:
    """One line of counts per input and link."""
    assert main(["simulate", *BIG, "--out", str(workdir / "big.csv")]) == 0
    inputs = {"bin": GOLDEN / "bin", "ord": GOLDEN / "ord", "big": workdir / "big"}
    lines = []
    for name, stem in inputs.items():
        for link in ("probit", "logit"):
            counts = Counter()
            out = workdir / f"{name}-{link}"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lk, "_cpu_count", lambda: 1)
                _count_calls(mp, counts)
                assert main(["fit", "--data", f"{stem}.csv", "--schema", f"{stem}.schema",
                             "--link", link, "--out", str(out)]) == 0
            counts["iterations"] = json.loads(out.with_suffix(".json").read_text())["iterations"]
            lines.append(f"{name}-{link} fit: "
                         + ", ".join(f"{key} {counts[key]}" for key in COUNTS))
    return lines


def test_work_matches_ledger(tmp_path):
    assert ledger(tmp_path) == LEDGER.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        LEDGER.write_text("\n".join(ledger(Path(tmp))) + "\n", encoding="utf-8")
