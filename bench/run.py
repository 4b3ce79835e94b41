"""Run one workload of the discretefit benchmark and print its metrics.

    python3 bench/run.py --workload {ml-large-n,gibbs-probit,cli-survey}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, and everything written goes to
``bench/out/``. The inputs depend on ``--seed`` alone. Whole rounds of the
workload's operations run until about ``--seconds`` have passed. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of a traced run, whose spans go to
``bench/out/trace-<workload>-<seed>.json``).
"""

import os

# One BLAS thread: OpenBLAS otherwise starts one per core, and its threads
# compete with the benchmark for the same cores. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ml-large-n", "gibbs-probit", "cli-survey"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_rounds(workload, ledger, seconds, modes, on_round=None):
    """Whole rounds until the next one would end past ``seconds``.

    Each round first builds the inputs afresh ``SETUP_REPEATS`` times, so
    set-up is timed across the whole run like the operations are. ``modes``
    gives each round's mode cyclically (a traced run alternates untraced and
    traced rounds); every mode runs at least once. Returns the set-up times
    and the wall time of each round's operations with its mode.
    """
    start = time.perf_counter()
    setups, walls = [], []
    index = 0
    while True:
        for _ in range(workload.SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(index)
            setups.append(time.perf_counter() - t0)
        mode = modes[index % len(modes)]
        if on_round:
            on_round(mode)
        t0 = time.perf_counter()
        workload.run_round(index, ledger, in_process=mode != "plain")
        walls.append((mode, time.perf_counter() - t0))
        index += 1
        elapsed = time.perf_counter() - start
        if index >= len(modes) and elapsed * (index + 1) / index > seconds:
            return setups, walls


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "discretefit" / "__init__.py").is_file():
        print(f"error: no discretefit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ledger = workloads.Ledger()
        if args.trace:
            metrics = traced_run(workload, ledger, args)
            # a layer this workload leaves idle reads 0
            metrics = {name: metrics.get(name, (0.0, unit))
                       for name, unit in workloads.PER_LAYER.items()}
        else:
            setups, _ = run_rounds(workload, ledger, args.seconds, ["plain"])
            metrics = workload.end_to_end()
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in ledger.errors + ledger.problems:
        print(line, file=sys.stderr)
    missing = [] if args.trace else sorted(set(workloads.END_TO_END) - set(metrics))
    if missing:
        print(f"error: no value for {missing}; every operation failed", file=sys.stderr)
        return 1
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def traced_run(workload, ledger, args) -> dict:
    """Alternates untraced and traced rounds; per-layer metrics come from
    the traced rounds' spans, tracing overhead from the difference of the
    two kinds' median round times. The CLI runs in-process in both."""
    import tracing

    tracer = tracing.Tracer()

    def switch(mode):
        tracer.uninstall()
        if mode == "traced":
            tracer.install()

    try:
        _, walls = run_rounds(workload, ledger, args.seconds, ["untraced", "traced"], switch)
    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    metrics = workload.per_layer(tracing.SpanIndex(tracer.spans))
    median = {mode: statistics.median(w for m, w in walls if m == mode)
              for mode in ("untraced", "traced")}
    metrics["trace.overhead_s"] = (median["traced"] - median["untraced"], "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
