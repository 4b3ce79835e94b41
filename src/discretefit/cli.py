"""Command-line front end: fit, effects, simulate and bayes subcommands.

Every run is reproducible: the seed defaults to a fixed constant, numeric
reductions are sequential, and numbers in text reports are rounded to four
decimals while the JSON reports carry full precision.

Exit codes: 0 on success; 1 on usage and input errors (an unknown or
malformed option, bad paths, malformed files, inestimable models), reported
on one ``error: ...`` line; 2 when the optimizer does not converge (the
report is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bayes, data as data_mod, effects as effects_mod, estimation, likelihood
from .data import EncodingError, ParseError, SchemaError
from .estimation import EstimationError, FitOptions

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class InputError(Exception):
    """User-facing configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """A usage error raises InputError, so ``main`` reports it like any other."""

    def error(self, message):
        raise InputError(message)


def _parse_float_list(text: str) -> list[float]:
    if not text.strip():
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _parse_scale(pair: str) -> tuple[str, float]:
    if "=" not in pair:
        raise InputError(f"--scale expects <column>=<multiplier>, got {pair!r}")
    name, mult = pair.split("=", 1)
    try:
        value = float(mult)
    except ValueError:
        raise InputError(f"--scale multiplier must be numeric, got {pair!r}") from None
    if not math.isfinite(value):
        raise InputError(f"--scale multiplier must be finite, got {pair!r}")
    if value == 0.0:
        raise InputError(f"--scale multiplier must be nonzero, got {pair!r}")
    return name.strip(), value


def _parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _require_path(path: Path | None, what: str) -> Path:
    if path is None:
        raise InputError(f"{what} path is required")
    if not path.exists():
        raise InputError(f"{what} file not found: {path}")
    return path


def _load_dataset(args: argparse.Namespace):
    """Check both paths and read the schema before the CSV, so a missing or
    malformed schema fails without parsing the data, and the parse codes
    only the schema's columns."""
    data_path = _require_path(args.data, "data")
    schema = data_mod.SchemaConfig.from_file(_require_path(args.schema, "schema"))
    raw = data_mod.parse_csv(data_path.read_bytes(), schema.columns)
    dataset, report = data_mod.build_dataset(raw, schema)
    return dataset, schema, report


def _model(args: argparse.Namespace):
    """The encoded data and its model; ``ModelSpec`` refuses a ``--family`` that J contradicts."""
    dataset, schema, report = _load_dataset(args)
    spec = likelihood.ModelSpec(
        family=args.family, link=args.link, J=dataset.J,
        k=dataset.X.shape[1], intercept="intercept" in dataset.column_names,
    )
    return dataset, schema, report, spec


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_fit(args: argparse.Namespace) -> int:
    # a bad setting fails before the data is read
    opts = FitOptions(max_iter=args.max_iter, grad_tol=args.tol)
    dataset, schema, report, spec = _model(args)
    fit = estimation.fit_ml(spec, dataset, opts)
    text = estimation.summary_table(fit, dataset.column_names)
    text += (
        f"rows: {report.n_raw} read, {report.n_dropped} dropped for missing values, "
        f"{report.n} used\n"
    )
    Path(f"{args.out}.txt").write_text(text, encoding="utf-8")
    payload = estimation.fit_report_dict(fit, dataset.column_names)
    payload["encoding"] = asdict(report)
    _write_json(Path(f"{args.out}.json"), payload)
    return EXIT_OK if fit.converged else EXIT_NOT_CONVERGED


def cmd_effects(args: argparse.Namespace) -> int:
    if args.pfilter is not None and not 0.0 < args.pfilter <= 1.0:
        raise InputError(f"--pfilter must lie in (0, 1], got {args.pfilter}")
    columns = [c.strip() for c in args.columns.split(",")] if args.columns else []
    for option, names in (("--columns", columns), ("--scale", [n for n, _ in args.scales])):
        repeated = [n for i, n in enumerate(names) if n in names[:i]]
        if repeated:
            raise InputError(f"{option} names {repeated[0]!r} more than once")
    opts = FitOptions(max_iter=args.max_iter, grad_tol=args.tol)
    dataset, schema, report, spec = _model(args)
    column_indices = None
    if columns:
        column_indices = []
        for name in columns:
            if name not in dataset.column_names:
                raise InputError(f"unknown covariate {name!r}")
            column_indices.append(dataset.column_names.index(name))
    # a request the table cannot serve is refused before the fit
    scales = dict(args.scales)
    effects_mod.check_request(spec, dataset, column_indices, scales)
    fit = estimation.fit_ml(spec, dataset, opts)
    table = effects_mod.effects_table(
        fit.spec, fit.params, dataset, columns=column_indices, scales=scales,
    )

    if args.pfilter is not None:
        pvals = {
            row["name"]: row["p"]
            for row in estimation.coefficient_rows(fit, dataset.column_names)
        }
        table.rows = [eff for eff in table.rows if pvals[eff.name] < args.pfilter]

    Path(f"{args.out}.txt").write_text(
        effects_mod.effects_text(table, schema.labels), encoding="utf-8"
    )
    payload = effects_mod.effects_report_dict(table, schema.labels)
    payload["pfilter"] = args.pfilter
    _write_json(Path(f"{args.out}.json"), payload)
    return EXIT_OK if fit.converged else EXIT_NOT_CONVERGED


def cmd_simulate(args: argparse.Namespace) -> int:
    if not args.beta:
        raise InputError("--beta is required for simulate")
    if args.n < 1:
        raise InputError(f"--n must be at least 1, got {args.n}")
    spec = likelihood.ModelSpec(args.family, args.link, J=len(args.cutpoints) + 2,
                                k=len(args.beta))
    rng = np.random.default_rng(args.seed)
    dataset = data_mod.simulate_dataset(spec, args.beta, args.cutpoints, args.n, rng)
    data_mod.dataset_to_csv(args.out, dataset)
    schema_out = args.schema_out or Path(str(args.out).removesuffix(".csv") + ".schema")
    schema_out.write_text(
        data_mod.schema_to_text(data_mod.identity_schema(dataset)), encoding="utf-8"
    )
    return EXIT_OK


def cmd_bayes(args: argparse.Namespace) -> int:
    if args.link != "probit":
        raise InputError(
            f"the Gibbs sampler is probit-only; --link {args.link} is not supported"
        )
    # refuse a chain too short to summarize, or a bad step, before reading the data
    bayes.check_chain_length(args.draws, args.burn)
    bayes.check_summary_draws(args.draws - args.burn)
    bayes.check_mh_step(args.mh_step)
    dataset = _model(args)[0]
    chain = bayes._gibbs_probit(dataset, None, args.draws, args.burn, args.seed, args.mh_step)
    chain.save_csv(Path(f"{args.out}.csv"))
    summary = bayes.posterior_summary(chain)
    Path(f"{args.out}.txt").write_text(bayes.summary_text(chain, summary), encoding="utf-8")
    _write_json(Path(f"{args.out}.json"), {
        "summary": summary,
        "accept_rate": chain.accept_rate,
        "draws": chain.n_draws,
        "burn": chain.burn,
        "seed": chain.seed,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; each subcommand takes only the options it reads."""
    parser = _Parser(
        prog="discretefit",
        description="Binary and ordinal probit/logit regression",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name, run, help_text, out, reads_data=True):
        # no abbreviations: ``simulate --schema`` is refused, not read as --schema-out
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(run=run)
        if reads_data:
            p.add_argument("--data", type=Path, help="CSV data file")
            p.add_argument("--schema", type=Path, help="schema config file")
        p.add_argument("--family", choices=["binary", "ordinal"])
        p.add_argument("--link", choices=["probit", "logit"], default="probit")
        p.add_argument("--out", type=Path, default=Path(out),
                       help="output path (prefix for report files)")
        return p

    p_fit = add_command("fit", cmd_fit, "maximum-likelihood fit with a summary report",
                        "fit_report")
    p_eff = add_command("effects", cmd_effects, "average covariate effects from a fresh fit",
                        "effects_report")
    for p in (p_fit, p_eff):
        p.add_argument("--max-iter", type=int, default=FitOptions.max_iter)
        p.add_argument("--tol", type=float, default=FitOptions.grad_tol)
    p_eff.add_argument("--scale", dest="scales", type=_parse_scale, action="append",
                       default=[], metavar="COL=MULT",
                       help="report a continuous effect per MULT units")
    p_eff.add_argument("--pfilter", type=float,
                       help="only report covariates with p below this level")
    p_eff.add_argument("--columns",
                       help="comma-separated covariates to report (default: all)")

    p_sim = add_command("simulate", cmd_simulate,
                        "write a synthetic dataset and matching schema", "simulated.csv",
                        reads_data=False)
    p_sim.add_argument("--beta", type=_parse_float_list, default=[],
                       help="comma-separated true coefficients (first is the intercept)")
    p_sim.add_argument("--cutpoints", type=_parse_float_list, default=[],
                       help="comma-separated free interior cut-points (empty for binary)")
    p_sim.add_argument("--n", type=int, default=1000)
    p_sim.add_argument("--schema-out", type=Path)

    p_bayes = add_command("bayes", cmd_bayes, "Gibbs sampler for the probit models", "chain")
    p_bayes.add_argument("--draws", type=int, default=bayes.DEFAULT_DRAWS)
    p_bayes.add_argument("--burn", type=int, default=bayes.DEFAULT_BURN)
    p_bayes.add_argument("--mh-step", type=float, default=bayes.DEFAULT_MH_STEP)
    for p in (p_sim, p_bayes):
        p.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (InputError, ParseError, SchemaError, EncodingError, EstimationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
