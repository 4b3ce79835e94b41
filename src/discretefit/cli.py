"""Command-line front end: fit, effects, simulate and bayes subcommands.

Every run is reproducible: the seed defaults to a fixed constant, numeric
reductions are sequential, and numbers in text reports are rounded to four
decimals while the JSON reports carry full precision.

Exit codes: 0 on success, 1 on input errors (bad paths, malformed files,
inestimable models), 2 when the optimizer does not converge (the report is
still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
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


@dataclass
class RunConfig:
    subcommand: str
    data_path: Path | None = None
    schema_path: Path | None = None
    family: str | None = None
    link: str = "probit"
    out: Path | None = None
    seed: int = DEFAULT_SEED
    max_iter: int = FitOptions.max_iter
    tol: float = FitOptions.grad_tol
    scales: dict[str, float] = field(default_factory=dict)
    pfilter: float | None = None
    columns: list[str] | None = None
    draws: int = bayes.DEFAULT_DRAWS
    burn: int = bayes.DEFAULT_BURN
    mh_step: float = bayes.DEFAULT_MH_STEP
    beta: list[float] = field(default_factory=list)
    cutpoints: list[float] = field(default_factory=list)
    n: int = 1000
    schema_out: Path | None = None

    def family_for(self, J: int) -> str:
        """The ``--family`` given, or the one J implies when it is omitted."""
        return self.family or ("binary" if J == 2 else "ordinal")


def _parse_float_list(text: str) -> list[float]:
    if not text.strip():
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _parse_scales(pairs: list[str]) -> dict[str, float]:
    scales = {}
    for pair in pairs:
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
        scales[name.strip()] = value
    return scales


def _require_path(path: Path | None, what: str) -> Path:
    if path is None:
        raise InputError(f"{what} path is required")
    if not path.exists():
        raise InputError(f"{what} file not found: {path}")
    return path


def _load_dataset(config: RunConfig):
    """Check both paths and read the schema before the CSV, so a missing or
    malformed schema fails without parsing the data."""
    data_path = _require_path(config.data_path, "data")
    schema = data_mod.SchemaConfig.from_file(_require_path(config.schema_path, "schema"))
    raw = data_mod.parse_csv(data_path.read_bytes())
    dataset, report = data_mod.build_dataset(raw, schema)
    return dataset, schema, report


def _fit(config: RunConfig):
    # a bad setting fails before the data is read
    opts = FitOptions(max_iter=config.max_iter, grad_tol=config.tol)
    dataset, schema, report = _load_dataset(config)
    spec = likelihood.ModelSpec(
        family=config.family_for(dataset.J), link=config.link, J=dataset.J,
        k=dataset.X.shape[1], intercept="intercept" in dataset.column_names,
    )
    fit = estimation.fit_ml(spec, dataset, opts)
    return dataset, schema, report, fit


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_fit(config: RunConfig) -> int:
    dataset, schema, report, fit = _fit(config)
    out = config.out or Path("fit_report")
    text = estimation.summary_table(fit, dataset.column_names)
    text += (
        f"rows: {report.n_raw} read, {report.n_dropped} dropped for missing values, "
        f"{report.n} used\n"
    )
    Path(f"{out}.txt").write_text(text, encoding="utf-8")
    payload = estimation.fit_report_dict(fit, dataset.column_names)
    payload["encoding"] = {
        "n_raw": report.n_raw,
        "n_dropped": report.n_dropped,
        "n": report.n,
        "warnings": report.warnings,
    }
    _write_json(Path(f"{out}.json"), payload)
    return EXIT_OK if fit.converged else EXIT_NOT_CONVERGED


def cmd_effects(config: RunConfig) -> int:
    if config.pfilter is not None and not 0.0 < config.pfilter <= 1.0:
        raise InputError(f"--pfilter must lie in (0, 1], got {config.pfilter}")
    dataset, schema, report, fit = _fit(config)
    column_indices = None
    if config.columns:
        column_indices = []
        for name in config.columns:
            if name not in dataset.column_names:
                raise InputError(f"unknown covariate {name!r}")
            if name == "intercept":
                raise InputError("the intercept has no covariate effect")
            column_indices.append(dataset.column_names.index(name))
    try:
        table = effects_mod.effects_table(
            fit.spec, fit.params, dataset, columns=column_indices, scales=config.scales,
        )
    except effects_mod.ColumnKindError as exc:
        raise InputError(str(exc)) from None
    unknown_scales = set(config.scales) - {eff.name for eff in table.rows}
    if unknown_scales:
        raise InputError(f"--scale names unknown covariates: {sorted(unknown_scales)}")

    if config.pfilter is not None:
        pvals = {
            row["name"]: row["p"]
            for row in estimation.coefficient_rows(fit, dataset.column_names)
        }
        table.rows = [eff for eff in table.rows if pvals[eff.name] < config.pfilter]

    out = config.out or Path("effects_report")
    Path(f"{out}.txt").write_text(
        effects_mod.effects_text(table, schema.labels), encoding="utf-8"
    )
    payload = effects_mod.effects_report_dict(table, schema.labels)
    payload["pfilter"] = config.pfilter
    _write_json(Path(f"{out}.json"), payload)
    return EXIT_OK if fit.converged else EXIT_NOT_CONVERGED


def cmd_simulate(config: RunConfig) -> int:
    if not config.beta:
        raise InputError("--beta is required for simulate")
    if config.n < 1:
        raise InputError(f"--n must be at least 1, got {config.n}")
    J = len(config.cutpoints) + 2
    family = config.family_for(J)
    if family == "ordinal" and J == 2:
        raise InputError("ordinal simulation needs at least one --cutpoints value")
    if family == "binary" and J != 2:
        raise InputError("binary simulation takes no --cutpoints")
    spec = likelihood.ModelSpec(
        family=family, link=config.link, J=J, k=len(config.beta), intercept=True,
    )
    rng = np.random.default_rng(config.seed)
    try:
        dataset = data_mod.simulate_dataset(spec, config.beta, config.cutpoints, config.n, rng)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    out = config.out or Path("simulated.csv")
    data_mod.dataset_to_csv(out, dataset)
    schema_out = config.schema_out or Path(str(out).removesuffix(".csv") + ".schema")
    schema_out.write_text(
        data_mod.schema_to_text(data_mod.identity_schema(dataset)), encoding="utf-8"
    )
    return EXIT_OK


def cmd_bayes(config: RunConfig) -> int:
    if config.link != "probit":
        raise InputError(
            f"the Gibbs sampler is probit-only; --link {config.link} is not supported"
        )
    # refuse a chain too short to summarize before sampling it
    bayes.check_summary_draws(max(config.draws - config.burn, 0))
    dataset, schema, report = _load_dataset(config)
    out = config.out or Path("chain")
    sample = (bayes.gibbs_binary_probit if config.family_for(dataset.J) == "binary"
              else partial(bayes.gibbs_ordinal_probit, mh_step=config.mh_step))
    chain = sample(dataset, S=config.draws, burn=config.burn, rng=config.seed)
    chain.save_csv(Path(f"{out}.csv"))
    summary = bayes.posterior_summary(chain)
    Path(f"{out}.txt").write_text(bayes.summary_text(chain), encoding="utf-8")
    _write_json(Path(f"{out}.json"), {
        "summary": summary,
        "accept_rate": chain.accept_rate,
        "draws": chain.n_draws,
        "burn": chain.burn,
        "seed": chain.seed,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; an option left out keeps its ``RunConfig`` default."""
    parser = argparse.ArgumentParser(
        prog="discretefit",
        description="Binary and ordinal probit/logit regression",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name, help_text):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--data", dest="data_path", metavar="DATA", type=Path,
                       help="CSV data file")
        p.add_argument("--schema", dest="schema_path", metavar="SCHEMA", type=Path,
                       help="schema config file")
        p.add_argument("--family", choices=["binary", "ordinal"])
        p.add_argument("--link", choices=["probit", "logit"])
        p.add_argument("--out", type=Path, help="output path (prefix for report files)")
        p.add_argument("--seed", type=int)
        return p

    p_fit = add_command("fit", "maximum-likelihood fit with a summary report")
    p_eff = add_command("effects", "average covariate effects from a fresh fit")
    for p in (p_fit, p_eff):
        p.add_argument("--max-iter", type=int)
        p.add_argument("--tol", type=float)
    p_eff.add_argument("--scale", dest="scales", action="append", metavar="COL=MULT",
                       help="report a continuous effect per MULT units")
    p_eff.add_argument("--pfilter", type=float,
                       help="only report covariates with p below this level")
    p_eff.add_argument("--columns", type=str,
                       help="comma-separated covariates to report (default: all)")

    p_sim = add_command("simulate", "write a synthetic dataset and matching schema")
    p_sim.add_argument("--beta", type=str, required=True,
                       help="comma-separated true coefficients (first is the intercept)")
    p_sim.add_argument("--cutpoints", type=str,
                       help="comma-separated free interior cut-points (empty for binary)")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--schema-out", type=Path)

    p_bayes = add_command("bayes", "Gibbs sampler for the probit models")
    p_bayes.add_argument("--draws", type=int)
    p_bayes.add_argument("--burn", type=int)
    p_bayes.add_argument("--mh-step", type=float)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    if "scales" in values:
        values["scales"] = _parse_scales(values["scales"])
    if "columns" in values:
        columns = values["columns"]
        values["columns"] = [c.strip() for c in columns.split(",")] if columns else None
    for key in ("beta", "cutpoints"):
        if key in values:
            values[key] = _parse_float_list(values[key])
    return RunConfig(**values)


_COMMANDS = {
    "fit": cmd_fit,
    "effects": cmd_effects,
    "simulate": cmd_simulate,
    "bayes": cmd_bayes,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return _COMMANDS[args.subcommand](config)
    except (InputError, ParseError, SchemaError, EncodingError, EstimationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
