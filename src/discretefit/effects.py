"""Covariate effects on category probabilities, plus odds helpers.

For a continuous covariate the effect on P(y = j) is the analytic derivative
-b_l [f(gamma_j - x'b) - f(gamma_{j-1} - x'b)]; for a 0/1 indicator it is the
difference of the full probability vectors with the column forced to 1 versus
0. Reported effects are averages over the sample (not effects at the mean).
Within every observation the effects across categories sum to zero because
the probabilities sum to one before and after the perturbation.

``effects_table`` is the one entry point: a column of 0/1 values gets the
indicator effect and any other column the derivative; the effect of one
column is a table of that column. A table goes through the rows in the
likelihood's row runs, one per CPU, one chunk of rows at a time, and does
the work that its columns share once per chunk: the density differences
f(gamma_j - x'b) - f(gamma_{j-1} - x'b) that every continuous effect
scales, from the category routine behind ``predict_prob`` applied to the
density, and the base probabilities P(x) at the observed design. An
indicator then costs one more ``predict_prob`` call, on one working copy
of the chunk's rows of X with its column flipped to 1 - x_m and restored
afterwards. Each row of that copy is the observed row with x_m switched to
the value it does not hold, so the effect is P(x) - P(flipped) where
x_m = 1 and P(flipped) - P(x) where x_m = 0: bit for bit the two-copy
P(X with x_m = 1) - P(X with x_m = 0), because the matrix product computes
every row on its own and a chunk starts on a block boundary. Shifting x'b
by +-b_m instead would save the products but move the last bits. Each chunk
writes its rows of every column's per-observation effects, and each average
is the mean of that whole array once every run is done, so every bit is the
same at any CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _text_table
from .estimation import _category_differences, predict_prob
from .likelihood import ModelSpec, ParamVector, _check_dimensions, _check_params, _row_runs
from .distributions import Link


class ColumnKindError(ValueError):
    """The column has no effect of that kind: the intercept, or a scaled indicator."""


class UnsupportedLinkError(ValueError):
    """The quantity is only defined for a specific link."""


KIND_CONTINUOUS = "continuous"
KIND_INDICATOR = "indicator"


@dataclass
class CovariateEffect:
    """Per-observation and sample-average effects of one covariate."""

    name: str
    kind: str
    per_obs: np.ndarray        # (n, J)
    average: np.ndarray        # (J,)
    scale: float = 1.0

    @property
    def scaled_average(self) -> np.ndarray:
        return self.scale * self.average


@dataclass
class EffectsTable:
    rows: list[CovariateEffect] = field(default_factory=list)
    J: int = 2


def _is_indicator(column: np.ndarray) -> bool:
    return bool(np.all((column == 0.0) | (column == 1.0)))


def _effect_column(spec: ModelSpec, idx: int) -> int:
    """``idx``, after checking that design column ``idx`` has an effect."""
    if spec.intercept and idx == 0:
        raise ColumnKindError("the intercept has no covariate effect")
    if not 0 <= idx < spec.k:
        raise ValueError(f"column index {idx} out of range")
    return idx


def check_request(spec: ModelSpec, data: Dataset, columns: list[int] | None = None,
                  scales: dict[str, float] | None = None) -> list[int]:
    """The design columns an effects table reports (default: all but the
    intercept), after refusing what it cannot report: the intercept, a
    column out of range, a scale on an indicator and a scale on a column
    not reported. Needs only the design, not the fit, and reads a column's
    values only when a scale other than 1 applies to it; the table
    classifies each column it reports.
    """
    scales = scales or {}
    if columns is None:
        columns = list(range(1 if spec.intercept else 0, spec.k))
    for idx in columns:
        name = data.column_names[_effect_column(spec, idx)]
        if float(scales.get(name, 1.0)) != 1.0 and _is_indicator(data.X[:, idx]):
            raise ColumnKindError(
                f"scale multipliers apply to continuous covariates only, not {name!r}"
            )
    unknown_scales = set(scales) - {data.column_names[idx] for idx in columns}
    if unknown_scales:
        raise ValueError(f"--scale names unknown covariates: {sorted(unknown_scales)}")
    return columns


def effects_table(spec: ModelSpec, params: ParamVector, data: Dataset,
                  columns: list[int] | None = None,
                  scales: dict[str, float] | None = None) -> EffectsTable:
    """Average effects for the requested columns (default: all but intercept),
    as ``check_request`` admits them; a column of 0/1 values is an indicator.

    Raises ValueError, with the likelihood's messages, for parameters that
    do not fit ``spec`` ("beta has shape (3,), expected (2,)"), data of
    another J ("data has J = 3 categories but spec declares J = 4") or a
    design whose width is not k ("design has 3 columns but spec declares
    k = 2"), then what ``check_request`` refuses.
    """
    _check_dimensions(spec, params, data.X, data.J)
    scales = scales or {}
    columns = check_request(spec, data, columns, scales)
    X, beta = data.X, params.beta
    kinds = [KIND_INDICATOR if _is_indicator(X[:, idx]) else KIND_CONTINUOUS for idx in columns]
    per_obs = [np.empty((data.n, spec.J)) for _ in columns]
    gamma = params.cutpoints()

    def run(chunks):
        for rows in chunks:
            if KIND_CONTINUOUS in kinds:
                dens_diff = np.stack(list(_category_differences(
                    spec.link.pdf, gamma, X[rows] @ beta, 0.0)), axis=1)
            if KIND_INDICATOR in kinds:
                work = X[rows].copy()  # C order, whatever X's; each indicator flips a column
                base = predict_prob(spec, params, work)
            for idx, kind, out in zip(columns, kinds, per_obs):
                if kind == KIND_CONTINUOUS:
                    out[rows] = -beta[idx] * dens_diff
                else:
                    column = X[rows, idx]
                    work[:, idx] = 1.0 - column
                    other = predict_prob(spec, params, work)
                    work[:, idx] = column
                    out[rows] = np.where((column == 1.0)[:, None], base - other, other - base)

    _row_runs(data.n, run)
    effects = []
    for idx, kind, out in zip(columns, kinds, per_obs):
        name = data.column_names[idx]
        effects.append(CovariateEffect(name=name, kind=kind, per_obs=out,
                                       average=out.mean(axis=0),
                                       scale=float(scales.get(name, 1.0))))
    return EffectsTable(rows=effects, J=spec.J)


def odds_ratio_logit(spec: ModelSpec, params: ParamVector, m: int) -> float:
    """exp(beta_m), logit only: the factor by which a unit step in x_m
    multiplies the odds of y > j, the same for every j (proportional odds).
    At J = 2 it is the odds ratio of y = 2.

    Refuses another link (UnsupportedLinkError), parameters that do not
    fit ``spec`` (ValueError, "beta has shape (3,), expected (2,)"), the
    intercept (ColumnKindError: exp(beta_0) is the baseline odds, not an
    odds ratio) and an index outside 0..k-1 ("column index 2 out of range").
    """
    if spec.link is not Link.LOGIT:
        raise UnsupportedLinkError("odds ratios are a logit-link construct")
    _check_params(spec, params)
    return float(np.exp(params.beta[_effect_column(spec, m)]))


def cumulative_odds(spec: ModelSpec, params: ParamVector, x: np.ndarray, j: int) -> float:
    """Odds of y <= j at covariate vector x: exp(gamma_j - x'beta), logit only.

    The ratio of these odds between two covariate vectors does not depend on
    j: between x and x + e_m it is exp(beta_m), the proportional-odds model.
    At J = 2 the odds at j = 1 are P(y = 1) / P(y = 2).
    Refuses another link (UnsupportedLinkError), and raises ValueError for
    parameters that do not fit ``spec`` ("delta has length 1, expected
    J - 2 = 2"), an ``x`` whose length is not k ("design has 3 columns but
    spec declares k = 2") and a j outside 1..J-1.
    """
    if spec.link is not Link.LOGIT:
        raise UnsupportedLinkError("cumulative odds are a logit-link construct")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_dimensions(spec, params, x)
    if not 1 <= j <= spec.J - 1:
        raise ValueError(f"category {j} must lie in 1..J-1 = {spec.J - 1} (odds at J are not defined)")
    gamma = params.cutpoints()
    return float(np.exp(gamma[j] - x @ params.beta))


def effects_text(table: EffectsTable, category_labels: list[str] | None = None) -> str:
    """Aligned plain-text effects table (4-decimal rounding)."""
    labels = category_labels or [f"P(y={j})" for j in range(1, table.J + 1)]
    rows = [(eff.name if eff.scale == 1.0 else f"{eff.name} (x{eff.scale:g})", eff.scaled_average)
            for eff in table.rows]
    return "\n".join(_text_table([(f"dP({lab})", 14) for lab in labels], rows)) + "\n"


def effects_report_dict(table: EffectsTable, category_labels: list[str] | None = None) -> dict:
    labels = category_labels or [f"P(y={j})" for j in range(1, table.J + 1)]
    return {
        "categories": labels,
        "effects": [
            {
                "name": eff.name,
                "kind": eff.kind,
                "scale": eff.scale,
                "average": [float(v) for v in eff.average],
                "scaled_average": [float(v) for v in eff.scaled_average],
            }
            for eff in table.rows
        ],
    }
