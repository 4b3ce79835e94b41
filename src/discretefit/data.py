"""Survey-style data ingestion and synthetic data generation.

CSV input is parsed RFC-4180 style (header row required, quoted fields may
contain commas and newlines). A schema config then drives the encoding:

* rows carrying a missing-value token in the response or any used covariate
  are dropped (listwise deletion; the count is reported),
* ``log`` covariates are natural-log transformed,
* ``categorical`` covariates expand to one 0/1 indicator per non-base level,
  columns named ``<col>=<level>``,
* response labels map to 1..J in the order the schema lists them; category
  order is semantic and never inferred from the data,
* the first fault is reported: an unknown column, then a missing base level,
  then an unknown response label, then the covariates in declaration order;
  within a column, the first kept row whose cell is unparseable, non-finite
  or, for ``log``, not positive.

Schema files are flat ``key = value`` text with ``#`` comments::

    response = opinion
    labels = oppose, medicinal, personal
    missing = don't know, refused
    intercept = true
    covariate.age = log
    covariate.household = continuous
    covariate.party = categorical:republican

List values are comma separated and whitespace-trimmed; labels containing a
comma are not supported. Covariates enter the design matrix in declaration
order, after the intercept column when one is requested.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ParseError(Exception):
    """Malformed CSV input."""


class SchemaError(Exception):
    """Invalid schema config or schema/data mismatch."""


class EncodingError(Exception):
    """A cell that cannot be encoded under the schema."""


KIND_CONTINUOUS = "continuous"
KIND_LOG = "log"
KIND_CATEGORICAL = "categorical"


@dataclass
class RawTable:
    """Rectangular grid of text cells with a header."""

    columns: list[str]
    rows: list[list[str]]

    @property
    def n_raw(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise SchemaError(f"column {name!r} not present in the data") from None


@dataclass
class Covariate:
    name: str
    kind: str
    base: str | None = None

    def __post_init__(self):
        if self.kind not in (KIND_CONTINUOUS, KIND_LOG, KIND_CATEGORICAL):
            raise SchemaError(f"unknown covariate kind {self.kind!r} for {self.name!r}")
        if self.kind == KIND_CATEGORICAL and not self.base:
            raise SchemaError(f"categorical covariate {self.name!r} needs a base level")


@dataclass
class SchemaConfig:
    """Encoding directives for one dataset."""

    response: str
    labels: list[str]
    missing: list[str] = field(default_factory=list)
    covariates: list[Covariate] = field(default_factory=list)
    intercept: bool = True

    def __post_init__(self):
        if not self.response:
            raise SchemaError("schema must name a response column")
        if len(self.labels) < 2:
            raise SchemaError("need at least two response labels")
        if len(set(self.labels)) != len(self.labels):
            raise SchemaError("response labels must be distinct")
        seen = set()
        for cov in self.covariates:
            if cov.name in seen:
                raise SchemaError(f"covariate {cov.name!r} declared twice")
            seen.add(cov.name)

    @property
    def J(self) -> int:
        return len(self.labels)

    @classmethod
    def from_text(cls, text: str) -> "SchemaConfig":
        response = None
        labels: list[str] = []
        missing: list[str] = []
        covariates: list[Covariate] = []
        intercept = True
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"schema line {lineno}: expected 'key = value', got {raw_line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "response":
                response = value
            elif key == "labels":
                labels = [tok.strip() for tok in value.split(",") if tok.strip()]
            elif key == "missing":
                missing = [tok.strip() for tok in value.split(",") if tok.strip()]
            elif key == "intercept":
                if value.lower() not in ("true", "false"):
                    raise SchemaError(f"schema line {lineno}: intercept must be true or false")
                intercept = value.lower() == "true"
            elif key.startswith("covariate."):
                name = key[len("covariate."):].strip()
                if value.startswith(f"{KIND_CATEGORICAL}:"):
                    base = value[len(KIND_CATEGORICAL) + 1:].strip()
                    covariates.append(Covariate(name, KIND_CATEGORICAL, base))
                elif value in (KIND_CONTINUOUS, KIND_LOG):
                    covariates.append(Covariate(name, value))
                else:
                    raise SchemaError(
                        f"schema line {lineno}: covariate directive must be "
                        f"continuous, log or categorical:<base>, got {value!r}"
                    )
            else:
                raise SchemaError(f"schema line {lineno}: unknown key {key!r}")
        if response is None:
            raise SchemaError("schema is missing the 'response' key")
        if not labels:
            raise SchemaError("schema is missing the 'labels' key")
        return cls(response=response, labels=labels, missing=missing,
                   covariates=covariates, intercept=intercept)

    @classmethod
    def from_file(cls, path) -> "SchemaConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


@dataclass
class Dataset:
    """Encoded response vector and design matrix."""

    y: np.ndarray
    X: np.ndarray
    column_names: list[str]
    J: int

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=int)
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be two-dimensional")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y and X must have the same number of rows")
        if len(self.column_names) != self.X.shape[1]:
            raise ValueError("one name per design column required")
        if self.y.size and (self.y.min() < 1 or self.y.max() > self.J):
            raise ValueError(f"response codes must lie in 1..{self.J}")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("design matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.y.size


@dataclass
class EncodingReport:
    n_raw: int
    n_dropped: int
    n: int
    warnings: list[str] = field(default_factory=list)


def parse_csv(data) -> RawTable:
    """Parse CSV bytes/text into a RawTable. First record is the header."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    else:
        text = str(data)
    reader = csv.reader(io.StringIO(text))
    records = [row for row in reader if row]
    if not records:
        raise ParseError("empty input: no header row")
    header, rows = records[0], records[1:]
    width = len(header)
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(f"row {i}: expected {width} fields, got {len(row)}")
    return RawTable(columns=header, rows=rows)


def read_csv(path) -> RawTable:
    return parse_csv(Path(path).read_bytes())


def _number(cell: str) -> float | None:
    """``float(cell)``, or None when the cell does not parse as a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def build_dataset(raw: RawTable, schema: SchemaConfig) -> tuple[Dataset, EncodingReport]:
    """Encode a RawTable under a schema; rows with missing tokens are dropped.

    Each used column is read once. Categorical levels are taken from the raw
    column before any rows are dropped; a level whose every carrier row gets
    dropped still produces its (all-zero) indicator column, with a warning in
    the report.
    """
    missing = {tok.strip() for tok in schema.missing}
    used = [schema.response] + [cov.name for cov in schema.covariates]
    indices = [raw.column_index(name) for name in used]
    label_code = {label: j for j, label in enumerate(schema.labels, start=1)}
    cells = [np.array([row[i].strip() for row in raw.rows], dtype=object) for i in indices]
    keep = ~np.logical_or.reduce([np.isin(col, list(missing)) for col in cells])

    for cov, col in zip(schema.covariates, cells[1:]):
        if cov.kind == KIND_CATEGORICAL and (cov.base in missing or cov.base not in col):
            raise SchemaError(
                f"base level {cov.base!r} of covariate {cov.name!r} does not occur in the data"
            )

    rows = np.flatnonzero(keep) + 1  # 1-based numbers of the kept rows
    labels = cells[0][keep]
    y = np.array([label_code.get(label, 0) for label in labels.tolist()], dtype=int)
    if not y.all():
        i = (y == 0).argmax()
        raise EncodingError(f"row {rows[i]}: unknown response label {labels[i]!r}")

    names: list[str] = ["intercept"] if schema.intercept else []
    columns: list[np.ndarray] = [np.ones(rows.size)] if schema.intercept else []
    warnings: list[str] = []
    for cov, all_cells in zip(schema.covariates, cells[1:]):
        col = all_cells[keep]
        if cov.kind == KIND_CATEGORICAL:
            levels = sorted(set(all_cells.tolist()) - missing - {cov.base})
            block = (col[:, None] == np.array(levels, dtype=object)).astype(float)
            names += [f"{cov.name}={level}" for level in levels]
            warnings += [
                f"level {level!r} of {cov.name!r} has no remaining observations; "
                "indicator column is all zeros"
                for level, seen in zip(levels, block.any(axis=0)) if rows.size and not seen
            ]
            columns.append(block)
            continue
        parsed = [_number(cell) for cell in col.tolist()]
        values = np.array(parsed, dtype=float)  # an unparseable cell (None) reads NaN
        bad = ~np.isfinite(values)
        if cov.kind == KIND_LOG:
            bad |= values <= 0.0
        if bad.any():
            i = bad.argmax()
            cell, value = col[i], parsed[i]
            fault = (f"cannot parse {cell!r} as a number" if value is None
                     else f"non-finite value {cell!r}" if not math.isfinite(value)
                     else f"log transform of non-positive value {value}")
            raise EncodingError(f"row {rows[i]}, column {cov.name!r}: {fault}")
        if cov.kind == KIND_LOG:
            # math.log, not np.log: the two differ in the last bit on some inputs
            values = np.array([math.log(value) for value in parsed])
        names.append(cov.name)
        columns.append(values)

    del cells  # free the cell arrays before column_stack copies the columns into X
    X = np.column_stack(columns) if columns else np.zeros((rows.size, 0))
    dataset = Dataset(y=y, X=X, column_names=names, J=schema.J)
    report = EncodingReport(
        n_raw=raw.n_raw,
        n_dropped=raw.n_raw - rows.size,
        n=rows.size,
        warnings=warnings,
    )
    return dataset, report


def simulate_dataset(spec, beta, cutpoints, n: int, rng: np.random.Generator) -> Dataset:
    """Draw a synthetic dataset from the latent-threshold model.

    Covariates are iid standard normal (the intercept column, when the spec
    asks for one, is constant 1). ``cutpoints`` are the J - 2 free interior
    thresholds; the first threshold is fixed at 0.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    cutpoints = np.atleast_1d(np.asarray(cutpoints, dtype=float)) if np.size(cutpoints) else np.zeros(0)
    if beta.shape != (spec.k,):
        raise ValueError(f"beta has length {beta.size}, spec declares k = {spec.k}")
    if cutpoints.size != spec.J - 2:
        raise ValueError(f"need {spec.J - 2} interior cut-points, got {cutpoints.size}")
    thresholds = np.concatenate([[0.0], cutpoints])
    if np.any(np.diff(thresholds) <= 0.0):
        raise ValueError(f"cut-points must be strictly increasing above 0, got {cutpoints}")

    X = rng.standard_normal((n, spec.k))
    if spec.intercept:
        X[:, 0] = 1.0
        names = ["intercept"] + [f"x{i}" for i in range(1, spec.k)]
    else:
        names = [f"x{i}" for i in range(1, spec.k + 1)]

    from .distributions import Link  # local import to keep module load light

    if spec.link is Link.PROBIT:
        eps = rng.standard_normal(n)
    else:
        eps = rng.logistic(size=n)
    z = X @ beta + eps
    y = 1 + np.searchsorted(thresholds, z, side="left")
    return Dataset(y=y, X=X, column_names=names, J=spec.J)


def write_csv(path, columns: list[str], rows) -> None:
    """Write rows (iterable of sequences) as RFC-4180 CSV with a header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)


def dataset_to_csv(path, data: Dataset, response_column: str = "y") -> None:
    """Serialize a Dataset back to CSV, skipping any intercept column.

    Floats are written with ``repr`` so a parse -> build round trip
    reproduces the matrix bit-for-bit.
    """
    skip = [i for i, name in enumerate(data.column_names) if name == "intercept"]
    keep = [i for i in range(data.X.shape[1]) if i not in skip]
    columns = [response_column] + [data.column_names[i] for i in keep]
    rows = (
        [str(int(data.y[r]))] + [repr(float(data.X[r, c])) for c in keep]
        for r in range(data.n)
    )
    write_csv(path, columns, rows)


def identity_schema(data: Dataset, response_column: str = "y") -> SchemaConfig:
    """Schema that re-ingests ``dataset_to_csv`` output unchanged."""
    covs = [
        Covariate(name, KIND_CONTINUOUS)
        for name in data.column_names
        if name != "intercept"
    ]
    return SchemaConfig(
        response=response_column,
        labels=[str(j) for j in range(1, data.J + 1)],
        missing=[],
        covariates=covs,
        intercept="intercept" in data.column_names,
    )


def schema_to_text(schema: SchemaConfig) -> str:
    """Render a SchemaConfig in the flat key = value grammar."""
    lines = [
        f"response = {schema.response}",
        f"labels = {', '.join(schema.labels)}",
    ]
    if schema.missing:
        lines.append(f"missing = {', '.join(schema.missing)}")
    lines.append(f"intercept = {'true' if schema.intercept else 'false'}")
    for cov in schema.covariates:
        if cov.kind == KIND_CATEGORICAL:
            lines.append(f"covariate.{cov.name} = categorical:{cov.base}")
        else:
            lines.append(f"covariate.{cov.name} = {cov.kind}")
    return "\n".join(lines) + "\n"
