"""Survey-style data ingestion and synthetic data generation.

CSV input is parsed RFC-4180 style (header row required, quoted fields may
contain commas and newlines, blank lines are skipped). Bytes are decoded as
UTF-8; a leading byte-order mark is dropped. The table is held as columns
only, with no row view: each column is one integer code per row plus its
distinct cells in first-seen order, packed into one string, so a survey of
a few answers per question costs a few bytes per cell. A parse may be given
the names of the columns it codes (the CLI passes the schema's
``columns``): every record is still read and checked for its width and
quoting, so a fault anywhere names its row, but the cells of the other
columns are never hashed or kept. A schema config then drives the
encoding, which strips, tests and converts each distinct raw cell of a
used column once and gathers the results by code:

* rows carrying a missing-value token in the response or any used covariate
  are dropped (listwise deletion; the count is reported),
* ``log`` covariates are natural-log transformed,
* ``categorical`` covariates expand to one 0/1 indicator per non-base level,
  columns named ``<col>=<level>``,
* response labels map to 1..J in the order the schema lists them; category
  order is semantic and never inferred from the data,
* the first fault is reported: a used column that is absent from the header
  or named more than once in it, then a missing base level, then an unknown
  response label, then the covariates in declaration order; within a
  column, the first kept row whose cell is unparseable, non-finite or, for
  ``log``, not positive; then, for a ``continuous`` column, values so large
  that their sum of squares overflows.

Schema files are flat ``key = value`` text with ``#`` comments::

    response = opinion
    labels = oppose, medicinal, personal
    missing = don't know, refused
    intercept = true
    covariate.age = log
    covariate.household = continuous
    covariate.party = categorical:republican

List values are comma separated and whitespace-trimmed; labels containing a
comma are not supported. Each key other than ``covariate.<name>`` appears at
most once, no covariate names the response column, and no ``missing`` token
is a response label. Covariates enter the design matrix in declaration
order, after the intercept column when one is requested.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import chain, islice
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


class Cells:
    """Text cells packed into one string plus end offsets; ``tolist``
    unpacks them.

    A column of distinct ids or amounts costs its characters and 8 bytes per
    cell, not one Python string (about 55 bytes) per cell. Those strings
    would also be scattered among short-lived objects, so small objects that
    outlive the table would keep their memory blocks from being released.
    """

    def __init__(self, cells: list[str]):
        self.text = "".join(cells)
        self.ends = np.cumsum([len(cell) for cell in cells], dtype=np.int64)

    def tolist(self) -> list[str]:
        text, ends = self.text, self.ends.tolist()
        return [text[start:end] for start, end in zip([0] + ends, ends)]


@dataclass(eq=False)
class RawTable:
    """The coded columns of a CSV table, in header order, and its record count.

    ``columns`` names the coded header columns, a repeated name once per
    copy. Column ``j`` is ``codes[j]``, one integer per row, indexing the
    column's distinct cells ``cells[j]`` (first-seen order): row ``i`` holds
    ``cells[j][codes[j][i]]``. ``n_raw`` counts every data record, whether
    or not any column is coded.
    """

    columns: list[str]
    codes: list[np.ndarray]
    cells: list[Cells]
    n_raw: int

    def column_index(self, name: str) -> int:
        count = self.columns.count(name)
        if count == 0:
            raise SchemaError(f"column {name!r} not present in the data")
        if count > 1:
            raise SchemaError(f"column {name!r} is named {count} times in the header")
        return self.columns.index(name)


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


def _refuse_missing_labels(labels: list[str], missing: list[str], where: str = "") -> None:
    """Refuse a missing-value token that is also a response label: listwise
    deletion would drop every row of that category."""
    for token in missing:
        if token.strip() in labels:
            raise SchemaError(f"{where}missing token {token!r} is also a response label")


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
        _refuse_missing_labels(self.labels, self.missing)
        seen = set()
        for cov in self.covariates:
            if not cov.name:
                raise SchemaError("covariate name is empty")
            if cov.name == self.response:
                raise SchemaError(f"covariate {cov.name!r} is the response column")
            if cov.name == "intercept":
                raise SchemaError("covariate name 'intercept' is reserved for the design's "
                                  "intercept column; rename that data column")
            if cov.name in seen:
                raise SchemaError(f"covariate {cov.name!r} declared twice")
            seen.add(cov.name)

    @property
    def J(self) -> int:
        return len(self.labels)

    @property
    def columns(self) -> list[str]:
        """The data columns the encoding reads: the response, then the covariates."""
        return [self.response] + [cov.name for cov in self.covariates]

    @classmethod
    def from_text(cls, text: str) -> "SchemaConfig":
        response = None
        labels: list[str] = []
        missing: list[str] = []
        covariates: list[Covariate] = []
        intercept = True
        key_lines: dict[str, int] = {}  # line of each single-valued key
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"schema line {lineno}: expected 'key = value', got {raw_line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in key_lines:
                raise SchemaError(
                    f"schema line {lineno}: key {key!r} repeats line {key_lines[key]}")
            if key in ("response", "labels", "missing", "intercept"):
                key_lines[key] = lineno
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
        _refuse_missing_labels(labels, missing, f"schema line {key_lines.get('missing')}: ")
        return cls(response=response, labels=labels, missing=missing,
                   covariates=covariates, intercept=intercept)

    @classmethod
    def from_file(cls, path) -> "SchemaConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


def _as_int(name: str, value) -> int:
    """``value`` as an int, refused by ``name`` unless it is integral."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass
class Dataset:
    """Encoded response vector and design matrix."""

    y: np.ndarray
    X: np.ndarray
    column_names: list[str]
    J: int

    def __post_init__(self):
        self.J = _as_int("J", self.J)
        codes = np.asarray(self.y)
        if codes.dtype.kind not in "biu":
            values = codes.astype(float)
            if not np.all(np.isfinite(values) & (values == np.floor(values))):
                raise ValueError("response codes must be integers")
        self.y = codes.astype(int, copy=False)
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


def check_square_sums(names, square_sums, error: type[Exception]) -> None:
    """Refuse the first column whose sum of squares is not finite: finite
    sums bound every entry of X'X."""
    for name, square_sum in zip(names, square_sums):
        if not math.isfinite(square_sum):
            raise error(f"column {name!r}: values too large to fit, "
                        "their sum of squares overflows")


def _text_table(columns: list[tuple[str, int]], rows) -> list[str]:
    """The lines of a text report's table: a header of the (title, width)
    ``columns``, a dash rule as wide, then a line per (name, values) row with
    the name left-aligned in a column at least 12 wide and each value
    right-aligned to its column's width, rounded to 4 decimals."""
    name_width = max([12] + [len(name) for name, _ in rows])
    header = f"{'':{name_width}}  " + "  ".join(f"{title:>{width}}" for title, width in columns)
    lines = [header, "-" * len(header)]
    for name, values in rows:
        lines.append(f"{name:{name_width}}  " + "  ".join(
            f"{value:>{width}.4f}" for value, (_, width) in zip(values, columns)))
    return lines


# Records read and encoded per step of parse_csv; a chunk's rows are the
# only per-row Python lists alive at a time.
_CHUNK_ROWS = 1024
# Characters split into lines per step of _lines.
_LINE_BLOCK = 1 << 16


def _lines(text: str):
    """The ``\\n``-terminated lines of ``text`` (the last may lack one), as
    iterating ``io.StringIO(text)`` yields them, without its 4-byte-per-
    character copy of the whole text."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _LINE_BLOCK) + 1 or len(text)
        *lines, tail = text[start:stop].split("\n")
        yield from [line + "\n" for line in lines]
        if tail:
            yield tail
        start = stop


def _checked_rows(records, width: int):
    """Data records of the header's width; a fault names its 1-based row."""
    i = 0
    try:
        for i, row in enumerate(records, start=1):
            if len(row) != width:
                raise ParseError(f"row {i}: expected {width} fields, got {len(row)}")
            yield row
    except csv.Error as exc:
        raise ParseError(f"row {i + 1}: {exc}") from None


class _Factor(dict):
    """Cell -> code; an unseen cell gets the next code."""

    def __missing__(self, cell: str) -> int:
        code = self[cell] = len(self)
        return code


def parse_csv(data, columns=None) -> RawTable:
    """Parse CSV bytes/text into a RawTable. First record is the header.

    Only the header columns whose names are in ``columns`` are coded, every
    copy of a repeated name included; ``None`` codes them all. Every record
    is still checked, so a ragged or malformed row raises ParseError naming
    it even when the fault lies in a column not coded.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    else:
        text = str(data)
    records = filter(None, csv.reader(_lines(text)))  # blank lines read as []
    try:
        header = next(records, None)
    except csv.Error as exc:
        raise ParseError(f"header row: {exc}") from None
    if header is None:
        raise ParseError("empty input: no header row")
    width = len(header)
    wanted = set(header if columns is None else columns)
    coded = [j for j, name in enumerate(header) if name in wanted]
    factors = [_Factor() for _ in coded]
    # a record takes at least one line and a comma per field after the first
    capacity = min(text.count("\n"), len(text) // max(width - 1, 1)) + 1
    codes = np.empty((len(coded), capacity), dtype=np.int32)
    n = 0
    rows = _checked_rows(records, width)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        flat = list(chain.from_iterable(chunk))
        for j, factor, column_codes in zip(coded, factors, codes):
            column = map(factor.__getitem__, flat[j::width])
            column_codes[n:n + len(chunk)] = np.fromiter(column, dtype=np.int32, count=len(chunk))
        n += len(chunk)
    return RawTable(columns=[header[j] for j in coded], codes=list(codes[:, :n]),
                    cells=[Cells(list(factor)) for factor in factors], n_raw=n)


def _number(cell: str) -> float | None:
    """``float(cell)``, or None when the cell does not parse as a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def build_dataset(raw: RawTable, schema: SchemaConfig) -> tuple[Dataset, EncodingReport]:
    """Encode a RawTable under a schema; rows with missing tokens are dropped.

    Each step (stripping, the missing-token test, label lookup, number
    parsing and checks, the log) runs once per distinct raw cell of a used
    column, and its result is gathered to the rows by code. Every step after
    the strip depends only on the stripped cell, so raw cells that differ
    only in padding give the same result. Categorical levels are taken from
    the raw column before any rows are dropped; a level whose every carrier
    row gets dropped still produces its (all-zero) indicator column, with a
    warning in the report.
    """
    missing = {tok.strip() for tok in schema.missing}
    indices = [raw.column_index(name) for name in schema.columns]
    columns = [(raw.codes[i], [cell.strip() for cell in raw.cells[i].tolist()]) for i in indices]

    for cov, (_, cells) in zip(schema.covariates, columns[1:]):
        if cov.kind == KIND_CATEGORICAL and (cov.base in missing or cov.base not in cells):
            raise SchemaError(
                f"base level {cov.base!r} of covariate {cov.name!r} does not occur in the data"
            )

    dropped = np.zeros(raw.n_raw, dtype=bool)
    for codes, cells in columns:
        dropped |= np.array([cell in missing for cell in cells], dtype=bool)[codes]
    keep = np.flatnonzero(~dropped)  # row keep[i] + 1 of the table is observation i

    label_code = {label: j for j, label in enumerate(schema.labels, start=1)}
    codes, cells = columns[0]
    codes = codes[keep]
    y = np.array([label_code.get(cell, 0) for cell in cells], dtype=int)[codes]
    if not y.all():
        i = (y == 0).argmax()
        raise EncodingError(f"row {keep[i] + 1}: unknown response label {cells[codes[i]]!r}")

    levels = {
        cov.name: sorted(set(cells) - missing - {cov.base})
        for cov, (_, cells) in zip(schema.covariates, columns[1:])
        if cov.kind == KIND_CATEGORICAL
    }
    width = sum(len(levels[cov.name]) if cov.name in levels else 1 for cov in schema.covariates)
    X = np.empty((keep.size, int(schema.intercept) + width))
    names: list[str] = ["intercept"] if schema.intercept else []
    if schema.intercept:
        X[:, 0] = 1.0
    warnings: list[str] = []
    for cov, (codes, cells) in zip(schema.covariates, columns[1:]):
        codes = codes[keep]
        at = len(names)
        if cov.kind == KIND_CATEGORICAL:
            cov_levels = levels[cov.name]
            position = {level: k for k, level in enumerate(cov_levels)}
            # each row's level position; -1 for the base level
            slot = np.array([position.get(cell, -1) for cell in cells], dtype=int)[codes]
            X[:, at:at + len(cov_levels)] = slot[:, None] == np.arange(len(cov_levels))
            seen = np.bincount(slot + 1, minlength=len(cov_levels) + 1)[1:] > 0
            names += [f"{cov.name}={name}" for name in cov_levels]
            warnings += [
                f"level {name!r} of {cov.name!r} has no remaining observations; "
                "indicator column is all zeros"
                for name, was_seen in zip(cov_levels, seen) if keep.size and not was_seen
            ]
            continue
        parsed = [_number(cell) for cell in cells]
        values = np.array(parsed, dtype=float)  # an unparseable cell (None) reads NaN
        bad = ~np.isfinite(values)
        if cov.kind == KIND_LOG:
            bad |= values <= 0.0
        faulty = bad[codes]
        if faulty.any():
            i = faulty.argmax()
            cell, value = cells[codes[i]], parsed[codes[i]]
            fault = (f"cannot parse {cell!r} as a number" if value is None
                     else f"non-finite value {cell!r}" if not math.isfinite(value)
                     else f"log transform of non-positive value {value}")
            raise EncodingError(f"row {keep[i] + 1}, column {cov.name!r}: {fault}")
        if cov.kind == KIND_LOG:
            # math.log, not np.log: the two differ in the last bit on some inputs;
            # a bad cell that only dropped rows carry reads NaN and is never gathered
            values = np.array([math.nan if skip else math.log(value)
                               for value, skip in zip(parsed, bad.tolist())])
        X[:, at] = values[codes]
        if cov.kind == KIND_CONTINUOUS:  # a log column's sum of squares cannot overflow
            with np.errstate(over="ignore"):
                square_sum = X[:, at] @ X[:, at]
            check_square_sums([cov.name], [square_sum], EncodingError)
        names.append(cov.name)

    dataset = Dataset(y=y, X=X, column_names=names, J=schema.J)
    report = EncodingReport(
        n_raw=raw.n_raw,
        n_dropped=raw.n_raw - keep.size,
        n=keep.size,
        warnings=warnings,
    )
    return dataset, report


def simulate_dataset(spec, beta, cutpoints, n: int, rng: np.random.Generator) -> Dataset:
    """Draw a synthetic dataset from the latent-threshold model.

    Covariates are iid standard normal (the intercept column, when the spec
    asks for one, is constant 1). ``cutpoints`` are the J - 2 free interior
    thresholds; the first threshold is fixed at 0.
    """
    from .likelihood import ParamVector, _check_params  # likelihood imports this module
    params = ParamVector(beta, cutpoints)  # the cut-points stand where their log spacings go
    _check_params(spec, params, "cutpoints")
    beta, cutpoints = params.beta, params.delta
    for name, values in (("beta", beta), ("cutpoints", cutpoints)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite, got {values}")
    thresholds = np.concatenate([[0.0], cutpoints])
    if np.any(np.diff(thresholds) <= 0.0):
        raise ValueError(f"cut-points must be strictly increasing above 0, got {cutpoints}")

    X = rng.standard_normal((n, spec.k))
    if spec.intercept:
        X[:, 0] = 1.0
        names = ["intercept"] + [f"x{i}" for i in range(1, spec.k)]
    else:
        names = [f"x{i}" for i in range(1, spec.k + 1)]

    z = X @ beta + spec.link.noise(rng, n)
    y = 1 + np.searchsorted(thresholds, z, side="left")
    return Dataset(y=y, X=X, column_names=names, J=spec.J)


# the response column that dataset_to_csv writes and identity_schema reads
_RESPONSE_COLUMN = "y"


def dataset_to_csv(path, data: Dataset) -> None:
    """Serialize a Dataset back to CSV, skipping any intercept column.

    Floats are written with ``repr`` so a parse -> build round trip
    reproduces the matrix bit-for-bit.
    """
    skip = [i for i, name in enumerate(data.column_names) if name == "intercept"]
    keep = [i for i in range(data.X.shape[1]) if i not in skip]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([_RESPONSE_COLUMN] + [data.column_names[i] for i in keep])
        for r in range(data.n):
            writer.writerow([str(int(data.y[r]))] + [repr(float(data.X[r, c])) for c in keep])


def identity_schema(data: Dataset) -> SchemaConfig:
    """Schema that re-ingests ``dataset_to_csv`` output unchanged."""
    covs = [
        Covariate(name, KIND_CONTINUOUS)
        for name in data.column_names
        if name != "intercept"
    ]
    return SchemaConfig(
        response=_RESPONSE_COLUMN,
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
