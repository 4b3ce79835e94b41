"""Tests for CSV parsing, schema-driven encoding and data simulation."""

import csv
import gc
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from discretefit import (
    Dataset,
    EncodingError,
    Link,
    ModelSpec,
    ParseError,
    SchemaConfig,
    SchemaError,
    build_dataset,
    parse_csv,
    simulate_dataset,
)
from discretefit import data as data_mod
from discretefit.data import (
    Covariate,
    dataset_to_csv,
    identity_schema,
    schema_to_text,
)

from oracles import encode_rowwise, norm_cdf_float_oracle

SURVEY_CSV = (
    "opinion,age,income,party,used\n"
    "oppose,34,52000,republican,no\n"
    "favor,28,61000,democrat,yes\n"
    "favor,45,80000,other,yes\n"
    "don't know,50,47000,democrat,no\n"
    "oppose,61,30000,republican,refused\n"
    "favor,39,150000,democrat,no\n"
)

SURVEY_SCHEMA = """
# survey encoding
response = opinion
labels = oppose, favor
missing = don't know, refused
intercept = true
covariate.age = log
covariate.income = log
covariate.party = categorical:republican
covariate.used = categorical:no
"""


class TestParseCsv:
    def test_basic(self):
        table = parse_csv(b"a,b\n1,2\n")
        assert table.columns == ["a", "b"]
        assert table.rows == [["1", "2"]]
        assert table.n_raw == 1

    def test_quoted_field_with_comma(self):
        table = parse_csv('a,b\n"x,y",2\n')
        assert table.rows[0][0] == "x,y"

    def test_quoted_field_with_newline(self):
        table = parse_csv('a,b\n"line1\nline2",2\n')
        assert table.rows[0][0] == "line1\nline2"

    def test_ragged_row_names_index(self):
        with pytest.raises(ParseError, match="row 2"):
            parse_csv("a,b\n1,2\n1,2,3\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_csv(b"")

    def test_invalid_utf8(self):
        with pytest.raises(ParseError):
            parse_csv(b"a,b\n\xff\xfe,2\n")

    def test_byte_order_mark_is_not_part_of_the_first_name(self):
        table = parse_csv("\ufeffy,x\nA,1\n".encode("utf-8"))
        assert table.columns == ["y", "x"]
        schema = SchemaConfig(response="y", labels=["A", "B"],
                              covariates=[Covariate("x", "continuous")])
        data, _ = build_dataset(table, schema)
        assert list(data.y) == [1]

    def test_header_only_table_has_no_rows(self):
        table = parse_csv(b"a,b\n")
        assert (table.columns, table.rows, table.n_raw) == (["a", "b"], [], 0)

    def test_carriage_return_line_endings_are_a_parse_error(self):
        with pytest.raises(ParseError, match="^header row: new-line character"):
            parse_csv(b"y,x\rA,1\rB,2\r")

    def test_reader_error_names_the_row(self):
        with pytest.raises(ParseError, match="^row 2: new-line character"):
            parse_csv(b"y,x\nA,1\n\nB,a\rb\nA,2\n")

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    @pytest.mark.parametrize("fault, message", [
        ("1,2,3", "expected 2 fields, got 3"),
        ("1,a\rb", "new-line character seen in unquoted field"),
    ])
    def test_fault_next_to_a_chunk_boundary_names_its_row(self, offset, fault, message):
        # blank lines are not records and do not count
        row = data_mod._CHUNK_ROWS + offset
        lines = ["a,b"] + [f"{i},x" if i % 7 else "\n" for i in range(1, 3 * data_mod._CHUNK_ROWS)]
        records = [k for k, line in enumerate(lines) if line != "\n"]
        lines[records[row]] = fault
        with pytest.raises(ParseError, match=re.escape(f"row {row}: {message}")):
            parse_csv("\n".join(lines) + "\n")

    @pytest.mark.parametrize("line_block", [1, 7, None])
    def test_rows_equal_the_list_of_lists(self, monkeypatch, line_block):
        if line_block:
            monkeypatch.setattr(data_mod, "_LINE_BLOCK", line_block)
        rng = np.random.default_rng(17)
        pool = ["a", " a", "a ", "", "x,y", 'say "hi"', "line1\nline2", "crlf\r\nend",
                "caf\u00e9", "sep\u2028arate", "tab\there", "1e400", "  7.5 "]
        n = 2 * data_mod._CHUNK_ROWS + 3
        rows = [[str(rng.choice(pool)) for _ in range(4)] for _ in range(n)]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator=str(rng.choice(["\n", "\r\n"])))
        writer.writerow(["a", "b", "c", "d"])
        writer.writerows(rows)
        text = buffer.getvalue()
        table = parse_csv(text.encode("utf-8"))
        assert table.rows == [row for row in csv.reader(io.StringIO(text)) if row][1:] == rows
        assert table.n_raw == n
        assert all(len(cells) == len(set(cells)) for cells in table.cells)

    def test_retained_and_peak_memory_are_a_small_multiple_of_the_input(self):
        # a 20,000-row survey: an id per row, integer answers and categorical ones
        rng = np.random.default_rng(4)
        n = 20_000
        levels = {"pastuse": ["no", "yes"], "gender": ["male", "female"],
                  "education": ["high school", "less than high school",
                                "some college, no degree", "bachelor's degree"],
                  "race": ["white", "black", "hispanic", "asian", "other"],
                  "party": ["republican", "democrat", "independent"],
                  "religion": ["protestant", "catholic", "none", "other"]}
        columns = {
            "respondent": [f"R{i:06d}" for i in range(1, n + 1)],
            "opinion": rng.choice(["oppose", "medicinal", "personal", "don't know"], n,
                                  p=[0.4, 0.3, 0.27, 0.03]).tolist(),
            "age": rng.integers(18, 91, n).astype(str).tolist(),
            "income": np.round(np.exp(rng.normal(10.8, 0.7, n))).astype(int).astype(str).tolist(),
            "household": (1 + rng.poisson(1.6, n)).astype(str).tolist(),
        }
        columns.update({name: rng.choice(values, n).tolist() for name, values in levels.items()})
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))
        data = buffer.getvalue().encode("utf-8")
        schema = SchemaConfig.from_text(
            "response = opinion\nlabels = oppose, medicinal, personal\nmissing = don't know\n"
            "covariate.age = log\ncovariate.income = log\ncovariate.household = continuous\n"
            + "".join(f"covariate.{name} = categorical:{values[0]}\n"
                      for name, values in levels.items())
        )
        gc.collect()
        tracemalloc.start()
        try:
            table = parse_csv(data)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
            encoded, _ = build_dataset(table, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert encoded.X.shape == (n - np.sum(np.array(columns["opinion"]) == "don't know"), 18)
        assert retained <= 4 * len(data)
        assert peak <= 12 * len(data)


class TestSchemaConfig:
    def test_parse_grammar(self):
        schema = SchemaConfig.from_text(SURVEY_SCHEMA)
        assert schema.response == "opinion"
        assert schema.labels == ["oppose", "favor"]
        assert schema.missing == ["don't know", "refused"]
        assert schema.intercept is True
        assert [c.name for c in schema.covariates] == ["age", "income", "party", "used"]
        assert schema.covariates[2].base == "republican"

    def test_roundtrip_through_text(self):
        schema = SchemaConfig.from_text(SURVEY_SCHEMA)
        again = SchemaConfig.from_text(schema_to_text(schema))
        assert again == schema

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            SchemaConfig(response="y", labels=["a", "a"])

    def test_single_label_rejected(self):
        with pytest.raises(SchemaError):
            SchemaConfig(response="y", labels=["only"])

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown key"):
            SchemaConfig.from_text("response = y\nlabels = a, b\nbogus = 1\n")

    def test_bad_directive_rejected(self):
        with pytest.raises(SchemaError):
            SchemaConfig.from_text("response = y\nlabels = a, b\ncovariate.x = cubic\n")

    def test_missing_required_keys(self):
        with pytest.raises(SchemaError):
            SchemaConfig.from_text("labels = a, b\n")
        with pytest.raises(SchemaError):
            SchemaConfig.from_text("response = y\n")


class TestBuildDataset:
    def test_drops_rows_with_missing_tokens(self):
        table = parse_csv(SURVEY_CSV)
        schema = SchemaConfig.from_text(SURVEY_SCHEMA)
        data, report = build_dataset(table, schema)
        assert report.n_raw == 6
        assert report.n_dropped == 2
        assert report.n == 4
        assert data.n == 4
        assert list(data.y) == [1, 2, 2, 2]

    def test_log_transform_value(self):
        table = parse_csv(SURVEY_CSV)
        schema = SchemaConfig.from_text(SURVEY_SCHEMA)
        data, _ = build_dataset(table, schema)
        income = data.X[:, data.column_names.index("income")]
        # oracle: plain scalar natural log
        assert income[0] == pytest.approx(math.log(52000), abs=1e-12)
        assert math.log(60000) == pytest.approx(11.002099841204238, abs=1e-12)

    def test_dummy_expansion_names_and_base(self):
        table = parse_csv("y,c\nA,pear\nB,apple\nA,plum\nB,apple\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"],
            covariates=[Covariate("c", "categorical", "apple")],
        )
        data, _ = build_dataset(table, schema)
        assert data.column_names == ["intercept", "c=pear", "c=plum"]
        np.testing.assert_array_equal(data.X[:, 1], [1, 0, 0, 0])
        np.testing.assert_array_equal(data.X[:, 2], [0, 0, 1, 0])

    def test_indicators_sum_to_zero_or_one(self):
        table = parse_csv(SURVEY_CSV)
        schema = SchemaConfig.from_text(SURVEY_SCHEMA)
        data, _ = build_dataset(table, schema)
        party_cols = [i for i, n in enumerate(data.column_names) if n.startswith("party=")]
        sums = data.X[:, party_cols].sum(axis=1)
        assert set(sums) <= {0.0, 1.0}

    def test_level_lost_to_dropping_warns_and_zero_column(self):
        # the only 'other' row also carries a missing response
        csv_text = "y,c\nA,red\ndon't know,other\nB,red\nA,blue\n"
        schema = SchemaConfig(
            response="y", labels=["A", "B"], missing=["don't know"],
            covariates=[Covariate("c", "categorical", "red")],
        )
        data, report = build_dataset(parse_csv(csv_text), schema)
        assert "c=other" in data.column_names
        col = data.X[:, data.column_names.index("c=other")]
        np.testing.assert_array_equal(col, np.zeros(3))
        assert any("other" in w for w in report.warnings)

    def test_log_of_nonpositive_names_row_and_column(self):
        table = parse_csv("y,x\nA,5\nB,-1\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"], covariates=[Covariate("x", "log")],
        )
        with pytest.raises(EncodingError, match=r"row 2.*'x'"):
            build_dataset(table, schema)

    def test_unknown_response_label(self):
        table = parse_csv("y,x\nA,1\nC,2\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"], covariates=[Covariate("x", "continuous")],
        )
        with pytest.raises(EncodingError, match="unknown response label"):
            build_dataset(table, schema)

    def test_missing_base_level_rejected(self):
        table = parse_csv("y,c\nA,red\nB,blue\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"],
            covariates=[Covariate("c", "categorical", "green")],
        )
        with pytest.raises(SchemaError, match="green"):
            build_dataset(table, schema)

    def test_unknown_column_rejected(self):
        table = parse_csv("y,x\nA,1\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"], covariates=[Covariate("zz", "continuous")],
        )
        with pytest.raises(SchemaError, match="zz"):
            build_dataset(table, schema)

    def test_duplicated_name_the_schema_does_not_use_is_fine(self):
        table = parse_csv("y,x,z,z\nA,1,2,3\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"], covariates=[Covariate("x", "continuous")],
        )
        data, _ = build_dataset(table, schema)
        assert data.column_names == ["intercept", "x"]

    @pytest.mark.parametrize("covariates, message", [
        (["y2", "zz"], "column 'y2' is named 2 times in the header"),
        (["zz", "y2"], "column 'zz' not present in the data"),
    ])
    def test_duplicate_and_unknown_columns_fault_in_schema_order(self, covariates, message):
        table = parse_csv("y,y2,y2\nC,1,2\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"],
            covariates=[Covariate(name, "continuous") for name in covariates],
        )
        with pytest.raises(SchemaError, match=re.escape(message)):
            build_dataset(table, schema)

    def test_unparseable_number_names_row_and_column(self):
        table = parse_csv("y,x\nA,1\nB,soon\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"], covariates=[Covariate("x", "continuous")],
        )
        with pytest.raises(EncodingError, match=r"row 2.*'x'"):
            build_dataset(table, schema)

    @pytest.mark.parametrize("cell", ["inf", "nan", "1e400"])
    def test_nonfinite_number_names_row_and_column(self, cell):
        table = parse_csv(f"y,x\nA,1\nB, {cell}\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"], covariates=[Covariate("x", "continuous")],
        )
        message = f"row 2, column 'x': non-finite value {cell!r}"
        with pytest.raises(EncodingError, match=re.escape(message)):
            build_dataset(table, schema)

    @pytest.mark.parametrize("csv_text, message", [
        ("y,x\nA,5\nB,-1\nA,abc\n", "row 2, column 'x': log transform of non-positive value -1.0"),
        ("y,x\nA,5\nB,abc\nA,-1\n", "row 2, column 'x': cannot parse 'abc' as a number"),
        ("y,x\nA,5\nB,0\nA,inf\n", "row 2, column 'x': log transform of non-positive value 0.0"),
    ])
    def test_first_faulty_row_wins_whatever_the_fault(self, csv_text, message):
        schema = SchemaConfig(
            response="y", labels=["A", "B"], covariates=[Covariate("x", "log")],
        )
        with pytest.raises(EncodingError, match=re.escape(message)):
            build_dataset(parse_csv(csv_text), schema)

    def test_unknown_label_beats_an_earlier_covariate_fault(self):
        table = parse_csv("y,x\nA,abc\nC,1\n")
        schema = SchemaConfig(
            response="y", labels=["A", "B"], covariates=[Covariate("x", "continuous")],
        )
        with pytest.raises(EncodingError, match=re.escape("row 2: unknown response label 'C'")):
            build_dataset(table, schema)

    def test_idempotent_on_clean_data(self, tmp_path):
        # build, serialize, re-ingest with the identity schema: nothing changes
        rng = np.random.default_rng(5)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=3, intercept=True)
        data = simulate_dataset(spec, [0.2, -0.4, 0.6], [0.8], 200, rng)
        path = tmp_path / "idempotent.csv"
        dataset_to_csv(path, data)
        table = parse_csv(path.read_bytes())
        rebuilt, report = build_dataset(table, identity_schema(data))
        assert report.n_dropped == 0
        np.testing.assert_array_equal(rebuilt.y, data.y)
        np.testing.assert_array_equal(rebuilt.X, data.X)
        assert rebuilt.column_names == data.column_names
        # a second application is a no-op again
        dataset_to_csv(path, rebuilt)
        table2 = parse_csv(path.read_bytes())
        rebuilt2, _ = build_dataset(table2, identity_schema(rebuilt))
        np.testing.assert_array_equal(rebuilt2.X, rebuilt.X)


MESSY_SCHEMA = """
response = opinion
labels = oppose, medicinal, personal
missing = don't know, refused
covariate.age = log
covariate.income = log
covariate.household = continuous
covariate.education = categorical:high school
covariate.party = categorical:republican
"""


def _messy_rows(seed: int, n: int = 400) -> list[list[str]]:
    """Survey rows with padded cells, quoted commas, missing tokens in the
    response and in covariates, and a party level ('green') that occurs only
    on rows dropped for a missing response."""
    rng = np.random.default_rng(seed)

    def pad(cell):
        return str(rng.choice(["", " ", "  "])) + cell + str(rng.choice(["", " "]))

    opinions = ["oppose", "medicinal", "personal", "don't know", "refused"]
    education = ["high school", "some college, no degree", "bachelor's degree"]
    rows = []
    for _ in range(n):
        opinion = str(rng.choice(opinions, p=[0.35, 0.3, 0.25, 0.06, 0.04]))
        income = repr(float(np.round(np.exp(rng.normal(10.8, 0.7)), 2)))
        if rng.random() < 0.05:
            income = "refused"
        party = str(rng.choice(["republican", "democrat", "independent"]))
        if opinion in ("don't know", "refused") and rng.random() < 0.3:
            party = "green"
        rows.append([
            pad(opinion), pad(str(rng.integers(18, 91))), pad(income),
            pad(repr(float(rng.integers(1, 8)) / 2)), pad(str(rng.choice(education))),
            pad(party), f'note "{rng.integers(100)}", refused',
        ])
    return rows


def _table(rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["opinion", "age", "income", "household", "education", "party", "note"])
    writer.writerows(rows)
    return parse_csv(buffer.getvalue().encode("utf-8"))


def _encode_both(table, schema):
    """The encoder's result and the row-wise reference's, or both errors."""
    try:
        data, report = build_dataset(table, schema)
    except (EncodingError, SchemaError) as exc:
        with pytest.raises(ValueError) as ref:
            encode_rowwise(table, schema)
        return str(exc), str(ref.value)
    X, y, names, counts = encode_rowwise(table, schema)
    return (data, report), (X, y, names, counts)


class TestRowwiseEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_messy_survey_matches_reference_exactly(self, seed):
        table = _table(_messy_rows(seed))
        (data, report), (X, y, names, counts) = _encode_both(
            table, SchemaConfig.from_text(MESSY_SCHEMA)
        )
        assert data.X.dtype == X.dtype and data.y.dtype == y.dtype
        assert np.array_equal(data.X, X)
        assert np.array_equal(data.y, y)
        assert data.column_names == names
        assert (report.n_raw, report.n_dropped, report.n, report.warnings) == counts
        # the table exercises dropping, a lost level and the quoted-comma level
        assert report.n_dropped > 0
        assert any("'green'" in w for w in report.warnings)
        assert "education=some college, no degree" in names

    @pytest.mark.parametrize("seed", range(12))
    def test_injected_faults_give_the_reference_message(self, seed):
        rng = np.random.default_rng([seed, 9])
        rows = _messy_rows(seed, n=60)
        kept = [i for i, row in enumerate(rows)
                if not {cell.strip() for cell in row[:6]} & {"don't know", "refused"}]
        faults = [(0, "maybe"), (1, "-3"), (1, "0"), (2, "abc"), (2, " nan "),
                  (3, "inf"), (3, "1e400"), (3, "x"), (3, "")]
        for k in rng.choice(len(faults), size=rng.integers(1, 4), replace=False):
            column, cell = faults[k]
            rows[rng.choice(kept)][column] = cell
        got, want = _encode_both(_table(rows), SchemaConfig.from_text(MESSY_SCHEMA))
        assert isinstance(got, str), "an injected fault went unreported"
        assert got == want

    @pytest.mark.parametrize("text, message", [
        ("covariate.nope = continuous", "column 'nope' not present in the data"),
        ("covariate.party = categorical:purple",
         "base level 'purple' of covariate 'party' does not occur in the data"),
    ])
    def test_schema_faults_give_the_reference_message(self, text, message):
        party = "covariate.party = categorical:republican"
        schema = SchemaConfig.from_text(MESSY_SCHEMA.replace(party, text))
        rows = _messy_rows(0, n=60)
        rows[5][0] = "maybe"
        got, want = _encode_both(_table(rows), schema)
        assert got == want == message


class TestDataset:
    def test_rejects_nonfinite_design(self):
        with pytest.raises(ValueError):
            Dataset(y=[1, 2], X=[[1.0], [np.nan]], column_names=["x"], J=2)

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError):
            Dataset(y=[0, 1], X=[[1.0], [1.0]], column_names=["x"], J=2)

    @pytest.mark.parametrize("y", [[1.5, 2.0], [1.0, np.nan], [np.inf, 1.0]])
    def test_rejects_non_integral_codes(self, y):
        with pytest.raises(ValueError, match="response codes must be integers"):
            Dataset(y=y, X=[[1.0], [1.0]], column_names=["x"], J=2)

    def test_rejects_non_integral_category_count(self):
        with pytest.raises(ValueError, match="J must be an integer"):
            Dataset(y=[1, 2], X=[[1.0], [1.0]], column_names=["x"], J=2.5)

    def test_integral_floats_accepted(self):
        data = Dataset(y=np.array([1.0, 2.0]), X=[[1.0], [1.0]], column_names=["x"], J=2.0)
        assert data.y.dtype.kind == "i" and list(data.y) == [1, 2]
        assert data.J == 2 and isinstance(data.J, int)

    def test_empty_dataset_allowed(self):
        data = Dataset(y=np.zeros(0, dtype=int), X=np.zeros((0, 2)),
                       column_names=["a", "b"], J=2)
        assert data.n == 0


class TestSimulateDataset:
    def test_binary_probit_share(self):
        rng = np.random.default_rng(21)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        data = simulate_dataset(spec, [0.0], [], 100_000, rng)
        share = np.mean(data.y == 2)
        assert share == pytest.approx(0.5, abs=0.005)

    def test_ordinal_probit_shares(self):
        rng = np.random.default_rng(22)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1, intercept=True)
        data = simulate_dataset(spec, [0.0], [1.0], 100_000, rng)
        shares = np.bincount(data.y, minlength=4)[1:] / data.n
        # cell probabilities from the float cdf oracle
        p1 = norm_cdf_float_oracle(0.0)
        p2 = norm_cdf_float_oracle(1.0) - p1
        p3 = 1.0 - norm_cdf_float_oracle(1.0)
        for share, p in zip(shares, (p1, p2, p3)):
            assert share == pytest.approx(p, abs=0.005)

    def test_shares_within_three_binomial_se(self):
        rng = np.random.default_rng(23)
        spec = ModelSpec("ordinal", Link.LOGIT, J=4, k=2, intercept=True)
        beta = np.array([0.3, -0.5])
        data = simulate_dataset(spec, beta, [0.7, 1.9], 100_000, rng)
        # analytic cell probabilities, integrating over the covariate draw
        # by conditioning on the simulated design
        gamma = np.array([-np.inf, 0.0, 0.7, 1.9, np.inf])
        xb = data.X @ beta
        link = Link.LOGIT
        probs = np.diff(link.cdf(gamma[None, :] - xb[:, None]), axis=1).mean(axis=0)
        shares = np.bincount(data.y, minlength=5)[1:] / data.n
        se = np.sqrt(probs * (1 - probs) / data.n)
        assert np.all(np.abs(shares - probs) <= 3 * se + 1e-12)

    def test_same_seed_same_dataset(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=2, intercept=True)
        d1 = simulate_dataset(spec, [0.5, -0.5], [1.0], 500, np.random.default_rng(9))
        d2 = simulate_dataset(spec, [0.5, -0.5], [1.0], 500, np.random.default_rng(9))
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(d1.X, d2.X)

    def test_non_increasing_cutpoints_rejected(self):
        spec = ModelSpec("ordinal", Link.PROBIT, J=4, k=1, intercept=True)
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            simulate_dataset(spec, [0.0], [1.0, 0.5], 100, rng)
        with pytest.raises(ValueError):
            simulate_dataset(spec, [0.0], [-0.5, 0.5], 100, rng)

    def test_latent_threshold_rule(self):
        # with a fixed design and eps drawn manually, categories follow
        # gamma_{j-1} < z <= gamma_j
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1, intercept=True)
        rng = np.random.default_rng(33)
        data = simulate_dataset(spec, [0.0], [1.0], 20_000, rng)
        assert set(np.unique(data.y)) == {1, 2, 3}
