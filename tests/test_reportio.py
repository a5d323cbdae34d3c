"""File formats: matrix CSV, sidecars, label files, score files, reports."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argmaxable import reportio
from argmaxable.labelspace import LabelAssignment
from argmaxable.linalg import Provenance, WeightMatrix
from argmaxable.reportio import (
    ParseError,
    ReportEnvelope,
    parse_labels,
    parse_matrix,
    parse_scores,
    report_schema,
    serialize_matrix,
    validate_report,
)


class TestMatrixRoundTrip:
    def test_bits_survive_the_trip(self, tmp_path):
        rng = np.random.default_rng(60)
        w = WeightMatrix(rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8))
        target = tmp_path / "w.csv"
        serialize_matrix(w, target)
        back = parse_matrix(target)
        assert back.entries.shape == (5, 3)
        assert np.array_equal(back.entries, w.entries)

    def test_sidecar_carries_provenance(self, tmp_path):
        w = WeightMatrix(
            np.eye(3), provenance=Provenance(kind="dft+slack", k=1, s=2, seed=9)
        )
        target = tmp_path / "w.csv"
        serialize_matrix(w, target)
        back = parse_matrix(target)
        assert back.provenance == w.provenance

    def test_missing_sidecar_means_random_provenance(self, tmp_path):
        target = tmp_path / "w.csv"
        target.write_text("1.0,0.0\n0.0,1.0\n")
        back = parse_matrix(target)
        assert back.provenance.kind == "random"

    def test_flat_spectral_sidecar_shape_is_accepted(self, tmp_path):
        target = tmp_path / "w.csv"
        target.write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "w.json").write_text(
            json.dumps({"n": 2, "k": 1, "s": 0, "seed": 0})
        )
        back = parse_matrix(target)
        assert back.provenance == Provenance(kind="dft", k=1)

    def test_flat_sidecar_with_slack_columns(self, tmp_path):
        target = tmp_path / "w.csv"
        target.write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "w.json").write_text(
            json.dumps({"n": 2, "k": 1, "s": 3, "seed": 7})
        )
        back = parse_matrix(target)
        assert back.provenance == Provenance(kind="dft+slack", k=1, s=3, seed=7)

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            ({"k": 2.5}, "k must be an integer, got 2.5"),
            ({"k": True}, "k must be an integer, got True"),
            ({"k": "abc"}, "k must be an integer, got 'abc'"),
            ({"k": 1, "s": 0, "seed": "abc"}, "seed must be an integer, got 'abc'"),
            ({"k": 1, "s": 2.0, "seed": 0}, "s must be an integer, got 2.0"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"provenance": {"kind": "dft", "k": 2.5}}, "k must be an integer, got 2.5"),
            ({"provenance": {"kind": "dft", "k": 0}}, "k must be >= 1, got 0"),
            ({"provenance": {"kind": "dft+slack", "k": 1, "s": -2, "seed": 0}},
             "s must be >= 0, got -2"),
        ],
    )
    def test_sidecar_provenance_fields_must_be_integers(self, sidecar, message, tmp_path):
        target = tmp_path / "w.csv"
        target.write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "w.json").write_text(json.dumps(sidecar))
        with pytest.raises(ParseError) as exc:
            parse_matrix(target)
        assert str(exc.value) == f"{tmp_path / 'w.json'}: provenance {message}"

    def test_sidecar_shape_mismatch_rejected(self, tmp_path):
        target = tmp_path / "w.csv"
        target.write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "w.json").write_text(json.dumps({"n": 5, "k": 1}))
        with pytest.raises(ParseError):
            parse_matrix(target)

    def test_written_sidecar_is_the_general_shape(self, tmp_path):
        w = WeightMatrix(np.eye(2), provenance=Provenance(kind="dft", k=1))
        serialize_matrix(w, tmp_path / "w.csv")
        obj = json.loads((tmp_path / "w.json").read_text())
        assert obj == {"n": 2, "d": 2, "provenance": {"kind": "dft", "k": 1}}

    def test_json_target_is_refused_before_any_write(self, tmp_path):
        target = tmp_path / "w.json"
        with pytest.raises(ValueError, match="own sidecar"):
            serialize_matrix(WeightMatrix(np.eye(2)), target)
        assert list(tmp_path.iterdir()) == []


class TestMatrixDiagnostics:
    def test_ragged_row_names_the_line(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError) as exc:
            parse_matrix(target)
        assert f"{target}:2" in str(exc.value)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError) as exc:
            parse_matrix(target)
        assert f"{target}:2:2" in str(exc.value)
        assert "oops" in str(exc.value)

    def test_empty_file(self, tmp_path):
        target = tmp_path / "empty.csv"
        target.write_text("")
        with pytest.raises(ParseError) as exc:
            parse_matrix(target)
        assert "empty" in str(exc.value)

    def test_blank_interior_line(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("1.0\n\n2.0\n")
        with pytest.raises(ParseError) as exc:
            parse_matrix(target)
        assert exc.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_matrix(tmp_path / "nope.csv")

    def test_nonfinite_entries_rejected(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("1.0,inf\n2.0,3.0\n")
        with pytest.raises(ParseError):
            parse_matrix(target)


class TestLabelFiles:
    def test_dense_file(self, tmp_path):
        ys = [
            LabelAssignment.from_dense("+-+"),
            LabelAssignment.from_dense("---"),
        ]
        target = tmp_path / "labels.txt"
        target.write_text("+-+\n---\n")
        assert parse_labels(target) == ys

    def test_sparse_file(self, tmp_path):
        ys = [
            LabelAssignment.from_active(4, [1, 4]),
            LabelAssignment.from_active(4, []),
            LabelAssignment.from_active(4, [2]),
        ]
        target = tmp_path / "labels.txt"
        target.write_text("n=4\n1,4\n\n2\n")
        assert parse_labels(target) == ys

    def test_dense_and_sparse_describe_the_same_assignment(self, tmp_path):
        dense = tmp_path / "dense.txt"
        dense.write_text("+−−+\n")
        sparse = tmp_path / "sparse.txt"
        sparse.write_text("n=4\n1,4\n")
        assert parse_labels(dense) == parse_labels(sparse)

    def test_ascii_minus_and_unicode_minus_are_interchangeable(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("+-+\n")
        b = tmp_path / "b.txt"
        b.write_text("+−+\n")
        assert parse_labels(a) == parse_labels(b)

    def test_sparse_blank_line_is_all_inactive(self, tmp_path):
        target = tmp_path / "labels.txt"
        target.write_text("n=3\n\n")
        (only,) = parse_labels(target)
        assert only == LabelAssignment.from_active(3, ())

    def test_digit_in_dense_line_hints_at_the_header(self, tmp_path):
        target = tmp_path / "labels.txt"
        target.write_text("1,4\n")
        with pytest.raises(ParseError) as exc:
            parse_labels(target)
        assert "n=<count>" in str(exc.value)

    def test_dense_length_mismatch_rejected(self, tmp_path):
        target = tmp_path / "labels.txt"
        target.write_text("+-+\n+-\n")
        with pytest.raises(ParseError) as exc:
            parse_labels(target)
        assert exc.value.line == 2

    def test_dense_error_column_counts_leading_whitespace(self, tmp_path):
        target = tmp_path / "labels.txt"
        target.write_text("+-+-\n  +x--\n")
        with pytest.raises(ParseError) as exc:
            parse_labels(target)
        assert (exc.value.line, exc.value.column) == (2, 4)
        assert str(exc.value).startswith(f"{target}:2:4: illegal character 'x'")

    def test_sparse_duplicate_index_rejected(self, tmp_path):
        target = tmp_path / "labels.txt"
        target.write_text("n=4\n2,2\n")
        with pytest.raises(ParseError) as exc:
            parse_labels(target)
        assert "duplicate" in str(exc.value)

    def test_sparse_index_out_of_range_rejected(self, tmp_path):
        target = tmp_path / "labels.txt"
        target.write_text("n=4\n5\n")
        with pytest.raises(ParseError) as exc:
            parse_labels(target)
        assert "outside 1..4" in str(exc.value)

    @pytest.mark.parametrize(
        "line, column, message",
        [
            ("1, 9", 4, "index 9 outside 1..4"),
            ("  2,3,  x ", 9, "not an index: 'x'"),
            ("1,,2", 3, "not an index: ''"),
            (" 3 , 1,3", 8, "duplicate index 3"),
        ],
    )
    def test_sparse_error_column_is_the_character_column(
        self, line, column, message, tmp_path
    ):
        target = tmp_path / "labels.txt"
        target.write_text(f"n=4\n{line}\n")
        with pytest.raises(ParseError) as exc:
            parse_labels(target)
        assert str(exc.value) == f"{target}:2:{column}: {message}"

    def test_sparse_bad_header(self, tmp_path):
        target = tmp_path / "labels.txt"
        target.write_text("n=zero\n1\n")
        with pytest.raises(ParseError):
            parse_labels(target)


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "scores.csv"
        target.write_text("0.5,0.25,-1.75\n0.125,2.0,3.5\n")
        arr = parse_scores(target)
        assert arr.shape == (2, 3)
        assert arr[1, 2] == 3.5

    def test_nonfinite_scores_rejected(self, tmp_path):
        target = tmp_path / "scores.csv"
        target.write_text("0.5,inf\n")
        with pytest.raises(ParseError):
            parse_scores(target)

    def test_ragged_scores_rejected(self, tmp_path):
        target = tmp_path / "scores.csv"
        target.write_text("0.5,0.25\n0.125\n")
        with pytest.raises(ParseError):
            parse_scores(target)


_VALID_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | (
    st.sampled_from(["0", "-0.0", "+2", "1e-3", " 1.5 ", "\t7", "3.\xa0"])
)
# Cells on which float() and np.loadtxt might disagree, or both refuse.
_ODD_CELLS = st.sampled_from(
    ["", " ", "1_0", "\uff11", "inf", "-inf", "nan", "1e500", "-1e-500",
     '"1"', "'1'", "#", "1#", "0x1", "1e", "1 2", "\x1f4", "\x00", "\ufeff1"]
)
_CELLS = st.integers(0, 9).flatmap(lambda i: _ODD_CELLS if i == 0 else _VALID_CELLS)
_BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\x0c", "\u2028"])


@st.composite
def _csv_texts(draw):
    """Mostly rectangular CSV text, with blank, whitespace-only and ragged
    lines, trailing commas and unusual line breaks mixed in."""
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        cells = draw(st.lists(_CELLS, min_size=width, max_size=width))
        kind = draw(
            st.sampled_from(["row"] * 16 + ["ragged", "comma", "blank", "space"])
        )
        lines.append(
            {
                "row": ",".join(cells),
                "ragged": ",".join(cells + cells[:1]),
                "comma": ",".join(cells) + ",",
                "blank": "",
                "space": " \t",
            }[kind]
        )
    text = ""
    for line in lines:
        text += line + draw(_BREAKS)
    if text and draw(st.booleans()):
        text = text[: -1]
    return text


def _per_cell(path, text):
    return np.array(reportio._parse_cells(path, text.splitlines()), dtype=np.float64)


def _outcome(parse):
    """The parsed array bit for bit (so -0.0 counts), or the error text."""
    try:
        arr = parse()
    except ParseError as exc:
        return "error", str(exc)
    return "ok", arr.shape, arr.view(np.int64).tolist()


@pytest.mark.filterwarnings("error")
class TestVectorizedParse:
    """The np.loadtxt fast path is an optimization only: on any text it
    gives the per-cell float() parse's array or its exact ParseError, and
    it never warns."""

    @settings(max_examples=400, deadline=None)
    @given(_csv_texts())
    def test_rows_match_the_per_cell_parse(self, text):
        fast = _outcome(lambda: reportio._parse_float_rows("data.csv", text))
        assert fast == _outcome(lambda: _per_cell("data.csv", text))

    @pytest.mark.parametrize(
        "parse", [parse_scores, lambda path: parse_matrix(path).entries]
    )
    @settings(max_examples=150, deadline=None)
    @given(text=_csv_texts())
    def test_parsers_match_the_per_cell_parse(self, parse, text):
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "data.csv"
            target.write_bytes(text.encode("utf-8"))
            fast = _outcome(lambda: parse(target))
            with mock.patch.object(reportio, "_parse_float_rows", _per_cell):
                assert fast == _outcome(lambda: parse(target))

    @pytest.mark.parametrize("text", ["\n", " \n\n", "1\n\n"])
    def test_blank_lines_are_reported_not_skipped(self, text):
        with pytest.raises(ParseError, match="blank line inside numeric data"):
            reportio._parse_float_rows("data.csv", text)

    def test_well_formed_text_skips_the_per_cell_parse(self, monkeypatch):
        def refuse(path, lines):
            raise AssertionError("per-cell parse used")

        monkeypatch.setattr(reportio, "_parse_cells", refuse)
        arr = reportio._parse_float_rows("data.csv", "1.5,-0.0\n2e3, 4 \n")
        assert arr.tolist() == [[1.5, -0.0], [2000.0, 4.0]]


class TestReportEnvelope:
    def _envelope(self):
        return ReportEnvelope(
            tool_version="0.1.0",
            command="count",
            config={"n": 6, "d": 3},
            timestamp=None,
            payload={"n": 6, "d": 3, "count": "32"},
        )

    def test_equal_envelopes_serialize_to_identical_bytes(self):
        assert self._envelope().to_json() == self._envelope().to_json()

    def test_text_ends_with_one_newline_and_sorts_keys(self):
        text = self._envelope().to_json()
        assert text.endswith("}\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)


class TestSchemas:
    def test_count_report_validates(self):
        env = ReportEnvelope(
            tool_version="0.1.0",
            command="count",
            config={},
            timestamp=None,
            payload={"n": 6, "d": 3, "count": "32"},
        )
        validate_report(json.loads(env.to_json()))

    def test_huge_counts_travel_as_strings(self):
        payload = {"n": 500, "d": 500, "count": str(2**500)}
        jsonschema.validate(payload, report_schema("count")["properties"]["payload"])

    def test_bad_payload_rejected(self):
        env = ReportEnvelope(
            tool_version="0.1.0",
            command="count",
            config={},
            timestamp=None,
            payload={"n": 6},
        )
        with pytest.raises(jsonschema.ValidationError):
            validate_report(json.loads(env.to_json()))

    def test_unknown_command_has_no_schema(self):
        with pytest.raises(KeyError):
            report_schema("transmogrify")

    def test_every_command_schema_is_itself_valid(self):
        for command in ("count", "check", "verify", "enumerate", "radii", "metrics"):
            jsonschema.Draft202012Validator.check_schema(report_schema(command))
