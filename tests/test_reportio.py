"""File formats: matrix CSV, sidecars, label files, score files, reports."""

import json
import math
import tempfile
import warnings
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

from reference_impls import reference_dense_line


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

    @pytest.mark.parametrize(
        "sidecar, fields",
        [
            ({"n": 2, "k": 1, "s": 0, "seed": 0}, ["k", "s", "seed"]),
            ({"n": 2, "k": 1, "s": 3, "seed": 7}, ["k", "s", "seed"]),
        ],
        ids=["flat-dft", "flat-slack"],
    )
    def test_flat_spectral_sidecar_shape_is_refused(self, sidecar, fields, tmp_path):
        # One sidecar shape: the flat {n, k, s, seed} of older spectral-layer
        # files is refused, naming the fields it does not know.
        target = tmp_path / "w.csv"
        target.write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "w.json").write_text(json.dumps(sidecar))
        with pytest.raises(ParseError) as exc:
            parse_matrix(target)
        assert str(exc.value) == (
            f"{tmp_path / 'w.json'}: unknown sidecar fields {fields}; "
            "a sidecar holds n, d, provenance"
        )

    @pytest.mark.parametrize(
        "sidecar, fields",
        [
            ({"k": 2.5}, ["k"]),
            ({"k": True}, ["k"]),
            ({"k": "abc"}, ["k"]),
            ({"k": 1, "s": 0, "seed": "abc"}, ["k", "s", "seed"]),
            ({"n": 2, "d": 2, "s": 2.0}, ["s"]),
            ({"seed": 1.5, "provenance": {"kind": "random"}}, ["seed"]),
        ],
    )
    def test_sidecar_fields_outside_the_written_shape_are_refused(
        self, sidecar, fields, tmp_path
    ):
        target = tmp_path / "w.csv"
        target.write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "w.json").write_text(json.dumps(sidecar))
        with pytest.raises(ParseError) as exc:
            parse_matrix(target)
        assert f"unknown sidecar fields {fields}" in str(exc.value)

    @pytest.mark.parametrize(
        "sidecar, message",
        [
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
        (tmp_path / "w.json").write_text(json.dumps({"n": 5, "d": 2}))
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

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="+-\u2212x7 ", min_size=1, max_size=24).filter(str.strip),
        st.none() | st.integers(1, 24),
    )
    def test_dense_lines_match_the_per_character_parser(self, line, expected_n):
        # Either both parsers give the same signs or the same error text.
        try:
            got = reportio._parse_dense_line("f.txt", line, 3, expected_n).signs.tolist()
        except ParseError as exc:
            got = str(exc)
        assert got == reference_dense_line("f.txt", line, 3, expected_n)

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
_BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\u2028"])


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


def _per_cell(path):
    """The whole text's lines through the per-cell parse: the reference."""
    lines = reportio._read_text(path).splitlines()
    return np.array(reportio._parse_cells(path, lines), dtype=np.float64)


def _strict(parse, *args):
    """``parse(*args)`` with every warning raised as an error.  Scoped to
    the call, so it does not catch warnings from Hypothesis's reporting."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return parse(*args)


def _outcome(parse):
    """The parsed array bit for bit (so -0.0 counts), or the error text;
    a warning from the parse is an error."""
    try:
        arr = _strict(parse)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", arr.shape, arr.view(np.int64).tolist()


def _write(directory, text, name="data.csv"):
    target = Path(directory) / name
    target.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return target


def _wide_rows(count, width=40, seed=3):
    """Score lines of shortest round-trip floats, about 0.8 KB each."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, width)) * 10.0 ** rng.integers(-5, 5, (count, 1))
    return [",".join(repr(float(v)) for v in row) for row in rows]


def _rows_past_one_block():
    """Lines of a file larger than one block, with the first block's
    boundary falling inside a line."""
    lines = _wide_rows(3 * reportio._BLOCK_BYTES // 800)
    text = "\n".join(lines) + "\n"
    assert len(text) > 2 * reportio._BLOCK_BYTES
    assert text[reportio._BLOCK_BYTES - 1] != "\n"
    return lines


def _refuse(*args):
    raise AssertionError("whole text read")


def _outcome_and_reads(target, monkeypatch):
    """The fast parse's outcome, and the paths it read as whole text."""
    read_text, read = reportio._read_text, []
    monkeypatch.setattr(
        reportio, "_read_text", lambda path: read.append(path) or read_text(path)
    )
    try:
        return _outcome(lambda: reportio._parse_float_rows(target)), read
    finally:
        monkeypatch.undo()


class TestVectorizedParse:
    """The block-streamed np.loadtxt path is an optimization only: on any
    file it gives the per-cell float() parse's array or its exact
    ParseError, and it never warns."""

    @pytest.mark.parametrize("block", [1, 5, None])
    @settings(max_examples=400, deadline=None)
    @given(text=_csv_texts())
    def test_rows_match_the_per_cell_parse(self, block, text):
        # Tiny blocks put a seam inside nearly every line and character.
        size = block or reportio._BLOCK_BYTES
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            reportio, "_BLOCK_BYTES", size
        ):
            target = _write(tmp, text)
            fast = _outcome(lambda: reportio._parse_float_rows(target))
            assert fast == _outcome(lambda: _per_cell(target))

    @pytest.mark.parametrize(
        "parse", [parse_scores, lambda path: parse_matrix(path).entries]
    )
    @settings(max_examples=150, deadline=None)
    @given(text=_csv_texts())
    def test_parsers_match_the_per_cell_parse(self, parse, text):
        with tempfile.TemporaryDirectory() as tmp:
            target = _write(tmp, text)
            fast = _outcome(lambda: parse(target))
            with mock.patch.object(reportio, "_parse_float_rows", _per_cell):
                assert fast == _outcome(lambda: parse(target))

    @pytest.mark.parametrize("text", ["\n", " \n\n", "1\n\n"])
    def test_blank_lines_are_reported_not_skipped(self, text, tmp_path):
        with pytest.raises(ParseError, match="blank line inside numeric data"):
            _strict(reportio._parse_float_rows, _write(tmp_path, text))

    def test_well_formed_text_skips_the_per_cell_parse(self, monkeypatch, tmp_path):
        def refuse(path, lines):
            raise AssertionError("per-cell parse used")

        monkeypatch.setattr(reportio, "_parse_cells", refuse)
        monkeypatch.setattr(reportio, "_read_text", _refuse)
        target = _write(tmp_path, "1.5,-0.0\n2e3, 4 \n")
        arr = _strict(reportio._parse_float_rows, target)
        assert arr.tolist() == [[1.5, -0.0], [2000.0, 4.0]]

    @pytest.mark.parametrize("ending", ["\n", ""])
    def test_lines_across_block_seams_stream(self, ending, monkeypatch, tmp_path):
        lines = _rows_past_one_block()
        target = _write(tmp_path, "\n".join(lines) + ending)
        expected = _outcome(lambda: _per_cell(target))
        monkeypatch.setattr(reportio, "_read_text", _refuse)
        assert _outcome(lambda: reportio._parse_float_rows(target)) == expected
        assert expected[1] == (len(lines), 40)

    @pytest.mark.parametrize("offset", [-2, -1, 0])
    def test_blank_line_at_a_block_seam_is_reported(self, offset, tmp_path):
        # A line break padded out to the first block's last bytes or the
        # second's first, then a blank line right after it: the two
        # breaks sit in the first block, straddle the seam, or open the
        # second block.
        text = "\n".join(_rows_past_one_block()) + "\n"
        at = reportio._BLOCK_BYTES + offset
        end = text.rfind("\n", 0, at)
        text = text[:end] + " " * (at - end) + "\n\n" + text[end + 1 :]
        assert text[at : at + 2] == "\n\n"
        target = _write(tmp_path, text)
        line = text[: at + 1].count("\n") + 1
        with pytest.raises(ParseError) as err:
            _strict(reportio._parse_float_rows, target)
        assert str(err.value) == f"{target}:{line}: blank line inside numeric data"
        assert _outcome(lambda: _per_cell(target)) == ("error", str(err.value))

    @pytest.mark.parametrize(
        "ch",
        [
            c
            for c in map(chr, range(0x110000))
            if c not in "\n\r" and len(f"1{c}2".splitlines()) > 1
        ]
        + ["\x1f"],
    )
    def test_other_breaks_and_x1f_read_the_whole_text(self, ch, tmp_path, monkeypatch):
        # Every line break splitlines() knows besides "\n" and "\r", and
        # "\x1f", sends the file to the per-cell parse of its whole text,
        # wherever it sits.
        lines = _rows_past_one_block()
        for text in (f"1,2{ch}\n3,4\n", "\n".join(lines) + ch + "\n"):
            target = _write(tmp_path, text)
            expected = _outcome(lambda: _per_cell(target))
            assert _outcome_and_reads(target, monkeypatch) == (expected, [target])

    @pytest.mark.parametrize(
        "brk, streams",
        [("\r\n", True), ("\r", False), ("\n\r", False)],
        ids=["crlf", "lone", "opening"],
    )
    def test_a_carriage_return_streams_only_at_a_line_end(
        self, brk, streams, tmp_path, monkeypatch
    ):
        # np.loadtxt ends a row at a trailing "\r"; one anywhere else in a
        # line, in the first block or a later one, reads the whole text.
        lines = _rows_past_one_block()
        later = "\n".join(lines[:-2]) + "\n"
        for head, (first, second) in (("", ("1,2", "3,4")), (later, lines[-2:])):
            target = _write(tmp_path, head + first + brk + second + "\n")
            expected = _outcome(lambda: _per_cell(target))
            reads = [] if streams else [target]
            assert _outcome_and_reads(target, monkeypatch) == (expected, reads)

    def test_invalid_utf8_in_a_later_block(self, tmp_path):
        lines = _rows_past_one_block()
        data = ("\n".join(lines[:-1]) + "\n").encode() + b"\xff" + lines[-1].encode()
        target = _write(tmp_path, data)
        with pytest.raises(ParseError) as whole:
            reportio._read_text(target)
        assert str(whole.value) == (
            f"{target}:{len(lines)}: not UTF-8: byte 0xff (invalid start byte)"
        )
        for parse in (reportio._parse_float_rows, parse_scores):
            with pytest.raises(ParseError) as fast:
                _strict(parse, target)
            assert str(fast.value) == str(whole.value)

    @pytest.mark.parametrize("size", ["small", "past one block"])
    def test_crlf_endings_give_the_lf_array(self, size, tmp_path, monkeypatch):
        lines = _wide_rows(3) if size == "small" else _rows_past_one_block()
        lf = _write(tmp_path, "\n".join(lines) + "\n", "lf.csv")
        crlf = _write(tmp_path, "\r\n".join(lines) + "\r\n", "crlf.csv")
        bare = _write(tmp_path, "\n".join(lines), "bare.csv")
        expected = _outcome(lambda: reportio._parse_float_rows(lf))
        assert expected[0] == "ok"
        monkeypatch.setattr(reportio, "_read_text", _refuse)
        for target in (crlf, bare):
            assert _outcome(lambda: reportio._parse_float_rows(target)) == expected

    def test_empty_file(self, tmp_path):
        target = _write(tmp_path, "")
        with pytest.raises(ParseError) as err:
            _strict(reportio._parse_float_rows, target)
        assert str(err.value) == f"{target}: empty file"


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_float_is_refused_not_written(self, value):
        # NaN and Infinity are not JSON; a report must never carry them.
        envelope = ReportEnvelope(
            tool_version="0.1.0",
            command="check",
            config={"tau_det": value},
            timestamp=None,
            payload={},
        )
        with pytest.raises(ValueError):
            envelope.to_json()


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
