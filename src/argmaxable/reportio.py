"""Canonical file formats: matrix CSV, label files, score files, reports.

Everything other tools exchange with this package flows through here, so
the formats are deliberately small (see FORMATS.md for the normative
description):

* matrices: plain CSV of decimal floats, no header, one row per line,
  with an optional JSON sidecar (same path, .json suffix) carrying shape
  and provenance;
* label files: dense lines of '+'/'-' characters, or sparse lines of
  1-based active indices under an ``n=<count>`` header line;
* score files: CSV of floats, one record per line;
* reports: a versioned JSON envelope with sorted keys and fixed
  indentation, so identical content is byte-identical on disk.

Floats are serialized in shortest round-trip decimal form; parse errors
carry path/line/column diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .labelspace import LabelAssignment
from .linalg import Provenance, WeightMatrix

__all__ = [
    "ParseError",
    "ReportEnvelope",
    "SCHEMA_VERSION",
    "parse_matrix",
    "serialize_matrix",
    "parse_labels",
    "serialize_labels",
    "parse_scores",
    "report_schema",
    "SIDECAR_SCHEMAS",
    "validate_report",
]

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """A file failed to parse; str() includes path, line, and column."""

    def __init__(
        self,
        path: Union[str, Path],
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ):
        self.path = str(path)
        self.line = line
        self.column = column
        where = self.path
        if line is not None:
            where += f":{line}"
            if column is not None:
                where += f":{column}"
        super().__init__(f"{where}: {message}")


def _read_text(path: Union[str, Path]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, f"cannot read file: {exc.strerror or exc}")


def _parse_float_rows(path: Union[str, Path], text: str) -> np.ndarray:
    """Parse rectangular CSV text of floats into a float64 array.

    The happy path is one C-level ``np.loadtxt`` pass.  Its cells go
    through the same ``PyOS_string_to_double`` as ``float()``, but it
    strips ``\\x1f`` around a cell where ``float()`` does not, and it
    rejects some cells ``float()`` accepts (``1_0``, non-ASCII digits).
    It also skips blank lines (and warns when nothing is left), so its
    array is taken only when no line is blank, no ``\\x1f`` occurs and
    the shape is one row per line.  Anything else re-reads the text cell
    by cell, which either produces the array or raises the ParseError
    that names the first bad line and column.
    """
    lines = text.splitlines()
    if lines and "\x1f" not in text and all(line.strip() for line in lines):
        try:
            arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if arr.shape == (len(lines), lines[0].count(",") + 1):
                return arr
    return np.array(_parse_cells(path, lines), dtype=np.float64)


def _parse_cells(path: Union[str, Path], lines: list[str]) -> list[list[float]]:
    """The per-cell parse with ``float()``; the reference for every error
    message and for any cell the vectorized path does not take."""
    rows: list[list[float]] = []
    width: Optional[int] = None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            raise ParseError(path, "blank line inside numeric data", line=line_no)
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                path,
                f"row has {len(cells)} cells, expected {width}",
                line=line_no,
            )
        row = []
        for col_no, cell in enumerate(cells, start=1):
            try:
                row.append(float(cell))
            except ValueError:
                raise ParseError(
                    path,
                    f"not a number: {cell.strip()!r}",
                    line=line_no,
                    column=col_no,
                )
        rows.append(row)
    if not rows:
        raise ParseError(path, "empty file")
    return rows


def _sidecar_path(path: Union[str, Path]) -> Path:
    return Path(path).with_suffix(".json")


def _provenance_from_sidecar(path: Path, obj: dict, n: int, d: int) -> Provenance:
    if not isinstance(obj, dict):
        raise ParseError(path, "sidecar must be a JSON object")
    declared_n = obj.get("n")
    if declared_n is not None and declared_n != n:
        raise ParseError(path, f"sidecar says n={declared_n}, CSV has n={n}")
    declared_d = obj.get("d")
    if declared_d is not None and declared_d != d:
        raise ParseError(path, f"sidecar says d={declared_d}, CSV has d={d}")
    if "provenance" in obj:
        try:
            return Provenance.from_json(obj["provenance"])
        except ValueError as exc:
            raise ParseError(path, str(exc))
    if "k" in obj:
        # Spectral-layer sidecar shape: {n, k, s, seed}.
        k = obj["k"]
        s = obj.get("s", 0)
        seed = obj.get("seed", 0)
        if s:
            return Provenance.dft_with_slack(k=k, s=s, seed=seed)
        return Provenance.dft(k=k)
    return Provenance.random(seed=obj.get("seed"))


def parse_matrix(path: Union[str, Path]) -> WeightMatrix:
    """Read a weight matrix from CSV, with provenance from the JSON
    sidecar (same path, .json suffix) when one exists."""
    entries = _parse_float_rows(path, _read_text(path))
    provenance = Provenance.random()
    sidecar = _sidecar_path(path)
    if sidecar.exists() and sidecar != Path(path):
        try:
            obj = json.loads(sidecar.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(sidecar, f"unreadable sidecar: {exc}")
        provenance = _provenance_from_sidecar(
            sidecar, obj, entries.shape[0], entries.shape[1]
        )
    try:
        return WeightMatrix(entries, provenance=provenance)
    except ValueError as exc:
        raise ParseError(path, str(exc))


def serialize_matrix(
    w: WeightMatrix, path: Union[str, Path], sidecar: bool = True
) -> None:
    """Write a matrix as CSV (shortest round-trip floats) plus, by
    default, the {n, d, provenance} JSON sidecar."""
    lines = [
        ",".join(repr(float(v)) for v in row) for row in w.entries
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if sidecar:
        meta = {"n": w.n, "d": w.d, "provenance": w.provenance.to_json()}
        _sidecar_path(path).write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


_DENSE_CHARS = {"+", "-", "−"}


def _parse_dense_line(
    path: Union[str, Path], line: str, line_no: int, expected_n: Optional[int]
) -> LabelAssignment:
    for col_no, ch in enumerate(line, start=1):
        if ch not in _DENSE_CHARS:
            hint = ""
            if ch.isdigit():
                hint = " (sparse files need an n=<count> header line)"
            raise ParseError(
                path,
                f"illegal character {ch!r} in dense assignment{hint}",
                line=line_no,
                column=col_no,
            )
    if expected_n is not None and len(line) != expected_n:
        raise ParseError(
            path,
            f"assignment has {len(line)} labels, expected {expected_n}",
            line=line_no,
        )
    return LabelAssignment.from_dense(line)


def _parse_sparse_line(
    path: Union[str, Path], line: str, line_no: int, n: int
) -> LabelAssignment:
    stripped = line.strip()
    if not stripped:
        return LabelAssignment.from_active(n, ())
    seen: set[int] = set()
    for col_no, token in enumerate(stripped.split(","), start=1):
        token = token.strip()
        try:
            idx = int(token)
        except ValueError:
            raise ParseError(
                path, f"not an index: {token!r}", line=line_no, column=col_no
            )
        if not 1 <= idx <= n:
            raise ParseError(
                path,
                f"index {idx} outside 1..{n}",
                line=line_no,
                column=col_no,
            )
        if idx in seen:
            raise ParseError(
                path, f"duplicate index {idx}", line=line_no, column=col_no
            )
        seen.add(idx)
    return LabelAssignment.from_active(n, sorted(seen))


def parse_labels(path: Union[str, Path]) -> list[LabelAssignment]:
    """Read a label file: dense lines ('+'/'-' per label), or sparse lines
    of 1-based active indices under a leading ``n=<count>`` header.

    In sparse mode a blank line is the all-inactive assignment.  In dense
    mode every line must have the same length as the first.
    """
    text = _read_text(path)
    lines = text.splitlines()
    if not lines:
        raise ParseError(path, "empty file")
    header = lines[0].strip()
    out: list[LabelAssignment] = []
    if header.startswith("n="):
        try:
            n = int(header[2:])
        except ValueError:
            raise ParseError(path, f"bad header {header!r}", line=1)
        if n < 1:
            raise ParseError(path, f"header n={n} must be >= 1", line=1)
        for line_no, line in enumerate(lines[1:], start=2):
            out.append(_parse_sparse_line(path, line, line_no, n))
        return out
    expected: Optional[int] = None
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            raise ParseError(
                path, "blank line in dense label file", line=line_no
            )
        out.append(_parse_dense_line(path, stripped, line_no, expected))
        expected = out[-1].n
    return out


def serialize_labels(
    assignments: Sequence[LabelAssignment], sparse: bool = False
) -> str:
    """Render assignments as file text in dense or sparse form."""
    if not assignments:
        raise ValueError("no assignments to serialize")
    if not sparse:
        return "\n".join(y.to_dense() for y in assignments) + "\n"
    n = assignments[0].n
    for y in assignments:
        if y.n != n:
            raise ValueError("sparse form needs one shared n")
    lines = [f"n={n}"]
    for y in assignments:
        lines.append(",".join(str(i) for i in y.active_indices()))
    return "\n".join(lines) + "\n"


def parse_scores(path: Union[str, Path]) -> np.ndarray:
    """Read a score file: CSV of floats, one record per line, rectangular."""
    arr = _parse_float_rows(path, _read_text(path))
    if not np.all(np.isfinite(arr)):
        raise ParseError(path, "scores must be finite")
    return arr


@dataclass(frozen=True)
class ReportEnvelope:
    """Versioned wrapper around every JSON report.

    ``timestamp`` is an ISO-8601 string or None (deterministic mode);
    ``config`` snapshots the flags that produced the payload.  Rendering
    sorts keys and fixes indentation, so equal envelopes serialize to
    identical bytes.
    """

    tool_version: str
    command: str
    config: dict
    timestamp: Optional[str]
    payload: dict

    def to_json(self) -> str:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "command": self.command,
            "config": self.config,
            "timestamp": self.timestamp,
            "payload": self.payload,
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReportEnvelope":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad report JSON: {exc}")
        if not isinstance(obj, dict):
            raise ValueError("report must be a JSON object")
        version = obj.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
            )
        missing = {
            "tool_version",
            "command",
            "config",
            "timestamp",
            "payload",
        } - set(obj)
        if missing:
            raise ValueError(f"report missing fields {sorted(missing)}")
        return cls(
            tool_version=obj["tool_version"],
            command=obj["command"],
            config=obj["config"],
            timestamp=obj["timestamp"],
            payload=obj["payload"],
        )


_STATUS_STRINGS = ["argmaxable", "not_eps_argmaxable", "indeterminate"]
_METHOD_STRINGS = ["exact-2d", "sampled-complete", "sampled-partial"]

_PAYLOAD_SCHEMAS: dict[str, dict] = {
    "count": {
        "type": "object",
        "required": ["n", "d", "count"],
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "d": {"type": "integer", "minimum": 1},
            # Counts can exceed 2^53, so they travel as decimal strings.
            "count": {"type": "string", "pattern": "^[0-9]+$"},
        },
        "additionalProperties": False,
    },
    "check": {
        "type": "object",
        "required": [
            "n",
            "d",
            "verdict",
            "min_abs_minor",
            "checked_minors",
            "general_position",
        ],
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "d": {"type": "integer", "minimum": 1},
            "verdict": {
                "enum": [
                    "uniform-positive",
                    "uniform-negative",
                    "mixed-signs",
                    "degenerate",
                ]
            },
            "min_abs_minor": {"type": "number"},
            "checked_minors": {"type": "integer", "minimum": 0},
            "general_position": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "required": ["matrix", "results", "summary"],
        "properties": {
            "matrix": {
                "type": "object",
                "required": ["n", "d", "provenance"],
                "properties": {
                    "n": {"type": "integer", "minimum": 1},
                    "d": {"type": "integer", "minimum": 1},
                    "provenance": {"type": "object"},
                },
                "additionalProperties": False,
            },
            "results": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["index", "status", "radius", "seconds"],
                    "properties": {
                        "index": {"type": "integer", "minimum": 0},
                        "status": {"enum": _STATUS_STRINGS},
                        "radius": {"type": ["number", "null"]},
                        "seconds": {"type": "number"},
                        "reason": {"type": "string"},
                    },
                    "additionalProperties": False,
                },
            },
            "summary": {
                "type": "object",
                "required": [
                    "argmaxable",
                    "one_argmaxable",
                    "not_eps",
                    "indeterminate",
                ],
                "properties": {
                    "argmaxable": {"type": "integer", "minimum": 0},
                    "one_argmaxable": {"type": "integer", "minimum": 0},
                    "not_eps": {"type": "integer", "minimum": 0},
                    "indeterminate": {"type": "integer", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
    "enumerate": {
        "type": "object",
        "required": ["n", "d", "method", "count", "members"],
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "d": {"type": "integer", "minimum": 1},
            "method": {"enum": _METHOD_STRINGS},
            "count": {"type": "integer", "minimum": 0},
            "members": {"type": "array", "items": {"type": "string"}},
            "samples_used": {"type": "integer", "minimum": 0},
            "boundary_skips": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "radii": {
        "type": "object",
        "required": ["family", "percentiles", "members", "summary"],
        "properties": {
            "family": {
                "type": "object",
                "required": ["n", "k", "kind"],
                "properties": {
                    "n": {"type": "integer", "minimum": 1},
                    "k": {"type": "integer", "minimum": 0},
                    "kind": {"enum": ["active", "alternating"]},
                },
                "additionalProperties": False,
            },
            "percentiles": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["percentile", "radius"],
                    "properties": {
                        "percentile": {"type": "number"},
                        "radius": {"type": "number"},
                    },
                    "additionalProperties": False,
                },
            },
            "members": {"type": "integer", "minimum": 0},
            "summary": {
                "type": "object",
                "required": ["argmaxable", "not_eps", "indeterminate"],
                "properties": {
                    "argmaxable": {"type": "integer", "minimum": 0},
                    "not_eps": {"type": "integer", "minimum": 0},
                    "indeterminate": {"type": "integer", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
    "metrics": {
        "type": "object",
        "required": ["records", "at_k", "micro_f1", "macro_f1"],
        "properties": {
            "records": {"type": "integer", "minimum": 1},
            "at_k": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["k", "prec", "rec", "f1", "ndcg"],
                    "properties": {
                        "k": {"type": "integer", "minimum": 1},
                        "prec": {"type": "number"},
                        "rec": {"type": "number"},
                        "f1": {"type": "number"},
                        "ndcg": {"type": ["number", "null"]},
                    },
                    "additionalProperties": False,
                },
            },
            "micro_f1": {"type": "number"},
            "macro_f1": {"type": "number"},
            "zero_support_labels": {"type": "integer", "minimum": 0},
            "empty_gold_records": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
}


# The spectral-layer subcommand writes its matrix metadata as a flat
# sidecar rather than a report envelope; the general matrix sidecar
# carries shape plus provenance.  Both shapes are accepted on read.
SIDECAR_SCHEMAS: dict[str, dict] = {
    "dft": {
        "type": "object",
        "required": ["n", "k", "s", "seed"],
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "k": {"type": "integer", "minimum": 1},
            "s": {"type": "integer", "minimum": 0},
            "seed": {"type": "integer"},
        },
        "additionalProperties": False,
    },
    "matrix": {
        "type": "object",
        "required": ["n", "d", "provenance"],
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "d": {"type": "integer", "minimum": 1},
            "provenance": {
                "type": "object",
                "required": ["kind"],
                "properties": {
                    "kind": {"enum": ["random", "dft", "dft+slack"]},
                    "k": {"type": "integer", "minimum": 1},
                    "s": {"type": "integer", "minimum": 0},
                    "seed": {"type": "integer"},
                },
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
}


def report_schema(command: str) -> dict:
    """JSON schema for a full report envelope of the given command."""
    if command not in _PAYLOAD_SCHEMAS:
        raise KeyError(f"no schema for command {command!r}")
    return {
        "type": "object",
        "required": [
            "schema_version",
            "tool_version",
            "command",
            "config",
            "timestamp",
            "payload",
        ],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "tool_version": {"type": "string"},
            "command": {"const": command},
            "config": {"type": "object"},
            "timestamp": {"type": ["string", "null"]},
            "payload": _PAYLOAD_SCHEMAS[command],
        },
        "additionalProperties": False,
    }


def validate_report(obj: dict) -> None:
    """Validate a parsed report against its command's schema.  Needs the
    optional jsonschema package (a test dependency, not a runtime one)."""
    import jsonschema

    command = obj.get("command")
    jsonschema.validate(obj, report_schema(command))
