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

import functools
import itertools
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .labelspace import FamilyKind, LabelAssignment, dense_signs
from .linalg import GrVerdict, Provenance, WeightMatrix

__all__ = [
    "ParseError",
    "ReportEnvelope",
    "SCHEMA_VERSION",
    "parse_matrix",
    "matrix_csv",
    "serialize_matrix",
    "parse_labels",
    "parse_scores",
    "report_schema",
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
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, f"not UTF-8: byte {byte:#04x} ({exc.reason})", line=line)


# Characters read from a numeric file at a time: one block's lines are
# all the text the streamed parse holds.
_BLOCK_BYTES = 1 << 16

# The characters that send a file to the per-cell parse: every line
# break str.splitlines() knows besides "\n", "\r\n" and "\r", and the
# "\x1f" that np.loadtxt strips around a cell where float() does not.
_PER_CELL_CHARS = (
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"
)


def _parse_float_rows(path: Union[str, Path]) -> np.ndarray:
    """Parse a rectangular CSV file of floats into a float64 array.

    The happy path streams the file's lines, in blocks, through one
    C-level ``np.loadtxt`` pass, so it holds the array and one block of
    text.  Its cells go through the same ``PyOS_string_to_double`` as
    ``float()``, but it strips ``\\x1f`` around a cell where ``float()``
    does not, it rejects some cells ``float()`` accepts (``1_0``,
    non-ASCII digits), and it skips blank lines.  So its array is taken
    only from a UTF-8 file with no blank line and no ``_PER_CELL_CHARS``
    character, and only when it has one row per line.  Any other file,
    an empty one included, goes to the per-cell parse of its whole text.
    """
    rows: list[int] = []
    try:
        blocks = _line_blocks(path, rows)
        head = next(blocks, None)
        if head is not None:
            lines = itertools.chain(head, itertools.chain.from_iterable(blocks))
            arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if arr.shape == (sum(rows), head[0].count(",") + 1):
                return arr
    except (OSError, ValueError):  # UnicodeDecodeError included
        pass
    lines = _read_text(path).splitlines()
    return np.array(_parse_cells(path, lines), dtype=np.float64)


def _line_blocks(path: Union[str, Path], rows: list[int]) -> Iterator[list[str]]:
    """A file's lines, one list per block of about ``_BLOCK_BYTES``
    characters, with each list's length appended to ``rows``.

    Universal newlines end a line at ``\\n``, ``\\r\\n`` or ``\\r``, which
    is where ``str.splitlines()`` ends one in a text free of
    ``_PER_CELL_CHARS``.  Raises ValueError at the first block that needs
    the per-cell parse: one holding such a character or a blank or
    whitespace-only line, or invalid UTF-8.
    """
    with open(path, encoding="utf-8") as fh:
        while lines := fh.readlines(_BLOCK_BYTES):
            text = "".join(lines)
            if any(ch in text for ch in _PER_CELL_CHARS):
                raise ValueError("needs the per-cell parse")
            if not all(map(str.strip, lines)):
                raise ValueError("blank line")
            rows.append(len(lines))
            yield lines


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
    extra = sorted(set(obj) - {"n", "d", "provenance"})
    if extra:
        raise ParseError(
            path, f"unknown sidecar fields {extra}; a sidecar holds n, d, provenance"
        )
    declared_n = obj.get("n")
    if declared_n is not None and declared_n != n:
        raise ParseError(path, f"sidecar says n={declared_n}, CSV has n={n}")
    declared_d = obj.get("d")
    if declared_d is not None and declared_d != d:
        raise ParseError(path, f"sidecar says d={declared_d}, CSV has d={d}")
    if "provenance" not in obj:
        return Provenance()
    try:
        return Provenance.from_json(obj["provenance"])
    except ValueError as exc:
        raise ParseError(path, str(exc))


def parse_matrix(path: Union[str, Path]) -> WeightMatrix:
    """Read a weight matrix from CSV, with provenance from the JSON
    sidecar (same path, .json suffix) when one exists."""
    entries = _parse_float_rows(path)
    provenance = Provenance()
    sidecar = _sidecar_path(path)
    if sidecar.exists() and sidecar != Path(path):
        try:
            obj = json.loads(sidecar.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # JSON or UTF-8 decoding included
            raise ParseError(sidecar, f"unreadable sidecar: {exc}")
        provenance = _provenance_from_sidecar(
            sidecar, obj, entries.shape[0], entries.shape[1]
        )
    try:
        return WeightMatrix(entries, provenance=provenance)
    except ValueError as exc:
        raise ParseError(path, str(exc))


def matrix_csv(w: WeightMatrix) -> str:
    """A matrix as CSV text, one row per line, shortest round-trip floats."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in w.entries)


def serialize_matrix(w: WeightMatrix, path: Union[str, Path]) -> None:
    """Write a matrix as CSV plus its {n, d, provenance} JSON sidecar.

    Raises ValueError, before writing anything, when the sidecar path is
    the CSV path itself (a ``.json`` target).
    """
    sidecar = _sidecar_path(path)
    if sidecar == Path(path):
        raise ValueError(f"{path}: a .json matrix path would be its own sidecar")
    Path(path).write_text(matrix_csv(w), encoding="utf-8")
    meta = {"n": w.n, "d": w.d, "provenance": w.provenance.to_json()}
    sidecar.write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _parse_dense_line(
    path: Union[str, Path], line: str, line_no: int, expected_n: Optional[int]
) -> LabelAssignment:
    """One dense line, without its surrounding whitespace; a column in an
    error counts from the start of the raw line."""
    indent = len(line) - len(line.lstrip())
    line = line.strip()
    signs = dense_signs(line)
    if not signs.all():
        i = int(np.argmin(signs != 0))
        ch, hint = line[i], " (sparse files need an n=<count> header line)"
        message = f"illegal character {ch!r} in dense assignment"
        message += hint if ch.isdigit() else ""
        raise ParseError(path, message, line=line_no, column=indent + 1 + i)
    if expected_n is not None and len(line) != expected_n:
        raise ParseError(
            path,
            f"assignment has {len(line)} labels, expected {expected_n}",
            line=line_no,
        )
    return LabelAssignment(signs)


def _parse_sparse_line(
    path: Union[str, Path], line: str, line_no: int, n: int
) -> LabelAssignment:
    """One sparse line; a column in an error counts from the start of the raw line."""
    if not line.strip():
        return LabelAssignment.from_active(n, ())
    seen: set[int] = set()
    col_no = 1
    for cell in line.split(","):
        body = cell.lstrip()
        col_no += len(cell) - len(body)
        try:
            idx = int(body)
        except ValueError:
            raise ParseError(
                path, f"not an index: {body.rstrip()!r}", line=line_no, column=col_no
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
        col_no += len(body) + 1
    return LabelAssignment.from_active(n, sorted(seen))


def parse_labels(
    path: Union[str, Path], n: Optional[int] = None
) -> list[LabelAssignment]:
    """Read a label file: dense lines ('+'/'-' per label), or sparse lines
    of 1-based active indices under a leading ``n=<count>`` header.

    In sparse mode a blank line is the all-inactive assignment.  In dense
    mode every line must have the same length as the first.  With ``n``
    given, every assignment must have n labels: a header or line of
    another width is a ParseError naming its line.
    """
    expected = n
    lines = _read_text(path).splitlines()
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
        if expected is not None and n != expected:
            raise ParseError(path, f"header n={n}, expected n={expected}", line=1)
        for line_no, line in enumerate(lines[1:], start=2):
            out.append(_parse_sparse_line(path, line, line_no, n))
        return out
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            raise ParseError(
                path, "blank line in dense label file", line=line_no
            )
        out.append(_parse_dense_line(path, line, line_no, expected))
        expected = out[-1].n
    return out


def parse_scores(path: Union[str, Path]) -> np.ndarray:
    """Read a score file: CSV of floats, one record per line, rectangular."""
    arr = _parse_float_rows(path)
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
        obj = {"schema_version": SCHEMA_VERSION, **vars(self)}
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _object(fields: dict, optional: Optional[dict] = None) -> dict:
    """A closed JSON object: every field in ``fields`` is required, in
    order, and those in ``optional`` may follow them."""
    return {
        "type": "object",
        "required": list(fields),
        "properties": {**fields, **(optional or {})},
        "additionalProperties": False,
    }


def _enum(kind: type[Enum]) -> dict:
    return {"enum": [member.value for member in kind]}


def _array(items: dict) -> dict:
    return {"type": "array", "items": items}


_POSITIVE = {"type": "integer", "minimum": 1}
_COUNT = {"type": "integer", "minimum": 0}
_NUMBER = {"type": "number"}


@functools.cache
def _payload_schemas() -> dict[str, dict]:
    """Each command's payload schema, built on the first call: the
    enums of verify and enumerate reports load oracle and verifier,
    which parsing and writing reports do not need."""
    from .oracle import EnumerationMethod
    from .verifier import VerifyStatus

    return {
        "count": _object(
            {
                "n": _POSITIVE,
                "d": _POSITIVE,
                # Counts can exceed 2^53, so they travel as decimal strings.
                "count": {"type": "string", "pattern": "^[0-9]+$"},
            }
        ),
        "check": _object(
            {
                "n": _POSITIVE,
                "d": _POSITIVE,
                "verdict": _enum(GrVerdict),
                "min_abs_minor": _NUMBER,
                "checked_minors": _COUNT,
                "general_position": {"type": "boolean"},
            }
        ),
        "verify": _object(
            {
                "matrix": _object(
                    {"n": _POSITIVE, "d": _POSITIVE, "provenance": {"type": "object"}}
                ),
                "results": _array(
                    _object(
                        {
                            "index": _COUNT,
                            "status": _enum(VerifyStatus),
                            "radius": {"type": ["number", "null"]},
                            "seconds": _NUMBER,
                        },
                        optional={"reason": {"type": "string"}},
                    )
                ),
                "summary": _object(
                    {
                        "argmaxable": _COUNT,
                        "one_argmaxable": _COUNT,
                        "not_eps": _COUNT,
                        "indeterminate": _COUNT,
                    }
                ),
            }
        ),
        "enumerate": _object(
            {
                "n": _POSITIVE,
                "d": _POSITIVE,
                "method": _enum(EnumerationMethod),
                "count": _COUNT,
                "members": _array({"type": "string"}),
            },
            optional={"samples_used": _COUNT, "boundary_skips": _COUNT},
        ),
        "radii": _object(
            {
                "family": _object(
                    {"n": _POSITIVE, "k": _COUNT, "kind": _enum(FamilyKind)}
                ),
                "percentiles": _array(
                    _object({"percentile": _NUMBER, "radius": _NUMBER})
                ),
                "members": _COUNT,
                "summary": _object(
                    {"argmaxable": _COUNT, "not_eps": _COUNT, "indeterminate": _COUNT}
                ),
            }
        ),
        "metrics": _object(
            {
                "records": _POSITIVE,
                "at_k": _array(
                    _object(
                        {
                            "k": _POSITIVE,
                            "prec": _NUMBER,
                            "rec": _NUMBER,
                            "f1": _NUMBER,
                            "ndcg": {"type": ["number", "null"]},
                        }
                    )
                ),
                "micro_f1": _NUMBER,
                "macro_f1": _NUMBER,
            },
            optional={"zero_support_labels": _COUNT, "empty_gold_records": _COUNT},
        ),
    }


def report_schema(command: str) -> dict:
    """JSON schema for a full report envelope of the given command."""
    schemas = _payload_schemas()
    if command not in schemas:
        raise KeyError(f"no schema for command {command!r}")
    return _object(
        {
            "schema_version": {"const": SCHEMA_VERSION},
            "tool_version": {"type": "string"},
            "command": {"const": command},
            "config": {"type": "object"},
            "timestamp": {"type": ["string", "null"]},
            "payload": schemas[command],
        }
    )


def validate_report(obj: dict) -> None:
    """Validate a parsed report against its command's schema.  Needs the
    optional jsonschema package (a test dependency, not a runtime one)."""
    import jsonschema

    command = obj.get("command")
    jsonschema.validate(obj, report_schema(command))
