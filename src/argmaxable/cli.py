"""Command-line entry point.

One executable, seven subcommands, deterministic exit codes:

    0  success
    1  usage error (bad flags, or a budget or --k flag the input cannot
       meet)
    2  input or parse error (bad files, bad data), or a size flag past
       what the machine can hold or Python can print
    3  verification found unargmaxable assignments
    4  verification produced indeterminate results

Codes 3 and 4 come only from ``verify``; 4 wins over 3 when both apply,
since an inconclusive run must not masquerade as a clean refusal.  All
reports are JSON envelopes written to --out ('-' for stdout); logs go to
stderr.  With --deterministic, timestamps are omitted and per-item wall
times zeroed, so identical inputs and seeds give byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from datetime import datetime, timezone
from enum import IntEnum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .dftlayer import DftSpec, build_layer
from .labelspace import (
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetError,
    FamilyKind,
    FamilySpec,
    cover_count,
    dense_strings,
)
from .linalg import (
    DEFAULT_MINOR_BUDGET,
    DEFAULT_TAU_DET,
    GrVerdict,
    MinorBudgetError,
    gr_plus_status,
)
# prec_rec_f1_at_k and ndcg_at_k are not called here; they stay importable
# from this module because bench/tracing.py wraps them by name.
from .metrics import (  # noqa: F401
    StackedRecords,
    metrics_at_k,
    micro_macro_f1,
    ndcg_at_k,
    prec_rec_f1_at_k,
)
from .oracle import DEFAULT_SAMPLE_BUDGET, enumerate_regions_sampled
from .reportio import (
    ParseError,
    ReportEnvelope,
    _sidecar_path,
    matrix_csv,
    parse_labels,
    parse_matrix,
    parse_scores,
    serialize_matrix,
)
from .verifier import DEFAULT_PERCENTILES, LpConfig, radius_report, verify_batch

__all__ = ["ExitCode", "run", "main", "build_parser"]


class ExitCode(IntEnum):
    OK = 0
    USAGE = 1
    INPUT = 2
    UNARGMAXABLE = 3
    INDETERMINATE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit(2); this CLI reserves 2 for
    input data, so flag problems are rerouted to exit code 1."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _lp_scale(text: str) -> float:
    """A value LpConfig takes as box_bound or eps_floor."""
    value = float(text)
    try:
        return LpConfig.valid_scale(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rank_list(text: str) -> list[int]:
    try:
        ranks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not ranks:
        raise argparse.ArgumentTypeError("needs at least one rank")
    if min(ranks) < 1:
        raise argparse.ArgumentTypeError(f"ranks must be >= 1, got {min(ranks)}")
    return ranks


def _percentile_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list: {text!r}")
    if not values or not all(0.0 <= v <= 100.0 for v in values):
        raise argparse.ArgumentTypeError(f"needs percentiles in [0, 100], got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="argmaxable",
        description=(
            "Certify label-assignment feasibility for low-rank sigmoid "
            "output layers, count and enumerate feasible regions, build "
            "spectral weight matrices, and score multi-label predictions."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    # Flags shared by several subcommands, each declared once.
    deterministic = argparse.ArgumentParser(add_help=False)
    deterministic.add_argument(
        "--deterministic",
        action="store_true",
        help="omit timestamps and wall times so identical inputs give "
        "byte-identical reports",
    )
    report = argparse.ArgumentParser(add_help=False, parents=[deterministic])
    report.add_argument("--out", default="-", help="report path (default stdout)")
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("--matrix", required=True, help="matrix CSV path")
    lp = argparse.ArgumentParser(add_help=False)
    for flag, default, text in (
        ("--eps", LpConfig.eps_floor, "smallest radius that counts as feasible; "
         "the solver's feasibility tolerance is a tenth of it, at least 1e-10"),
        ("--box", LpConfig.box_bound, "coordinate box bound for the witness"),
    ):
        help_text = text + " (default %(default)s)"
        lp.add_argument(flag, type=_lp_scale, default=default, help=help_text)
    lp.add_argument("--jobs", type=_positive_int, default=1, help="worker count")

    p = sub.add_parser(
        "count",
        parents=[deterministic],
        help="exact number of feasible sign regions of a generic n x d layer",
    )
    p.add_argument("--n", type=_positive_int, required=True, help="label count")
    p.add_argument("--d", type=_positive_int, required=True, help="input width")
    p.add_argument(
        "--out",
        default=None,
        help="write a JSON report here ('-' for stdout); default prints the bare count",
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "dft",
        help="write a truncated-DFT weight matrix (CSV + JSON sidecar)",
    )
    p.add_argument("--n", type=_positive_int, required=True, help="label count")
    p.add_argument("--k", type=_positive_int, required=True, help="frequency pairs")
    p.add_argument("--s", type=_nonneg_int, default=0, help="slack columns (default 0)")
    p.add_argument("--seed", type=_nonneg_int, default=0, help="slack RNG seed (default 0)")
    p.add_argument("--out", required=True, help="CSV path ('-' for stdout, no sidecar)")
    p.set_defaults(handler=_cmd_dft)

    p = sub.add_parser(
        "check",
        parents=[matrix, report],
        help="minor-sign scan: uniform / mixed / degenerate, plus general position",
    )
    p.add_argument(
        "--tau-det",
        type=_positive_float,
        default=DEFAULT_TAU_DET,
        help="relative degeneracy threshold for minors (default %(default)s)",
    )
    p.add_argument(
        "--minor-budget",
        type=_positive_int,
        default=DEFAULT_MINOR_BUDGET,
        help="refuse if C(n,d) exceeds this (default %(default)s)",
    )
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser(
        "verify",
        parents=[matrix, lp, report],
        help="LP-certify each assignment in a label file against a matrix",
    )
    p.add_argument("--labels", required=True, help="label file (dense or sparse)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "enumerate",
        parents=[matrix, report],
        help="enumerate the feasible sign vectors of a matrix",
    )
    p.add_argument(
        "--method",
        choices=("auto", "sampled"),
        default="auto",
        help="both values run the certificate-stopped great-circle sampler",
    )
    p.add_argument(
        "--budget",
        type=_nonneg_int,
        default=DEFAULT_SAMPLE_BUDGET,
        help=(
            "sampling budget in probes, the n arc midpoints of each random"
            " great circle (default %(default)s)"
        ),
    )
    p.add_argument("--seed", type=_nonneg_int, default=0, help="sampling seed (default 0)")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser(
        "radii",
        parents=[matrix, lp, report],
        help="Chebyshev radius percentiles over a whole assignment family",
    )
    p.add_argument(
        "--kind",
        choices=("active", "alternating"),
        required=True,
        help="family statistic: act(y) <= k or alt(y) <= k",
    )
    p.add_argument("--k", type=_nonneg_int, required=True, help="family bound k")
    p.add_argument(
        "--percentiles",
        type=_percentile_list,
        default=DEFAULT_PERCENTILES,
        help="comma-separated percentiles, default %(default)s",
    )
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_ENUMERATION_BUDGET,
        help="family enumeration budget (default %(default)s)",
    )
    p.set_defaults(handler=_cmd_radii)

    p = sub.add_parser(
        "metrics",
        parents=[report],
        help="ranked and thresholded multi-label metrics over a score file",
    )
    p.add_argument("--scores", required=True, help="score CSV, one record per line")
    p.add_argument("--gold", required=True, help="gold label file")
    p.add_argument(
        "--k",
        type=_rank_list,
        required=True,
        help="comma-separated ranks for the @k metrics, e.g. 8,10",
    )
    p.add_argument(
        "--threshold",
        type=_finite_float,
        default=0.5,
        help="activity threshold for micro/macro F1 (default 0.5)",
    )
    p.add_argument(
        "--per-record-f1",
        action="store_true",
        help="average per-record harmonic means instead of taking the "
        "harmonic mean of averaged P and R",
    )
    p.set_defaults(handler=_cmd_metrics)

    return parser


def _timestamp(args: argparse.Namespace) -> Optional[str]:
    if args.deterministic:
        return None
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# A report file is written in slices of this many characters, so that a
# large report is not held as a str and as its encoded bytes at once.
_EMIT_SLICE = 1 << 20


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            for start in range(0, len(text), _EMIT_SLICE):
                f.write(text[start : start + _EMIT_SLICE])


# Parsed attributes that route a run and its output; every other one is config.
_NOT_CONFIG = {"command", "handler", "out", "deterministic"}


def _emit_report(args: argparse.Namespace, payload: dict) -> None:
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    envelope = ReportEnvelope(
        tool_version=__version__,
        command=args.command,
        config=config,
        timestamp=_timestamp(args),
        payload=payload,
    )
    _emit(envelope.to_json(), args.out)


def _cover_count_log10_floor(n: int, d: int) -> float:
    """A lower bound on log10(cover_count(n, d)), in constant time.

    cover_count(n, d) = 2 sum_{j<d} C(N, j), N = n - 1, holds the term
    C(N, m) for any m <= min(d - 1, N // 2), and C(N, m) >= (N - m + 1)^m
    / m!.  m is capped where a float still holds it exactly; C(N, m)
    grows with m up to N // 2, so the cap keeps the bound.
    """
    m = min(d - 1, (n - 1) // 2, 2**52)
    return math.log10(2) + m * math.log10(n - m) - math.lgamma(m + 1) / math.log(10)


def _cmd_count(args: argparse.Namespace) -> int:
    # Python refuses to print an int of more than this many digits (0: no
    # limit).  The answer's length is bounded first, so a refusal comes
    # before the exact sum; the exact check after it covers the margin.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    too_long = ValueError(
        f"--n, --d: the count has more than {limit} digits, the most Python "
        "prints (sys.set_int_max_str_digits)"
    )
    if limit and _cover_count_log10_floor(args.n, args.d) - 1e-6 >= limit:
        raise too_long
    count = cover_count(args.n, args.d)
    if limit and count >= 10**limit:
        raise too_long
    if args.out is None:
        sys.stdout.write(f"{count}\n")
        return ExitCode.OK
    _emit_report(args, {"n": args.n, "d": args.d, "count": str(count)})
    return ExitCode.OK


def _cmd_dft(args: argparse.Namespace) -> int:
    try:
        spec = DftSpec(args.n, args.k, args.s, args.seed)
    except ValueError as exc:  # a --k too large for --n; no file is involved
        raise _UsageError(f"error: --k: {exc}")
    rows, cols = spec.n, spec.total_columns
    too_big = ValueError(
        f"{'--n' if rows >= cols else '--s'}: a {rows} x {cols} float64 "
        "matrix cannot be allocated"
    )
    try:
        # The build peaks at 2-3 copies of the matrix (measured with
        # tracemalloc); ask for three, untouched, before any work.
        np.empty((3, rows, cols))
    except (MemoryError, ValueError):  # numpy's ValueError: past its size limit
        raise too_big from None
    try:
        w = build_layer(spec)
    except MemoryError:
        raise too_big from None
    if args.out == "-":
        _emit(matrix_csv(w), "-")
        return ExitCode.OK
    try:
        serialize_matrix(w, args.out)
    except ValueError as exc:  # an --out path the sidecar would overwrite
        raise _UsageError(f"error: --out: {exc}")
    return ExitCode.OK


def _cmd_check(args: argparse.Namespace) -> int:
    w = parse_matrix(args.matrix)
    try:
        status = gr_plus_status(w, tau_det=args.tau_det, budget=args.minor_budget)
    except MinorBudgetError:
        raise
    except ValueError as exc:  # minors that may overflow: the file is at fault
        raise ParseError(args.matrix, str(exc)) from None
    payload = {
        "n": w.n,
        "d": w.d,
        "verdict": status.verdict.value,
        "min_abs_minor": float(status.min_abs_minor),
        "checked_minors": status.checked_minors,
        # General position and the minor scan share one threshold: the
        # matrix is degenerate exactly when some minor falls below it.
        "general_position": status.verdict is not GrVerdict.DEGENERATE,
    }
    _emit_report(args, payload)
    return ExitCode.OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = LpConfig(box_bound=args.box, eps_floor=args.eps)
    w = parse_matrix(args.matrix)
    ys = parse_labels(args.labels, w.n)
    batch = verify_batch(w, ys, cfg, jobs=args.jobs)
    deterministic = args.deterministic
    results = []
    for index, res in enumerate(batch.results):
        entry = {
            "index": index,
            "status": res.status.value,
            "radius": None if res.radius is None else float(res.radius),
            "seconds": 0.0 if deterministic else round(res.wall_time, 6),
        }
        if res.reason is not None:
            entry["reason"] = res.reason
        results.append(entry)
    payload = {
        "matrix": {"n": w.n, "d": w.d, "provenance": w.provenance.to_json()},
        "results": results,
        "summary": dataclasses.asdict(batch.summary),
    }
    _emit_report(args, payload)
    if batch.summary.indeterminate:
        return ExitCode.INDETERMINATE
    if batch.summary.not_eps:
        return ExitCode.UNARGMAXABLE
    return ExitCode.OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    w = parse_matrix(args.matrix)
    regions = enumerate_regions_sampled(w, budget=args.budget, seed=args.seed)
    # The codes ascend in the dense strings' order, so no sort is needed.
    members = [y for bits in regions.bit_blocks() for y in dense_strings(bits)]
    payload = {
        "n": regions.n,
        "d": regions.d,
        "method": regions.method.value,
        "count": len(members),
        "members": members,
        "samples_used": regions.samples_used,
        "boundary_skips": regions.boundary_skips,
    }
    _emit_report(args, payload)
    return ExitCode.OK


def _cmd_radii(args: argparse.Namespace) -> int:
    cfg = LpConfig(box_bound=args.box, eps_floor=args.eps)
    w = parse_matrix(args.matrix)
    kind = FamilyKind(args.kind)
    try:
        family = FamilySpec(n=w.n, k=args.k, kind=kind)
    except ValueError as exc:  # a --k past the family's largest statistic
        raise _UsageError(f"error: --k: {exc}")
    report = radius_report(
        w,
        family,
        cfg,
        percentiles=args.percentiles,
        budget=args.budget,
        jobs=args.jobs,
    )
    payload = {
        "family": {"n": family.n, "k": family.k, "kind": kind.value},
        "percentiles": [
            {"percentile": p, "radius": r} for p, r in report.rows
        ],
        "members": report.members,
        "summary": {
            "argmaxable": report.argmaxable,
            "not_eps": report.not_eps,
            "indeterminate": report.indeterminate,
        },
    }
    _emit_report(args, payload)
    return ExitCode.OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    scores = parse_scores(args.scores)
    gold = parse_labels(args.gold, scores.shape[1])
    if scores.shape[0] != len(gold):
        raise ParseError(
            args.scores,
            f"{scores.shape[0]} score records but {len(gold)} gold assignments",
        )
    records = StackedRecords.from_gold(scores, gold)
    try:
        ranked = metrics_at_k(records, args.k, per_record_f1=args.per_record_f1)
    except ValueError as exc:  # a rank past the label count
        raise _UsageError(f"error: --k: {exc}")
    at_k = [
        {
            "k": r.k,
            "prec": r.at_k.prec,
            "rec": r.at_k.rec,
            "f1": r.at_k.f1,
            "ndcg": None if r.ndcg is None else r.ndcg.ndcg,
        }
        for r in ranked
    ]
    mm = micro_macro_f1(records, threshold=args.threshold)
    payload = {
        "records": len(records),
        "at_k": at_k,
        "micro_f1": mm.micro_f1,
        "macro_f1": mm.macro_f1,
        "zero_support_labels": mm.zero_support_labels,
        "empty_gold_records": ranked[0].at_k.empty_gold,
    }
    _emit_report(args, payload)
    return ExitCode.OK


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every run() uses, built on the first call.

    Parsing leaves a parser as it was (every default is immutable, and
    handlers find their collaborators through this module's globals at
    call time), so one instance serves every call, on any thread.  Two
    threads racing on the first call may each build one; either serves.
    """
    return build_parser()


# Each input flag whose file a report at --out would overwrite.
_INPUT_FLAGS = ("matrix", "labels", "scores", "gold")


def _check_out(args: argparse.Namespace) -> None:
    """Refuse an --out that cannot be written or names an input, before
    any work."""
    out = args.out
    if out is None or out == "-":
        return
    target = Path(out).resolve()
    if target.is_dir():
        raise _UsageError(f"error: --out: {out} is a directory")
    if not target.parent.is_dir():
        raise _UsageError(f"error: --out: {out}: no directory {Path(out).parent}")
    if args.command == "dft" and _sidecar_path(target).is_dir():
        raise _UsageError(
            f"error: --out: {out}: its sidecar {_sidecar_path(out)} is a directory"
        )
    for flag in _INPUT_FLAGS:
        path = getattr(args, flag, None)
        if path is None:
            continue
        if target == Path(path).resolve():
            raise _UsageError(f"error: --out: {out} is the path of --{flag}")
        # A report there would be read as the matrix's sidecar next time.
        if flag == "matrix" and target == _sidecar_path(path).resolve():
            raise _UsageError(
                f"error: --out: {out} is the sidecar path of --matrix"
            )


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, dispatch, and map every outcome to an exit code."""
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise _UsageError(parser.format_usage())
        _check_out(args)
        return int(args.handler(args))
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return ExitCode.USAGE
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)
    except (EnumerationBudgetError, MinorBudgetError) as exc:
        # Well-formed input over a budget: the flag is at fault, not the file.
        flag = "--minor-budget" if isinstance(exc, MinorBudgetError) else "--budget"
        print(f"error: {flag}: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    except (ValueError, OSError) as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
