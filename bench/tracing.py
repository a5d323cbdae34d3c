"""In-memory spans around the package's public functions, stdlib only.

The traced run patches the names the CLI looks up (``argmaxable.cli``
imports its collaborators by name, so patching the module attribute is
enough) plus the two functions called through another module's globals:
``verifier.chebyshev_verify`` (once per item, from the ``--jobs`` worker
threads) and ``oracle.is_general_position`` (inside the sampled
enumeration).  Nothing under ``src/`` is modified on disk; every patch is
undone by ``Tracer.uninstrument``.

Each span records its name, parent, thread, round, start and end.  A
layer's self time is its duration minus the union of its children's
intervals, so overlapping item spans from parallel workers are not
subtracted twice.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.verify_calls: list[tuple] = []  # (weight matrix, assignment, result)
        self.round = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_by_name: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent_name: str | None = None):
        """Record one span.  The parent is the innermost open span of this
        thread; a worker thread with nothing open adopts the open span
        called ``parent_name`` instead."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._open_by_name.get(parent_name) if parent_name else None
        span_id = next(self._ids)
        attrs: dict = {}
        stack.append(span_id)
        self._open_by_name[name] = span_id
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "round": self.round,
                "thread": threading.get_ident(),
                "start": start,
                "end": end,
                **attrs,
            }
            with self._lock:
                self.spans.append(record)

    def _patch(self, owner: object, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: object, attr: str, name: str, describe=None, parent_name=None):
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name, parent_name) as attrs:
                result = inner(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
            return result

        self._patch(owner, attr, wrapper)

    def instrument(self) -> None:
        """Patch every layer boundary the workloads cross."""
        from argmaxable import cli, oracle, reportio, verifier

        self._wrap(cli, "parse_matrix", "reportio.parse_matrix")
        self._wrap(cli, "parse_labels", "reportio.parse_labels")
        self._wrap(
            cli,
            "parse_scores",
            "reportio.parse_scores",
            lambda args, kwargs, arr: {"cells": int(arr.size)},
        )
        self._wrap(
            reportio.ReportEnvelope, "to_json", "reportio.report_json"
        )
        self._wrap(
            cli,
            "verify_batch",
            "verifier.batch",
            lambda args, kwargs, batch: {
                "items": len(batch.results),
                "jobs": int(kwargs.get("jobs", 1)),
            },
        )
        self._wrap(
            cli,
            "gr_plus_status",
            "linalg.scan",
            lambda args, kwargs, status: {"minors": int(status.checked_minors)},
        )
        self._wrap(oracle, "is_general_position", "linalg.general_position")
        self._wrap(
            cli,
            "enumerate_regions_sampled",
            "oracle.sample",
            lambda args, kwargs, regions: {
                "draws": int(regions.samples_used),
                "boundary_skips": int(regions.boundary_skips),
                "regions": len(regions.members),
            },
        )
        self._wrap(cli, "prec_rec_f1_at_k", "metrics.at_k")
        self._wrap(cli, "ndcg_at_k", "metrics.ndcg")
        self._wrap(cli, "micro_macro_f1", "metrics.micro_macro")

        def describe_item(args, kwargs, result):
            with self._lock:
                self.verify_calls.append((args[0], args[1], result))
            return {"status": result.status.value}

        self._wrap(
            verifier,
            "chebyshev_verify",
            "verifier.item",
            describe_item,
            parent_name="verifier.batch",
        )

    def uninstrument(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], [])
            if b > s["start"] and a < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(kids)
    return out
