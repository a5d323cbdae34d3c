"""Weight matrices and the linear algebra behind region structure.

The rows of an n x d weight matrix W are the normals of n hyperplanes
through the origin in R^d.  The questions answered here are combinatorial
at heart but settled numerically:

* which sign vector a point x produces (``sign_vector``),
* whether every d-subset of rows is independent (``is_general_position``),
* whether all d x d minors share one strict sign (``gr_plus_status``),
  the "totally positive" condition that pins the feasible sign vectors
  to the low-alternation family.

Minors are relative-thresholded: a minor over rows I counts as zero when
|det| < tau_det * prod_{i in I} ||row_i||, which makes every verdict
invariant under row rescaling.  tau_det is a parameter of
``gr_plus_status`` only; ``is_general_position`` uses ``DEFAULT_TAU_DET``
and ``sign_vector`` tests logits against ``DEFAULT_TAU_SIGN``.  The
threshold needs every row norm positive and finite, which
``WeightMatrix`` guarantees, and the scan refuses up front a matrix whose
minors could overflow.  General position and the sign verdict share
this one threshold and one scan: the d-subsets are generated in
colexicographic order as numpy index blocks of bounded size, and each
block gets batched determinant calls and one vectorized threshold test.
Every block is cut from one colex table per subset size, built once per
scan, so memory stays flat however large C(n, d) is: d tables of at most
``_MINOR_CHUNK`` index rows plus the block in hand.  In a scan of more
than one block, each block's determinants are computed in two halves, the
second on one helper thread per scan (numpy's det releases the GIL), so a
free second core takes half the work; the halves are joined before the
block is handed on, and det runs per matrix, so every value is the one a
single call would give.  A one-block scan runs on the calling thread.

Row index sets are reported 0-based; human-facing label/row numbers
elsewhere are 1-based, and BoundaryError follows the 1-based convention
because its rows name labels.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, combinations
from typing import Iterator, Optional

import numpy as np

from .labelspace import LabelAssignment

__all__ = [
    "Provenance",
    "WeightMatrix",
    "GrVerdict",
    "GrStatus",
    "BoundaryError",
    "MinorBudgetError",
    "is_general_position",
    "gr_plus_status",
    "sign_vector",
    "DEFAULT_TAU_DET",
    "DEFAULT_TAU_SIGN",
    "DEFAULT_MINOR_BUDGET",
]

DEFAULT_TAU_DET = 1e-10
DEFAULT_TAU_SIGN = 1e-12
DEFAULT_MINOR_BUDGET = 10**6
_MINOR_CHUNK = 2048

_PROVENANCE_KINDS = ("random", "dft", "dft+slack")


@dataclass(frozen=True)
class Provenance:
    """How a weight matrix was produced.

    kind is one of 'random', 'dft', 'dft+slack'; k is the frequency count
    for the spectral kinds, s the number of slack columns, seed the RNG
    seed used for random content (slack columns or a fully random matrix).
    Each of k, s, seed is None or an integer (not a bool); k >= 1, s >= 0.
    """

    kind: str = "random"
    k: Optional[int] = None
    s: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _PROVENANCE_KINDS:
            raise ValueError(f"unknown provenance kind {self.kind!r}")
        for name, low in (("k", 1), ("s", 0), ("seed", None)):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"provenance {name} must be an integer, got {value!r}")
            if low is not None and value < low:
                raise ValueError(f"provenance {name} must be >= {low}, got {value}")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in ("k", "s", "seed"):
            value = getattr(self, name)
            if value is not None:
                out[name] = int(value)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Provenance":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("provenance must be an object with a 'kind' field")
        known = {"kind", "k", "s", "seed"}
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown provenance fields {sorted(extra)}")
        return cls(
            kind=obj["kind"],
            k=obj.get("k"),
            s=obj.get("s"),
            seed=obj.get("seed"),
        )


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """An immutable n x d real matrix of hyperplane normals (one per row).

    Every row's float64 Euclidean norm must be positive and finite: a row
    of norm 0 is a label whose logit is always 0, and an infinite norm
    leaves no finite threshold.  ``row_norms`` holds those norms.
    """

    entries: np.ndarray
    provenance: Provenance = Provenance()
    row_norms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("entries must be a 2-d array with n, d >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(arr, axis=1)
        bad = np.flatnonzero((norms == 0.0) | (norms == np.inf))
        if bad.size:
            raise ValueError(
                "row norms must be positive and finite, not in row(s) "
                + ", ".join(str(int(r) + 1) for r in bad)
            )
        arr = arr.copy()
        for frozen in (arr, norms):
            frozen.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "row_norms", norms)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    @property
    def d(self) -> int:
        return int(self.entries.shape[1])

    def __repr__(self) -> str:
        return (
            f"WeightMatrix(n={self.n}, d={self.d}, "
            f"provenance={self.provenance.kind!r})"
        )


class BoundaryError(Exception):
    """A point lies numerically on at least one hyperplane, so its sign
    vector is undefined.  ``rows`` holds the offending 1-based row numbers."""

    def __init__(self, rows: tuple[int, ...]):
        self.rows = tuple(int(r) for r in rows)
        noun = "row" if len(self.rows) == 1 else "rows"
        super().__init__(
            f"point lies on the boundary of {noun} "
            + ", ".join(str(r) for r in self.rows)
        )


class MinorBudgetError(ValueError):
    """Raised when C(n, d) exceeds the minor enumeration budget."""


def _colex_blocks(n: int, d: int, chunk: int) -> Iterator[np.ndarray]:
    """All d-subsets of range(n) in colexicographic order, as fresh intp
    blocks of at most ``chunk`` rows.

    The leading sets whose largest element is below ``head`` are all the
    d-subsets of range(head); they form one block as long as C(head, d)
    fits.  Past that the sets are split on their largest element ``top``,
    and each part is the (d-1)-subsets of range(top) followed by top and
    the tops chosen above it.  A part of size d' is the head of the one
    colex table of d'-subsets that the call builds up front for that size:
    colex order lists the subsets of range(h) first among those of any
    larger range.  So a scan holds d tables of at most ``chunk`` rows
    plus the block it yields.
    """

    def head_of(m: int, size: int) -> int:
        head = size
        while head < m and math.comb(head + 1, size) <= chunk:
            head += 1
        return head

    tables = []
    for size in range(d + 1):
        # A part of size d' splits from at most n - (d - d') elements.
        head = head_of(n - d + size, size)
        rows = math.comb(head, size)
        # Lex order over the descending range, reversed on both axes, is
        # colex order over the ascending one.
        flat = np.fromiter(
            chain.from_iterable(combinations(range(head - 1, -1, -1), size)),
            dtype=np.intp,
            count=rows * size,
        )
        tables.append(np.ascontiguousarray(flat.reshape(rows, size)[::-1, ::-1]))

    def blocks(m: int, size: int, suffix: tuple[int, ...]) -> Iterator[np.ndarray]:
        head = head_of(m, size)
        rows = math.comb(head, size)
        block = np.empty((rows, d), dtype=np.intp)
        block[:, :size] = tables[size][:rows]
        block[:, size:] = suffix
        yield block
        for top in range(head, m):
            yield from blocks(top, size - 1, (top,) + suffix)

    return blocks(n, d, ())


def _minor_blocks(
    w: WeightMatrix, budget: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Validate the scan, then stream (index block, determinants) pairs.

    The checks run eagerly so a refusal comes before any work; the
    blocks themselves are produced lazily, which keeps memory bounded by
    d index tables of at most ``_MINOR_CHUNK`` rows (read at call time)
    plus one block of that many d x d matrices, whatever C(n, d) is.
    A scan of more blocks than one gets each block's determinants in two
    halves, the second from a helper thread (``_split_det_blocks``); both
    are done before the block is yielded, and closing the returned
    generator joins the helper.  A one-block scan starts no thread.
    """
    n, d = w.n, w.d
    if n < d:
        raise ValueError(f"need n >= d rows for maximal minors, got n={n}, d={d}")
    # Hadamard: no minor, nor any partial product of its LU pivots, exceeds
    # the product of max(1, ||w_i||) over its rows.
    largest = np.maximum(np.sort(w.row_norms)[-d:], 1.0).tolist()
    if not math.isfinite(math.prod(largest)):
        raise ValueError(
            "minors may overflow float64: the product of the d largest row "
            "norms is not finite"
        )
    total = math.comb(n, d)
    if total > budget:
        raise MinorBudgetError(
            f"{total} maximal minors (C({n},{d})) exceed the budget {budget}"
        )
    blocks = _colex_blocks(n, d, _MINOR_CHUNK)
    if total > _MINOR_CHUNK:
        return _split_det_blocks(w.entries, blocks)
    # One block: starting the helper would cost more than its half saves.
    return ((idx, np.linalg.det(w.entries.take(idx, axis=0))) for idx in blocks)


def _split_det_blocks(
    entries: np.ndarray, blocks: Iterator[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pair each index block with its determinants, computed in two halves.

    A single helper thread gathers and factors the second half of each
    block while this thread does the first (numpy's det releases the GIL),
    and the two are joined before the block is yielded, so no thread works
    on a block the caller holds.  det runs per matrix, so the values are
    those of one call over the whole block.  Leaving the ``with`` joins the
    helper however the generator ends: exhausted, closed early, or raising
    in either half.
    """

    def dets(rows: np.ndarray) -> np.ndarray:
        return np.linalg.det(entries.take(rows, axis=0))

    with ThreadPoolExecutor(max_workers=1) as helper:
        for idx in blocks:
            half = (len(idx) + 1) // 2
            second = helper.submit(dets, idx[half:])
            yield idx, np.concatenate((dets(idx[:half]), second.result()))


def is_general_position(w: WeightMatrix) -> bool:
    """True when every size-min(n, d) subset of rows is independent.

    For n >= d this is the minor scan of ``gr_plus_status`` at its
    defaults: the matrix is in general position exactly when its verdict
    is not degenerate, i.e. every maximal minor satisfies |det| >=
    ``DEFAULT_TAU_DET`` * product of the selected row norms; more than
    ``DEFAULT_MINOR_BUDGET`` minors raise MinorBudgetError.  With fewer
    rows than columns the condition degrades to full row rank: the volume
    spanned by the normalised rows, prod |R_ii| from a QR of their
    transpose, is compared with ``DEFAULT_TAU_DET``.  That volume is
    sqrt(det(W W^T)) / prod ||w_i||, taken without squaring the
    conditioning as the Gram matrix does.
    """
    if w.n < w.d:
        r = np.linalg.qr((w.entries / w.row_norms[:, None]).T, mode="r")
        return float(np.prod(np.abs(np.diag(r)))) >= DEFAULT_TAU_DET
    return gr_plus_status(w).verdict is not GrVerdict.DEGENERATE


class GrVerdict(Enum):
    UNIFORM_POSITIVE = "uniform-positive"
    UNIFORM_NEGATIVE = "uniform-negative"
    MIXED_SIGNS = "mixed-signs"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class GrStatus:
    """Outcome of the all-minors sign scan.

    ``min_abs_minor`` is the smallest |det| seen (raw, not relative);
    ``checked_minors`` the number of minors evaluated before the verdict
    was reached.  A degenerate minor short-circuits the scan; the mixed
    verdict requires scanning everything, since a later near-zero minor
    would demote it to degenerate.
    """

    verdict: GrVerdict
    min_abs_minor: float
    checked_minors: int


def gr_plus_status(
    w: WeightMatrix,
    tau_det: float = DEFAULT_TAU_DET,
    budget: int = DEFAULT_MINOR_BUDGET,
) -> GrStatus:
    """Classify the sign pattern of all maximal minors.

    Uniform-positive / uniform-negative: every minor clears the relative
    threshold and they all share one sign (the matrix represents a point
    of the strict positive region of the Grassmannian, up to column sign).
    Degenerate: some minor falls below the threshold.  Mixed-signs: all
    minors clear the threshold but disagree in sign.

    The scan runs block by block in colex order and stops at the first
    degenerate minor, so ``checked_minors`` and ``min_abs_minor`` count
    exactly the minors up to and including that one.
    """
    norms = w.row_norms
    min_abs = math.inf
    checked = 0
    saw_pos = saw_neg = False
    blocks = _minor_blocks(w, budget)
    with closing(blocks):
        for idx, dets in blocks:
            mags = np.abs(dets)
            below = mags < tau_det * np.prod(norms[idx], axis=1)
            degenerate = bool(below.any())
            if degenerate:
                mags = mags[: int(np.argmax(below)) + 1]
            # fmin skips NaN the way a running min() from +inf does.
            min_abs = float(np.fmin.reduce(mags, initial=min_abs))
            checked += mags.size
            if degenerate:
                return GrStatus(GrVerdict.DEGENERATE, min_abs, checked)
            positive = dets > 0
            saw_pos = saw_pos or bool(positive.any())
            saw_neg = saw_neg or not positive.all()
    if saw_pos and saw_neg:
        verdict = GrVerdict.MIXED_SIGNS
    elif saw_pos:
        verdict = GrVerdict.UNIFORM_POSITIVE
    else:
        verdict = GrVerdict.UNIFORM_NEGATIVE
    return GrStatus(verdict, min_abs, checked)


def sign_vector(w: WeightMatrix, x: np.ndarray) -> LabelAssignment:
    """Sign vector of W x as a LabelAssignment.

    Raises BoundaryError (1-based rows) when any logit has |W_i x| <
    ``DEFAULT_TAU_SIGN``; a sign vector is never fabricated on the
    boundary.
    """
    point = np.asarray(x, dtype=np.float64)
    if point.shape != (w.d,):
        raise ValueError(f"x must have shape ({w.d},), got {point.shape}")
    logits = w.entries @ point
    on_boundary = np.flatnonzero(np.abs(logits) < DEFAULT_TAU_SIGN)
    if on_boundary.size:
        raise BoundaryError(tuple(int(i) + 1 for i in on_boundary))
    return LabelAssignment(np.where(logits > 0, 1, -1).astype(np.int8))

