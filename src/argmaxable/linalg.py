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
this one threshold and one scan, which runs on the calling thread.  It
computes every minor by Laplace expansion along the columns
(``_laplace_blocks``): level j holds det W[S, :j] for every j-subset S,
as one float64 array indexed by colex rank, and level d streams in
blocks of at most ``_MINOR_CHUNK`` minors cut from one colex table per
subset size.  A block carries its minors, a bound on each one's rounding
error and the product of its rows' norms, multiplied in row order as
``np.prod`` does.  A minor whose bracket lies wholly above the threshold
is decided by it; LAPACK's determinant decides every other minor and
gives ``min_abs_minor``, as a LAPACK-only scan does, and only those
minors' row index sets are built.  A layer with 2d > n + 1 skips the
recursion, whose lower levels would outnumber its minors, and LAPACK
decides every minor.  The scan holds two levels of at most C(n, d)
floats, d + 1 tables of at most ``_MINOR_CHUNK`` rows and the block in
hand.

Row index sets are reported 0-based; human-facing label/row numbers
elsewhere are 1-based, and BoundaryError follows the 1-based convention
because its rows name labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Iterator, Optional, Sequence

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


def _colex_head(m: int, size: int, chunk: int) -> int:
    """The largest h <= m with C(h, size) <= chunk, and at least size."""
    head = size
    while head < m and math.comb(head + 1, size) <= chunk:
        head += 1
    return head


def _colex_tables(ms: Sequence[int], chunk: int) -> Iterator[np.ndarray]:
    """The colex tables of size = 0, 1, ..., len(ms) - 1, each m at most one
    above the one before.  Table size lists the size-subsets of range(h),
    h = ``_colex_head(ms[size], size, chunk)``, in colex order: C(h, size)
    <= chunk intp rows, row r of colex rank r.  Colex order lists the
    subsets of range(h') first for every h' <= h, so those whose largest
    element is top are the first C(top, size - 1) rows of the table
    before, followed by top."""
    table = np.empty((1, 0), dtype=np.intp)
    yield table
    for size, m in enumerate(ms[1:], 1):
        head = _colex_head(m, size, chunk)
        counts = [math.comb(top, size - 1) for top in range(size - 1, head)]
        below, table = table, np.empty((sum(counts), size), dtype=np.intp)
        table[:, :-1] = np.concatenate([below[:rows] for rows in counts])
        table[:, -1] = np.repeat(np.arange(size - 1, head), counts)
        yield table


def _colex_parts(
    m: int, size: int, chunk: int, suffix: tuple[int, ...] = ()
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The size-subsets of range(m), each followed by ``suffix``, in colex
    order, as parts (p, rows, tail): the first ``rows`` rows of the table
    of p-subsets, each followed by the constant tail.

    The leading sets whose largest element is below ``head`` are all the
    size-subsets of range(head); they form one part as long as C(head,
    size) fits in ``chunk``.  Past that the sets are split on their largest
    element ``top``: the (size-1)-subsets of range(top), followed by top.
    """
    head = _colex_head(m, size, chunk)
    yield size, math.comb(head, size), suffix
    for top in range(head, m):
        yield from _colex_parts(top, size - 1, chunk, (top,) + suffix)


def _colex_blocks(n: int, d: int, chunk: int) -> Iterator[np.ndarray]:
    """All d-subsets of range(n) in colexicographic order, as fresh intp
    blocks of at most ``chunk`` rows, one per part of ``_colex_parts``.
    Each block is cut from the one table per subset size that the call
    builds up front, so a scan holds d + 1 tables of at most ``chunk``
    rows plus the block it yields."""
    # A part of size s splits from at most n - (d - s) elements.
    tables = list(_colex_tables(range(n - d, n + 1), chunk))
    for size, rows, suffix in _colex_parts(n, d, chunk):
        block = np.empty((rows, d), dtype=np.intp)
        block[:, :size] = tables[size][:rows]
        block[:, size:] = suffix
        yield block


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def _minor_blocks(w: WeightMatrix, budget: int) -> Iterator[tuple]:
    """Validate the scan, then stream (sets, minors, bounds, scales) blocks
    in colex order: ``sets(positions)`` gives those minors' row index sets
    as a (k, d) intp array, and ``scales`` each minor's product of row
    2-norms, equal to ``np.prod(w.row_norms[sets], axis=1)`` bit for bit.

    The checks run eagerly so a refusal comes before any work; the blocks
    are produced lazily.  When 2d <= n + 1 the minors come from
    ``_laplace_blocks``, and ``bounds`` holds for each one a bound on its
    distance from the exact determinant.  A wider layer takes LAPACK's
    determinant of every minor, and ``bounds`` is None: there the lower
    levels of the recursion would outnumber the minors (a square 30 x 30
    layer has one minor and 2^30 subsets below it).
    """
    n, d = w.n, w.d
    if n < d:
        raise ValueError(f"need n >= d rows for maximal minors, got n={n}, d={d}")
    # Hadamard: no minor, nor any partial product of its LU pivots, exceeds
    # the product of max(1, ||w_i||) over its rows.  A value or bound of
    # the recursion may still overflow; it then goes to LAPACK.
    largest = math.prod(np.maximum(np.sort(w.row_norms)[-d:], 1.0).tolist())
    if not math.isfinite(largest):
        raise ValueError(
            "minors may overflow float64: the product of the d largest row "
            "norms is not finite"
        )
    total = math.comb(n, d)
    if total > budget:
        raise MinorBudgetError(
            f"{total} maximal minors (C({n},{d})) exceed the budget {budget}"
        )
    if 2 * d <= n + 1:
        return _laplace_blocks(w, _MINOR_CHUNK, largest)
    return (
        (idx.__getitem__, np.linalg.det(w.entries.take(idx, axis=0)), None,
         np.prod(w.row_norms[idx], axis=1))
        for idx in _colex_blocks(n, d, _MINOR_CHUNK)
    )


def _table_steps(
    n: int, table: np.ndarray, l1: np.ndarray, l2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For a colex table of p-subsets (``_colex_tables``): the products of
    each row's 1-norms and of its 2-norms, and two (p, rows) arrays, where
    element t of each row reads its entry from a column followed by its
    negation (odd t read the negated copy: the sign (-1)^t), and the colex
    rank of the row without element t."""
    p = table.shape[1]
    with np.errstate(over="ignore"):
        l1_head = np.prod(l1[table], axis=1)
    l2_head = np.prod(l2[table], axis=1)
    elements = np.array(table.T)
    head = int(table[-1, -1]) + 1 if p else 0
    comb = np.array([[math.comb(x, k) for x in range(head)] for k in range(p + 1)])
    rank = np.empty_like(elements)
    rest = np.arange(len(table))  # row r has rank r
    for t in range(p - 1, -1, -1):
        # Without s_t, each element after t moves down one place.
        term = comb[t + 1].take(elements[t])
        rank[t] = rest - term
        rest -= term - comb[t].take(elements[t])
    elements[1::2] += n
    return l1_head, l2_head, elements, rank


def _part_sets(reads: np.ndarray, tail: tuple, n: int, pos: np.ndarray) -> np.ndarray:
    """The index sets at rows ``pos`` of a part of ``_laplace_blocks``: the
    table rows whose elements ``reads`` holds mod n, each followed by ``tail``."""
    sets = np.empty((len(pos), len(reads) + len(tail)), dtype=np.intp)
    sets[:, : len(reads)] = reads[:, pos].T % n
    sets[:, len(reads) :] = tail
    return sets


def _laplace_blocks(
    w: WeightMatrix, chunk: int, largest: float
) -> Iterator[tuple]:
    """Every maximal minor by Laplace expansion along the columns, with a
    bound on its error.

    Write M_j(S) = det W[S, :j] for a j-subset S = {s_1 < ... < s_j}.
    Expanding along column j,

        M_j(S) = sum_t (-1)^(t+j) w_{s_t, j} M_{j-1}(S - s_t),   M_0() = 1,

    so level j follows from level j - 1 alone.  Each level below d is one
    float64 array indexed by colex rank, rank(S) = sum_t C(s_t, t)
    (combinatorial number system); the scan holds two of them at a time,
    C(n, j-1) + C(n, j) floats, and 2d <= n + 1 keeps each at most C(n, d).
    Level d streams through the parts of ``_colex_parts``.  A part is the
    first rows of the table of p-subsets, each followed by one constant
    tail.  Removing a table element gives the row's rank without it, which
    is computed once per table, plus the tail's terms shifted down one
    place; removing a tail element gives the row's own rank plus a scalar,
    so those terms read a contiguous slice of the level below.

    The bound, with u = 2^-53 and gamma_k = k u / (1 - k u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3).  Level 1 is
    exact.  Level j rounds each term of its sum once in the product and at
    most j - 1 times in the sum, in any order, so by induction every
    product of d entries in det's expansion reaches the computed minor
    with a factor (1 + theta), |theta| <= gamma_K, K = d(d+1)/2 - 1, and

        |fl(M_d(S)) - M_d(S)| <= gamma_K perm(|W_S|) <= gamma_K prod_S ||w_i||_1.

    A product that underflows is off by at most 2^-1075 absolutely rather
    than relatively.  Entries are at most max(1, ||w_i||) in size, so these
    errors, carried up the levels, add less than (e/2) d! 2^-1074 prod_S
    max(1, ||w_i||) (1 + gamma_K), below slop = 4 d! 2^-1074 L with L =
    ``largest``, the product over the d largest rows; slop also covers what
    an underflow in the product of 1-norms loses.  The bound yielded is
    fl(beta fl(prod_S fl(||w_i||_1))) + slop with beta = gamma_{K+2}.  The
    roundings of the bound itself (the d row sums of d - 1 terms, the
    d - 1 products of a table row's norms with its tail's, gamma, the
    product with beta and the sum with slop) scale it by (1 + theta), with
    |theta| <= gamma_m and m = d^2 + 3.  Since gamma_K gamma_m <= u <=
    gamma_{K+1} - gamma_K while K m u <= 1/2, true for every d below
    2,000 (at which C(n, d) > 10^1000 for any n >= 2d - 1), one unit pays
    for them, and the second is spare.  An overflow shows as an inf or
    nan value or bound, which ``gr_plus_status`` leaves to LAPACK.
    """
    n, d, entries = w.n, w.d, w.entries
    l1 = np.abs(entries).sum(axis=1)
    beta = _gamma(d * (d + 1) // 2 + 1)
    slop = math.ldexp(math.prod(map(float, range(2, d + 1)), start=4.0 * largest), -1074)
    l1_tails, l2_tails = l1.tolist(), w.row_norms.tolist()
    tables = _colex_tables([n] * (d + 1), chunk)
    steps = (_table_steps(n, table, l1, w.row_norms) for table in tables)
    l1_heads, l2_heads, reads, ranks = zip(*steps)
    below = np.ones(1)
    for j in range(1, d + 1):
        col = entries[:, j - 1] if j % 2 else -entries[:, j - 1]
        signed = np.concatenate((col, -col))
        level = np.empty(math.comb(n, j)) if j < d else None
        start = 0
        for p, rows, tail in _colex_parts(n, j, chunk):
            # Tail element c at place q adds C(c, q + 1) to a rank, and
            # C(c, q) once an element before it is removed.
            kept = [math.comb(c, q + 1) for q, c in enumerate(tail, p)]
            moved = [math.comb(c, q) for q, c in enumerate(tail, p)]
            base = sum(moved)
            with np.errstate(over="ignore", invalid="ignore"):
                if p:
                    sub = ranks[p][:, :rows]
                    values = np.einsum(
                        "ij,ij->j",
                        signed.take(reads[p][:, :rows]),
                        below.take(sub + base if base else sub),
                    )
                else:
                    values = np.zeros(1)
                for i, c in enumerate(tail):
                    base -= moved[i]
                    coef = col[c] if (p + i) % 2 == 0 else -col[c]
                    values += coef * below[base : base + rows]
                    base += kept[i]
                if level is None:
                    bounds = l1_heads[p][:rows] * math.prod(l1_tails[c] for c in tail)
                    bounds *= beta
                    bounds += slop
            if level is not None:
                level[start : start + rows] = values
                start += rows
                continue
            scales = l2_heads[p][:rows]
            for c in tail:
                scales = scales * l2_tails[c]
            yield partial(_part_sets, reads[p], tail, n), values, bounds, scales
        below = level


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

    ``min_abs_minor`` is the smallest LAPACK |det| seen (raw, not relative);
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
    exactly the minors up to and including that one.  Each minor comes
    with a bracket [v - e, v + e] that holds its exact value
    (``_minor_blocks``).  A bracket wholly above the threshold decides its
    minor: |det| clears it and det has the sign of v.  Any other minor,
    and every minor of a layer too wide for the recursion, is decided by
    LAPACK's determinant against the threshold.  ``min_abs_minor`` is
    LAPACK's |det| too, minimised over the minors whose bracket, widened to
    2e, can hold the smallest: those LAPACK decided, and any other with
    |v| - 2e at most the least |v| + 2e (or LAPACK |det|) seen so far.
    """
    entries = w.entries
    min_abs = ceiling = math.inf
    checked = 0
    saw_pos = saw_neg = False
    for sets, values, bounds, scales in _minor_blocks(w, budget):
        floor = tau_det * scales
        if bounds is None:  # LAPACK's determinants
            clear, dets = np.zeros(values.shape, dtype=bool), values
        else:
            mags = np.abs(values)
            with np.errstate(invalid="ignore"):
                # Rounding is monotone: fl(|v| - e) > floor only if
                # |v| - e > floor.
                clear = (mags - bounds > floor) & (mags < math.inf)
            dets = np.full(mags.shape, math.nan)
            open_ = np.flatnonzero(~clear)
            if open_.size:
                dets[open_] = np.linalg.det(entries.take(sets(open_), axis=0))
        below = np.abs(dets) < floor
        degenerate = bool(below.any())
        stop = int(np.argmax(below)) + 1 if degenerate else len(values)
        clear, dets, values = clear[:stop], dets[:stop], values[:stop]
        if bounds is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                spread = 2.0 * bounds[:stop]
                reach = np.where(clear, mags[:stop] + spread, np.abs(dets))
                ceiling = float(np.fmin.reduce(reach, initial=ceiling))
                near = np.flatnonzero(clear & (mags[:stop] - spread <= ceiling))
            if near.size:
                dets[near] = np.linalg.det(entries.take(sets(near), axis=0))
        # fmin skips NaN: minors LAPACK did not compute.
        min_abs = float(np.fmin.reduce(np.abs(dets), initial=min_abs))
        checked += stop
        if degenerate:
            return GrStatus(GrVerdict.DEGENERATE, min_abs, checked)
        positive = np.where(clear, values > 0, dets > 0)
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

