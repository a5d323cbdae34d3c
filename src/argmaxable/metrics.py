"""Ranked and thresholded multi-label evaluation metrics.

Every metric takes a ``StackedRecords``: a (records, labels) score array
and the matching gold activity, built from gold assignments with
``StackedRecords.from_gold(scores, golds)``.  The ranked metrics
(Prec@k, Rec@k, F1@k, nDCG@k) look only at the order of the scores; ties
are broken by ascending label index so every quantity here is
deterministic.  Conventions for degenerate records are explicit
and surfaced in the results rather than silently folded in:

* Rec@k of a record with no active gold labels is 1 (nothing to find,
  nothing missed); such records are counted in ``empty_gold``.
* nDCG skips records with no active gold labels (their ideal DCG is 0)
  and counts them.
* Macro-F1 averages over all labels, with zero-support labels (no gold
  positives and no predicted positives) contributing F1 = 0 and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .labelspace import LabelAssignment

__all__ = [
    "StackedRecords",
    "AtK",
    "AtKResult",
    "MicroMacroResult",
    "NdcgResult",
    "metrics_at_k",
    "prec_rec_f1_at_k",
    "micro_macro_f1",
    "ndcg_at_k",
]


@dataclass(frozen=True)
class StackedRecords:
    """Many records as two (records, labels) arrays: finite scores and
    the matching boolean gold activity.  Every metric takes one, so a
    caller asking for several ranks stacks once."""

    scores: np.ndarray
    active: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError("scores must be a 2-d (records, labels) array")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        active = np.asarray(self.active)
        if active.dtype != np.bool_ or active.shape != scores.shape:
            raise ValueError(
                f"active must be a boolean array of the scores' shape {scores.shape}"
            )
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "active", active)

    @classmethod
    def from_gold(
        cls, scores: np.ndarray, gold: Sequence[LabelAssignment]
    ) -> "StackedRecords":
        """Pair each row of a 2-d score array with its gold assignment."""
        arr = np.asarray(scores, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != len(gold):
            raise ValueError(
                f"need one score row per gold assignment, got shape "
                f"{arr.shape} for {len(gold)} assignments"
            )
        for y in gold:
            if y.n != arr.shape[1]:
                raise ValueError(
                    f"scores have length {arr.shape[1]}, gold has n={y.n}"
                )
        active = np.array([y.signs for y in gold]).reshape(arr.shape) > 0
        return cls(arr, active)

    def __len__(self) -> int:
        return int(self.scores.shape[0])


class AtKResult(NamedTuple):
    prec: float
    rec: float
    f1: float
    empty_gold: int


class MicroMacroResult(NamedTuple):
    micro_f1: float
    macro_f1: float
    zero_support_labels: int


class NdcgResult(NamedTuple):
    ndcg: float
    scored: int
    skipped: int


def _stack(records: StackedRecords) -> tuple[np.ndarray, np.ndarray]:
    if not len(records):
        raise ValueError("no records")
    return records.scores, records.active


def _top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row, True at the labels of the k largest scores, ties at the
    k-th largest value broken by ascending label index.

    ``np.partition`` finds each row's k-th largest value without a sort,
    and every label at or above it is taken.  Only rows where ties at
    that value overfill the k places are redone: the labels above it,
    then the tied ones in ascending index order until k are taken.
    """
    n = scores.shape[1]
    kth = np.partition(scores, n - k, axis=1)[:, n - k, None]
    chosen = scores >= kth
    rows = np.flatnonzero(np.count_nonzero(chosen, axis=1) > k)
    if rows.size:
        sub, cut = scores[rows], kth[rows]
        above = sub > cut
        tied = sub == cut
        room = k - np.count_nonzero(above, axis=1)
        chosen[rows] = above | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    return chosen


# Score cells ranked at a time, which bounds the ranking's temporaries at
# any label count.
_RANK_CELLS = 1 << 16


def _ranked_hits(scores: np.ndarray, active: np.ndarray, depth: int) -> np.ndarray:
    """(records, depth) booleans: whether each record's label at each rank
    is active.  Ranks run by descending score, ties by ascending label
    index, so the first k columns hold the labels ``_top_k_mask`` picks at
    k.  Rows are ranked in blocks of about ``_RANK_CELLS`` cells."""
    m, n = scores.shape
    hits = np.empty((m, depth), dtype=np.bool_)
    step = max(1, _RANK_CELLS // n)
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        # The chosen labels in ascending index order, then stably sorted
        # by descending score.
        labels = np.nonzero(_top_k_mask(scores[rows], depth))[1].reshape(-1, depth)
        picked = np.take_along_axis(scores[rows], labels, axis=1)
        order = np.argsort(-picked, axis=1, kind="stable")
        ranked = np.take_along_axis(labels, order, axis=1)
        hits[rows] = np.take_along_axis(active[rows], ranked, axis=1)
    return hits


def _harmonic(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Elementwise harmonic mean of nonnegative p and r.  Where p == r
    (zero included) it is p itself: the harmonic mean of equal values is
    that value, and routing them through 2pr/(p+r) can lose it by an ulp."""
    equal = np.array(p, dtype=np.float64)
    return np.divide(2.0 * p * r, p + r, out=equal, where=p != r)


class AtK(NamedTuple):
    """The ranked metrics at rank k; ``ndcg`` is None when every record
    has an empty gold set."""

    k: int
    at_k: AtKResult
    ndcg: Optional[NdcgResult]


def metrics_at_k(
    records: StackedRecords, ks: Sequence[int], per_record_f1: bool = False
) -> list[AtK]:
    """Prec@k, Rec@k, F1@k and nDCG@k for each k in ``ks``, in order, all
    read off one ranking of every record's top ``max(ks)`` labels.

    Per record the k top-ranked labels are predicted active: precision is
    hits/k and recall hits/act(gold).  F1 is the harmonic mean of the
    dataset-averaged precision and recall or, with ``per_record_f1``, the
    average of per-record harmonic means.  nDCG gives an active label gain
    1 at discount 1/log2(rank+1), normalized by a perfect ranking's DCG.
    Raises ValueError when there are no records or a k is outside 1..n.
    """
    scores, active = _stack(records)
    n = scores.shape[1]
    for k in ks:
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > n:
            raise ValueError(f"k={k} exceeds label count n={n}")
    hits = _ranked_hits(scores, active, max(ks))
    counts = np.count_nonzero(active, axis=1)
    empty = counts == 0
    empty_gold = int(np.count_nonzero(empty))
    ndcgs = _ndcg_at(hits[~empty], counts[~empty], set(ks), len(records))
    out = []
    for k in ks:
        found = np.count_nonzero(hits[:, :k], axis=1)
        precs = found / k
        recs = np.divide(found, counts, out=np.ones(len(records)), where=~empty)
        mean_p = np.mean(precs)
        mean_r = np.mean(recs)
        if per_record_f1:
            f1 = np.mean(_harmonic(precs, recs))
        else:
            f1 = _harmonic(mean_p, mean_r)
        at_k = AtKResult(float(mean_p), float(mean_r), float(f1), empty_gold)
        out.append(AtK(k, at_k, ndcgs.get(k)))
    return out


def _ndcg_at(
    hits: np.ndarray, counts: np.ndarray, ks: set[int], records: int
) -> dict[int, NdcgResult]:
    """nDCG at each k in ``ks`` from the ranked hits and gold counts of the
    records with non-empty gold; empty when there are none."""
    scored = len(counts)
    if not scored:
        return {}
    discounts = [1.0 / math.log2(rank + 1) for rank in range(1, max(ks) + 1)]
    out = {}
    # Summed in rank order, as one record at a time would: adding a 0.0
    # for a miss leaves the running sum unchanged.
    dcg = np.zeros(scored)
    for k, discount in enumerate(discounts, start=1):
        dcg += np.where(hits[:, k - 1], discount, 0.0)
        if k not in ks:
            continue
        # The ideal DCG is the builtin sum() of the first min(k, |gold|)
        # discounts, as per record, once per distinct length.
        ideal_at = np.minimum(counts, k)
        ideals = {a: sum(discounts[:a]) for a in np.unique(ideal_at).tolist()}
        ideal = np.array([ideals[a] for a in ideal_at.tolist()])
        total = 0.0
        for ratio in (dcg / ideal).tolist():
            total += ratio
        out[k] = NdcgResult(total / scored, scored, records - scored)
    return out


def prec_rec_f1_at_k(
    records: StackedRecords, k: int, per_record_f1: bool = False
) -> AtKResult:
    """Precision, recall and F1 at rank k: ``metrics_at_k`` for one k."""
    return metrics_at_k(records, [k], per_record_f1)[0].at_k


def micro_macro_f1(
    records: StackedRecords, threshold: float = 0.5
) -> MicroMacroResult:
    """Micro- and macro-averaged F1 of thresholded predictions.

    A label is predicted active when its score is strictly above the
    threshold.  Micro pools true/false positives and false negatives
    over every (record, label) pair; macro computes F1 per label and
    averages over all n labels.
    """
    scores, actual = _stack(records)
    predicted = scores > threshold
    tp = (predicted & actual).sum(axis=0).astype(np.int64)
    fp = (predicted & ~actual).sum(axis=0).astype(np.int64)
    fn = (~predicted & actual).sum(axis=0).astype(np.int64)
    micro_den = 2 * int(tp.sum()) + int(fp.sum()) + int(fn.sum())
    micro = 0.0 if micro_den == 0 else 2.0 * int(tp.sum()) / micro_den
    label_den = 2 * tp + fp + fn
    zero_support = int(np.count_nonzero(label_den == 0))
    per_label = np.where(label_den == 0, 0.0, 2.0 * tp / np.maximum(label_den, 1))
    return MicroMacroResult(float(micro), float(per_label.mean()), zero_support)


def ndcg_at_k(records: StackedRecords, k: int) -> NdcgResult:
    """Normalized discounted cumulative gain at rank k: ``metrics_at_k``
    at min(k, n).  A ValueError when every record has an empty gold set,
    since there is nothing to average."""
    scores, active = _stack(records)
    if not active.any():
        raise ValueError("every record has an empty gold set")
    return metrics_at_k(records, [min(k, scores.shape[1])])[0].ndcg
