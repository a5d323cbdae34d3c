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
from typing import NamedTuple, Sequence

import numpy as np

from .labelspace import LabelAssignment

__all__ = [
    "StackedRecords",
    "AtKResult",
    "MicroMacroResult",
    "NdcgResult",
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


def _harmonic(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Elementwise harmonic mean of nonnegative p and r.  Where p == r
    (zero included) it is p itself: the harmonic mean of equal values is
    that value, and routing them through 2pr/(p+r) can lose it by an ulp."""
    equal = np.array(p, dtype=np.float64)
    return np.divide(2.0 * p * r, p + r, out=equal, where=p != r)


def prec_rec_f1_at_k(
    records: StackedRecords, k: int, per_record_f1: bool = False
) -> AtKResult:
    """Precision, recall, and F1 at rank k, averaged over records.

    Per record the k top-scored labels are predicted active: precision is
    hits/k and recall hits/act(gold) (1.0 when the gold set is empty).
    By default F1 is the harmonic mean of the dataset-averaged precision
    and recall; with ``per_record_f1`` the harmonic mean is taken per
    record and then averaged.
    """
    scores, active = _stack(records)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = scores.shape[1]
    if k > n:
        raise ValueError(f"k={k} exceeds label count n={n}")
    hits = np.count_nonzero(_top_k_mask(scores, k) & active, axis=1)
    counts = np.count_nonzero(active, axis=1)
    empty = counts == 0
    precs = hits / k
    recs = np.divide(hits, counts, out=np.ones(len(records)), where=~empty)
    mean_p = np.mean(precs)
    mean_r = np.mean(recs)
    if per_record_f1:
        f1 = np.mean(_harmonic(precs, recs))
    else:
        f1 = _harmonic(mean_p, mean_r)
    empty_gold = int(np.count_nonzero(empty))
    return AtKResult(float(mean_p), float(mean_r), float(f1), empty_gold)


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
    """Normalized discounted cumulative gain at rank k, averaged over the
    records that have at least one active gold label.

    Gain is 1 for an active label, 0 otherwise; the discount at rank r is
    1/log2(r+1); the normalizer is the DCG of a perfect ranking.  A record
    with empty gold is skipped and counted; if every record is skipped
    there is nothing to average and a ValueError is raised.
    """
    scores, active = _stack(records)
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = np.count_nonzero(active, axis=1)
    keep = counts > 0
    scored = int(np.count_nonzero(keep))
    if scored == 0:
        raise ValueError("every record has an empty gold set")
    k = min(k, scores.shape[1])
    scores, active = scores[keep], active[keep]
    # The k chosen labels in ascending index order, then stably sorted by
    # descending score: the rank order with ties by ascending index.
    labels = np.nonzero(_top_k_mask(scores, k))[1].reshape(scored, k)
    picked = np.take_along_axis(scores, labels, axis=1)
    ranked = np.take_along_axis(
        labels, np.argsort(-picked, axis=1, kind="stable"), axis=1
    )
    hit = np.take_along_axis(active, ranked, axis=1)
    discounts = [1.0 / math.log2(rank + 1) for rank in range(1, k + 1)]
    # Summed in rank order, as one record at a time would: adding a 0.0
    # for a miss leaves the running sum unchanged.
    dcg = np.zeros(scored)
    for col, discount in enumerate(discounts):
        dcg += np.where(hit[:, col], discount, 0.0)
    # The ideal DCG is the builtin sum() of the first min(k, |gold|)
    # discounts, as per record, once per distinct length.
    ideal_at = np.minimum(counts[keep], k)
    ideals = {a: sum(discounts[:a]) for a in np.unique(ideal_at).tolist()}
    ideal = np.array([ideals[a] for a in ideal_at.tolist()])
    total = 0.0
    for ratio in (dcg / ideal).tolist():
        total += ratio
    return NdcgResult(total / scored, scored, len(records) - scored)
