"""Ranking and thresholded retrieval metrics.

Every closed-form expectation here was recomputed by hand or against
the naive reference implementations before being frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argmaxable import metrics
from argmaxable.labelspace import LabelAssignment
from argmaxable.metrics import (
    StackedRecords,
    metrics_at_k,
    micro_macro_f1,
    ndcg_at_k,
    prec_rec_f1_at_k,
)
from reference_impls import (
    naive_ndcg_at_k,
    naive_prec_rec_at_k,
    ranked_labels,
    reference_ndcg_at_k,
    reference_prec_rec_f1_at_k,
)


def _record(scores, gold):
    """Scores plus a 0-based set of active gold labels."""
    return np.asarray(scores, dtype=float), gold


def _stacked(records):
    """A non-empty sequence of ``_record`` pairs as one StackedRecords."""
    golds = [
        LabelAssignment.from_active(scores.size, [i + 1 for i in gold])
        for scores, gold in records
    ]
    return StackedRecords.from_gold(np.array([r[0] for r in records]), golds)


class TestTopKPrecisionRecall:
    def test_hand_worked_single_record(self):
        # Ranking is label 0, then 1, then 2; gold is {1}; k=2 picks
        # labels {0, 1} so one of two retrieved is relevant.
        rec = _record([0.9, 0.8, 0.1], {1})
        out = prec_rec_f1_at_k(_stacked([rec]), k=2)
        assert out.prec == pytest.approx(0.5)
        assert out.rec == pytest.approx(1.0)
        assert out.f1 == pytest.approx(2 / 3)
        assert out.empty_gold == 0

    def test_perfect_ranking(self):
        rec = _record([0.1, 0.9, 0.8, 0.2], {1, 2})
        out = prec_rec_f1_at_k(_stacked([rec]), k=2)
        assert out.prec == 1.0
        assert out.rec == 1.0
        assert out.f1 == 1.0

    def test_f1_equals_p_when_p_equals_r(self):
        # |gold| == k forces precision == recall, and then the harmonic
        # mean collapses to that common value.
        rng = np.random.default_rng(50)
        records = []
        for _ in range(20):
            scores = rng.standard_normal(8)
            gold = set(map(int, rng.choice(8, size=3, replace=False)))
            records.append(_record(scores, gold))
        out = prec_rec_f1_at_k(_stacked(records), k=3)
        assert out.prec == pytest.approx(out.rec)
        assert out.f1 == pytest.approx(out.prec)

    def test_dataset_averaging_then_harmonic(self):
        # At k=2, record A (gold is everything) has P=1, R=1/2 and
        # record B (gold is one top label) has P=1/2, R=1.  Averaged
        # first, P=R=3/4 gives F1=3/4; per-record F1 is 2/3 twice,
        # which tells the two conventions apart.
        scores = [0.9, 0.8, 0.1, 0.0]
        a = _record(scores, {0, 1, 2, 3})
        b = _record(scores, {0})
        merged = prec_rec_f1_at_k(_stacked([a, b]), k=2)
        assert merged.prec == pytest.approx(0.75)
        assert merged.rec == pytest.approx(0.75)
        assert merged.f1 == pytest.approx(0.75)
        with_flag = prec_rec_f1_at_k(_stacked([a, b]), k=2, per_record_f1=True)
        assert with_flag.f1 == pytest.approx(2 / 3)

    def test_empty_gold_counts_as_full_recall_and_is_flagged(self):
        rec = _record([0.3, 0.2], set())
        out = prec_rec_f1_at_k(_stacked([rec]), k=1)
        assert out.rec == 1.0
        assert out.prec == 0.0
        assert out.empty_gold == 1

    def test_ties_break_toward_lower_index(self):
        rec = _record([0.5, 0.5, 0.5], {2})
        out = prec_rec_f1_at_k(_stacked([rec]), k=2)
        # Labels 0 and 1 win the tie, so the single gold label at
        # index 2 is missed.
        assert out.prec == 0.0
        assert out.rec == 0.0

    def test_k_beyond_label_count_rejected(self):
        rec = _record([0.5, 0.1], {0, 1})
        with pytest.raises(ValueError):
            prec_rec_f1_at_k(_stacked([rec]), k=10)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            prec_rec_f1_at_k(_stacked([_record([0.5], {0})]), k=0)

    def test_empty_dataset_rejected(self):
        empty = StackedRecords.from_gold(np.zeros((0, 2)), [])
        with pytest.raises(ValueError, match="no records"):
            prec_rec_f1_at_k(empty, k=1)

    def test_agrees_with_naive_reference(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            scores = rng.standard_normal(n)
            gold = set(
                map(int, rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            )
            mine = prec_rec_f1_at_k(_stacked([_record(scores, gold)]), k=k)
            ref_p, ref_r = naive_prec_rec_at_k(list(scores), gold, k)
            assert mine.prec == pytest.approx(ref_p, abs=1e-12)
            assert mine.rec == pytest.approx(ref_r, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=2, max_size=9, unique=True
        ),
        st.data(),
    )
    def test_monotone_transform_leaves_metrics_alone(self, scores, data):
        n = len(scores)
        gold = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
        )
        k = data.draw(st.integers(1, n))
        base = prec_rec_f1_at_k(_stacked([_record(scores, gold)]), k=k)
        warped = prec_rec_f1_at_k(
            _stacked([_record([math.tanh(s) for s in scores], gold)]), k=k
        )
        assert warped.prec == pytest.approx(base.prec)
        assert warped.rec == pytest.approx(base.rec)

    def test_record_order_does_not_matter(self):
        rng = np.random.default_rng(52)
        records = [
            _record(rng.standard_normal(6), set(map(int, rng.choice(6, size=2))))
            for _ in range(12)
        ]
        fwd = prec_rec_f1_at_k(_stacked(records), k=2)
        rev = prec_rec_f1_at_k(_stacked(records[::-1]), k=2)
        assert fwd == rev


class TestMicroMacroF1:
    def test_hand_worked_micro(self):
        # Threshold 0.5, strict: predictions are {0} and {0, 2}; gold
        # are {0} and {2}.  Pooled TP=2, FP=1, FN=0.
        a = _record([0.9, 0.2, 0.4], {0})
        b = _record([0.8, 0.1, 0.7], {2})
        out = micro_macro_f1(_stacked([a, b]))
        assert out.micro_f1 == pytest.approx(2 * 2 / (2 * 2 + 1 + 0))

    def test_macro_averages_per_label(self):
        # Label 0 predicted perfectly on both records, label 1 never
        # predicted though always gold: per-label F1s are 1 and 0.
        a = _record([0.9, 0.2], {0, 1})
        b = _record([0.8, 0.3], {0, 1})
        out = micro_macro_f1(_stacked([a, b]))
        assert out.macro_f1 == pytest.approx(0.5)
        assert out.zero_support_labels == 0

    def test_label_without_support_counts_as_zero_and_is_flagged(self):
        # Label 1 is never gold and never predicted.
        a = _record([0.9, 0.2], {0})
        out = micro_macro_f1(_stacked([a]))
        assert out.zero_support_labels == 1
        assert out.macro_f1 == pytest.approx(0.5)

    def test_threshold_is_strict(self):
        rec = _record([0.5, 0.6], {0, 1})
        out = micro_macro_f1(_stacked([rec]), threshold=0.5)
        # 0.5 itself is not above the threshold, so only label 1 is
        # predicted: TP=1, FN=1, FP=0.
        assert out.micro_f1 == pytest.approx(2 / 3)

    def test_all_correct_gives_one(self):
        recs = [_record([0.9, 0.1, 0.8], {0, 2}), _record([0.2, 0.7, 0.1], {1})]
        out = micro_macro_f1(_stacked(recs))
        assert out.micro_f1 == 1.0
        assert out.macro_f1 == 1.0

    def test_mixed_label_counts_rejected(self):
        # Rows of two lengths never make a stack, so no metric sees them.
        with pytest.raises(ValueError):
            _stacked([_record([0.5], {0}), _record([0.5, 0.5], {0})])

    def test_empty_dataset_rejected(self):
        empty = StackedRecords.from_gold(np.zeros((0, 2)), [])
        with pytest.raises(ValueError, match="no records"):
            micro_macro_f1(empty)

    def test_micro_bounds(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            recs = [
                _record(
                    rng.uniform(size=5),
                    set(map(int, rng.choice(5, size=2, replace=False))),
                )
                for _ in range(4)
            ]
            out = micro_macro_f1(_stacked(recs))
            assert 0.0 <= out.micro_f1 <= 1.0
            assert 0.0 <= out.macro_f1 <= 1.0


class TestNdcg:
    def test_single_relevant_at_rank_two(self):
        rec = _record([0.9, 0.8, 0.1], {1})
        out = ndcg_at_k(_stacked([rec]), k=3)
        assert out.ndcg == pytest.approx(1.0 / math.log2(3))
        assert out.scored == 1
        assert out.skipped == 0

    def test_perfect_order_gives_one(self):
        rec = _record([0.9, 0.8, 0.1, 0.05], {0, 1})
        out = ndcg_at_k(_stacked([rec]), k=2)
        assert out.ndcg == pytest.approx(1.0)

    def test_all_relevant_below_k_gives_zero(self):
        rec = _record([0.9, 0.8, 0.1], {2})
        out = ndcg_at_k(_stacked([rec]), k=2)
        assert out.ndcg == pytest.approx(0.0)

    def test_empty_gold_records_are_skipped(self):
        good = _record([0.9, 0.1], {0})
        empty = _record([0.9, 0.1], set())
        out = ndcg_at_k(_stacked([good, empty]), k=1)
        assert out.ndcg == pytest.approx(1.0)
        assert out.scored == 1
        assert out.skipped == 1

    def test_every_record_empty_is_an_error(self):
        with pytest.raises(ValueError):
            ndcg_at_k(_stacked([_record([0.5, 0.1], set())]), k=1)

    def test_ideal_normalizer_truncates_at_k(self):
        # Three gold labels but k=2: the ideal DCG only counts two
        # hits, so placing two gold labels on top already scores 1.
        rec = _record([0.9, 0.8, 0.1, 0.05], {0, 1, 3})
        out = ndcg_at_k(_stacked([rec]), k=2)
        assert out.ndcg == pytest.approx(1.0)

    def test_agrees_with_naive_reference(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            scores = rng.standard_normal(n)
            gold = set(
                map(int, rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            )
            mine = ndcg_at_k(_stacked([_record(scores, gold)]), k=k)
            ref = naive_ndcg_at_k(list(scores), gold, k)
            assert mine.ndcg == pytest.approx(ref, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            rec = _record(
                rng.standard_normal(7),
                set(map(int, rng.choice(7, size=3, replace=False))),
            )
            out = ndcg_at_k(_stacked([rec]), k=4)
            assert 0.0 <= out.ndcg <= 1.0 + 1e-12


def _dataset(rng, kind, m, n):
    """Score rows and 0-based gold sets; every third record has empty
    gold.  The kinds stress the tie rule: 'rounded' rows hold a few
    repeated integers (zeros of both signs included), 'equal' rows are
    constant."""
    scores = rng.standard_normal((m, n))
    if kind == "rounded":
        scores = np.round(scores)
        zeros = scores == 0.0
        scores[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    elif kind == "equal":
        scores = np.repeat(rng.standard_normal((m, 1)), n, axis=1)
    golds = [
        set() if r % 3 == 2 else set(np.flatnonzero(rng.random(n) < 0.3).tolist())
        for r in range(m)
    ]
    return scores, golds


class TestExactAgainstReference:
    """Dataset-level metrics equal (==, not approx) a one-record-at-a-time
    reference that keeps the same float operations in the same order."""

    @pytest.mark.parametrize("kind", ["random", "rounded", "equal"])
    @pytest.mark.parametrize("m, n", [(1, 1), (5, 4), (30, 17), (12, 60)])
    def test_at_k_and_ndcg(self, kind, m, n):
        rng = np.random.default_rng(m * 100 + n)
        scores, golds = _dataset(rng, kind, m, n)
        records = _stacked([_record(row, gold) for row, gold in zip(scores, golds)])
        rows = [list(row) for row in scores]
        for k in sorted({1, min(2, n), max(1, n // 2), n}):
            for flag in (False, True):
                got = prec_rec_f1_at_k(records, k, per_record_f1=flag)
                assert tuple(got) == reference_prec_rec_f1_at_k(rows, golds, k, flag)
        for k in sorted({1, 2, n, n + 3}):
            if not any(golds):
                with pytest.raises(ValueError, match="empty gold set"):
                    ndcg_at_k(records, k)
                continue
            assert tuple(ndcg_at_k(records, k)) == reference_ndcg_at_k(rows, golds, k)

    def test_ties_at_the_cut_fill_in_label_order(self):
        # Four labels tie at the 2nd-largest value: labels 1 and 3 win
        # the two places left after label 2, then rank in index order.
        rec = _record([0.0, 1.0, 2.0, 1.0, 1.0, 1.0], {3, 4})
        assert prec_rec_f1_at_k(_stacked([rec]), k=3).prec == 1 / 3
        assert ndcg_at_k(_stacked([rec]), k=3).ndcg == (1 / math.log2(4)) / (
            1 + 1 / math.log2(3)
        )

    def test_ranking_helper_matches_stable_sort(self):
        scores = [0.5, 0.9, 0.5, 0.1]
        assert ranked_labels(scores) == [1, 0, 2, 3]


class TestOneRanking:
    """metrics_at_k ranks each record once, in row blocks, and reads every
    k off that ranking; each figure equals the one-record-at-a-time
    reference bit for bit."""

    def _check(self, scores, golds, ks):
        records = _stacked([_record(row, gold) for row, gold in zip(scores, golds)])
        rows = [list(row) for row in scores]
        for flag in (False, True):
            got = metrics_at_k(records, ks, per_record_f1=flag)
            assert [r.k for r in got] == list(ks)
            for k, r in zip(ks, got):
                assert tuple(r.at_k) == reference_prec_rec_f1_at_k(rows, golds, k, flag)
                if any(golds):
                    assert tuple(r.ndcg) == reference_ndcg_at_k(rows, golds, k)
                else:
                    assert r.ndcg is None

    @pytest.mark.parametrize("gold", ["some empty", "all empty"])
    @pytest.mark.parametrize("block_rows", [1, 3, 7, None])
    def test_tied_scores_across_row_blocks(self, gold, block_rows, monkeypatch):
        # Integers 0..3 and zeros of both signs tie at nearly every cut;
        # 23 records are more than one block and not a multiple of one.
        rng = np.random.default_rng(71)
        m, n = 23, 12
        if block_rows is not None:
            monkeypatch.setattr(metrics, "_RANK_CELLS", block_rows * n)
        scores = rng.integers(0, 4, (m, n)).astype(float)
        zeros = scores == 0.0
        scores[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        golds = [
            set()
            if gold == "all empty" or r % 4 == 1
            else set(np.flatnonzero(rng.random(n) < 0.3).tolist())
            for r in range(m)
        ]
        self._check(scores, golds, (10, 1, 5, 5, n))

    def test_default_block_over_many_rows(self):
        rng = np.random.default_rng(72)
        n = 700
        m = 2 * (metrics._RANK_CELLS // n) + 5
        scores, golds = _dataset(rng, "rounded", m, n)
        self._check(scores, golds, (10, 1, 5, 5))

    def test_one_partition_per_block_at_the_deepest_k(self, monkeypatch):
        calls = []

        def counting(scores, k):
            calls.append((scores.shape[0], k))
            return top_k_mask(scores, k)

        top_k_mask = metrics._top_k_mask
        monkeypatch.setattr(metrics, "_top_k_mask", counting)
        monkeypatch.setattr(metrics, "_RANK_CELLS", 4 * 6)
        scores, golds = _dataset(np.random.default_rng(73), "random", 10, 6)
        records = _stacked([_record(row, gold) for row, gold in zip(scores, golds)])
        metrics_at_k(records, [2, 1, 5])
        assert calls == [(4, 5), (4, 5), (2, 5)]

    @pytest.mark.parametrize("ks", [[0], [1, 0], [3, 7]])
    def test_bad_ranks_raise_before_any_ranking(self, ks):
        records = _stacked([_record([0.5, 0.1, 0.3], {1})])
        with pytest.raises(ValueError, match="k must be >= 1|exceeds label count"):
            metrics_at_k(records, ks)


class TestStackedRecords:
    """The one input form of every metric: checked when built, so no
    metric sees a ragged, non-finite or mismatched record."""

    @pytest.mark.parametrize("kind", ["random", "rounded", "equal"])
    def test_same_numbers_as_the_records(self, kind):
        # Micro/macro F1 of the stack against a record-by-record count.
        rng = np.random.default_rng(17)
        scores, golds = _dataset(rng, kind, 25, 12)
        stacked = _stacked([_record(row, gold) for row, gold in zip(scores, golds)])
        assert len(stacked) == 25
        for threshold in (-0.5, 0.0, 0.5):
            tp, fp, fn = [0] * 12, [0] * 12, [0] * 12
            for row, gold in zip(scores.tolist(), golds):
                for label, score in enumerate(row):
                    predicted, actual = score > threshold, label in gold
                    tp[label] += predicted and actual
                    fp[label] += predicted and not actual
                    fn[label] += actual and not predicted
            dens = [2 * t + p + n for t, p, n in zip(tp, fp, fn)]
            micro_den = sum(dens)
            micro = 0.0 if micro_den == 0 else 2.0 * sum(tp) / micro_den
            macro = sum(2.0 * t / d if d else 0.0 for t, d in zip(tp, dens)) / 12
            out = micro_macro_f1(stacked, threshold)
            assert out.micro_f1 == micro
            assert out.macro_f1 == pytest.approx(macro, rel=1e-15, abs=0.0)
            assert out.zero_support_labels == dens.count(0)

    def test_bad_rows_raise_the_record_errors(self):
        gold = [LabelAssignment.from_active(2, [1])] * 2
        short = [gold[0], LabelAssignment.from_active(3, [1])]
        scores = np.array([[0.5, 0.1], [0.2, 0.3]])
        with pytest.raises(ValueError, match=r"^scores have length 2, gold has n=3$"):
            StackedRecords.from_gold(scores, short)
        with pytest.raises(ValueError, match=r"^scores must be finite$"):
            StackedRecords.from_gold(np.array([[0.5, 0.1], [0.2, np.inf]]), gold)
        with pytest.raises(ValueError, match="one score row per gold"):
            StackedRecords.from_gold(scores, gold[:1])

    @pytest.mark.parametrize("metric", [prec_rec_f1_at_k, ndcg_at_k])
    def test_no_records(self, metric):
        empty = StackedRecords.from_gold(np.zeros((0, 3)), [])
        with pytest.raises(ValueError, match="no records"):
            metric(empty, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="boolean array of the scores' shape"):
            StackedRecords(np.zeros((2, 3)), np.zeros((2, 2), dtype=bool))

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StackedRecords(np.array([[0.5, np.nan]]), np.array([[True, False]]))

    def test_scores_must_be_two_d(self):
        with pytest.raises(ValueError, match="2-d"):
            StackedRecords(np.array([0.5, 0.1]), np.array([True, False]))

    def test_active_must_be_boolean(self):
        with pytest.raises(ValueError, match="boolean"):
            StackedRecords(np.array([[0.5, 0.1]]), np.array([[1, 0]]))
