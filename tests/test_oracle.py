"""Region enumeration: the great-circle sampler, at every d."""

import threading

import numpy as np
import pytest

from argmaxable.dftlayer import build_dft_matrix
from argmaxable.labelspace import (
    FamilyKind,
    FamilySpec,
    LabelAssignment,
    alt,
    cover_count,
    enumerate_family,
)
from argmaxable import linalg, oracle
from argmaxable.linalg import WeightMatrix, is_general_position
from argmaxable.oracle import EnumerationMethod, enumerate_regions_sampled
from reference_impls import (
    reference_planar_regions,
    reference_sampled_enumeration,
    region_count_formula,
)

_CHUNK = 1 << 15


def _planar(w, **kwargs):
    """A planar layer's sampled regions, which must be complete after the
    first circle's n probes: one circle is the whole plane."""
    regions = enumerate_regions_sampled(w, **kwargs)
    assert regions.method is EnumerationMethod.SAMPLED_COMPLETE
    assert regions.samples_used == w.n
    return regions


class TestPlanarLayers:
    def test_random_three_rows_give_six_regions(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            w = WeightMatrix(rng.standard_normal((3, 2)))
            regions = _planar(w)
            assert len(regions.members) == 6
            assert regions.members == frozenset(
                LabelAssignment(y) for y in reference_planar_regions(w.entries)
            )

    def test_increasing_node_rows_give_low_alternation_vectors(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        w = WeightMatrix(np.stack([np.ones(4), t], axis=1))
        regions = _planar(w)
        expected = set(enumerate_family(FamilySpec(4, 1, FamilyKind.ALTERNATING)))
        assert regions.members == frozenset(expected)
        assert all(alt(y) <= 1 for y in regions.members)

    def test_identity_gives_quadrants(self):
        regions = _planar(WeightMatrix(np.eye(2)))
        got = {y.to_dense().replace("−", "-") for y in regions.members}
        assert got == {"++", "+-", "-+", "--"}

    def test_single_row_gives_two_halves(self):
        regions = _planar(WeightMatrix(np.array([[1.0, 2.0]])))
        got = {y.to_dense().replace("−", "-") for y in regions.members}
        assert got == {"+", "-"}

    def test_antipodal_closure(self):
        rng = np.random.default_rng(32)
        w = WeightMatrix(rng.standard_normal((5, 2)))
        regions = _planar(w)
        assert len(regions.members) == 10
        for y in regions.members:
            assert y.flip() in regions.members

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], {"+++", "++-", "--+", "---"}),
            ([[1.0, 1.0], [-3.0, -3.0], [0.0, 1.0]], {"+-+", "+--", "-++", "-+-"}),
        ],
        ids=["collinear", "antiparallel"],
    )
    def test_parallel_rows_stay_partial_with_their_four_regions(
        self, entries, expected
    ):
        # Two rows on one line cut the plane as one, so the layer has 4
        # regions, below cover_count(3, 2) = 6: no budget certifies it.
        regions = enumerate_regions_sampled(
            WeightMatrix(np.array(entries)), budget=10**5
        )
        assert regions.method is EnumerationMethod.SAMPLED_PARTIAL
        assert regions.samples_used == 10**5
        got = {y.to_dense().replace("−", "-") for y in regions.members}
        assert got == expected


class TestSampledEnumeration:
    def test_spectral_six_three_is_complete_with_the_expected_members(self):
        w = build_dft_matrix(6, 1)
        regions = enumerate_regions_sampled(w, budget=10**6, seed=0)
        assert regions.method is EnumerationMethod.SAMPLED_COMPLETE
        assert len(regions.members) == 32
        expected = set(enumerate_family(FamilySpec(6, 2, FamilyKind.ALTERNATING)))
        assert regions.members == frozenset(expected)
        assert regions.samples_used <= 10**6

    def test_budget_zero_is_partial_and_empty(self):
        w = build_dft_matrix(6, 1)
        regions = enumerate_regions_sampled(w, budget=0, seed=0)
        assert regions.method is EnumerationMethod.SAMPLED_PARTIAL
        assert regions.members == frozenset()
        assert regions.samples_used == 0

    def test_members_never_exceed_the_region_count(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 5))
            w = WeightMatrix(rng.standard_normal((n, d)))
            regions = enumerate_regions_sampled(w, budget=2 * 10**5, seed=7)
            assert len(regions.members) <= cover_count(n, d)

    def test_antipodal_closure_even_when_partial(self):
        rng = np.random.default_rng(34)
        w = WeightMatrix(rng.standard_normal((10, 3)))
        regions = enumerate_regions_sampled(w, budget=2048, seed=1)
        for y in regions.members:
            assert y.flip() in regions.members

    def test_agrees_with_the_boundary_walk_in_two_columns(self):
        # At d = 2 one great circle is the whole plane: its first half-turn
        # finds every region, so the first chunk, one circle, completes.
        rng = np.random.default_rng(35)
        for _ in range(5):
            w = WeightMatrix(rng.standard_normal((5, 2)))
            sampled = _planar(w, budget=10**6, seed=2)
            assert {tuple(y.signs) for y in sampled.members} == (
                reference_planar_regions(w.entries)
            )

    def test_minor_sign_uniformity_bounds_alternations(self):
        # All-positive minors force every achievable vector below d
        # alternations; check each sampled member, complete or not.
        for n, k in ((8, 1), (10, 2), (12, 1)):
            w = build_dft_matrix(n, k)
            regions = enumerate_regions_sampled(w, budget=10**5, seed=3)
            bound = w.d - 1
            for y in regions.members:
                assert alt(y) <= bound

    def test_duplicated_row_is_never_certified_complete(self):
        rng = np.random.default_rng(36)
        base = rng.standard_normal((4, 3))
        w = WeightMatrix(np.vstack([base, base[0]]))
        regions = enumerate_regions_sampled(w, budget=10**5, seed=4)
        assert regions.method is EnumerationMethod.SAMPLED_PARTIAL

    def test_a_layer_past_the_minor_budget_stays_partial_below_its_count(self):
        # 10^4 probes and their antipodes give at most 2 * 10^4 vectors, far
        # below cover_count(40, 8), so the run cannot be certified.  That
        # C(40, 8) ~ 7.7e7 minors is over the scan's budget plays no part.
        w = WeightMatrix(np.random.default_rng(38).standard_normal((40, 8)))
        assert cover_count(40, 8) > 2 * 10**4
        regions = enumerate_regions_sampled(w, budget=10**4, seed=0)
        assert regions.method is EnumerationMethod.SAMPLED_PARTIAL
        assert regions.members

    def test_no_minor_scan_is_run(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("scan called")

        monkeypatch.setattr(oracle, "is_general_position", broken)
        monkeypatch.setattr(linalg, "gr_plus_status", broken)
        regions = enumerate_regions_sampled(build_dft_matrix(6, 1), budget=10**5)
        assert regions.method is EnumerationMethod.SAMPLED_COMPLETE
        assert len(regions.members) == cover_count(6, 3)

    def test_complete_exactly_when_the_count_is_reached(self):
        # Small integer layers, every third with its last row the negation
        # of its first (so never in general position): the members never
        # exceed the count, the run is certified exactly when they reach
        # it, and no layer the minor scan calls degenerate reaches it.
        rng = np.random.default_rng(41)
        certified = degenerate = 0
        for i in range(120):
            n, d = int(rng.integers(3, 11)), int(rng.integers(2, 5))
            entries = rng.integers(-2, 3, size=(n, d)).astype(float)
            if i % 3 == 0:
                entries[-1] = -entries[0]
            # A zero row is no hyperplane; redraw it.
            while (zero := ~entries.any(axis=1)).any():
                entries[zero] = rng.integers(-2, 3, size=(zero.sum(), d))
            w = WeightMatrix(entries)
            regions = enumerate_regions_sampled(w, budget=10**5, seed=i)
            count = cover_count(n, d)
            reached = len(regions.members) == count
            assert len(regions.members) <= count
            assert (regions.method is EnumerationMethod.SAMPLED_COMPLETE) == reached
            if not is_general_position(w):
                degenerate += 1
                assert not reached
            certified += reached
        assert degenerate > 0 and certified > 0

    def test_draw_counts_are_pinned_on_the_spectral_ten_by_five(self):
        # Per-chunk dedupe must not change what is probed or when sampling
        # stops: the count is the normalised reference loop's.
        w = build_dft_matrix(10, 2)
        regions = enumerate_regions_sampled(w, seed=2)
        assert regions.method is EnumerationMethod.SAMPLED_COMPLETE
        assert regions.samples_used == 163850
        assert regions.boundary_skips == 0
        used, skips, _ = reference_sampled_enumeration(
            w.entries, 10**7, 2, 1e-12, 512
        )
        assert (used, skips) == (163850, 0)
        expected = set(enumerate_family(FamilySpec(10, 4, FamilyKind.ALTERNATING)))
        assert len(expected) == 512
        assert regions.members == frozenset(expected)

    def test_byte_codes_beyond_62_rows_match_the_boundary_walk(self):
        # n > 62 does not fit an int64 code and takes the packbits path.
        rng = np.random.default_rng(40)
        angles = np.pi * (np.arange(70) + 0.5 * rng.random(70)) / 70
        w = WeightMatrix(np.stack([np.cos(angles), np.sin(angles)], axis=1))
        sampled = _planar(w, budget=10**6, seed=6)
        assert {tuple(y.signs) for y in sampled.members} == (
            reference_planar_regions(w.entries)
        )

    def test_spectral_twelve_by_five_is_complete_at_the_default_budget(self):
        # Uniform point probes stopped at 1,108 of its 1,124 regions here.
        # Its regions are the sign vectors of at most d - 1 = 4
        # alternations (Karp 2017).
        w = build_dft_matrix(12, 2)
        regions = enumerate_regions_sampled(w)
        assert regions.method is EnumerationMethod.SAMPLED_COMPLETE
        expected = set(enumerate_family(FamilySpec(12, 4, FamilyKind.ALTERNATING)))
        assert len(expected) == cover_count(12, 5) == 1124
        assert regions.members == frozenset(expected)

    def test_gaussian_twenty_four_by_three_is_complete(self):
        # Uniform point probes stopped at 550 of its 554 regions after
        # 10^8 probes.
        w = WeightMatrix(np.random.default_rng(0).standard_normal((24, 3)))
        regions = enumerate_regions_sampled(w)
        assert regions.method is EnumerationMethod.SAMPLED_COMPLETE
        assert len(regions.members) == cover_count(24, 3) == 554

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(37)
        w = WeightMatrix(rng.standard_normal((7, 3)))
        a = enumerate_regions_sampled(w, budget=10**5, seed=11)
        b = enumerate_regions_sampled(w, budget=10**5, seed=11)
        assert a.members == b.members
        assert a.samples_used == b.samples_used


def _random(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def _with_tiny_row():
    entries = _random((6, 3), 51)
    entries[4] *= 1e-6
    return entries


def _with_duplicated_rows(d=3, seed=52):
    base = _random((4, d), seed)
    return np.vstack([base, base[[0, 2]]])


class TestSampledMatchesTheNormalisedLoop:
    """The sampler, which walks a chunk's great circles in whole arrays,
    takes each probe's logits from W u and W v and builds a boundary mask
    only for chunks that need one, must report exactly what walking one
    circle at a time and normalising every probe on its own reports: the
    same probes, skips and members."""

    @staticmethod
    def _assert_matches(monkeypatch, entries, budget, seed, tau_sign):
        monkeypatch.setattr(oracle, "DEFAULT_TAU_SIGN", tau_sign)
        w = WeightMatrix(entries)
        regions = enumerate_regions_sampled(w, budget=budget, seed=seed)
        used, skips, members = reference_sampled_enumeration(
            w.entries, budget, seed, tau_sign, region_count_formula(w.n, w.d)
        )
        assert regions.samples_used == used
        assert regions.boundary_skips == skips
        assert {tuple(int(v) for v in y.signs) for y in regions.members} == members
        # The packed rows ascend strictly as byte strings.
        rows = [row.tobytes() for row in regions.codes]
        assert rows == sorted(set(rows))
        return regions

    @pytest.mark.parametrize(
        "entries, tau_sign",
        [
            (_random((8, 3), 53), 1e-3),
            (_random((8, 3), 53), 0.05),
            (build_dft_matrix(10, 2).entries, 0.05),
            (_with_tiny_row(), 1e-3),
        ],
        ids=["random-tau-1e-3", "random-tau-0.05", "spectral-tau-0.05",
             "tiny-row-tau-1e-3"],
    )
    def test_boundary_skips_are_counted_alike(self, monkeypatch, entries, tau_sign):
        regions = self._assert_matches(monkeypatch, entries, 100_003, 9, tau_sign)
        assert regions.boundary_skips > 0

    @pytest.mark.parametrize(
        "entries, tau_sign",
        [
            (_random((8, 3), 54), 0.0),
            (_with_tiny_row(), 1e-12),
            (_with_duplicated_rows(), 1e-12),
            (_random((5, 1), 55), 1e-12),
            (_random((5, 2), 58), 1e-12),
            (_random((70, 3), 56), 1e-12),
            (_random((70, 3), 56), 1e-3),
            # Up to 64 labels a code is a uint64; past that, packbits rows.
            (_random((62, 3), 62), 1e-12),
            (_random((63, 3), 63), 1e-12),
            (_random((64, 3), 64), 1e-12),
            (_random((65, 3), 65), 1e-12),
            (_random((64, 1), 66), 1e-12),
            (_random((9, 6), 59), 1e-3),
            # Row norms near 2^450 and 2^-450.  The small layer's logits
            # are all below 1e-12, so it is judged at tau_sign 0; the
            # 8 x 3 layer's minor scan would refuse it for overflow, which
            # the sampler, running no scan, never sees.
            (_random((6, 2), 60) * 2.0**450, 1e-12),
            (_random((6, 2), 60) * 2.0**-450, 0.0),
            (_random((8, 3), 61) * 2.0**450, 1e-12),
        ],
        ids=["tau-0", "tiny-row", "duplicated-rows", "d-1", "d-2",
             "n-70", "n-70-tau-1e-3", "n-62", "n-63", "n-64", "n-65",
             "n-64-d-1", "d-6", "d-2-times-2^450",
             "d-2-times-2^-450", "scan-refused-times-2^450"],
    )
    def test_edge_inputs(self, monkeypatch, entries, tau_sign):
        self._assert_matches(monkeypatch, entries, 70_001, 10, tau_sign)

    def test_every_draw_skipped_leaves_every_chunk_empty(self, monkeypatch):
        # A unit draw's logit on row i is at most ||w_i||, which stays far
        # below this tau_sign, so no draw of any chunk is clean.
        entries = _random((8, 3), 57)
        assert np.linalg.norm(entries, axis=1).max() < 10.0
        regions = self._assert_matches(monkeypatch, entries, 70_001, 13, 10.0)
        assert regions.boundary_skips == regions.samples_used == 70_001
        assert regions.members == frozenset()

    @pytest.mark.parametrize("seed", range(6))
    def test_spectral_ten_by_five_at_the_default_budget(self, monkeypatch, seed):
        regions = self._assert_matches(
            monkeypatch, build_dft_matrix(10, 2).entries, 10**7, seed, 1e-12
        )
        assert regions.method is EnumerationMethod.SAMPLED_COMPLETE

    # The first chunk is one circle and every chunk draws whole circles,
    # the last cut to the budget; budgets on either side of a chunk edge,
    # and ones that are no multiple of the n probes per circle, pin that
    # no probe past the cut is counted.  A budget is given as (chunks,
    # offset): the probes of that many whole chunks, plus the offset.
    @pytest.mark.parametrize(
        "chunks, offset",
        [(0, 1), (0, 17), (1, 0), (1, 1), (2, 0), (2, 1), (3, -1)],
        ids=["one", "seventeen", "circle", "circle-plus-1", "two-chunks",
             "two-chunks-plus-1", "three-chunks-minus-1"],
    )
    @pytest.mark.parametrize(
        "entries",
        [_with_duplicated_rows(), _random((70, 3), 56),
         _with_duplicated_rows(2, 58), _with_duplicated_rows(6, 59)],
        ids=["duplicated-rows", "n-70", "d-2", "d-6"],
    )
    def test_budgets_at_chunk_edges(self, monkeypatch, entries, chunks, offset):
        n = entries.shape[0]
        later = min(oracle._SAMPLE_CHUNK, oracle._CHUNK_LOGITS // n)
        budget = (n + (chunks - 1) * later if chunks else 0) + offset
        regions = self._assert_matches(monkeypatch, entries, budget, 12, 1e-3)
        assert regions.samples_used == budget


class TestCyclicShift:
    """Rolling the rows of a layer rolls every sign vector the same way and
    keeps general position, so each roll's run completes too.  For odd d
    a DFT layer's regions are the family of at most d - 1 alternations,
    which rolling maps onto itself; the bench's geometry truth relies on
    this."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shift", [1, 4, 7])
    def test_rolled_spectral_layer_has_the_rolled_members(self, shift, seed):
        w = build_dft_matrix(10, 2)
        assert w.d % 2 == 1
        unshifted = enumerate_regions_sampled(w, seed=seed)
        assert unshifted.method is EnumerationMethod.SAMPLED_COMPLETE
        rolled = WeightMatrix(np.roll(w.entries, shift, axis=0))
        regions = enumerate_regions_sampled(rolled, seed=seed)
        assert regions.method is EnumerationMethod.SAMPLED_COMPLETE
        # A circle's sorted boundaries, and so its probes, do not depend on
        # the row order.
        assert regions.samples_used == unshifted.samples_used
        expected = {tuple(np.roll(y.signs, shift)) for y in unshifted.members}
        assert {tuple(y.signs) for y in regions.members} == expected


class TestHelperThread:
    """No thread outlives the sampler on any way out."""

    def test_none_outlives_a_spent_budget(self):
        before = set(threading.enumerate())
        w = WeightMatrix(_with_duplicated_rows())
        regions = enumerate_regions_sampled(w, budget=3 * _CHUNK - 1, seed=1)
        assert regions.samples_used == 3 * _CHUNK - 1
        assert set(threading.enumerate()) == before

    def test_none_outlives_a_certificate_stop(self):
        before = set(threading.enumerate())
        regions = enumerate_regions_sampled(build_dft_matrix(6, 1), budget=10**6)
        assert regions.method is EnumerationMethod.SAMPLED_COMPLETE
        assert regions.samples_used < 10**6
        assert set(threading.enumerate()) == before

    def test_none_outlives_an_error_inside_the_loop(self, monkeypatch):
        calls = []
        not_equal = np.not_equal

        def broken(*args, **kwargs):
            # Fail on the second chunk.
            calls.append(1)
            if len(calls) == 2:
                raise ZeroDivisionError("dedupe bug")
            return not_equal(*args, **kwargs)

        before = set(threading.enumerate())
        monkeypatch.setattr(oracle.np, "not_equal", broken)
        w = WeightMatrix(_with_duplicated_rows())
        with pytest.raises(ZeroDivisionError):
            enumerate_regions_sampled(w, budget=10 * _CHUNK)
        assert len(calls) == 2
        assert set(threading.enumerate()) == before
