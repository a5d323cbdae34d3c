"""Region enumeration oracles and the LP cross-check."""

import threading
from itertools import product

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
from argmaxable.linalg import BoundaryError, WeightMatrix, is_general_position
from argmaxable.oracle import (
    DegeneracyError,
    EnumerationMethod,
    cross_check,
    enumerate_regions_2d,
    enumerate_regions_sampled,
)
from reference_impls import reference_sampled_enumeration, region_count_formula


class TestExactWalk2D:
    def test_random_three_rows_give_six_regions(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            w = WeightMatrix(rng.standard_normal((3, 2)))
            regions = enumerate_regions_2d(w)
            assert len(regions.members) == 6
            assert regions.method is EnumerationMethod.EXACT_2D

    def test_increasing_node_rows_give_low_alternation_vectors(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        w = WeightMatrix(np.stack([np.ones(4), t], axis=1))
        regions = enumerate_regions_2d(w)
        expected = set(enumerate_family(FamilySpec(4, 1, FamilyKind.ALTERNATING)))
        assert regions.members == frozenset(expected)
        assert all(alt(y) <= 1 for y in regions.members)

    def test_identity_gives_quadrants(self):
        regions = enumerate_regions_2d(WeightMatrix(np.eye(2)))
        got = {y.to_dense().replace("−", "-") for y in regions.members}
        assert got == {"++", "+-", "-+", "--"}

    def test_single_row_gives_two_halves(self):
        regions = enumerate_regions_2d(WeightMatrix(np.array([[1.0, 2.0]])))
        assert len(regions.members) == 2

    def test_antipodal_closure(self):
        rng = np.random.default_rng(32)
        w = WeightMatrix(rng.standard_normal((5, 2)))
        regions = enumerate_regions_2d(w)
        for y in regions.members:
            assert y.flip() in regions.members

    def test_collinear_rows_refuse(self):
        w = WeightMatrix(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DegeneracyError):
            enumerate_regions_2d(w)
        anti = WeightMatrix(np.array([[1.0, 1.0], [-3.0, -3.0], [0.0, 1.0]]))
        with pytest.raises(DegeneracyError):
            enumerate_regions_2d(anti)

    def test_only_a_boundary_midpoint_becomes_degeneracy(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("sign bug")

        monkeypatch.setattr(oracle, "sign_vector", broken)
        w = WeightMatrix(np.random.default_rng(38).standard_normal((3, 2)))
        with pytest.raises(RuntimeError, match="sign bug"):
            enumerate_regions_2d(w)

        def on_boundary(*args, **kwargs):
            raise BoundaryError((1,))

        monkeypatch.setattr(oracle, "sign_vector", on_boundary)
        with pytest.raises(DegeneracyError):
            enumerate_regions_2d(w)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            enumerate_regions_2d(WeightMatrix(np.eye(3)))


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

    def test_agrees_with_the_exact_walk_in_two_columns(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            w = WeightMatrix(rng.standard_normal((5, 2)))
            exact = enumerate_regions_2d(w)
            sampled = enumerate_regions_sampled(w, budget=10**6, seed=2)
            assert sampled.method is EnumerationMethod.SAMPLED_COMPLETE
            assert sampled.members == exact.members

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
        assert regions.samples_used == 2228224
        assert regions.boundary_skips == 0
        used, skips, _ = reference_sampled_enumeration(
            w.entries, 10**7, 2, 1e-12, 512
        )
        assert (used, skips) == (2228224, 0)
        expected = set(enumerate_family(FamilySpec(10, 4, FamilyKind.ALTERNATING)))
        assert len(expected) == 512
        assert regions.members == frozenset(expected)

    def test_byte_codes_beyond_62_rows_match_the_exact_walk(self):
        # n > 62 does not fit an int64 code and takes the packbits path.
        rng = np.random.default_rng(40)
        angles = np.pi * (np.arange(70) + 0.5 * rng.random(70)) / 70
        w = WeightMatrix(np.stack([np.cos(angles), np.sin(angles)], axis=1))
        sampled = enumerate_regions_sampled(w, budget=10**6, seed=6)
        assert sampled.method is EnumerationMethod.SAMPLED_COMPLETE
        assert sampled.members == enumerate_regions_2d(w).members

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(37)
        w = WeightMatrix(rng.standard_normal((7, 3)))
        a = enumerate_regions_sampled(w, budget=10**5, seed=11)
        b = enumerate_regions_sampled(w, budget=10**5, seed=11)
        assert a.members == b.members
        assert a.samples_used == b.samples_used


_CHUNK = 1 << 15


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
    """The sampler, which normalises each draw once for all its sign-flipped
    probes and builds a boundary mask only for chunks that need one, must
    report exactly what normalising every probe on its own reports: the
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
             "n-70", "n-70-tau-1e-3", "d-6", "d-2-times-2^450",
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

    # The last chunk draws whole vectors and is cut to the budget; budgets
    # on either side of a chunk edge, and ones that are no multiple of the
    # m probes per draw, pin that no probe past the cut is counted.
    @pytest.mark.parametrize(
        "budget", [1, 17, _CHUNK, _CHUNK + 1, 3 * _CHUNK - 1],
        ids=["one", "seventeen", "chunk", "chunk-plus-1", "three-chunks-minus-1"],
    )
    @pytest.mark.parametrize(
        "entries",
        [_with_duplicated_rows(), _random((70, 3), 56),
         _with_duplicated_rows(2, 58), _with_duplicated_rows(6, 59)],
        ids=["duplicated-rows", "n-70", "d-2", "d-6"],
    )
    def test_budgets_at_chunk_edges(self, monkeypatch, entries, budget):
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


class TestCrossCheck:
    def test_random_six_by_three_is_clean(self):
        rng = np.random.default_rng(38)
        w = WeightMatrix(rng.standard_normal((6, 3)))
        report = cross_check(w, seed=8)
        assert report.clean
        assert report.agreements == 64
        assert len(report.oracle.members) == cover_count(6, 3)

    def test_spectral_instance_is_clean_both_ways(self):
        report = cross_check(build_dft_matrix(6, 1), seed=9)
        assert report.clean
        assert report.lp_yes_oracle_no == ()
        assert report.oracle_yes_lp_no == ()

    def test_the_lp_judges_every_assignment_of_a_spectral_layer(self, monkeypatch):
        # verify_batch would answer the 32 over-alternating assignments
        # without an LP; the cross-check must put each one to the LP.
        from argmaxable import verifier

        calls = []
        real = verifier.chebyshev_verify

        def counted(w, y, cfg, session=None):
            calls.append(y)
            return real(w, y, cfg, session)

        monkeypatch.setattr(verifier, "chebyshev_verify", counted)
        report = cross_check(build_dft_matrix(6, 1), seed=9)
        assert len(calls) == 64
        assert report.clean

    def test_two_column_instance_uses_the_exact_walk(self):
        rng = np.random.default_rng(39)
        w = WeightMatrix(rng.standard_normal((4, 2)))
        report = cross_check(w)
        assert report.oracle.method is EnumerationMethod.EXACT_2D
        assert report.clean

    def test_single_label(self):
        report = cross_check(WeightMatrix(np.array([[2.5, 1.0, 0.3]])))
        got = {y.to_dense().replace("−", "-") for y in report.oracle.members}
        assert got == {"+", "-"}
        assert report.clean

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            cross_check(WeightMatrix(np.ones((17, 2))))

    def test_each_disagreement_lands_in_its_list(self, monkeypatch):
        # The LP is stubbed to be wrong on three items: one INDETERMINATE,
        # one ARGMAXABLE outside the regions, one NOT_EPS inside them.
        from argmaxable.verifier import VerifyResult, VerifyStatus

        w = WeightMatrix(np.random.default_rng(40).standard_normal((3, 2)))
        members = enumerate_regions_2d(w).members
        assert len(members) == 6
        signs = product("+-", repeat=3)
        every = [LabelAssignment.from_dense("".join(s)) for s in signs]
        inside = [y for y in every if y in members]
        outside = [y for y in every if y not in members]
        wrong = {
            inside[0]: VerifyStatus.INDETERMINATE,
            outside[0]: VerifyStatus.ARGMAXABLE,
            inside[1]: VerifyStatus.NOT_EPS_ARGMAXABLE,
        }

        def stub(w, ys, cfg, jobs):
            truth = (VerifyStatus.NOT_EPS_ARGMAXABLE, VerifyStatus.ARGMAXABLE)
            return tuple(VerifyResult(wrong.get(y, truth[y in members])) for y in ys)

        monkeypatch.setattr(oracle, "_lp_results", stub)
        report = cross_check(w)
        assert report.indeterminate == (inside[0],)
        assert report.lp_yes_oracle_no == (outside[0],)
        assert report.oracle_yes_lp_no == (inside[1],)
        assert report.agreements == 8 - 3
        assert not report.clean
