"""Chebyshev LP certification: soundness, golden instances, batching."""

import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argmaxable.dftlayer import augment_slack, build_dft_matrix
from argmaxable.labelspace import (
    FamilyKind,
    FamilySpec,
    LabelAssignment,
    alt,
    cover_count,
    enumerate_family,
)
from argmaxable import verifier
from argmaxable.linalg import WeightMatrix, sign_vector
from argmaxable.oracle import EnumerationMethod, enumerate_regions_sampled
from argmaxable.verifier import (
    BatchSummary,
    LpConfig,
    VerifyStatus,
    chebyshev_verify,
    radius_report,
    verify_batch,
)
from reference_impls import reference_chebyshev_verify


def dense(text: str) -> LabelAssignment:
    return LabelAssignment.from_dense(text)


def all_assignments(n: int):
    for signs in itertools.product((1, -1), repeat=n):
        yield LabelAssignment(np.array(signs, dtype=np.int8))


def _margin(w: WeightMatrix, y: LabelAssignment, x: np.ndarray) -> float:
    """The smallest normalised margin min_i y_i w_i . x / ||w_i||, in float64."""
    return float(np.min(y.signs * (w.entries @ x) / w.row_norms))


def _assert_certified_radius(w, y, res, cfg=LpConfig()) -> None:
    """An ARGMAXABLE radius is the witness's own margin less at most the
    rounding charge g (margin + sqrt(d) box) of ``_checked_optimum``, and
    reaches eps_floor."""
    margin = _margin(w, y, res.witness)
    charge = verifier._gamma(w.d + 4) * (margin + math.sqrt(w.d) * cfg.box_bound)
    assert margin - charge <= res.radius <= margin, y.to_dense()
    assert res.radius >= cfg.eps_floor


class TestLpConfig:
    def test_defaults(self):
        cfg = LpConfig()
        assert cfg.box_bound == 1e4
        assert cfg.eps_floor == 1e-8
        assert cfg.solver_feas_tol == 1e-9
        assert [f.name for f in dataclasses.fields(cfg)] == ["box_bound", "eps_floor"]

    @pytest.mark.parametrize("field", ["box_bound", "eps_floor"])
    @pytest.mark.parametrize("value", [1e-10, 0.0, -1.0])
    def test_refuses_a_scale_down_to_highs_least_tolerance(self, field, value):
        # HiGHS takes no feasibility tolerance below 1e-10, so neither
        # scale may reach it.
        with pytest.raises(ValueError, match=field):
            LpConfig(**{field: value})

    @pytest.mark.parametrize(
        "floor, tol", [(1e-8, 1e-9), (1e-6, 1e-7), (5e-10, 1e-10), (1.5e-10, 1e-10)]
    )
    def test_the_tolerance_is_a_tenth_of_the_floor_from_1e_10(self, floor, tol):
        assert LpConfig(eps_floor=floor).solver_feas_tol == tol

    @pytest.mark.parametrize("field", ["box_bound", "eps_floor"])
    @pytest.mark.parametrize("value", [1e20, math.inf, math.nan])
    def test_refuses_what_highs_reads_as_infinite(self, field, value):
        # HiGHS reads a cost of 1e20 or more as infinite; such a config
        # would come back from it as "Status 15", not as a verdict.
        with pytest.raises(ValueError, match=field):
            LpConfig(**{field: value})


class TestChebyshevVerify:
    def test_one_active_is_feasible_for_the_spectral_layer(self):
        w = build_dft_matrix(6, 1)
        res = chebyshev_verify(w, dense("+-----"))
        assert res.status is VerifyStatus.ARGMAXABLE
        assert res.radius >= 1e-8

    def test_three_alternations_are_infeasible_in_three_columns(self):
        w = build_dft_matrix(6, 1)
        res = chebyshev_verify(w, dense("+-+---"))
        assert res.status is VerifyStatus.NOT_EPS_ARGMAXABLE
        assert res.radius is None and res.witness is None

    def test_all_negative_is_feasible(self):
        w = build_dft_matrix(6, 1)
        res = chebyshev_verify(w, dense("------"))
        assert res.status is VerifyStatus.ARGMAXABLE

    def test_witness_reproduces_the_assignment_with_margin(self):
        rng = np.random.default_rng(21)
        cfg = LpConfig()
        for _ in range(30):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 5))
            w = WeightMatrix(rng.standard_normal((n, d)))
            y = LabelAssignment(
                np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
            )
            res = chebyshev_verify(w, y, cfg)
            if res.status is not VerifyStatus.ARGMAXABLE:
                continue
            assert sign_vector(w, res.witness) == y
            _assert_certified_radius(w, y, res, cfg)

    def test_feasibility_and_radius_invariant_under_matrix_scaling(self):
        rng = np.random.default_rng(22)
        w = WeightMatrix(rng.standard_normal((5, 3)))
        scaled = WeightMatrix(17.0 * w.entries)
        for y in all_assignments(5):
            a = chebyshev_verify(w, y)
            b = chebyshev_verify(scaled, y)
            assert a.status is b.status
            if a.status is VerifyStatus.ARGMAXABLE:
                assert a.radius == pytest.approx(b.radius, rel=1e-6)

    def test_unbounded_region_radius_hits_the_box(self):
        # A 1x1 arrangement: the '+' region is the whole positive axis,
        # so the inscribed ball grows until the box stops it.
        w = WeightMatrix(np.array([[2.0]]))
        res = chebyshev_verify(w, dense("+"))
        assert res.status is VerifyStatus.ARGMAXABLE
        assert res.radius == pytest.approx(1e4)

    @pytest.mark.parametrize(
        "witness, margin",
        [
            ([0.0, -0.0], 0.0),
            ([1.0, 9.24e-9], 9.24e-9 - verifier._gamma(6) * (9.24e-9 + math.sqrt(2))),
            ([1.0, -1.0], -1.0 - verifier._gamma(6) * (-1.0 + math.sqrt(2))),
            ([np.nan, 1.0], math.nan),
        ],
        ids=["zero", "below-floor", "wrong-side", "nan"],
    )
    def test_an_optimum_whose_witness_fails_the_check_is_indeterminate(
        self, monkeypatch, witness, margin
    ):
        # Ill-conditioned solves have come back optimal with a zero witness,
        # or one whose margin is below the floor or on the wrong side of a
        # row; the reason gives the witness's checked margin, its smallest
        # margin less the charge g (margin + sqrt(2) max|x|), g = gamma_6.
        def solved(session, lp):
            return verifier._Run(duals=np.array([*witness, 0.5]))

        monkeypatch.setattr(verifier._Session, "run", solved)
        res = chebyshev_verify(WeightMatrix(np.eye(2)), dense("++"))
        assert res.status is VerifyStatus.INDETERMINATE
        assert res.radius is None and res.witness is None
        assert res.reason == f"HiGHS witness margin {margin!r} is below eps_floor 1e-08"

    def test_a_full_dual_witness_past_the_box_is_scaled_into_it(self, monkeypatch):
        def solved(session, lp):
            return verifier._Run(duals=np.array([4e4, 2.0, 0.5]))

        monkeypatch.setattr(verifier._Session, "run", solved)
        w, y = WeightMatrix(np.eye(2)), dense("++")
        res = chebyshev_verify(w, y)
        assert res.status is VerifyStatus.ARGMAXABLE
        assert np.array_equal(res.witness, [1e4, 0.5])
        # The margin 0.5 less the charge g (0.5 + sqrt(2) box), g = gamma_6.
        assert res.radius == 0.5 - verifier._gamma(6) * (0.5 + math.sqrt(2) * 1e4)
        _assert_certified_radius(w, y, res)

    def test_a_run_that_returns_an_error_says_so(self, monkeypatch):
        # The reason names a kError return; the model status still decides
        # the outcome, here "Not Set" as the stub never solves.
        from scipy.optimize._highspy import _core

        class Failing(_core._Highs):
            def run(self):
                return _core.HighsStatus.kError

        monkeypatch.setattr(_core, "_Highs", Failing)
        w, ys = TestRowGeneration()._items()
        for matrix, y in ((build_dft_matrix(6, 1), dense("+-----")), (w, ys[0])):
            res = chebyshev_verify(matrix, y)
            assert res.status is VerifyStatus.INDETERMINATE
            assert res.radius is None and res.witness is None
            assert res.reason == "HiGHS run error: Not Set"

    def test_an_optimal_run_reads_no_info_from_highs(self, monkeypatch):
        # The witness check alone judges an optimum: neither HiGHS's
        # objective nor its residuals are read, in either form.
        from scipy.optimize._highspy import _core

        class NoInfo(_core._Highs):
            def getInfo(self):
                raise AssertionError("getInfo called")

        monkeypatch.setattr(_core, "_Highs", NoInfo)
        w, ys = TestRowGeneration()._items()
        for matrix, y in ((WeightMatrix(np.eye(2)), dense("++")), (w, ys[0])):
            res = chebyshev_verify(matrix, y)
            assert res.status is VerifyStatus.ARGMAXABLE, res.reason
            _assert_certified_radius(matrix, y, res)

    def test_a_model_highs_refuses_is_indeterminate_not_infeasible(self):
        # HiGHS refuses matrix entries above 1e15 with a model error; y is
        # feasible here.
        w = WeightMatrix(np.array([[1e16, 1.0], [0.5, 2.0], [1.0, -1.0]]))
        res = chebyshev_verify(w, dense("+-+"))
        assert res.status is VerifyStatus.INDETERMINATE
        assert res.reason == "HiGHS: Model error"

    def test_rejects_dimension_mismatch(self):
        w = WeightMatrix(np.eye(2))
        with pytest.raises(ValueError, match="assignment has n=3, matrix has n=2"):
            chebyshev_verify(w, dense("+++"))

    def test_preservation_under_slack_augmentation(self):
        rng = np.random.default_rng(23)
        found = 0
        while found < 20:
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 5))
            w = WeightMatrix(rng.standard_normal((n, d)))
            y = LabelAssignment(
                np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
            )
            if not chebyshev_verify(w, y).is_argmaxable:
                continue
            found += 1
            for s in (1, 4, 16):
                aug = augment_slack(w, s, seed=found)
                assert chebyshev_verify(aug, y).is_argmaxable, (n, d, s)


class TestVerifyBatch:
    def test_results_in_input_order_with_summary(self):
        w = build_dft_matrix(6, 1)
        ys = [dense("+-----"), dense("+-+---"), dense("------")]
        batch = verify_batch(w, ys)
        statuses = [r.status for r in batch.results]
        assert statuses == [
            VerifyStatus.ARGMAXABLE,
            VerifyStatus.NOT_EPS_ARGMAXABLE,
            VerifyStatus.ARGMAXABLE,
        ]
        assert batch.summary.argmaxable == 2
        assert batch.summary.not_eps == 1
        assert batch.summary.indeterminate == 0

    def test_exactly_half_of_the_hypercube_is_feasible_at_six_three(self):
        w = build_dft_matrix(6, 1)
        batch = verify_batch(w, list(all_assignments(6)))
        assert batch.summary.argmaxable == 32
        assert batch.summary.not_eps == 32

    def test_empty_batch(self):
        batch = verify_batch(build_dft_matrix(6, 1), [])
        assert batch.results == ()
        assert batch.summary == BatchSummary(0, 0, 0, 0)

    def test_parallel_matches_serial(self):
        w = build_dft_matrix(8, 1)
        ys = list(all_assignments(8))
        serial = verify_batch(w, ys, jobs=1)
        parallel = verify_batch(w, ys, jobs=4)
        assert [r.status for r in serial.results] == [
            r.status for r in parallel.results
        ]

    def test_one_argmaxable_counts_radius_at_least_one(self):
        w = build_dft_matrix(6, 1)
        batch = verify_batch(w, [dense("------"), dense("+-----")])
        # Both regions here are huge; shrink the box to squeeze radii
        # under 1 and watch the count drop.
        assert batch.summary.one_argmaxable == 2
        tight = LpConfig(box_bound=0.5)
        batch2 = verify_batch(w, [dense("------"), dense("+-----")], tight)
        assert batch2.summary.argmaxable == 2
        assert batch2.summary.one_argmaxable < 2


class TestRadiusReport:
    def test_single_member_family(self):
        w = build_dft_matrix(6, 1)
        fam = FamilySpec(6, 0, FamilyKind.ACTIVE)
        report = radius_report(w, fam, percentiles=(100.0,))
        assert report.members == 1
        assert len(report.rows) == 1
        assert report.rows[0][0] == 100.0
        assert report.rows[0][1] > 0.0

    def test_alternating_family_with_infeasibles_counts_zero_radii(self):
        w = build_dft_matrix(6, 1)
        fam = FamilySpec(6, 3, FamilyKind.ALTERNATING)
        report = radius_report(w, fam, percentiles=(1.0, 100.0))
        assert report.not_eps > 0
        assert report.rows[0][1] == 0.0  # infeasible members pin the low end
        assert report.rows[1][1] > 0.0

    def test_max_percentile_is_positive_for_the_active_family(self):
        w = build_dft_matrix(6, 1)
        fam = FamilySpec(6, 1, FamilyKind.ACTIVE)
        report = radius_report(w, fam, percentiles=(100.0,))
        assert report.argmaxable == report.members == 7
        assert report.rows[0][1] > 0.0

    def test_slack_lifts_the_low_percentiles(self):
        n, k = 100, 1
        base = build_dft_matrix(n, k)
        slacked = augment_slack(base, 16, seed=0)
        fam = FamilySpec(n, k, FamilyKind.ACTIVE)
        lean = radius_report(base, fam, percentiles=(1.0,))
        fat = radius_report(slacked, fam, percentiles=(1.0,))
        assert fat.rows[0][1] > lean.rows[0][1]

    def test_percentile_validation(self):
        w = build_dft_matrix(6, 1)
        fam = FamilySpec(6, 1, FamilyKind.ACTIVE)
        with pytest.raises(ValueError):
            radius_report(w, fam, percentiles=(101.0,))

    def test_budget_propagates(self):
        w = build_dft_matrix(20, 1)
        fam = FamilySpec(20, 10, FamilyKind.ACTIVE)
        with pytest.raises(ValueError):
            radius_report(w, fam, budget=100)


class TestAgainstEnumeration:
    def test_lp_feasible_set_matches_alternating_family(self):
        """The spectral layer's feasible assignments are exactly the ones
        with fewer alternations than columns."""
        w = build_dft_matrix(6, 1)
        feasible = {
            y for y in all_assignments(6) if chebyshev_verify(w, y).is_argmaxable
        }
        expected = set(enumerate_family(FamilySpec(6, 2, FamilyKind.ALTERNATING)))
        assert feasible == expected
        assert all(alt(y) <= 2 for y in feasible)

    def test_argmaxable_items_are_the_enumerated_regions(self):
        """On each layer the LP finds ARGMAXABLE exactly the members of a
        complete region enumeration and decides every other item.  Each
        item gets its own call, so none takes the alternation shortcut."""
        gaussian = WeightMatrix(np.random.default_rng(38).standard_normal((6, 3)))
        planar = WeightMatrix(np.random.default_rng(39).standard_normal((4, 2)))
        spectral = build_dft_matrix(6, 1)
        single = WeightMatrix(np.array([[2.5, 1.0, 0.3]]))
        cases = [
            (gaussian, enumerate_regions_sampled(gaussian, seed=8)),
            (spectral, enumerate_regions_sampled(spectral, seed=9)),
            (single, enumerate_regions_sampled(single)),
            (planar, enumerate_regions_sampled(planar)),
        ]
        for w, regions in cases:
            assert regions.method is not EnumerationMethod.SAMPLED_PARTIAL
            results = {y: chebyshev_verify(w, y) for y in all_assignments(w.n)}
            statuses = {r.status for r in results.values()}
            assert VerifyStatus.INDETERMINATE not in statuses
            argmaxable = {y for y, r in results.items() if r.is_argmaxable}
            assert argmaxable == regions.members, w

    def test_every_assignment_of_a_gaussian_layer(self):
        """A 10x4 Gaussian layer is in general position, so its ARGMAXABLE
        assignments are exactly its cover_count(10, 4) = 260 regions, every
        other one NOT_EPS.  At a box of 1e12 the full dual's unbounded
        runs still find the same NOT_EPS set, where a checked ray's
        rounding charge would leave them INDETERMINATE."""
        w = WeightMatrix(np.random.default_rng(101).standard_normal((10, 4)))
        ys = list(all_assignments(10))
        default = verify_batch(w, ys)
        assert default.summary.argmaxable == cover_count(10, 4) == 260
        assert default.summary.indeterminate == 0
        wide = verify_batch(w, ys, LpConfig(box_bound=1e12))
        not_eps = [
            [r.status is VerifyStatus.NOT_EPS_ARGMAXABLE for r in batch.results]
            for batch in (default, wide)
        ]
        assert not_eps[0] == not_eps[1] and sum(not_eps[0]) == 764


def _counting_lp(monkeypatch):
    """Route chebyshev_verify through a counter and return the counter."""
    calls = []
    real = verifier.chebyshev_verify

    def counted(w, y, cfg=LpConfig(), session=None):
        calls.append(y)
        return real(w, y, cfg, session)

    monkeypatch.setattr(verifier, "chebyshev_verify", counted)
    return calls


def _dft_cases(max_n: int = 10):
    for n in range(3, max_n + 1):
        for k in range(1, (n - 1) // 2 + 1):
            yield n, k


class TestAlternationShortcut:
    """On the unslacked DFT layer no x yields more than 2k alternations,
    so verify_batch answers those items without an LP."""

    def test_the_lp_agrees_with_the_theorem(self):
        # -y has the same LP as y (x -> -x), so y_1 = + covers both.
        for n, k in _dft_cases():
            w = build_dft_matrix(n, k)
            for y in all_assignments(n):
                if y.signs[0] > 0 and alt(y) > 2 * k:
                    res = chebyshev_verify(w, y)
                    assert res.status is not VerifyStatus.ARGMAXABLE, (n, k, y)

    def test_over_alternating_items_skip_the_lp(self, monkeypatch):
        calls = _counting_lp(monkeypatch)
        for n, k in _dft_cases(7):
            ys = list(all_assignments(n))
            calls.clear()
            batch = verify_batch(build_dft_matrix(n, k), ys)
            over = [alt(y) > 2 * k for y in ys]
            assert len(calls) == over.count(False)
            assert all(alt(y) <= 2 * k for y in calls)
            for y, is_over, res in zip(ys, over, batch.results):
                if is_over:
                    assert res.status is VerifyStatus.NOT_EPS_ARGMAXABLE
                    assert res.radius is None and res.wall_time == 0.0
                else:
                    assert res.status is VerifyStatus.ARGMAXABLE, (n, k, y)

    def test_parallel_shortcut_keeps_input_order(self):
        w = build_dft_matrix(8, 1)
        ys = list(all_assignments(8))
        serial = verify_batch(w, ys, jobs=1)
        parallel = verify_batch(w, ys, jobs=3)
        assert [r.status for r in serial.results] == [
            r.status for r in parallel.results
        ]

    def _declined(self, monkeypatch, w, ys, cfg=LpConfig()):
        calls = _counting_lp(monkeypatch)
        batch = verify_batch(w, ys, cfg)
        assert len(calls) == len(ys)
        return batch

    def _over(self, n, d):
        return [y for y in all_assignments(n) if alt(y) > d - 1][:12]

    def test_declined_one_ulp_off(self, monkeypatch):
        entries = build_dft_matrix(8, 1).entries.copy()
        entries[3, 1] = np.nextafter(entries[3, 1], np.inf)
        batch = self._declined(monkeypatch, WeightMatrix(entries), self._over(8, 3))
        assert batch.summary.argmaxable == 0

    def test_declined_with_slack_columns(self, monkeypatch):
        # 3 + 2 columns: odd, yet not build_dft_matrix(8, 2).
        w = augment_slack(build_dft_matrix(8, 1), 2, seed=0)
        self._declined(monkeypatch, w, self._over(8, 5))

    def test_declined_for_even_d(self, monkeypatch):
        w = WeightMatrix(build_dft_matrix(8, 2).entries[:, :4])
        self._declined(monkeypatch, w, self._over(8, 4))

    def test_declined_on_a_rolled_layer(self, monkeypatch):
        w = WeightMatrix(np.roll(build_dft_matrix(8, 1).entries, 1, axis=0))
        batch = self._declined(monkeypatch, w, self._over(8, 3))
        assert batch.summary.argmaxable == 0

    @pytest.mark.parametrize(
        "n, k, shifts", [(9, 2, (1, 4, 7)), (48, 2, (5, 29))], ids=["9x5", "48x5"]
    )
    def test_a_rolled_layer_keeps_every_verdict(self, n, k, shifts):
        # Rolling the rows and every item by the same r maps each region
        # onto itself, so each verdict must hold.  The rolled layer is no
        # build_dft_matrix, so its LP faces the theorem on every item; at
        # 48 >= 8d row generation runs.
        w = build_dft_matrix(n, k)
        if n < 10:
            ys = list(all_assignments(n))
        else:
            rng = np.random.default_rng(48)
            ys = []
            for i in range(200):
                signs = -np.ones(n, dtype=np.int8)
                signs[rng.choice(n, 1 + i % 5, replace=False)] = 1
                ys.append(LabelAssignment(signs))
        plain = [r.status for r in verify_batch(w, ys).results]
        assert len(set(plain)) == 2
        for r in shifts:
            rolled = WeightMatrix(np.roll(w.entries, r, axis=0))
            assert not verifier._decided_by_alternation(rolled, LpConfig())
            moved = [LabelAssignment(np.roll(y.signs, r)) for y in ys]
            assert [res.status for res in verify_batch(rolled, moved).results] == plain

    def test_declined_when_the_box_loosens_the_bound(self, monkeypatch):
        from argmaxable.dftlayer import dft_entry_error_bound

        n, k = 8, 1
        w = build_dft_matrix(n, k)
        ys = self._over(n, 2 * k + 1)
        # The box at which box * delta / min ||w_i|| reaches eps_floor.
        delta = (2 * k + 1) * dft_entry_error_bound(n, k)
        edge = LpConfig().eps_floor * float(np.min(w.row_norms)) / delta
        calls = _counting_lp(monkeypatch)
        verify_batch(w, ys, LpConfig(box_bound=edge / 2))
        assert calls == []
        batch = verify_batch(w, ys, LpConfig(box_bound=edge * 2))
        assert len(calls) == len(ys)
        assert batch.summary.argmaxable == 0

    def test_declined_at_the_mimic3_shape(self, monkeypatch):
        # There the builder's error bound allows a radius above eps_floor
        # at the default box, so the LP still runs.
        calls = []

        def stub(w, y, cfg=LpConfig(), session=None):
            calls.append(y)
            return verifier.VerifyResult(VerifyStatus.INDETERMINATE, reason="stub")

        monkeypatch.setattr(verifier, "chebyshev_verify", stub)
        n, k = 8921, 80
        y = LabelAssignment(np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8))
        verify_batch(build_dft_matrix(n, k), [y])
        assert len(calls) == 1
        calls.clear()
        n, k = 500, 10
        y = LabelAssignment(np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8))
        batch = verify_batch(build_dft_matrix(n, k), [y])
        assert calls == []
        assert batch.results[0].status is VerifyStatus.NOT_EPS_ARGMAXABLE

    def test_a_mismatched_n_refuses_the_batch_before_any_lp(self, monkeypatch):
        calls = _counting_lp(monkeypatch)
        ys = [dense("+-----"), dense("+-+-+-+"), dense("+-+-+-")]
        with pytest.raises(ValueError, match="^item 1 has n=7, matrix has n=6$"):
            verify_batch(build_dft_matrix(6, 1), ys, jobs=2)
        assert calls == []


def _alternating(rng, n: int, changes: int) -> LabelAssignment:
    """A seeded assignment of length n with exactly ``changes`` sign changes."""
    cuts = np.zeros(n, dtype=np.int64)
    cuts[1 + rng.choice(n - 1, size=changes, replace=False)] = 1
    first = 1 if rng.random() < 0.5 else -1
    return LabelAssignment((first * (-1) ** np.cumsum(cuts)).astype(np.int8))


def _predicted(rng, w: WeightMatrix, count: int) -> list:
    return [sign_vector(w, rng.standard_normal(w.d)) for _ in range(count)]


def _random_signs(rng, n: int, count: int) -> list:
    return [
        LabelAssignment(np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8))
        for _ in range(count)
    ]


def _dft_items():
    """24 seeded assignments of length 40, each with 0 to 6 sign changes."""
    rng = np.random.default_rng(41)
    return [_alternating(rng, 40, int(c)) for c in rng.integers(0, 7, size=24)]


class TestHighsOptions:
    """Every session sets HiGHS's options, among them presolve off and the
    feasibility tolerances of the config, before its first run, and every
    run sets its own simplex."""

    def test_every_highs_option_is_recognized(self):
        # HiGHS answers setOptionValue with kOk or kError; a refused option
        # would leave the solver at its default value.
        session = verifier._Session(build_dft_matrix(6, 1), LpConfig())
        assert session.refused == []
        res = chebyshev_verify(build_dft_matrix(6, 1), dense("+-----"))
        assert res.status is VerifyStatus.ARGMAXABLE and res.reason is None

    @pytest.mark.parametrize(
        "cfg",
        [LpConfig(), LpConfig(eps_floor=1e-6)],
        ids=["default", "loose"],
    )
    def test_the_options_hold_after_a_restricted_pass(self, cfg, monkeypatch):
        # A run after passModel is dual simplex (1); a run after addCols
        # goes on from the kept basis with primal simplex (4).
        from scipy.optimize._highspy import _core

        real = {name: getattr(_core._Highs, name) for name in ("passModel", "addCols")}
        real_run, last, runs = _core._Highs.run, [], []

        def since(name):
            def call(highs, *args):
                last.append(name)
                return real[name](highs, *args)

            return call

        def run(highs):
            runs.append((last[-1], highs.getOptionValue("simplex_strategy")))
            return real_run(highs)

        for name in real:
            monkeypatch.setattr(_core._Highs, name, since(name))
        monkeypatch.setattr(_core._Highs, "run", run)
        w, ys = TestRowGeneration()._items()
        session = verifier._Session(w, cfg)
        for y in ys[:2]:
            session.dual(y)
        assert {kind for kind, _ in runs} == {"passModel", "addCols"}
        ok = _core.HighsStatus.kOk
        assert [held for _, held in runs] == [
            (ok, 1 if kind == "passModel" else 4) for kind, _ in runs
        ]
        expected = {
            "presolve": "off",
            "primal_feasibility_tolerance": cfg.solver_feas_tol,
            "dual_feasibility_tolerance": cfg.solver_feas_tol,
        }
        for key, value in expected.items():
            status, held = session.highs.getOptionValue(key)
            assert status == session.core.HighsStatus.kOk
            assert held == value, key

    def test_a_refused_option_makes_the_item_indeterminate(self, monkeypatch):
        # No valid config asks for an option HiGHS refuses, so the binding
        # is stubbed to refuse one.
        from scipy.optimize._highspy import _core

        real = _core._Highs.setOptionValue

        def refuse(highs, key, value):
            if key == "primal_feasibility_tolerance":
                return _core.HighsStatus.kError
            return real(highs, key, value)

        monkeypatch.setattr(_core._Highs, "setOptionValue", refuse)
        res = chebyshev_verify(build_dft_matrix(6, 1), dense("+-----"))
        assert res.status is VerifyStatus.INDETERMINATE
        assert res.radius is None and res.witness is None
        assert "HiGHS refused option primal_feasibility_tolerance=1e-09" in res.reason


class TestDualForm:
    """chebyshev_verify solves the dual LP.  It must give the verdicts of
    the primal reference, with witnesses that reproduce y.  Each layer's
    tolerances are the largest differences measured on these items (radius
    relative, witness in units of the box), rounded up to the next power of
    ten.  A radius is its witness's checked margin, a lower bound, so it
    is compared with the reference's optimum from above only."""

    def _compare(self, w, ys, radius_rel, witness_rel):
        box = LpConfig().box_bound
        statuses = set()
        for y in ys:
            res = chebyshev_verify(w, y)
            status, radius, witness = reference_chebyshev_verify(w.entries, y.signs)
            assert res.status.value == status, y.to_dense()
            statuses.add(status)
            if radius is None:
                assert res.radius is None and res.witness is None
                continue
            assert sign_vector(w, res.witness) == y, y.to_dense()
            assert res.radius <= radius * (1 + radius_rel), y.to_dense()
            _assert_certified_radius(w, y, res)
            assert np.allclose(res.witness, witness, rtol=0, atol=witness_rel * box)
        return statuses

    def test_feasible_items_of_the_spectral_layer(self):
        # Measured: 3.4e-12 and 6.0e-14.
        self._compare(build_dft_matrix(40, 3), _dft_items(), 1e-11, 1e-13)

    def test_the_spectral_layer_with_slack_columns(self):
        # Measured: 1.0e-13 and 1.1e-14.
        w = augment_slack(build_dft_matrix(40, 3), 4, seed=3)
        self._compare(w, _dft_items(), 1e-12, 1e-13)

    def test_a_gaussian_layer(self):
        # Measured: 1.3e-14 and 1.6e-15.
        rng = np.random.default_rng(42)
        w = WeightMatrix(rng.standard_normal((60, 5)))
        ys = _predicted(rng, w, 16) + _random_signs(rng, 60, 16)
        statuses = self._compare(w, ys, 1e-13, 1e-14)
        assert statuses == {"argmaxable", "not_eps_argmaxable"}

    def test_parallel_rows(self):
        # Measured: 1.1e-14 and 3.6e-15.
        rng = np.random.default_rng(43)
        base = rng.standard_normal((30, 4))
        w = WeightMatrix(np.vstack([base, base[:10], 3.0 * base[10:15]]))
        ys = _predicted(rng, w, 16) + _random_signs(rng, w.n, 8)
        statuses = self._compare(w, ys, 1e-13, 1e-14)
        assert statuses == {"argmaxable", "not_eps_argmaxable"}


def _bits(results) -> list:
    """Every field of every result, witnesses as bytes, wall times left out."""
    return [
        (r.status, r.radius, None if r.witness is None else r.witness.tobytes(), r.reason)
        for r in results
    ]


class TestSession:
    """verify_batch re-uses one HiGHS session per worker thread.  Every
    solve in it must be cold: the same bits as a session of its own, in
    whatever order and on whichever thread the items come."""

    def _layers(self):
        rng = np.random.default_rng(44)
        dft = build_dft_matrix(40, 3)
        gauss = WeightMatrix(rng.standard_normal((60, 5)))
        return [
            (dft, _dft_items() + _random_signs(rng, 40, 8)),
            (gauss, _predicted(rng, gauss, 12) + _random_signs(rng, 60, 12)),
        ]

    def test_a_batch_matches_fresh_one_item_solves_in_either_order(self):
        for w, ys in self._layers():
            fresh = _bits(chebyshev_verify(w, y) for y in ys)
            assert {status for status, *_ in fresh} == {
                VerifyStatus.ARGMAXABLE,
                VerifyStatus.NOT_EPS_ARGMAXABLE,
            }
            assert _bits(verify_batch(w, ys).results) == fresh
            backwards = verify_batch(w, ys[::-1]).results
            assert _bits(backwards[::-1]) == fresh

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_worker_thread_builds_one_session(self, jobs, monkeypatch):
        built = []

        class Counted(verifier._Session):
            def __init__(self, *args):
                built.append(threading.get_ident())
                super().__init__(*args)

        monkeypatch.setattr(verifier, "_Session", Counted)
        w, ys = self._layers()[1]
        verify_batch(w, ys, jobs=jobs)
        assert 1 <= len(built) <= jobs and len(set(built)) == len(built)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_more_jobs_match_one(self, jobs):
        # Up to twice as many workers as the 2-core reference host, with the
        # interpreter switching threads as often as it can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w, ys in self._layers():
                one = verify_batch(w, ys, jobs=1).results
                assert _bits(verify_batch(w, ys, jobs=jobs).results) == _bits(one)
        finally:
            sys.setswitchinterval(interval)


def _solve_error():
    return verifier._Run(reason="HiGHS: Solve error")


def _raises():
    raise RuntimeError("numerical trouble")


def _unbounded():
    return verifier._Run(unbounded=True)


def _iteration_limit():
    return verifier._Run(reason="HiGHS: Iteration limit reached")


class TestOneForm:
    """Each item is solved in the dual form only: a full dual that decides
    nothing leaves the item INDETERMINATE, with that run's failure as its
    reason, after exactly one HiGHS run."""

    def _runs(self, monkeypatch, failure=None):
        """Route every run to ``failure``, or to HiGHS when that is None;
        return the list of models run."""
        real, runs = verifier._Session.run, []

        def run(session, lp):
            runs.append(lp)
            return real(session, lp) if failure is None else failure()

        monkeypatch.setattr(verifier._Session, "run", run)
        return runs

    # "+-----" is argmaxable and "+-+---" is not: a failed run leaves
    # either one undecided.
    @pytest.mark.parametrize("text", ["+-----", "+-+---"])
    @pytest.mark.parametrize(
        "failure, reason",
        [
            (_solve_error, "HiGHS: Solve error"),
            (_raises, "solver raised RuntimeError: numerical trouble"),
            (_iteration_limit, "HiGHS: Iteration limit reached"),
        ],
        ids=["solve-error", "raises", "iteration-limit"],
    )
    def test_a_failed_full_dual_is_solved_once(
        self, monkeypatch, failure, reason, text
    ):
        runs = self._runs(monkeypatch, failure)
        res = chebyshev_verify(build_dft_matrix(6, 1), dense(text))
        assert len(runs) == 1
        assert res.status is VerifyStatus.INDETERMINATE
        assert res.radius is None and res.witness is None
        assert res.reason == reason

    def test_a_decided_dual_is_not_solved_again(self, monkeypatch):
        runs = self._runs(monkeypatch)
        for text in ("+-----", "+-+---"):
            chebyshev_verify(build_dft_matrix(6, 1), dense(text))
        assert len(runs) == 2

    @pytest.mark.parametrize("box", [1e18, 1e19])
    def test_a_box_near_highs_infinity_gives_no_wrong_verdict(self, box):
        # Near 1e20 some full duals end in a solve error, which HiGHS's
        # run returns as an error; every item they decide keeps its verdict
        # at the default box.
        w, cfg = build_dft_matrix(6, 1), LpConfig(box_bound=box)
        decided = 0
        for y in all_assignments(6):
            ref = chebyshev_verify(w, y)
            assert ref.status is not VerifyStatus.INDETERMINATE
            res = chebyshev_verify(w, y, cfg)
            if res.status is VerifyStatus.INDETERMINATE:
                assert res.reason.startswith(("HiGHS: ", "HiGHS run error: ")), res.reason
                continue
            decided += 1
            assert res.status is ref.status, y.to_dense()
            if res.status is VerifyStatus.ARGMAXABLE:
                assert sign_vector(w, res.witness) == y
        assert decided > 0


def _k_active(rng, n: int, count: int) -> list:
    """count seeded assignments, item i with 1 + i % 10 active labels."""
    ys = []
    for i in range(count):
        signs = -np.ones(n, dtype=np.int8)
        signs[rng.choice(n, size=1 + i % 10, replace=False)] = 1
        ys.append(LabelAssignment(signs))
    return ys


def _rowgen_layers():
    rng = np.random.default_rng(45)
    gauss = WeightMatrix(rng.standard_normal((1000, 32)))
    return {
        "dft": (build_dft_matrix(500, 10), _k_active(rng, 500, 40)),
        "gauss": (gauss, _predicted(rng, gauss, 12) + _k_active(rng, 1000, 12)),
    }


def _full_dual(monkeypatch, w, ys) -> list:
    """The results with row generation switched off, each from a fresh
    session."""
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_ROWGEN_RATIO", math.inf)
        return [chebyshev_verify(w, y) for y in ys]


def _subset(session, rows) -> bool:
    """Whether rows, as ``_Session.rowgen`` gets them, are a strict subset
    of the n rows: a restricted run, not the full dual."""
    return rows.size < session.w.n


def _restricted_outcomes(monkeypatch) -> list:
    """Record whether each restricted run of the loop decided its item, and
    check that it decided only through a check: ARGMAXABLE from
    ``_checked_optimum`` or NOT_EPS_ARGMAXABLE from ``_checked_ray``."""
    real = verifier._Session.rowgen
    outcomes, passed = [], []

    def checked(check, status):
        def spy(*args):
            res = check(*args)
            if res is not None and res.status is not VerifyStatus.INDETERMINATE:
                assert res.status is status
                passed.append(res)
            return res

        return spy

    def spy(session, y, rows):
        res = real(session, y, rows)
        if _subset(session, rows):
            decided = res.status is not VerifyStatus.INDETERMINATE
            assert not decided or any(res is p for p in passed)
            outcomes.append(decided)
        return res

    for name, status in [
        ("_checked_optimum", VerifyStatus.ARGMAXABLE),
        ("_checked_ray", VerifyStatus.NOT_EPS_ARGMAXABLE),
    ]:
        monkeypatch.setattr(verifier, name, checked(getattr(verifier, name), status))
    monkeypatch.setattr(verifier._Session, "rowgen", spy)
    return outcomes


class TestCertifiedRadius:
    """Every ARGMAXABLE radius is a proven margin of its own witness: at
    least eps_floor and at most min_i y_i (W x)_i / ||w_i|| in float64."""

    def test_on_the_shared_probe_set(self):
        # The paper's n = 500, k = 10 layer, where HiGHS's own objective
        # exceeded the witness's margin on almost every item.
        w, cfg = build_dft_matrix(500, 10), LpConfig()
        ys = _k_active(np.random.default_rng(0), 500, 100)
        batch = verify_batch(w, ys, cfg, jobs=2)
        assert batch.summary == BatchSummary(97, 46, 3, 0)
        for y, res in zip(ys, batch.results):
            if res.is_argmaxable:
                assert cfg.eps_floor <= res.radius <= _margin(w, y, res.witness)


class TestSignFlip:
    """(W, y) and (-W, -y) give the dual LP entry for entry, and the same
    pricing and checks, so the same result bit for bit.  Gaussian layers
    only: the exact DFT layer takes the alternation shortcut and its
    negation does not."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 4), st.integers(3, 40), st.integers(0, 2**32 - 1))
    def test_negating_the_layer_and_the_labels_changes_nothing(self, d, n, seed):
        # n spans both sides of 8d, so restricted and full duals both run.
        rng = np.random.default_rng(seed)
        w = WeightMatrix(rng.standard_normal((n, d)))
        ys = _predicted(rng, w, 3) + _random_signs(rng, n, 3)
        flipped = [LabelAssignment(-y.signs) for y in ys]
        negated = WeightMatrix(-w.entries)
        assert _bits(verify_batch(w, ys).results) == _bits(
            verify_batch(negated, flipped).results
        )


class TestMetamorphic:
    """Transforms of (W, y) with the same Chebyshev LP up to a change of
    variables: permuting the rows together with y, duplicating a row, and
    a signed permutation of W's columns, which keeps the box.  Their
    paths through the loop differ (another seed, another n), but no pair
    may have one result ARGMAXABLE and the other NOT_EPS.  Gaussian layers
    with n on both sides of 8d."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(3, 40), st.integers(0, 2**32 - 1))
    def test_no_transform_turns_a_verdict_around(self, d, n, seed):
        rng = np.random.default_rng(seed)
        w = WeightMatrix(rng.standard_normal((n, d)))
        ys = _predicted(rng, w, 3) + _random_signs(rng, n, 3)
        perm, dup = rng.permutation(n), int(rng.integers(n))
        signed = rng.choice([-1.0, 1.0], d) * np.eye(d)[:, rng.permutation(d)]
        transformed = [
            (w.entries[perm], [y.signs[perm] for y in ys]),
            (
                np.vstack([w.entries, w.entries[dup]]),
                [np.append(y.signs, y.signs[dup]) for y in ys],
            ),
            (w.entries @ signed, [y.signs for y in ys]),
        ]
        base = verify_batch(w, ys).results
        decided = {VerifyStatus.ARGMAXABLE, VerifyStatus.NOT_EPS_ARGMAXABLE}
        for entries, signs in transformed:
            items = [LabelAssignment(s) for s in signs]
            other = verify_batch(WeightMatrix(entries), items)
            for y, a, b in zip(ys, base, other.results):
                assert {a.status, b.status} != decided, y.to_dense()


def _full(session, lp) -> bool:
    """Whether lp, as ``_Session.run`` gets it, is the full dual: the model
    over every stored column."""
    return lp is not None and lp[0] == session.cost.size


def _run_kinds(monkeypatch) -> list:
    """Record each ``_Session.run``: "warm" for the model HiGHS holds,
    "full" for the full dual and "cold" for any other model passed."""
    real, kinds = verifier._Session.run, []

    def run(session, lp):
        kinds.append("warm" if lp is None else "full" if _full(session, lp) else "cold")
        return real(session, lp)

    monkeypatch.setattr(verifier._Session, "run", run)
    return kinds


class TestRowGeneration:
    """When n >= 8d the loop first runs on a seeded working set of rows.
    Only a checked optimum (ARGMAXABLE) or a checked Farkas ray
    (NOT_EPS_ARGMAXABLE) of that restricted LP is kept; every other
    outcome is the full dual's result, bit for bit: the loop's run on all
    n rows."""

    # Radii of at least 1e-5 exceed the full dual's by at most radius_rel,
    # the largest relative difference measured on these items rounded up to
    # the next power of ten: 2.4e-4 on the spectral layer and 7.7e-13 on
    # the Gaussian one.  Each radius is its own witness's checked margin, so
    # either form's may be the lower.  Below 1e-5 the spectral layer is
    # ill-conditioned and a restricted solve can land on another
    # near-optimal vertex: within a factor of 2 (measured 0.30, at radius
    # 4.3e-7).
    @pytest.mark.parametrize("layer, radius_rel", [("dft", 1e-3), ("gauss", 1e-12)])
    def test_matches_the_full_dual(self, monkeypatch, layer, radius_rel):
        w, ys = _rowgen_layers()[layer]
        full = _full_dual(monkeypatch, w, ys)
        outcomes = _restricted_outcomes(monkeypatch)
        cfg = LpConfig()
        statuses = set()
        for y, ref in zip(ys, full):
            res = chebyshev_verify(w, y, cfg)
            assert res.status is ref.status, y.to_dense()
            statuses.add(res.status)
            if res.status is not VerifyStatus.ARGMAXABLE:
                continue
            if ref.radius >= 1e-5:
                assert res.radius <= ref.radius * (1 + radius_rel)
            else:
                assert 0.5 <= res.radius / ref.radius <= 2.0
            assert sign_vector(w, res.witness) == y
            assert np.max(np.abs(res.witness)) <= cfg.box_bound
            _assert_certified_radius(w, y, res, cfg)
        assert VerifyStatus.ARGMAXABLE in statuses
        assert len(outcomes) == len(ys) and sum(outcomes) >= len(ys) // 2

    def test_below_eight_rows_per_column_the_working_set_is_every_row(
        self, monkeypatch
    ):
        real, working = verifier._Session.rowgen, []

        def spy(session, y, rows):
            working.append(rows)
            return real(session, y, rows)

        monkeypatch.setattr(verifier._Session, "rowgen", spy)
        outcomes = _restricted_outcomes(monkeypatch)
        chebyshev_verify(build_dft_matrix(40, 3), dense("+" + "-" * 39))
        assert outcomes == [] and len(working) == 1
        assert np.array_equal(working[0], np.arange(40))
        chebyshev_verify(build_dft_matrix(56, 3), dense("+" + "-" * 55))
        assert outcomes == [True] and len(working) == 2
        assert 0 < working[1].size < 56

    def test_the_margin_check_charges_a_rounding_bound(self):
        # Row 2's margin is exactly 1e-8 + delta; with max|x| = box the
        # bound charges ~gamma_6 sqrt(2) box = 9.4e-12 against it, and
        # what is left is the radius.
        w, y, cfg = WeightMatrix(np.eye(2)), dense("++"), LpConfig()
        for delta, accepted in [(5e-12, False), (2e-11, True)]:
            x = np.array([cfg.box_bound, cfg.eps_floor + delta])
            res = verifier._checked_optimum(w, y, x, cfg)
            assert res.is_argmaxable is accepted, delta
        charge = verifier._gamma(6) * (x[1] + math.sqrt(2) * cfg.box_bound)
        assert res.radius == x[1] - charge and res.reason is None
        assert cfg.eps_floor < res.radius < x[1]
        # A witness past the box is scaled into it, and checked there.
        res = verifier._checked_optimum(w, y, 2.0 * x, cfg)
        assert np.array_equal(res.witness, x) and res.radius == x[1] - charge
        res = verifier._checked_optimum(w, y, np.array([3e4, 2e-8]), cfg)
        assert res.status is VerifyStatus.INDETERMINATE
        assert res.radius is None and res.witness is None
        assert res.reason.startswith("HiGHS witness margin 6.657")

    def test_decides_not_eps_from_a_checked_ray(self, monkeypatch):
        # The k-active items of the Gaussian layer are NOT_EPS; each must be
        # decided by the restricted dual's ray, with no full-dual run.
        w, ys = _rowgen_layers()["gauss"]
        full = _full_dual(monkeypatch, w, ys)
        outcomes = _restricted_outcomes(monkeypatch)
        real_run = verifier._Session.run
        full_runs = []

        def run(session, lp):
            full_runs.append(_full(session, lp))
            return real_run(session, lp)

        monkeypatch.setattr(verifier._Session, "run", run)
        not_eps = 0
        for y, ref in zip(ys, full):
            full_runs.clear()
            res = chebyshev_verify(w, y)
            assert res.status is ref.status
            if res.status is VerifyStatus.NOT_EPS_ARGMAXABLE:
                not_eps += 1
                assert not any(full_runs) and outcomes[-1]
                assert _bits([res]) == _bits([ref])
        assert not_eps >= 12

    def _ray(self, monkeypatch):
        """The arguments of the first ray check on a Gaussian NOT_EPS item."""
        w, ys = _rowgen_layers()["gauss"]
        real, rays = verifier._checked_ray, []

        def spy(*args):
            rays.append(args)
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(verifier, "_checked_ray", spy)
            chebyshev_verify(w, ys[-1])
        return rays[0]

    def test_a_corrupted_ray_fails_the_check(self, monkeypatch):
        w, y, rows, lam, cfg = self._ray(monkeypatch)
        assert verifier._checked_ray(w, y, rows, lam, cfg) is not None
        top = np.argmax(lam)
        scaled, flipped = lam.copy(), lam.copy()
        scaled[top] *= 2.0
        flipped[top] *= -1.0
        for bad in (scaled, flipped):
            assert verifier._checked_ray(w, y, rows, bad, cfg) is None

    def test_a_corrupted_ray_declines_to_the_full_dual(self, monkeypatch):
        w, ys = _rowgen_layers()["gauss"]
        ys = ys[-4:]  # k-active items, all NOT_EPS
        real = verifier._checked_ray

        def flipped(w, y, rows, lam, cfg):
            lam = lam.copy()
            lam[np.argmax(lam)] *= -1.0
            return real(w, y, rows, lam, cfg)

        monkeypatch.setattr(verifier, "_checked_ray", flipped)
        self._assert_declined_to_the_full_dual(monkeypatch, w, ys)

    def test_a_scaled_ray_is_checked_once_and_declines(self, monkeypatch):
        # Each item's ray, with its largest lambda doubled, fails its one
        # check; the item then goes to the full dual, which proves it.
        w, ys = _rowgen_layers()["gauss"]
        ys = ys[-4:]  # k-active items, all NOT_EPS
        real, calls = verifier._checked_ray, []

        def scaled(w, y, rows, lam, cfg):
            calls.append(lam)
            lam = lam.copy()
            lam[np.argmax(lam)] *= 2.0
            return real(w, y, rows, lam, cfg)

        monkeypatch.setattr(verifier, "_checked_ray", scaled)
        self._assert_declined_to_the_full_dual(monkeypatch, w, ys)
        assert len(calls) == len(ys)

    def test_the_ray_check_charges_a_rounding_bound(self):
        # Rows w and -w under "++" are exactly infeasible.  lam = (1, 1 - t)
        # gives hi = box t / (2 - t), set here to eps_floor - gap up to
        # ~5e-13; the check charges ~gamma_4 box = 4.4e-12 against it.
        w, y, cfg = WeightMatrix(np.array([[1.0], [-1.0]])), dense("++"), LpConfig()
        rows = np.arange(2)
        for gap, accepted in [(1e-11, True), (2e-12, False), (-1e-12, False)]:
            hi = cfg.eps_floor - gap
            lam = np.array([1.0, 1.0 - 2.0 * hi / (cfg.box_bound + hi)])
            res = verifier._checked_ray(w, y, rows, lam, cfg)
            assert (res is not None) is accepted, gap
        assert res is None
        assert verifier._checked_ray(w, y, rows, np.array([1.0, 1.0]), cfg) is not None
        assert verifier._checked_ray(w, y, rows, np.array([-1.0, 0.0]), cfg) is None
        assert verifier._checked_ray(w, y, rows, np.array([np.nan, 1.0]), cfg) is None
        # Here hi* = box 1e-10 / 2 for any lam = (c, c); at c = 1e308 the
        # norm sum overflows while the row sum does not, which would make
        # the computed hi 0.
        tilted = WeightMatrix(np.array([[1.0, 1e-10], [-1.0, 0.0]]))
        with np.errstate(over="ignore"):
            for c in (1.0, 1e308):
                lam = np.array([c, c])
                assert verifier._checked_ray(tilted, y, rows, lam, cfg) is None, c
        # "+++" is feasible here; lam = (1, 1, -1) sums the rows to 0 with
        # a positive norm sum, which proves nothing: its -1 counts as 0.
        w = WeightMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        lam = np.array([1.0, 1.0, -1.0])
        assert verifier._checked_ray(w, dense("+++"), np.arange(3), lam, cfg) is None

    def _items(self):
        return build_dft_matrix(500, 10), _k_active(np.random.default_rng(46), 500, 10)

    def _assert_declined_to_the_full_dual(self, monkeypatch, w, ys):
        full = _full_dual(monkeypatch, w, ys)
        outcomes = _restricted_outcomes(monkeypatch)
        assert _bits(chebyshev_verify(w, y) for y in ys) == _bits(full)
        assert outcomes == [False] * len(ys)

    def test_a_failed_margin_check_declines(self, monkeypatch):
        # The check refuses each restricted optimum; the full dual's
        # optimum then meets the real check.
        w, ys = self._items()
        real_check, real_rowgen = verifier._checked_optimum, verifier._Session.rowgen
        inside, refused = [], []

        def rowgen(session, y, rows):
            inside.append(_subset(session, rows))
            try:
                return real_rowgen(session, y, rows)
            finally:
                inside.pop()

        def check(*args):
            if not any(inside):
                return real_check(*args)
            refused.append(args)
            return verifier.VerifyResult(VerifyStatus.INDETERMINATE, reason="refused")

        monkeypatch.setattr(verifier._Session, "rowgen", rowgen)
        monkeypatch.setattr(verifier, "_checked_optimum", check)
        self._assert_declined_to_the_full_dual(monkeypatch, w, ys)
        assert len(refused) == len(ys)

    def _declined_by_a_stub(self, monkeypatch, w, ys, method, stub, when=None):
        """Run ys through one session whose HiGHS answers method with
        stub(real, highs, *args) on the calls that when(*args) picks (all
        by default); assert that every item whose restricted pass met the
        stub gets the full dual's result, bit for bit, and that dual
        simplex is set again afterwards.  Returns the number of such items."""
        from scipy.optimize._highspy import _core

        full = _full_dual(monkeypatch, w, ys)
        real, hits = getattr(_core._Highs, method), []

        def spy(highs, *args):
            if when is not None and not when(*args):
                return real(highs, *args)
            hits.append(args)
            return stub(real, highs, *args)

        monkeypatch.setattr(_core._Highs, method, spy)
        session = verifier._Session(w, LpConfig())
        met = 0
        for y, ref in zip(ys, full):
            hits.clear()
            res = session.dual(y)
            if hits:
                met += 1
                assert _bits([res]) == _bits([ref]), y.to_dense()
            status, held = session.highs.getOptionValue("simplex_strategy")
            assert status == _core.HighsStatus.kOk and held == 1
        return met

    def _refused(self, *args):
        from scipy.optimize._highspy import _core

        return _core.HighsStatus.kError

    def test_a_refused_primal_simplex_declines(self, monkeypatch):
        w, ys = self._items()
        met = self._declined_by_a_stub(
            monkeypatch, w, ys, "setOptionValue", self._refused,
            when=lambda key, value: (key, value) == ("simplex_strategy", 4),
        )
        assert met == len(ys)

    def test_a_refused_add_cols_declines(self, monkeypatch):
        w, ys = self._items()
        assert self._declined_by_a_stub(monkeypatch, w, ys, "addCols", self._refused) > 0

    @pytest.mark.parametrize("kind", ["raises", "short"])
    def test_an_unreadable_ray_declines(self, monkeypatch, kind):
        # The Gaussian layer's k-active items end their restricted pass
        # unbounded; reading the ray raises, or gives one entry too few.
        def unreadable(real, highs):
            if kind == "raises":
                raise RuntimeError("no ray")
            status, has_ray, ray = real(highs)
            return status, has_ray, np.asarray(ray)[:-1]

        w, ys = _rowgen_layers()["gauss"]
        ys = ys[-4:]  # k-active items, all NOT_EPS
        met = self._declined_by_a_stub(monkeypatch, w, ys, "getPrimalRay", unreadable)
        assert met == len(ys)

    @pytest.mark.parametrize("round_", [0, 1])
    @pytest.mark.parametrize(
        "failure",
        [_unbounded, _solve_error, _raises],
        ids=["unbounded", "solve-error", "raises"],
    )
    def test_a_restricted_run_without_an_optimum_declines(
        self, monkeypatch, failure, round_
    ):
        # round_ 0 fails the cold solve, 1 the first solve after addCols.
        w, ys = self._items()
        real_rowgen, real_run = verifier._Session.rowgen, verifier._Session.run
        runs = []

        def rowgen(session, y, rows):
            if _subset(session, rows):
                runs.clear()
            return real_rowgen(session, y, rows)

        def run(session, lp):
            inside = lp is None or (not _full(session, lp) and not runs)
            runs.append(lp)
            if inside and len(runs) - 1 == round_:
                return failure()
            return real_run(session, lp)

        monkeypatch.setattr(verifier._Session, "run", run)
        full = _full_dual(monkeypatch, w, ys)
        monkeypatch.setattr(verifier._Session, "rowgen", rowgen)
        outcomes = _restricted_outcomes(monkeypatch)
        assert _bits(chebyshev_verify(w, y) for y in ys) == _bits(full)
        assert outcomes == [False] * len(ys)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_more_jobs_match_one(self, monkeypatch, jobs):
        w, ys = _rowgen_layers()["dft"]
        outcomes = _restricted_outcomes(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            one = verify_batch(w, ys, jobs=1).results
            assert any(outcomes)
            assert _bits(verify_batch(w, ys, jobs=jobs).results) == _bits(one)
        finally:
            sys.setswitchinterval(interval)


def _held(session) -> dict:
    """The model HiGHS holds, as arrays."""
    lp = session.highs.getLp()
    a = lp.a_matrix_
    assert a.format_ == session.core.MatrixFormat.kColwise
    fields = {
        "start": a.start_,
        "index": a.index_,
        "value": a.value_,
        "cost": lp.col_cost_,
        "col_lower": lp.col_lower_,
        "col_upper": lp.col_upper_,
        "row_lower": lp.row_lower_,
        "row_upper": lp.row_upper_,
    }
    return {key: np.array(value) for key, value in fields.items()}


def _dense_model(cost, a, col_bounds, row_bounds) -> dict:
    """The fields of _held for min cost.x with col_bounds on x and
    row_bounds on a x, a dense and stored column-wise without its zeros.
    HiGHS drops, with a warning, entries up to its small_matrix_value
    (1e-9 by default); the spectral layer has some of ~1e-16."""
    (m, n), (cols, rows) = a.shape, np.nonzero(np.abs(a.T) > 1e-9)
    bounds = [np.broadcast_to(v, n) for v in col_bounds]
    bounds += [np.broadcast_to(v, m) for v in row_bounds]
    model = [np.searchsorted(cols, np.arange(n + 1)), rows, a[rows, cols], cost]
    keys = ["start", "index", "value", "cost", "col_lower", "col_upper"]
    return dict(zip(keys + ["row_lower", "row_upper"], model + bounds))


def _lambda_columns(w, y, rows):
    """The dual's lambda columns for the given rows under y."""
    signed = -(y.signs[rows, None] * w.entries[rows]).T
    return np.vstack([signed, w.row_norms[rows]])


def _dual_model(w, y, row_sets, cfg=LpConfig()) -> dict:
    """The dual over the lambda columns of row_sets[0], then mu_lo, mu_hi
    and nu, then the lambda columns of each later row set."""
    d = w.d
    box = np.zeros((d + 1, 2 * d + 1))
    box[:d, :d], box[:d, d : 2 * d], box[d, -1] = -np.eye(d), np.eye(d), -1.0
    blocks = [_lambda_columns(w, y, row_sets[0]), box]
    blocks += [_lambda_columns(w, y, rows) for rows in row_sets[1:]]
    box_cost = np.r_[np.full(2 * d, cfg.box_bound), -cfg.eps_floor]
    costs = [np.zeros(len(row_sets[0])), box_cost]
    costs += [np.zeros(len(rows)) for rows in row_sets[1:]]
    rhs = np.r_[np.zeros(d), 1.0]
    return _dense_model(np.concatenate(costs), np.hstack(blocks), (0.0, np.inf), (rhs, rhs))


def _assert_same_model(held: dict, expected: dict) -> None:
    assert held.keys() == expected.keys()
    for key in held:
        assert held[key].shape == expected[key].shape, key
        assert np.array_equal(held[key], expected[key]), key


class TestModelHandOff:
    """Every model reaches HiGHS through the array ``passModel`` and
    ``addCols``, cut from the session's one column-wise store.  HiGHS must
    hold what the dense matrices, stored without their zeros, describe."""

    def test_the_full_dual_is_re_signed_per_item(self):
        rng = np.random.default_rng(47)
        w = WeightMatrix(rng.standard_normal((30, 4)))
        session = verifier._Session(w, LpConfig())
        first, mixed = _random_signs(rng, 30, 2)
        assert set(mixed.signs) == {-1, 1}
        for y in (first, mixed):
            session.dual(y)
            _assert_same_model(_held(session), _dual_model(w, y, [np.arange(30)]))

    def test_the_full_dual_after_a_declined_restricted_pass(self, monkeypatch):
        # The full dual replaces, cold, the restricted model HiGHS held.
        declined = verifier.VerifyResult(VerifyStatus.INDETERMINATE, reason="declined")
        monkeypatch.setattr(verifier, "_checked_optimum", lambda *args: declined)
        monkeypatch.setattr(verifier, "_checked_ray", lambda *args: None)
        runs = _run_kinds(monkeypatch)
        w, ys = TestRowGeneration()._items()
        session = verifier._Session(w, LpConfig())
        for y in ys[:2]:
            runs.clear()
            assert session.dual(y) is declined
            assert runs[0] == "cold" and runs[-1] == "full"
            _assert_same_model(_held(session), _dual_model(w, y, [np.arange(w.n)]))

    def test_the_restricted_model_and_its_added_columns(self, monkeypatch):
        w, ys = TestRowGeneration()._items()
        real_run, real_cut = verifier._Session.run, verifier._Session._cut
        held, cut = [], []

        # Only the restricted runs count: a full dual after them is another test's.
        def run(session, lp):
            out = real_run(session, lp)
            if not _full(session, lp):
                held.append(_held(session))
            return out

        def spy(session, sign, cols):
            if cols.size < session.cost.size:
                cut.append(cols[cols < w.n])
            return real_cut(session, sign, cols)

        monkeypatch.setattr(verifier._Session, "run", run)
        monkeypatch.setattr(verifier._Session, "_cut", spy)
        session = verifier._Session(w, LpConfig())
        for y in ys:
            held.clear()
            cut.clear()
            session.dual(y)
            if len(held) >= 2:
                break
        assert len(held) >= 2 and len(cut) == len(held)
        _assert_same_model(held[0], _dual_model(w, y, cut[:1]))
        _assert_same_model(held[1], _dual_model(w, y, cut[:2]))
        _assert_same_model(held[-1], _dual_model(w, y, cut))

    def test_a_binding_without_the_array_overload_is_indeterminate(
        self, monkeypatch, tmp_path, capsys
    ):
        from scipy.optimize._highspy import _core

        class NoArrays(_core._Highs):
            def passModel(self, *args):
                if len(args) > 1:
                    raise TypeError("passModel(): incompatible function arguments")
                return super().passModel(*args)

        monkeypatch.setattr(_core, "_Highs", NoArrays)
        w, ys = TestRowGeneration()._items()
        small = build_dft_matrix(6, 1)
        for matrix, items in ((w, ys), (small, [dense("+-----"), dense("++----")])):
            for res in verify_batch(matrix, items, jobs=2).results:
                assert res.status is VerifyStatus.INDETERMINATE
                assert res.reason == (
                    "solver raised TypeError: passModel(): incompatible function arguments"
                )
        from argmaxable import cli

        (tmp_path / "w.csv").write_text("1.0,0.0\n0.0,1.0\n1.0,1.0\n")
        (tmp_path / "y.txt").write_text("++-\n+++\n")
        argv = ["verify", "--matrix", str(tmp_path / "w.csv"), "--labels"]
        code = cli.run(argv + [str(tmp_path / "y.txt"), "--out", str(tmp_path / "r.json")])
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err
