"""Chebyshev LP certification: soundness, golden instances, batching."""

import itertools
import sys

import numpy as np
import pytest

from argmaxable.dftlayer import augment_slack, build_dft_matrix
from argmaxable.labelspace import (
    FamilyKind,
    FamilySpec,
    LabelAssignment,
    alt,
    enumerate_family,
)
from argmaxable import verifier
from argmaxable.linalg import WeightMatrix, sign_vector
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


class TestLpConfig:
    def test_defaults(self):
        cfg = LpConfig()
        assert cfg.box_bound == 1e4
        assert cfg.eps_floor == 1e-8
        assert cfg.solver_feas_tol == 1e-9

    def test_orders_the_tolerances(self):
        with pytest.raises(ValueError):
            LpConfig(eps_floor=1e-10, solver_feas_tol=1e-9)
        with pytest.raises(ValueError):
            LpConfig(solver_feas_tol=0.0)
        with pytest.raises(ValueError):
            LpConfig(box_bound=0.0)


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
            logits = w.entries @ res.witness
            floor = res.radius * w.row_norms - cfg.solver_feas_tol
            assert np.all(np.abs(logits) >= floor)

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

    def test_optimum_below_the_eps_floor_is_indeterminate(self, monkeypatch):
        # Ill-conditioned solves have come back with status 0, radius -0.0
        # and a zero witness, breaking the LP's own bound eps >= eps_floor.
        # The stub answers the dual (objective, duals) and the primal
        # fallback (x).
        def solved_at_zero(session, lp):
            zero = np.array([0.0, 0.0, -0.0])
            return verifier._Run(7, 0, "", objective=-0.0, x=zero, duals=zero)

        monkeypatch.setattr(verifier._Session, "run", solved_at_zero)
        res = chebyshev_verify(WeightMatrix(np.eye(2)), dense("++"))
        assert res.status is VerifyStatus.INDETERMINATE
        assert res.radius is None and res.witness is None
        assert "-0.0" in res.reason and "status 0" in res.reason

    def test_a_model_highs_refuses_is_indeterminate_not_infeasible(self):
        # HiGHS refuses matrix entries above 1e15 with a model error, which
        # linprog numbers 2 like an infeasible primal; y is feasible here.
        w = WeightMatrix(np.array([[1e16, 1.0], [0.5, 2.0], [1.0, -1.0]]))
        res = chebyshev_verify(w, dense("+-+"))
        assert res.status is VerifyStatus.INDETERMINATE
        assert res.reason == (
            "dual LP: solver status 2: (HiGHS Status 2: Model error); "
            "primal LP: solver status 2: (HiGHS Status 2: Model error)"
        )

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


class TestPresolveOff:
    """The primal LP, which backs chebyshev_verify when the dual decides
    nothing, skips HiGHS presolve.  It must give the verdicts of the
    presolving reference; radii and witnesses may move only in their last
    digits."""

    def _compare(self, w, ys, rel):
        """Compare every item with the reference, bit for bit when rel is
        0; return the statuses seen."""
        box = LpConfig().box_bound
        session = verifier._Session(w, LpConfig())
        statuses = set()
        for y in ys:
            res = session.primal(y)
            status, radius, witness = reference_chebyshev_verify(w.entries, y.signs)
            assert res.status.value == status, y.to_dense()
            statuses.add(status)
            if radius is None:
                assert res.radius is None and res.witness is None
            elif rel == 0:
                assert res.radius == radius, y.to_dense()
                assert np.array_equal(res.witness, witness), y.to_dense()
            else:
                assert res.radius == pytest.approx(radius, rel=rel), y.to_dense()
                assert np.allclose(res.witness, witness, rtol=0, atol=1e-13 * box)
        return statuses

    def _dft_items(self):
        rng = np.random.default_rng(41)
        return [_alternating(rng, 40, int(c)) for c in rng.integers(0, 7, size=24)]

    # On the spectral layers the constant assignments (every time) and a
    # few with one or two alternations come out of the two solves with
    # radii a few ulps apart and witnesses ~1e-15 box apart.

    def test_feasible_items_of_the_spectral_layer(self):
        ys = self._dft_items()
        assert all(alt(y) <= 6 for y in ys)
        self._compare(build_dft_matrix(40, 3), ys, rel=1e-14)

    def test_the_spectral_layer_with_slack_columns(self):
        w = augment_slack(build_dft_matrix(40, 3), 4, seed=3)
        self._compare(w, self._dft_items(), rel=1e-14)

    def test_a_gaussian_layer_is_bit_identical(self):
        rng = np.random.default_rng(42)
        w = WeightMatrix(rng.standard_normal((60, 5)))
        ys = _predicted(rng, w, 16) + _random_signs(rng, 60, 16)
        assert self._compare(w, ys, rel=0) == {"argmaxable", "not_eps_argmaxable"}

    def test_parallel_rows_keep_their_verdicts(self):
        # Presolve merges exactly parallel rows.
        rng = np.random.default_rng(43)
        base = rng.standard_normal((30, 4))
        w = WeightMatrix(np.vstack([base, base[:10], 3.0 * base[10:15]]))
        ys = _predicted(rng, w, 16) + _random_signs(rng, w.n, 8)
        assert self._compare(w, ys, rel=1e-12) == {"argmaxable", "not_eps_argmaxable"}

    def test_every_highs_option_is_recognized(self):
        # HiGHS answers setOptionValue with kOk or kError; a refused option
        # would leave the solver at its default value.
        session = verifier._Session(build_dft_matrix(6, 1), LpConfig())
        assert session.refused == []
        res = chebyshev_verify(build_dft_matrix(6, 1), dense("+-----"))
        assert res.status is VerifyStatus.ARGMAXABLE and res.reason is None

    def test_a_refused_option_makes_the_item_indeterminate(self):
        # HiGHS takes no feasibility tolerance below 1e-10.
        cfg = LpConfig(eps_floor=1e-11, solver_feas_tol=1e-12)
        res = chebyshev_verify(build_dft_matrix(6, 1), dense("+-----"), cfg)
        assert res.status is VerifyStatus.INDETERMINATE
        assert res.radius is None and res.witness is None
        assert "HiGHS refused option primal_feasibility_tolerance=1e-12" in res.reason


class TestDualForm:
    """chebyshev_verify solves the dual LP.  It must give the verdicts of
    the primal reference, with witnesses that reproduce y.  Each layer's
    tolerances are the largest differences measured on these items (radius
    relative, witness in units of the box), rounded up to the next power of
    ten."""

    _dft_items = TestPresolveOff._dft_items

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
            assert res.radius == pytest.approx(radius, rel=radius_rel), y.to_dense()
            assert np.allclose(res.witness, witness, rtol=0, atol=witness_rel * box)
        return statuses

    def test_feasible_items_of_the_spectral_layer(self):
        # Measured: 3.4e-12 and 6.0e-14.
        self._compare(build_dft_matrix(40, 3), self._dft_items(), 1e-11, 1e-13)

    def test_the_spectral_layer_with_slack_columns(self):
        # Measured: 1.0e-13 and 1.1e-14.
        w = augment_slack(build_dft_matrix(40, 3), 4, seed=3)
        self._compare(w, self._dft_items(), 1e-12, 1e-13)

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

    _dft_items = TestPresolveOff._dft_items

    def _layers(self):
        rng = np.random.default_rng(44)
        dft = build_dft_matrix(40, 3)
        gauss = WeightMatrix(rng.standard_normal((60, 5)))
        return [
            (dft, self._dft_items() + _random_signs(rng, 40, 8)),
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


def _failing_dual(monkeypatch, dual_failure, primal_failure=None):
    """Route the dual solve (the session's own model) to ``dual_failure``
    and the primal to ``primal_failure``, or to HiGHS when that is None;
    return the list of forms solved, in order."""
    real = verifier._Session.run
    forms = []

    def stub(session, lp):
        form = "dual" if lp is session.dual_lp else "primal"
        forms.append(form)
        failure = dual_failure if form == "dual" else primal_failure
        if failure is None:
            return real(session, lp)
        return failure()

    monkeypatch.setattr(verifier._Session, "run", stub)
    return forms


def _solve_error():
    return verifier._Run(4, 4, "(HiGHS Status 4: Solve error)")


def _raises():
    raise RuntimeError("numerical trouble")


class TestPrimalFallback:
    """A dual solve that decides nothing is solved once more in the primal
    form; only when both fail is the item INDETERMINATE."""

    @pytest.mark.parametrize("failure", [_solve_error, _raises])
    @pytest.mark.parametrize(
        "text, expected",
        [("+-----", VerifyStatus.ARGMAXABLE), ("+-+---", VerifyStatus.NOT_EPS_ARGMAXABLE)],
    )
    def test_the_primal_decides_what_the_dual_did_not(
        self, monkeypatch, failure, text, expected
    ):
        forms = _failing_dual(monkeypatch, failure)
        w, y = build_dft_matrix(6, 1), dense(text)
        res = chebyshev_verify(w, y)
        assert forms == ["dual", "primal"]
        assert res.status is expected and res.reason is None
        if expected is VerifyStatus.ARGMAXABLE:
            assert sign_vector(w, res.witness) == y
            assert res.radius >= LpConfig().eps_floor

    def test_both_failures_are_named_in_the_reason(self, monkeypatch):
        def iteration_limit():
            return verifier._Run(14, 1, "Iteration limit reached.")

        forms = _failing_dual(monkeypatch, _solve_error, iteration_limit)
        res = chebyshev_verify(build_dft_matrix(6, 1), dense("+-----"))
        assert forms == ["dual", "primal"]
        assert res.status is VerifyStatus.INDETERMINATE
        assert res.radius is None and res.witness is None
        assert "dual LP: solver status 4" in res.reason
        assert "Solve error" in res.reason
        assert "primal LP: solver status 1" in res.reason

    def test_a_decided_dual_is_not_solved_again(self, monkeypatch):
        forms = _failing_dual(monkeypatch, None)
        for text in ("+-----", "+-+---"):
            chebyshev_verify(build_dft_matrix(6, 1), dense(text))
        assert forms == ["dual", "dual"]
