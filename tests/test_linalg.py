"""Determinants, maximal minors, general position, and sign evaluation."""

import itertools
import math
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from argmaxable import linalg
from argmaxable.dftlayer import build_dft_matrix
from argmaxable.labelspace import alt
from argmaxable.linalg import (
    BoundaryError,
    GrVerdict,
    MinorBudgetError,
    Provenance,
    WeightMatrix,
    gr_plus_status,
    is_general_position,
    sign_vector,
)

from reference_impls import (
    cofactor_det,
    colex_table,
    determinant,
    maximal_minors,
    minor_brackets,
    perturb_input,
    reference_minor_scan,
)


def vandermonde_rows(ts):
    """Rows (1, t_i): the classic matrix with all minors t_j - t_i > 0
    for increasing t."""
    ts = np.asarray(ts, dtype=np.float64)
    return WeightMatrix(np.stack([np.ones_like(ts), ts], axis=1))


class TestWeightMatrix:
    def test_validates_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.zeros(3))
        with pytest.raises(ValueError):
            WeightMatrix(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[1.0, np.inf]]))

    def test_entries_read_only_and_detached(self):
        src = np.eye(2)
        w = WeightMatrix(src)
        src[0, 0] = 5.0
        assert w.entries[0, 0] == 1.0
        with pytest.raises(ValueError):
            w.entries[0, 0] = 2.0

    def test_row_norms_cached(self):
        w = WeightMatrix(np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert np.allclose(w.row_norms, [5.0, 1.0])
        assert w.row_norms is w.row_norms
        with pytest.raises(ValueError):
            w.row_norms[0] = 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rows, named",
        [
            ([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], "row(s) 2"),
            ([[1e-200, 0.0], [0.0, 1.0]], "row(s) 1"),  # the square underflows
            ([[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]], "row(s) 1, 2, 3"),
            ([[1.0], [2e154], [-1.0], [1e-300]], "row(s) 2, 4"),
        ],
        ids=["zero", "underflow", "overflow", "both-ends"],
    )
    def test_refuses_a_row_norm_of_zero_or_infinity(self, rows, named):
        with pytest.raises(ValueError, match="positive and finite") as exc:
            WeightMatrix(np.array(rows))
        assert str(exc.value).endswith(named)

    def test_row_norms_near_the_float_limits_are_kept(self):
        entries = np.array([[1e-150, 0.0], [0.0, 1e150], [3.0, -4.0]])
        w = WeightMatrix(entries)
        assert np.array_equal(w.row_norms, np.linalg.norm(entries, axis=1))
        assert w.row_norms.tolist() == [1e-150, 1e150, 5.0]

    def test_provenance_round_trip(self):
        for p in (
            Provenance(kind="random", seed=3),
            Provenance(kind="dft", k=4),
            Provenance(kind="dft+slack", k=2, s=16, seed=9),
            Provenance(kind="random", seed=-1),
        ):
            assert Provenance.from_json(p.to_json()) == p
        with pytest.raises(ValueError):
            Provenance(kind="learned")
        with pytest.raises(ValueError):
            Provenance.from_json({"kind": "dft", "bogus": 1})
        assert Provenance(kind="dft", k=np.int64(3)).to_json() == {"kind": "dft", "k": 3}

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"k": 2.7}, "k must be an integer, got 2.7"),
            ({"k": 2.0}, "k must be an integer, got 2.0"),
            ({"k": True}, "k must be an integer, got True"),
            ({"k": "abc"}, "k must be an integer, got 'abc'"),
            ({"k": 0}, "k must be >= 1, got 0"),
            ({"k": 1, "s": -1}, "s must be >= 0, got -1"),
            ({"k": 1, "s": 1, "seed": False}, "seed must be an integer, got False"),
        ],
    )
    def test_provenance_fields_are_integers(self, fields, message):
        with pytest.raises(ValueError, match=f"^provenance {message}$"):
            Provenance.from_json({"kind": "dft+slack", **fields})


class TestDeterminant:
    def test_identity_and_singular(self):
        assert determinant(np.eye(3)) == pytest.approx(1.0)
        assert determinant(np.array([[1.0, 2.0], [2.0, 4.0]])) == pytest.approx(0.0)

    def test_vandermonde_value_by_cofactor_oracle(self):
        rows = [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 2.0, 4.0]]
        oracle = cofactor_det(rows)
        assert oracle == pytest.approx(2.0)
        assert determinant(np.array(rows)) == pytest.approx(oracle)

    def test_agrees_with_cofactor_oracle_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            size = int(rng.integers(1, 7))
            mat = rng.standard_normal((size, size))
            got = determinant(mat)
            want = cofactor_det(mat.tolist())
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_rejects_non_square_and_oversized(self):
        with pytest.raises(ValueError):
            determinant(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            determinant(np.eye(4), dim_cap=3)


class TestMaximalMinors:
    def test_colex_order_and_values_on_vandermonde(self):
        w = vandermonde_rows([0.0, 1.0, 2.0, 3.0])
        pairs = list(maximal_minors(w))
        # Minor over rows {i, j} of the (1, t) matrix is t_j - t_i.
        assert [idx for idx, _ in pairs] == [
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (1, 3),
            (2, 3),
        ]
        for (i, j), det in pairs:
            assert det == pytest.approx(float(j - i))

    def test_square_matrix_single_minor_equals_determinant(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 4))
        pairs = list(maximal_minors(WeightMatrix(mat)))
        assert len(pairs) == 1
        assert pairs[0][0] == (0, 1, 2, 3)
        assert pairs[0][1] == pytest.approx(determinant(mat))

    def test_minor_count_is_binomial(self):
        rng = np.random.default_rng(1)
        w = WeightMatrix(rng.standard_normal((8, 3)))
        assert len(list(maximal_minors(w))) == math.comb(8, 3)

    def test_chunking_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(2)
        w = WeightMatrix(rng.standard_normal((9, 2)))
        monkeypatch.setattr(linalg, "_MINOR_CHUNK", 5)
        small = list(maximal_minors(w))
        monkeypatch.setattr(linalg, "_MINOR_CHUNK", 10**6)
        large = list(maximal_minors(w))
        assert [i for i, _ in small] == [i for i, _ in large]
        assert np.allclose([v for _, v in small], [v for _, v in large])

    def test_agrees_with_cofactor_oracle(self):
        rng = np.random.default_rng(3)
        entries = rng.standard_normal((6, 3))
        w = WeightMatrix(entries)
        for index_set, det in maximal_minors(w):
            sub = entries[list(index_set)].tolist()
            assert det == pytest.approx(cofactor_det(sub), rel=1e-10, abs=1e-12)

    def test_budget_refusal_names_the_count(self):
        rng = np.random.default_rng(4)
        w = WeightMatrix(rng.standard_normal((30, 10)))
        with pytest.raises(MinorBudgetError) as err:
            list(maximal_minors(w))
        assert str(math.comb(30, 10)) in str(err.value)

    def test_needs_at_least_d_rows(self):
        with pytest.raises(ValueError):
            list(maximal_minors(WeightMatrix(np.ones((2, 3)))))


class TestGeneralPosition:
    def test_vandermonde_is_general_position(self):
        assert is_general_position(vandermonde_rows([0.0, 1.0, 2.0, 3.0]))

    def test_repeated_row_is_not(self):
        w = WeightMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert not is_general_position(w)

    def test_random_matrices_are_almost_surely_general_position(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, min(n, 5)))
            assert is_general_position(WeightMatrix(rng.standard_normal((n, d))))

    def test_row_scaling_does_not_change_the_verdict(self):
        # The threshold is relative to selected row norms on purpose.
        rng = np.random.default_rng(6)
        entries = rng.standard_normal((6, 3))
        scales = 10.0 ** rng.integers(-6, 7, size=6)
        assert is_general_position(WeightMatrix(entries))
        assert is_general_position(WeightMatrix(entries * scales[:, None]))
        near = entries.copy()
        near[3] = near[2] * 1e-5  # dependent pair, tiny norm
        assert not is_general_position(WeightMatrix(near))

    def test_fewer_rows_than_columns_needs_full_row_rank(self):
        # The n < d branch tests the volume of the normalised rows.
        assert is_general_position(WeightMatrix(np.eye(2, 3)))
        dependent = np.array([[1.0, 2.0, 3.0], [-0.5, -1.0, -1.5]])
        assert not is_general_position(WeightMatrix(dependent))

    def test_rows_dependent_up_to_rounding_are_not_general_position(self):
        # sqrt(det(W W^T)) came out at 3.1e-10 here, above the threshold,
        # while the minor scan calls the same rows degenerate.
        rows = np.array([[1.0, 2.0, 3.0], [-0.002, -0.004, -0.006]])
        assert not is_general_position(WeightMatrix(rows))
        third = WeightMatrix(np.vstack([rows, [0.3, 0.1, 0.7]]))
        assert gr_plus_status(third).verdict is GrVerdict.DEGENERATE


class TestGrStatus:
    def test_vandermonde_uniform_positive(self):
        status = gr_plus_status(vandermonde_rows([0.0, 1.0, 2.0, 3.0]))
        assert status.verdict is GrVerdict.UNIFORM_POSITIVE
        assert status.checked_minors == 6
        assert status.min_abs_minor == pytest.approx(1.0)

    def test_single_column_negation_flips_to_uniform_negative(self):
        w = vandermonde_rows([0.0, 1.0, 2.0, 3.0])
        # Negating the whole 2-column matrix scales minors by (-1)^2 and
        # changes nothing; negating one column flips every minor's sign.
        whole = gr_plus_status(WeightMatrix(-w.entries))
        assert whole.verdict is GrVerdict.UNIFORM_POSITIVE
        flipped = WeightMatrix(w.entries * np.array([1.0, -1.0]))
        assert gr_plus_status(flipped).verdict is GrVerdict.UNIFORM_NEGATIVE

    def test_reordering_rows_gives_mixed_signs(self):
        w = vandermonde_rows([0.0, 2.0, 1.0, 3.0])
        status = gr_plus_status(w)
        assert status.verdict is GrVerdict.MIXED_SIGNS
        assert status.checked_minors == 6

    def test_duplicate_row_is_degenerate_and_short_circuits(self):
        w = WeightMatrix(
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        )
        status = gr_plus_status(w)
        assert status.verdict is GrVerdict.DEGENERATE
        assert status.checked_minors < math.comb(4, 2)

    def test_column_rescaling_preserves_uniformity(self):
        # Positive diagonal column scaling scales every minor by the same
        # positive factor, so the verdict class cannot change.
        rng = np.random.default_rng(7)
        w = vandermonde_rows(np.sort(rng.uniform(0.0, 3.0, size=6)))
        scaled = WeightMatrix(w.entries * np.array([3.0, 0.25]))
        assert gr_plus_status(w).verdict is gr_plus_status(scaled).verdict


def _scan_inputs():
    """Matrices covering every verdict, with the first degenerate minor
    placed early, inside a block and at the very end of the scan."""
    rng = np.random.default_rng(12)
    cases = {}
    for n, d in ((7, 3), (9, 3), (8, 4), (10, 2)):
        cases[f"random-{n}x{d}"] = rng.standard_normal((n, d))
    early = rng.standard_normal((9, 3))
    early[1] = early[0]
    cases["duplicate-first"] = early
    mid = rng.standard_normal((9, 3))
    mid[5] = -2.0 * mid[3]
    cases["duplicate-mid"] = mid
    last = rng.standard_normal((9, 3))
    last[8] = last[6] + last[7]  # only the last colex subset {6, 7, 8}
    cases["dependent-last"] = last
    ts = np.array([0.0, 1.0, 2.0, 2.5, 3.0, 4.0])
    cases["vandermonde"] = np.stack([np.ones_like(ts), ts, ts**2], axis=1)
    cases["reordered-vandermonde"] = cases["vandermonde"][[0, 2, 1, 4, 5, 3]]
    cases["one-column"] = rng.standard_normal((6, 1))
    cases["square"] = rng.standard_normal((4, 4))
    return cases


class TestScanMatchesReference:
    @pytest.mark.parametrize("chunk", [1, 7, 2048])
    @pytest.mark.parametrize("name", sorted(_scan_inputs()))
    def test_status_general_position_and_minors(self, name, chunk, monkeypatch):
        entries = _scan_inputs()[name]
        w = WeightMatrix(entries)
        verdict, min_abs, checked, minors = reference_minor_scan(entries)
        monkeypatch.setattr(linalg, "_MINOR_CHUNK", chunk)
        status = gr_plus_status(w)
        assert status.verdict.value == verdict
        assert status.checked_minors == checked
        assert status.min_abs_minor == min_abs
        assert is_general_position(w) == (verdict != "degenerate")
        brackets = minor_brackets(w)
        assert [idx for idx, _, _ in brackets] == [idx for idx, _ in minors]
        for (_, value, bound), (_, det) in zip(brackets, minors):
            # numpy's det is sign * exp(log |det|): even a 1 x 1 minor can be
            # off its entry by ~|ln |det|| u, which a bracket of the exact
            # value need not cover.
            assert abs(value - det) <= bound + 2**-40 * abs(det)

    def test_degenerate_cases_stop_where_intended(self):
        cases = _scan_inputs()
        total = math.comb(9, 3)
        assert reference_minor_scan(cases["duplicate-first"])[2] == 1
        assert 1 < reference_minor_scan(cases["duplicate-mid"])[2] < total
        verdict, _, checked, _ = reference_minor_scan(cases["dependent-last"])
        assert (verdict, checked) == ("degenerate", total)

    @pytest.mark.parametrize("chunk", [1, 7, 2048])
    def test_blocks_are_bounded_colex_intp(self, chunk):
        shapes = [(11, 4)] + ([(400, 2), (20, 9)] if chunk == 2048 else [])
        for n, d in shapes:
            first = []
            for block in linalg._colex_blocks(n, d, chunk):
                assert block.dtype == np.intp and 1 <= len(block) <= chunk
                first.append((block.shape, block.tobytes()))
                # Blocks are cut from tables the scan shares; each block
                # must still be the caller's own.
                block[:] = -1
            blocks = list(linalg._colex_blocks(n, d, chunk))
            assert [(b.shape, b.tobytes()) for b in blocks] == first
            sets = [tuple(row) for b in blocks for row in b.tolist()]
            colex = sorted(itertools.combinations(range(n), d), key=lambda s: s[::-1])
            assert sets == colex


class TestColexTables:
    @pytest.mark.parametrize("chunk", [1, 5, 64, 10**6])
    @pytest.mark.parametrize("m", [0, 1, 4, 9, 13])
    def test_tables_equal_the_itertools_reference(self, m, chunk):
        # The scan asks for sizes 0..d over range(m) (the recursion) and
        # over range(m - d + size) (the LAPACK path).  The grid holds size
        # 0, size = m, and chunks below C(m, size), which cut a table to
        # a prefix.
        for d in range(m + 1):
            for ms in ([m] * (d + 1), range(m - d, m + 1)):
                tables = list(linalg._colex_tables(ms, chunk))
                assert len(tables) == d + 1
                for size, (table, m_size) in enumerate(zip(tables, ms)):
                    expected = colex_table(m_size, size, chunk)
                    assert table.dtype == np.intp and table.flags.c_contiguous
                    assert table.shape == expected.shape and len(table) <= chunk
                    assert table.tobytes() == expected.tobytes(), (ms, size)


def _floor_layers():
    """Layers whose row norms spread over 1e-30 to 1e30, the bench's DFT
    layer and a wide layer, each with the chunks to scan it in."""
    rng = np.random.default_rng(36)

    def spread(n, d):
        return rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-30, 30, (n, 1))

    return {
        "spread-9x3": (spread(9, 3), [1, 7, 2048]),
        "spread-13x5": (spread(13, 5), [1, 7, 2048]),
        "spread-16x8": (spread(16, 8), [5, 2048]),
        "dft-20x9": (build_dft_matrix(20, 4).entries, [2048]),
        "wide-14x12": (spread(14, 12), [1, 7, 2048]),
    }


class TestFloors:
    @pytest.mark.parametrize("name", sorted(_floor_layers()))
    def test_every_floor_is_the_product_of_norms_in_row_order(self, name, monkeypatch):
        entries, chunks = _floor_layers()[name]
        w = WeightMatrix(entries)
        tau = linalg.DEFAULT_TAU_DET
        for chunk in chunks:
            monkeypatch.setattr(linalg, "_MINOR_CHUNK", chunk)
            seen = 0
            for sets, values, _, scales in linalg._minor_blocks(w, 10**6):
                idx = sets(np.arange(len(values)))
                floor = tau * np.prod(w.row_norms[idx], axis=1)
                assert scales.dtype == np.float64 and scales.shape == values.shape
                assert (tau * scales).tobytes() == floor.tobytes(), (chunk, seen)
                some = np.arange(len(values))[::3]
                assert sets(some).tolist() == idx[some].tolist()
                seen += len(values)
            assert seen == math.comb(*entries.shape)


def _exact_layers():
    """Small layers whose every entry is a float, so a dyadic rational that
    Fraction holds exactly: integers, dyadic fractions, and Gaussian draws
    over a wide range of row scales."""
    rng = np.random.default_rng(33)
    layers = {
        "integers-7x3": rng.integers(-9, 10, size=(7, 3)).astype(float),
        "dyadic-8x4": rng.integers(-2**20, 2**20, size=(8, 4)) / 2.0**17,
        "gaussian-7x2": rng.standard_normal((7, 2)),
        "gaussian-8x3": rng.standard_normal((8, 3)),
        "gaussian-9x4": rng.standard_normal((9, 4)),
        "scaled-8x4": rng.standard_normal((8, 4)) * 2.0 ** rng.integers(-40, 40, (8, 1)),
    }
    ts = np.linspace(0.0, 1.0, 8)
    layers["near-vandermonde-8x4"] = np.stack([ts**k for k in range(4)], axis=1)
    return layers


def _straddles():
    """Rows with integer norms, so each relative minor det / prod ||w_i|| is
    a rational the threshold can be set to."""
    return {
        "d2": np.array([[3.0, 4.0], [5.0, 12.0], [8.0, 15.0]]),
        "d3": np.array(
            [[1.0, 2.0, 2.0], [2.0, 3.0, 6.0], [4.0, 4.0, 7.0], [1.0, 4.0, 8.0],
             [2.0, 6.0, 9.0]]
        ),
    }


class TestBrackets:
    @pytest.mark.parametrize("name", sorted(_exact_layers()))
    def test_every_exact_minor_lies_in_its_bracket(self, name):
        entries = _exact_layers()[name]
        brackets = minor_brackets(WeightMatrix(entries))
        n, d = entries.shape
        assert 2 * d <= n + 1 and len(brackets) == math.comb(n, d)
        for idx, value, bound in brackets:
            exact = cofactor_det([[Fraction(x) for x in entries[i]] for i in idx])
            assert abs(Fraction(value) - exact) <= Fraction(bound), (idx, value, bound)
            assert 0.0 < bound < math.inf

    @pytest.mark.parametrize("name", sorted(_straddles()))
    def test_a_threshold_on_a_bracket_is_decided_as_the_reference_does(
        self, name, monkeypatch
    ):
        entries = _straddles()[name]
        norms = np.linalg.norm(entries, axis=1)
        assert norms.tolist() == np.round(norms).tolist()
        w = WeightMatrix(entries)
        assert all(bound is not None for _, _, bound, _ in linalg._minor_blocks(w, 10**6))
        n, d = entries.shape
        real, seen = np.linalg.det, []

        def spy(stack):
            seen.extend(m.tobytes() for m in stack.reshape(-1, d, d))
            return real(stack)

        for idx in itertools.combinations(range(n), d):
            exact = abs(cofactor_det([[Fraction(x) for x in entries[i]] for i in idx]))
            relative = float(exact / math.prod(int(round(norms[i])) for i in idx))
            for tau in (np.nextafter(relative, 0.0), relative, np.nextafter(relative, 1.0)):
                verdict, min_abs, checked, _ = reference_minor_scan(entries, float(tau))
                seen.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "det", spy)
                    status = gr_plus_status(w, tau_det=float(tau))
                # The bracket meets this threshold, so LAPACK decides.
                assert entries[list(idx)].tobytes() in seen, (idx, tau)
                assert status.verdict.value == verdict, (idx, tau)
                assert status.checked_minors == checked, (idx, tau)
                assert status.min_abs_minor.hex() == min_abs.hex(), (idx, tau)


class TestRouting:
    @pytest.mark.parametrize("shape", [(30, 30), (20, 15), (14, 12)])
    def test_a_wide_layer_takes_lapack_for_every_minor(self, shape):
        # The recursion would visit every subset below the top: 2^30 of them
        # under the one minor of the square layer.
        entries = np.random.default_rng(34).standard_normal(shape)
        w = WeightMatrix(entries)
        assert all(bound is None for _, _, bound, _ in linalg._minor_blocks(w, 10**6))
        start = time.perf_counter()
        status = gr_plus_status(w)
        assert time.perf_counter() - start < 1.0
        verdict, min_abs, checked, _ = reference_minor_scan(entries)
        assert status.verdict.value == verdict
        assert status.checked_minors == checked
        assert status.min_abs_minor.hex() == min_abs.hex()

    @pytest.mark.parametrize("shape, laplace", [((7, 4), True), ((6, 4), False), ((1, 1), True)])
    def test_the_recursion_runs_when_2d_is_at_most_n_plus_1(self, shape, laplace):
        w = WeightMatrix(np.random.default_rng(35).standard_normal(shape))
        bounds = [b for _, _, b, _ in linalg._minor_blocks(w, 10**6)]
        assert all((b is not None) == laplace for b in bounds)


def _helper_layers():
    rng = np.random.default_rng(31)
    return {
        "dft-12x5": build_dft_matrix(12, 2).entries,
        "dft-9x3": build_dft_matrix(9, 1).entries,
        "gaussian-10x4": rng.standard_normal((10, 4)),
        "gaussian-11x3": rng.standard_normal((11, 3)),
    }


def _stops():
    """9 x 3 layers whose first degenerate minor, in a single block of all
    84, falls in the first half (colex position 0) or the second (56)."""
    rng = np.random.default_rng(32)
    first = rng.standard_normal((9, 3))
    first[1] = first[0]  # every set holding {0, 1}, from {0, 1, 2} on
    second = rng.standard_normal((9, 3))
    second[8] = second[0] + second[1]  # {0, 1, 8} alone
    return {"early": (first, 1), "late": (second, 57)}


def _dft_12x5_blocks():
    """The minor scan of build_dft_matrix(12, 2), as a lazy block stream."""
    return linalg._minor_blocks(build_dft_matrix(12, 2), linalg.DEFAULT_MINOR_BUDGET)


@pytest.fixture(params=[1, 5, 10**6])
def chunk(request, monkeypatch):
    monkeypatch.setattr(linalg, "_MINOR_CHUNK", request.param)
    return request.param


@pytest.fixture
def no_thread(monkeypatch):
    """Thread.start raises: whatever runs under it starts no thread."""

    def refuse(thread):
        raise AssertionError(f"the scan started {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)


class TestScanThreads:
    """The scan runs on the calling thread alone, at every block size, and
    its verdicts are those of a serial reference.  Chunks of 1 and 5 cut
    every scan here into many blocks; at 10**6 each is one block."""

    @pytest.mark.parametrize("name", sorted(_helper_layers()))
    def test_full_scan_matches_a_serial_reference(self, name, chunk, no_thread):
        entries = _helper_layers()[name]
        verdict, min_abs, checked, minors = reference_minor_scan(entries)
        status = gr_plus_status(WeightMatrix(entries))
        assert status.verdict.value == verdict != "degenerate"
        assert status.checked_minors == checked == len(minors)
        assert status.min_abs_minor.hex() == min_abs.hex()
        assert is_general_position(WeightMatrix(entries))

    @pytest.mark.parametrize("where", sorted(_stops()))
    def test_degenerate_stop_early_or_late_in_a_block(self, where, chunk, no_thread):
        entries, stop = _stops()[where]
        verdict, min_abs, checked, _ = reference_minor_scan(entries)
        assert (verdict, checked) == ("degenerate", stop)
        assert (stop <= (math.comb(9, 3) + 1) // 2) == (where == "early")
        status = gr_plus_status(WeightMatrix(entries))
        assert status.verdict is GrVerdict.DEGENERATE
        assert status.checked_minors == stop
        assert status.min_abs_minor.hex() == min_abs.hex()

    @pytest.mark.parametrize("call", ["det", "einsum"])
    def test_an_error_in_lapack_or_the_recursion_propagates(
        self, call, chunk, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise ZeroDivisionError(f"{call} bug")

        before = set(threading.enumerate())
        monkeypatch.setattr(np.linalg if call == "det" else np, call, broken)
        with pytest.raises(ZeroDivisionError, match=call):
            gr_plus_status(build_dft_matrix(12, 2))
        assert set(threading.enumerate()) == before

    def test_none_outlives_an_error_between_blocks(self, chunk, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("threshold bug")

        w = build_dft_matrix(12, 2)
        before = set(threading.enumerate())
        # Only the threshold test, between blocks, calls flatnonzero.
        monkeypatch.setattr(np, "flatnonzero", broken)
        with pytest.raises(ZeroDivisionError, match="threshold") as caught:
            gr_plus_status(w)
        assert caught.tb is not None
        assert set(threading.enumerate()) == before

    def test_a_suspended_scan_holds_no_thread(self, chunk):
        before = set(threading.enumerate())
        blocks = _dft_12x5_blocks()
        assert next(blocks)[0]([0]).tolist() == [[0, 1, 2, 3, 4]]
        assert set(threading.enumerate()) == before
        blocks.close()
        assert set(threading.enumerate()) == before

    def test_none_outlives_an_error_thrown_into_the_iterator(self, chunk):
        before = set(threading.enumerate())
        blocks = _dft_12x5_blocks()
        next(blocks)
        with pytest.raises(ZeroDivisionError) as caught:
            blocks.throw(ZeroDivisionError("caller bug"))
        assert caught.tb is not None
        assert set(threading.enumerate()) == before

    def test_the_module_has_no_thread_pool(self):
        source = Path(linalg.__file__).read_text()
        assert "concurrent" not in source and "threading" not in source


class TestSignVector:
    def test_basic_example(self):
        w = WeightMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
        y = sign_vector(w, np.array([1.0, 1.0]))
        assert y.to_dense().replace("−", "-") == "++-"

    def test_boundary_error_reports_one_based_rows(self):
        w = WeightMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
        with pytest.raises(BoundaryError) as err:
            sign_vector(w, np.array([1.0, 0.0]))
        assert err.value.rows == (2,)
        assert "row 2" in str(err.value)

    def test_never_returns_zeros(self):
        rng = np.random.default_rng(8)
        w = WeightMatrix(rng.standard_normal((5, 3)))
        for _ in range(100):
            x = rng.standard_normal(3)
            try:
                y = sign_vector(w, x)
            except BoundaryError:
                continue
            assert set(np.unique(y.signs)) <= {-1, 1}

    def test_dimension_check(self):
        w = WeightMatrix(np.eye(2))
        with pytest.raises(ValueError):
            sign_vector(w, np.zeros(3))

    def test_perturbation_escapes_boundary(self):
        w = WeightMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
        x = np.array([1.0, 0.0])
        moved = perturb_input(x, seed=11)
        y = sign_vector(w, moved)
        assert y.n == 3

    def test_perturbation_is_seeded_and_tiny(self):
        x = np.array([3.0, 4.0])
        a = perturb_input(x, seed=1)
        b = perturb_input(x, seed=1)
        c = perturb_input(x, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.linalg.norm(a - x) == pytest.approx(1e-9 * 5.0)

    def test_perturbation_at_origin_uses_absolute_scale(self):
        moved = perturb_input(np.zeros(3), seed=5)
        assert 0.0 < np.linalg.norm(moved) == pytest.approx(1e-9)


class TestCauchyBinetStyleIdentity:
    def test_orthonormal_columns_make_squared_minors_sum_to_one(self):
        """For any matrix with orthonormal columns, the squared maximal
        minors sum to det(W^T W) = 1."""
        rng = np.random.default_rng(9)
        for n, d in ((5, 2), (7, 3), (9, 4)):
            q, _ = np.linalg.qr(rng.standard_normal((n, d)))
            total = sum(det**2 for _, det in maximal_minors(WeightMatrix(q)))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestSignSetScaleInvariance:
    def test_column_scaling_is_a_bijection_on_sign_vectors(self):
        """sign(W D x) = sign(W (D x)): positive column scaling permutes
        inputs, so the achievable sign set is unchanged."""
        rng = np.random.default_rng(10)
        entries = rng.standard_normal((6, 3))
        scale = np.array([2.0, 0.5, 7.0])
        w = WeightMatrix(entries)
        ws = WeightMatrix(entries * scale)
        for _ in range(50):
            x = rng.standard_normal(3)
            try:
                lhs = sign_vector(ws, x)
                rhs = sign_vector(w, scale * x)
            except BoundaryError:
                continue
            assert lhs == rhs
