"""Spectral weight construction, slack augmentation, FFT logits, bias."""

import math

import numpy as np
import pytest

from argmaxable.dftlayer import (
    DATASET_PRESETS,
    DftSpec,
    augment_slack,
    bias_init,
    build_dft_matrix,
    build_layer,
    dft_entry_error_bound,
    logits_direct,
    logits_fft,
    slack_block,
)
from argmaxable.linalg import (
    GrVerdict,
    Provenance,
    WeightMatrix,
    gr_plus_status,
)
from reference_impls import maximal_minors


class TestDftSpec:
    def test_validates_width(self):
        DftSpec(n=6, k=1)
        DftSpec(n=7, k=3)
        with pytest.raises(ValueError):
            DftSpec(n=6, k=3)  # 2k+1 = 7 > 6
        with pytest.raises(ValueError):
            DftSpec(n=6, k=0)
        with pytest.raises(ValueError):
            DftSpec(n=6, k=1, s=-1)

    def test_column_counts(self):
        spec = DftSpec(n=100, k=3, s=16)
        assert spec.total_columns == 23

    def test_presets_are_valid_specs(self):
        for name, (n, k) in DATASET_PRESETS.items():
            spec = DftSpec(n=n, k=k)
            assert spec.total_columns == 2 * k + 1, name
        assert DATASET_PRESETS["mimic3"] == (8921, 80)
        assert DATASET_PRESETS["bioasq"] == (20000, 50)
        assert DATASET_PRESETS["openimages"] == (8933, 50)


class TestBuildDftMatrix:
    def test_first_column_is_constant(self):
        w = build_dft_matrix(6, 1)
        assert np.allclose(w.entries[:, 0], 1.0 / math.sqrt(6.0), atol=1e-15)

    def test_row_norms(self):
        for n, k in ((6, 1), (16, 3), (101, 3)):
            w = build_dft_matrix(n, k)
            expected = math.sqrt((2 * k + 1) / n)
            assert np.max(np.abs(w.row_norms - expected)) < 1e-12

    def test_columns_follow_the_circle(self):
        n, k = 8, 2
        w = build_dft_matrix(n, k)
        t = 2.0 * np.pi * np.arange(n) / n
        amp = math.sqrt(2.0 / n)
        assert np.allclose(w.entries[:, 1], amp * np.cos(t))
        assert np.allclose(w.entries[:, 2], amp * np.sin(t))
        assert np.allclose(w.entries[:, 3], amp * np.cos(2 * t))
        assert np.allclose(w.entries[:, 4], amp * np.sin(2 * t))

    def test_columns_are_orthonormal(self):
        for n, k in ((6, 1), (16, 3), (101, 3), (512, 8)):
            w = build_dft_matrix(n, k)
            gram = w.entries.T @ w.entries
            assert np.max(np.abs(gram - np.eye(2 * k + 1))) < 1e-12

    def test_dataset_scale_shape(self):
        w = build_dft_matrix(8921, 80)
        assert (w.n, w.d) == (8921, 161)
        assert w.provenance.kind == "dft"
        assert w.provenance.k == 80

    def test_minor_signs_uniform(self):
        for n in range(4, 15):
            for k in range(1, (n - 1) // 2 + 1):
                if 2 * k + 1 >= n:
                    continue
                status = gr_plus_status(build_dft_matrix(n, k))
                assert status.verdict is GrVerdict.UNIFORM_POSITIVE, (n, k)

    def test_squared_minors_sum_to_one(self):
        # Orthonormal columns: sum of squared maximal minors is
        # det(W^T W) = 1.
        for n, k in ((6, 1), (10, 2), (14, 3)):
            w = build_dft_matrix(n, k)
            total = sum(det**2 for _, det in maximal_minors(w))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_too_many_frequencies(self):
        with pytest.raises(ValueError):
            build_dft_matrix(6, 3)

    @pytest.mark.parametrize(
        "n, k, row_step", [(6, 1, 1), (20, 4, 1), (500, 10, 1), (8921, 80, 97)]
    )
    def test_entries_within_the_error_bound(self, n, k, row_step):
        mpmath = pytest.importorskip("mpmath")
        w = build_dft_matrix(n, k).entries
        bound = dft_entry_error_bound(n, k)
        with mpmath.workdps(50):
            amp = mpmath.sqrt(mpmath.mpf(2) / n)
            for i in range(0, n, row_step):
                t = 2 * mpmath.pi * i / n
                exact = [1 / mpmath.sqrt(n)]
                for freq in range(1, k + 1):
                    exact += [amp * mpmath.cos(freq * t), amp * mpmath.sin(freq * t)]
                for j, value in enumerate(exact):
                    assert abs(mpmath.mpf(float(w[i, j])) - value) <= bound, (i, j)


class TestAugmentSlack:
    def test_zero_slack_returns_the_same_object(self):
        w = build_dft_matrix(6, 1)
        assert augment_slack(w, 0, seed=3) is w

    def test_shapes_and_prefix_bytes(self):
        w = build_dft_matrix(100, 1)
        aug = augment_slack(w, 16, seed=0)
        assert (aug.n, aug.d) == (100, 19)
        assert aug.entries[:, :3].tobytes() == w.entries.tobytes()

    def test_provenance_records_slack(self):
        aug = augment_slack(build_dft_matrix(12, 2), 4, seed=7)
        assert aug.provenance.kind == "dft+slack"
        assert aug.provenance.k == 2
        assert aug.provenance.s == 4
        assert aug.provenance.seed == 7

    def test_slack_on_a_slacked_layer_is_random(self):
        # Slack on slack has no (k, s, seed) that rebuilds it: the 12
        # columns here are not the 2k+1+s = 9 that dft+slack would claim.
        once = augment_slack(build_dft_matrix(12, 2), 3, seed=1)
        twice = augment_slack(once, 4, seed=2)
        assert twice.d == 12
        assert twice.provenance == Provenance(kind="random", seed=2)

    def test_random_base_stays_random(self):
        rng = np.random.default_rng(0)
        w = WeightMatrix(rng.standard_normal((8, 2)))
        aug = augment_slack(w, 3, seed=1)
        assert aug.provenance.kind == "random"
        assert (aug.n, aug.d) == (8, 5)

    def test_block_is_seeded_and_scaled(self):
        a = slack_block(50, 4, seed=5)
        b = slack_block(50, 4, seed=5)
        c = slack_block(50, 4, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # std 1/sqrt(n): loose two-sided sanity check on the sample std
        assert 0.5 / math.sqrt(50) < np.std(a) < 2.0 / math.sqrt(50)

    def test_build_layer_composes(self):
        spec = DftSpec(n=20, k=2, s=3, seed=9)
        w = build_layer(spec)
        assert (w.n, w.d) == (20, 8)
        direct = augment_slack(build_dft_matrix(20, 2), 3, 9)
        assert np.array_equal(w.entries, direct.entries)


class TestLogits:
    def test_direct_identity(self):
        w = WeightMatrix(np.eye(3))
        assert np.allclose(logits_direct(w, np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_direct_constant_direction(self):
        w = build_dft_matrix(6, 1)
        z = logits_direct(w, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(z, 1.0 / math.sqrt(6.0))

    def test_direct_zero(self):
        w = build_dft_matrix(6, 1)
        assert np.allclose(logits_direct(w, np.zeros(3)), 0.0)

    def test_direct_dimension_check(self):
        with pytest.raises(ValueError):
            logits_direct(build_dft_matrix(6, 1), np.zeros(4))

    def test_fft_dc_only(self):
        spec = DftSpec(n=10, k=2)
        z = logits_fft(spec, None, np.array([1.0, 0, 0, 0, 0]))
        assert np.allclose(z, 1.0 / math.sqrt(10.0), atol=1e-14)

    def test_fft_pure_cosine_by_hand(self):
        # Coefficient sqrt(6/2) on the first cosine column gives exactly
        # cos(t_i) = (1, 1/2, -1/2, -1, -1/2, 1/2).
        spec = DftSpec(n=6, k=1)
        z = logits_fft(spec, None, np.array([0.0, math.sqrt(3.0), 0.0]))
        assert np.allclose(z, [1.0, 0.5, -0.5, -1.0, -0.5, 0.5], atol=1e-12)

    def test_fft_matches_direct_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(4, 257))
            k = int(rng.integers(1, min(8, (n - 1) // 2) + 1))
            s = int(rng.integers(0, 6))
            spec = DftSpec(n=n, k=k, s=s, seed=int(rng.integers(0, 1000)))
            w = build_layer(spec)
            x = rng.standard_normal(spec.total_columns)
            direct = logits_direct(w, x)
            fast = logits_fft(spec, None, x)
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(direct - fast)) / scale < 1e-9

    def test_fft_accepts_precomputed_slack(self):
        spec = DftSpec(n=16, k=3, s=5, seed=7)
        block = slack_block(16, 5, 7)
        x = np.arange(spec.total_columns, dtype=np.float64)
        assert np.allclose(
            logits_fft(spec, block, x), logits_fft(spec, None, x), atol=1e-12
        )

    def test_fft_rejects_bad_shapes(self):
        spec = DftSpec(n=16, k=3, s=5, seed=7)
        with pytest.raises(ValueError):
            logits_fft(spec, None, np.zeros(7))
        with pytest.raises(ValueError):
            logits_fft(spec, np.zeros((16, 4)), np.zeros(12))


class TestBiasInit:
    def test_shape_and_zero_tail(self):
        vec = bias_init(10, 3)
        assert vec.shape == (7,)
        assert np.all(vec[1:] == 0.0)

    def test_balanced_case_is_zero(self):
        assert bias_init(10, 5)[0] == 0.0
        assert bias_init(160, 80)[0] == 0.0

    def test_first_entry_value_against_high_precision_log(self):
        from fractions import Fraction
        from decimal import Decimal, getcontext

        getcontext().prec = 50
        n, k = 8921, 80
        odds = Fraction(k, n - k)
        want = Decimal(n).sqrt() * (
            Decimal(odds.numerator).ln() - Decimal(odds.denominator).ln()
        )
        got = bias_init(n, k)[0]
        assert got == pytest.approx(float(want), rel=1e-14)

    def test_every_sigmoid_starts_at_the_target_rate(self):
        for n, k in ((50, 3), (101, 7)):
            w = build_dft_matrix(n, k)
            z = logits_direct(w, bias_init(n, k))
            sig = 1.0 / (1.0 + np.exp(-z))
            assert np.max(np.abs(sig - k / n)) < 1e-12

    def test_validates_range(self):
        with pytest.raises(ValueError):
            bias_init(5, 0)
        with pytest.raises(ValueError):
            bias_init(5, 5)
