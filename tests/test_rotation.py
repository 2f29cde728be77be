import math
import re

import numpy as np
import pytest

from rbig import (
    DimensionMismatch,
    RankDeficientWarning,
    RotationMatrix,
    fit_pca_rotation,
    random_haar_rotation,
    rotate,
    rotate_inverse,
)


def check_orthogonal(m):
    assert np.max(np.abs(m.T @ m - np.eye(m.shape[0]))) <= 1e-10
    assert abs(abs(np.linalg.det(m)) - 1.0) <= 1e-8


class TestPcaRotation:
    def test_diagonal_covariance_principal_axis(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((100000, 2)) * np.array([2.0, 1.0])
        r = fit_pca_rotation(data)
        check_orthogonal(r.entries)
        assert abs(abs(r.entries[0, 0]) - 1.0) <= 0.02
        assert abs(r.entries[0, 1]) <= 0.02

    def test_white_data_gives_valid_rotation(self):
        rng = np.random.default_rng(1)
        r = fit_pca_rotation(rng.standard_normal((50000, 3)))
        check_orthogonal(r.entries)

    def test_rotated_anisotropic_covariance(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((200000, 2)) * np.array([3.0, 1.0])
        theta = np.pi / 4
        rot45 = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        data = base @ rot45.T
        r = fit_pca_rotation(data)
        lead = r.entries[0]
        target = np.array([1.0, 1.0]) / math.sqrt(2.0)
        angle = math.degrees(math.acos(min(1.0, abs(float(lead @ target)))))
        assert angle <= 2.0

    def test_deterministic_for_same_data(self):
        data = np.random.default_rng(3).standard_normal((5000, 4))
        r1 = fit_pca_rotation(data)
        r2 = fit_pca_rotation(data)
        assert np.array_equal(r1.entries, r2.entries)

    def test_sign_convention(self):
        data = np.random.default_rng(4).standard_normal((10000, 5)) * np.arange(1, 6)
        r = fit_pca_rotation(data)
        for row in r.entries:
            assert row[np.argmax(np.abs(row))] > 0

    def test_decorrelates_training_data(self):
        rng = np.random.default_rng(5)
        chol = np.linalg.cholesky([[1.0, 0.7], [0.7, 1.0]])
        data = rng.standard_normal((100000, 2)) @ chol.T
        r = fit_pca_rotation(data)
        rotated = rotate(r, data)
        corr = np.corrcoef(rotated.T)
        assert abs(corr[0, 1]) <= 0.02

    def test_rank_deficient_warns(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(1000)
        data = np.column_stack([col, col])
        with pytest.warns(RankDeficientWarning):
            r = fit_pca_rotation(data)
        assert r.rank_deficient


class TestRandomHaarRotation:
    def test_dim_one_is_sign(self):
        for seed in (0, 1, 2, 99):
            r = random_haar_rotation(1, seed)
            assert r.entries.shape == (1, 1)
            assert abs(abs(r.entries[0, 0]) - 1.0) <= 1e-12

    def test_seed_determinism(self):
        a = random_haar_rotation(5, 42)
        b = random_haar_rotation(5, 42)
        assert np.array_equal(a.entries, b.entries)
        c = random_haar_rotation(5, 43)
        assert not np.array_equal(a.entries, c.entries)

    def test_orthogonality(self):
        for seed in range(20):
            check_orthogonal(random_haar_rotation(4, seed).entries)

    def test_entry_mean_near_zero(self):
        # Haar symmetry: Monte Carlo mean of entries is zero
        total = 0.0
        n_seeds = 10000
        for seed in range(n_seeds):
            total += random_haar_rotation(3, seed).entries.sum()
        assert abs(total / (9 * n_seeds)) <= 0.02


class TestRotate:
    def test_identity(self):
        r = RotationMatrix(entries=np.eye(3))
        data = np.random.default_rng(7).standard_normal((100, 3))
        assert np.array_equal(rotate(r, data), data)

    def test_roundtrip(self):
        r = random_haar_rotation(6, 11)
        data = np.random.default_rng(8).standard_normal((500, 6))
        back = rotate_inverse(r, rotate(r, data))
        assert np.max(np.abs(back - data)) <= 1e-12

    def test_ninety_degrees(self):
        r = RotationMatrix(entries=np.array([[0.0, -1.0], [1.0, 0.0]]))
        out = rotate(r, np.array([[1.0, 0.0]]))
        assert np.allclose(out, [[0.0, 1.0]])

    def test_norm_preserved(self):
        r = random_haar_rotation(4, 21)
        data = np.random.default_rng(9).standard_normal((1000, 4))
        before = np.linalg.norm(data, axis=1)
        after = np.linalg.norm(rotate(r, data), axis=1)
        assert np.max(np.abs(after - before) / before) <= 1e-10

    def test_dimension_mismatch(self):
        r = random_haar_rotation(3, 0)
        with pytest.raises(DimensionMismatch):
            rotate(r, np.zeros((10, 4)))
        with pytest.raises(DimensionMismatch):
            rotate_inverse(r, np.zeros((10, 2)))

    @pytest.mark.parametrize("apply", [rotate, rotate_inverse])
    @pytest.mark.parametrize(
        "shape", [(3,), (10, 4), (2, 5, 3)], ids=["one-row-1d", "wrong-columns", "3d"]
    )
    def test_mismatch_names_the_shape(self, apply, shape):
        # A 1-D row of D values is not "D columns": it names its shape.
        message = f"^data must be N x 3, got shape {re.escape(str(shape))}$"
        with pytest.raises(DimensionMismatch, match=message):
            apply(random_haar_rotation(3, 0), np.zeros(shape))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_output_is_column_contiguous(self, order):
        r = random_haar_rotation(7, 12)
        rows = np.random.default_rng(10).standard_normal((300, 7))
        data = np.asarray(rows, order=order)
        pairs = (
            (rotate(r, data), data @ r.entries.T),
            (rotate_inverse(r, data), data @ r.entries),
        )
        for out, ref in pairs:
            assert out.shape == data.shape
            assert out.flags.f_contiguous
            assert np.max(np.abs(out - ref)) <= 1e-12

    def test_construction_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            RotationMatrix(entries=np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_construction_rejects_non_finite(self, bad):
        # Checked before det, which warns on NaN (an error in this suite).
        with pytest.raises(ValueError, match="^rotation entries must be finite$"):
            RotationMatrix(entries=np.array([[bad, 0.0], [0.0, 1.0]]))
