"""The internal rotation kernels, and the model's one check of its
rotation_entries block."""

import base64
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rbig import (
    DimensionMismatch,
    FitConfig,
    GaussModel,
    RankDeficientWarning,
    fit,
    flow,
)
from rbig.rotation import fit_pca_rotation, random_haar_rotation, rotate, rotate_inverse
from rbig.synth import equicorrelated_gaussian


@pytest.fixture(scope="module")
def model2d():
    return fit(equicorrelated_gaussian(2000, 2, 0.8, 3), FitConfig(seed=4))


def document(model, entries):
    """The model's document with its rotation_entries block replaced."""
    doc = model.to_dict()
    doc["rotation_entries"] = base64.b64encode(entries.astype("<f8").tobytes()).decode()
    return doc


def check_orthogonal(m):
    assert np.max(np.abs(m.T @ m - np.eye(m.shape[0]))) <= 1e-10
    assert abs(abs(np.linalg.det(m)) - 1.0) <= 1e-8


class TestPcaRotation:
    def test_diagonal_covariance_principal_axis(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((100000, 2)) * np.array([2.0, 1.0])
        r, deficient = fit_pca_rotation(data)
        check_orthogonal(r)
        assert not deficient
        assert abs(abs(r[0, 0]) - 1.0) <= 0.02
        assert abs(r[0, 1]) <= 0.02

    def test_white_data_gives_valid_rotation(self):
        rng = np.random.default_rng(1)
        r, _ = fit_pca_rotation(rng.standard_normal((50000, 3)))
        check_orthogonal(r)

    def test_rotated_anisotropic_covariance(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((200000, 2)) * np.array([3.0, 1.0])
        theta = np.pi / 4
        rot45 = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        data = base @ rot45.T
        r, _ = fit_pca_rotation(data)
        lead = r[0]
        target = np.array([1.0, 1.0]) / math.sqrt(2.0)
        angle = math.degrees(math.acos(min(1.0, abs(float(lead @ target)))))
        assert angle <= 2.0

    def test_deterministic_for_same_data(self):
        data = np.random.default_rng(3).standard_normal((5000, 4))
        r1, _ = fit_pca_rotation(data)
        r2, _ = fit_pca_rotation(data)
        assert np.array_equal(r1, r2)

    def test_sign_convention(self):
        data = np.random.default_rng(4).standard_normal((10000, 5)) * np.arange(1, 6)
        r, _ = fit_pca_rotation(data)
        for row in r:
            assert row[np.argmax(np.abs(row))] > 0

    def test_decorrelates_training_data(self):
        rng = np.random.default_rng(5)
        chol = np.linalg.cholesky([[1.0, 0.7], [0.7, 1.0]])
        data = rng.standard_normal((100000, 2)) @ chol.T
        r, _ = fit_pca_rotation(data)
        rotated = rotate(r, data)
        corr = np.corrcoef(rotated.T)
        assert abs(corr[0, 1]) <= 0.02

    def test_rank_deficient_warns(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(1000)
        data = np.column_stack([col, col])
        with pytest.warns(RankDeficientWarning):
            r, deficient = fit_pca_rotation(data)
        assert deficient
        check_orthogonal(r)


class TestRandomHaarRotation:
    def test_dim_one_is_sign(self):
        for seed in (0, 1, 2, 99):
            r = random_haar_rotation(1, seed)
            assert r.shape == (1, 1)
            assert abs(abs(r[0, 0]) - 1.0) <= 1e-12

    def test_seed_determinism(self):
        a = random_haar_rotation(5, 42)
        b = random_haar_rotation(5, 42)
        assert np.array_equal(a, b)
        c = random_haar_rotation(5, 43)
        assert not np.array_equal(a, c)

    def test_orthogonality(self):
        for seed in range(20):
            check_orthogonal(random_haar_rotation(4, seed))

    def test_entry_mean_near_zero(self):
        # Haar symmetry: Monte Carlo mean of entries is zero
        total = 0.0
        n_seeds = 10000
        for seed in range(n_seeds):
            total += random_haar_rotation(3, seed).sum()
        assert abs(total / (9 * n_seeds)) <= 0.02


class TestRotate:
    def test_identity(self):
        r = np.eye(3)
        data = np.random.default_rng(7).standard_normal((100, 3))
        assert np.array_equal(rotate(r, data), data)

    def test_roundtrip(self):
        r = random_haar_rotation(6, 11)
        data = np.random.default_rng(8).standard_normal((500, 6))
        back = rotate_inverse(r, rotate(r, data))
        assert np.max(np.abs(back - data)) <= 1e-12

    def test_dimension_mismatch(self, monkeypatch):
        # The kernels check no shapes: a model with 3 x 3 rotations refuses
        # a query of other width before either kernel is reached.
        model = fit(equicorrelated_gaussian(500, 3, 0.5, 0), FitConfig(seed=0))
        assert model.rotation_entries.shape[1:] == (3, 3)

        def unreachable(*args):
            raise AssertionError("a rotation kernel saw mismatched data")

        monkeypatch.setattr(flow, "rotate", unreachable)
        monkeypatch.setattr(flow, "rotate_inverse", unreachable)
        with pytest.raises(DimensionMismatch):
            model.transform(np.zeros((10, 4)))
        with pytest.raises(DimensionMismatch):
            model.inverse(np.zeros((10, 2)))

    def test_ninety_degrees(self):
        r = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = rotate(r, np.array([[1.0, 0.0]]))
        assert np.allclose(out, [[0.0, 1.0]])

    def test_norm_preserved(self):
        r = random_haar_rotation(4, 21)
        data = np.random.default_rng(9).standard_normal((1000, 4))
        before = np.linalg.norm(data, axis=1)
        after = np.linalg.norm(rotate(r, data), axis=1)
        assert np.max(np.abs(after - before) / before) <= 1e-10

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_output_is_column_contiguous(self, order):
        r = random_haar_rotation(7, 12)
        rows = np.random.default_rng(10).standard_normal((300, 7))
        data = np.asarray(rows, order=order)
        pairs = (
            (rotate(r, data), data @ r.T),
            (rotate_inverse(r, data), data @ r),
        )
        for out, ref in pairs:
            assert out.shape == data.shape
            assert out.flags.f_contiguous
            assert np.max(np.abs(out - ref)) <= 1e-12

    # A model is built from its blocks, so these reject a bad rotation where
    # every rotation is checked: when a model or a model document is built.
    def test_construction_rejects_non_orthogonal(self, model2d):
        entries = np.array(model2d.rotation_entries)
        entries[0] = [[1.0, 0.5], [0.0, 1.0]]
        message = "layer 0 rotation: matrix is not orthogonal within tolerance"
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(model2d, rotation_entries=entries)
        with pytest.raises(ValueError, match=f"^malformed model document: {message}$"):
            GaussModel.from_dict(document(model2d, entries))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_construction_rejects_non_finite(self, model2d, bad):
        # Checked before det, which warns on NaN (an error in this suite).
        entries = np.array(model2d.rotation_entries)
        entries[1, 0, 1] = bad
        message = f"rotation_entries[1][0][1] must be a finite number, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(model2d, rotation_entries=entries)
        with pytest.raises(
            ValueError, match=f"^malformed model document: {re.escape(message)}$"
        ):
            GaussModel.from_dict(document(model2d, entries))


def fitted_block(d):
    """A block of the rotations fit makes at ``d`` columns: PCA rotations of
    three samples (N(0, I), correlated, heavy-tailed) and five Haar ones."""
    rng = np.random.default_rng(d)
    n = 4 * d + 50
    white = rng.standard_normal((n, d))
    samples = (white, white @ rng.standard_normal((d, d)), white**3)
    pca = [fit_pca_rotation(x)[0] for x in samples]
    return np.stack(pca + [random_haar_rotation(d, seed) for seed in range(5)])


class TestRotationBlockCheck:
    @pytest.mark.parametrize("d", [1, 2, 49, 200])
    def test_accepts_every_fitted_block(self, d):
        flow._check_rotations(fitted_block(d))

    @pytest.mark.parametrize("d", [1, 2, 49])
    @pytest.mark.parametrize("layer", [0, 4, 7])
    def test_one_entry_off_by_1e9_names_its_layer(self, d, layer):
        block = fitted_block(d)
        block[layer, d // 2, d - 1] += 1e-9
        message = f"^layer {layer} rotation: matrix is not orthogonal within tolerance$"
        with pytest.raises(ValueError, match=message):
            flow._check_rotations(block)

    def test_determinant_off_unit_magnitude_named(self):
        # Each Gram entry is within 1e-10 of the identity's, but the
        # determinant is (1 + 4e-11)**300, about 1 + 1.2e-8.
        block = np.stack([np.eye(300), (1 + 4e-11) * np.eye(300)])
        message = "^layer 1 rotation: matrix determinant is not of unit magnitude$"
        with pytest.raises(ValueError, match=message):
            flow._check_rotations(block)
