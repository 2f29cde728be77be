import json
import math
import re
import reprlib

import numpy as np
import pytest

from rbig import (
    DataCube,
    FitConfig,
    GAUSS_ENTROPY_BITS,
    GridMeta,
    PatchConfig,
    PatchLargerThanCube,
    SeriesTooShort,
    entropy,
    extract_patches,
    lag_embed,
    load_csv,
    load_cube,
    patch_grid_shape,
    ratio_sweep_configs,
    save_csv,
    save_cube,
)
from rbig.cli import main
from rbig.synth import ar1_cube


def ar1_entropy_per_feature_bits(phi: float, tau: int) -> float:
    # Joint entropy of tau steps of a unit-variance AR(1) divided by tau:
    # H = 0.5*log2(2*pi*e) + 0.5*(tau-1)*log2(2*pi*e*(1-phi^2)) per patch.
    h = GAUSS_ENTROPY_BITS + 0.5 * (tau - 1) * math.log2(
        2 * math.pi * math.e * (1 - phi * phi)
    )
    return h / tau


class TestExtractPatches:
    def test_fully_spatial_counts(self):
        cube = DataCube(np.random.default_rng(0).standard_normal((46, 7, 7)))
        samples, anchors = extract_patches(cube, PatchConfig(spatial=7, temporal=1))
        assert samples.shape == (46, 49)
        assert anchors.shape == (46, 3)

    def test_fully_temporal_counts(self):
        cube = DataCube(np.random.default_rng(1).standard_normal((46, 7, 7)))
        samples, _ = extract_patches(cube, PatchConfig(spatial=1, temporal=46))
        assert samples.shape == (49, 46)

    def test_nan_dropping(self):
        values = np.random.default_rng(2).standard_normal((4, 5, 6))
        values[0, 0, 0] = np.nan
        cube = DataCube(values)
        samples, anchors = extract_patches(cube, PatchConfig(spatial=1, temporal=1))
        assert samples.shape == (4 * 5 * 6 - 1, 1)
        assert not np.isnan(samples).any()
        assert [0, 0, 0] not in anchors.tolist()

    def test_count_formula_with_strides(self):
        cube = DataCube(np.random.default_rng(4).standard_normal((20, 15, 17)))
        cfg = PatchConfig(spatial=3, temporal=4, stride_space=2, stride_time=3)
        samples, _ = extract_patches(cube, cfg)
        expected = ((20 - 4) // 3 + 1) * ((15 - 3) // 2 + 1) * ((17 - 3) // 2 + 1)
        assert samples.shape == (expected, 36)
        assert patch_grid_shape(cube.shape, cfg) == (6, 7, 8)

    def test_flattening_order_time_major(self):
        t, h, w = 3, 4, 4
        values = np.arange(t * h * w, dtype=float).reshape(t, h, w)
        cube = DataCube(values)
        cfg = PatchConfig(spatial=2, temporal=2)
        samples, anchors = extract_patches(cube, cfg)
        row = samples[0]
        rebuilt = row.reshape(2, 2, 2)
        assert np.array_equal(rebuilt, values[0:2, 0:2, 0:2])
        assert tuple(anchors[0]) == (0, 0, 0)

    @pytest.mark.parametrize(
        "shape, cfg, nan_fraction",
        [
            ((9, 12, 11), PatchConfig(spatial=3, temporal=2, stride_space=2, stride_time=3), 0.03),
            ((20, 15, 17), PatchConfig(spatial=4, temporal=3, stride_space=3, stride_time=2), 0.01),
            ((6, 8, 8), PatchConfig(spatial=2, temporal=4, stride_space=2, stride_time=1), 0.0),
            ((5, 5, 5), PatchConfig(spatial=5, temporal=5), 0.2),
        ],
        ids=["holes", "sparse-holes", "no-holes", "every-patch-dropped"],
    )
    def test_matches_reshape_then_mask(self, shape, cfg, nan_fraction):
        values = np.random.default_rng(14).standard_normal(shape)
        values[np.random.default_rng(15).random(shape) < nan_fraction] = np.nan
        cube = DataCube(values)
        samples, anchors = extract_patches(cube, cfg)
        # The former construction: copy every window, then mask the NaN rows.
        t, h, w = shape
        windows = np.lib.stride_tricks.sliding_window_view(
            values, (cfg.temporal, cfg.spatial, cfg.spatial)
        )[:: cfg.stride_time, :: cfg.stride_space, :: cfg.stride_space]
        every = windows.reshape(-1, cfg.dim)
        ts, rs, cs = np.meshgrid(
            np.arange(0, t - cfg.temporal + 1, cfg.stride_time),
            np.arange(0, h - cfg.spatial + 1, cfg.stride_space),
            np.arange(0, w - cfg.spatial + 1, cfg.stride_space),
            indexing="ij",
        )
        keep = ~np.isnan(every).any(axis=1)
        for got, want in [
            (samples, np.ascontiguousarray(every[keep])),
            (anchors, np.column_stack([ts.ravel(), rs.ravel(), cs.ravel()])[keep]),
        ]:
            assert got.flags.c_contiguous
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_patch_larger_than_cube(self):
        cube = DataCube(np.zeros((3, 4, 4)) + 1.0)
        with pytest.raises(PatchLargerThanCube):
            extract_patches(cube, PatchConfig(spatial=5, temporal=1))
        with pytest.raises(PatchLargerThanCube):
            extract_patches(cube, PatchConfig(spatial=1, temporal=4))


class TestRatioSweepConfigs:
    def test_budget_49_endpoints(self):
        configs = ratio_sweep_configs(49, n_ratios=5, t=46, h=64, w=64)
        pairs = [(c.spatial, c.temporal) for c in configs]
        assert (7, 1) in pairs
        assert (1, 46) in pairs
        ratios = [c.ratio for c in configs]
        assert ratios == sorted(ratios)
        assert ratios[0] == 0.0 and ratios[-1] == 1.0

    def test_budget_48_interior_mixture(self):
        configs = ratio_sweep_configs(48, n_ratios=7, t=46, h=64, w=64)
        pairs = [(c.spatial, c.temporal) for c in configs]
        assert (4, 3) in pairs

    def test_two_ratios_gives_exactly_endpoints(self):
        configs = ratio_sweep_configs(49, n_ratios=2, t=46, h=64, w=64)
        assert [(c.spatial, c.temporal) for c in configs] == [(7, 1), (1, 46)]

    def test_dimensionality_within_budget_window(self):
        configs = ratio_sweep_configs(36, n_ratios=6, t=50, h=32, w=32)
        for c in configs:
            if c.temporal == min(36, 50) and c.spatial == 1:
                continue  # temporal endpoint is capped, not filtered
            assert 0.8 * 36 <= c.dim <= 1.2 * 36

    def test_infeasible_budget(self):
        from rbig import InfeasibleBudget

        with pytest.raises(InfeasibleBudget):
            ratio_sweep_configs(49, n_ratios=3, t=1, h=64, w=64)


class TestLagEmbed:
    def test_basic_lags(self):
        out = lag_embed(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert np.array_equal(out, [[2.0, 1.0], [3.0, 2.0], [4.0, 3.0]])

    def test_identity_for_single_lag(self):
        x = np.array([5.0, 6.0, 7.0])
        assert np.array_equal(lag_embed(x, 1), x[:, None])

    def test_too_short_raises(self):
        with pytest.raises(SeriesTooShort):
            lag_embed(np.arange(3.0), 3)

    def test_iid_embedding_entropy_matches_marginal(self):
        x = np.random.default_rng(5).standard_normal(60000)
        embedded = lag_embed(x, 3)
        report = entropy(embedded, FitConfig(seed=5))
        per_feature = report.value_bits / 3
        assert per_feature == pytest.approx(GAUSS_ENTROPY_BITS, abs=0.1)


GRID_META_RULE = (
    "grid_meta must be null or an object of GridMeta fields, each a finite number or null"
)


class TestCubeIO:
    def test_roundtrip_float64(self, tmp_path):
        cube = ar1_cube(10, 6, 5, phi=0.5, seed=6)
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        back = load_cube(path)
        assert np.array_equal(back.values, cube.values)

    def test_roundtrip_float32_with_fill(self, tmp_path):
        values = np.random.default_rng(7).standard_normal((4, 3, 3))
        values[2, 1, 0] = np.nan
        cube = DataCube(values, grid_meta=GridMeta(lat_origin=40.0, lat_step=0.25))
        path = tmp_path / "cube32.bin"
        save_cube(path, cube, dtype="float32", fill_value=-9999.0)
        back = load_cube(path)
        assert np.isnan(back.values[2, 1, 0])
        finite = ~np.isnan(values)
        assert np.allclose(back.values[finite], values[finite], atol=1e-6)
        assert back.grid_meta.lat_origin == 40.0

    @pytest.mark.parametrize("fill", [0.1, 1e20])
    def test_roundtrip_float32_fill_not_representable(self, tmp_path, fill):
        # float32(fill) != fill: the missing-value mask must be built in the
        # stored dtype, not after up-casting.
        values = np.random.default_rng(9).standard_normal((4, 3, 3))
        values[1, 2, 2] = values[3, 0, 1] = np.nan
        path = tmp_path / "cube32.bin"
        save_cube(path, DataCube(values), dtype="float32", fill_value=fill)
        back = load_cube(path)
        assert np.array_equal(np.isnan(back.values), np.isnan(values))
        finite = ~np.isnan(values)
        assert np.array_equal(back.values[finite], values[finite].astype(np.float32))

    @pytest.mark.parametrize(
        "dtype, value, fill", [("float64", 5.0, 5.0), ("float32", 0.1000000001, 0.1)]
    )
    def test_fill_value_equal_to_data_raises(self, tmp_path, dtype, value, fill):
        # Loading would turn the data value into NaN along with the fill.
        values = np.random.default_rng(10).standard_normal((4, 3, 3))
        values[0, 0, 0] = np.nan
        values[1, 1, 1] = value
        path = tmp_path / "cube.bin"
        with pytest.raises(ValueError, match="fill_value"):
            save_cube(path, DataCube(values), dtype=dtype, fill_value=fill)
        assert not path.exists()

    @pytest.mark.parametrize("fill", [np.float32(-9999), np.int16(-9999)], ids=["float32", "int16"])
    def test_numpy_scalar_fill_value(self, tmp_path, fill):
        values = np.random.default_rng(12).standard_normal((4, 3, 3))
        values[2, 0, 1] = np.nan
        path = tmp_path / "cube32.bin"
        save_cube(path, DataCube(values), dtype="float32", fill_value=fill)
        sidecar = json.loads((tmp_path / "cube32.bin.json").read_text())
        assert sidecar["fill_value"] == -9999.0
        assert np.array_equal(np.isnan(load_cube(path).values), np.isnan(values))

    @pytest.mark.parametrize("fill", [True, "-9999", 1 + 2j], ids=["bool", "str", "complex"])
    def test_non_real_fill_value_rejected(self, tmp_path, fill):
        path = tmp_path / "cube.bin"
        with pytest.raises(ValueError, match="^fill_value must be a real number, got "):
            save_cube(path, ar1_cube(4, 3, 3, phi=0.5, seed=11), fill_value=fill)
        assert not path.exists()

    def test_fill_value_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "cube.bin"
        message = f"fill_value {reprlib.repr(10**400)} is beyond the float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_cube(path, ar1_cube(4, 3, 3, phi=0.5, seed=11), fill_value=10**400)
        assert not path.exists()

    def test_sidecar_encoded_before_any_file_is_written(self, tmp_path):
        cube = DataCube(
            np.random.default_rng(13).standard_normal((4, 3, 3)),
            grid_meta=GridMeta(lat_origin=np.float32(40.0)),
        )
        path = tmp_path / "cube.bin"
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_cube(path, cube)
        assert not path.exists()
        assert not (tmp_path / "cube.bin.json").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dtype", "int64", "dtype must be 'float32' or 'float64', got 'int64'"),
            ("order", "F", "order must be 'C', got 'F'"),
            ("shape", None, "shape must be a list of sizes, got None"),
            ("shape", [4, 3, -1], "shape must be a list of sizes, got [4, 3, -1]"),
            ("shape", [2, 3, 5], "shape [2, 3, 5] holds 30 values, the payload 36"),
            # true would mask every 1.0 cell.
            ("fill_value", True, "fill_value must be a real number, got True"),
            ("fill_value", "-9999", "fill_value must be a real number, got '-9999'"),
            ("fill_value", 10**400,
             f"fill_value {reprlib.repr(10**400)} is beyond the float range"),
            ("grid_meta", [1, 2], f"{GRID_META_RULE}, got [1, 2]"),
            ("grid_meta", {"foo": 1}, f"{GRID_META_RULE}, got {{'foo': 1}}"),
            ("grid_meta", {"lat_origin": "north"},
             f"{GRID_META_RULE}, got {{'lat_origin': 'north'}}"),
        ],
        ids=[
            "int64-dtype", "fortran-order", "no-shape", "negative-size", "payload-size",
            "bool-fill", "string-fill", "huge-int-fill", "list-grid-meta", "foreign-grid-meta-key",
            "string-lat-origin",
        ],
    )
    def test_foreign_sidecar_rejected(self, tmp_path, capsys, key, value, message):
        # Read as float64 in C order, such a file would load as other values.
        path = tmp_path / "cube.bin"
        save_cube(path, ar1_cube(4, 3, 3, phi=0.5, seed=11))
        sidecar = tmp_path / "cube.bin.json"
        doc = json.loads(sidecar.read_text())
        doc[key] = value
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_cube(path)
        code = main(["fit", "--input", str(path), "--spatial", "1", "--temporal", "1",
                     "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: cube sidecar {message}\n"

    def test_non_object_sidecar_rejected(self, tmp_path):
        path = tmp_path / "cube.bin"
        save_cube(path, ar1_cube(4, 3, 3, phi=0.5, seed=11))
        (tmp_path / "cube.bin.json").write_text("[]")
        with pytest.raises(ValueError, match="cube sidecar must be a JSON object"):
            load_cube(path)

    def test_csv_roundtrip(self, tmp_path):
        data = np.random.default_rng(8).standard_normal((50, 3))
        path = tmp_path / "data.csv"
        save_csv(path, data, ["a", "b", "c"])
        back = load_csv(path)
        assert np.array_equal(back, data)
        assert path.read_text().splitlines()[0] == "a,b,c"


class TestSweepEntropyProperty:
    def test_ar1_temporal_lower_than_spatial(self):
        cube = ar1_cube(46, 40, 40, phi=0.9, seed=9)
        config_t = FitConfig(seed=9, tol_delta_t=0.01 * 46, max_layers=30)
        samples_t, _ = extract_patches(cube, PatchConfig(spatial=1, temporal=46))
        h_temporal = entropy(samples_t, config_t).value_bits / 46

        config_s = FitConfig(seed=9, tol_delta_t=0.01 * 36, max_layers=30)
        samples_s, _ = extract_patches(
            cube, PatchConfig(spatial=6, temporal=1, stride_space=2)
        )
        h_spatial = entropy(samples_s, config_s).value_bits / 36

        oracle_t = ar1_entropy_per_feature_bits(0.9, 46)
        oracle_s = GAUSS_ENTROPY_BITS
        assert h_spatial - h_temporal >= 0.3
        assert h_temporal == pytest.approx(oracle_t, abs=0.2)
        assert h_spatial == pytest.approx(oracle_s, abs=0.2)
