import json
import math
import re
import reprlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

    @pytest.mark.parametrize(
        "field, value",
        [("spatial", 2.5), ("spatial", True), ("temporal", 0), ("stride_space", -1),
         ("stride_time", 1.0), ("temporal", "2")],
    )
    def test_patch_config_names_bad_field(self, field, value):
        # spatial=2.5 would give dim 6.25; True would pass for 1.
        message = f"{field} must be an integer >= 1, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PatchConfig(**{"spatial": 2, "temporal": 1, field: value})

    def test_patch_config_accepts_numpy_integers(self):
        cfg = PatchConfig(spatial=np.int64(3), temporal=np.int32(2))
        assert cfg.dim == 18
        assert type(cfg.spatial) is type(cfg.temporal) is int


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

    @pytest.mark.parametrize("lags", [2.5, 2.0, True, False, 0, -1, "2", None])
    def test_non_integer_or_small_lags_rejected(self, lags):
        message = f"^lags must be an integer >= 1, got {re.escape(repr(lags))}$"
        with pytest.raises(ValueError, match=message):
            lag_embed(np.arange(10.0), lags)

    def test_numpy_integer_lags_accepted(self):
        x = np.arange(5.0)
        assert np.array_equal(lag_embed(x, np.int64(2)), lag_embed(x, 2))

    def test_iid_embedding_entropy_matches_marginal(self):
        x = np.random.default_rng(5).standard_normal(60000)
        embedded = lag_embed(x, 3)
        report = entropy(embedded, FitConfig(seed=5))
        per_feature = report.value_bits / 3
        assert per_feature == pytest.approx(GAUSS_ENTROPY_BITS, abs=0.1)


GRID_META_RULE = "grid_meta must be null or an object of GridMeta fields"

# +-NaN, +-inf, +-0.0 and subnormals, and any 64-bit pattern: NaN payloads too.
cube_cells = st.one_of(
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-308]),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)
grid_meta_fields = st.none() | st.floats(allow_nan=False, allow_infinity=False)


class TestCubeIO:
    def test_roundtrip_float64(self, tmp_path):
        cube = ar1_cube(10, 6, 5, phi=0.5, seed=6)
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        back = load_cube(path)
        assert np.array_equal(back.values, cube.values)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        values=hnp.arrays(np.float64, st.tuples(*[st.integers(1, 4)] * 3), elements=cube_cells),
        finite=st.floats(allow_nan=False, allow_infinity=False),
        meta=st.none() | st.builds(GridMeta, *[grid_meta_fields] * 5),
    )
    def test_roundtrip_keeps_every_bit(self, tmp_path, values, finite, meta):
        values[0, 0, 0] = finite  # a cube holds at least one finite value
        cube = DataCube(values, grid_meta=meta)
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        back = load_cube(path)
        assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))
        assert np.array_equal(np.isnan(back.values), np.isnan(values))
        assert np.array_equal(np.signbit(back.values), np.signbit(values))
        assert back.grid_meta == meta

    def test_save_writes_float64_with_nan_and_no_fill(self, tmp_path):
        values = np.random.default_rng(7).standard_normal((4, 3, 3))
        values[2, 1, 0] = np.nan
        path = tmp_path / "cube.bin"
        save_cube(path, DataCube(values))
        assert np.array_equal(np.fromfile(path, "<f8"), values.ravel(), equal_nan=True)
        sidecar = json.loads((tmp_path / "cube.bin.json").read_text())
        assert sidecar == {"shape": [4, 3, 3], "dtype": "float64", "fill_value": None,
                           "order": "C", "grid_meta": None}

    def test_roundtrip_float32_with_fill(self, tmp_path, outside_cube):
        values = np.random.default_rng(7).standard_normal((4, 3, 3))
        values[2, 1, 0] = np.nan
        path = tmp_path / "cube32.bin"
        outside_cube(path, values, "float32", -9999.0, {"lat_origin": 40, "lat_step": 0.25})
        back = load_cube(path)
        assert np.isnan(back.values[2, 1, 0])
        finite = ~np.isnan(values)
        assert np.allclose(back.values[finite], values[finite], atol=1e-6)
        assert back.grid_meta == GridMeta(lat_origin=40.0, lat_step=0.25)
        assert type(back.grid_meta.lat_origin) is float

    def test_float64_fill_masked_in_the_loaded_payload(self, tmp_path, outside_cube):
        # The float64 payload is loaded without a copy and masked in place.
        values = np.random.default_rng(8).standard_normal((4, 3, 3))
        values[0, 0, 0] = values[3, 2, 1] = np.nan
        path = tmp_path / "cube64.bin"
        outside_cube(path, values, "float64", -9999.0)
        back = load_cube(path)
        assert np.array_equal(back.values, values, equal_nan=True)
        assert back.values.dtype == np.float64 and back.values.flags.writeable

    @pytest.mark.parametrize("fill", [0.1, 1e20])
    def test_roundtrip_float32_fill_not_representable(self, tmp_path, outside_cube, fill):
        # float32(fill) != fill: the missing-value mask must be built in the
        # stored dtype, not after up-casting.
        values = np.random.default_rng(9).standard_normal((4, 3, 3))
        values[1, 2, 2] = values[3, 0, 1] = np.nan
        path = tmp_path / "cube32.bin"
        outside_cube(path, values, "float32", fill)
        back = load_cube(path)
        assert np.array_equal(np.isnan(back.values), np.isnan(values))
        finite = ~np.isnan(values)
        assert np.array_equal(back.values[finite], values[finite].astype(np.float32))

    @pytest.mark.parametrize("value", [math.nan, -math.inf, True, "40"],
                             ids=["nan", "inf", "bool", "str"])
    def test_grid_meta_refuses_non_finite_or_non_number(self, value):
        message = f"lat_step must be a finite number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridMeta(lat_origin=40.0, lat_step=value)

    def test_grid_meta_stores_numpy_scalars_as_float(self, tmp_path):
        meta = GridMeta(lat_origin=np.float32(40.0), time_step_days=np.int16(8))
        assert (meta.lat_origin, meta.time_step_days) == (40.0, 8.0)
        assert type(meta.lat_origin) is type(meta.time_step_days) is float
        path = tmp_path / "cube.bin"
        save_cube(path, DataCube(np.ones((2, 2, 2)), grid_meta=meta))
        assert load_cube(path).grid_meta == meta

    def test_sidecar_encoded_before_any_file_is_written(self, tmp_path):
        meta = GridMeta()
        object.__setattr__(meta, "lat_origin", np.float32(40.0))  # past the field check
        cube = DataCube(np.random.default_rng(13).standard_normal((4, 3, 3)), grid_meta=meta)
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
            ("shape", [2, 3, 5], "shape [2, 3, 5] holds 240 bytes of float64, the payload 288"),
            # true would mask every 1.0 cell.
            ("fill_value", True, "fill_value must be a finite number, got True"),
            ("fill_value", "-9999", "fill_value must be a finite number, got '-9999'"),
            ("fill_value", 10**400,
             f"fill_value must be a finite number, got {reprlib.repr(10**400)}"),
            # json.load reads NaN and Infinity; neither can mark a cell.
            ("fill_value", math.nan, "fill_value must be a finite number, got nan"),
            ("fill_value", math.inf, "fill_value must be a finite number, got inf"),
            ("grid_meta", [1, 2], f"{GRID_META_RULE}, got [1, 2]"),
            ("grid_meta", {"foo": 1}, f"{GRID_META_RULE}, got {{'foo': 1}}"),
            ("grid_meta", {"lat_origin": "north"},
             "grid_meta lat_origin must be a finite number, got 'north'"),
        ],
        ids=[
            "int64-dtype", "fortran-order", "no-shape", "negative-size", "payload-size",
            "bool-fill", "string-fill", "huge-int-fill", "nan-fill", "inf-fill", "list-grid-meta", "foreign-grid-meta-key",
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
        assert err == f"error: {path}: cube sidecar {message}\n"

    def test_payload_with_trailing_bytes_rejected(self, tmp_path, capsys):
        # np.fromfile drops a partial item: 291 bytes would load as 36 values.
        path = tmp_path / "cube.bin"
        save_cube(path, ar1_cube(4, 3, 3, phi=0.5, seed=11))
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 3)
        message = "cube sidecar shape [4, 3, 3] holds 288 bytes of float64, the payload 291"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_cube(path)
        code = main(["fit", "--input", str(path), "--spatial", "1", "--temporal", "1",
                     "--out", str(tmp_path / "m.json")])
        assert (code, capsys.readouterr().err) == (1, f"error: {path}: {message}\n")

    def test_fill_beyond_payload_dtype_rejected_on_load(self, tmp_path, outside_cube):
        # In float32 it would round to inf and mask every inf cell.
        path = tmp_path / "cube.bin"
        outside_cube(path, ar1_cube(4, 3, 3, phi=0.5, seed=11).values, "float32", -1.0)
        sidecar = tmp_path / "cube.bin.json"
        sidecar.write_text(sidecar.read_text().replace("-1.0", "1e39"))
        message = "cube sidecar fill_value = 1e+39 is beyond the float32 range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_cube(path)

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

    @pytest.mark.parametrize("text", ["a,b\n", "a,b", "", "a,b\n\n\n"],
                             ids=["header", "header-no-newline", "empty-file", "blank-rows"])
    def test_csv_without_data_rows_rejected(self, tmp_path, text):
        # numpy's "input contained no data" warning would fail this test.
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^no data rows after the header$"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n3,4,5\n", "line 3 has 3 columns, line 2 has 2"),
            ("a,b\n\n1,2\n# note\n3\n", "line 5 has 1 column, line 3 has 2"),
            ("a,b\r\n1,2 # x,y\r\n3,4\r\n  # c\r\n", "line 4 has 1 column, line 2 has 2"),
        ],
        ids=["longer", "after-blank-and-comment", "crlf-whitespace-row"],
    )
    def test_ragged_csv_names_the_line(self, tmp_path, text, message):
        # Blank and comment-only lines are not rows, but a whitespace one is.
        path = tmp_path / "rag.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n3,x\n", "line 3, column 2: could not convert string 'x' to float64"),
            ("a,b\n# c\n1,2\n\n3,4\n5,\n",
             "line 6, column 2: could not convert string '' to float64"),
            # Python's float reads both; np.loadtxt reads neither.
            ("a,b\n1,2\n1_0,3\n", "line 3, column 1: could not convert string '1_0' to float64"),
            ("a,b\n1,\u0663\n", "line 2, column 2: could not convert string '\u0663' to float64"),
            # The first bad line, ragged or not.
            ("a,b\n1,2\n3\n4,y\n", "line 3 has 1 column, line 2 has 2"),
            ("a,b\n1,2\n4,y\n3\n", "line 3, column 2: could not convert string 'y' to float64"),
        ],
        ids=["letter", "empty-after-comment-and-blank", "underscore", "non-ascii-digit",
             "ragged-first", "cell-first"],
    )
    def test_unreadable_cell_names_the_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == message

    def test_csv_numbers_with_spaces_and_specials_read(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,b\n 1 , 2e3\n-inf,nan\n")
        back = load_csv(path)
        assert np.array_equal(back, [[1.0, 2e3], [-np.inf, np.nan]], equal_nan=True)


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
