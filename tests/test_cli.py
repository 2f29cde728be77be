import base64
import json
import math
import re

import numpy as np
import pytest

from rbig import DataCube, ITReport, fit, load_csv, load_cube, load_model, save_csv, save_cube
from rbig.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def gauss_csv(tmp_path, capsys):
    path = tmp_path / "gauss2d.csv"
    code, _, _ = run(
        capsys, "synth", "gauss", "--n", "20000", "--rho", "0.5", "--seed", "1",
        "--out", str(path),
    )
    assert code == 0
    return path


class TestSynth:
    def test_gauss_correlation(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code, _, _ = run(
            capsys, "synth", "gauss", "--rho", "0.5", "--n", "20000", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        data = load_csv(str(out))
        assert np.corrcoef(data.T)[0, 1] == pytest.approx(0.5, abs=0.02)

    def test_sine_contract(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(
            capsys, "synth", "sine", "--n", "10000", "--seed", "1", "--out", str(out)
        )
        assert code == 0
        data = load_csv(str(out))
        assert data.shape == (10000, 2)
        assert data[:, 0].min() >= 0.0 and data[:, 0].max() <= 2 * math.pi

    def test_gauss_with_correlation_matrix(self, tmp_path, capsys):
        from rbig import save_csv

        corr = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.5], [0.0, 0.5, 1.0]])
        corr_path = tmp_path / "corr.csv"
        save_csv(corr_path, corr)
        out = tmp_path / "g3.csv"
        code, _, _ = run(
            capsys, "synth", "gauss", "--n", "40000", "--corr", str(corr_path),
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        data = load_csv(str(out))
        assert np.allclose(np.corrcoef(data.T), corr, atol=0.02)

    def test_gauss_requires_rho_or_corr(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "gauss", "--n", "100", "--out", str(tmp_path / "g.csv")
        )
        assert code == 1
        assert "--rho or --corr" in err

    def test_seed_reproducibility_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "synth", "mixture", "--n", "5000", "--seed", "9",
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ar1_cube_written_with_sidecar(self, tmp_path, capsys):
        out = tmp_path / "cube.bin"
        code, _, _ = run(
            capsys, "synth", "ar1-cube", "--t", "10", "--height", "4", "--width", "5",
            "--phi", "0.9", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        cube = load_cube(str(out))
        assert cube.shape == (10, 4, 5)

    def test_run_record_written(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run(capsys, "synth", "gauss", "--rho", "0.2", "--n", "1000", "--out", str(out))
        record = json.loads((tmp_path / "g.csv.run.json").read_text())
        assert record["subcommand"] == "synth-gauss"
        assert record["outputs"] == [str(out)]
        assert "wall_time_s" in record and "version" in record


class TestFit:
    def test_fit_writes_model_and_trace(self, tmp_path, capsys, gauss_csv):
        out = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "fit", "--input", str(gauss_csv), "--rotation", "pca",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        trace = json.loads((tmp_path / "model.json.trace.json").read_text())
        assert trace["converged"] is True
        assert len(trace["delta_t"]) == trace["n_layers"]
        assert len(trace["non_gaussianity"]) == trace["n_layers"]

    def test_fit_deterministic_bytes(self, tmp_path, capsys, gauss_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run(
                capsys, "fit", "--input", str(gauss_csv), "--seed", "7",
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_constant_column_exit_1_names_column(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        data = np.random.default_rng(0).standard_normal((100, 3))
        data[:, 2] = 1.0
        from rbig import save_csv

        save_csv(path, data)
        code, _, err = run(
            capsys, "fit", "--input", str(path), "--out", str(tmp_path / "m.json")
        )
        assert code == 1
        assert "column 2" in err

    def test_unconverged_exit_2_model_still_written(self, tmp_path, capsys, gauss_csv):
        out = tmp_path / "model.json"
        code, _, err = run(
            capsys, "fit", "--input", str(gauss_csv), "--max-layers", "2",
            "--patience", "2", "--tol", "1e-9", "--out", str(out),
        )
        assert code == 2
        assert out.exists()
        assert "converge" in err

    def test_fit_on_cube_with_patch_flags(self, tmp_path, capsys):
        cube_path = tmp_path / "cube.bin"
        run(
            capsys, "synth", "ar1-cube", "--t", "30", "--height", "12", "--width", "12",
            "--phi", "0.5", "--seed", "3", "--out", str(cube_path),
        )
        out = tmp_path / "m.json"
        # tol is a total over dimensions; scale it for the 8-dim patches
        code, _, _ = run(
            capsys, "fit", "--input", str(cube_path), "--spatial", "2",
            "--temporal", "2", "--tol", "0.08", "--out", str(out),
        )
        assert code == 0

    def test_cube_without_patch_flags_exit_1(self, tmp_path, capsys):
        cube_path = tmp_path / "cube.bin"
        run(
            capsys, "synth", "ar1-cube", "--t", "10", "--height", "6", "--width", "6",
            "--phi", "0.2", "--seed", "4", "--out", str(cube_path),
        )
        code, _, err = run(
            capsys, "fit", "--input", str(cube_path), "--out", str(tmp_path / "m.json")
        )
        assert code == 1
        assert "--spatial" in err

    @pytest.mark.parametrize("flag", [["--tail-fraction", "0.1"], ["--clamp-eps", "1e-3"]])
    def test_removed_fit_flag_exit_1(self, tmp_path, capsys, gauss_csv, flag):
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "fit", "--input", str(gauss_csv), "--out", str(out), *flag)
        assert code == 1
        assert "unrecognized arguments: " + flag[0] in err
        assert not out.exists()


def edited(path, value):
    """Model-document edit setting the field at ``path`` to ``value``."""

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
        return doc

    return edit


def without(key):
    def edit(doc):
        del doc[key]
        return doc

    return edit


def decoded_edit(path, change):
    """Model-document edit applying ``change`` to the decoded array at ``path``."""

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        a = np.frombuffer(base64.b64decode(target[path[-1]]), dtype="<f8").copy()
        target[path[-1]] = base64.b64encode(change(a).tobytes()).decode("ascii")
        return doc

    return edit


def item(index, value):
    """Array change setting flat item ``index`` to ``value``."""

    def change(a):
        a[index] = value
        return a

    return change


# The test model: 500 x 2 rows, 3 layers, 22 bins, so knots_p is 3 x 2 x 25 and
# knots_p[0][1][3] is flat item 28.
KNOTS_P = ["knots_p"]


class TestTransformSample:
    def test_transform_output_shape(self, tmp_path, capsys, gauss_csv):
        model = tmp_path / "m.json"
        run(capsys, "fit", "--input", str(gauss_csv), "--out", str(model))
        out = tmp_path / "z.csv"
        code, _, _ = run(
            capsys, "transform", "--model", str(model), "--input", str(gauss_csv),
            "--out", str(out),
        )
        assert code == 0
        z = load_csv(str(out))
        assert z.shape == (20000, 3)  # z0, z1, logjac
        assert np.all(np.isfinite(z))

    def test_sample_deterministic(self, tmp_path, capsys, gauss_csv):
        model = tmp_path / "m.json"
        run(capsys, "fit", "--input", str(gauss_csv), "--out", str(model))
        a, b = tmp_path / "sa.csv", tmp_path / "sb.csv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "sample", "--model", str(model), "--n", "500", "--seed", "11",
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (without("n_layers"), "malformed model document: model field n_layers is missing"),
            (lambda doc: [doc], "not a serialized model document"),
            (edited(["clamp_eps"], None),
             "malformed model document: clamp_eps must be a number in (0, 0.5), got None"),
            (decoded_edit(KNOTS_P, lambda a: item(2, a[1])(a)),
             "malformed model document: layer 0 column 0: knot segment 1 "),
            (edited(["version"], 1), "unsupported model version: 1"),
            (edited(["version"], 2), "unsupported model version: 2"),
            (edited(["version"], 3), "unsupported model version: 3"),
            (edited(["version"], 4), "unsupported model version: 4"),
            (edited(["delta_t"], None),
             "malformed model document: delta_t must be the base64 of 3 float64 values"
             " (32 characters), got None"),
            (edited(["converged"], "yes"),
             "malformed model document: converged must be true or false, got 'yes'"),
            (edited(["resolved_bins"], None),
             "malformed model document: resolved_bins must be an integer >= 2, got None"),
            (edited(["resolved_bins"], float),
             "malformed model document: resolved_bins must be an integer >= 2, got 22.0"),
            (without("dim"), "malformed model document: model field dim is missing"),
            (edited(["dim"], True),
             "malformed model document: dim must be an integer >= 1, got True"),
            (edited(["n_layers"], 0),
             "malformed model document: n_layers must be an integer >= 1, got 0"),
            (edited(["config", "seed"], True),
             "malformed model document: config: seed must be an integer, got True"),
            (edited(["config", "tol_delta_t"], 10**400),
             "malformed model document: config: tol_delta_t must be finite and > 0, got 1000"),
            (edited(["config", "tol_delta_t"], "0.01"),
             "malformed model document: config: tol_delta_t must be finite and > 0, got '0.01'"),
            # Refused by the text's length, before anything is decoded.
            (edited(["resolved_bins"], 10**9),
             "malformed model document: knots_p must be the base64 of 6000000018"
             " float64 values (64000000192 characters), got '"),
            (edited(["resolved_bins"], 10**30),
             "malformed model document: knots_p must be the base64 of"
             " 6000000000000000000000000000018 float64 values"
             " (64000000000000000000000000000192 characters), got '"),
            (edited(["n_layers"], 10**9),
             "malformed model document: x_min must be the base64 of 2000000000"
             " float64 values (21333333336 characters), got '"),
            (decoded_edit(["marginal_entropies_input"], lambda h: h[:1]),
             "malformed model document: marginal_entropies_input must be the base64 of 2"
             " float64 values (24 characters), got '"),
            # One clamp per layer: the model has one for all of them.
            (edited(["clamp_eps"], [0.001] * 3),
             "malformed model document: clamp_eps must be a number in (0, 0.5),"
             " got [0.001, 0.001, 0.001]"),
            # One kind per layer: every rotation is of the config's kind.
            (edited(["kind"], ["random"] * 3),
             "malformed model document: kind is not a model field"),
            (edited(["rank_deficient"], [False, False]),
             "malformed model document: rank_deficient must be 3 booleans, got [False, False]"),
            (edited(["rank_deficient"], [0, 0, 0]),
             "malformed model document: rank_deficient must be 3 booleans, got [0, 0, 0]"),
            (decoded_edit(["rotation_entries"], item(0, math.nan)),
             "malformed model document: rotation_entries[0][0][0] must be a finite"
             " number, got nan"),
            (decoded_edit(["rotation_entries"], item(0, 2.0)),
             "malformed model document: layer 0 rotation: matrix is not orthogonal"),
            (decoded_edit(KNOTS_P, lambda a: a[:-1]),
             "malformed model document: knots_p must be the base64 of 150 float64"
             " values (1600 characters), got '"),
            (decoded_edit(["x_max"], item(1, -1e300)),
             "malformed model document: layer 0 column 1: knot segment 0 "),
            (decoded_edit(["x_max"], item(0, 1.7e308)),
             "malformed model document: layer 0 column 0: knot segment "),
            (decoded_edit(KNOTS_P, item(28, math.inf)),
             "malformed model document: knots_p[0][1][3] must be a finite number,"
             " got inf"),
            (edited(["x_min"], [0.5, 1.5]),
             "malformed model document: x_min must be the base64 of 6 float64"
             " values (64 characters), got [0.5, 1.5]"),
            (edited(["x_max"], lambda text: text + "AAAA"),
             "malformed model document: x_max must be the base64 of 6 float64"
             " values (64 characters), got '"),
            # Decoded without validation, the rest would be 45 bytes.
            (edited(["x_min"], lambda text: "!!!!" + text[4:]),
             "malformed model document: x_min must be base64 text, got '!!!!"),
            # The right length, but padding that leaves 46 bytes, not 48.
            (edited(["x_min"], lambda text: text[:-2] + "=="),
             "malformed model document: x_min must be the base64 of 6 float64"
             " values (64 characters), got '"),
        ],
        ids=[
            "no-layers", "json-array", "null-clamp-eps", "flat-cdf-segment", "version-1",
            "version-2", "version-3", "version-4", "null-delta-t", "string-converged",
            "null-resolved-bins", "float-resolved-bins", "no-dim", "bool-dim", "zero-layers",
            "bool-seed", "huge-tol", "string-tol", "huge-resolved-bins", "absurd-resolved-bins",
            "huge-layer-count", "short-entropies", "layer-clamp-eps", "layer-kinds",
            "short-rank-deficient", "int-rank-deficient", "nan-rotation-entry",
            "skewed-rotation", "short-knots-p-row", "x-max-below-x-min", "overflowing-range",
            "infinite-knot", "list-x-min", "long-x-max", "non-base64-x-min", "unpadded-x-min",
        ],
    )
    def test_malformed_model_exit_1(self, tmp_path, capsys, edit, message):
        data = np.random.default_rng(3).standard_normal((500, 2))
        csv = tmp_path / "x.csv"
        save_csv(csv, data)
        model = tmp_path / "m.json"
        model.write_text(json.dumps(edit(fit(data).to_dict())))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(model)
        code, _, err = run(
            capsys, "transform", "--model", str(model), "--input", str(csv),
            "--out", str(tmp_path / "z.csv"),
        )
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


class TestMeasures:
    def test_tc_independent(self, tmp_path, capsys):
        path = tmp_path / "indep4d.csv"
        data = np.random.default_rng(5).uniform(0, 1, (50000, 4))
        from rbig import save_csv

        save_csv(path, data)
        code, out, _ = run(capsys, "tc", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["quantity"] == "total_correlation"
        assert report["value_bits"] <= 0.1
        assert "per_layer_delta_t" in report

    def test_mi_gaussian_pair(self, tmp_path, capsys):
        data = np.random.default_rng(6).standard_normal((100000, 2))
        chol = np.linalg.cholesky([[1.0, 0.9], [0.9, 1.0]])
        data = data @ chol.T
        from rbig import save_csv

        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_csv(xp, data[:, :1])
        save_csv(yp, data[:, 1:])
        code, out, _ = run(capsys, "mi", "--x", str(xp), "--y", str(yp))
        assert code == 0
        report = json.loads(out)
        assert report["value_bits"] == pytest.approx(-0.5 * math.log2(1 - 0.81), abs=0.1)

    def test_every_report_loads_and_per_feature_is_refused(self, tmp_path, capsys):
        data = np.random.default_rng(7).standard_normal((100000, 3))
        path, xp, yp = tmp_path / "n01_3d.csv", tmp_path / "x.csv", tmp_path / "y.csv"
        save_csv(path, data)
        save_csv(xp, data[:20000, :2])
        save_csv(yp, data[:20000, 2:])
        reports = {}
        for name, inputs in [
            ("entropy", ["--input", str(path)]),
            ("tc", ["--input", str(path)]),
            ("mi", ["--x", str(xp), "--y", str(yp)]),
        ]:
            out = tmp_path / f"{name}.json"
            code, printed, _ = run(capsys, name, *inputs, "--out", str(out))
            assert code == 0
            for text in (printed, out.read_text()):
                report = ITReport.from_dict(json.loads(text))
                assert report.to_dict() == json.loads(text)
            reports[name] = report
        h_gauss = 0.5 * math.log2(2 * math.pi * math.e)
        entropy = reports["entropy"]
        assert entropy.value_bits / entropy.dim == pytest.approx(h_gauss, abs=0.05)
        code, _, err = run(capsys, "entropy", "--input", str(path), "--per-feature")
        assert code == 1
        assert "--per-feature" in err

    def test_report_file_deterministic(self, tmp_path, capsys, gauss_csv):
        a, b = tmp_path / "ra.json", tmp_path / "rb.json"
        for out in (a, b):
            code, _, _ = run(
                capsys, "tc", "--input", str(gauss_csv), "--seed", "3",
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mi_row_mismatch_exit_1(self, tmp_path, capsys):
        from rbig import save_csv

        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_csv(xp, np.random.default_rng(8).standard_normal((100, 1)))
        save_csv(yp, np.random.default_rng(9).standard_normal((99, 1)))
        code, _, err = run(capsys, "mi", "--x", str(xp), "--y", str(yp))
        assert code == 1
        assert "row counts" in err


class TestInfoMap:
    def test_uniform_noise_map_is_flat(self, tmp_path, capsys):
        values = np.random.default_rng(10).uniform(0.0, 1.0, (20, 40, 40))
        cube_path = tmp_path / "u.bin"
        save_cube(cube_path, DataCube(values))
        model = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "fit", "--input", str(cube_path), "--spatial", "1",
            "--temporal", "1", "--patience", "1", "--out", str(model),
        )
        assert code == 0
        out = tmp_path / "map.bin"
        code, _, _ = run(
            capsys, "info-map", "--model", str(model), "--cube", str(cube_path),
            "--spatial", "1", "--temporal", "1", "--out", str(out),
        )
        assert code == 0
        info = load_cube(str(out)).values
        assert info.shape == (20, 40, 40)
        # flat up to estimator noise: bulk of the map within +-0.3 bits
        med = np.median(info)
        assert np.percentile(info, 1) >= med - 0.3
        assert np.percentile(info, 99) <= med + 0.3
        assert info.std() <= 0.3

    def test_high_variance_region_more_informative(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((10, 24, 24))
        values[:, :8, :8] *= 3.0
        cube_path = tmp_path / "hv.bin"
        save_cube(cube_path, DataCube(values))
        model = tmp_path / "m.json"
        run(
            capsys, "fit", "--input", str(cube_path), "--spatial", "2",
            "--temporal", "2", "--out", str(model),
        )
        out = tmp_path / "map.bin"
        code, _, _ = run(
            capsys, "info-map", "--model", str(model), "--cube", str(cube_path),
            "--spatial", "2", "--temporal", "2", "--out", str(out),
        )
        assert code == 0
        info = load_cube(str(out)).values
        region = info[:, :7, :7]
        background = info[:, 10:, 10:]
        assert np.nanmean(region) > np.nanmean(background)

    def test_grid_shape_matches_count_formula(self, tmp_path, capsys):
        values = np.random.default_rng(12).standard_normal((9, 11, 13))
        cube_path = tmp_path / "c.bin"
        save_cube(cube_path, DataCube(values))
        model = tmp_path / "m.json"
        run(
            capsys, "fit", "--input", str(cube_path), "--spatial", "2",
            "--temporal", "3", "--stride-space", "2", "--stride-time", "2",
            "--out", str(model),
        )
        out = tmp_path / "map.bin"
        code, _, _ = run(
            capsys, "info-map", "--model", str(model), "--cube", str(cube_path),
            "--spatial", "2", "--temporal", "3", "--stride-space", "2",
            "--stride-time", "2", "--out", str(out),
        )
        assert code == 0
        assert load_cube(str(out)).shape == ((9 - 3) // 2 + 1, (11 - 2) // 2 + 1, (13 - 2) // 2 + 1)

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda doc, key=key: doc.pop(key), f"cube sidecar field {key} is missing")
         for key in ("shape", "dtype", "fill_value", "order", "grid_meta")]
        + [(lambda doc: doc.update(nodata=-9999), "nodata is not a cube sidecar field")],
        ids=["no-shape", "no-dtype", "no-fill-value", "no-order", "no-grid-meta", "unknown-key"],
    )
    def test_sidecar_keys_checked_exit_1(self, tmp_path, capsys, edit, message):
        # Without its fill_value, the -9999 sentinel would load as data.
        values = np.random.default_rng(14).standard_normal((6, 8, 8))
        values[2, 3, 3] = np.nan
        cube_path = tmp_path / "c.bin"
        save_cube(cube_path, DataCube(values), fill_value=-9999)
        model = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "fit", "--input", str(cube_path), "--spatial", "1", "--temporal", "1",
            "--patience", "1", "--out", str(model),
        )
        assert code == 0
        sidecar = tmp_path / "c.bin.json"
        doc = json.loads(sidecar.read_text())
        edit(doc)
        sidecar.write_text(json.dumps(doc))
        out = tmp_path / "map.bin"
        code, _, err = run(
            capsys, "info-map", "--model", str(model), "--cube", str(cube_path),
            "--spatial", "1", "--temporal", "1", "--out", str(out),
        )
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_model_patch_dim_mismatch_exit_1(self, tmp_path, capsys, gauss_csv):
        model = tmp_path / "m.json"
        run(capsys, "fit", "--input", str(gauss_csv), "--out", str(model))
        values = np.random.default_rng(13).standard_normal((6, 6, 6))
        cube_path = tmp_path / "c.bin"
        save_cube(cube_path, DataCube(values))
        code, _, err = run(
            capsys, "info-map", "--model", str(model), "--cube", str(cube_path),
            "--spatial", "3", "--temporal", "1", "--out", str(tmp_path / "map.bin"),
        )
        assert code == 1
        assert "dimension" in err.lower()


class TestCliContract:
    def test_unknown_flag_is_error(self, capsys):
        code, _, err = run(capsys, "fit", "--frobnicate", "1")
        assert code == 1

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "fit", "--input", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert "error" in err.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
