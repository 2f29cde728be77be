import argparse
import base64
import dataclasses
import json
import math
import os
import re
import reprlib
import warnings

import numpy as np
import pytest

from rbig import (
    DataCube, FitConfig, ITReport, NotConvergedWarning, PatchConfig, fit, load_csv, load_cube,
    load_model, save_csv, save_cube,
)
from rbig.cli import build_parser, main


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n2,1\n", "correlation matrix must be positive definite"),
            ("a,b\n1,0.5\n0.4,1\n", "correlation matrix must be symmetric with unit diagonal"),
            ("a,b\n1,0\n", "correlation matrix must be square"),
        ],
        ids=["not-positive-definite", "not-symmetric", "not-square"],
    )
    def test_bad_correlation_matrix_exit_1_names_the_file(self, tmp_path, capsys, text, message):
        corr = tmp_path / "c.csv"
        corr.write_text(text)
        out = tmp_path / "g.csv"
        code, stdout, err = run(
            capsys, "synth", "gauss", "--n", "5", "--corr", str(corr), "--out", str(out)
        )
        assert (code, stdout, err) == (1, "", f"error: {corr}: {message}\n")
        assert not out.exists()

    def test_negative_seed_exit_1_names_seed(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code, stdout, err = run(
            capsys, "synth", "gauss", "--n", "30", "--rho", "0.5", "--seed", "-2",
            "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert err == "error: seed must be an integer >= 0, got -2\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ar1-cube", "--t", "0", "--height", "3", "--width", "3", "--phi", "0.5"],
             "t must be an integer >= 1, got 0"),
            (["ar1-cube", "--t", "3", "--height", "0", "--width", "3", "--phi", "0.5"],
             "height must be an integer >= 1, got 0"),
            (["gauss", "--n", "0", "--rho", "0.5"], "n must be an integer >= 1, got 0"),
            (["gauss", "--n", "-2", "--rho", "0.5"], "n must be an integer >= 1, got -2"),
            (["gauss", "--n", "5", "--dim", "0", "--rho", "0.5"],
             "dim must be an integer >= 1, got 0"),
            (["sine", "--n", "0"], "n must be an integer >= 1, got 0"),
            (["mixture", "--n", "0"], "n must be an integer >= 1, got 0"),
            (["sine", "--n", "5", "--noise", "nan"], "noise must be a finite number, got nan"),
            (["mixture", "--n", "5", "--separation", "inf"],
             "separation must be a finite number, got inf"),
        ],
        ids=["cube-t-0", "cube-height-0", "gauss-n-0", "gauss-n-negative", "gauss-dim-0",
             "sine-n-0", "mixture-n-0", "sine-noise-nan", "mixture-separation-inf"],
    )
    def test_unreadable_output_exit_1_names_the_flag(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "synth", *argv, "--out", str(out))
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert os.listdir(tmp_path) == []

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
        assert err == "warning: fit did not converge within the layer cap\n"
        assert json.loads((tmp_path / "model.json.trace.json").read_text())["converged"] is False

    @pytest.mark.parametrize("subcommand", ["fit", "tc", "entropy"])
    def test_negative_seed_exit_1_names_seed(self, tmp_path, capsys, gauss_csv, subcommand):
        code, out, err = run(
            capsys, subcommand, "--input", str(gauss_csv), "--seed", "-3",
            "--out", str(tmp_path / "m.json"),
        )
        assert (code, out) == (1, "")
        assert err == "error: seed must be an integer >= 0, got -3\n"
        assert not (tmp_path / "m.json").exists()

    def test_bins_too_large_to_allocate_exit_1(self, tmp_path, capsys, gauss_csv):
        # numpy refuses the knot grid of 7.11 PiB at once: nothing is allocated.
        out = tmp_path / "m.json"
        code, stdout, err = run(
            capsys, "fit", "--input", str(gauss_csv), "--bins", "1000000000000000",
            "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()

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


# The test model: 500 x 2 rows, 3 layers, 22 bins, so knots_p is 3 x 2 x 25,
# knots_p[0][1][0] is flat item 25 and knots_p[0][1][3] flat item 28.  The
# rows are independent, so a converged fit keeps one layer; stopped by
# max_layers, the fit keeps all 3.
KNOTS_P = ["knots_p"]
THREE_LAYERS = FitConfig(max_layers=3, tol_delta_t=1e-9)


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

    def test_sample_negative_seed_exit_1_names_seed(self, tmp_path, capsys, gauss_csv):
        model, out = tmp_path / "m.json", tmp_path / "s.csv"
        run(capsys, "fit", "--input", str(gauss_csv), "--out", str(model))
        code, stdout, err = run(
            capsys, "sample", "--model", str(model), "--n", "3", "--seed", "-1",
            "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_sample_too_large_to_allocate_exit_1(self, tmp_path, capsys, gauss_csv):
        # numpy refuses the 14.2 PiB working array at once: nothing is allocated.
        model, out = tmp_path / "m.json", tmp_path / "s.csv"
        run(capsys, "fit", "--input", str(gauss_csv), "--out", str(model))
        code, stdout, err = run(
            capsys, "sample", "--model", str(model), "--n", "1000000000000000", "--seed", "1",
            "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (without("n_layers"), "malformed model document: model field n_layers is missing"),
            (lambda doc: [doc], "not a serialized model document"),
            (edited(["clamp_eps"], None),
             "malformed model document: clamp_eps must be a finite number, got None"),
            (edited(["clamp_eps"], 5e-8),
             "malformed model document: clamp_eps must be a number in [1e-07, 0.5), got 5e-08"),
            (decoded_edit(KNOTS_P, lambda a: item(2, a[1])(a)),
             "malformed model document: layer 0 column 0: knot segment 1 "),
            # knots_p[0][1][0]: the ends rule is named before the segment
            # that the raised start also breaks.
            (decoded_edit(KNOTS_P, item(25, 0.5)),
             "malformed model document: layer 0 column 1: knots_p must start at 0 and end at 1"),
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
             "malformed model document: config: seed must be an integer >= 0, got True"),
            (edited(["config", "tol_delta_t"], 10**400),
             "malformed model document: config: tol_delta_t must be a finite number,"
             f" got {reprlib.repr(10**400)}"),
            (edited(["config", "tol_delta_t"], "0.01"),
             "malformed model document: config: tol_delta_t must be a finite number, got '0.01'"),
            # Refused by the text's length, before anything is decoded.
            (edited(["resolved_bins"], 10**9),
             "malformed model document: knots_p must be the base64 of 6000000018"
             " float64 values (64000000192 characters), got '"),
            # Beyond int64, refused by the integer rule.
            (edited(["resolved_bins"], 10**30),
             "malformed model document: resolved_bins must be an integer < 2**63,"
             " got 1000000000000000000000000000000"),
            (edited(["n_layers"], 10**9),
             "malformed model document: x_min must be the base64 of 2000000000"
             " float64 values (21333333336 characters), got '"),
            (decoded_edit(["marginal_entropies_input"], lambda h: h[:1]),
             "malformed model document: marginal_entropies_input must be the base64 of 2"
             " float64 values (24 characters), got '"),
            # One clamp per layer: the model has one for all of them.
            (edited(["clamp_eps"], [0.001] * 3),
             "malformed model document: clamp_eps must be a finite number,"
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
            "no-layers", "json-array", "null-clamp-eps", "below-floor-clamp-eps",
            "flat-cdf-segment", "cdf-starts-above-0", "version-1",
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
        with pytest.warns(NotConvergedWarning):
            fitted = fit(data, THREE_LAYERS)
        assert fitted.n_layers == 3
        model.write_text(json.dumps(edit(fitted.to_dict())))
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

    @pytest.mark.parametrize("subcommand", ["tc", "entropy", "mi"])
    def test_unconverged_exit_2_report_printed(self, capsys, gauss_csv, subcommand):
        inputs = ["--input", str(gauss_csv)]
        if subcommand == "mi":
            inputs = ["--x", str(gauss_csv), "--y", str(gauss_csv)]
        code, out, err = run(
            capsys, subcommand, *inputs, "--max-layers", "2", "--patience", "2", "--tol", "1e-9"
        )
        assert code == 2
        assert ITReport.from_dict(json.loads(out)).converged is False
        # One line: the fits' NotConvergedWarnings are not printed.
        assert err == "warning: a fit did not converge within the layer cap\n"

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
    def test_sidecar_keys_checked_exit_1(self, tmp_path, capsys, outside_cube, edit, message):
        # Without its fill_value, the -9999 sentinel would load as data.
        values = np.random.default_rng(14).standard_normal((6, 8, 8))
        values[2, 3, 3] = np.nan
        cube_path = tmp_path / "c.bin"
        outside_cube(cube_path, values, fill_value=-9999)
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
        assert err == f"error: {cube_path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["info-map", "tc", "entropy", "fit"])
    def test_cube_with_no_whole_patch_exit_1(self, tmp_path, capsys, command):
        # Every other row is missing, so every 2x2x1 patch holds a NaN.
        values = np.random.default_rng(15).standard_normal((5, 6, 6))
        values[:, ::2] = np.nan
        cube_path = tmp_path / "gappy.bin"
        save_cube(cube_path, DataCube(values))
        whole = tmp_path / "whole.bin"
        save_cube(whole, DataCube(np.random.default_rng(16).standard_normal((5, 6, 6))))
        model = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "fit", "--input", str(whole), "--spatial", "2",
            "--temporal", "1", "--patience", "1", "--out", str(model),
        )
        assert code == 0
        out = tmp_path / "out.bin"
        patch = ["--spatial", "2", "--temporal", "1"]
        argv = {
            "info-map": ["info-map", "--model", str(model), "--cube", str(cube_path), *patch,
                         "--out", str(out)],
            "tc": ["tc", "--input", str(cube_path), *patch],
            "entropy": ["entropy", "--input", str(cube_path), *patch],
            "fit": ["fit", "--input", str(cube_path), *patch, "--out", str(out)],
        }[command]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == f"error: {cube_path}: no 2x2x1 patch is free of holes (NaN values)\n"
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

    def test_each_config_field_has_one_flag_stored_under_its_name(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for config, commands in [(FitConfig, ["fit", "entropy", "tc", "mi"]),
                                 (PatchConfig, ["fit", "entropy", "tc", "info-map"])]:
            for command in commands:
                for field in dataclasses.fields(config):
                    flags = [a for a in sub.choices[command]._actions if a.dest == field.name]
                    assert len(flags) == 1 and flags[0].option_strings, (command, field.name)

    def test_run_record_config_holds_field_names(self, tmp_path, capsys, gauss_csv):
        out = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "fit", "--input", str(gauss_csv), "--rotation", "random", "--tol", "0.05",
            "--out", str(out),
        )
        assert code == 0
        config = json.loads((tmp_path / "m.json.run.json").read_text())["config"]
        assert "rotation" not in config and "tol" not in config
        fit_fields = {f.name: config[f.name] for f in dataclasses.fields(FitConfig)}
        assert fit_fields == load_model(out).config.to_dict()
        assert (fit_fields["rotation_kind"], fit_fields["tol_delta_t"]) == ("random", 0.05)
        assert {f.name for f in dataclasses.fields(PatchConfig)} <= set(config)


def model_and_csv(tmp_path):
    """A fitted 2-column model file and a CSV it reads."""
    data = np.random.default_rng(21).standard_normal((300, 2))
    csv = tmp_path / "x.csv"
    save_csv(csv, data)
    model = tmp_path / "m.json"
    fit(data).save(model)
    return model, csv


def assert_one_error_naming(err, path, message):
    assert err.startswith(f"error: {path}: ") and message in err
    assert err.count("\n") == 1


class TestReadErrors:
    @pytest.mark.parametrize("command", ["fit", "tc", "transform", "synth-corr"])
    def test_header_only_csv_exit_1_one_line(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.csv"
        empty.write_text("a,b\n")
        model, _ = model_and_csv(tmp_path)
        out = str(tmp_path / "out.csv")
        argv = {
            "fit": ["fit", "--input", str(empty), "--out", out],
            "tc": ["tc", "--input", str(empty)],
            "transform": ["transform", "--model", str(model), "--input", str(empty), "--out", out],
            "synth-corr": ["synth", "gauss", "--n", "10", "--corr", str(empty), "--out", out],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == f"error: {empty}: no data rows after the header\n"

    @pytest.mark.parametrize("command", ["sample", "transform", "info-map"])
    def test_non_json_model_names_the_file(self, tmp_path, capsys, command):
        _, csv = model_and_csv(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        cube_path = tmp_path / "c.bin"
        save_cube(cube_path, DataCube(np.random.default_rng(22).standard_normal((4, 4, 4))))
        out = str(tmp_path / "out.csv")
        argv = {
            "sample": ["sample", "--model", str(bad), "--n", "3", "--out", out],
            "transform": ["transform", "--model", str(bad), "--input", str(csv), "--out", out],
            "info-map": ["info-map", "--model", str(bad), "--cube", str(cube_path),
                         "--spatial", "1", "--temporal", "1", "--out", out],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert_one_error_naming(err, bad, "Expecting value")

    @pytest.mark.parametrize("command", ["fit", "tc", "mi-x", "mi-y", "transform"])
    def test_non_numeric_cell_names_the_file(self, tmp_path, capsys, command):
        model, csv = model_and_csv(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,x\n")
        out = str(tmp_path / "out.csv")
        argv = {
            "fit": ["fit", "--input", str(bad), "--out", out],
            "tc": ["tc", "--input", str(bad)],
            "mi-x": ["mi", "--x", str(bad), "--y", str(csv)],
            "mi-y": ["mi", "--x", str(csv), "--y", str(bad)],
            "transform": ["transform", "--model", str(model), "--input", str(bad), "--out", out],
        }[command]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == f"error: {bad}: line 3, column 2: could not convert string 'x' to float64\n"

    @pytest.mark.parametrize("command", ["fit", "tc", "mi-x", "transform"])
    def test_ragged_csv_names_the_line(self, tmp_path, capsys, command):
        model, csv = model_and_csv(tmp_path)
        rag = tmp_path / "rag.csv"
        rag.write_text("a,b\n1,2\n3,4,5\n")
        out = str(tmp_path / "out.csv")
        argv = {
            "fit": ["fit", "--input", str(rag), "--out", out],
            "tc": ["tc", "--input", str(rag)],
            "mi-x": ["mi", "--x", str(rag), "--y", str(csv)],
            "transform": ["transform", "--model", str(model), "--input", str(rag), "--out", out],
        }[command]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == f"error: {rag}: line 3 has 3 columns, line 2 has 2\n"


class TestWriteErrors:
    @pytest.mark.parametrize("target", ["missing/m.json", "dir.json"])
    def test_fit_out_unwritable_names_the_target(self, tmp_path, capsys, target):
        _, csv = model_and_csv(tmp_path)
        (tmp_path / "dir.json").mkdir()
        out = tmp_path / target
        before = sorted(os.listdir(tmp_path))
        code, stdout, err = run(capsys, "fit", "--input", str(csv), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(out)!r}\n")
        assert err.count("\n") == 1 and ".tmp" not in err
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(tmp_path / "dir.json") == []
