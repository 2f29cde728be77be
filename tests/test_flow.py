import base64
import errno
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import rbig
from rbig import (
    DegenerateDimension,
    DimensionMismatch,
    FitConfig,
    GAUSS_ENTROPY_BITS,
    GaussModel,
    NonFiniteInput,
    NotConvergedWarning,
    fit,
    marginal_entropy,
    marginal_kl_to_standard_normal,
    mutual_information,
)
from rbig import flow, marginal
from rbig.marginal import MarginalGaussianizer, fit_gaussianizer
from rbig.rotation import rotate
from rbig.synth import (
    equicorrelated_gaussian,
    gaussian_mixture,
    noisy_sine,
)


@pytest.fixture(scope="module")
def rho09_data():
    return equicorrelated_gaussian(100000, 2, 0.9, 101)


@pytest.fixture(scope="module")
def rho09_model(rho09_data):
    return fit(rho09_data, FitConfig(seed=1))


@pytest.fixture(scope="module")
def sine_data():
    return noisy_sine(10000, seed=7)


@pytest.fixture(scope="module")
def sine_model(sine_data):
    return fit(sine_data, FitConfig(seed=2))


@pytest.fixture(scope="module")
def uniform2d_data():
    return np.random.default_rng(5).uniform(0, 1, (100000, 2))


@pytest.fixture(scope="module")
def uniform2d_model(uniform2d_data):
    return fit(uniform2d_data, FitConfig(seed=3))


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(rotation_kind="ica")
        with pytest.raises(ValueError):
            FitConfig(max_layers=2, patience=3)
        with pytest.raises(ValueError):
            FitConfig(tol_delta_t=0.0)
        with pytest.raises(ValueError):
            FitConfig(bins=1)

    # A NaN tol_delta_t never stops a fit, and a value of the wrong type
    # would only fail deep inside a fit or a model load, so all are rejected
    # at construction.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("tol_delta_t", math.nan),
            ("tol_delta_t", math.inf),
            ("tol_delta_t", True),
            ("bins", 10.0),
            ("max_layers", 5.0),
            ("patience", True),
            ("seed", 1.5),
            # Every fit, PCA ones included, would fail inside numpy's seeding.
            ("seed", -1),
            ("seed", np.int64(-3)),
        ],
    )
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})

    def test_model_file_with_negative_seed_rejected(self, sine_model):
        doc = sine_model.to_dict()
        doc["config"]["seed"] = -1
        message = "malformed model document: config: seed must be an integer >= 0, got -1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaussModel.from_dict(doc)

    def test_accepts_numpy_scalars(self, tmp_path):
        config = FitConfig(bins=np.int64(10), tol_delta_t=np.float32(0.5), seed=np.int32(4))
        assert config.bins == 10 and config.seed == 4
        assert type(config.bins) is int and type(config.tol_delta_t) is float
        model = fit(np.random.default_rng(4).standard_normal((200, 2)), config)
        path = tmp_path / "model.json"
        model.save(path)
        assert GaussModel.load(path).config == config


class TestFit:
    def test_independent_normal_has_tiny_total_correlation(self):
        data = np.random.default_rng(0).standard_normal((100000, 3))
        model = fit(data)
        assert model.converged
        assert model.total_correlation <= 0.05

    def test_correlated_gaussian_total_correlation(self, rho09_model):
        true_t = -0.5 * math.log2(1 - 0.9**2)
        assert rho09_model.total_correlation == pytest.approx(true_t, abs=0.1)

    def test_sine_converges_with_decaying_trace(self, sine_model):
        trace = sine_model.delta_t_trace
        assert sine_model.converged
        assert trace[-1] < sine_model.config.tol_delta_t
        # decreasing in trend: late-phase average far below early phase
        assert np.mean(trace[-3:]) < np.mean(trace[:3])

    def test_constant_column_raises(self):
        data = np.random.default_rng(1).standard_normal((500, 3))
        data[:, 1] = 4.2
        with pytest.raises(DegenerateDimension, match="column 1"):
            fit(data)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_too_few_rows_for_an_entropy_estimate(self, n):
        data = np.random.default_rng(1).standard_normal((n, 3))
        message = f"need at least 10 rows and 1 column, got {n} x 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit(data)

    def test_ten_rows_fit(self):
        data = np.random.default_rng(1).standard_normal((10, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            model = fit(data, FitConfig(max_layers=2, patience=1))
        assert model.dim == 3 and model.n_layers >= 1

    def test_not_converged_warns(self):
        data = equicorrelated_gaussian(5000, 2, 0.8, 3)
        # layer 1 removes ~0.74 bits, far above tol, so patience=2 cannot be met
        with pytest.warns(NotConvergedWarning):
            model = fit(data, FitConfig(max_layers=2, patience=2, tol_delta_t=1e-9))
        assert not model.converged
        assert model.n_layers == 2

    def test_total_correlation_is_sum_of_layer_deltas(self, rho09_model):
        total = sum(rho09_model.delta_t.tolist())
        assert abs(rho09_model.total_correlation - total) <= 1e-9

    def test_random_rotation_fit_converges(self):
        data = equicorrelated_gaussian(20000, 2, 0.5, 4)
        model = fit(data, FitConfig(rotation_kind="random", seed=5, max_layers=200))
        true_t = -0.5 * math.log2(1 - 0.25)
        assert model.total_correlation == pytest.approx(true_t, abs=0.1)

    def test_cumulative_delta_t_nearly_monotone(self, sine_model):
        tol = sine_model.config.tol_delta_t
        assert np.all(sine_model.delta_t_trace >= -2 * tol)

    @pytest.mark.parametrize("kind", ["pca", "random"])
    @pytest.mark.parametrize("patience", [1, 3, 5])
    def test_gaussian_column_fits_in_one_layer(self, kind, patience):
        data = np.random.default_rng(3).standard_normal((20000, 1))
        model = fit(data, FitConfig(rotation_kind=kind, patience=patience))
        assert model.converged
        assert model.n_layers == 1

    def test_heavy_tailed_column_stops_at_first_layer_below_tol(self):
        x = np.random.default_rng(0).standard_normal((100000, 1))
        model = fit(x**3)
        trace = model.delta_t_trace
        assert model.converged
        # One histogram marginal does not map x**3 exactly: the layers
        # after the first still remove bits, and each is kept.
        assert model.n_layers >= 2
        assert np.all(trace[:-1] >= model.config.tol_delta_t)
        assert trace[-1] < model.config.tol_delta_t

    @pytest.mark.parametrize("patience", [3, 5])
    def test_two_column_fit_waits_for_patience(self, patience):
        data = np.random.default_rng(6).standard_normal((20000, 2))
        model = fit(data, FitConfig(patience=patience))
        assert model.converged
        assert model.n_layers >= patience
        assert np.all(model.delta_t_trace[-patience:] < model.config.tol_delta_t)

    @pytest.mark.parametrize(
        "column, message",
        [
            # Three integers 4 apart at 2**53: no 14 equal-width bins fit.
            (2.0**53 + 4.0 * (np.arange(200) % 3), "cannot make 14 bins of positive width "),
            # 1e305 wide: an extension segment's dx/dp overflows.
            (np.linspace(-0.5e305, 0.5e305, 200), "knot segment 0 "),
        ],
        ids=["bins", "table"],
    )
    def test_first_layer_error_names_the_column(self, column, message):
        x = np.random.default_rng(41).standard_normal((200, 3))
        x[:, 2] = column
        with pytest.raises(ValueError) as info:
            fit(x)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(f"column 2: {message}")
        assert "\n" not in str(info.value)


class TestTransform:
    def test_gaussian_input_stays_gaussian(self):
        data = np.random.default_rng(6).standard_normal((100000, 2))
        model = fit(data)
        z, _ = model.transform(data)
        for j in range(2):
            assert kstest(z[:, j], "norm").statistic <= 0.02

    def test_uniform_cube_marginals_pass_ks(self, uniform2d_model, uniform2d_data):
        z, _ = uniform2d_model.transform(uniform2d_data)
        for j in range(2):
            assert kstest(z[:, j], "norm").statistic <= 0.02

    def test_logjac_finite_everywhere(self, sine_model):
        rng = np.random.default_rng(8)
        wild = rng.uniform(-50, 50, (1000, 2))
        _, logjac = sine_model.transform(wild)
        assert np.all(np.isfinite(logjac))

    def test_logjac_adds_over_layers(self, sine_model, sine_data):
        x = sine_data[:100]
        _, total = sine_model.transform(x)
        acc = np.zeros(x.shape[0])
        for gaussianizers, rotation in zip(
            sine_model.gaussianizers, sine_model.rotation_entries
        ):
            z = np.empty_like(x)
            for j, g in enumerate(gaussianizers):
                z[:, j], lj = g.forward(x[:, j])
                acc += lj
            x = rotate(rotation, z)
        assert np.max(np.abs(acc - total)) <= 1e-9

    def test_dimension_mismatch(self, sine_model):
        with pytest.raises(DimensionMismatch):
            sine_model.transform(np.zeros((10, 3)))
        with pytest.raises(DimensionMismatch):
            sine_model.inverse(np.zeros((10, 1)))

    @pytest.mark.parametrize("query", ["transform", "inverse"])
    @pytest.mark.parametrize(
        "shape", [(2,), (10, 3), (2, 5, 2)], ids=["one-row-1d", "wrong-columns", "3d"]
    )
    def test_mismatch_names_the_shape(self, sine_model, query, shape):
        # A 1-D row of D values is not "D columns": it names its shape.
        message = f"^data must be N x 2, got shape {re.escape(str(shape))}$"
        with pytest.raises(DimensionMismatch, match=message):
            getattr(sine_model, query)(np.zeros(shape))


class TestInverse:
    def test_roundtrip_on_training_data(self, rho09_model, rho09_data):
        z, _ = rho09_model.transform(rho09_data)
        back = rho09_model.inverse(z)
        spans = rho09_data.max(axis=0) - rho09_data.min(axis=0)
        err = np.percentile(np.abs(back - rho09_data), 99, axis=0)
        assert np.all(err <= 1e-4 * spans)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_leaves_input_unchanged(self, sine_model, order):
        rows = np.random.default_rng(11).standard_normal((1000, 2))
        z = np.asarray(rows, order=order)
        back = sine_model.inverse(z)
        assert np.array_equal(z, rows)
        assert back.flags.f_contiguous

    def test_zero_vector_maps_near_median(self):
        data = equicorrelated_gaussian(50000, 2, 0.8, 9)
        model = fit(data)
        x0 = model.inverse(np.zeros((1, 2)))[0]
        med = np.median(data, axis=0)
        assert np.all(np.abs(x0 - med) <= 0.1)

    def test_synthesis_matches_sine_support(self, sine_model, sine_data):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((100000, 2))
        synth = sine_model.inverse(z)
        c_orig = np.corrcoef(sine_data.T)[0, 1]
        c_synth = np.corrcoef(synth.T)[0, 1]
        assert abs(c_orig - c_synth) <= 0.05


class TestLogDensity:
    def test_uniform_square_density_is_one(self, uniform2d_model):
        held_out = np.random.default_rng(11).uniform(0.05, 0.95, (20000, 2))
        mean_ld = np.mean(uniform2d_model.log_density(held_out))
        assert mean_ld == pytest.approx(0.0, abs=0.1)

    def test_univariate_normal_at_mode(self):
        data = np.random.default_rng(12).standard_normal((100000, 1))
        model = fit(data)
        ld = model.log_density(np.array([[0.0]]))[0]
        assert ld == pytest.approx(-math.log2(math.sqrt(2 * math.pi)), abs=0.1)

    def test_far_tail_never_beats_median(self, rho09_model, rho09_data):
        med = np.median(rho09_data, axis=0)[None, :]
        span = rho09_data.max(axis=0) - rho09_data.min(axis=0)
        far = rho09_data.max(axis=0)[None, :] + 5 * span
        assert rho09_model.log_density(far)[0] <= rho09_model.log_density(med)[0]

    def test_normalization_on_mixture(self):
        data = gaussian_mixture(100000, seed=13)
        model = fit(data, FitConfig(seed=13))
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        span = hi - lo
        xs = np.linspace(lo[0] - 0.1 * span[0], hi[0] + 0.1 * span[0], 201)
        ys = np.linspace(lo[1] - 0.1 * span[1], hi[1] + 0.1 * span[1], 201)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        dens = np.exp2(model.log_density(grid)).reshape(gx.shape)
        integral = np.trapezoid(np.trapezoid(dens, ys, axis=1), xs)
        assert 0.9 <= integral <= 1.1


class TestInformation:
    def test_equals_negative_log_density(self, sine_model, sine_data):
        pts = sine_data[:500]
        assert np.array_equal(sine_model.information(pts), -sine_model.log_density(pts))

    def test_mode_less_informative_than_tail(self):
        data = np.random.default_rng(14).standard_normal((50000, 2))
        model = fit(data)
        mode = np.zeros((1, 2))
        tail = np.full((1, 2), 3.0)
        assert model.information(mode)[0] < model.information(tail)[0]

    def test_uniform_in_support_information_near_zero(self, uniform2d_model):
        pts = np.random.default_rng(15).uniform(0.05, 0.95, (20000, 2))
        assert np.mean(uniform2d_model.information(pts)) == pytest.approx(0.0, abs=0.15)


# Each entry point checks its input once; the column kernels check nothing.
ENTRY_POINTS = {
    "fit": lambda model, x: fit(x),
    "transform": lambda model, x: model.transform(x),
    "inverse": lambda model, x: model.inverse(x),
    "log_density": lambda model, x: model.log_density(x),
    "information": lambda model, x: model.information(x),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", sorted(ENTRY_POINTS))
    def test_entry_point_raises(self, sine_model, sine_data, call, bad):
        x = sine_data[:200].copy()
        x[137, 1] = bad
        with pytest.raises(NonFiniteInput, match="^data contains NaN or infinite values$"):
            ENTRY_POINTS[call](sine_model, x)


class TestSample:
    def test_seed_determinism(self, sine_model):
        a = sine_model.sample(1000, seed=42)
        b = sine_model.sample(1000, seed=42)
        assert np.array_equal(a, b)
        c = sine_model.sample(1000, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [True, 3.0, 0, -2, "5"])
    def test_rejects_bad_count(self, sine_model, n):
        message = f"n must be an integer >= 1, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sine_model.sample(n, seed=1)

    def test_accepts_numpy_count(self, sine_model):
        assert sine_model.sample(np.int64(3), seed=1).shape == (3, 2)

    def test_moment_match_rho08(self):
        data = equicorrelated_gaussian(100000, 2, 0.8, 16)
        model = fit(data, FitConfig(seed=16))
        synth = model.sample(100000, seed=17)
        assert np.corrcoef(synth.T)[0, 1] == pytest.approx(0.8, abs=0.03)
        assert np.allclose(synth.mean(axis=0), 0.0, atol=0.03)
        assert np.allclose(synth.var(axis=0), 1.0, atol=0.03)

    def test_support_containment_uniform(self, uniform2d_model):
        synth = uniform2d_model.sample(100000, seed=18)
        inside = np.all((synth >= -0.15) & (synth <= 1.15), axis=1)
        assert inside.mean() >= 0.99


def post_rotation_columns(model, x):
    """Each layer's output, rebuilt from the model's public pieces."""
    outputs = []
    for gaussianizers, rotation in zip(model.gaussianizers, model.rotation_entries):
        z = np.empty_like(x)  # the fit's layout, which rotate's rounding sees
        for j, g in enumerate(gaussianizers):
            z[:, j], _ = g.forward(x[:, j])
        x = rotate(rotation, z)
        outputs.append(x)
    return outputs


def cubed_column(n):
    return np.random.default_rng(0).standard_normal((n, 1)) ** 3


def check_layers_against_public_calls(x, model):
    """Each layer's delta-T, non-Gaussianity and tables, and the input's
    entropies, bit for bit as the standalone per-column calls give them."""
    x = np.asarray(x, dtype=float)
    bins = model.resolved_bins
    inputs = [x, *post_rotation_columns(model, x)]
    h_input = [marginal_entropy(x[:, j], bins) for j in range(model.dim)]
    assert same_bits(model.marginal_entropies_input, np.array(h_input))
    for i, gaussianizers in enumerate(model.gaussianizers):
        for j, g in enumerate(gaussianizers):
            table = fit_gaussianizer(inputs[i][:, j], bins).uniformizer
            assert same_bits(g.uniformizer.knots_x, table.knots_x)
            assert same_bits(g.uniformizer.knots_p, table.knots_p)
        y = inputs[i + 1]
        delta_t = non_gauss = 0.0
        for j in range(model.dim):
            delta_t += GAUSS_ENTROPY_BITS - marginal_entropy(y[:, j], bins)
            non_gauss += marginal_kl_to_standard_normal(y[:, j], bins)
        assert same_bits(model.delta_t[i], delta_t)
        assert same_bits(model.non_gaussianity[i], non_gauss)


# name: (data, config, converged).
CARRIED_CASES = {
    "sine": (lambda: noisy_sine(10000, seed=7), FitConfig(seed=2), True),
    "cubed": (lambda: cubed_column(20000), FitConfig(), True),
    "random-3": (
        lambda: equicorrelated_gaussian(5000, 3, 0.6, 48),
        FitConfig(rotation_kind="random", seed=49),
        True,
    ),
    # Every layer may be the last: no binning Gaussianizes the next layer.
    "patience-1": (lambda: noisy_sine(10000, seed=7), FitConfig(patience=1, seed=2), True),
    # Stopped by max_layers: the last layer's binning Gaussianizes nothing.
    "max-layers": (lambda: skewed(5000, 50), FitConfig(max_layers=3, tol_delta_t=1e-9), False),
}


class TestCarriedHistogram:
    """One histogram per column-layer: a layer's output counts give its
    delta-T, its non-Gaussianity and the next layer's tables, bit for bit as
    the standalone per-column calls on that output would."""

    @pytest.fixture(params=sorted(CARRIED_CASES), scope="class")
    def fitted(self, request):
        """The case's data and model, the fit's calls of
        ``MarginalGaussianizer.forward`` and of the forward kernel, and the
        warnings it raised."""
        make, config, _ = CARRIED_CASES[request.param]
        x = make()
        calls = {"forward": 0, "kernel": 0}
        forward, kernel = MarginalGaussianizer.forward, marginal.MarginalUniformizer._cdf

        def counted_forward(g, v):
            calls["forward"] += 1
            return forward(g, v)

        def counted_kernel(u, *args):
            calls["kernel"] += 1
            return kernel(u, *args)

        with pytest.MonkeyPatch.context() as m, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m.setattr(MarginalGaussianizer, "forward", counted_forward)
            m.setattr(marginal.MarginalUniformizer, "_cdf", counted_kernel)
            model = fit(x, config)
        return request.param, x, model, calls, [w.category for w in caught]

    def test_layer_sums_and_next_tables_match_public_calls(self, fitted):
        _, x, model, _, _ = fitted
        assert model.n_layers >= 2
        check_layers_against_public_calls(x, model)

    def test_each_layer_gaussianized_once(self, fitted):
        name, _, model, calls, warned = fitted
        converged = CARRIED_CASES[name][2]
        assert model.converged is converged
        assert warned == ([] if converged else [NotConvergedWarning])
        # MarginalGaussianizer.forward for the first layer only; the forward kernel
        # once per column-layer, and never for a layer past the last.
        assert calls["forward"] == model.dim
        assert calls["kernel"] == model.n_layers * model.dim

    def test_pooled_fit_matches_public_calls(self, both):
        # 2**15 rows: flow._POOL_MIN_ROWS, from which a fit pools unforced.
        x = skewed(2**15, 51)
        serial, pooled = both(lambda: fit(x))
        assert serial.to_dict() == pooled.to_dict()
        # Every layer after the first runs through the private column step.
        assert pooled.n_layers - 1 >= 2
        check_layers_against_public_calls(x, pooled)


class TestNonGaussianityTrace:
    def test_decays_for_sine(self, sine_model):
        trace = sine_model.non_gaussianity
        assert trace[-1] <= trace[0]
        assert trace[-1] <= 0.1 * trace[0]

    def test_standard_normal_input_small_everywhere(self):
        data = np.random.default_rng(19).standard_normal((100000, 3))
        model = fit(data)
        assert np.all(model.non_gaussianity <= 0.1)

    def test_length_matches_layers(self, sine_model):
        assert sine_model.non_gaussianity.size == sine_model.n_layers


def decoded(text, shape):
    """A format-5 block, decoded here independently of the loader."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(shape)


class TestSerialization:
    def test_roundtrip_reproduces_transform_bitwise(self, sine_model, sine_data, tmp_path):
        # A PCA fit, and a fit with random (Haar) rotations.
        haar = fit(sine_data, FitConfig(rotation_kind="random", seed=4))
        for model in (sine_model, haar):
            path = tmp_path / "model.json"
            model.save(path)
            loaded = GaussModel.load(path)
            z0, lj0 = model.transform(sine_data)
            z1, lj1 = loaded.transform(sine_data)
            assert np.array_equal(z0, z1)
            assert np.array_equal(lj0, lj1)
            assert np.array_equal(model.inverse(z0), loaded.inverse(z0))
            assert np.array_equal(model.sample(500, seed=5), loaded.sample(500, seed=5))

    def test_model_compares_by_identity(self, sine_model):
        # Field-wise == would compare arrays and raise on their truth value.
        reloaded = GaussModel.from_dict(sine_model.to_dict())
        assert (sine_model == reloaded) is False
        assert (sine_model != reloaded) is True
        assert sine_model == sine_model
        assert reloaded.to_dict() == sine_model.to_dict()

    def test_document_is_versioned(self, sine_model, tmp_path):
        path = tmp_path / "model.json"
        sine_model.save(path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "rbig-model"
        assert doc["version"] == 5
        assert set(doc["config"]) == {f.name for f in fields(FitConfig)}
        n, d, k = doc["n_layers"], doc["dim"], doc["resolved_bins"] + 3
        assert (n, d) == (sine_model.n_layers, 2)
        assert doc["clamp_eps"] == sine_model.clamp_eps
        assert doc["rank_deficient"] == [False] * n
        shapes = {
            "x_min": (n, d), "x_max": (n, d), "knots_p": (n, d, k),
            "rotation_entries": (n, d, d), "delta_t": (n,), "non_gaussianity": (n,),
            "marginal_entropies_input": (d,),
        }
        assert set(doc) == {
            "format", "version", "config", "converged", "n_layers", "dim", "resolved_bins",
            "clamp_eps", "rank_deficient", *shapes,
        }
        # Each block is stored as the model holds it, little-endian in C order.
        for name, shape in shapes.items():
            assert same_bits(decoded(doc[name], shape), getattr(sine_model, name)), name

    def test_layer_tables_are_views_of_its_blocks(self, sine_model):
        blocks = ("x_min", "x_max", "knots_p", "rotation_entries", "delta_t", "rank_deficient")
        assert not any(getattr(sine_model, name).flags.writeable for name in blocks)
        assert len(sine_model.gaussianizers) == sine_model.n_layers
        for i, gaussianizers in enumerate(sine_model.gaussianizers):
            assert len(gaussianizers) == sine_model.dim
            for j, g in enumerate(gaussianizers):
                u = g.uniformizer
                assert np.shares_memory(u.knots_p, sine_model.knots_p)
                assert u.knots_x[1] == sine_model.x_min[i, j]
                assert u.knots_x[-2] == sine_model.x_max[i, j]
                assert u.clamp_eps == sine_model.clamp_eps
            # Every table's knots are a row of one grid block.
            first, last = gaussianizers[0].uniformizer, gaussianizers[-1].uniformizer
            assert np.shares_memory(first.knots_x.base, last.knots_x)
        # Each kind of slope row is a read-only row of one (L, D, K - 1) block.
        shape = (*sine_model.knots_p.shape[:2], sine_model.knots_p.shape[2] - 1)
        for name in ("_dpdx", "_log_dpdx", "_dxdp"):
            block = getattr(sine_model.gaussianizers[0][0].uniformizer, name).base
            assert block.shape == shape
            for gaussianizers in sine_model.gaussianizers:
                for g in gaussianizers:
                    row = getattr(g.uniformizer, name)
                    assert row.base is block and not row.flags.writeable
        # The blocks are the model's one copy of its rotations.
        assert not hasattr(sine_model, "rotations")

    @pytest.mark.parametrize(
        "name",
        ["x_max", "knots_p", "rotation_entries", "delta_t", "non_gaussianity",
         "marginal_entropies_input"],
    )
    def test_model_rejects_block_of_wrong_shape(self, sine_model, name):
        # Such a model would save a file that load refuses.
        block = getattr(sine_model, name)
        message = f"^{name} must have shape {re.escape(str(block.shape))}, got "
        with pytest.raises(ValueError, match=message):
            replace(sine_model, **{name: block[:-1]})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"x_min": np.zeros(2)}, "x_min must have shape (L, D) with L, D >= 1, got (2,)"),
            ({"knots_p": np.zeros((3, 2, 4))},
             "knots_p must have shape (L, D, K) with K >= 5, got (3, 2, 4)"),
            ({"rank_deficient": [False]}, "rank_deficient must be {L} booleans, got [False]"),
            ({"rank_deficient": "no"}, "rank_deficient must be {L} booleans, got 'no'"),
            ({"clamp_eps": 0.5}, "clamp_eps must be a number in [1e-07, 0.5), got 0.5"),
            ({"clamp_eps": None}, "clamp_eps must be a finite number, got None"),
            # Below the floor, 1 - clamp_eps can round to 1 and send a
            # query's probit to inf.
            ({"clamp_eps": 5e-8}, "clamp_eps must be a number in [1e-07, 0.5), got 5e-08"),
            ({"clamp_eps": 1e-20}, "clamp_eps must be a number in [1e-07, 0.5), got 1e-20"),
            # Each would build a model whose save or load fails.
            ({"converged": "yes"}, "converged must be true or false, got 'yes'"),
            ({"converged": 1}, "converged must be true or false, got 1"),
            ({"config": None}, "config must be a FitConfig, got None"),
            ({"config": {"seed": 2}}, "config must be a FitConfig, got {'seed': 2}"),
        ],
        ids=["flat-x-min", "four-knots", "short-rank-deficient", "string-rank-deficient",
             "half-clamp", "null-clamp", "below-floor-clamp", "tiny-clamp", "string-converged",
             "int-converged", "null-config", "dict-config"],
    )
    def test_model_rejects_bad_fields(self, sine_model, change, message):
        message = message.replace("{L}", str(sine_model.n_layers))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(sine_model, **change)

    def test_model_names_bad_item(self, sine_model):
        delta_t = sine_model.delta_t.copy()
        delta_t[1] = math.nan
        with pytest.raises(ValueError, match=r"^delta_t\[1\] must be a finite number, got nan$"):
            replace(sine_model, delta_t=delta_t)

    @pytest.mark.parametrize(
        "kind, n_layers, deficient",
        [("pca", 1, False), ("pca", 2, False), ("pca", 3, False), ("random", 1, False),
         ("random", 2, False), ("random", 3, False), ("pca", 1, True)],
        ids=["pca-1", "pca-2", "pca-3", "random-1", "random-2", "random-3", "pca-rank-deficient"],
    )
    def test_round_trip_keeps_every_block(self, tmp_path, kind, n_layers, deficient):
        x = skewed(2000, 42)
        if deficient:
            x[:, 2] = x[:, 1]  # a duplicated column: a degenerate PCA spectrum
        # Every layer is below tolerance, so the fit stops after n_layers.
        config = FitConfig(
            rotation_kind=kind, max_layers=n_layers, patience=n_layers, tol_delta_t=1e3, seed=43
        )
        if deficient:
            with pytest.warns(rbig.RankDeficientWarning):
                model = fit(x, config)
        else:
            model = fit(x, config)
        assert model.n_layers == n_layers
        assert model.rank_deficient.tolist() == [deficient] * n_layers
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        model.save(first)
        loaded = GaussModel.load(first)
        for name in ("x_min", "x_max", "knots_p", "rotation_entries", "rank_deficient",
                     "delta_t", "delta_t_trace", "non_gaussianity", "marginal_entropies_input"):
            assert same_bits(getattr(loaded, name), getattr(model, name)), name
        assert (loaded.clamp_eps, loaded.config, loaded.converged) == (
            model.clamp_eps, model.config, model.converged
        )
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()
        doc = json.loads(first.read_text())
        doc["version"] = 4
        with pytest.raises(ValueError, match="^unsupported model version: 4$"):
            GaussModel.from_dict(doc)

    def test_numpy_bool_converged_stored_as_bool(self, sine_model, tmp_path):
        model = replace(sine_model, converged=np.False_)
        assert model.converged is False
        model.save(tmp_path / "model.json")
        assert GaussModel.load(tmp_path / "model.json").converged is False

    def test_failed_save_keeps_earlier_file(self, sine_model, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        sine_model.save(path)
        before = path.read_bytes()
        # One block is not JSON: encoding fails midway, after the fields
        # sorted before it (knots_p among them) have been written.
        encode, last = flow._encode, sine_model.marginal_entropies_input
        monkeypatch.setattr(flow, "_encode", lambda a: object() if a is last else encode(a))
        with pytest.raises(TypeError, match="not JSON serializable"):
            sine_model.save(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]

    def test_failed_write_keeps_earlier_file(self, sine_model, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        sine_model.save(path)
        before = path.read_bytes()
        room = len(before) // 2
        files = []

        class HalfFullDisk:
            """A text file that takes ``room`` characters, then raises."""

            def __init__(self, fh):
                self.fh = fh
                self.size = 0
                files.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                fits = text[: room - self.size]
                self.fh.write(fits)
                self.size += len(fits)
                if len(fits) < len(text):
                    raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(flow, "open", lambda *a, **k: HalfFullDisk(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            sine_model.save(path)
        assert [f.size for f in files] == [room]
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]

    @pytest.mark.parametrize("target", ["missing/model.json", "dir.json"])
    def test_failed_save_names_the_target(self, sine_model, tmp_path, target):
        (tmp_path / "dir.json").mkdir()
        path = tmp_path / target
        with pytest.raises(OSError) as info:
            sine_model.save(path)
        assert str(info.value).endswith(f": {str(path)!r}")
        assert ".tmp" not in str(info.value) and "\n" not in str(info.value)
        assert sorted(os.listdir(tmp_path)) == ["dir.json"]
        assert os.listdir(tmp_path / "dir.json") == []

    def test_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            GaussModel.load(path)

    def test_save_is_deterministic(self, sine_model, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        sine_model.save(a)
        sine_model.save(b)
        assert a.read_bytes() == b.read_bytes()


# Finite float64 values: signed zero, subnormals, values near the float
# limit, and random bit patterns.
finite_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.1e-308, 1.7e308, -1.7e308]),
    st.integers(0, 2**64 - 1)
    .map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
    .filter(math.isfinite),
)


class TestArrayField:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 40)), st.tuples(st.integers(1, 8), st.integers(1, 8))
        ),
        data=st.data(),
    )
    def test_decodes_the_encoded_bits(self, shape, data):
        size = math.prod(shape)
        values = data.draw(st.lists(finite_floats, min_size=size, max_size=size))
        a = np.array(values, dtype=np.float64).reshape(shape)
        text = base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")
        assert same_bits(flow._array(text, shape, "x"), a)

    def test_length_checked_before_decoding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decoded")

        monkeypatch.setattr(flow.base64, "b64decode", refuse)
        with pytest.raises(ValueError, match=r"x must be the base64 of 10000000000 float64"):
            flow._array("AAAAAAAAAAA=", (10**10,), "x")


class TestDeterminism:
    def test_fit_bit_reproducible(self):
        data = equicorrelated_gaussian(20000, 2, 0.5, 20)
        m1 = fit(data, FitConfig(seed=21))
        m2 = fit(data, FitConfig(seed=21))
        assert m1.to_dict() == m2.to_dict()

    def test_random_rotation_fit_reproducible(self):
        data = equicorrelated_gaussian(5000, 2, 0.5, 22)
        cfg = FitConfig(rotation_kind="random", seed=23)
        assert fit(data, cfg).to_dict() == fit(data, cfg).to_dict()


def skewed(n, seed):
    """N x 3 rows: a correlated Gaussian with one log-normal column."""
    x = equicorrelated_gaussian(n, 3, 0.6, seed)
    x[:, 0] = np.exp(x[:, 0])
    return x


def wide(n, seed, d):
    """N x d rows: a correlated Gaussian with every other column
    log-normal."""
    x = equicorrelated_gaussian(n, d, 0.6, seed)
    x[:, ::2] = np.exp(x[:, ::2])
    return x


# Two layers, each far below tolerance: converged, with no warning.
WIDE = FitConfig(tol_delta_t=1e3, patience=2, max_layers=2)

# The name prefix of every worker thread the library starts.
WORKER_PREFIX = "rbig-workers"


@pytest.fixture
def pools(monkeypatch):
    """The worker pools the library makes during the test, in order; each
    counts the tasks submitted to it, columns or rotation chunks."""
    made = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            # worker_threads() finds the threads by this prefix alone.
            assert kwargs.get("thread_name_prefix") == WORKER_PREFIX
            super().__init__(*args, **kwargs)
            self.tasks = 0
            made.append(self)

        def submit(self, *args, **kwargs):
            self.tasks += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(flow, "ThreadPoolExecutor", RecordedPool)
    return made


def force_workers(m, workers=4):
    """Pool every call's tasks, whatever its row count, on ``workers``
    workers (4 by default, more than the CPUs of a small host)."""
    m.setattr(flow, "_POOL_MIN_ROWS", 1)
    m.setattr(flow, "_cpu_count", lambda: workers)


def worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith(WORKER_PREFIX)]


@pytest.fixture
def both(monkeypatch, pools):
    """``run(fn)`` returns ``fn()`` run serially, then on workers.

    The serial run sees one CPU and makes no pool.  The pooled run takes
    every call's tasks (columns, rotation chunks) on 4 workers
    with a short thread switch interval, so workers interleave often.
    """

    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(flow, "_cpu_count", lambda: 1)
            serial = fn()
        assert not pools, "the serial run made a pool"
        interval = sys.getswitchinterval()
        with monkeypatch.context() as m:
            force_workers(m)
            sys.setswitchinterval(1e-6)
            try:
                pooled = fn()
            finally:
                sys.setswitchinterval(interval)
        assert any(pool.tasks for pool in pools), "no task ran on workers"
        assert not worker_threads(), "a worker outlived its call"
        return serial, pooled

    return run


def unbinnable(x):
    """A copy of ``x`` whose column 1 takes three values 2 apart at 2**53, one
    ulp there: no equal-width bins of positive width fit its range, so the
    column worker that bins it raises."""
    x = x.copy()
    x[:, 1] = 2.0**53 + 2.0 * (np.arange(len(x)) % 3)
    return x


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


PCA_AND_HAAR = pytest.mark.parametrize("kind", ["pca", "random"])


class TestColumnPool:
    """The worker pool, running column tasks and a query's rotation chunks."""

    @PCA_AND_HAAR
    def test_fit_saves_same_bytes(self, both, kind, tmp_path):
        x = skewed(3000, 31)
        serial, pooled = both(lambda: fit(x, FitConfig(rotation_kind=kind, seed=32)))
        serial.save(tmp_path / "serial.json")
        pooled.save(tmp_path / "pooled.json")
        assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "pooled.json").read_bytes()

    @PCA_AND_HAAR
    def test_queries_bit_identical(self, both, kind):
        model = fit(skewed(3000, 33), FitConfig(rotation_kind=kind, seed=34))
        # Scaled out of the training support, so the tails run too.
        q = 1.5 * skewed(2000, 35)

        def queries():
            z, logjac = model.transform(q)
            return z, logjac, model.log_density(q), model.inverse(z), model.sample(1000, seed=36)

        serial, pooled = both(queries)
        for a, b in zip(serial, pooled):
            assert same_bits(a, b)

    def test_logjac_summed_in_column_order_when_columns_finish_out_of_order(
        self, both, monkeypatch
    ):
        x = skewed(3000, 37)
        model = fit(x, FitConfig(seed=38))
        rank = {id(g): j for row in model.gaussianizers for j, g in enumerate(row)}
        forward = MarginalGaussianizer.forward

        def first_columns_last(self, v):
            time.sleep(0.01 * (model.dim - rank[id(self)]))
            return forward(self, v)

        monkeypatch.setattr(MarginalGaussianizer, "forward", first_columns_last)
        serial, pooled = both(lambda: model.transform(x))
        assert same_bits(serial[1], pooled[1])

    def test_rotation_chunks_finishing_out_of_order_keep_serial_bits(
        self, both, monkeypatch
    ):
        model = fit(wide(3000, 37, 49), replace(WIDE, seed=38))
        # 3 chunks at 49 columns.
        q = wide(3 * flow._CHUNK_ROWS + 13, 39, 49)
        rotate_rows = flow.rotate
        finished = []
        others = []
        others_done = threading.Event()
        lock = threading.Lock()

        def first_chunk_last(rotation, z):
            # On workers, the chunk holding row 0 of the working array waits
            # for the layer's 2 others.
            first = z.ctypes.data == z.base.ctypes.data
            on_worker = threading.current_thread().name.startswith(WORKER_PREFIX)
            if first and on_worker:
                assert others_done.wait(30), "the other chunks did not finish"
                others_done.clear()
            rotated = rotate_rows(rotation, z)
            with lock:
                finished.append(first)
                if on_worker and not first:
                    others.append(z)
                    if len(others) % 2 == 0:
                        others_done.set()
            return rotated

        monkeypatch.setattr(flow, "rotate", first_chunk_last)
        serial, pooled = both(lambda: model.transform(q))
        # Serially the chunks finish in row order, on workers the first last.
        layers = model.n_layers
        assert finished == [True, False, False] * layers + [False, False, True] * layers
        assert same_bits(serial[0], pooled[0]) and same_bits(serial[1], pooled[1])

    def test_mutual_information_bit_identical(self, both):
        d = skewed(3000, 39)
        serial, pooled = both(lambda: mutual_information(d[:, :2], d[:, 2]).raw_value_bits)
        assert serial == pooled

    @pytest.mark.parametrize("d", [1, 3])
    def test_fit_bins_each_column_once_per_layer(self, both, monkeypatch, d):
        # Twice for the input (its entropies and the first tables), then
        # once per column-layer.  A one-column fit never pools.
        passes = []
        bin_counts = marginal._bin_counts

        def counted(x, grid):
            passes.append(1)
            return bin_counts(x, grid)

        monkeypatch.setattr(marginal, "_bin_counts", counted)
        x = cubed_column(20000) if d == 1 else skewed(3000, 47)

        def counted_fit():
            passes.clear()
            model = fit(x)
            return model.n_layers, len(passes)

        runs = [counted_fit()] if d == 1 else both(counted_fit)
        for n_layers, n_passes in runs:
            assert n_layers >= 2
            assert n_passes == 2 * d + n_layers * d

    def test_fit_error_same_through_pool(self, both):
        x = unbinnable(np.random.default_rng(40).standard_normal((12, 3)))

        def error():
            with pytest.raises(ValueError) as info:
                fit(x)
            return type(info.value), str(info.value)

        serial, pooled = both(error)
        assert serial == pooled == (
            ValueError,
            "column 1: cannot make 3 bins of positive width"
            " over [9007199254740992.0, 9007199254740996.0]",
        )

    def test_first_failing_column_raises_and_pending_columns_are_cancelled(
        self, monkeypatch, pools
    ):
        monkeypatch.setattr(flow, "_cpu_count", lambda: 4)
        started = []
        on_workers = []

        def task(j):
            started.append(j)
            on_workers.append(threading.current_thread().name.startswith(WORKER_PREFIX))
            # Task 3 fails first in time; task 1 fails first in order.
            time.sleep(0.05 if j == 1 else 0.002)
            if j in (1, 3):
                raise ValueError(f"task {j}")
            return j

        with pytest.raises(ValueError, match="^task 1$"):
            with flow._workers(flow._POOL_MIN_ROWS, 1000) as map_tasks:
                list(map_tasks(task, range(1000)))
        assert len(pools) == 1 and all(on_workers)
        assert len(started) < 1000
        # Running tasks were waited for: none is left to start or finish.
        assert not worker_threads()

    def test_single_cpu_makes_no_pool(self, monkeypatch, pools):
        monkeypatch.setattr(flow.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(flow, "_POOL_MIN_ROWS", 1)
        model = fit(skewed(500, 41))
        model.inverse(model.transform(skewed(500, 42))[0])
        model.sample(500, seed=1)
        assert not pools

    @pytest.mark.parametrize("call", ["fit", "transform", "inverse", "sample"])
    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_worker_outlives_its_call(self, monkeypatch, pools, call, fails):
        x = skewed(3000, 43)
        model = fit(x)
        z, _ = model.transform(x)
        if call == "fit" and fails:
            x = unbinnable(x)
        elif fails:
            def broken(self, v):
                raise ValueError("broken column")

            kernel = "forward" if call == "transform" else "inverse"
            monkeypatch.setattr(MarginalGaussianizer, kernel, broken)
        run = {"fit": lambda: fit(x), "transform": lambda: model.transform(x),
               "inverse": lambda: model.inverse(z),
               "sample": lambda: model.sample(len(x), seed=1)}[call]
        with monkeypatch.context() as m:
            force_workers(m)
            if fails:
                with pytest.raises(ValueError):
                    run()
            else:
                run()
        assert len(pools) == 1 and pools[0].tasks >= 2
        assert not worker_threads()

    def test_concurrent_transforms_each_get_serial_bits(self, monkeypatch, pools):
        model = fit(skewed(3000, 44), FitConfig(seed=45))
        q = 1.5 * skewed(2000, 46)
        serial = model.transform(q)
        barrier = threading.Barrier(2)
        results = [None, None]

        def call(i):
            barrier.wait()
            results[i] = model.transform(q)

        interval = sys.getswitchinterval()
        with monkeypatch.context() as m:
            force_workers(m)
            sys.setswitchinterval(1e-6)
            try:
                callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(60)
                    assert not t.is_alive()
            finally:
                sys.setswitchinterval(interval)
        # One pool per call, so neither caller waits on the other's workers.
        assert len(pools) == 2 and all(pool.tasks for pool in pools)
        for result in results:
            assert same_bits(result[0], serial[0]) and same_bits(result[1], serial[1])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_can_transform(self):
        # The parent's pooled calls have left no worker behind, so a forked
        # child runs its own workers and gets the parent's bits.
        script = (
            "import os\n"
            "import signal\n"
            "import numpy as np\n"
            "from rbig import fit, flow\n"
            "flow._POOL_MIN_ROWS = 1\n"
            "flow._cpu_count = lambda: 2\n"
            "x = np.random.default_rng(0).standard_normal((500, 3))\n"
            "model = fit(x)\n"
            "z, logjac = model.transform(x)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    z2, logjac2 = model.transform(x)\n"
            "    same = z2.tobytes() == z.tobytes() and logjac2.tobytes() == logjac.tobytes()\n"
            "    os._exit(0 if same else 1)\n"
            "_, status = os.waitpid(pid, 0)\n"
            "raise SystemExit(os.waitstatus_to_exitcode(status))\n"
        )
        src = os.path.dirname(os.path.dirname(rbig.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
        assert result.returncode == 0


# (columns, rows): each N spans 2 or more rotation chunks, the last one
# longer than the others.
CHUNKED_CASES = [(5, 100_001), (16, 12_301), (49, 12_301)]


@pytest.fixture(scope="module", params=CHUNKED_CASES, ids=lambda c: f"{c[0]}x{c[1]}")
def chunked_case(request):
    d, n = request.param
    model = fit(wide(3000, 60, d), replace(WIDE, seed=61))
    # Every other row far out of the training support: tails and clamps run.
    q = wide(n, 62, d)
    q[::2] *= 3.0
    return model, q


def whole_matrix_transform(model, x):
    """transform's z and logjac with each layer's rotation done on the whole
    matrix at once, from the model's public pieces."""
    logjac = np.zeros(len(x))
    for gaussianizers, rotation in zip(model.gaussianizers, model.rotation_entries):
        z = np.empty(x.shape, order="F")
        for j, g in enumerate(gaussianizers):
            z[:, j], lj = g.forward(x[:, j])
            logjac += lj
        x = rotate(rotation, z)
    return x, logjac


class TestRotationChunks:
    """A query rotates its rows in chunks cut the same way for every worker
    count; a BLAS that gives a row other bits in a chunk than in the whole
    product fails here."""

    @pytest.mark.parametrize("n", [1, 4095, 8191, 8192, 12_301, 100_001])
    @pytest.mark.parametrize("d", [1, 2, 5, 15, 16, 49])
    def test_chunks_cover_rows_at_fixed_cuts(self, n, d):
        chunks = flow._rotation_chunks(n, d)
        assert chunks[0].start == 0 and chunks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        size = chunks[0].stop
        if len(chunks) > 1:
            # Every chunk but the last has one size, a multiple of
            # _CHUNK_ROWS whose product holds 2**20 multiply-adds or more.
            assert size % flow._CHUNK_ROWS == 0 and size * d * d >= 2**20
            assert (size - flow._CHUNK_ROWS) * d * d < 2**20
            assert all(c.stop - c.start == size for c in chunks[:-1])
            assert size <= chunks[-1].stop - chunks[-1].start < 2 * size

    def test_serial_call_matches_whole_matrix_rotations(self, chunked_case):
        model, q = chunked_case
        assert len(flow._rotation_chunks(*q.shape)) >= 2
        z, logjac = model.transform(q)
        whole_z, whole_logjac = whole_matrix_transform(model, q)
        assert same_bits(z, whole_z) and same_bits(logjac, whole_logjac)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_workers_match_serial_call(self, chunked_case, monkeypatch, pools, workers):
        model, q = chunked_case

        def queries():
            z, logjac = model.transform(q)
            return z, logjac, model.log_density(q), model.inverse(z), model.sample(len(q), 63)

        with monkeypatch.context() as m:
            m.setattr(flow, "_cpu_count", lambda: 1)
            serial = queries()
        with monkeypatch.context() as m:
            force_workers(m, workers)
            pooled = queries()
        # transform, log_density, inverse and sample: one pool each.
        assert [pool.tasks >= 2 for pool in pools] == [True] * 4 * (workers > 1)
        for a, b in zip(serial, pooled):
            assert same_bits(a, b)
