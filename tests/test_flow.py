import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import kstest

import rbig
from rbig import (
    DegenerateDimension,
    DimensionMismatch,
    FitConfig,
    GAUSS_ENTROPY_BITS,
    GaussModel,
    MarginalGaussianizer,
    MarginalUniformizer,
    NotConvergedWarning,
    fit,
)
from rbig.synth import equicorrelated_gaussian, gaussian_mixture, noisy_sine


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
        ],
    )
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})

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

    def test_not_converged_warns(self):
        data = equicorrelated_gaussian(5000, 2, 0.8, 3)
        # layer 1 removes ~0.74 bits, far above tol, so patience=2 cannot be met
        with pytest.warns(NotConvergedWarning):
            model = fit(data, FitConfig(max_layers=2, patience=2, tol_delta_t=1e-9))
        assert not model.converged
        assert model.n_layers == 2

    def test_total_correlation_is_sum_of_layer_deltas(self, rho09_model):
        total = sum(layer.delta_t for layer in rho09_model.layers)
        assert abs(rho09_model.total_correlation - total) <= 1e-9

    def test_random_rotation_fit_converges(self):
        data = equicorrelated_gaussian(20000, 2, 0.5, 4)
        model = fit(data, FitConfig(rotation_kind="random", seed=5, max_layers=200))
        true_t = -0.5 * math.log2(1 - 0.25)
        assert model.total_correlation == pytest.approx(true_t, abs=0.1)

    def test_cumulative_delta_t_nearly_monotone(self, sine_model):
        tol = sine_model.config.tol_delta_t
        assert np.all(sine_model.delta_t_trace >= -2 * tol)


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
        for layer in sine_model.layers:
            z = np.empty_like(x)
            for j, g in enumerate(layer.gaussianizers):
                z[:, j], lj = g.forward(x[:, j])
                acc += lj
            x = rbig.rotate(layer.rotation, z)
        assert np.max(np.abs(acc - total)) <= 1e-9

    def test_dimension_mismatch(self, sine_model):
        with pytest.raises(DimensionMismatch):
            sine_model.transform(np.zeros((10, 3)))


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


class TestSample:
    def test_seed_determinism(self, sine_model):
        a = sine_model.sample(1000, seed=42)
        b = sine_model.sample(1000, seed=42)
        assert np.array_equal(a, b)
        c = sine_model.sample(1000, seed=43)
        assert not np.array_equal(a, c)

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


def move_third_knot(u):
    kx = u.knots_x.copy()
    kx[3] = 0.5 * (kx[3] + kx[4])
    return MarginalUniformizer(kx, u.knots_p, u.clamp_eps)


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

    def test_document_is_versioned(self, sine_model, tmp_path):
        path = tmp_path / "model.json"
        sine_model.save(path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "rbig-model"
        assert doc["version"] == 3
        assert set(doc["config"]) == {f.name for f in fields(FitConfig)}
        for layer in doc["layers"]:
            assert set(layer) == {"delta_t", "rotation", "x_min", "x_max", "knots_p"}

    @pytest.mark.parametrize(
        "edit, message",
        [
            (move_third_knot, "knots_x is not the knot grid"),
            (lambda u: MarginalUniformizer(u.knots_x, u.knots_p, 0.25),
             "clamp_eps 0.25 differs"),
        ],
        ids=["off-grid", "own-clamp"],
    )
    def test_save_rejects_table_the_file_cannot_hold(self, sine_model, tmp_path, edit, message):
        # Saved as x_min/x_max and one clamp, it would reload as another model.
        layer = sine_model.layers[1]
        first = MarginalGaussianizer(edit(layer.gaussianizers[0].uniformizer))
        layers = list(sine_model.layers)
        layers[1] = replace(layer, gaussianizers=(first,) + layer.gaussianizers[1:])
        model = replace(sine_model, layers=tuple(layers))
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match=f"^layer 1 column 0: {message}"):
            model.save(path)
        assert not path.exists()

    def test_failed_save_keeps_earlier_file(self, sine_model, tmp_path):
        path = tmp_path / "model.json"
        sine_model.save(path)
        before = path.read_bytes()
        layers = list(sine_model.layers)
        layers[0] = replace(layers[0], delta_t=np.float32(0.5))
        with pytest.raises(TypeError, match="not JSON serializable"):
            replace(sine_model, layers=tuple(layers)).save(path)
        assert path.read_bytes() == before

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
