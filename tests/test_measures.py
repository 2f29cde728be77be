import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rbig import (
    DegenerateDimension,
    FitConfig,
    GAUSS_ENTROPY_BITS,
    ITReport,
    NonFiniteInput,
    NotConvergedWarning,
    PairedLengthMismatch,
    RankDeficientWarning,
    entropy,
    fit,
    mutual_information,
    total_correlation,
)
from rbig.synth import equicorrelated_gaussian


def gaussian_tc_bits(corr: np.ndarray) -> float:
    # Closed-form oracle: T of a Gaussian is -0.5*log2 det(correlation).
    return -0.5 * math.log2(np.linalg.det(corr))


class TestTotalCorrelation:
    def test_independent_uniform_near_zero(self):
        data = np.random.default_rng(0).uniform(0, 1, (100000, 4))
        report = total_correlation(data)
        assert report.quantity == "total_correlation"
        assert report.value_bits == pytest.approx(0.0, abs=0.1)

    def test_bivariate_gaussian_rho05(self):
        data = equicorrelated_gaussian(50000, 2, 0.5, 1)
        report = total_correlation(data)
        oracle = gaussian_tc_bits(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert report.value_bits == pytest.approx(oracle, abs=0.05)

    def test_equicorrelated_4d(self):
        corr = np.full((4, 4), 0.4)
        np.fill_diagonal(corr, 1.0)
        data = equicorrelated_gaussian(50000, dim=4, rho=0.4, seed=2)
        report = total_correlation(data)
        assert report.value_bits == pytest.approx(gaussian_tc_bits(corr), abs=0.15)

    def test_clamped_with_raw_retained(self):
        # Independent data can give a slightly negative raw estimate.
        reports = [
            total_correlation(np.random.default_rng(s).standard_normal((5000, 2)))
            for s in range(10)
        ]
        for report in reports:
            assert report.value_bits >= 0.0
            assert report.raw_value_bits >= -2 * report.config.tol_delta_t
            if report.raw_value_bits >= 0:
                assert report.value_bits == report.raw_value_bits

    def test_per_layer_trace_sums_to_raw(self):
        data = equicorrelated_gaussian(20000, 2, 0.7, 3)
        report = total_correlation(data)
        assert sum(report.per_layer_delta_t) == pytest.approx(
            report.raw_value_bits, abs=1e-9
        )


class TestEntropy:
    def test_heavy_tailed_column(self):
        # h(X**3) = h(X) + log2(3) + 2 E[log2|X|] for X ~ N(0, 1), where
        # E[ln|X|] = -(euler_gamma + ln 2) / 2.
        euler_gamma = 0.5772156649015329
        true_h = (
            GAUSS_ENTROPY_BITS + math.log2(3) - (euler_gamma + math.log(2)) / math.log(2)
        )
        x = np.random.default_rng(0).standard_normal((100000, 1))
        report = entropy(x**3)
        assert report.converged
        assert len(report.per_layer_delta_t) >= 2
        assert report.value_bits == pytest.approx(true_h, abs=0.03)

    def test_standard_normal_3d(self):
        data = np.random.default_rng(4).standard_normal((100000, 3))
        report = entropy(data)
        assert report.value_bits == pytest.approx(3 * GAUSS_ENTROPY_BITS, abs=0.15)

    def test_unit_uniform_2d(self):
        data = np.random.default_rng(5).uniform(0, 1, (100000, 2))
        report = entropy(data)
        assert report.value_bits == pytest.approx(0.0, abs=0.1)

    def test_correlated_gaussian_rho09(self):
        data = equicorrelated_gaussian(100000, 2, 0.9, 6)
        report = entropy(data)
        oracle = 2 * GAUSS_ENTROPY_BITS - (-0.5 * math.log2(1 - 0.81))
        assert report.value_bits == pytest.approx(oracle, abs=0.15)

    def test_negative_entropy_not_clamped(self):
        data = np.random.default_rng(7).uniform(0, 0.25, (50000, 2))
        report = entropy(data)
        # true H = 2*log2(0.25) = -4 bits
        assert report.value_bits == pytest.approx(-4.0, abs=0.15)
        assert report.value_bits == report.raw_value_bits

    def test_rotation_invariance(self):
        data = equicorrelated_gaussian(100000, 2, 0.6, 8)
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        h0 = entropy(data).value_bits
        h1 = entropy(data @ rot.T).value_bits
        assert abs(h0 - h1) <= 0.15


class TestMutualInformation:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50000, 2))
        y = rng.standard_normal((50000, 3))
        report = mutual_information(x, y)
        assert report.value_bits == pytest.approx(0.0, abs=0.1)
        assert report.dim == 5

    def test_gaussian_pair_rho09(self):
        data = equicorrelated_gaussian(100000, 2, 0.9, 10)
        report = mutual_information(data[:, :1], data[:, 1:])
        assert report.value_bits == pytest.approx(-0.5 * math.log2(1 - 0.81), abs=0.1)

    def test_one_dimensional_inputs_are_columns(self):
        data = equicorrelated_gaussian(20000, 2, 0.5, 21)
        x, y = data[:, 0], data[:, 1]
        report = mutual_information(x, y)
        assert report.dim == 2
        assert report.value_bits == pytest.approx(-0.5 * math.log2(1 - 0.25), abs=0.05)
        columns = mutual_information(x[:, None], y[:, None])
        assert report.raw_value_bits == columns.raw_value_bits

    def test_identical_data_large_and_growing(self):
        values = []
        for n in (2000, 20000):
            x = np.random.default_rng(11).standard_normal((n, 1))
            with pytest.warns(RankDeficientWarning):
                values.append(mutual_information(x, x).value_bits)
        assert values[0] > 3.0
        # The rounding-noise direction's entropy is floored at log2 of the
        # clamp, 1/(2N), so ten times the rows adds log2(10) bits.
        assert values[1] - values[0] == pytest.approx(math.log2(10), abs=0.1)

    def test_converged_covers_each_side(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-3, 3, 10000)
        x = np.column_stack([t, np.sin(t)])
        y = rng.standard_normal((10000, 1))
        config = FitConfig(max_layers=5, patience=1)
        with pytest.warns(NotConvergedWarning):
            side = fit(x, config)
        joint = fit(np.hstack([side.transform(x)[0], fit(y, config).transform(y)[0]]), config)
        assert joint.converged
        with pytest.warns(NotConvergedWarning):
            report = mutual_information(x, y, config)
        assert not report.converged

    def test_paired_length_mismatch(self):
        with pytest.raises(PairedLengthMismatch):
            mutual_information(np.zeros((100, 1)), np.zeros((99, 1)))

    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize(
        "value, error, message",
        [
            (math.nan, NonFiniteInput, "sample contains NaN or infinite values"),
            (math.inf, NonFiniteInput, "sample contains NaN or infinite values"),
            (None, DegenerateDimension, "sample has zero range"),
        ],
        ids=["nan", "inf", "constant"],
    )
    def test_bad_column_names_its_side(self, side, value, error, message):
        # x has 2 columns and y 1: each side names its own last column.
        pair = {"x": np.random.default_rng(30).standard_normal((50, 2)),
                "y": np.random.default_rng(31).standard_normal((50, 1))}
        bad = pair[side]
        if value is None:
            bad[:, -1] = 2.5
        else:
            bad[7, -1] = value
        with pytest.raises(error) as info:
            mutual_information(pair["x"], pair["y"])
        assert str(info.value) == f"{side}: column {bad.shape[1] - 1}: {message}"

    def test_symmetry(self):
        data = equicorrelated_gaussian(50000, 2, 0.7, 12)
        x, y = data[:, :1], data[:, 1:]
        a = mutual_information(x, y).value_bits
        b = mutual_information(y, x).value_bits
        assert abs(a - b) <= 0.05

    def test_monotone_in_coupling(self):
        values = []
        for rho in (0.1, 0.5, 0.9):
            data = equicorrelated_gaussian(50000, 2, rho, 13)
            values.append(mutual_information(data[:, :1], data[:, 1:]).value_bits)
        assert values[0] < values[1] < values[2]

    def test_reparameterization_invariance(self):
        data = equicorrelated_gaussian(100000, 2, 0.8, 14)
        x, y = data[:, :1], data[:, 1:]
        base = mutual_information(x, y).value_bits
        cubed = mutual_information(x**3, y).value_bits
        warped = mutual_information(np.exp(x), y).value_bits
        assert abs(base - cubed) <= 0.1
        assert abs(base - warped) <= 0.1

    def test_venn_consistency(self):
        data = equicorrelated_gaussian(100000, 2, 0.8, 15)
        x, y = data[:, :1], data[:, 1:]
        mi = mutual_information(x, y).value_bits
        hx = entropy(x).value_bits
        hy = entropy(y).value_bits
        hxy = entropy(data).value_bits
        assert abs(mi - (hx + hy - hxy)) <= 0.15


class TestITReport:
    def test_json_roundtrip(self):
        data = equicorrelated_gaussian(20000, 2, 0.5, 16)
        report = total_correlation(data, FitConfig(seed=16))
        doc = json.loads(report.to_json())
        back = ITReport.from_dict(doc)
        assert back == report

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c.update(tail_fraction=0.1), "^tail_fraction is not a config field$"),
            (lambda c: c.pop("seed"), "^config field seed is missing$"),
        ],
        ids=["removed-key", "missing-key"],
    )
    def test_config_keys_checked(self, edit, message):
        report = total_correlation(equicorrelated_gaussian(2000, 2, 0.5, 16))
        doc = json.loads(report.to_json())
        edit(doc["config"])
        with pytest.raises(ValueError, match=message):
            ITReport.from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.pop("value_bits"), "^report field value_bits is missing$"),
            (lambda doc: doc.update(value_nats=0.1), "^value_nats is not a report field$"),
            (lambda doc: doc.update(quantity="entropy_nats"),
             "^unknown quantity: 'entropy_nats'$"),
            (lambda doc: doc.update(value_bits=True),
             "^value_bits must be a finite number, got True$"),
            (lambda doc: doc.update(raw_value_bits=None),
             "^raw_value_bits must be a finite number, got None$"),
            (lambda doc: doc.update(per_layer_delta_t="abc"),
             "^per_layer_delta_t must be a list, got 'abc'$"),
            (lambda doc: doc.update(per_layer_delta_t=[0.1, None]),
             r"^per_layer_delta_t\[1\] must be a finite number, got None$"),
            (lambda doc: doc.update(n_samples=0), "^n_samples must be an integer >= 1, got 0$"),
            (lambda doc: doc.update(dim="two"), "^dim must be an integer >= 1, got 'two'$"),
            (lambda doc: doc.update(converged="yes"),
             "^converged must be true or false, got 'yes'$"),
        ],
        ids=["missing-key", "unknown-key", "unknown-quantity", "bool-value", "null-raw-value",
             "string-trace", "null-in-trace", "no-samples", "string-dim", "string-converged"],
    )
    def test_report_keys_checked(self, edit, message):
        report = total_correlation(equicorrelated_gaussian(2000, 2, 0.5, 16))
        doc = json.loads(report.to_json())
        edit(doc)
        with pytest.raises(ValueError, match=message):
            ITReport.from_dict(doc)

    def test_report_config_type_checked(self):
        # A dict would pass construction and fail only in to_json.
        report = total_correlation(equicorrelated_gaussian(2000, 2, 0.5, 16))
        with pytest.raises(ValueError, match=r"^config must be a FitConfig, got \{'seed': 0\}$"):
            replace(report, config={"seed": 0})

    def test_value_not_rounded_in_storage(self):
        data = equicorrelated_gaussian(20000, 2, 0.5, 17)
        report = total_correlation(data)
        doc = json.loads(report.to_json())
        assert doc["value_bits"] == report.value_bits


class TestInformationMap:
    def test_matches_model_information(self):
        data = equicorrelated_gaussian(20000, 2, 0.5, 18)
        model = fit(data)
        pts = data[:100]
        assert np.array_equal(model.information(pts), -model.log_density(pts))
