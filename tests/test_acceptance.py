"""Acceptance suite: closed-form and property oracles, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import kstest

from rbig import (
    FitConfig,
    GAUSS_ENTROPY_BITS,
    PatchConfig,
    entropy,
    extract_patches,
    fit,
    mutual_information,
    ratio_sweep_configs,
    total_correlation,
)
from rbig.cli import main as cli_main
from rbig.synth import ar1_cube, equicorrelated_gaussian, gaussian_mixture, noisy_sine

# Fitted (model, training data) pairs collected across criteria so the
# invertibility criterion can sweep every model this suite produced.
_FITTED = []


def _fit_registered(data, config=None):
    model = fit(data, config)
    _FITTED.append((model, data))
    return model


def _verdict(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_01_gaussian_mi_oracle():
    results = []
    for rho, tol in [(0.1, 0.05), (0.5, 0.05), (0.9, 0.10)]:
        true_mi = -0.5 * math.log2(1 - rho * rho)
        estimates = []
        slowest = 0.0
        for seed in range(10):
            started = time.monotonic()
            data = equicorrelated_gaussian(20000, 2, rho, seed)
            report = mutual_information(data[:, :1], data[:, 1:], FitConfig(seed=seed))
            slowest = max(slowest, time.monotonic() - started)
            estimates.append(report.value_bits)
        mean = float(np.mean(estimates))
        results.append((rho, mean, true_mi, tol, slowest))
    ok = all(abs(m - t) <= tol and slow <= 30.0 for _, m, t, tol, slow in results)
    detail = "; ".join(
        f"rho={r}: {m:.4f} vs {t:.4f} (tol {tol}, {slow:.1f}s/run)"
        for r, m, t, tol, slow in results
    )
    _verdict(1, "Gaussian MI oracle", ok, detail)


def test_02_gaussian_total_correlation_oracle():
    corr = np.full((4, 4), 0.4)
    np.fill_diagonal(corr, 1.0)
    oracle = -0.5 * math.log2(np.linalg.det(corr))
    data = equicorrelated_gaussian(50000, 4, 0.4, 2)
    model = _fit_registered(data, FitConfig(seed=2))
    est = max(0.0, model.total_correlation)
    ok = abs(est - oracle) <= 0.15
    _verdict(2, "Gaussian total-correlation oracle", ok, f"{est:.4f} vs {oracle:.4f} +-0.15")


def test_03_entropy_oracle():
    normal = np.random.default_rng(3).standard_normal((100000, 3))
    h_normal = entropy(normal, FitConfig(seed=3)).value_bits
    uniform = np.random.default_rng(4).uniform(0, 1, (100000, 2))
    h_uniform = entropy(uniform, FitConfig(seed=4)).value_bits
    oracle_normal = 3 * GAUSS_ENTROPY_BITS
    ok = abs(h_normal - oracle_normal) <= 0.15 and abs(h_uniform) <= 0.10
    _verdict(
        3,
        "Entropy oracle",
        ok,
        f"3D normal {h_normal:.4f} vs {oracle_normal:.4f} +-0.15; 2D uniform {h_uniform:.4f} vs 0 +-0.10",
    )


def test_04_independence_null():
    data = np.random.default_rng(5).uniform(0, 1, (100000, 4))
    model = _fit_registered(data)  # default config
    t_est = max(0.0, model.total_correlation)
    ok = t_est <= 0.10 and model.converged and model.n_layers <= 10
    _verdict(
        4,
        "Independence null",
        ok,
        f"T={t_est:.4f} <=0.10; layers={model.n_layers} <=10; converged={model.converged}",
    )


def test_05_gaussianization_quality_sine():
    data = noisy_sine(10000, seed=6)
    model = _fit_registered(data, FitConfig(seed=6))
    z, _ = model.transform(data)
    ks = max(kstest(z[:, j], "norm").statistic for j in range(2))
    trace = model.delta_t_trace
    ng = model.non_gaussianity_trace()
    ok = (
        ks <= 0.02
        and trace[-1] < model.config.tol_delta_t
        and ng[-1] <= 0.1 * ng[0]
    )
    _verdict(
        5,
        "Gaussianization quality (sine)",
        ok,
        f"KS={ks:.4f} <=0.02; final dT={trace[-1]:.4f} <tol; NG {ng[0]:.4f}->{ng[-1]:.4f}",
    )


def test_06_density_normalization():
    data = gaussian_mixture(100000, seed=7)
    model = _fit_registered(data, FitConfig(seed=7))
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    span = hi - lo
    xs = np.linspace(lo[0] - 0.1 * span[0], hi[0] + 0.1 * span[0], 201)
    ys = np.linspace(lo[1] - 0.1 * span[1], hi[1] + 0.1 * span[1], 201)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    dens = np.exp2(model.log_density(grid)).reshape(gx.shape)
    integral = float(np.trapezoid(np.trapezoid(dens, ys, axis=1), xs))
    ok = 0.9 <= integral <= 1.1
    _verdict(6, "Density normalization", ok, f"integral={integral:.4f} in [0.9, 1.1]")


def test_07_synthesis_moment_match():
    data = equicorrelated_gaussian(100000, 2, 0.8, 8)
    model = _fit_registered(data, FitConfig(seed=8))
    synth = model.sample(100000, seed=9)
    corr = float(np.corrcoef(synth.T)[0, 1])
    mean_err = float(np.max(np.abs(synth.mean(axis=0))))
    var_err = float(np.max(np.abs(synth.var(axis=0) - 1.0)))
    ok = abs(corr - 0.8) <= 0.03 and mean_err <= 0.03 and var_err <= 0.03
    _verdict(
        7,
        "Synthesis moment match",
        ok,
        f"corr={corr:.4f} vs 0.8 +-0.03; |mean|<={mean_err:.4f}; |var-1|<={var_err:.4f}",
    )


def test_08_invertibility_all_models():
    assert _FITTED, "earlier criteria must have registered fitted models"
    worst = 0.0
    for model, data in _FITTED:
        z, _ = model.transform(data)
        back = model.inverse(z)
        spans = data.max(axis=0) - data.min(axis=0)
        err = np.percentile(np.abs(back - data), 99, axis=0) / spans
        worst = max(worst, float(err.max()))
    ok = worst <= 1e-4
    _verdict(
        8,
        "Invertibility",
        ok,
        f"worst 99th-pct round-trip over {len(_FITTED)} models = {worst:.2e} <= 1e-4 of range",
    )


def test_09_mi_reparameterization_invariance():
    data = equicorrelated_gaussian(100000, 2, 0.8, 10)
    x, y = data[:, :1], data[:, 1:]
    base = mutual_information(x, y, FitConfig(seed=10)).value_bits
    cubed = mutual_information(x**3, y, FitConfig(seed=10)).value_bits
    ok = abs(base - cubed) <= 0.10
    _verdict(
        9,
        "MI reparameterization invariance",
        ok,
        f"base={base:.4f}, cubed={cubed:.4f}, |diff|={abs(base - cubed):.4f} <=0.10",
    )


def _sweep_entropy_per_feature(cube, budget, n_ratios, seed):
    values = {}
    for cfg in ratio_sweep_configs(budget, n_ratios, *cube.shape):
        stride = 2 if cfg.spatial > 1 else 1
        pc = PatchConfig(
            spatial=cfg.spatial, temporal=cfg.temporal, stride_space=stride
        )
        samples, _ = extract_patches(cube, pc)
        # tol_delta_t is a per-layer total over dimensions: scale with dim
        config = FitConfig(seed=seed, tol_delta_t=0.01 * pc.dim, max_layers=30)
        report = entropy(samples, config)
        values[cfg.ratio] = report.value_bits / pc.dim
    return values


def test_10_spatio_temporal_sweep():
    phi = 0.9
    t_len = 46
    cube_ar = ar1_cube(t_len, 64, 64, phi=phi, seed=11)
    sweep_ar = _sweep_entropy_per_feature(cube_ar, budget=49, n_ratios=4, seed=11)
    h_spatial = sweep_ar[0.0]
    h_temporal = sweep_ar[1.0]
    oracle_temporal = (
        GAUSS_ENTROPY_BITS
        + 0.5 * (t_len - 1) * math.log2(2 * math.pi * math.e * (1 - phi * phi))
    ) / t_len
    oracle_spatial = GAUSS_ENTROPY_BITS

    cube_iid = ar1_cube(t_len, 64, 64, phi=0.0, seed=12)
    sweep_iid = _sweep_entropy_per_feature(cube_iid, budget=49, n_ratios=4, seed=12)
    flat = max(sweep_iid.values()) - min(sweep_iid.values())

    ok = (
        h_spatial - h_temporal >= 0.3
        and abs(h_temporal - oracle_temporal) <= 0.2
        and abs(h_spatial - oracle_spatial) <= 0.2
        and flat <= 0.2  # all values within +-0.1 of each other
    )
    _verdict(
        10,
        "Spatio-temporal sweep",
        ok,
        f"AR1 H/dim spatial={h_spatial:.4f} temporal={h_temporal:.4f} "
        f"(oracles {oracle_spatial:.4f}/{oracle_temporal:.4f}); iid spread={flat:.4f}",
    )


def test_11_cli_determinism(tmp_path, capsys):
    data_path = tmp_path / "pair.csv"
    code = cli_main(
        ["synth", "gauss", "--n", "20000", "--rho", "0.6", "--seed", "13",
         "--out", str(data_path)]
    )
    assert code == 0
    models, reports = [], []
    for tag in ("a", "b"):
        model_path = tmp_path / f"model_{tag}.json"
        code = cli_main(
            ["fit", "--input", str(data_path), "--seed", "13", "--out", str(model_path)]
        )
        assert code == 0
        models.append(model_path.read_bytes())
        report_path = tmp_path / f"report_{tag}.json"
        code = cli_main(
            ["tc", "--input", str(data_path), "--seed", "13", "--out", str(report_path)]
        )
        assert code == 0
        reports.append(report_path.read_bytes())
    capsys.readouterr()
    ok = models[0] == models[1] and reports[0] == reports[1]
    _verdict(
        11,
        "CLI determinism",
        ok,
        f"model bytes equal={models[0] == models[1]}; report bytes equal={reports[0] == reports[1]}",
    )


def test_acceptance_report_is_json(tmp_path, capsys):
    # Reports printed by measure commands parse as documented JSON.
    data_path = tmp_path / "d.csv"
    cli_main(["synth", "gauss", "--n", "5000", "--rho", "0.3", "--seed", "1",
              "--out", str(data_path)])
    capsys.readouterr()
    code = cli_main(["tc", "--input", str(data_path)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    for key in ("quantity", "value_bits", "raw_value_bits", "per_layer_delta_t",
                "n_samples", "dim", "config", "converged"):
        assert key in doc
