"""Every public entry that takes a size, seed, bin count or number refuses a
bad one with a one-line ``ValueError`` whose message starts with the
parameter's name: the integer rule and the number rule of ``rbig.errors``."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rbig import (
    FitConfig,
    GridMeta,
    ITReport,
    PatchConfig,
    fit,
    lag_embed,
    marginal_entropy,
    marginal_kl_to_standard_normal,
    random_haar_rotation,
    ratio_sweep_configs,
)
from rbig.synth import (
    ar1_cube,
    equicorrelated_gaussian,
    gaussian_from_correlation,
    gaussian_mixture,
    noisy_sine,
)

SAMPLE = np.random.default_rng(0).standard_normal(50)

# Values that break the number rule.
NOT_FINITE = {"bool": True, "nan": math.nan, "inf": math.inf, "huge": 10**400, "str": "x"}


def integer_bad(least):
    """Values that break the integer rule for an integer >= ``least``."""
    return {**NOT_FINITE, "float": 2.5, "below": least - 1, "np-below": np.int64(least - 1)}


def number_bad(*outside):
    """Values that break the number rule, and any outside the range."""
    return {**NOT_FINITE, **{f"outside-{v:g}": v for v in outside}}


def report(**change):
    return ITReport(
        **{
            "quantity": "entropy", "value_bits": 1.0, "raw_value_bits": 1.0,
            "per_layer_delta_t": [0.1], "n_samples": 10, "dim": 1,
            "config": FitConfig(), "converged": True, **change,
        }
    )


# Entry: (call with the changed parameters, its valid base parameters, and
# for each parameter checked, the name its message starts with and its bad
# values).
ENTRIES = {
    "FitConfig": (
        lambda model, kw: FitConfig(**kw), {},
        {
            "bins": ("bins", integer_bad(2)),
            "max_layers": ("max_layers", integer_bad(1)),
            "patience": ("patience", integer_bad(1)),
            "seed": ("seed", integer_bad(0)),
            "tol_delta_t": ("tol_delta_t", number_bad(0.0, -1.0)),
        },
    ),
    "sample": (
        lambda model, kw: model.sample(**kw), {"n": 3, "seed": 0},
        {"n": ("n", integer_bad(1)), "seed": ("seed", integer_bad(0))},
    ),
    "GaussModel": (
        lambda model, kw: replace(model, **kw), {},
        {"clamp_eps": ("clamp_eps", number_bad(2.5, 1e-7 - 1))},
    ),
    "marginal_entropy": (
        lambda model, kw: marginal_entropy(SAMPLE, **kw), {"bins": 5},
        {"bins": ("bins", integer_bad(1))},
    ),
    "marginal_kl_to_standard_normal": (
        lambda model, kw: marginal_kl_to_standard_normal(SAMPLE, **kw), {"bins": 5},
        {"bins": ("bins", integer_bad(1))},
    ),
    "random_haar_rotation": (
        lambda model, kw: random_haar_rotation(**kw), {"dim": 3, "seed": 0},
        {"dim": ("dim", integer_bad(1)), "seed": ("seed", integer_bad(0))},
    ),
    "equicorrelated_gaussian": (
        lambda model, kw: equicorrelated_gaussian(**kw),
        {"n": 5, "dim": 2, "rho": 0.5, "seed": 0},
        {
            "n": ("n", integer_bad(1)),
            "dim": ("dim", integer_bad(1)),
            "rho": ("rho", number_bad(2.5, -2.0)),
            "seed": ("seed", integer_bad(0)),
        },
    ),
    "gaussian_from_correlation": (
        lambda model, kw: gaussian_from_correlation(**kw),
        {"n": 5, "corr": np.eye(2), "seed": 0},
        {"n": ("n", integer_bad(1)), "seed": ("seed", integer_bad(0))},
    ),
    "noisy_sine": (
        lambda model, kw: noisy_sine(**kw), {"n": 5, "seed": 0, "noise": 0.25},
        {
            "n": ("n", integer_bad(1)),
            "seed": ("seed", integer_bad(0)),
            "noise": ("noise", number_bad()),
        },
    ),
    "gaussian_mixture": (
        lambda model, kw: gaussian_mixture(**kw), {"n": 5, "seed": 0, "separation": 2.0},
        {
            "n": ("n", integer_bad(1)),
            "seed": ("seed", integer_bad(0)),
            "separation": ("separation", number_bad()),
        },
    ),
    "ar1_cube": (
        lambda model, kw: ar1_cube(**kw),
        {"t_len": 3, "height": 2, "width": 2, "phi": 0.5, "seed": 0},
        {
            # Named t, as the CLI's flag.
            "t_len": ("t", integer_bad(1)),
            "height": ("height", integer_bad(1)),
            "width": ("width", integer_bad(1)),
            "phi": ("phi", number_bad(2.5, -2.0)),
            "seed": ("seed", integer_bad(0)),
        },
    ),
    "PatchConfig": (
        lambda model, kw: PatchConfig(**kw), {"spatial": 2, "temporal": 1},
        {name: (name, integer_bad(1))
         for name in ("spatial", "temporal", "stride_space", "stride_time")},
    ),
    "ratio_sweep_configs": (
        lambda model, kw: ratio_sweep_configs(**kw),
        {"budget": 8, "n_ratios": 3, "t": 10, "h": 5, "w": 5},
        {
            "budget": ("budget", integer_bad(4)),
            "n_ratios": ("n_ratios", integer_bad(2)),
            **{name: (name, integer_bad(1)) for name in ("t", "h", "w")},
        },
    ),
    "lag_embed": (
        lambda model, kw: lag_embed(np.arange(10.0), **kw), {"lags": 2},
        {"lags": ("lags", integer_bad(1))},
    ),
    "GridMeta": (
        lambda model, kw: GridMeta(**kw), {},
        {name: (name, number_bad())
         for name in ("lat_origin", "lon_origin", "lat_step", "lon_step", "time_step_days")},
    ),
    "ITReport": (
        lambda model, kw: report(**kw), {},
        {
            "value_bits": ("value_bits", number_bad()),
            "raw_value_bits": ("raw_value_bits", number_bad()),
            "n_samples": ("n_samples", integer_bad(1)),
            "dim": ("dim", integer_bad(1)),
        },
    ),
}

CASES = [
    pytest.param(entry, param, value, id=f"{entry}-{param}-{value_id}")
    for entry, (_, _, params) in ENTRIES.items()
    for param, (_, bad) in params.items()
    for value_id, value in bad.items()
]


@pytest.fixture(scope="module")
def model():
    return fit(np.random.default_rng(1).standard_normal((200, 2)), FitConfig(seed=1))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_base_parameters_accepted(model, entry):
    call, base, _ = ENTRIES[entry]
    call(model, base)


@pytest.mark.parametrize("entry, param, value", CASES)
def test_bad_parameter_refused(model, entry, param, value):
    call, base, params = ENTRIES[entry]
    name = params[param][0]
    with pytest.raises(ValueError) as info:
        call(model, {**base, param: value})
    message = str(info.value)
    assert re.match(rf"{name}\b", message), message
    assert "\n" not in message
