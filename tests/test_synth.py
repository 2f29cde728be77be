import math

import numpy as np
import pytest

from rbig.synth import (
    ar1_cube,
    equicorrelated_gaussian,
    gaussian_from_correlation,
    gaussian_mixture,
    noisy_sine,
)

# Each call would write a file no reader takes, or fail inside numpy.
REFUSED = {
    "gauss-n-0": (
        lambda: equicorrelated_gaussian(0, 2, 0.5, 1), "n must be an integer >= 1, got 0"
    ),
    "gauss-n-negative": (
        lambda: equicorrelated_gaussian(-2, 2, 0.5, 1), "n must be an integer >= 1, got -2"
    ),
    "gauss-n-float": (
        lambda: equicorrelated_gaussian(3.0, 2, 0.5, 1), "n must be an integer >= 1, got 3.0"
    ),
    "gauss-dim-0": (
        lambda: equicorrelated_gaussian(5, 0, 0.5, 1), "dim must be an integer >= 1, got 0"
    ),
    "corr-n-0": (
        lambda: gaussian_from_correlation(0, np.eye(2), 1), "n must be an integer >= 1, got 0"
    ),
    "corr-not-positive-definite": (
        lambda: gaussian_from_correlation(5, [[1.0, 2.0], [2.0, 1.0]], 1),
        "correlation matrix must be positive definite",
    ),
    "sine-n-0": (lambda: noisy_sine(0, 1), "n must be an integer >= 1, got 0"),
    "sine-noise-nan": (
        lambda: noisy_sine(5, 1, math.nan), "noise must be a finite number, got nan"
    ),
    "mixture-n-bool": (lambda: gaussian_mixture(True, 1), "n must be an integer >= 1, got True"),
    "mixture-separation-inf": (
        lambda: gaussian_mixture(5, 1, math.inf), "separation must be a finite number, got inf"
    ),
    "cube-t-0": (lambda: ar1_cube(0, 3, 3, 0.5, 1), "t must be an integer >= 1, got 0"),
    "cube-height-0": (lambda: ar1_cube(3, 0, 3, 0.5, 1), "height must be an integer >= 1, got 0"),
    "cube-width-negative": (
        lambda: ar1_cube(3, 3, -1, 0.5, 1), "width must be an integer >= 1, got -1"
    ),
    "cube-phi-nan": (
        lambda: ar1_cube(3, 3, 3, math.nan, 1), "phi must be a finite number, got nan"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_unreadable_output_refused_by_name(case):
    make, message = REFUSED[case]
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_smallest_sizes_accepted():
    assert equicorrelated_gaussian(1, 1, 0.0, 1).shape == (1, 1)
    assert noisy_sine(1, 1).shape == gaussian_mixture(1, 1).shape == (1, 2)
    assert ar1_cube(1, 1, 1, 0.5, 1).shape == (1, 1, 1)
