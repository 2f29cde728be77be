"""Seeded synthetic datasets used by the CLI and the acceptance suite."""

from __future__ import annotations

import numpy as np

from .cube import DataCube

__all__ = [
    "equicorrelated_gaussian",
    "gaussian_from_correlation",
    "noisy_sine",
    "gaussian_mixture",
    "ar1_cube",
]


def equicorrelated_gaussian(n: int, dim: int, rho: float, seed: int) -> np.ndarray:
    """Zero-mean unit-variance Gaussian sample with equicorrelation rho."""
    if not -1.0 / max(dim - 1, 1) < rho < 1.0:
        raise ValueError(f"rho={rho} is not a valid equicorrelation for dim={dim}")
    corr = np.full((dim, dim), rho)
    np.fill_diagonal(corr, 1.0)
    return gaussian_from_correlation(n, corr, seed)


def gaussian_from_correlation(n: int, corr, seed: int) -> np.ndarray:
    """Zero-mean Gaussian sample with the given correlation matrix."""
    c = np.asarray(corr, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.allclose(c, c.T) or not np.allclose(np.diag(c), 1.0):
        raise ValueError("correlation matrix must be symmetric with unit diagonal")
    chol = np.linalg.cholesky(c)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, c.shape[0])) @ chol.T


def noisy_sine(n: int, seed: int, noise: float = 0.25) -> np.ndarray:
    """Sine wave with heteroscedastic noise: columns (t, sin(t) + eps(t)).

    t is uniform on [0, 2*pi]; the noise standard deviation grows linearly
    from 0.1 to 0.1 + noise across the abscissa.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    sigma = 0.1 + noise * t / (2.0 * np.pi)
    y = np.sin(t) + rng.standard_normal(n) * sigma
    return np.column_stack([t, y])


def gaussian_mixture(n: int, seed: int, separation: float = 2.0) -> np.ndarray:
    """Two-component 2-D Gaussian mixture with opposite correlations."""
    rng = np.random.default_rng(seed)
    which = rng.random(n) < 0.5
    chol_a = np.linalg.cholesky([[1.0, 0.6], [0.6, 1.0]])
    chol_b = np.linalg.cholesky([[1.0, -0.6], [-0.6, 1.0]])
    z = rng.standard_normal((n, 2))
    out = np.where(which[:, None], z @ chol_a.T, z @ chol_b.T)
    out[:, 0] += np.where(which, -separation, separation)
    return out


def ar1_cube(t_len: int, height: int, width: int, phi: float, seed: int) -> DataCube:
    """Cube of per-pixel AR(1) time series with unit stationary variance.

    Pixels are spatially independent; ``phi = 0`` gives iid noise.
    """
    if not -1.0 < phi < 1.0:
        raise ValueError("phi must lie in (-1, 1)")
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(1.0 - phi * phi)
    values = np.empty((t_len, height, width))
    values[0] = rng.standard_normal((height, width))
    for t in range(1, t_len):
        values[t] = phi * values[t - 1] + sigma * rng.standard_normal((height, width))
    return DataCube(values=values)
