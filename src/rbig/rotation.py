"""Orthogonal rotations, PCA-derived and random (Haar-distributed), as bare
D x D arrays whose rows map a sample x to R x.  These internal kernels check
nothing: ``fit`` checks its input and ``GaussModel`` every rotation once."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import RankDeficientWarning


def fit_pca_rotation(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Principal-component rotation of an N x D sample matrix, N > D, and
    whether its spectrum is numerically rank deficient (which also issues a
    :class:`RankDeficientWarning`).

    Rows are unit eigenvectors of the sample covariance of the mean-centered
    data, ordered by descending eigenvalue (ties keep the eigensolver's
    order), each sign-fixed so its largest-magnitude entry is positive.
    """
    n, d = x.shape
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")
    rows = evecs[:, order].T.copy()
    for i in range(d):
        peak = np.argmax(np.abs(rows[i]))
        if rows[i, peak] < 0:
            rows[i] = -rows[i]
    rank_deficient = bool(evals.min() < 1e-12 * max(evals.max(), 0.0))
    if rank_deficient:
        warnings.warn("sample covariance is numerically rank deficient", RankDeficientWarning)
    return rows, rank_deficient


def random_haar_rotation(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed random rotation, reproducible per seed.

    QR decomposition of a seeded iid standard-normal matrix with the Q
    columns sign-corrected by the sign of R's diagonal.
    """
    g = np.random.default_rng(seed).standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def rotate(rotation: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x -> R x on every row of an N x D array: a new column-contiguous
    (Fortran) array, so each column the next marginal layer reads is
    contiguous, equal to ``x @ R.T`` up to rounding."""
    return (rotation @ x.T).T


def rotate_inverse(rotation: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The exact inverse x -> R^T x on every row of an N x D array: a new
    column-contiguous (Fortran) array, equal to ``x @ R`` up to rounding."""
    return (rotation.T @ x.T).T
