"""Orthogonal rotations, PCA-derived and random (Haar-distributed), as bare
D x D arrays whose rows map a sample x to R x, and the row chunks that the
N x D products are cut into.  These internal kernels check nothing: ``fit``
checks its input and ``GaussModel`` every rotation once."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import RankDeficientWarning

# Rows per chunk of an N x D product, at 23 or more columns (see
# _rotation_chunks): each chunk is a temporary of its own.  Each worker's
# malloc arena keeps its largest temporaries, so the chunks stay small: on
# PW, 2**11 rows ran as fast as 2**12 and peak RSS was about 2 MB lower on 2
# workers.
_CHUNK_ROWS = 2**11


def _rotation_chunks(n: int, d: int) -> list[slice]:
    """The row chunks that an ``n`` x ``d`` working array is rotated in, and
    its PCA Gram matrix summed over.

    They are cut at multiples of one size from row 0, whatever the worker
    count, so every worker count runs the same matrix products and gets the
    same bits on any BLAS.  The size is the least multiple of
    ``_CHUNK_ROWS`` whose product holds 2**20 or more multiply-adds, and the
    last chunk takes in the rows short of a whole one.  So a chunk is the
    whole array or at least that large, and OpenBLAS 0.3.31 gives each row
    the bits of the whole-matrix product: its small-matrix kernels (at most
    1e6 multiply-adds) give some rows other last bits, but larger products
    cut at multiples of 8 rows keep them (checked at D from 1 to 200).
    """
    size = _CHUNK_ROWS * -(-(2**20) // (_CHUNK_ROWS * d * d))
    bounds = [*range(0, n - size + 1, size), n] if n >= 2 * size else [0, n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def fit_pca_rotation(
    x: np.ndarray, map_tasks=map, mean: np.ndarray | None = None
) -> tuple[np.ndarray, bool]:
    """Principal-component rotation of an N x D sample matrix, N > D, and
    whether its spectrum is numerically rank deficient (which also issues a
    :class:`RankDeficientWarning`).

    Rows are unit eigenvectors of the sample covariance of the mean-centered
    data, ordered by descending eigenvalue (ties keep the eigensolver's
    order), each sign-fixed so its largest-magnitude entry is positive.
    ``mean`` is the column means of ``x``, which a caller that has just
    written the columns passes in; without it they are computed here, as
    ``x.mean(axis=0)``.  The centered Gram matrix is summed over the row
    chunks of :func:`_rotation_chunks` in chunk order, each chunk centered
    in a temporary of its own and run as a task of ``map_tasks`` (which
    yields its results in order, as ``map`` does), so no centered N x D copy
    is made and the bits do not depend on how the tasks run.
    """
    n, d = x.shape
    if mean is None:
        mean = x.mean(axis=0)

    def gram(rows):
        centered = x[rows] - mean
        return centered.T @ centered

    cov = sum(map_tasks(gram, _rotation_chunks(n, d))) / (n - 1)
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
