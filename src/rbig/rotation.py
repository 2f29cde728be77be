"""Orthogonal rotations: PCA-derived and random (Haar-distributed)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, RankDeficientWarning

__all__ = [
    "RotationMatrix",
    "fit_pca_rotation",
    "random_haar_rotation",
    "rotate",
    "rotate_inverse",
]

KIND_PCA = "pca"
KIND_RANDOM = "random"

_ORTHO_TOL = 1e-10
_DET_TOL = 1e-8


@dataclass(frozen=True)
class RotationMatrix:
    """Validated D x D orthogonal matrix; rows map a sample x to R x.

    Orthogonality (``max|R^T R - I| <= 1e-10``) and unit determinant
    magnitude are checked at construction, so instances can be trusted to
    contribute zero to any Jacobian log-determinant.
    """

    entries: np.ndarray
    kind: str
    rank_deficient: bool = False

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("rotation entries must form a square matrix")
        if self.kind not in (KIND_PCA, KIND_RANDOM):
            raise ValueError(f"unknown rotation kind: {self.kind!r}")
        gram = m.T @ m
        if np.max(np.abs(gram - np.eye(m.shape[0]))) > _ORTHO_TOL:
            raise ValueError("matrix is not orthogonal within tolerance")
        if abs(abs(np.linalg.det(m)) - 1.0) > _DET_TOL:
            raise ValueError("matrix determinant is not of unit magnitude")
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def fit_pca_rotation(data) -> RotationMatrix:
    """Principal-component rotation of a sample matrix.

    Rows of the result are unit eigenvectors of the sample covariance of
    the mean-centered data, ordered by descending eigenvalue (ties keep the
    eigensolver's order), each sign-fixed so its largest-magnitude entry is
    positive.  A :class:`RankDeficientWarning` is issued (and recorded on
    the matrix) when the spectrum is numerically degenerate.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-D sample matrix")
    n, d = x.shape
    if n <= d:
        raise ValueError(f"need more samples than dimensions (got {n} x {d})")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("data contains NaN or infinite values")
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
        warnings.warn(
            "sample covariance is numerically rank deficient", RankDeficientWarning
        )
    return RotationMatrix(entries=rows, kind=KIND_PCA, rank_deficient=rank_deficient)


def random_haar_rotation(dim: int, seed: int) -> RotationMatrix:
    """Haar-distributed random rotation, reproducible per seed.

    QR decomposition of a seeded iid standard-normal matrix with the Q
    columns sign-corrected by the sign of R's diagonal.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return RotationMatrix(entries=q * signs, kind=KIND_RANDOM)


def _check_columns(rotation: RotationMatrix, data: np.ndarray) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != rotation.dim:
        raise DimensionMismatch(
            f"data has {x.shape[-1] if x.ndim else 0} columns, rotation expects {rotation.dim}"
        )
    return x


def rotate(rotation: RotationMatrix, data) -> np.ndarray:
    """Apply x -> R x to every row; Jacobian log-determinant is zero.

    Returns a new N x D array in column-contiguous (Fortran) order, so each
    column the next marginal layer reads is contiguous.  It equals
    ``data @ R.T`` up to rounding.
    """
    x = _check_columns(rotation, data)
    return (rotation.entries @ x.T).T


def rotate_inverse(rotation: RotationMatrix, data) -> np.ndarray:
    """Apply the exact inverse x -> R^T x to every row.

    Returns a new N x D array in column-contiguous (Fortran) order, equal
    to ``data @ R`` up to rounding.
    """
    x = _check_columns(rotation, data)
    return (rotation.entries.T @ x.T).T
