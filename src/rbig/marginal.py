"""Per-dimension invertible uniformization/Gaussianization and marginal entropy.

The one-dimensional building blocks: a piecewise-linear empirical-CDF map to
(0, 1) with a tractable log-derivative, the inverse standard normal CDF, their
composition (which sends any marginal to a standard normal), and the histogram
entropy estimator from which every information measure in this package is
assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateDimension, NonFiniteInput, ProbabilityOutOfRange

__all__ = [
    "GAUSS_ENTROPY_BITS",
    "MarginalUniformizer",
    "MarginalGaussianizer",
    "fit_uniformizer",
    "fit_gaussianizer",
    "probit",
    "normal_cdf",
    "marginal_entropy",
    "marginal_kl_to_standard_normal",
]

LN2 = math.log(2.0)

# Differential entropy of a standard normal, 0.5*log2(2*pi*e), in bits.
GAUSS_ENTROPY_BITS = 0.5 * math.log2(2.0 * math.pi * math.e)

# Pseudo-count added to every histogram bin (including the two support
# extension bins) when fitting a uniformizer.  Keeps the fitted CDF strictly
# increasing, so the log-derivative is finite everywhere inside the support
# and inversion is unambiguous.  Must be small: a larger value injects
# phantom probability mass into the tails and visibly shrinks the variance
# of the Gaussianized output.
HIST_SMOOTHING = 1e-3


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{what} contains NaN or infinite values")


def _checked_segment(knots: np.ndarray, v: np.ndarray, seg: np.ndarray):
    """Check guessed segments of 1-D ``v`` and binary-search the misses.

    Returns ``(seg, knots[seg], knots[seg + 1])`` with ``seg`` equal to
    ``clip(searchsorted(knots, v, "right") - 1, 0, K - 2)`` for any strictly
    increasing ``knots`` and any guess in ``[0, K - 2]``.  A guess holds when
    its two knots bracket the value; only the misses are searched, so a bad
    guess changes the speed, never the answer.
    """
    lo = knots[seg]
    hi = knots[1:][seg]
    miss = np.flatnonzero((v < lo) | (v >= hi))
    if miss.size:
        last = knots.size - 2
        found = np.clip(np.searchsorted(knots, v[miss], side="right") - 1, 0, last)
        seg[miss] = found
        lo[miss] = knots[found]
        hi[miss] = knots[found + 1]
    return seg, lo, hi


def _segment(kx: np.ndarray, x: np.ndarray):
    """Knot segment of each data value of 1-D ``x``, and its two knots.

    Fitted knots are equal-width from ``kx[1]`` to ``kx[-2]``, so a floor
    division guesses each segment; :func:`_checked_segment` checks it.
    Misses are values at a knot or outside the knots, and hand-built
    non-uniform tables.
    """
    last = kx.size - 2
    inv_width = (kx.size - 3) / float(kx[-2] - kx[1]) if kx.size > 3 else 0.0
    # Far-out points or near-coincident knots can overflow the guess to inf
    # or make it NaN (0 * inf); fmax/fmin send both to a valid index.
    with np.errstate(over="ignore", invalid="ignore"):
        guess = np.subtract(x, kx[1])
        guess *= inv_width
    guess += 1.0
    np.fmax(guess, 0.0, out=guess)
    np.fmin(guess, last, out=guess)
    return _checked_segment(kx, x, guess.astype(np.intp))


# Cells per knot segment in the probability-side guess table.
_CELLS_PER_SEGMENT = 8


def _p_segment(kp: np.ndarray, p: np.ndarray):
    """Knot segment of each probability of 1-D ``p``, and its two knots.

    CDF knots are not equal-width, so the guess comes from a table built
    per call: the segment of the left edge of each of ``8 (K - 1)`` equal
    cells over [0, 1], plus one entry for 1 itself.  A value's guess is its
    cell's entry, which is right unless a knot lies between the cell's left
    edge and the value (about 4% of values on a fitted table);
    :func:`_checked_segment` checks it.
    """
    last = kp.size - 2
    cells = _CELLS_PER_SEGMENT * (kp.size - 1)
    table = np.searchsorted(kp, np.arange(cells + 1) / cells, side="right") - 1
    np.clip(table, 0, last, out=table)
    guess = np.multiply(p, cells)
    np.fmax(guess, 0.0, out=guess)
    np.fmin(guess, cells, out=guess)
    return _checked_segment(kp, p, table[guess.astype(np.intp)])


@dataclass(frozen=True)
class MarginalUniformizer:
    """Invertible piecewise-linear map from data space to (0, 1).

    The forward map is the linear interpolation of ``knots_p`` over
    ``knots_x`` clamped into ``(clamp_eps, 1 - clamp_eps)``; the knots are
    the cumulative normalized histogram of the training sample plus two
    support-extension endpoints.

    Attributes
    ----------
    support_lo, support_hi : float
        Extended support bounds, in data units.
    knots_x : ndarray
        Strictly increasing abscissae of the piecewise-linear CDF.
    knots_p : ndarray
        Non-decreasing CDF values at ``knots_x``; first element 0, last 1.
    clamp_eps : float
        Probability clamp in (0, 0.5) keeping forward outputs away from
        exactly 0 and 1.
    """

    support_lo: float
    support_hi: float
    knots_x: np.ndarray
    knots_p: np.ndarray
    clamp_eps: float

    def __post_init__(self):
        kx = _as_float_array(self.knots_x)
        kp = _as_float_array(self.knots_p)
        object.__setattr__(self, "knots_x", kx)
        object.__setattr__(self, "knots_p", kp)
        if kx.ndim != 1 or kx.shape != kp.shape or kx.size < 2:
            raise ValueError("knots_x and knots_p must be 1-D arrays of equal length >= 2")
        if np.any(np.diff(kx) <= 0):
            raise ValueError("knots_x must be strictly increasing")
        if np.any(np.diff(kp) < 0):
            raise ValueError("knots_p must be non-decreasing")
        if kp[0] != 0.0 or kp[-1] != 1.0:
            raise ValueError("knots_p must start at 0 and end at 1")
        if not 0.0 < self.clamp_eps < 0.5:
            raise ValueError("clamp_eps must lie in (0, 0.5)")
        kx.setflags(write=False)
        kp.setflags(write=False)

    def forward(self, x):
        """Map data values to probabilities.

        Each value's knot segment ``s`` is found once (:func:`_segment`).
        Its slope gives both the CDF value, ``kp[s] + slope * (x - kx[s])``
        (the arithmetic of ``np.interp``), and the log-derivative.

        Parameters
        ----------
        x : array_like
            Finite data values, any shape.

        Returns
        -------
        p : ndarray or float
            Interpolated CDF values clamped into
            ``(clamp_eps, 1 - clamp_eps)``.
        logdpdx : ndarray or float
            Natural log of the local CDF slope (the histogram density).
            Out-of-support points get the slope of the nearest extension
            segment.
        """
        xq = _as_float_array(x)
        _require_finite(xq, "x")
        # Columns of every layer after the first are contiguous and ravel is
        # a view; a strided column is copied once, since contiguous passes
        # run faster.
        xs = xq.ravel()
        kx, kp = self.knots_x, self.knots_p
        seg, lo, hi = _segment(kx, xs)
        # Past the knots p leaves [0, 1] (to +-inf far out) where np.interp
        # holds the end value; the clamp maps both to one bound.  Slopes are
        # per value: per-segment tables, small arrays freed between large
        # ones, got reused by long-lived knot tables and pinned freed heap
        # memory (peak RSS +12 MB on PW).
        with np.errstate(over="ignore", divide="ignore"):
            base = kp[seg]
            slope = kp[1:][seg]
            slope -= base
            hi -= lo
            slope /= hi
            p = xs - lo
            p *= slope
            p += base
            logdpdx = np.log(slope)
        np.clip(p, self.clamp_eps, 1.0 - self.clamp_eps, out=p)
        if xq.ndim == 0:
            return float(p[0]), float(logdpdx[0])
        return p.reshape(xq.shape), logdpdx.reshape(xq.shape)

    def inverse(self, p):
        """Map probabilities in (0, 1) back to data values.

        Each value's CDF-knot segment ``s`` is found once
        (:func:`_p_segment`: a guess from a per-call table of equal cells
        over [0, 1], checked against the segment's two knots, with a binary
        search only for misses).  The value is then
        ``kx[s] + slope * (p - kp[s])`` in ``np.interp``'s order of
        operations, so the result is bit-identical to ``np.interp``.
        Flat CDF segments (possible only for hand-built knot tables) are
        resolved to the midpoint of the flat x-interval.
        """
        pq = _as_float_array(p)
        # NaN fails both comparisons, so this also rejects non-finite input.
        if not np.all((pq > 0.0) & (pq < 1.0)):
            raise ProbabilityOutOfRange("p must lie strictly inside (0, 1)")
        kp, kx = self._inverse_knots()
        ps = pq.ravel()
        with np.errstate(over="ignore"):
            slopes = np.diff(kx) / np.diff(kp)
        if np.all(np.isfinite(slopes)):
            seg, lo, _ = _p_segment(kp, ps)
            x = ps - lo
            x *= slopes[seg]
            x += kx[seg]
        else:
            # An overflowed slope times a zero offset is NaN where np.interp
            # returns the knot; such hand-built tables go to np.interp itself.
            x = np.interp(ps, kp, kx)
        if pq.ndim == 0:
            return float(x[0])
        return x.reshape(pq.shape)

    def _inverse_knots(self):
        # Collapse runs of equal CDF values to the midpoint of their
        # x-interval so the inverse interpolation table is strictly monotone.
        kp, first = np.unique(self.knots_p, return_index=True)
        last = np.r_[first[1:] - 1, self.knots_p.size - 1]
        kx = 0.5 * (self.knots_x[first] + self.knots_x[last])
        return kp, kx


@dataclass(frozen=True)
class MarginalGaussianizer:
    """Composition probit(uniformize(x)): sends one marginal to N(0, 1)."""

    uniformizer: MarginalUniformizer

    def forward(self, x):
        """Return ``(z, logjac)`` with z standard-normal distributed.

        ``logjac`` is the natural log-derivative of the full map,
        ``log u'(x) - log phi(z)``, finite for all finite inputs.
        """
        p, logdpdx = self.uniformizer.forward(x)
        z = probit(p)
        zq = np.asarray(z, dtype=float)
        logjac = logdpdx + 0.5 * zq * zq + 0.5 * math.log(2.0 * math.pi)
        if zq.ndim == 0:
            return float(z), float(logjac)
        return z, logjac

    def inverse(self, z):
        """Map standard-normal values back to data space."""
        zq = _as_float_array(z)
        _require_finite(zq, "z")
        eps = self.uniformizer.clamp_eps
        p = np.asarray(normal_cdf(zq))
        np.clip(p, eps, 1.0 - eps, out=p)
        return self.uniformizer.inverse(p)


def fit_uniformizer(
    x,
    bins: int,
    tail_fraction: float = 0.1,
    clamp_eps: float | None = None,
) -> MarginalUniformizer:
    """Fit a piecewise-linear empirical CDF to a 1-D sample.

    The CDF is the cumulative normalized histogram of ``x`` over the
    observed range, extended by ``tail_fraction`` of the range on each side;
    the extension segments carry the histogram pseudo-count so out-of-sample
    points keep a finite density.

    Parameters
    ----------
    x : array_like
        Training sample, at least two finite values.
    bins : int
        Number of histogram bins, at least 2.
    tail_fraction : float
        Support extension on each side as a fraction of the observed range.
    clamp_eps : float, optional
        Probability clamp; defaults to ``max(1/(2N), 1e-7)``.
    """
    xs = _as_float_array(x).ravel()
    if xs.size < 2:
        raise ValueError("need at least two samples to fit a uniformizer")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if tail_fraction < 0:
        raise ValueError("tail_fraction must be >= 0")
    _require_finite(xs, "x")
    lo0 = float(xs.min())
    hi0 = float(xs.max())
    if hi0 == lo0:
        raise DegenerateDimension("sample has zero range")
    if clamp_eps is None:
        clamp_eps = max(1.0 / (2.0 * xs.size), 1e-7)
    span = hi0 - lo0
    lo = lo0 - tail_fraction * span
    hi = hi0 + tail_fraction * span
    counts, edges = np.histogram(xs, bins=bins, range=(lo0, hi0))
    knots_x = edges
    weights = counts + HIST_SMOOTHING
    if lo < lo0:
        knots_x = np.concatenate([[lo], knots_x])
        weights = np.concatenate([[HIST_SMOOTHING], weights])
    if hi > hi0:
        knots_x = np.concatenate([knots_x, [hi]])
        weights = np.concatenate([weights, [HIST_SMOOTHING]])
    knots_p = np.concatenate([[0.0], np.cumsum(weights)])
    knots_p /= knots_p[-1]
    knots_p[-1] = 1.0
    return MarginalUniformizer(
        support_lo=lo,
        support_hi=hi,
        knots_x=knots_x,
        knots_p=knots_p,
        clamp_eps=float(clamp_eps),
    )


def fit_gaussianizer(
    x,
    bins: int,
    tail_fraction: float = 0.1,
    clamp_eps: float | None = None,
) -> MarginalGaussianizer:
    """Fit the probit-of-empirical-CDF map for one dimension."""
    return MarginalGaussianizer(fit_uniformizer(x, bins, tail_fraction, clamp_eps))


def normal_cdf(z):
    """Standard normal CDF, ``scipy.special.ndtr``, accurate in both tails."""
    zq = _as_float_array(z)
    out = ndtr(zq)
    if zq.ndim == 0:
        return float(out)
    return out


def probit(p):
    """Inverse standard normal CDF, ``scipy.special.ndtri``.

    Evaluated on ``q = min(p, 1-p)`` and mirrored, so
    ``probit(1 - p) == -probit(p)`` holds exactly.
    """
    pq = _as_float_array(p)
    # NaN fails both comparisons, so this also rejects non-finite input.
    if not np.all((pq > 0.0) & (pq < 1.0)):
        raise ProbabilityOutOfRange("p must lie strictly inside (0, 1)")
    # q = 1 - max(p, 1-p) is exact (Sterbenz): p and 1-p share q, and the
    # sign of p - 0.5 mirrors ndtri(q) <= 0 bit-exactly.  Where 1 - p rounds
    # to 1, q falls back to p.
    pa = np.atleast_1d(pq)
    q = np.subtract(1.0, pa)
    np.maximum(pa, q, out=q)
    np.subtract(1.0, q, out=q)
    np.copyto(q, pa, where=q == 0.0)
    z = ndtri(q, out=q)
    np.copysign(z, np.subtract(pa, 0.5), out=z)
    if pq.ndim == 0:
        return float(z[0])
    return z


@dataclass(frozen=True)
class _HistStats:
    probs: np.ndarray
    widths: np.ndarray
    centers: np.ndarray
    n: int
    n_nonempty: int
    entropy_bits: float = field(init=False, default=0.0)

    def __post_init__(self):
        nz = self.probs > 0
        h = -np.sum(self.probs[nz] * np.log2(self.probs[nz] / self.widths[nz]))
        h += (self.n_nonempty - 1) / (2.0 * self.n * LN2)
        object.__setattr__(self, "entropy_bits", float(h))


def _hist_stats(x: np.ndarray, bins: int) -> _HistStats:
    counts, edges = np.histogram(x, bins=bins)
    probs = counts / x.size
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return _HistStats(
        probs=probs,
        widths=widths,
        centers=centers,
        n=x.size,
        n_nonempty=int(np.count_nonzero(counts)),
    )


def _validate_entropy_input(x) -> np.ndarray:
    xs = _as_float_array(x).ravel()
    if xs.size < 10:
        raise ValueError("need at least 10 samples for an entropy estimate")
    _require_finite(xs, "x")
    if xs.max() == xs.min():
        raise DegenerateDimension("sample has zero range")
    return xs


def default_bins(n: int) -> int:
    """Square-root histogram bin rule used whenever bins are unspecified."""
    return max(2, round(math.sqrt(n)))


def marginal_entropy(x, bins: int | None = None) -> float:
    """Histogram differential entropy in bits, Miller-Madow corrected.

    ``H = -sum_k p_k log2(p_k / w_k) + (m - 1) / (2 N ln 2)`` where ``m``
    counts non-empty bins and ``w_k`` are bin widths.
    """
    xs = _validate_entropy_input(x)
    if bins is None:
        bins = default_bins(xs.size)
    return _hist_stats(xs, bins).entropy_bits


def marginal_kl_to_standard_normal(x, bins: int | None = None) -> float:
    """KL divergence of one marginal from N(0, 1), in bits.

    Histogram cross-entropy against the standard normal (evaluated at bin
    centers) minus the histogram entropy estimate, sharing the bins with
    :func:`marginal_entropy`.
    """
    xs = _validate_entropy_input(x)
    if bins is None:
        bins = default_bins(xs.size)
    stats = _hist_stats(xs, bins)
    log2_phi = (-0.5 * stats.centers**2 - 0.5 * math.log(2.0 * math.pi)) / LN2
    cross = -float(np.sum(stats.probs * log2_phi))
    return cross - stats.entropy_bits
