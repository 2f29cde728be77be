"""Per-dimension invertible uniformization/Gaussianization and marginal entropy.

The one-dimensional building blocks: a piecewise-linear empirical-CDF map to
(0, 1) with a tractable log-derivative, the inverse standard normal CDF, their
composition (which sends any marginal to a standard normal), and the histogram
entropy estimator from which every information measure in this package is
assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Support extension on each side of a fitted table, as a fraction of the
# observed range.  The two extension segments carry the pseudo-count, so
# points outside the training range keep a finite density.
TAIL_FRACTION = 0.1


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
    ``knots_x`` clamped into ``(clamp_eps, 1 - clamp_eps)``.  A fitted
    table's ``knots_x`` is ``_knot_grid`` of the sample's range and
    ``knots_p`` is the cumulative normalized histogram of the sample over
    it.

    The knot table is checked once, at construction, so both kernels use it
    as it is.  A table that breaks one of these invariants raises
    ``ValueError`` naming its first bad segment:

    - ``knots_x`` is finite and strictly increasing;
    - ``knots_p`` is strictly increasing from 0 to 1 (no flat segment);
    - every segment's slope is finite and positive both as dp/dx, which
      :meth:`forward` uses, and as dx/dp, which :meth:`inverse` uses.

    Fitted tables pass unless N nears 4e12 or the data range exceeds about
    1.8e306 / N (an extension segment's dx/dp is about 100 * range * N).

    Attributes
    ----------
    knots_x : ndarray
        Finite, strictly increasing abscissae of the piecewise-linear CDF.
    knots_p : ndarray
        Strictly increasing CDF values at ``knots_x``; first element 0, last 1.
    clamp_eps : float
        Probability clamp in (0, 0.5) keeping forward outputs away from
        exactly 0 and 1.
    """

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
        if not (kp[0] == 0.0 and kp[-1] == 1.0):
            raise ValueError("knots_p must start at 0 and end at 1")
        # NaN fails every test; an infinite knot gives a zero dp/dx.  dx > 0
        # is needed on its own: a segment falling on both axes has positive
        # slopes.
        dx = np.diff(kx)
        with np.errstate(all="ignore"):
            dpdx = np.diff(kp) / dx
            dxdp = dx / np.diff(kp)
        good = (dx > 0) & (dpdx > 0) & (dpdx < np.inf) & (dxdp > 0) & (dxdp < np.inf)
        if not good.all():
            i = int(np.argmin(good))
            raise ValueError(
                f"knot segment {i} (x {kx[i:i + 2].tolist()}, p {kp[i:i + 2].tolist()})"
                " must rise on both axes with finite, positive slopes"
            )
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
        base = kp[seg]
        slope = kp[1:][seg]
        slope -= base
        hi -= lo
        slope /= hi
        with np.errstate(over="ignore"):
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
        """
        pq = _as_float_array(p)
        # NaN fails both comparisons, so this also rejects non-finite input.
        if not np.all((pq > 0.0) & (pq < 1.0)):
            raise ProbabilityOutOfRange("p must lie strictly inside (0, 1)")
        kx, kp = self.knots_x, self.knots_p
        ps = pq.ravel()
        seg, lo, _ = _p_segment(kp, ps)
        x = ps - lo
        x *= (np.diff(kx) / np.diff(kp))[seg]
        x += kx[seg]
        if pq.ndim == 0:
            return float(x[0])
        return x.reshape(pq.shape)


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


def _knot_grid(x_min, x_max, bins: int) -> np.ndarray:
    """Knot abscissae of a fitted table: where the knots sit.

    ``bins + 1`` equal-width knots from ``x_min`` to ``x_max`` (the edges
    ``np.histogram`` uses over that range) and one support-extension knot
    ``TAIL_FRACTION`` of the range beyond each end, ``bins + 3`` in all.
    Array bounds give one grid per element, stacked on the last axis, each
    bit-identical to the grid of its scalar bounds.
    """
    ext = TAIL_FRACTION * np.subtract(x_max, x_min)
    lo = np.subtract(x_min, ext)[..., None]
    hi = np.add(x_max, ext)[..., None]
    grid = np.linspace(x_min, x_max, bins + 1, axis=-1)
    return np.concatenate([lo, grid, hi], axis=-1)


def _bin_counts(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Counts of 1-D ``x`` in the equal-width bins of a knot grid.

    The bins are the grid's interior segments, from ``grid[1]`` to
    ``grid[-2]``; every value must lie in that range.  A value equal to its
    upper end counts in the last bin.  The counts equal ``np.histogram(x,
    bins, range=(grid[1], grid[-2]))[0]``, whose edges are the same
    ``linspace``: both place a value between the two edges that bracket it.
    """
    bins = grid.size - 3
    seg, _, _ = _segment(grid, x)
    np.minimum(seg, bins, out=seg)
    return np.bincount(seg, minlength=bins + 1)[1:]


def fit_uniformizer(x, bins: int) -> MarginalUniformizer:
    """Fit a piecewise-linear empirical CDF to a 1-D sample.

    The CDF is the cumulative normalized histogram of ``x`` over the
    observed range, extended by ``TAIL_FRACTION`` of the range on each
    side; the extension segments carry the histogram pseudo-count so
    out-of-sample points keep a finite density.  The probability clamp is
    ``default_clamp_eps(N)``.  Where rounding puts an extension knot on the
    range's end (a range of a few ulps of the data's magnitude), the table
    has a zero-width segment and is rejected with ``ValueError``.

    Parameters
    ----------
    x : array_like
        Training sample, at least two finite values.
    bins : int
        Number of histogram bins, at least 2.
    """
    xs = _as_float_array(x).ravel()
    if xs.size < 2:
        raise ValueError("need at least two samples to fit a uniformizer")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    _require_finite(xs, "x")
    x_min = float(xs.min())
    x_max = float(xs.max())
    if x_max == x_min:
        raise DegenerateDimension("sample has zero range")
    knots_x = _knot_grid(x_min, x_max, bins)
    return _table(knots_x, _bin_counts(xs, knots_x), xs.size)


def _table(knots_x: np.ndarray, counts: np.ndarray, n: int) -> MarginalUniformizer:
    """The fitted table of ``n`` values with ``counts`` in the bins of
    ``knots_x``: the cumulative smoothed counts, scaled to end at 1."""
    weights = np.concatenate([[HIST_SMOOTHING], counts + HIST_SMOOTHING, [HIST_SMOOTHING]])
    knots_p = np.concatenate([[0.0], np.cumsum(weights)])
    knots_p /= knots_p[-1]
    knots_p[-1] = 1.0
    return MarginalUniformizer(knots_x=knots_x, knots_p=knots_p, clamp_eps=default_clamp_eps(n))


def fit_gaussianizer(x, bins: int) -> MarginalGaussianizer:
    """Fit the probit-of-empirical-CDF map for one dimension."""
    return MarginalGaussianizer(fit_uniformizer(x, bins))


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


def _hist_entropy(x: np.ndarray, x_min: float, x_max: float, bins: int):
    """Bin ``x`` over its range ``[x_min, x_max]`` once: the counts, the
    entropy and the KL to N(0, 1), both in bits (see :func:`marginal_entropy`
    and :func:`marginal_kl_to_standard_normal`)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    grid = _knot_grid(x_min, x_max, bins)
    edges = grid[1:-1]
    widths = np.diff(edges)
    if not np.all(widths > 0):
        raise ValueError(
            f"cannot make {bins} bins of positive width over [{x_min!r}, {x_max!r}]"
        )
    counts = _bin_counts(x, grid)
    probs = counts / x.size
    nz = probs > 0
    h = float(-np.sum(probs[nz] * np.log2(probs[nz] / widths[nz])))
    h += (int(np.count_nonzero(nz)) - 1) / (2.0 * x.size * LN2)
    centers = 0.5 * (edges[:-1] + edges[1:])
    log2_phi = (-0.5 * centers**2 - 0.5 * math.log(2.0 * math.pi)) / LN2
    return counts, h, -float(np.sum(probs * log2_phi)) - h


def _validate_entropy_input(x):
    """The sample as a 1-D array, with its minimum and maximum."""
    xs = _as_float_array(x).ravel()
    if xs.size < 10:
        raise ValueError("need at least 10 samples for an entropy estimate")
    _require_finite(xs, "x")
    x_min = float(xs.min())
    x_max = float(xs.max())
    if x_max == x_min:
        raise DegenerateDimension("sample has zero range")
    return xs, x_min, x_max


def default_bins(n: int) -> int:
    """Square-root histogram bin rule used whenever bins are unspecified."""
    return max(2, round(math.sqrt(n)))


def default_clamp_eps(n: int) -> float:
    """Probability clamp of a table fitted to ``n`` values, ``max(1/(2n), 1e-7)``."""
    return max(1.0 / (2.0 * n), 1e-7)


def marginal_entropy(x, bins: int | None = None) -> float:
    """Histogram differential entropy in bits, Miller-Madow corrected.

    ``H = -sum_k p_k log2(p_k / w_k) + (m - 1) / (2 N ln 2)`` where ``m``
    counts non-empty bins and ``w_k`` are bin widths.
    """
    xs, x_min, x_max = _validate_entropy_input(x)
    if bins is None:
        bins = default_bins(xs.size)
    return _hist_entropy(xs, x_min, x_max, bins)[1]


def marginal_kl_to_standard_normal(x, bins: int | None = None) -> float:
    """KL divergence of one marginal from N(0, 1), in bits.

    Histogram cross-entropy against the standard normal (evaluated at bin
    centers) minus the histogram entropy estimate, sharing the bins with
    :func:`marginal_entropy`.
    """
    xs, x_min, x_max = _validate_entropy_input(x)
    if bins is None:
        bins = default_bins(xs.size)
    return _hist_entropy(xs, x_min, x_max, bins)[2]
