"""Per-dimension invertible uniformization/Gaussianization and marginal entropy.

The one-dimensional building blocks: a piecewise-linear empirical-CDF map to
(0, 1) with a tractable log-derivative, the inverse standard normal CDF, their
composition (which sends any marginal to a standard normal), and the histogram
entropy estimator from which every information measure in this package is
assembled.

The column kernels (the two classes' ``forward``/``inverse``, ``_cdf``,
``probit`` and ``normal_cdf``) are internal: they take and return 1-D float64
columns and check nothing per call.  ``GaussModel`` checks a query once, and
``fit`` each input column through ``marginal_entropy``.  ``_tables`` checks
knot tables: a first layer's in ``fit_gaussianizer``, and all of a model's in
one pass over its (L, D, K) blocks.  The probability clamp, at least
``MIN_CLAMP_EPS``, keeps every probability the kernels see inside (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateDimension, NonFiniteInput, _finite, _integer

__all__ = [
    "GAUSS_ENTROPY_BITS",
    "marginal_entropy",
    "marginal_kl_to_standard_normal",
]

LN2 = math.log(2.0)

# Differential entropy of a standard normal, 0.5*log2(2*pi*e), in bits.
GAUSS_ENTROPY_BITS = 0.5 * math.log2(2.0 * math.pi * math.e)

# The fewest values a histogram entropy estimate takes, and so the fewest
# rows a fit takes.
MIN_ENTROPY_SAMPLES = 10

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

# The smallest probability clamp a table takes, and the one of a fit of more
# than 5e6 rows.  1 - p is then below 1 for every clamped p, so the probit's
# mirror needs no repair.
MIN_CLAMP_EPS = 1e-7


def _checked_segment(knots: np.ndarray, v: np.ndarray, seg: np.ndarray):
    """Check guessed segments of 1-D ``v`` and binary-search the misses.

    Returns ``(seg, knots[seg])`` with ``seg`` equal to
    ``clip(searchsorted(knots, v, "right") - 1, 0, K - 2)`` for any strictly
    increasing ``knots`` and any guess in ``[0, K - 2]``.  A guess holds when
    its two knots bracket the value; only the misses are searched, so a bad
    guess changes the speed, never the answer.
    """
    lo = knots[seg]
    hi = knots[1:][seg]
    miss = v < lo
    miss |= v >= hi
    # Misses are rare on fitted data-side tables (about 1e-6 of a patch
    # fit's values): the search and the scatters run only when there is one.
    if miss.any():
        miss = np.flatnonzero(miss)
        last = knots.size - 2
        found = np.clip(np.searchsorted(knots, v[miss], side="right") - 1, 0, last)
        seg[miss] = found
        lo[miss] = knots[found]
    return seg, lo


def _segment(kx: np.ndarray, x: np.ndarray):
    """Knot segment of each data value of 1-D ``x``, and its left knot.

    Fitted knots are equal-width from ``kx[1]`` to ``kx[-2]``, so a floor
    division guesses each segment, ``x / width + (1 - kx[1] / width)`` in
    two passes; :func:`_checked_segment` checks it.  Misses are values at a
    knot or outside the knots, hand-built non-uniform tables, and values
    within rounding of a knot: the guess's rounding error grows with
    ``|x| / width``, so data whose offset is some 1e10 times its range
    misses more.
    """
    last = kx.size - 2
    inv_width = (kx.size - 3) / float(kx[-2] - kx[1]) if kx.size > 3 else 0.0
    # Far-out points or near-coincident knots can overflow the guess to inf
    # or make it NaN (0 * inf, inf - inf); fmax/fmin send both to a valid
    # index, where np.clip would keep a NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        guess = np.multiply(x, inv_width)
        guess += 1.0 - kx[1] * inv_width
    np.fmax(guess, 0.0, out=guess)
    np.fmin(guess, last, out=guess)
    return _checked_segment(kx, x, guess.astype(np.intp))


# Cells per knot segment in the probability-side guess table.
_CELLS_PER_SEGMENT = 8


def _p_guess_table(kp: np.ndarray) -> np.ndarray:
    """Guess table of CDF knots ``kp``: the segment of the left edge of each
    of ``8 (K - 1)`` equal cells over [0, 1], plus one entry for 1 itself."""
    cells = _CELLS_PER_SEGMENT * (kp.size - 1)
    table = np.searchsorted(kp, np.arange(cells + 1) / cells, side="right") - 1
    np.clip(table, 0, kp.size - 2, out=table)
    return table


def _p_segment(kp: np.ndarray, p: np.ndarray, table: np.ndarray):
    """Knot segment of each probability of 1-D ``p``, and its left knot.

    CDF knots are not equal-width, so the guess comes from a table of equal
    cells over [0, 1], ``table`` (:func:`_p_guess_table` of ``kp``).  A
    value's guess is its cell's entry, which is right unless a knot lies
    between the cell's left edge and the value (about 4% of values on a
    fitted table); :func:`_checked_segment` checks it.
    """
    cells = table.size - 1
    guess = np.multiply(p, cells)
    np.fmax(guess, 0.0, out=guess)
    np.fmin(guess, cells, out=guess)
    return _checked_segment(kp, p, table[guess.astype(np.intp)])


def _cdf(xs, seg, lo, knots_x, knots_p, eps) -> np.ndarray:
    """The forward kernel: a checked table's CDF at 1-D ``xs`` with the
    arithmetic of ``np.interp``, clamped into ``(eps, 1 - eps)``, from each
    value's knot segment ``seg`` and left knot ``lo`` (:func:`_segment`)."""
    slopes = np.diff(knots_p) / np.diff(knots_x)
    # Past the knots p leaves [0, 1] (to +-inf far out) where np.interp
    # holds the end value; the clamp maps both to one bound.
    with np.errstate(over="ignore"):
        p = xs - lo
        p *= slopes[seg]
    p += knots_p[seg]
    np.clip(p, eps, 1.0 - eps, out=p)
    return p


@dataclass(frozen=True)
class MarginalUniformizer:
    """Invertible piecewise-linear map from data space to (0, 1).

    The forward map is the linear interpolation of ``knots_p`` over
    ``knots_x`` clamped into ``(clamp_eps, 1 - clamp_eps)``.  A fitted
    table's ``knots_x`` is ``_knot_grid`` of the sample's range and
    ``knots_p`` is the cumulative normalized histogram of the sample over
    it.

    A record built by :func:`_tables`, which checks the table and adds the
    log of dp/dx for :meth:`forward` and dx/dp for :meth:`inverse`.  A
    model's tables are row views of its blocks.  The
    inverse's guess table (:func:`_p_guess_table`) is built on the first
    :meth:`inverse` call, so a fit or a load does not pay for it.

    Attributes
    ----------
    knots_x : ndarray
        Finite, strictly increasing abscissae of the piecewise-linear CDF.
    knots_p : ndarray
        Strictly increasing CDF values at ``knots_x``; first element 0, last 1.
    clamp_eps : float
        Probability clamp in ``[MIN_CLAMP_EPS, 0.5)`` keeping forward
        outputs away from exactly 0 and 1.
    """

    knots_x: np.ndarray
    knots_p: np.ndarray
    clamp_eps: float
    _log_dpdx: np.ndarray = field(repr=False, compare=False)
    _dxdp: np.ndarray = field(repr=False, compare=False)
    _p_guess: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def forward(self, x: np.ndarray):
        """Map a 1-D column of finite data values to probabilities.

        Each value's knot segment ``s`` is found once (:func:`_segment`).
        It gives both the clamped CDF value (:func:`_cdf`) and the natural
        log of the local CDF slope (the histogram density), read from the
        record's per-segment table.  Out-of-support points get the slope of
        the nearest extension segment.
        """
        seg, lo = _segment(self.knots_x, x)
        return _cdf(x, seg, lo, self.knots_x, self.knots_p, self.clamp_eps), self._log_dpdx[seg]

    def log_slope(self, x: np.ndarray) -> np.ndarray:
        """The log-slopes of :meth:`forward`, bit for bit, without its CDF."""
        return self._log_dpdx[_segment(self.knots_x, x)[0]]

    def inverse(self, p: np.ndarray) -> np.ndarray:
        """Map a 1-D column of probabilities in (0, 1) back to data values.

        Each value's CDF-knot segment ``s`` is found once
        (:func:`_p_segment`: a guess from this table's cells over [0, 1],
        checked against the segment's two knots, with a binary search only
        for misses).  The value is then ``kx[s] + dxdp[s] * (p - kp[s])`` in
        ``np.interp``'s order of operations, so the result is bit-identical
        to ``np.interp``.
        """
        if self._p_guess is None:
            # Concurrent first calls each build the same table; either may
            # be kept.
            object.__setattr__(self, "_p_guess", _p_guess_table(self.knots_p))
        seg, lo = _p_segment(self.knots_p, p, self._p_guess)
        x = p - lo
        x *= self._dxdp[seg]
        x += self.knots_x[seg]
        return x


@dataclass(frozen=True)
class MarginalGaussianizer:
    """Composition probit(uniformize(x)): sends one marginal to N(0, 1)."""

    uniformizer: MarginalUniformizer

    def forward(self, x: np.ndarray):
        """Return ``(z, logjac)`` for a 1-D column of finite data values, with
        z standard-normal distributed.

        ``logjac`` is the natural log-derivative of the full map,
        ``log u'(x) - log phi(z)``, finite for all finite inputs.
        """
        p, logjac = self.uniformizer.forward(x)
        z = probit(p)
        logjac += 0.5 * z * z
        logjac += 0.5 * math.log(2.0 * math.pi)
        return z, logjac

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """Map a 1-D column of standard-normal values back to data space."""
        eps = self.uniformizer.clamp_eps
        p = normal_cdf(z)
        np.clip(p, eps, 1.0 - eps, out=p)
        return self.uniformizer.inverse(p)


def _tables(knots_x, knots_p, clamp_eps, axes=()):
    """Check knot tables in one pass; return them as :class:`MarginalUniformizer`
    records: one holding its own arrays for 1-D blocks, else tuples nested
    over the leading axes, which ``axes`` names, of row views of the blocks.

    ``clamp_eps`` must be a finite number in ``[MIN_CLAMP_EPS, 0.5)``; each
    table's ``knots_p`` must run from 0 to 1, and each segment rise on both
    axes with a finite, positive slope both as dp/dx and as dx/dp.  A bad
    clamp, or the first bad table's first broken rule, raises a one-line
    ``ValueError`` naming the table by its index on ``axes`` (``layer 0
    column 1: knot segment 0 ...``).  Fitted tables pass unless N nears 4e12
    or the data range exceeds about 1.8e306 / N (an extension segment's
    dx/dp is about 100 * range * N).
    """
    eps = _finite("clamp_eps", clamp_eps)
    if not MIN_CLAMP_EPS <= eps < 0.5:
        raise ValueError(f"clamp_eps must be a number in [{MIN_CLAMP_EPS:g}, 0.5), got {eps!r}")
    kx = np.asarray(knots_x, dtype=float)
    kp = np.asarray(knots_p, dtype=float)
    # Heap layout, not live data, moved the benchmark's peak RSS: filling the
    # slopes a layer at a time into views added 3 MB on patch-fit, and kept
    # blocks allocated after the temporaries 13 MB in 3 of 16 patch-query runs.
    # dp/dx is checked in the block that then holds its log.
    dpdx, dxdp = (np.empty((*kp.shape[:-1], kp.shape[-1] - 1)) for _ in range(2))
    with np.errstate(all="ignore"):
        dx = np.diff(kx)
        dp = np.diff(kp)
        np.divide(dp, dx, out=dpdx)
        np.divide(dx, dp, out=dxdp)
        # NaN fails every test; an infinite knot gives a zero dp/dx.  dx > 0 is
        # needed on its own: a segment falling on both axes has positive slopes.
        good = (dx > 0) & (dpdx > 0) & (dpdx < np.inf) & (dxdp > 0) & (dxdp < np.inf)
    ends = (kp[..., 0] == 0.0) & (kp[..., -1] == 1.0)
    ok = ends & good.all(axis=-1)
    if not ok.all():
        t = np.unravel_index(np.argmin(ok), ok.shape)
        where = " ".join(f"{axis} {i}" for axis, i in zip(axes, t)) + ": " if axes else ""
        if not ends[t]:
            raise ValueError(f"{where}knots_p must start at 0 and end at 1")
        i = int(np.argmin(good[t]))
        raise ValueError(
            f"{where}knot segment {i} (x {kx[t][i:i + 2].tolist()}, p {kp[t][i:i + 2].tolist()})"
            " must rise on both axes with finite, positive slopes"
        )
    log_dpdx = np.log(dpdx, out=dpdx)
    blocks = (kx, kp, log_dpdx, dxdp)
    for a in blocks:
        a.setflags(write=False)

    def rows(kx, kp, *slopes):
        if kx.ndim > 1:
            return tuple(rows(*row) for row in zip(kx, kp, *slopes))
        return MarginalUniformizer(kx, kp, eps, *slopes)

    return rows(*blocks)


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


def _bin_counts(x: np.ndarray, grid: np.ndarray):
    """Counts of 1-D ``x`` in the equal-width bins of a knot grid, with each
    value's knot segment and left knot.

    The bins are the grid's interior segments, from ``grid[1]`` to
    ``grid[-2]``; every value must lie in that range.  A value equal to its
    upper end counts in the last bin, though its segment is the extension
    segment after it, as in the table on ``grid``.  The counts equal
    ``np.histogram(x, bins, range=(grid[1], grid[-2]))[0]``, whose edges
    are the same ``linspace``: both place a value between the two edges that
    bracket it.  The segments and left knots are those ``forward`` finds
    for ``x`` on a table whose knots are ``grid``.
    """
    bins = grid.size - 3
    seg, lo = _segment(grid, x)
    counts = np.bincount(seg, minlength=bins + 2)
    counts[bins] += counts[bins + 1]
    return counts[1:-1], seg, lo


def fit_gaussianizer(x: np.ndarray, bins: int) -> MarginalGaussianizer:
    """Fit the probit-of-empirical-CDF map for one dimension.

    The CDF is the cumulative normalized histogram of ``x`` over the
    observed range, extended by ``TAIL_FRACTION`` of the range on each
    side; the extension segments carry the histogram pseudo-count so
    out-of-sample points keep a finite density.  The probability clamp is
    ``default_clamp_eps(N)``.  Where rounding puts an extension knot on the
    range's end (a range of a few ulps of the data's magnitude), the table
    has a zero-width segment and is rejected with ``ValueError``.

    Nothing else is checked: :func:`rbig.flow.fit`, its caller, has checked
    ``bins``, and ``x`` through :func:`marginal_entropy`.

    Parameters
    ----------
    x : ndarray
        Training sample: a 1-D float64 column of finite values with a
        positive range.
    bins : int
        Number of histogram bins, at least 2.
    """
    knots_x = _knot_grid(float(x.min()), float(x.max()), bins)
    knots_p = _cdf_knots(_bin_counts(x, knots_x)[0])
    return MarginalGaussianizer(_tables(knots_x, knots_p, default_clamp_eps(x.size)))


def _cdf_knots(counts: np.ndarray) -> np.ndarray:
    """CDF knots of a fitted table whose bins hold ``counts``: the cumulative
    smoothed counts, scaled to end at 1.  A (D, bins) block of counts gives
    a (D, K) block of knots, each row the bits of its own call."""
    pad = np.full((*counts.shape[:-1], 1), HIST_SMOOTHING)
    weights = np.concatenate([pad, counts + HIST_SMOOTHING, pad], axis=-1)
    knots_p = np.concatenate([np.zeros_like(pad), np.cumsum(weights, axis=-1)], axis=-1)
    knots_p /= knots_p[..., -1:]
    knots_p[..., -1] = 1.0
    return knots_p


def normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-D column, ``scipy.special.ndtr``,
    accurate in both tails."""
    return ndtr(z)


def probit(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse standard normal CDF, ``scipy.special.ndtri``, of a 1-D column
    of clamped probabilities, each in ``[MIN_CLAMP_EPS, 1 - MIN_CLAMP_EPS]``,
    into ``out`` (a fresh array by default).

    Evaluated on ``q = min(p, 1-p)`` and mirrored, so
    ``probit(1 - p) == -probit(p)`` holds exactly.
    """
    # q = 1 - max(p, 1-p) is exact (Sterbenz): p and 1-p share q, and the
    # sign of p - 0.5 mirrors ndtri(q) <= 0 bit-exactly.  The clamp keeps
    # 1 - p below 1, so q is never 0.
    q = np.subtract(1.0, p)
    np.maximum(p, q, out=q)
    np.subtract(1.0, q, out=q)
    z = ndtri(q, out=q)
    return np.copysign(z, np.subtract(p, 0.5), out=z if out is None else out)


def _check_widths(grids: np.ndarray, x_min, x_max) -> None:
    """Refuse knot grids, stacked on the last axis, that have a bin of no
    positive width: a ``ValueError`` names the first such grid's bin count
    and its range, from ``x_min`` and ``x_max`` (the grids' leading shape)."""
    ok = (np.diff(grids[..., 1:-1], axis=-1) > 0).all(axis=-1)
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        lo, hi = float(np.asarray(x_min)[i]), float(np.asarray(x_max)[i])
        raise ValueError(
            f"cannot make {grids.shape[-1] - 3} bins of positive width over [{lo!r}, {hi!r}]"
        )


def _entropies(counts: np.ndarray, grids: np.ndarray, n: int):
    """Entropy and KL to N(0, 1), both in bits, of each row of a (D, bins)
    block of bin ``counts`` of ``n`` values over the (D, bins + 3) knot
    ``grids`` (see :func:`marginal_entropy` and
    :func:`marginal_kl_to_standard_normal`): two (D,) arrays.

    Each row's terms are summed along the row, with empty bins' terms
    zero-filled rather than dropped, so a row has the bits of its own
    one-row call.  A KL is ``inf``, without a warning, where a non-empty
    bin's center squared overflows (|x| beyond about 1.3e154).  Rows whose
    bins are not all of positive width give values of no meaning.
    """
    lower, upper = grids[:, 1:-2], grids[:, 2:-1]
    probs = counts / n
    nz = counts > 0
    # An empty bin's terms are 0 * -inf (its log) and, where a center's
    # log-density overflows, 0 * -inf again: NaN, which np.where drops.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = -np.where(nz, probs * np.log2(probs / (upper - lower)), 0.0).sum(axis=-1)
        h += (nz.sum(axis=-1) - 1) / (2.0 * n * LN2)
        centers = 0.5 * (lower + upper)
        log2_phi = (-0.5 * centers**2 - 0.5 * math.log(2.0 * math.pi)) / LN2
        cross = -np.where(nz, probs * log2_phi, 0.0).sum(axis=-1)
    return h, cross - h


def default_bins(n: int) -> int:
    """Square-root histogram bin rule used whenever bins are unspecified."""
    return max(2, round(math.sqrt(n)))


def default_clamp_eps(n: int) -> float:
    """Probability clamp of a table fitted to ``n`` values,
    ``max(1/(2n), MIN_CLAMP_EPS)``."""
    return max(1.0 / (2.0 * n), MIN_CLAMP_EPS)


def _sample_terms(x, bins: int | None):
    """Entropy and KL to N(0, 1), both in bits, of a sample of at least
    ``MIN_ENTROPY_SAMPLES`` finite values with a positive range, in ``bins``
    bins (None for :func:`default_bins`, else an integer >= 1): the sample
    is binned once over its range, whose knot grid must have bins of
    positive width (``ValueError``), and :func:`_entropies` gives both from
    the one row of counts."""
    if bins is not None:
        bins = _integer("bins", bins, 1)
    xs = np.asarray(x, dtype=float).ravel()
    if xs.size < MIN_ENTROPY_SAMPLES:
        raise ValueError(f"need at least {MIN_ENTROPY_SAMPLES} samples, got {xs.size}")
    x_min, x_max = float(xs.min()), float(xs.max())
    # NaN and +-inf carry through min and max: no separate finiteness pass.
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise NonFiniteInput("sample contains NaN or infinite values")
    if x_max == x_min:
        raise DegenerateDimension("sample has zero range")
    grid = _knot_grid(x_min, x_max, default_bins(xs.size) if bins is None else bins)
    _check_widths(grid, x_min, x_max)
    h, kl = _entropies(_bin_counts(xs, grid)[0][None], grid[None], xs.size)
    return float(h[0]), float(kl[0])


def marginal_entropy(x, bins: int | None = None) -> float:
    """Histogram differential entropy in bits, Miller-Madow corrected.

    ``H = -sum_k p_k log2(p_k / w_k) + (m - 1) / (2 N ln 2)`` where ``m``
    counts non-empty bins and ``w_k`` are bin widths.  ``bins`` is None
    (:func:`default_bins`) or an integer >= 1 by the integer rule of
    :mod:`rbig.errors`.
    """
    return _sample_terms(x, bins)[0]


def marginal_kl_to_standard_normal(x, bins: int | None = None) -> float:
    """KL divergence of one marginal from N(0, 1), in bits.

    Histogram cross-entropy against the standard normal (evaluated at bin
    centers) minus the histogram entropy estimate, sharing the bins with
    :func:`marginal_entropy`.  ``inf`` for a sample reaching beyond about
    +-1.3e154, where the normal log-density at a bin center overflows.
    """
    return _sample_terms(x, bins)[1]
