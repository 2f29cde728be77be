import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from rbig import (
    GAUSS_ENTROPY_BITS,
    DegenerateDimension,
    NonFiniteInput,
    entropy,
    fit,
    marginal_entropy,
    marginal_kl_to_standard_normal,
)
from rbig.marginal import (
    MIN_CLAMP_EPS,
    MarginalGaussianizer,
    _bin_counts,
    _checked_segment,
    _entropies,
    _knot_grid,
    _p_guess_table,
    _p_segment,
    _segment,
    _tables,
    default_bins,
    fit_gaussianizer,
    normal_cdf,
    probit,
)


def erf_cdf(z):
    # Independent oracle for the standard normal CDF.
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def col(*values):
    """A 1-D float64 column: the column kernels take nothing else."""
    return np.array(values, dtype=float)


def fit_table(x, bins):
    return fit_gaussianizer(x, bins).uniformizer


ENDS_RULE = "knots_p must start at 0 and end at 1$"


def identity_uniformizer():
    return _tables(col(0.0, 1.0), col(0.0, 1.0), 1e-6)


class TestFitUniformizer:
    def test_uniform_data_has_identity_cdf(self):
        x = np.random.default_rng(0).uniform(0, 1, 10000)
        u = fit_table(x, bins=100)
        (p,), _ = u.forward(col(0.5))
        assert 0.48 <= p <= 0.52

    def test_symmetric_four_points(self):
        u = fit_table(np.array([1.0, 2.0, 3.0, 4.0]), bins=2)
        (p,), _ = u.forward(col(2.5))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_normal_cdf_value(self):
        x = np.random.default_rng(1).standard_normal(50000)
        u = fit_table(x, bins=223)
        (p,), _ = u.forward(col(1.0))
        assert p == pytest.approx(erf_cdf(1.0), abs=0.01)

    def test_knot_invariants(self):
        x = np.random.default_rng(2).standard_normal(5000)
        u = fit_table(x, bins=70)
        assert np.all(np.diff(u.knots_x) > 0)
        assert np.all(np.diff(u.knots_p) >= 0)
        assert u.knots_p[0] == 0.0 and u.knots_p[-1] == 1.0

    @pytest.mark.parametrize(
        "knots_x, knots_p, message",
        [
            ([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.5, 1.0], "knot segment 1 "),
            (np.arange(6.0), [0.0, 0.25, 0.25, 0.25, 0.5, 1.0], "knot segment 1 "),
            ([0.0, 1.0, np.inf], [0.0, 0.5, 1.0], "knot segment 1 "),
            ([0.0, np.nan, 2.0], [0.0, 0.5, 1.0], "knot segment 0 "),
            ([0.0, 1e-320, 1.0], [0.0, 0.5, 1.0], "knot segment 0 "),
            # A one-ulp CDF step under a 1e300-wide segment.
            ([0.0, 1.0, 1e300, 2e300], [0.0, 0.5, np.nextafter(0.5, 1.0), 1.0],
             "knot segment 1 "),
            # Both slopes of the falling segment are positive.
            ([0.0, 2.0, 1.0, 3.0], [0.0, 0.6, 0.3, 1.0], "knot segment 1 "),
            # Every segment rises on both axes; only the ends are wrong.
            ([0.0, 1.0, 2.0, 3.0], [0.25, 0.5, 0.6, 1.0], ENDS_RULE),
            ([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.6, 0.75], ENDS_RULE),
        ],
        ids=[
            "flat-cdf-segment",
            "flat-cdf-run",
            "infinite-knot",
            "nan-knot",
            "dpdx-overflows",
            "dxdp-overflows",
            "falls-on-both-axes",
            "cdf-starts-above-0",
            "cdf-ends-below-1",
        ],
    )
    def test_bad_table_rejected(self, knots_x, knots_p, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            _tables(np.array(knots_x), np.array(knots_p), 1e-6)

    @pytest.mark.parametrize(
        "eps, rule",
        [
            (0.0, "a number in [1e-07, 0.5)"),
            (float(np.nextafter(MIN_CLAMP_EPS, 0.0)), "a number in [1e-07, 0.5)"),
            (0.5, "a number in [1e-07, 0.5)"),
            (math.nan, "a finite number"),
            (True, "a finite number"),
            (None, "a finite number"),
        ],
        ids=["zero", "below-floor", "half", "nan", "bool", "none"],
    )
    def test_clamp_outside_floor_and_half_rejected(self, eps, rule):
        # The clamp keeps every probability the kernels see inside (0, 1),
        # so a table may not clamp below the floor.
        message = f"^{re.escape(f'clamp_eps must be {rule}, got {eps!r}')}$"
        with pytest.raises(ValueError, match=message):
            _tables(col(0.0, 1.0), col(0.0, 1.0), eps)
        assert _tables(col(0.0, 1.0), col(0.0, 1.0), MIN_CLAMP_EPS).clamp_eps == MIN_CLAMP_EPS

    def test_extension_knot_rounding_onto_range_end_rejected(self):
        # 2**53 + 4 + 0.8 rounds back to 2**53 + 4: a zero-width extension.
        with pytest.raises(ValueError, match="^knot segment 3 "):
            fit_table(np.array([2.0**53 - 4, 2.0**53, 2.0**53 + 4]), 2)

    # ``ties``: the fraction of the sample replaced by its median.  The grid
    # depends on the range alone, so an atom inside it leaves the knots be.
    @pytest.mark.parametrize("ties", [0.0, 1e-3, 0.1])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.standard_normal(3000),
            lambda rng: rng.lognormal(size=500),
            lambda rng: rng.standard_cauchy(2000),
            lambda rng: 3e7 + 1e5 * rng.uniform(size=40),
        ],
        ids=["normal", "lognormal", "cauchy", "offset"],
    )
    def test_knots_x_are_histogram_edges_plus_extension(self, ties, draw):
        x = draw(np.random.default_rng(23))
        x[: int(ties * x.size)] = np.median(x)
        bins = default_bins(x.size)
        u = fit_table(x, bins)
        lo, hi = x.min(), x.max()
        _, ref = np.histogram(x, bins, range=(lo, hi))
        ref = np.concatenate([[lo - 0.1 * (hi - lo)], ref, [hi + 0.1 * (hi - lo)]])
        assert np.array_equal(u.knots_x, ref)
        # Array bounds: one grid per element, each equal to its scalar grid.
        grids = _knot_grid(np.array([lo, -1.0]), np.array([hi, 2.0]), bins)
        assert np.array_equal(grids[0], ref)
        assert np.array_equal(grids[1], _knot_grid(-1.0, 2.0, bins))


def fitted_tables_block(d):
    """Blocks ``(knots_x, knots_p, clamp_eps)`` of the tables fit makes at
    ``d`` columns, one layer per sample (N(0, I), correlated, heavy-tailed),
    all in 40 bins."""
    rng = np.random.default_rng(d)
    white = rng.standard_normal((4 * d + 50, d))
    samples = (white, white @ rng.standard_normal((d, d)), white**3)
    tables = [[fit_table(x[:, j], 40) for j in range(d)] for x in samples]
    knots_x, knots_p = (
        np.array([[getattr(u, name) for u in layer] for layer in tables])
        for name in ("knots_x", "knots_p")
    )
    return knots_x, knots_p, tables[0][0].clamp_eps


class TestTableBlockCheck:
    @pytest.mark.parametrize("d", [1, 2, 49])
    def test_accepts_every_fitted_block(self, d):
        knots_x, knots_p, eps = fitted_tables_block(d)
        tables = _tables(knots_x, knots_p, eps, axes=("layer", "column"))
        assert len(tables) == 3
        for i, layer in enumerate(tables):
            assert len(layer) == d
            for j, u in enumerate(layer):
                assert np.array_equal(u.knots_x, knots_x[i, j])
                assert np.array_equal(u.knots_p, knots_p[i, j])
                assert u.clamp_eps == eps

    @pytest.mark.parametrize("d", [1, 2, 49])
    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize("column", ["first", "last"])
    def test_flat_segment_names_its_table(self, d, layer, column):
        knots_x, knots_p, eps = fitted_tables_block(d)
        j = 0 if column == "first" else d - 1
        knots_p[layer, j, 21] = knots_p[layer, j, 20]
        message = f"^layer {layer} column {j}: knot segment 20 \\(x "
        with pytest.raises(ValueError, match=message):
            _tables(knots_x, knots_p, eps, axes=("layer", "column"))


# Samples for the bin-count property: smooth, heavy-tailed, lattice (every
# value tied, many on bin edges) and a range of a few hundred ulps.
BIN_COUNT_DRAWS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "lognormal": lambda rng, n: rng.lognormal(size=n),
    "cauchy": lambda rng, n: rng.standard_cauchy(n),
    "lattice": lambda rng, n: rng.integers(-3, 4, n).astype(float),
    "near-one": lambda rng, n: 1.0 + 1e-9 * rng.uniform(size=n),
}


class TestBinCounts:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(sorted(BIN_COUNT_DRAWS)),
        scale=st.sampled_from([1e-200, 1.0, 1e200]),
        n=st.integers(2, 2000),
        bins=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_and_edges_equal_histogram(self, kind, scale, n, bins, seed):
        x = scale * BIN_COUNT_DRAWS[kind](np.random.default_rng(seed), n)
        lo, hi = x.min(), x.max()
        if lo == hi:
            return
        grid = _knot_grid(lo, hi, bins)
        counts, edges = np.histogram(x, bins, range=(lo, hi))
        binned, seg, lo = _bin_counts(x, grid)
        assert np.array_equal(binned, counts)
        # The segments and left knots forward finds on a table of this grid.
        assert np.array_equal(seg, reference_segment(grid, x))
        assert np.array_equal(lo, grid[seg])
        assert np.array_equal(grid[1:-1], edges)
        assert np.array_equal(np.histogram(x, bins)[1], edges)


def entropy_rows(counts, grids, n):
    """``_entropies`` of each row of a block, called on that row alone."""
    rows = [_entropies(counts[j : j + 1], grids[j : j + 1], n) for j in range(len(counts))]
    return tuple(np.concatenate(part) for part in zip(*rows))


class TestEntropyBlock:
    """The entropies and KLs of a layer's columns, from one (D, bins) block
    of counts: each row has the bits of its own call, and so of the public
    per-column calls."""

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 8),
        bins=st.integers(1, 60),
        n=st.integers(1, 500),
        single=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_one_row_calls(self, d, bins, n, single, seed):
        # Sparse histograms: most bins empty, and some rows (every row at
        # one bin) with a single non-empty bin.
        rng = np.random.default_rng(seed)
        weights = rng.random((d, bins)) * (rng.random((d, bins)) < 0.3)
        lone = rng.random(d) < single
        weights[lone] = 0.0
        weights[lone, rng.integers(0, bins, d)[lone]] = 1.0
        weights[weights.sum(axis=1) == 0, 0] = 1.0
        counts = np.array([rng.multinomial(n, w / w.sum()) for w in weights])
        lo = rng.normal(0.0, 10.0, d)
        grids = _knot_grid(lo, lo + rng.uniform(1e-3, 1e3, d), bins)
        h, kl = _entropies(counts, grids, n)
        h_rows, kl_rows = entropy_rows(counts, grids, n)
        assert same_bits(h, h_rows)
        assert same_bits(kl, kl_rows)

    @settings(max_examples=100, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(sorted(BIN_COUNT_DRAWS)), min_size=1, max_size=6),
        scale=st.sampled_from([1e-200, 1.0, 1e200]),
        n=st.integers(10, 400),
        bins=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_public_calls(self, kinds, scale, n, bins, seed):
        rng = np.random.default_rng(seed)
        x = np.column_stack([scale * BIN_COUNT_DRAWS[kind](rng, n) for kind in kinds])
        x = x[:, x.min(axis=0) < x.max(axis=0)]
        if not x.shape[1]:
            return
        grids = _knot_grid(x.min(axis=0), x.max(axis=0), bins)
        counts = np.array([_bin_counts(x[:, j], grids[j])[0] for j in range(x.shape[1])])
        h, kl = _entropies(counts, grids, n)
        assert same_bits(h, np.array([marginal_entropy(c, bins) for c in x.T]))
        assert same_bits(kl, np.array([marginal_kl_to_standard_normal(c, bins) for c in x.T]))
        h_rows, kl_rows = entropy_rows(counts, grids, n)
        assert same_bits(h, h_rows)
        assert same_bits(kl, kl_rows)


class TestUniformizeForward:
    def test_identity_cdf_unit_slope(self):
        u = identity_uniformizer()
        (p,), (logdpdx,) = u.forward(col(0.25))
        assert p == pytest.approx(0.25)
        assert logdpdx == pytest.approx(0.0)

    def test_clamp_beyond_support(self):
        x = np.random.default_rng(3).standard_normal(1000)
        u = fit_table(x, bins=30)
        (p,), (logdpdx,) = u.forward(col(u.knots_x[-1] + 10.0))
        assert p == 1.0 - u.clamp_eps
        assert np.isfinite(logdpdx)

    def test_log_slope_matches_normal_pdf(self):
        x = np.random.default_rng(4).standard_normal(100000)
        u = fit_table(x, bins=316)
        _, (logdpdx,) = u.forward(col(0.0))
        assert logdpdx == pytest.approx(math.log(1.0 / math.sqrt(2 * math.pi)), abs=0.05)

    def test_finite_log_slope_inside_support(self):
        x = np.random.default_rng(5).standard_normal(2000)
        u = fit_table(x, bins=40)
        grid = np.linspace(u.knots_x[0] + 1e-9, u.knots_x[-1] - 1e-9, 500)
        _, logdpdx = u.forward(grid)
        assert np.all(np.isfinite(logdpdx))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_segment(kx, x):
    return np.clip(np.searchsorted(kx, x, side="right") - 1, 0, kx.size - 2)


def reference_forward(u, x):
    # The two-binary-search formula: np.interp for the CDF value and a
    # separate searchsorted for the slope.
    kx, kp = u.knots_x, u.knots_p
    p = np.clip(np.interp(x, kx, kp), u.clamp_eps, 1.0 - u.clamp_eps)
    seg = reference_segment(kx, x)
    logdpdx = np.log((kp[seg + 1] - kp[seg]) / (kx[seg + 1] - kx[seg]))
    return p, logdpdx


def probe_points(kx, draws):
    """Every knot, its float neighbours, +-1e300 and draws spread past the ends."""
    span = kx[-1] - kx[0]
    spread = kx[0] - span + np.asarray(draws) * 3.0 * span
    return np.concatenate(
        [kx, np.nextafter(kx, -np.inf), np.nextafter(kx, np.inf), [-1e300, 1e300], spread]
    )


def check_segment(kx, x):
    seg, lo = _segment(kx, x)
    ref = reference_segment(kx, x)
    assert np.array_equal(seg, ref)
    assert np.array_equal(lo, kx[ref])


fitted_tables = st.builds(
    lambda seed, n, bins, scale: fit_table(
        scale * np.random.default_rng(seed).standard_normal(n), bins
    ),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 400),
    bins=st.integers(2, 60),
    scale=st.sampled_from([1e-6, 1.0, 3e5]),
)
draws = st.lists(st.floats(0.0, 1.0), max_size=50)


class TestSegmentLookup:
    @settings(deadline=None)
    @given(u=fitted_tables, draws=draws)
    def test_fitted_tables(self, u, draws):
        check_segment(u.knots_x, probe_points(u.knots_x, draws))

    @settings(deadline=None)
    @given(
        knots=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40, unique=True
        ),
        draws=draws,
    )
    def test_hand_built_tables(self, knots, draws):
        kx = np.sort(np.array(knots))
        check_segment(kx, probe_points(kx, draws))

    @pytest.mark.parametrize(
        "kx",
        [
            # 1e-300 wide: values of +-1e308 overflow the guess to +-inf.
            np.linspace(-0.3e-300, 0.7e-300, 12),
            # Subnormal knot spacing: 1 / width overflows to inf, and the
            # guess is NaN (0 * inf, inf - inf) or +-inf for every value.
            5e-324 * np.arange(12.0),
        ],
        ids=["1e-300-wide", "subnormal-spacing"],
    )
    def test_overflowing_guesses(self, kx):
        x = np.concatenate([[-1e308, 1e308, -1.0, 1.0, 0.0, -0.0], probe_points(kx, [0.25, 0.5])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_segment(kx, x)

    @pytest.mark.parametrize("guesses", ["all-hit", "all-miss"])
    def test_checked_guesses(self, guesses):
        kx = np.cumsum(np.random.default_rng(25).uniform(0.1, 2.0, 30))
        x = probe_points(kx, np.random.default_rng(26).uniform(size=200))
        ref = reference_segment(kx, x)
        # Every guess right, or every guess a segment off.
        guess = ref.copy() if guesses == "all-hit" else (ref + 1) % (kx.size - 1)
        seg, lo = _checked_segment(kx, x, guess)
        assert np.array_equal(seg, ref)
        assert np.array_equal(lo, kx[ref])

    @settings(deadline=None)
    @given(u=fitted_tables, draws=draws)
    def test_forward_bit_identical_to_interp(self, u, draws):
        x = probe_points(u.knots_x, draws)
        p, logdpdx = u.forward(x)
        p_ref, logdpdx_ref = reference_forward(u, x)
        assert np.array_equal(p, p_ref)
        assert np.array_equal(logdpdx, logdpdx_ref)
        assert same_bits(u.log_slope(x), logdpdx)
        for i in range(0, x.size, max(1, x.size // 8)):
            p1, logdpdx1 = u.forward(x[i : i + 1])
            assert same_bits(p1, p_ref[i : i + 1])
            assert same_bits(logdpdx1, logdpdx_ref[i : i + 1])

    @settings(deadline=None)
    @given(u=fitted_tables, draws=draws)
    def test_forward_finite_on_fitted_tables(self, u, draws):
        p, logdpdx = u.forward(probe_points(u.knots_x, draws))
        assert np.all(np.isfinite(logdpdx))
        assert np.all((p >= u.clamp_eps) & (p <= 1.0 - u.clamp_eps))

    def test_shape_preserved(self):
        # A strided column, as the last layer of a one-layer log_density
        # reads from a row-major query: one value per row, the bits of its
        # contiguous copy.
        u = fit_table(np.random.default_rng(21).standard_normal(500), bins=20)
        x = np.random.default_rng(22).standard_normal((60, 5))[:, 3]
        assert not x.flags.contiguous
        p, logdpdx = u.forward(x)
        p_ref, logdpdx_ref = reference_forward(u, x.copy())
        assert p.shape == logdpdx.shape == x.shape
        assert same_bits(p, p_ref)
        assert same_bits(logdpdx, logdpdx_ref)
        assert same_bits(u.log_slope(x), logdpdx_ref)


def reference_inverse(u, p):
    return np.interp(p, u.knots_p, u.knots_x)


def p_probe_points(u, draws):
    """Every CDF knot inside (0, 1), its float neighbours, the clamp bounds
    and draws over (0, 1)."""
    kp = u.knots_p
    pts = np.concatenate(
        [
            kp,
            np.nextafter(kp, -np.inf),
            np.nextafter(kp, np.inf),
            [u.clamp_eps, 1.0 - u.clamp_eps],
            np.asarray(draws, dtype=float),
        ]
    )
    return pts[(pts > 0.0) & (pts < 1.0)]


def check_p_segment(kp, p):
    seg, lo = _p_segment(kp, p, _p_guess_table(kp))
    ref = reference_segment(kp, p)
    assert np.array_equal(seg, ref)
    assert np.array_equal(lo, kp[ref])


def tiny_mass_table(weights):
    """Hand-built table from segment masses; tiny masses put many CDF knots
    in one guess cell."""
    kp = np.concatenate([[0.0], np.cumsum(weights)])
    kp /= kp[-1]
    kp[-1] = 1.0
    kp = np.unique(kp)
    return _tables(np.arange(kp.size, dtype=float), kp, MIN_CLAMP_EPS)


tiny_mass_tables = st.builds(
    tiny_mass_table,
    st.lists(
        st.one_of(st.floats(1e-12, 1e-6), st.floats(1e-3, 1.0)), min_size=1, max_size=60
    ),
)
p_draws = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=50)


class TestProbabilitySegmentLookup:
    @settings(deadline=None)
    @given(u=fitted_tables, draws=p_draws)
    def test_fitted_tables(self, u, draws):
        kp = u.knots_p
        check_p_segment(kp, p_probe_points(u, draws))
        # Outside (0, 1) too: the lookup is the clipped searchsorted anywhere.
        check_p_segment(kp, np.array([-1.0, -0.0, np.nextafter(0.0, -1.0), 1.0, 2.0]))

    @settings(deadline=None)
    @given(u=tiny_mass_tables, draws=p_draws)
    def test_tiny_mass_tables(self, u, draws):
        check_p_segment(u.knots_p, p_probe_points(u, draws))

    @settings(deadline=None)
    @given(u=fitted_tables, draws=p_draws)
    def test_inverse_bit_identical_to_interp(self, u, draws):
        p = p_probe_points(u, draws)
        ref = reference_inverse(u, p)
        assert np.array_equal(u.inverse(p), ref)
        for i in range(0, p.size, max(1, p.size // 8)):
            assert same_bits(u.inverse(p[i : i + 1]), ref[i : i + 1])

    @settings(deadline=None)
    @given(u=tiny_mass_tables, draws=p_draws)
    def test_tiny_mass_inverse_bit_identical_to_interp(self, u, draws):
        p = p_probe_points(u, draws)
        assert np.array_equal(u.inverse(p), reference_inverse(u, p))

    def test_shape_preserved(self):
        # A strided column: one value per row, bit-identical to np.interp.
        u = fit_table(np.random.default_rng(23).standard_normal(500), bins=20)
        p = np.random.default_rng(24).uniform(0.01, 0.99, (60, 5))[:, 2]
        assert not p.flags.contiguous
        x = u.inverse(p)
        assert x.shape == p.shape
        assert same_bits(x, reference_inverse(u, p))


class TestUniformizeInverse:
    def test_identity_inverse(self):
        u = identity_uniformizer()
        assert u.inverse(col(0.75)) == pytest.approx([0.75])

    def test_forward_inverse_roundtrip(self):
        x = np.random.default_rng(6).standard_normal(20000)
        u = fit_table(x, bins=140)
        p, _ = u.forward(x)
        back = u.inverse(p)
        lo, hi = np.percentile(x, [0.5, 99.5])
        central = (x >= lo) & (x <= hi)
        span = x.max() - x.min()
        assert np.max(np.abs(back[central] - x[central])) <= 1e-6 * span

    def test_inverse_forward_roundtrip_on_probabilities(self):
        x = np.random.default_rng(7).standard_normal(5000)
        u = fit_table(x, bins=70)
        p = np.linspace(u.clamp_eps, 1 - u.clamp_eps, 1000)
        p2, _ = u.forward(u.inverse(p))
        assert np.max(np.abs(p2 - p)) <= 1e-9

    def test_normal_quantile(self):
        x = np.random.default_rng(8).standard_normal(100000)
        u = fit_table(x, bins=316)
        assert u.inverse(col(0.9772)) == pytest.approx([ndtri(0.9772)], abs=0.05)


class TestProbit:
    def test_median(self):
        assert same_bits(probit(col(0.5)), col(0.0))

    def test_oracle_values(self):
        assert probit(col(0.8413, 0.0013499)) == pytest.approx([1.0, -3.0], abs=1e-3)

    def test_symmetry_bit_exact_on_grid(self):
        grid = np.arange(1, 10000) / 10000.0
        assert np.array_equal(probit(grid), -probit(1.0 - grid))

    def test_cdf_accuracy(self):
        grid = np.concatenate(
            [np.arange(1, 10000) / 10000.0, [1e-9, 1e-6, 1 - 1e-9, 1 - 1e-6]]
        )
        z = probit(grid)
        assert np.max(np.abs(normal_cdf(z) - grid)) <= 1e-9

    def test_against_independent_oracle(self):
        grid = np.arange(1, 2000) / 2000.0
        assert np.max(np.abs(probit(grid) - ndtri(grid))) < 1e-12


class TestMarginalGaussianize:
    def test_identity_cdf_at_midpoint(self):
        g = MarginalGaussianizer(identity_uniformizer())
        (z,), (logjac,) = g.forward(col(0.5))
        assert z == pytest.approx(0.0, abs=1e-12)
        # log-Jacobian is -log phi(0) for a unit-slope CDF
        assert logjac == pytest.approx(0.9189385332046727, abs=1e-9)

    def test_median_maps_near_zero(self):
        x = np.random.default_rng(9).gamma(2.0, size=10000)
        g = fit_gaussianizer(x, bins=100)
        (z,), _ = g.forward(col(np.median(x)))
        assert abs(z) <= 0.1

    def test_gaussian_data_near_identity(self):
        x = np.random.default_rng(10).standard_normal(100000)
        g = fit_gaussianizer(x, bins=316)
        (z,), _ = g.forward(col(1.5))
        assert z == pytest.approx(1.5, abs=0.1)

    def test_monotonicity(self):
        x = np.random.default_rng(11).standard_normal(5000)
        g = fit_gaussianizer(x, bins=70)
        u = g.uniformizer
        grid = np.linspace(u.knots_x[0] + 1e-9, u.knots_x[-1] - 1e-9, 2000)
        p, _ = u.forward(grid)
        inside = (p > u.clamp_eps) & (p < 1 - u.clamp_eps)  # clamp flattens the tails
        z, _ = g.forward(grid[inside])
        assert np.all(np.diff(z) > 0)

    def test_roundtrip_central_support(self):
        x = np.random.default_rng(12).lognormal(size=20000)
        g = fit_gaussianizer(x, bins=140)
        lo, hi = np.percentile(x, [0.5, 99.5])
        central = x[(x >= lo) & (x <= hi)]
        z, _ = g.forward(central)
        back = g.inverse(z)
        span = x.max() - x.min()
        assert np.max(np.abs(back - central)) <= 1e-6 * span

    def test_logjac_matches_finite_differences(self):
        x = np.random.default_rng(13).standard_normal(50000)
        g = fit_gaussianizer(x, bins=223)
        u = g.uniformizer
        span = u.knots_x[-1] - u.knots_x[0]
        h = 1e-5 * span
        rng = np.random.default_rng(14)
        pts = rng.uniform(np.percentile(x, 1), np.percentile(x, 99), 400)
        # knot-straddling windows average two slopes; test clear of knots
        dist = np.min(np.abs(pts[:, None] - u.knots_x[None, :]), axis=1)
        pts = pts[dist > 2 * h][:100]
        assert pts.size >= 50
        zp, _ = g.forward(pts + h)
        zm, _ = g.forward(pts - h)
        fd = np.log((zp - zm) / (2 * h))
        _, logjac = g.forward(pts)
        assert np.max(np.abs(fd - logjac)) <= 1e-2


class TestMarginalEntropy:
    def test_unit_uniform_is_zero(self):
        x = np.random.default_rng(15).uniform(0, 1, 100000)
        assert marginal_entropy(x) == pytest.approx(0.0, abs=0.05)

    def test_standard_normal(self):
        x = np.random.default_rng(16).standard_normal(100000)
        assert marginal_entropy(x) == pytest.approx(GAUSS_ENTROPY_BITS, abs=0.05)

    def test_uniform_zero_four(self):
        x = np.random.default_rng(17).uniform(0, 4, 100000)
        assert marginal_entropy(x) == pytest.approx(2.0, abs=0.05)

    def test_error_decreases_with_n(self):
        mean_abs_err = []
        for n in (10**3, 10**4, 10**5):
            errs = [
                abs(
                    marginal_entropy(np.random.default_rng(s).standard_normal(n))
                    - GAUSS_ENTROPY_BITS
                )
                for s in range(20)
            ]
            mean_abs_err.append(np.mean(errs))
        assert mean_abs_err[0] > mean_abs_err[1] > mean_abs_err[2]

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDimension):
            marginal_entropy(np.full(100, 2.0))

    def test_nonfinite_raises(self):
        x = np.random.default_rng(15).standard_normal(100)
        x[7] = np.nan
        with pytest.raises(NonFiniteInput, match="^sample contains NaN or infinite values$"):
            marginal_entropy(x)


class TestMarginalKL:
    def test_standard_normal_near_zero(self):
        x = np.random.default_rng(18).standard_normal(100000)
        assert abs(marginal_kl_to_standard_normal(x)) <= 0.01

    def test_shifted_normal_positive(self):
        x = np.random.default_rng(19).standard_normal(50000) + 2.0
        # KL(N(2,1) || N(0,1)) = 2 nats = 2/ln2 bits
        assert marginal_kl_to_standard_normal(x) == pytest.approx(2.0 / math.log(2), abs=0.1)

    def test_uniform_positive(self):
        x = np.random.default_rng(20).uniform(-1, 1, 50000)
        assert marginal_kl_to_standard_normal(x) > 0.1

    def test_column_past_square_overflow_is_inf_without_warning(self):
        # A bin center beyond about 1.3e154 squares to inf: its normal
        # log-density is -inf, and only the KL sees it.
        x = np.random.default_rng(21).standard_normal((2000, 2))
        x[:, 1] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert marginal_kl_to_standard_normal(x[:, 1]) == math.inf
            assert math.isfinite(marginal_entropy(x[:, 1]))
            fit(x)
            assert math.isfinite(entropy(x).value_bits)
