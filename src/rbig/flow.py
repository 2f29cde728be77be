"""The iterative Gaussianization model.

Each layer Gaussianizes every marginal and applies an orthogonal rotation;
layers stack until the per-layer reduction in total correlation falls below
tolerance.  The fitted stack is an invertible map to an approximately
standard-normal domain, which yields densities via the change of variables
formula, sampling via the inverse map, and the total-correlation bookkeeping
used by the information measures.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import reprlib
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (
    DegenerateDimension,
    DimensionMismatch,
    NonFiniteInput,
    NotConvergedWarning,
    _exact_keys,
    _finite,
    _integer,
)
from .marginal import (
    GAUSS_ENTROPY_BITS,
    LN2,
    MIN_ENTROPY_SAMPLES,
    MarginalGaussianizer,
    MarginalUniformizer,
    _hist_entropy,
    _knot_grid,
    _segment,
    _table,
    _tables,
    default_bins,
    default_clamp_eps,
    fit_gaussianizer,
    marginal_entropy,
    probit,
    # Unused here, but the benchmark's tracer wraps it under this name.
    marginal_kl_to_standard_normal,  # noqa: F401
)
# Called through these names, which the benchmark's tracer wraps.
from .rotation import fit_pca_rotation, random_haar_rotation, rotate, rotate_inverse

__all__ = ["FitConfig", "GaussModel", "fit", "load_model"]

MODEL_FORMAT = "rbig-model"
MODEL_VERSION = 5


# Rows from which a call's tasks run on worker threads: a layer's columns, or
# a query's rotation chunks.  The column kernels (binning, ndtri, ndtr) and
# the matrix products release the GIL, but each pooled call pays a hand-off.
# Per column-layer of a 49-column fit on a 2-CPU x86_64 host, the workers
# broke even at 20,000 rows and won from 30,000 (README, "Worker threads").
_POOL_MIN_ROWS = 2**15

# Rows per rotation chunk of a query, at 23 or more columns (see
# _rotation_chunks): each chunk's rotated rows are a temporary of their own,
# written back in place.  Each worker's malloc arena keeps its largest
# temporaries, so the chunks stay small: on PW, 2**11 rows ran as fast as
# 2**12 and peak RSS was about 2 MB lower on 2 workers.
_CHUNK_ROWS = 2**11


def _rotation_chunks(n: int, d: int) -> list[slice]:
    """The row chunks that a query rotates its ``n`` x ``d`` working array in.

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


def _rotated(turn, rotation, x, out, chunks, map_tasks):
    """``turn(rotation, x)``, ``turn`` being :func:`rotate` or
    :func:`rotate_inverse`, over the row ``chunks`` of
    :func:`_rotation_chunks`.

    For one chunk this is the fresh product, with no copy.  For several,
    each chunk's product is a task of ``map_tasks``, written into the same
    rows of ``out`` (which may be ``x``), and ``out`` is returned.
    """
    if len(chunks) == 1:
        return turn(rotation, x)

    def rotate_chunk(rows):
        out[rows] = turn(rotation, x[rows])

    for _ in map_tasks(rotate_chunk, chunks):
        pass
    return out


# A rotated direction whose range is at most this many times the layer's
# largest |value| is rounding noise of a zero range (256 ulps at 1.0).
_DEGENERATE_SPAN = 256 * np.finfo(np.float64).eps


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS, Windows)
        return os.cpu_count() or 1


@contextlib.contextmanager
def _workers(n_rows: int, n_cols: int):
    """Yield ``map_tasks(fn, items)``, which yields ``fn(item)`` for each
    item in order.

    The calls run on workers of this block's own, one per usable CPU up to
    ``n_cols``, when there are 2 or more columns of at least
    ``_POOL_MIN_ROWS`` rows and 2 or more CPUs, else one by one on the
    calling thread.  A task (one of a layer's columns, or one of a query's
    rotation chunks) must touch only its own data.  Results come back in
    order whatever order the calls finish in, so every sum the caller takes
    over them is the serial sum.  A failing call raises its exception when
    its result is reached, so the first failing task's error is the one
    raised, as in the serial order.  Leaving the block cancels calls not yet
    started and waits for running ones, so no worker outlives it.
    """
    workers = min(_cpu_count(), n_cols)
    if workers < 2 or n_rows < _POOL_MIN_ROWS:
        yield map
        return
    pool = ThreadPoolExecutor(workers, thread_name_prefix="rbig-workers")
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of one fit; defaults follow the square-root bin rule.

    ``bins=None`` resolves to ``round(sqrt(N))`` at fit time.
    ``tol_delta_t`` is the threshold on a layer's total-correlation
    reduction (bits, summed over dimensions); for data with many dimensions
    it should be scaled up roughly in proportion, since the per-layer
    estimate carries a noise floor per dimension.  ``patience`` is the
    number of consecutive layers below ``tol_delta_t`` that stops a fit of 2
    or more columns, so that a rotation which leaves delta-T low by chance
    for one layer is waited out.  A one-column fit stops at its first layer
    below tolerance: its rotation is +-1, so there is nothing to wait out.
    ``bins`` (None or >= 2), ``max_layers``, ``patience`` (>= 1) and
    ``seed`` (>= 0) follow the integer rule of :mod:`rbig.errors` and
    ``tol_delta_t`` (> 0) its number rule, so numpy scalars are stored as
    Python ``int``/``float`` and every config serializes to JSON.
    """

    rotation_kind: str = "pca"
    bins: int | None = None
    max_layers: int = 100
    tol_delta_t: float = 0.01
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.rotation_kind not in ("pca", "random"):
            raise ValueError(f"unknown rotation kind: {self.rotation_kind!r}")
        for name, least in (("max_layers", 1), ("patience", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        if self.max_layers < self.patience:
            raise ValueError(
                f"max_layers must be >= patience ({self.patience}), got {self.max_layers}"
            )
        tol = _finite("tol_delta_t", self.tol_delta_t)
        if tol <= 0:
            raise ValueError(f"tol_delta_t must be > 0, got {tol!r}")
        object.__setattr__(self, "tol_delta_t", tol)
        if self.bins is not None:
            object.__setattr__(self, "bins", _integer("bins", self.bins, 2))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "FitConfig":
        """Rebuild a config from a dict holding exactly its field names."""
        _exact_keys(doc, [f.name for f in fields(cls)], "config")
        return cls(**doc)


def _check_config_converged(record) -> None:
    """Require a :class:`FitConfig` as ``record.config`` and a bool (numpy's
    too) as ``record.converged``, stored as a bool."""
    if not isinstance(record.config, FitConfig):
        raise ValueError(f"config must be a FitConfig, got {reprlib.repr(record.config)}")
    if not isinstance(record.converged, (bool, np.bool_)):
        raise ValueError(f"converged must be true or false, got {reprlib.repr(record.converged)}")
    object.__setattr__(record, "converged", bool(record.converged))


# A model's float64 blocks and the axes of each: L layers, D columns and K
# knots per marginal table.
_BLOCKS = {
    "x_min": "LD",
    "x_max": "LD",
    "knots_p": "LDK",
    "rotation_entries": "LDD",
    "delta_t": "L",
    "non_gaussianity": "L",
    "marginal_entropies_input": "D",
}


def _block_shapes(n_layers: int, dim: int, k: int) -> dict:
    sizes = {"L": n_layers, "D": dim, "K": k}
    return {name: tuple(sizes[axis] for axis in axes) for name, axes in _BLOCKS.items()}


def _check_rotations(block: np.ndarray) -> None:
    """Raise a ``ValueError`` naming the first layer of a finite (L, D, D)
    block whose rotation R has ``max|R^T R - I| > 1e-10`` or
    ``||det R| - 1| > 1e-8``."""
    # Entries near the float limit overflow to inf or NaN, which fail here.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.matmul(block.transpose(0, 2, 1), block) - np.eye(block.shape[1])
        orthogonal = np.abs(gram).max(axis=(1, 2)) <= 1e-10
        unit = np.abs(np.abs(np.linalg.det(block)) - 1.0) <= 1e-8
    bad = np.flatnonzero(~(orthogonal & unit))
    if bad.size:
        i = bad[0]
        what = ("is not orthogonal within tolerance" if not orthogonal[i]
                else "determinant is not of unit magnitude")
        raise ValueError(f"layer {i} rotation: matrix {what}")


def _named(where: str, make, *args):
    """Call a validating constructor, naming ``where`` in its ValueError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True, eq=False)
class GaussModel:
    """Fitted Gaussianization stack of L layers over D columns, as blocks.

    Layer i maps column j through the knot table of the range ends
    ``x_min[i, j]`` and ``x_max[i, j]`` (blocks of shape (L, D)) and the CDF
    values ``knots_p[i, j]`` ((L, D, K), K >= 5), then rotates by
    ``rotation_entries[i]`` ((L, D, D)).  ``delta_t`` (L,) is each layer's
    drop in total correlation and ``rank_deficient`` (L,) flags a PCA
    rotation of a degenerate spectrum.  Every table has the probability
    clamp ``clamp_eps``, at least ``MIN_CLAMP_EPS`` (1e-7), which keeps
    every probability the column kernels see inside (0, 1); ``config`` (a
    :class:`FitConfig`) holds the kind of every rotation, and ``converged``
    is stored as a bool.

    Construction checks each block's shape and finiteness once and keeps it
    as a read-only float64 array.  It then checks the clamp and every table
    in one pass (:func:`rbig.marginal._tables`), which builds
    ``gaussianizers[i][j]`` from row views of one block of ``_knot_grid``
    knots, of ``knots_p`` and of three blocks of segment slopes, and checks
    every rotation at once (:func:`_check_rotations`), so each adds zero to
    the Jacobian log-determinant.  A bad block, clamp, table or rotation
    raises a one-line ``ValueError`` naming it.

    ``==`` is identity: compare ``to_dict()`` for equal contents.
    """

    x_min: np.ndarray
    x_max: np.ndarray
    knots_p: np.ndarray
    rotation_entries: np.ndarray
    rank_deficient: np.ndarray
    delta_t: np.ndarray
    clamp_eps: float
    marginal_entropies_input: np.ndarray
    non_gaussianity: np.ndarray
    config: FitConfig
    converged: bool
    gaussianizers: tuple[tuple[MarginalGaussianizer, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        _check_config_converged(self)
        lead, kp = np.shape(self.x_min), np.shape(self.knots_p)
        if len(lead) != 2 or min(lead) < 1:
            raise ValueError(f"x_min must have shape (L, D) with L, D >= 1, got {lead}")
        if len(kp) != 3 or kp[2] < 5:
            raise ValueError(f"knots_p must have shape (L, D, K) with K >= 5, got {kp}")
        n_layers, d = lead
        for name, shape in _block_shapes(n_layers, d, kp[2]).items():
            a = np.array(getattr(self, name), dtype=np.float64)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            finite = np.isfinite(a)
            if not finite.all():
                index = np.unravel_index(np.argmin(finite), shape)
                item = name + "".join(f"[{i}]" for i in index)
                raise ValueError(f"{item} must be a finite number, got {float(a[index])}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        deficient = np.array(self.rank_deficient)
        if deficient.dtype != bool or deficient.shape != (n_layers,):
            raise ValueError(
                f"rank_deficient must be {n_layers} booleans,"
                f" got {reprlib.repr(self.rank_deficient)}"
            )
        deficient.setflags(write=False)
        object.__setattr__(self, "rank_deficient", deficient)
        # Filled layer by layer: computed at once, the grid's (L, D, K)
        # temporaries split the heap beside the long-lived block (patch-query
        # peak RSS 173 MB against 161 MB).  A range near the float limit
        # overflows to non-finite knots, which the table check rejects.
        knots_x = np.empty_like(self.knots_p)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_layers):
                knots_x[i] = _knot_grid(self.x_min[i], self.x_max[i], self.resolved_bins)
        tables = _tables(knots_x, self.knots_p, self.clamp_eps, axes=("layer", "column"))
        _check_rotations(self.rotation_entries)
        object.__setattr__(self, "clamp_eps", tables[0][0].clamp_eps)
        gaussianizers = tuple(tuple(map(MarginalGaussianizer, layer)) for layer in tables)
        object.__setattr__(self, "gaussianizers", gaussianizers)

    @property
    def resolved_bins(self) -> int:
        """Histogram bins of every marginal table, K - 3."""
        return self.knots_p.shape[2] - 3

    @property
    def dim(self) -> int:
        return self.x_min.shape[1]

    @property
    def n_layers(self) -> int:
        return self.x_min.shape[0]

    @property
    def delta_t_trace(self) -> np.ndarray:
        """Alias of the ``delta_t`` block, kept only because the benchmark's
        harness (``bench/``) reads it under this name."""
        return self.delta_t

    @property
    def total_correlation(self) -> float:
        """Sum of the per-layer reductions, in bits."""
        return float(self.delta_t.sum())

    def _check(self, data) -> np.ndarray:
        """The one check of a query's shape and finiteness: the column
        kernels check nothing."""
        x = np.asarray(data, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionMismatch(
                f"data must be N x {self.dim}, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise NonFiniteInput("data contains NaN or infinite values")
        return x

    def transform(self, data):
        """Map data to the Gaussian domain.

        Each layer maps its columns into the working array, then rotates
        it (:func:`_rotated`): in place, chunk by chunk, when its rows make
        several chunks.  Columns and chunks are tasks on the call's workers
        (see :func:`_workers`).

        Returns
        -------
        z : ndarray, shape (N, D)
            Transformed rows, approximately N(0, I) for data resembling the
            training sample, in column-contiguous (Fortran) order.
        logjac : ndarray, shape (N,)
            Natural-log Jacobian determinant of the full map at each row
            (rotations contribute zero).
        """
        x = self._check(data)
        n, d = x.shape
        z = np.empty((n, d), order="F")
        logjac = np.zeros(n)
        chunks = _rotation_chunks(n, d)
        with _workers(n, d) as map_tasks:
            for gaussianizers, rotation in zip(self.gaussianizers, self.rotation_entries):

                def forward(j):
                    z[:, j], lj = gaussianizers[j].forward(x[:, j])
                    return lj

                for lj in map_tasks(forward, range(d)):
                    logjac += lj
                x = z = _rotated(rotate, rotation, z, z, chunks, map_tasks)
        return z, logjac

    def inverse(self, z):
        """Map Gaussian-domain points back to data space.

        Returns a new N x D array in column-contiguous (Fortran) order,
        mapped as in :meth:`transform`; ``z`` is left unchanged.
        """
        x = self._check(z)
        # Not held past the first rotation: sample's draw is freed there.
        del z
        n, d = x.shape
        chunks = _rotation_chunks(n, d)
        # The working array that the first rotation fills chunk by chunk.
        out = np.empty((n, d), order="F") if len(chunks) > 1 else None
        with _workers(n, d) as map_tasks:
            for gaussianizers, rotation in zip(
                reversed(self.gaussianizers), self.rotation_entries[::-1]
            ):

                def invert(j):
                    x[:, j] = gaussianizers[j].inverse(x[:, j])

                x = out = _rotated(rotate_inverse, rotation, x, out, chunks, map_tasks)
                for _ in map_tasks(invert, range(d)):
                    pass
        return x

    def log_density(self, data):
        """log2 of the estimated density at each row, in bits."""
        z, logjac = self.transform(data)
        z *= z  # in place: z is this call's own array
        log2_phi = (
            -0.5 * self.dim * math.log2(2.0 * math.pi)
            - np.sum(z, axis=1) / (2.0 * LN2)
        )
        return log2_phi + logjac / LN2

    def information(self, data):
        """Per-sample information content -log2 p(x), in bits."""
        return -self.log_density(data)

    def sample(self, n: int, seed: int):
        """Draw n synthetic rows by inverting seeded N(0, I) samples.

        ``n`` (>= 1) and ``seed`` (>= 0) follow the integer rule, as in
        :class:`FitConfig`.  The rows come back as :meth:`inverse` returns
        them, in column-contiguous (Fortran) order.
        """
        n = _integer("n", n, 1)
        rng = np.random.default_rng(_integer("seed", seed, 0))
        return self.inverse(rng.standard_normal((n, self.dim)))

    def to_dict(self) -> dict:
        """Model format 5 (see the README): each block as base64 float64."""
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "config": self.config.to_dict(),
            "converged": self.converged,
            "n_layers": self.n_layers,
            "dim": self.dim,
            "resolved_bins": self.resolved_bins,
            "clamp_eps": self.clamp_eps,
            "rank_deficient": self.rank_deficient.tolist(),
            **{name: _encode(getattr(self, name)) for name in _BLOCKS},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GaussModel":
        """Rebuild a model from a format-5 document, checking every field.

        ``n_layers``, ``dim`` and ``resolved_bins`` fix every block's shape
        before any block is decoded.  A missing, unknown or ill-typed field,
        a block of the wrong length, a non-finite item (named by its index)
        or a table or rotation that fails its checks raises a one-line
        ``ValueError`` naming it.  Documents of earlier versions are not
        read; such models must be refit.
        """
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError("not a serialized model document")
        version = doc.get("version")
        if type(version) is not int or version != MODEL_VERSION:
            raise ValueError(f"unsupported model version: {version!r}")
        try:
            _exact_keys(doc, _DOC_FIELDS, "model")
            config = _named("config", FitConfig.from_dict, doc["config"])
            n_layers, dim, bins = (
                _integer(name, doc[name], least)
                for name, least in (("n_layers", 1), ("dim", 1), ("resolved_bins", 2))
            )
            shapes = _block_shapes(n_layers, dim, bins + 3)
            return cls(
                **{name: _array(doc[name], shape, name) for name, shape in shapes.items()},
                rank_deficient=doc["rank_deficient"],
                clamp_eps=doc["clamp_eps"],
                config=config,
                converged=doc["converged"],
            )
        except ValueError as exc:
            raise ValueError(f"malformed model document: {exc}") from None

    def save(self, path) -> None:
        """Write the model as a self-describing JSON document.

        Serialized floats round-trip exactly, so a reloaded model
        reproduces transform outputs bit for bit.  The document is streamed
        into a temporary file beside ``path``, which then replaces ``path``:
        a failure while encoding or writing leaves any earlier file there as
        it was and removes the temporary file.  An ``OSError`` names
        ``path``, not the temporary file.
        """
        path = os.fsdecode(path)
        # Unique per thread, so concurrent saves to one path do not collide.
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(self.to_dict(), fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException as exc:
            with contextlib.suppress(OSError):  # open itself may have failed
                os.remove(tmp)
            if isinstance(exc, OSError):
                raise OSError(exc.errno, exc.strerror, path) from None
            raise

    @classmethod
    def load(cls, path) -> "GaussModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# Model document, format 5: the scalars, the config, the rank_deficient
# flags and each block of _BLOCKS as the base64 text of its little-endian
# float64 values in C order.  Far smaller than a list of numbers, a block's
# text has a length known from its shape before it is decoded.
_DOC_FIELDS = (
    "format", "version", "config", "converged", "n_layers", "dim", "resolved_bins",
    "clamp_eps", "rank_deficient", *_BLOCKS,
)


def _malformed(field: str, expected: str, value) -> ValueError:
    return ValueError(f"{field} must be {expected}, got {reprlib.repr(value)}")


def _encode(a: np.ndarray) -> str:
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def _array(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Decode a block's base64 text into an array of the given shape.

    The text's length is checked before it is decoded, so a shape far
    larger than the text allocates nothing.  The model checks the values.
    """
    size = math.prod(shape)
    length = 4 * -(-8 * size // 3)
    expected = f"the base64 of {size} float64 values ({length} characters)"
    if not isinstance(value, str) or len(value) != length:
        raise _malformed(field, expected, value)
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise _malformed(field, "base64 text", value) from None
    if len(raw) != 8 * size:  # padding that does not fit the length
        raise _malformed(field, expected, value)
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def load_model(path) -> GaussModel:
    return GaussModel.load(path)


def _validate_fit_input(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-D sample matrix (rows = observations)")
    n, d = x.shape
    if n < MIN_ENTROPY_SAMPLES or d < 1:
        raise ValueError(f"need at least {MIN_ENTROPY_SAMPLES} rows and 1 column, got {n} x {d}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("data contains NaN or infinite values")
    spans = x.max(axis=0) - x.min(axis=0)
    flat = np.nonzero(spans == 0)[0]
    if flat.size:
        raise DegenerateDimension(f"column {flat[0]} is constant")
    return x


def fit(data, config: FitConfig | None = None) -> GaussModel:
    """Fit the Gaussianization stack to a sample matrix.

    Layers are appended until the per-layer total-correlation reduction
    stays below ``config.tol_delta_t`` for ``config.patience`` consecutive
    layers, or ``config.max_layers`` is reached (which raises
    :class:`NotConvergedWarning` and marks the model unconverged).  A
    one-column fit stops at its first layer below ``tol_delta_t``, whatever
    ``patience`` is: a 1 x 1 rotation is +-1, so the next layer would only
    refit this one's output.  Its layers' ``delta_t`` are kept, not zeroed:
    one histogram marginal does not map a heavy-tailed column exactly, and
    the later layers' terms correct the input's histogram entropy.

    Each layer's ``delta_t`` is the drop in total correlation it achieved,
    measured on its own output as ``sum_d (H(N(0,1)) - H_d)`` in bits; the
    per-layer values telescope so their sum estimates the total correlation
    of the input.

    Each column of a layer's output is binned once, over its range: the
    counts give its entropy, its KL to N(0, 1) (``non_gaussianity``) and
    the next layer's table.  A later layer Gaussianizes the column in one
    private step, the table's forward kernel then the probit.  When the
    stopping rule cannot stop the fit after this layer (no degenerate
    direction, fewer than ``patience - 1`` layers below tolerance so far and
    ``max_layers`` not reached), the binning task takes that step from the
    knot segments it found; else the next layer searches them once.  The
    input is binned twice, once for ``marginal_entropies_input`` and once
    for the first layer's tables, from one contiguous copy of each column,
    which ``MarginalGaussianizer.forward`` Gaussianizes; a column that fails
    there raises a ``ValueError`` naming it.  Each input column is scanned
    for NaN and inf twice, here and by ``marginal_entropy``:
    ``fit_gaussianizer`` checks nothing.  The data needs at least
    ``MIN_ENTROPY_SAMPLES`` (10) rows, the fewest an entropy estimate takes,
    and 1 column.
    """
    x = _validate_fit_input(data)
    # Not held here, so an input no caller holds is freed with the first layer.
    del data
    if config is None:
        config = FitConfig()
    n, d = x.shape
    if config.rotation_kind == "pca" and n <= d:
        raise ValueError("PCA rotations need more samples than dimensions")
    bins = config.bins if config.bins is not None else default_bins(n)
    clamp_eps = default_clamp_eps(n)
    seed_rng = np.random.default_rng(config.seed)
    # A 1 x 1 rotation is +-1: no later 1-D layer can undo a low delta-T.
    patience = config.patience if d > 1 else 1

    h_input = np.empty(d)
    h_floor = math.log2(clamp_eps)
    with _workers(n, d) as map_tasks:
        # Per layer: its D fitted tables, its rotation, its rank flag and delta-T.
        layer_tables: list[list[MarginalUniformizer]] = []
        rotations: list[np.ndarray] = []
        deficient: list[bool] = []
        deltas: list[float] = []
        non_gauss: list[float] = []
        below = 0
        converged = False
        # From the second layer on, ``tables`` holds the tables the previous
        # binning made, and ``z`` the columns it Gaussianized, if it did.
        z = None
        for layer in range(config.max_layers):
            if z is None:
                z = np.empty_like(x)

                def gaussianize(j):
                    if layer > 0:
                        col = x[:, j]
                        seg, left, _ = _segment(tables[j].knots_x, col)
                        z[:, j] = probit(tables[j]._cdf(col, seg, left))
                        return tables[j]
                    # One contiguous copy of a strided input column feeds its
                    # entropy, its table and its forward.
                    col = np.ascontiguousarray(x[:, j])
                    h_input[j] = _named(f"column {j}", marginal_entropy, col, bins)
                    g = _named(f"column {j}", fit_gaussianizer, col, bins)
                    z[:, j], _ = g.forward(col)
                    return g.uniformizer

                tables = list(map_tasks(gaussianize, range(d)))
            # Two N x D arrays at most: the spent input goes before the PCA's
            # centered copy and the rotation's output, and z once it is rotated.
            del x
            if config.rotation_kind == "pca":
                rotation, rank_deficient = fit_pca_rotation(z)
            else:
                rotation = random_haar_rotation(d, int(seed_rng.integers(2**63)))
                rank_deficient = False
            x = rotate(rotation, z)
            del z
            # A rotation of exactly dependent columns can produce a direction
            # of zero range, or of rounding-noise range (e.g. duplicated
            # variables).  Its differential entropy is unboundedly negative;
            # floor it at the flow's probability resolution and stop
            # stacking, since no further layer can be fitted.
            hi, lo = x.max(axis=0), x.min(axis=0)
            scale = max(np.abs(hi).max(), np.abs(lo).max())
            degenerate = hi - lo <= _DEGENERATE_SPAN * scale
            # Whatever this layer's delta-T, the stopping rule cannot stop the
            # fit here: the binning then Gaussianizes the next layer too.
            fused = (
                not degenerate.any()
                and below + 1 < patience
                and layer + 1 < config.max_layers
            )
            z = np.empty_like(x) if fused else None

            def bin_column(j):
                if degenerate[j]:
                    value = x[0, j]
                    cross = (0.5 * value * value + 0.5 * math.log(2 * math.pi)) / LN2
                    return h_floor, cross - h_floor, None
                # Not checked for NaN or inf: the rotation's input holds
                # probit values, all finite and bounded.
                col = x[:, j]
                grid, (counts, seg, left), h_j, kl_j = _hist_entropy(
                    col, float(lo[j]), float(hi[j]), bins
                )
                table = _table(grid, counts, n)
                if fused:
                    z[:, j] = probit(table._cdf(col, seg, left))
                return h_j, kl_j, table

            delta_t = 0.0
            j_m = 0.0
            next_tables = []
            for h_j, kl_j, table in map_tasks(bin_column, range(d)):
                j_m += kl_j
                delta_t += GAUSS_ENTROPY_BITS - h_j
                next_tables.append(table)
            layer_tables.append(tables)
            rotations.append(rotation)
            deficient.append(rank_deficient)
            deltas.append(delta_t)
            non_gauss.append(j_m)
            tables = next_tables
            if degenerate.any():
                converged = True
                break
            below = below + 1 if delta_t < config.tol_delta_t else 0
            if below >= patience:
                converged = True
                break
    if not converged:
        warnings.warn(
            f"fit hit max_layers={config.max_layers} before converging",
            NotConvergedWarning,
        )
    # The blocks are allocated once the N x D matrices are freed: allocated
    # between them, they split or pin the freed heap (peak RSS +10 MB over
    # repeated 38,686 x 49 fits).
    del x
    return GaussModel(
        x_min=[[u.knots_x[1] for u in tables] for tables in layer_tables],
        x_max=[[u.knots_x[-2] for u in tables] for tables in layer_tables],
        knots_p=[[u.knots_p for u in tables] for tables in layer_tables],
        rotation_entries=rotations,
        rank_deficient=deficient,
        delta_t=deltas,
        clamp_eps=clamp_eps,
        marginal_entropies_input=h_input,
        non_gaussianity=non_gauss,
        config=config,
        converged=converged,
    )
