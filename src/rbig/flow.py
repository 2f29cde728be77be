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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotConvergedWarning,
    RbigError,
    _exact_keys,
    _finite,
    _integer,
)
# The binning's kernels (marginal._knot_grid, _check_widths, _bin_counts,
# _cdf_knots and _entropies) are looked up on their module at each call, so
# a wrapper set there, such as the tests' call counters, sees the fit's calls.
from . import marginal
from .marginal import (
    GAUSS_ENTROPY_BITS,
    LN2,
    MIN_ENTROPY_SAMPLES,
    MarginalGaussianizer,
    _cdf,
    _segment,
    _tables,
    default_bins,
    default_clamp_eps,
    fit_gaussianizer,
    marginal_entropy,
    probit,
    # Unused here, but the benchmark's tracer wraps it under this name.
    marginal_kl_to_standard_normal,  # noqa: F401
)
from .rotation import _rotation_chunks
# Called through these names, which the benchmark's tracer wraps.
from .rotation import fit_pca_rotation, random_haar_rotation, rotate, rotate_inverse

__all__ = ["FitConfig", "GaussModel", "fit", "load_model"]

MODEL_FORMAT = "rbig-model"
MODEL_VERSION = 5


# Rows from which a call's tasks run on worker threads: a layer's columns, or
# its row chunks.  The column kernels' passes over long columns (the segment
# lookup, ndtri, ndtr) and the matrix products release the GIL; np.bincount
# and calls on short arrays hold it, and each helper thread costs a start
# per call and a wake per map_tasks call.  On a 2-CPU x86_64 host, a
# 49-column fit broke even at 10,000 rows and won from 20,000, and a 1+1
# mutual_information was even at 20,000 (README, "Worker threads").
_POOL_MIN_ROWS = 2**15


def _loaded(x, map_tasks, finite=False):
    """A fresh column-major copy of ``x``, each of its row chunks
    (:func:`_rotation_chunks`) copied by a task of ``map_tasks``: the strided
    reads of a row-major ``x`` run on the workers, and every column of the
    copy is contiguous.  With ``finite``, each task also checks its rows,
    and a NaN or +-inf raises :class:`NonFiniteInput`."""
    z = np.empty(x.shape, order="F")

    def load(rows):
        part = x[rows]
        z[rows] = part
        return not finite or np.isfinite(part).all()

    if not all(map_tasks(load, _rotation_chunks(*x.shape))):
        raise NonFiniteInput("data contains NaN or infinite values")
    return z


def _rotated(turn, rotation, x, map_tasks, ranges=False):
    """Rotate the working array ``x`` in place by ``turn(rotation, .)``,
    ``turn`` being :func:`rotate` or :func:`rotate_inverse`: each of its row
    chunks (:func:`_rotation_chunks`) is a task of ``map_tasks`` that writes
    its product back into the same rows.  With ``ranges``, ``(hi, lo)`` is
    returned, the column max and min of the product: each chunk's task takes
    them over its own rows, and they are exact, so the reduction here has
    the same bits however the tasks run.
    """

    def rotate_chunk(rows):
        x[rows] = part = turn(rotation, x[rows])
        return (part.max(axis=0), part.min(axis=0)) if ranges else None

    parts = list(map_tasks(rotate_chunk, _rotation_chunks(*x.shape)))
    if ranges:
        highs, lows = zip(*parts)
        return np.max(highs, axis=0), np.min(lows, axis=0)


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

    The calls run on the calling thread and helper threads of this block's
    own (:class:`_Pool`), one thread per usable CPU up to ``n_cols``, when
    there are 2 or more columns of at least ``_POOL_MIN_ROWS`` rows and 2 or
    more CPUs, else one by one on the calling thread.  A task (one of a
    layer's columns, or one of its row chunks for the rotation or the PCA
    Gram matrix) must touch only its own data.  Results come back in order
    whatever order the calls finish in, so every sum the caller takes over
    them is the serial sum.  A failing call raises its exception when its
    result is reached, so the first failing task's error is the one raised,
    as in the serial order; no later task starts once a failure is
    recorded, nor once the caller stops reading.  No helper outlives the
    block.
    """
    workers = min(_cpu_count(), n_cols)
    if workers < 2 or n_rows < _POOL_MIN_ROWS:
        yield map
        return
    pool = _Pool()
    try:
        pool.start(workers - 1)
        yield pool.map
    finally:
        pool.close()


# An item's result before it is in; also what an exception that the running
# thread does not catch leaves in its place.
_PENDING = object()
# What the calling thread waits for when it waits for every running item.
_DRAIN = -1


class _Failure:
    """The exception an item raised, kept in its result's place."""

    __slots__ = ("error",)

    def __init__(self, error):
        self.error = error


class _Job:
    """The items of one pooled ``map_tasks`` call and their results.  Its
    fields change under its pool's lock, and its condition is on that
    lock."""

    def __init__(self, fn, items, lock):
        self.fn = fn
        self.items = list(items)
        self.results = [_PENDING] * len(self.items)
        # The shared counter: every thread takes the next item to start
        # from it.  No item from ``stop`` on starts: a failure lowers it to
        # the failing item, and an early close to 0.
        self.next = 0
        self.stop = len(self.items)
        self.running = 0
        # The item the calling thread sleeps on (or _DRAIN), else None.
        self.waiting = None
        self.ready = threading.Condition(lock)

    def take(self):
        """The next item to run, counted as running; None when no item is
        left to start."""
        k = self.next
        if k >= self.stop:
            return None
        self.next = k + 1
        self.running += 1
        return k

    def record(self, k, result):
        """Record item ``k``'s result: a value, a :class:`_Failure`, or
        _PENDING for an exception that stops the job at once.  Wakes the
        calling thread only when it sleeps on this."""
        self.running -= 1
        if result is _PENDING:
            self.stop = 0
        else:
            self.results[k] = result
            if type(result) is _Failure:
                self.stop = min(self.stop, k)
        if self.waiting == k or (self.waiting == _DRAIN and not self.running):
            self.ready.notify()


class _Pool:
    """The helper threads of one :func:`_workers` block.

    :meth:`map` runs one call's items on the calling thread and the helpers
    alike: each thread takes the next item from the job's one counter.  The
    calling thread yields each result as soon as it and every earlier one
    are in, between items of its own, and sleeps only when no item is left
    to start and the result it needs is still running on a helper.  A helper
    sleeps between jobs, and is woken by the next job or by :meth:`close`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # The helpers sleep here while no item of the current job is left.
        self._work = threading.Condition(self._lock)
        self._job = None
        self._closed = False
        self._threads = []

    def start(self, helpers):
        for i in range(helpers):
            thread = threading.Thread(target=self._help, name=f"rbig-workers_{i}")
            thread.start()
            self._threads.append(thread)

    def close(self):
        """Stop the helpers once their running items finish, and join them."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
        for thread in self._threads:
            thread.join()

    def _take(self):
        return None if self._job is None else self._job.take()

    def _help(self):
        while True:
            with self._lock:
                while not self._closed and (k := self._take()) is None:
                    self._work.wait()
                if self._closed:
                    return
                job = self._job
            # Any exception is kept, and raised on the calling thread.
            self._run(job, k, BaseException)
            # Not held while asleep: the job's task may hold the call's
            # arrays, such as the argument inverse loads.
            del job

    def _run(self, job, k, caught):
        """Run item ``k`` of ``job`` and record its result, or the exception
        of class ``caught`` it raised; any other exception propagates, and
        stops the job."""
        result = _PENDING
        try:
            result = job.fn(job.items[k])
        except caught as error:
            result = _Failure(error)
        finally:
            with self._lock:
                job.record(k, result)
            # A kept error's traceback holds this frame: break the cycle.
            job = result = None

    def map(self, fn, items):
        """The block's ``map_tasks``: yield ``fn(item)`` for each item in
        order (see :func:`_workers`)."""
        job = _Job(fn, items, self._lock)
        with self._lock:
            self._job = job
            # The calling thread takes an item itself.
            if len(job.items) > 1:
                self._work.notify(len(job.items) - 1)
        try:
            for i in range(len(job.items)):
                self._settle(job, i)
                result, job.results[i] = job.results[i], None
                if type(result) is _Failure:
                    try:
                        raise result.error
                    finally:
                        # Its traceback holds this frame: break the cycle.
                        result = None
                yield result
        finally:
            with self._lock:
                job.stop = 0
                job.waiting = _DRAIN
                job.ready.wait_for(lambda: not job.running)
                job.waiting = None
                if self._job is job:
                    self._job = None

    def _settle(self, job, i):
        """Run items on the calling thread until item ``i``'s result is in;
        an exception other than an :class:`Exception` propagates at once."""
        while True:
            with self._lock:
                if job.results[i] is not _PENDING:
                    return
                k = job.take()
                if k is None:
                    # Item i runs on a helper, which wakes this thread.
                    job.waiting = i
                    job.ready.wait_for(lambda: job.results[i] is not _PENDING)
                    job.waiting = None
                    return
            self._run(job, k, Exception)


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
    for one layer is waited out.  The model keeps the first layer of that
    run and drops the ``patience - 1`` layers that waited it out.  A
    one-column fit stops at its first layer below tolerance: its rotation is
    +-1, so there is nothing to wait out.
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
    """Call a validating constructor or a fit, naming ``where`` in its error, raised as its type."""
    try:
        return make(*args)
    except (RbigError, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


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
    knots, of ``knots_p`` and of two blocks of segment slopes, and checks
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
                knots_x[i] = marginal._knot_grid(self.x_min[i], self.x_max[i], self.resolved_bins)
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
        """The one check of a query's shape: the column kernels check
        nothing, and :func:`_loaded` checks finiteness as it loads the
        query."""
        x = np.asarray(data, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionMismatch(
                f"data must be N x {self.dim}, got shape {x.shape}"
            )
        return x

    def transform(self, data):
        """Map data to the Gaussian domain.

        The query is loaded into a column-major working array chunk by chunk
        (:func:`_loaded`).  Each layer maps its columns in place, then
        rotates the array in place, chunk by chunk (:func:`_rotated`).
        Columns and chunks are tasks on the call's workers (see
        :func:`_workers`).

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
        with _workers(*x.shape) as map_tasks:
            return self._forward(x, self.n_layers, map_tasks)

    def _forward(self, x, stop, map_tasks):
        """Layers 0 to ``stop - 1`` of :meth:`transform` on an ``x`` of
        checked shape: their output and log-Jacobian.  ``x`` is first loaded
        into the working array (:func:`_loaded`), whose tasks check its
        finiteness before any layer runs, so each layer reads contiguous
        columns."""
        n, d = x.shape
        logjac = np.zeros(n)
        x = _loaded(x, map_tasks, finite=True)
        for gaussianizers, rotation in zip(self.gaussianizers[:stop], self.rotation_entries[:stop]):

            def forward(j):
                x[:, j], lj = gaussianizers[j].forward(x[:, j])
                return lj

            for lj in map_tasks(forward, range(d)):
                logjac += lj
            _rotated(rotate, rotation, x, map_tasks)
        return x, logjac

    def inverse(self, z):
        """Map Gaussian-domain points back to data space.

        Returns a new N x D array in column-contiguous (Fortran) order; ``z``
        is left unchanged.  As in :meth:`transform`, ``z`` is first loaded
        into that column-major working array (:func:`_loaded`), whose tasks
        check its finiteness before any layer runs.  It is then no longer
        held here, so an array no caller holds is freed before the first
        layer, and every layer maps the working array in place.
        """
        x = self._check(z)
        del z
        with _workers(*x.shape) as map_tasks:
            x = _loaded(x, map_tasks, finite=True)
            return self._inverse(x, self.n_layers, map_tasks)

    def _inverse(self, x, stop, map_tasks):
        """Layers ``stop - 1`` down to 0 of :meth:`inverse` on the
        column-major working array ``x``: :meth:`inverse`'s loaded argument,
        or :meth:`sample`'s uniform draws.  Each rotates it back in place,
        chunk by chunk (:func:`_rotated`), then maps its columns in place."""
        for gaussianizers, rotation in zip(
            reversed(self.gaussianizers[:stop]), self.rotation_entries[:stop][::-1]
        ):

            def invert(j):
                x[:, j] = gaussianizers[j].inverse(x[:, j])

            _rotated(rotate_inverse, rotation, x, map_tasks)
            for _ in map_tasks(invert, range(x.shape[1])):
                pass
        return x

    def log_density(self, data):
        """log2 of the estimated density at each row, in bits.

        The last rotation is orthogonal, so the N(0, I) log-density of the
        Gaussian-domain point cancels the probit terms of the last layer's
        log-Jacobian: that layer adds only its uniformizers' log-slopes, with
        no CDF (``MarginalUniformizer.log_slope``).
        """
        x = self._check(data)
        with _workers(*x.shape) as map_tasks:
            x, logjac = self._forward(x, self.n_layers - 1, map_tasks)

            def log_slope(j):
                x[:, j] = self.gaussianizers[-1][j].uniformizer.log_slope(x[:, j])

            for _ in map_tasks(log_slope, range(self.dim)):
                pass
        return (logjac + x.sum(axis=1)) / LN2

    def information(self, data):
        """Per-sample information -log2 p(x) in bits, as :meth:`log_density`."""
        return -self.log_density(data)

    def sample(self, n: int, seed: int):
        """Draw n synthetic rows, distributed as :meth:`inverse` of N(0, I).

        The last layer's inverse rotation keeps N(0, I) draws N(0, I) and its
        clamped normal CDF makes them iid U(0, 1), so it maps clamped uniform
        draws and the rest run as in :meth:`inverse`.  Column j takes draws
        ``j * n`` to ``(j + 1) * n - 1`` of ``default_rng(seed).random``: its
        task draws them into the column, from a generator of that seed
        advanced past the columns before it, then clamps and maps them.
        ``n`` (>= 1) and ``seed`` (>= 0) follow the integer rule; rows are column-major.
        """
        n, seed = _integer("n", n, 1), _integer("seed", seed, 0)
        x = np.empty((n, self.dim), order="F")
        eps, last = self.clamp_eps, self.gaussianizers[-1]

        def invert(j):
            col = x[:, j]
            # default_rng's bit generator; each float64 draw takes one step.
            rng = np.random.Generator(np.random.PCG64(seed))
            rng.bit_generator.advance(j * n)
            rng.random(out=col)
            x[:, j] = last[j].uniformizer.inverse(np.clip(col, eps, 1 - eps, out=col))

        with _workers(n, self.dim) as map_tasks:
            for _ in map_tasks(invert, range(self.dim)):
                pass
            return self._inverse(x, self.n_layers - 1, map_tasks)

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


def fit(data, config: FitConfig | None = None) -> GaussModel:
    """Fit the Gaussianization stack to a sample matrix.

    Layers are appended until the per-layer total-correlation reduction
    stays below ``config.tol_delta_t`` for ``config.patience`` consecutive
    layers, or ``config.max_layers`` is reached (which raises
    :class:`NotConvergedWarning` and marks the model unconverged).  A stop
    on tolerance keeps the first layer of that run, whose delta-T the next
    layer's marginal step would complete, and drops the ``patience - 1``
    layers after it, which only confirmed the stop: they leave the model's
    blocks, ``delta_t`` and ``non_gaussianity`` alike, and no query runs
    them.  A stop on ``max_layers`` or on a degenerate direction keeps
    every layer.  A
    one-column fit stops at its first layer below ``tol_delta_t``, whatever
    ``patience`` is: a 1 x 1 rotation is +-1, so the next layer would only
    refit this one's output.  Its layers' ``delta_t`` are kept, not zeroed:
    one histogram marginal does not map a heavy-tailed column exactly, and
    the later layers' terms correct the input's histogram entropy.

    Each layer's ``delta_t`` is the drop in total correlation it achieved,
    measured on its own output as ``sum_d (H(N(0,1)) - H_d)`` in bits; the
    per-layer values telescope so their sum estimates the total correlation
    of the input.

    Each column of a layer's output is binned once, over its range, and the
    counts give its entropy, its KL to N(0, 1) (``non_gaussianity``) and
    the next layer's table, a row of its two (D, K) knot blocks.  The column
    task does only the per-value work: it bins its column into its row of a
    (D, bins) counts block.  The calling thread does the small-array work
    once per layer, on blocks: one ``_knot_grid`` call makes the layer's
    knot grids from the rotation's column ranges before the tasks run, and
    one ``_entropies`` call gives every column's entropy and KL after them,
    each row with the bits of ``marginal_entropy`` and
    ``marginal_kl_to_standard_normal`` on that column.  A later layer
    Gaussianizes the column in one private step, the forward kernel
    ``_cdf`` on its table's rows then the probit, written over the column.
    When the stopping rule cannot stop the fit after this layer (no
    degenerate direction, fewer than ``patience - 1`` layers below
    tolerance so far and ``max_layers`` not reached), the binning task
    makes its row's CDF knots and takes that step from the knot segments it
    found; else the calling thread makes the layer's CDF knots in one call,
    and the next layer searches the segments once.  The input is binned
    twice, for ``marginal_entropies_input`` and the first layer's tables,
    from its column of the working array, which
    ``MarginalGaussianizer.forward`` Gaussianizes.  ``marginal_entropy`` is
    the one check of an input column: NaN or inf, a zero range or a failing
    table raises its own error type, naming the column (``column 1: ...``).
    The model is the one check of a later table, which cannot fail: its
    column, a rotation of probits, has a range that passed
    ``_DEGENERATE_SPAN``, so both extension segments have positive width;
    ``_check_widths`` refuses zero-width bins; and the smoothed cumulative
    counts rise strictly for N below about 4e12.  The data needs at least
    ``MIN_ENTROPY_SAMPLES`` (10) rows and 1 column.

    The fit keeps one column-major N x D working array.  The input is
    copied into it over the row chunks of :func:`_rotation_chunks`
    (:func:`_loaded`) and never written to; every layer Gaussianizes its
    columns in place, and each task that writes a column also takes its
    mean, which the PCA centers by.  Each layer rotates the array in place
    over the same chunks (:func:`_rotated`), whose tasks also take each
    rotated column's range for the degenerate check and the binning, and
    the PCA sums its Gram matrix over them.  Columns and chunks are tasks on
    the call's workers (see :func:`_workers`), so the saved model has the
    same bits whatever the worker count and whatever the input's memory
    order.  The calling thread makes no pass over the N x D data: per layer
    it adds up the tasks' results in column or chunk order, runs the PCA's
    eigensolver, makes the binning's (D, K) blocks and applies the stopping
    rule.
    """
    x = np.asarray(data, dtype=float)
    # Not held here, so an input no caller holds is freed after the load.
    del data
    if x.ndim != 2:
        raise ValueError("data must be a 2-D sample matrix (rows = observations)")
    n, d = x.shape
    if n < MIN_ENTROPY_SAMPLES or d < 1:
        raise ValueError(f"need at least {MIN_ENTROPY_SAMPLES} rows and 1 column, got {n} x {d}")
    if config is None:
        config = FitConfig()
    if config.rotation_kind == "pca" and n <= d:
        raise ValueError("PCA rotations need more samples than dimensions")
    bins = config.bins if config.bins is not None else default_bins(n)
    clamp_eps = default_clamp_eps(n)
    seed_rng = np.random.default_rng(config.seed)
    # A 1 x 1 rotation is +-1: no later 1-D layer can undo a low delta-T.
    patience = config.patience if d > 1 else 1

    h_floor = math.log2(clamp_eps)
    # A layer's D tables: (D, K) blocks of knot grids and CDF knots, by row.
    knots_x, knots_p = np.empty((2, d, bins + 3))
    # Each layer's bin counts, a column's row written by its binning task;
    # a degenerate column's row is not binned and means nothing.
    counts = np.zeros((d, bins), dtype=np.intp)
    # The column means of z's Gaussianized columns, for the next PCA.
    means = np.empty(d)
    with _workers(n, d) as map_tasks:
        # The fit's one working array: every layer Gaussianizes its columns
        # and then rotates it in place.  Column-major, so each column is
        # contiguous, and fresh, so the caller's array is only read, whatever
        # its layout.
        z = _loaded(x, map_tasks)
        del x

        def gaussianize_input(j):
            col = z[:, j]
            h_j = _named(f"column {j}", marginal_entropy, col, bins)
            g = _named(f"column {j}", fit_gaussianizer, col, bins)
            z[:, j] = column = g.forward(col)[0]
            means[j] = column.mean()
            knots_x[j], knots_p[j] = g.uniformizer.knots_x, g.uniformizer.knots_p
            return h_j

        def gaussianize_in_place(j, seg, left, kx, kp):
            """Gaussianize column j through a table's rows ``kx`` and ``kp``
            in one private step, from its values' knot segments and left
            knots, writing the probits over it; take its mean for the PCA."""
            col = z[:, j]
            probit(_cdf(col, seg, left, kx, kp, clamp_eps), out=col)
            means[j] = col.mean()

        def gaussianize(j):
            seg, left = _segment(knots_x[j], z[:, j])
            gaussianize_in_place(j, seg, left, knots_x[j], knots_p[j])

        h_input = np.fromiter(map_tasks(gaussianize_input, range(d)), float, d)
        # Per layer: its knot blocks, its rotation, its rank flag and delta-T.
        tables: list[tuple[np.ndarray, np.ndarray]] = []
        rotations: list[np.ndarray] = []
        deficient: list[bool] = []
        deltas: list[float] = []
        non_gauss: list[float] = []
        below = 0
        converged = False
        # The knot blocks hold the layer's tables, and ``fused`` says whether
        # z already holds its Gaussianized input: the first layer's, or one
        # the previous binning Gaussianized.
        fused = True
        for layer in range(config.max_layers):
            if not fused:
                for _ in map_tasks(gaussianize, range(d)):
                    pass
            if config.rotation_kind == "pca":
                rotation, rank_deficient = fit_pca_rotation(z, map_tasks, means)
            else:
                rotation = random_haar_rotation(d, int(seed_rng.integers(2**63)))
                rank_deficient = False
            # The chunk tasks also take the rotated columns' ranges.
            hi, lo = _rotated(rotate, rotation, z, map_tasks, ranges=True)
            # A rotation of exactly dependent columns can produce a direction
            # of zero range, or of rounding-noise range (e.g. duplicated
            # variables).  Its differential entropy is unboundedly negative;
            # floor it at the flow's probability resolution and stop
            # stacking, since no further layer can be fitted.
            scale = max(np.abs(hi).max(), np.abs(lo).max())
            degenerate = hi - lo <= _DEGENERATE_SPAN * scale
            # Whatever this layer's delta-T, the stopping rule cannot stop the
            # fit here: the binning then Gaussianizes the next layer too.
            fused = (
                not degenerate.any()
                and below + 1 < patience
                and layer + 1 < config.max_layers
            )

            # The binning's small-array steps run here, once per layer on
            # (D, K) blocks: the next layer's knot grids, the CDF knots of a
            # layer that may be the last, and every column's entropy and KL.
            # A column task does only per-value work: it bins its column
            # into its row of the counts, and in a fused layer Gaussianizes
            # it through its row's CDF knots.  A degenerate column is not
            # binned; its grid and counts rows mean nothing.
            live = np.flatnonzero(~degenerate)
            next_x, next_p = np.empty((2, d, bins + 3))
            next_x[:] = marginal._knot_grid(lo, hi, bins)
            marginal._check_widths(next_x[live], lo[live], hi[live])

            def bin_column(j):
                # Not checked for NaN or inf: the rotation's input holds
                # probit values, all finite and bounded.
                counts[j], seg, left = marginal._bin_counts(z[:, j], next_x[j])
                if fused:
                    next_p[j] = marginal._cdf_knots(counts[j])
                    gaussianize_in_place(j, seg, left, next_x[j], next_p[j])

            for _ in map_tasks(bin_column, live):
                pass
            if not fused:
                next_p[:] = marginal._cdf_knots(counts)
            h, kl = marginal._entropies(counts, next_x, n)
            if degenerate.any():
                # A degenerate column's entropy is floored at the flow's
                # probability resolution, and its cross-entropy taken at its
                # one value.
                value = z[0, degenerate]
                h[degenerate] = h_floor
                kl[degenerate] = (0.5 * value * value + 0.5 * math.log(2 * math.pi)) / LN2 - h_floor
            delta_t = 0.0
            j_m = 0.0
            for h_j, kl_j in zip(h.tolist(), kl.tolist()):
                j_m += kl_j
                delta_t += GAUSS_ENTROPY_BITS - h_j
            tables.append((knots_x, knots_p))
            rotations.append(rotation)
            deficient.append(rank_deficient)
            deltas.append(delta_t)
            non_gauss.append(j_m)
            knots_x, knots_p = next_x, next_p
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
    del z
    # A stop on tolerance keeps the first layer of its run below tolerance,
    # which the next layer's marginal step would complete, and drops the
    # patience - 1 layers that only waited the run out.
    keep = len(deltas) - (patience - 1 if below >= patience else 0)
    return GaussModel(
        x_min=[kx[:, 1] for kx, _ in tables[:keep]],
        x_max=[kx[:, -2] for kx, _ in tables[:keep]],
        knots_p=[kp for _, kp in tables[:keep]],
        rotation_entries=rotations[:keep],
        rank_deficient=deficient[:keep],
        delta_t=deltas[:keep],
        clamp_eps=clamp_eps,
        marginal_entropies_input=h_input,
        non_gaussianity=non_gauss[:keep],
        config=config,
        converged=converged,
    )
