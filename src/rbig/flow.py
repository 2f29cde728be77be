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
import numbers
import os
import reprlib
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DegenerateDimension,
    DimensionMismatch,
    NonFiniteInput,
    NotConvergedWarning,
)
from .marginal import (
    GAUSS_ENTROPY_BITS,
    LN2,
    MarginalGaussianizer,
    MarginalUniformizer,
    _hist_entropy,
    _knot_grid,
    _table,
    default_bins,
    default_clamp_eps,
    fit_gaussianizer,
    marginal_entropy,
    # Unused here, but the benchmark's tracer wraps it under this name.
    marginal_kl_to_standard_normal,  # noqa: F401
)
from .rotation import (
    KIND_PCA,
    KIND_RANDOM,
    RotationMatrix,
    fit_pca_rotation,
    random_haar_rotation,
    rotate,
    rotate_inverse,
)

__all__ = ["FitConfig", "GaussModel", "fit", "load_model", "MODEL_FORMAT"]

MODEL_FORMAT = "rbig-model"
MODEL_VERSION = 5


# Rows from which a layer's columns run on worker threads.  The column
# kernels (binning, ndtri, ndtr) release the GIL, but each pooled call pays a
# hand-off.  Per column-layer of a 49-column fit on a 2-CPU x86_64 host, the
# workers lost at 20,000 rows and won from 30,000 (README, "Column threads").
_POOL_MIN_ROWS = 2**15

# A rotated direction whose range is at most this many times the layer's
# largest |value| is rounding noise of a zero range (256 ulps at 1.0).
_DEGENERATE_SPAN = 256 * np.finfo(np.float64).eps


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS, Windows)
        return os.cpu_count() or 1


@contextlib.contextmanager
def _columns(n_rows: int, n_cols: int):
    """Yield ``map_columns(fn)``, which yields ``fn(j)`` for each column ``j``
    in column order.

    The calls run on workers of this block's own, one per usable CPU up to
    ``n_cols``, when there are 2 or more columns of at least
    ``_POOL_MIN_ROWS`` rows and 2 or more CPUs, else one by one on the
    calling thread.  ``fn`` must touch only column ``j``'s data.  Results
    come back in column order whatever order the calls finish in, so every
    sum the caller takes over them is the serial sum.  A failing call
    raises its exception when its result is reached, so the first failing
    column's error is the one raised, as in the serial order.  Leaving the
    block cancels calls not yet started and waits for running ones, so no
    worker outlives it.
    """
    workers = min(_cpu_count(), n_cols)
    if workers < 2 or n_rows < _POOL_MIN_ROWS:
        yield lambda fn: map(fn, range(n_cols))
        return
    pool = ThreadPoolExecutor(workers, thread_name_prefix="rbig-columns")
    try:
        yield lambda fn: pool.map(fn, range(n_cols))
    finally:
        pool.shutdown(cancel_futures=True)


def _is_integer(value) -> bool:
    """True for an int (numpy's too), never for a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """True for a finite int or float (numpy's too), never for a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


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
    Numpy scalars are stored as Python ``int``/``float``, so every config
    serializes to JSON.
    """

    rotation_kind: str = KIND_PCA
    bins: int | None = None
    max_layers: int = 100
    tol_delta_t: float = 0.01
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.rotation_kind not in (KIND_PCA, KIND_RANDOM):
            raise ValueError(f"unknown rotation kind: {self.rotation_kind!r}")
        for name in ("max_layers", "patience", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.patience < 1 or self.max_layers < self.patience:
            raise ValueError("need max_layers >= patience >= 1")
        if not (_is_finite_number(self.tol_delta_t) and self.tol_delta_t > 0):
            raise ValueError(
                f"tol_delta_t must be finite and > 0, got {self.tol_delta_t!r}"
            )
        object.__setattr__(self, "tol_delta_t", float(self.tol_delta_t))
        if self.bins is not None:
            if not (_is_integer(self.bins) and self.bins >= 2):
                raise ValueError(f"bins must be an integer >= 2, got {self.bins!r}")
            object.__setattr__(self, "bins", int(self.bins))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "FitConfig":
        """Rebuild a config from a dict holding exactly its field names."""
        _exact_keys(doc, [f.name for f in fields(cls)], "config")
        return cls(**doc)


def _exact_keys(doc, names, kind: str) -> None:
    """Require a dict holding exactly the keys ``names``, else a one-line
    ``ValueError`` calling it a ``kind``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} must be a JSON object, got {reprlib.repr(doc)}")
    for name in names:
        if name not in doc:
            raise ValueError(f"{kind} field {name} is missing")
    for key in doc:
        if key not in names:
            raise ValueError(f"{key} is not a {kind} field")


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
    clamp ``clamp_eps`` and every rotation the kind ``config.rotation_kind``.

    Construction checks each block's shape and finiteness once and keeps it
    as a read-only float64 array.  It then builds ``gaussianizers[i][j]``
    from row views of one block of ``_knot_grid`` knots and of ``knots_p``,
    and ``rotations[i]``.  A bad block, table or rotation raises a one-line
    ``ValueError`` naming it.

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
    rotations: tuple[RotationMatrix, ...] = field(init=False, repr=False)

    def __post_init__(self):
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
        eps = self.clamp_eps
        if not (_is_finite_number(eps) and 0 < eps < 0.5):
            raise ValueError(f"clamp_eps must be a number in (0, 0.5), got {reprlib.repr(eps)}")
        object.__setattr__(self, "clamp_eps", float(eps))
        # Filled layer by layer: computed at once, the grid's (L, D, K)
        # temporaries split the heap beside the long-lived block (patch-query
        # peak RSS 173 MB against 161 MB).  A range near the float limit
        # overflows to non-finite knots, which the table check rejects.
        knots_x = np.empty_like(self.knots_p)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_layers):
                knots_x[i] = _knot_grid(self.x_min[i], self.x_max[i], self.resolved_bins)
        knots_x.setflags(write=False)
        gaussianizers = tuple(
            tuple(
                MarginalGaussianizer(
                    _named(
                        f"layer {i} column {j}", MarginalUniformizer,
                        knots_x[i, j], self.knots_p[i, j], self.clamp_eps,
                    )
                )
                for j in range(d)
            )
            for i in range(n_layers)
        )
        kind = self.config.rotation_kind
        rotations = tuple(
            _named(f"layer {i} rotation", RotationMatrix, entries, kind, bool(flag))
            for i, (entries, flag) in enumerate(zip(self.rotation_entries, deficient))
        )
        object.__setattr__(self, "gaussianizers", gaussianizers)
        object.__setattr__(self, "rotations", rotations)

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
        """The ``delta_t`` block: each layer's drop in total correlation."""
        return self.delta_t

    @property
    def total_correlation(self) -> float:
        """Sum of the per-layer reductions, in bits."""
        return float(self.delta_t.sum())

    def _check(self, data) -> np.ndarray:
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
        logjac = np.zeros(n)
        with _columns(n, d) as map_columns:
            for gaussianizers, rotation in zip(self.gaussianizers, self.rotations):
                z = np.empty_like(x)

                def forward(j):
                    z[:, j], lj = gaussianizers[j].forward(x[:, j])
                    return lj

                for lj in map_columns(forward):
                    logjac += lj
                # Two N x D arrays at most: the spent input goes before the
                # rotation allocates its output, and z once it is rotated.
                del x
                x = rotate(rotation, z)
                del z
        return x, logjac

    def inverse(self, z):
        """Map Gaussian-domain points back to data space.

        Returns a new N x D array in column-contiguous (Fortran) order;
        ``z`` is left unchanged.
        """
        x = self._check(z)
        # Not held past the first rotation: sample's draw is freed there.
        del z
        with _columns(*x.shape) as map_columns:
            for gaussianizers, rotation in zip(
                reversed(self.gaussianizers), reversed(self.rotations)
            ):
                # rotate_inverse returns a fresh column-contiguous array, so
                # each marginal inverse reads a contiguous column and writes
                # it back.
                x = rotate_inverse(rotation, x)

                def invert(j):
                    x[:, j] = gaussianizers[j].inverse(x[:, j])

                for _ in map_columns(invert):
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

        The rows come back as :meth:`inverse` returns them, in
        column-contiguous (Fortran) order.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(seed)
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
            for name, least in (("n_layers", 1), ("dim", 1), ("resolved_bins", 2)):
                # JSON numbers load as int or float; bool, a subclass of
                # int, is neither.
                if type(doc[name]) is not int or doc[name] < least:
                    raise _malformed(name, f"an integer >= {least}", doc[name])
            if type(doc["converged"]) is not bool:
                raise _malformed("converged", "true or false", doc["converged"])
            shapes = _block_shapes(doc["n_layers"], doc["dim"], doc["resolved_bins"] + 3)
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
        it was and removes the temporary file.
        """
        path = os.fsdecode(path)
        # Unique per thread, so concurrent saves to one path do not collide.
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(self.to_dict(), fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):  # open itself may have failed
                os.remove(tmp)
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
    if n < 10 or d < 1:
        raise ValueError(f"need at least 10 rows and 1 column, got {n} x {d}")
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
    counts give its entropy, its KL to N(0, 1) (``non_gaussianity``) and,
    if the fit goes on, the next layer's table for that column.  The input
    is binned twice, once for ``marginal_entropies_input`` and once for the
    first layer's tables.  The data needs at least 10 rows, the fewest an
    entropy estimate takes, and 1 column.
    """
    x = _validate_fit_input(data)
    # Not held here, so an input no caller holds is freed with the first layer.
    del data
    if config is None:
        config = FitConfig()
    n, d = x.shape
    if config.rotation_kind == KIND_PCA and n <= d:
        raise ValueError("PCA rotations need more samples than dimensions")
    bins = config.bins if config.bins is not None else default_bins(n)
    clamp_eps = default_clamp_eps(n)
    seed_rng = np.random.default_rng(config.seed)
    # A 1 x 1 rotation is +-1: no later 1-D layer can undo a low delta-T.
    patience = config.patience if d > 1 else 1

    # Each layer's output counts, one row per column, read by the next
    # layer's tables.  One block for the fit: small long-lived arrays made
    # between the N x D matrices pin freed heap memory.
    counts = np.empty((d, bins), dtype=np.intp)
    with _columns(n, d) as map_columns:
        h_input = np.array(list(map_columns(lambda j: marginal_entropy(x[:, j], bins))))
        # Per layer: its D fitted tables, its rotation and its delta-T.
        layer_tables: list[list[MarginalUniformizer]] = []
        rotations: list[RotationMatrix] = []
        deltas: list[float] = []
        non_gauss: list[float] = []
        below = 0
        converged = False
        for layer in range(config.max_layers):
            z = np.empty_like(x)

            def gaussianize(j):
                if layer == 0:
                    g = fit_gaussianizer(x[:, j], bins)
                else:
                    grid = _knot_grid(float(lo[j]), float(hi[j]), bins)
                    g = MarginalGaussianizer(_table(grid, counts[j], n))
                z[:, j], _ = g.forward(x[:, j])
                return g

            tables = [g.uniformizer for g in map_columns(gaussianize)]
            # Two N x D arrays at most: the spent input goes before the PCA's
            # centered copy and the rotation's output, and z once it is rotated.
            del x
            if config.rotation_kind == KIND_PCA:
                rotation = fit_pca_rotation(z)
            else:
                rotation = random_haar_rotation(d, int(seed_rng.integers(2**63)))
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
            h_floor = math.log2(clamp_eps)

            def entropy_and_kl(j):
                if degenerate[j]:
                    value = x[0, j]
                    cross = (0.5 * value * value + 0.5 * math.log(2 * math.pi)) / LN2
                    return h_floor, cross - h_floor
                # Not checked for NaN or inf: the rotation's input holds
                # probit values, all finite and bounded.
                counts[j], h_j, kl_j = _hist_entropy(x[:, j], float(lo[j]), float(hi[j]), bins)
                return h_j, kl_j

            delta_t = 0.0
            j_m = 0.0
            for h_j, kl_j in map_columns(entropy_and_kl):
                j_m += kl_j
                delta_t += GAUSS_ENTROPY_BITS - h_j
            layer_tables.append(tables)
            rotations.append(rotation)
            deltas.append(delta_t)
            non_gauss.append(j_m)
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
        rotation_entries=[r.entries for r in rotations],
        rank_deficient=[r.rank_deficient for r in rotations],
        delta_t=deltas,
        clamp_eps=clamp_eps,
        marginal_entropies_input=h_input,
        non_gaussianity=non_gauss,
        config=config,
        converged=converged,
    )
