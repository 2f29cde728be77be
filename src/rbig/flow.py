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
import json
import math
import numbers
import os
import reprlib
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
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
    _knot_grid,
    default_bins,
    default_clamp_eps,
    fit_gaussianizer,
    marginal_entropy,
    marginal_kl_to_standard_normal,
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

__all__ = ["FitConfig", "GaussLayer", "GaussModel", "fit", "load_model", "MODEL_FORMAT"]

MODEL_FORMAT = "rbig-model"
MODEL_VERSION = 4


# Rows from which a layer's columns run on the thread pool.  The column
# kernels (binning, ndtri, ndtr) release the GIL, but each pooled call pays a
# hand-off.  Per column-layer of a 49-column fit on a 2-CPU x86_64 host, the
# pool lost at 20,000 rows and won from 30,000 (README, "Column threads").
_POOL_MIN_ROWS = 2**15

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS, Windows)
        return os.cpu_count() or 1


def _column_pool() -> ThreadPoolExecutor | None:
    """The process's column pool, one worker per usable CPU, made on first
    use; None on a single CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            workers = _cpu_count()
            if workers >= 2:
                _pool = ThreadPoolExecutor(workers, thread_name_prefix="rbig-columns")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of the parent's worker threads: it makes its own.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _map_columns(fn, n_rows: int, n_cols: int):
    """Yield ``fn(j)`` for each column ``j`` in column order.

    The calls run on the column pool when there are 2 or more columns of at
    least ``_POOL_MIN_ROWS`` rows and 2 or more CPUs, else one by one on the
    calling thread.  ``fn`` must touch only column ``j``'s data.  Results
    come back in column order whatever order the calls finish in, so every
    sum the caller takes over them is the serial sum.  A failing call
    raises its exception when its result is reached, so the first failing
    column's error is the one raised, as in the serial order; calls not yet
    started are then cancelled and running ones waited for.
    """
    pool = None
    if n_cols >= 2 and n_rows >= _POOL_MIN_ROWS:
        pool = _column_pool()
    if pool is None:
        for j in range(n_cols):
            yield fn(j)
        return
    futures = deque(pool.submit(fn, j) for j in range(n_cols))
    try:
        while futures:
            # Dropped once read, so only columns finished ahead of the
            # caller are held.
            yield futures.popleft().result()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


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
    estimate carries a noise floor per dimension.  Numpy scalars are stored
    as Python ``int``/``float``, so every config serializes to JSON.
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
        raise ValueError(f"{kind} must be an object, got {reprlib.repr(doc)}")
    for name in names:
        if name not in doc:
            raise ValueError(f"{kind} field {name} is missing")
    for key in doc:
        if key not in names:
            raise ValueError(f"{key} is not a {kind} field")


@dataclass(frozen=True)
class GaussLayer:
    """One iteration: D marginal knot tables, a rotation and its delta-T.

    A layer holds what a model file stores: the range ends ``x_min`` and
    ``x_max`` (D,) and the CDF values ``knots_p`` (D, K), K >= 5, as
    read-only float64 arrays; one probability clamp; the rotation; and
    ``delta_t``, a finite float.  ``gaussianizers[j]`` is built from row j
    of ``_knot_grid(x_min, x_max, K - 3)`` and of ``knots_p`` (row views);
    a table that fails its checks raises ``ValueError`` naming its column.
    """

    x_min: np.ndarray
    x_max: np.ndarray
    knots_p: np.ndarray
    clamp_eps: float
    rotation: RotationMatrix
    delta_t: float
    gaussianizers: tuple[MarginalGaussianizer, ...] = field(init=False, repr=False)

    def __post_init__(self):
        d = self.rotation.dim
        for name in ("x_min", "x_max", "knots_p"):
            a = np.array(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        kp = self.knots_p
        shapes = (self.x_min.shape, self.x_max.shape, kp.shape[:1], kp.ndim)
        if shapes != ((d,), (d,), (d,), 2) or kp.shape[1] < 5:
            raise ValueError(f"x_min and x_max need shape ({d},) and knots_p ({d}, K >= 5)")
        if not _is_finite_number(self.delta_t):
            raise ValueError(f"delta_t must be a finite number, got {self.delta_t!r}")
        object.__setattr__(self, "delta_t", float(self.delta_t))
        # A range near the float limit overflows to non-finite knots, which
        # the table check rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            knots_x = _knot_grid(self.x_min, self.x_max, kp.shape[1] - 3)
        gaussianizers = []
        for j in range(d):
            try:
                table = MarginalUniformizer(knots_x[j], kp[j], self.clamp_eps)
            except ValueError as exc:
                raise ValueError(f"column {j}: {exc}") from None
            gaussianizers.append(MarginalGaussianizer(table))
        object.__setattr__(self, "gaussianizers", tuple(gaussianizers))


@dataclass(frozen=True)
class GaussModel:
    """Fitted Gaussianization transform with its convergence bookkeeping.

    A model file stores one D, K and clamp, so every layer must have layer
    0's ``knots_p`` shape and ``clamp_eps``, else construction raises
    ``ValueError``.
    """

    layers: tuple[GaussLayer, ...]
    marginal_entropies_input: np.ndarray
    non_gaussianity: np.ndarray
    config: FitConfig
    converged: bool

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        first = self.layers[0]
        for i, layer in enumerate(self.layers):
            if (layer.knots_p.shape, layer.clamp_eps) != (first.knots_p.shape, first.clamp_eps):
                raise ValueError(
                    f"layer {i} has knots_p of shape {layer.knots_p.shape} and clamp_eps"
                    f" {layer.clamp_eps}, layer 0 {first.knots_p.shape} and {first.clamp_eps}"
                )
        h = np.asarray(self.marginal_entropies_input, dtype=float)
        ng = np.asarray(self.non_gaussianity, dtype=float)
        object.__setattr__(self, "marginal_entropies_input", h)
        object.__setattr__(self, "non_gaussianity", ng)
        h.setflags(write=False)
        ng.setflags(write=False)

    @property
    def resolved_bins(self) -> int:
        """Histogram bins of every marginal table, K - 3."""
        return self.layers[0].knots_p.shape[1] - 3

    @property
    def resolved_clamp_eps(self) -> float:
        """The probability clamp shared by every marginal table."""
        return self.layers[0].clamp_eps

    @property
    def dim(self) -> int:
        return self.layers[0].rotation.dim

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def delta_t_trace(self) -> np.ndarray:
        return np.array([layer.delta_t for layer in self.layers])

    @property
    def total_correlation(self) -> float:
        """Sum of the per-layer reductions, in bits."""
        return float(self.delta_t_trace.sum())

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
        for layer in self.layers:
            z = np.empty_like(x)

            def forward(j):
                z[:, j], lj = layer.gaussianizers[j].forward(x[:, j])
                return lj

            for lj in _map_columns(forward, n, d):
                logjac += lj
            x = rotate(layer.rotation, z)
        return x, logjac

    def inverse(self, z):
        """Map Gaussian-domain points back to data space.

        Returns a new N x D array in column-contiguous (Fortran) order;
        ``z`` is left unchanged.
        """
        x = self._check(z)
        n, d = x.shape
        for layer in reversed(self.layers):
            # rotate_inverse returns a fresh column-contiguous array, so each
            # marginal inverse reads a contiguous column and writes it back.
            x = rotate_inverse(layer.rotation, x)

            def invert(j):
                x[:, j] = layer.gaussianizers[j].inverse(x[:, j])

            for _ in _map_columns(invert, n, d):
                pass
        return x

    def log_density(self, data):
        """log2 of the estimated density at each row, in bits."""
        z, logjac = self.transform(data)
        log2_phi = (
            -0.5 * self.dim * math.log2(2.0 * math.pi)
            - np.sum(z * z, axis=1) / (2.0 * LN2)
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
        z = rng.standard_normal((n, self.dim))
        return self.inverse(z)

    def to_dict(self) -> dict:
        """Model format 4 (see the README): each array as base64 float64."""
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "config": self.config.to_dict(),
            "converged": self.converged,
            "dim": self.dim,
            "resolved_bins": self.resolved_bins,
            "resolved_clamp_eps": self.resolved_clamp_eps,
            "marginal_entropies_input": _encode(self.marginal_entropies_input),
            "non_gaussianity": _encode(self.non_gaussianity),
            "layers": [
                {
                    "delta_t": layer.delta_t,
                    "rotation": {
                        "kind": layer.rotation.kind,
                        "rank_deficient": layer.rotation.rank_deficient,
                        "entries": _encode(layer.rotation.entries),
                    },
                    "x_min": _encode(layer.x_min),
                    "x_max": _encode(layer.x_max),
                    "knots_p": _encode(layer.knots_p),
                }
                for layer in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GaussModel":
        """Rebuild a model from a format-4 document, checking every field.

        ``dim``, ``resolved_bins`` and the layer count fix every array's
        shape.  A missing, unknown or ill-typed field, or an array of the
        wrong length, raises a one-line ``ValueError`` naming the field.
        Documents of earlier versions are not read; such models must be
        refit.
        """
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError("not a serialized model document")
        version = doc.get("version")
        if type(version) is not int or version != MODEL_VERSION:
            raise ValueError(f"unsupported model version: {version!r}")
        _fields(doc, _DOC_FIELDS, "")
        config = _build("config", FitConfig.from_dict, doc["config"])
        dim = doc["dim"]
        if type(dim) is not int or dim < 1:
            raise _malformed("dim", "an integer >= 1", dim)
        bins = doc["resolved_bins"]
        if type(bins) is not int or bins < 2:
            raise _malformed("resolved_bins", "an integer >= 2", bins)
        clamp_eps = doc["resolved_clamp_eps"]
        if not (type(clamp_eps) in (int, float) and 0 < clamp_eps < 0.5):
            raise _malformed("resolved_clamp_eps", "a number in (0, 0.5)", clamp_eps)
        records = doc["layers"]
        if not isinstance(records, list) or not records:
            raise _malformed("layers", "a non-empty list", records)
        layers = []
        for i, rec in enumerate(records):
            where = f"layers[{i}]"
            _fields(rec, _LAYER_FIELDS, where)
            rot = rec["rotation"]
            _fields(rot, _ROTATION_FIELDS, f"{where}.rotation")
            entries = _array(rot["entries"], (dim, dim), f"{where}.rotation.entries")
            deficient = _boolean(rot["rank_deficient"], f"{where}.rotation.rank_deficient")
            rotation = _build(f"{where}.rotation", RotationMatrix, entries, rot["kind"], deficient)
            x_min = _array(rec["x_min"], (dim,), f"{where}.x_min")
            x_max = _array(rec["x_max"], (dim,), f"{where}.x_max")
            knots_p = _array(rec["knots_p"], (dim, bins + 3), f"{where}.knots_p")
            layer_args = (x_min, x_max, knots_p, clamp_eps, rotation, rec["delta_t"])
            layers.append(_build(where, GaussLayer, *layer_args))
        return cls(
            layers=tuple(layers),
            marginal_entropies_input=_array(
                doc["marginal_entropies_input"], (dim,), "marginal_entropies_input"
            ),
            non_gaussianity=_array(doc["non_gaussianity"], (len(layers),), "non_gaussianity"),
            config=config,
            converged=_boolean(doc["converged"], "converged"),
        )

    def save(self, path) -> None:
        """Write the model as a self-describing JSON document.

        Serialized floats round-trip exactly, so a reloaded model
        reproduces transform outputs bit for bit.
        """
        # Encoded before the file is opened: a document that does not
        # serialize leaves any earlier file at ``path`` as it was.
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "GaussModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# Model document schema, format 4.  Every check raises a one-line
# ValueError naming the field.  JSON numbers load as int or float; bool, a
# subclass of int, is neither.  An array is the base64 text of its
# little-endian float64 values in C order: far smaller than a list of
# numbers, and its length is known from its shape before it is decoded.

_DOC_FIELDS = (
    "format", "version", "config", "converged", "dim", "resolved_bins",
    "resolved_clamp_eps", "marginal_entropies_input", "non_gaussianity", "layers",
)
_LAYER_FIELDS = ("delta_t", "rotation", "x_min", "x_max", "knots_p")
_ROTATION_FIELDS = ("kind", "rank_deficient", "entries")


def _malformed(field: str, expected: str, value) -> ValueError:
    return ValueError(
        f"malformed model document: {field} must be {expected}, got {reprlib.repr(value)}"
    )


def _build(field: str, make, *args):
    """Call a validating constructor, naming ``field`` in its ValueError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"malformed model document: {field}: {exc}") from None


def _fields(value, names, field: str) -> None:
    """Require a JSON object holding exactly the keys ``names``."""
    if not isinstance(value, dict):
        raise _malformed(field, "an object", value)
    prefix = f"{field}." if field else ""
    for name in names:
        if name not in value:
            raise ValueError(f"malformed model document: {prefix}{name} is missing")
    for name in value:
        if name not in names:
            raise ValueError(f"malformed model document: {prefix}{name} is not a model field")


def _boolean(value, field: str) -> bool:
    if type(value) is not bool:
        raise _malformed(field, "true or false", value)
    return value


def _encode(a: np.ndarray) -> str:
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def _array(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Decode an array field of the given shape; every item must be finite.

    The text's length is checked before it is decoded, so a shape far
    larger than the text allocates nothing.
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
    a = np.frombuffer(raw, dtype="<f8").reshape(shape)
    finite = np.isfinite(a)
    if not finite.all():
        index = np.unravel_index(np.argmin(finite), shape)
        item = field + "".join(f"[{k}]" for k in index)
        raise _malformed(item, "a finite number", float(a[index]))
    return a


def load_model(path) -> GaussModel:
    return GaussModel.load(path)


def _validate_fit_input(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-D sample matrix (rows = observations)")
    n, d = x.shape
    if n < 2 or d < 1:
        raise ValueError(f"need at least 2 rows and 1 column, got {n} x {d}")
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
    :class:`NotConvergedWarning` and marks the model unconverged).

    Each layer's ``delta_t`` is the drop in total correlation it achieved,
    measured on its own output as ``sum_d (H(N(0,1)) - H_d)`` in bits; the
    per-layer values telescope so their sum estimates the total correlation
    of the input.
    """
    x = _validate_fit_input(data)
    if config is None:
        config = FitConfig()
    n, d = x.shape
    if config.rotation_kind == KIND_PCA and n <= d:
        raise ValueError("PCA rotations need more samples than dimensions")
    bins = config.bins if config.bins is not None else default_bins(n)
    clamp_eps = default_clamp_eps(n)
    seed_rng = np.random.default_rng(config.seed)

    h_input = np.array(list(_map_columns(lambda j: marginal_entropy(x[:, j], bins), n, d)))
    fitted = []  # (tables, rotation, delta_t) per layer
    non_gauss: list[float] = []
    below = 0
    converged = False
    for _ in range(config.max_layers):
        z = np.empty_like(x)

        def gaussianize(j):
            g = fit_gaussianizer(x[:, j], bins)
            z[:, j], _ = g.forward(x[:, j])
            return g

        tables = [g.uniformizer for g in _map_columns(gaussianize, n, d)]
        if config.rotation_kind == KIND_PCA:
            rotation = fit_pca_rotation(z)
        else:
            rotation = random_haar_rotation(d, int(seed_rng.integers(2**63)))
        x = rotate(rotation, z)
        # A rotation of exactly dependent columns can produce a zero-range
        # direction (e.g. duplicated variables).  Its differential entropy is
        # unboundedly negative; floor it at the flow's probability resolution
        # and stop stacking, since no further layer can be fitted.
        spans = x.max(axis=0) - x.min(axis=0)
        degenerate = spans == 0.0
        h_floor = math.log2(clamp_eps)

        def entropy_and_kl(j):
            if degenerate[j]:
                value = x[0, j]
                cross = (0.5 * value * value + 0.5 * math.log(2 * math.pi)) / LN2
                return h_floor, cross - h_floor
            return (
                marginal_entropy(x[:, j], bins),
                marginal_kl_to_standard_normal(x[:, j], bins),
            )

        delta_t = 0.0
        j_m = 0.0
        for h_j, kl_j in _map_columns(entropy_and_kl, n, d):
            j_m += kl_j
            delta_t += GAUSS_ENTROPY_BITS - h_j
        fitted.append((tables, rotation, delta_t))
        non_gauss.append(j_m)
        if degenerate.any():
            converged = True
            break
        below = below + 1 if delta_t < config.tol_delta_t else 0
        if below >= config.patience:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"fit hit max_layers={config.max_layers} before converging",
            NotConvergedWarning,
        )
    # The layers' blocks are allocated once the N x D matrices are freed:
    # allocated between them, they split or pin the freed heap (peak RSS
    # +10 MB over repeated 38,686 x 49 fits).
    del x, z
    layers = tuple(
        GaussLayer(
            x_min=np.array([u.knots_x[1] for u in tables]),
            x_max=np.array([u.knots_x[-2] for u in tables]),
            knots_p=np.array([u.knots_p for u in tables]),
            clamp_eps=clamp_eps,
            rotation=rotation,
            delta_t=delta_t,
        )
        for tables, rotation, delta_t in fitted
    )
    return GaussModel(
        layers=layers,
        marginal_entropies_input=h_input,
        non_gaussianity=np.array(non_gauss),
        config=config,
        converged=converged,
    )
