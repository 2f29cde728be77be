"""The iterative Gaussianization model.

Each layer Gaussianizes every marginal and applies an orthogonal rotation;
layers stack until the per-layer reduction in total correlation falls below
tolerance.  The fitted stack is an invertible map to an approximately
standard-normal domain, which yields densities via the change of variables
formula, sampling via the inverse map, and the total-correlation bookkeeping
used by the information measures.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import warnings
from dataclasses import dataclass, fields

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
MODEL_VERSION = 3


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
        if not isinstance(doc, dict):
            raise ValueError(f"config must be an object, got {reprlib.repr(doc)}")
        names = [f.name for f in fields(cls)]
        for name in names:
            if name not in doc:
                raise ValueError(f"config field {name} is missing")
        for key in doc:
            if key not in names:
                raise ValueError(f"{key} is not a config field")
        return cls(**doc)


@dataclass(frozen=True)
class GaussLayer:
    """One iteration: D marginal Gaussianizers, a rotation, and its delta-T."""

    gaussianizers: tuple[MarginalGaussianizer, ...]
    rotation: RotationMatrix
    delta_t: float

    def __post_init__(self):
        if len(self.gaussianizers) != self.rotation.dim:
            raise ValueError("one gaussianizer per rotation dimension required")


@dataclass(frozen=True)
class GaussModel:
    """Fitted Gaussianization transform with its convergence bookkeeping."""

    layers: tuple[GaussLayer, ...]
    marginal_entropies_input: np.ndarray
    non_gaussianity: np.ndarray
    config: FitConfig
    converged: bool
    resolved_bins: int
    resolved_clamp_eps: float

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        h = np.asarray(self.marginal_entropies_input, dtype=float)
        ng = np.asarray(self.non_gaussianity, dtype=float)
        object.__setattr__(self, "marginal_entropies_input", h)
        object.__setattr__(self, "non_gaussianity", ng)
        h.setflags(write=False)
        ng.setflags(write=False)

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
        logjac = np.zeros(x.shape[0])
        for layer in self.layers:
            z = np.empty_like(x)
            for j, g in enumerate(layer.gaussianizers):
                z[:, j], lj = g.forward(x[:, j])
                logjac += lj
            x = rotate(layer.rotation, z)
        return x, logjac

    def inverse(self, z):
        """Map Gaussian-domain points back to data space.

        Returns a new N x D array in column-contiguous (Fortran) order;
        ``z`` is left unchanged.
        """
        x = self._check(z)
        for layer in reversed(self.layers):
            # rotate_inverse returns a fresh column-contiguous array, so each
            # marginal inverse reads a contiguous column and writes it back.
            x = rotate_inverse(layer.rotation, x)
            for j, g in enumerate(layer.gaussianizers):
                x[:, j] = g.inverse(x[:, j])
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
        """Model format 3 (see the README): per-layer arrays, one clamp.

        A table that is not ``_knot_grid`` of its interior end knots, or
        whose clamp is not ``resolved_clamp_eps``, raises ``ValueError``: the
        file would reload as a different model.
        """
        bins = self.resolved_bins
        layers = []
        for i, layer in enumerate(self.layers):
            tables = [g.uniformizer for g in layer.gaussianizers]
            x_min = np.array([u.knots_x[1] for u in tables])
            x_max = np.array([u.knots_x[-2] for u in tables])
            grid = _knot_grid(x_min, x_max, bins)
            for j, u in enumerate(tables):
                if not np.array_equal(u.knots_x, grid[j]):
                    raise ValueError(
                        f"layer {i} column {j}: knots_x is not the knot grid of {bins} bins"
                    )
                if u.clamp_eps != self.resolved_clamp_eps:
                    raise ValueError(
                        f"layer {i} column {j}: clamp_eps {u.clamp_eps} differs from"
                        f" resolved_clamp_eps {self.resolved_clamp_eps}"
                    )
            layers.append(
                {
                    "delta_t": layer.delta_t,
                    "rotation": {
                        "kind": layer.rotation.kind,
                        "rank_deficient": layer.rotation.rank_deficient,
                        "entries": layer.rotation.entries.tolist(),
                    },
                    "x_min": x_min.tolist(),
                    "x_max": x_max.tolist(),
                    "knots_p": [u.knots_p.tolist() for u in tables],
                }
            )
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "config": self.config.to_dict(),
            "converged": self.converged,
            "resolved_bins": self.resolved_bins,
            "resolved_clamp_eps": self.resolved_clamp_eps,
            "marginal_entropies_input": self.marginal_entropies_input.tolist(),
            "non_gaussianity": self.non_gaussianity.tolist(),
            "layers": layers,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GaussModel":
        """Rebuild a model from a format-3 document, checking every field.

        A missing, unknown or ill-typed field, or an array of the wrong
        shape, raises a one-line ``ValueError`` naming the field.  Version-1
        and version-2 documents are not read; such models must be refit.
        """
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError("not a serialized model document")
        version = doc.get("version")
        if type(version) is not int or version != MODEL_VERSION:
            raise ValueError(f"unsupported model version: {version!r}")
        _fields(doc, _DOC_FIELDS, "")
        config = _build("config", FitConfig.from_dict, doc["config"])
        bins = doc["resolved_bins"]
        if type(bins) is not int or bins < 2:
            raise _malformed("resolved_bins", "an integer >= 2", bins)
        clamp_eps = doc["resolved_clamp_eps"]
        if not (type(clamp_eps) in (int, float) and 0 < clamp_eps < 0.5):
            raise _malformed("resolved_clamp_eps", "a number in (0, 0.5)", clamp_eps)
        records = doc["layers"]
        if not isinstance(records, list) or not records:
            raise _malformed("layers", "a non-empty list", records)
        width = bins + 3
        dim = None
        layers = []
        for i, rec in enumerate(records):
            where = f"layers[{i}]"
            _fields(rec, _LAYER_FIELDS, where)
            rotation = _rotation(rec["rotation"], dim, f"{where}.rotation")
            dim = rotation.dim
            x_min = _vector(rec["x_min"], dim, f"{where}.x_min")
            x_max = _vector(rec["x_max"], dim, f"{where}.x_max")
            bad = np.flatnonzero(x_min >= x_max)
            if bad.size:
                j = bad[0]
                above = f"above x_min[{j}] = {rec['x_min'][j]!r}"
                raise _malformed(f"{where}.x_max[{j}]", above, rec["x_max"][j])
            # Checked first, so the grid below is no larger than the file.
            knots_p = _matrix(rec["knots_p"], dim, width, f"{where}.knots_p")
            # A range near the float limit overflows to non-finite knots,
            # which the table check rejects.
            with np.errstate(over="ignore", invalid="ignore"):
                knots_x = _knot_grid(x_min, x_max, bins)
            gaussianizers = tuple(
                MarginalGaussianizer(
                    _build(
                        f"{where}.knots_p[{j}]",
                        MarginalUniformizer, knots_x[j], knots_p[j], clamp_eps,
                    )
                )
                for j in range(dim)
            )
            layers.append(
                GaussLayer(
                    gaussianizers=gaussianizers,
                    rotation=rotation,
                    delta_t=_number(rec["delta_t"], f"{where}.delta_t"),
                )
            )
        return cls(
            layers=tuple(layers),
            marginal_entropies_input=_vector(
                doc["marginal_entropies_input"], dim, "marginal_entropies_input"
            ),
            non_gaussianity=_vector(doc["non_gaussianity"], len(layers), "non_gaussianity"),
            config=config,
            converged=_boolean(doc["converged"], "converged"),
            resolved_bins=bins,
            resolved_clamp_eps=clamp_eps,
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


# Model document schema, format 3.  Every check raises a one-line
# ValueError naming the field.  JSON numbers load as int or float; bool, a
# subclass of int, is neither.

_DOC_FIELDS = (
    "format", "version", "config", "converged", "resolved_bins", "resolved_clamp_eps",
    "marginal_entropies_input", "non_gaussianity", "layers",
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


def _number(value, field: str) -> float:
    if not _is_finite_number(value):
        raise _malformed(field, "a finite number", value)
    return float(value)


def _boolean(value, field: str) -> bool:
    if type(value) is not bool:
        raise _malformed(field, "true or false", value)
    return value


def _name_bad_item(value: list, field: str) -> None:
    """Raise for the first item of ``value`` that is not a finite number."""
    for k, v in enumerate(value):
        if not _is_finite_number(v):
            raise _malformed(f"{field}[{k}]", "a finite number", v)


def _check_list(value, length: int, field: str) -> None:
    """Length and item types of one list; finiteness is checked on the array."""
    if not isinstance(value, list) or len(value) != length:
        raise _malformed(field, f"a list of {length} finite numbers", value)
    if not set(map(type, value)) <= {int, float}:
        _name_bad_item(value, field)


def _finite_array(value) -> np.ndarray | None:
    """Type-checked lists as one float array, or None if an item is not finite."""
    try:
        a = np.array(value, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    return a if np.isfinite(a).all() else None


def _vector(value, length: int, field: str) -> np.ndarray:
    _check_list(value, length, field)
    a = _finite_array(value)
    if a is None:
        _name_bad_item(value, field)
    return a


def _matrix(value, rows: int, cols: int, field: str) -> np.ndarray:
    """A ``rows x cols`` float array, one allocation."""
    if not isinstance(value, list) or len(value) != rows:
        raise _malformed(field, f"a list of {rows} rows of {cols} finite numbers", value)
    for r, row in enumerate(value):
        _check_list(row, cols, f"{field}[{r}]")
    a = _finite_array(value)
    if a is None:
        for r, row in enumerate(value):
            _name_bad_item(row, f"{field}[{r}]")
    return a


def _rotation(value, dim: int | None, field: str) -> RotationMatrix:
    """Rotation record; the first layer's (``dim`` None) sets the dimension."""
    _fields(value, _ROTATION_FIELDS, field)
    entries = value["entries"]
    if dim is None:
        dim = len(entries) if isinstance(entries, list) and entries else 1
    m = _matrix(entries, dim, dim, f"{field}.entries")
    rank_deficient = _boolean(value["rank_deficient"], f"{field}.rank_deficient")
    return _build(field, RotationMatrix, m, value["kind"], rank_deficient)


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

    h_input = np.array([marginal_entropy(x[:, j], bins) for j in range(d)])
    layers: list[GaussLayer] = []
    non_gauss: list[float] = []
    below = 0
    converged = False
    for _ in range(config.max_layers):
        gaussianizers = tuple(
            fit_gaussianizer(x[:, j], bins) for j in range(d)
        )
        z = np.empty_like(x)
        for j, g in enumerate(gaussianizers):
            z[:, j], _ = g.forward(x[:, j])
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
        delta_t = 0.0
        j_m = 0.0
        for j in range(d):
            if degenerate[j]:
                value = x[0, j]
                h_j = h_floor
                cross = (0.5 * value * value + 0.5 * math.log(2 * math.pi)) / LN2
                j_m += cross - h_floor
            else:
                h_j = marginal_entropy(x[:, j], bins)
                j_m += marginal_kl_to_standard_normal(x[:, j], bins)
            delta_t += GAUSS_ENTROPY_BITS - h_j
        layers.append(
            GaussLayer(gaussianizers=gaussianizers, rotation=rotation, delta_t=delta_t)
        )
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
    return GaussModel(
        layers=tuple(layers),
        marginal_entropies_input=h_input,
        non_gaussianity=np.array(non_gauss),
        config=config,
        converged=converged,
        resolved_bins=bins,
        resolved_clamp_eps=clamp_eps,
    )
