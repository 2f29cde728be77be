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
import warnings
from dataclasses import dataclass

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
    default_bins,
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
MODEL_VERSION = 1


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of one fit; defaults follow the square-root bin rule.

    ``bins=None`` resolves to ``round(sqrt(N))`` and ``clamp_eps=None`` to
    ``max(1/(2N), 1e-7)`` at fit time.  ``tol_delta_t`` is the threshold on
    a layer's total-correlation reduction (bits, summed over dimensions);
    for data with many dimensions it should be scaled up roughly in
    proportion, since the per-layer estimate carries a noise floor per
    dimension.
    """

    rotation_kind: str = KIND_PCA
    bins: int | None = None
    tail_fraction: float = 0.1
    clamp_eps: float | None = None
    max_layers: int = 100
    tol_delta_t: float = 0.01
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.rotation_kind not in (KIND_PCA, KIND_RANDOM):
            raise ValueError(f"unknown rotation kind: {self.rotation_kind!r}")
        if self.patience < 1 or self.max_layers < self.patience:
            raise ValueError("need max_layers >= patience >= 1")
        # Written so that NaN fails each check.
        if not 0 < self.tol_delta_t < math.inf:
            raise ValueError(
                f"tol_delta_t must be finite and > 0, got {self.tol_delta_t}"
            )
        if not 0 <= self.tail_fraction < math.inf:
            raise ValueError(
                f"tail_fraction must be finite and >= 0, got {self.tail_fraction}"
            )
        if self.clamp_eps is not None and not 0 < self.clamp_eps < 0.5:
            raise ValueError(f"clamp_eps must lie in (0, 0.5), got {self.clamp_eps}")
        if self.bins is not None and self.bins < 2:
            raise ValueError("bins must be >= 2")

    def to_dict(self) -> dict:
        return {
            "rotation_kind": self.rotation_kind,
            "bins": self.bins,
            "tail_fraction": self.tail_fraction,
            "clamp_eps": self.clamp_eps,
            "max_layers": self.max_layers,
            "tol_delta_t": self.tol_delta_t,
            "patience": self.patience,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FitConfig":
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

    def non_gaussianity_trace(self) -> np.ndarray:
        """Per-layer KL of the marginals from N(0, 1), in bits."""
        return self.non_gaussianity.copy()

    def to_dict(self) -> dict:
        layers = []
        for layer in self.layers:
            marginals = []
            for g in layer.gaussianizers:
                u = g.uniformizer
                marginals.append(
                    {
                        "support_lo": u.support_lo,
                        "support_hi": u.support_hi,
                        "knots_x": u.knots_x.tolist(),
                        "knots_p": u.knots_p.tolist(),
                        "clamp_eps": u.clamp_eps,
                    }
                )
            layers.append(
                {
                    "delta_t": layer.delta_t,
                    "rotation": {
                        "kind": layer.rotation.kind,
                        "rank_deficient": layer.rotation.rank_deficient,
                        "entries": layer.rotation.entries.tolist(),
                    },
                    "marginals": marginals,
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
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError("not a serialized model document")
        if doc.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version: {doc.get('version')!r}")
        try:
            layers = []
            for rec in doc["layers"]:
                gaussianizers = tuple(
                    MarginalGaussianizer(
                        MarginalUniformizer(
                            support_lo=m["support_lo"],
                            support_hi=m["support_hi"],
                            knots_x=np.array(m["knots_x"]),
                            knots_p=np.array(m["knots_p"]),
                            clamp_eps=m["clamp_eps"],
                        )
                    )
                    for m in rec["marginals"]
                )
                rot = rec["rotation"]
                rotation = RotationMatrix(
                    entries=np.array(rot["entries"]),
                    kind=rot["kind"],
                    rank_deficient=rot["rank_deficient"],
                )
                layers.append(
                    GaussLayer(
                        gaussianizers=gaussianizers,
                        rotation=rotation,
                        delta_t=rec["delta_t"],
                    )
                )
            return cls(
                layers=tuple(layers),
                marginal_entropies_input=np.array(doc["marginal_entropies_input"]),
                non_gaussianity=np.array(doc["non_gaussianity"]),
                config=FitConfig.from_dict(doc["config"]),
                converged=doc["converged"],
                resolved_bins=doc["resolved_bins"],
                resolved_clamp_eps=doc["resolved_clamp_eps"],
            )
        except (KeyError, TypeError) as exc:  # a missing field, or one of the wrong type
            raise ValueError(f"malformed model document: {type(exc).__name__}: {exc}") from None

    def save(self, path) -> None:
        """Write the model as a self-describing JSON document.

        Serialized floats round-trip exactly, so a reloaded model
        reproduces transform outputs bit for bit.
        """
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "GaussModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


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
    clamp_eps = (
        config.clamp_eps
        if config.clamp_eps is not None
        else max(1.0 / (2.0 * n), 1e-7)
    )
    seed_rng = np.random.default_rng(config.seed)

    h_input = np.array([marginal_entropy(x[:, j], bins) for j in range(d)])
    layers: list[GaussLayer] = []
    non_gauss: list[float] = []
    below = 0
    converged = False
    for _ in range(config.max_layers):
        gaussianizers = tuple(
            fit_gaussianizer(x[:, j], bins, config.tail_fraction, clamp_eps)
            for j in range(d)
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
