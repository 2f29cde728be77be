"""Information-theoretic estimators built on the Gaussianization flow.

Total correlation comes straight from the fitted model's per-layer
bookkeeping; joint entropy combines it with the input marginal entropies;
mutual information between two datasets is the total correlation left in
the concatenation of their independently Gaussianized versions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import PairedLengthMismatch
from .flow import FitConfig, GaussModel, _exact_keys, fit

__all__ = [
    "ITReport",
    "total_correlation",
    "entropy",
    "mutual_information",
]

QUANTITY_ENTROPY = "entropy"
QUANTITY_TC = "total_correlation"
QUANTITY_MI = "mutual_information"


@dataclass(frozen=True)
class ITReport:
    """Result record for one estimated quantity, all values in bits.

    ``value_bits`` is clamped at zero for total correlation and mutual
    information (estimator noise can produce small negatives); the unclamped
    estimate is kept in ``raw_value_bits``.  Entropy is never clamped.
    """

    quantity: str
    value_bits: float
    raw_value_bits: float
    per_layer_delta_t: tuple[float, ...]
    n_samples: int
    dim: int
    config: FitConfig
    converged: bool

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "value_bits": self.value_bits,
            "raw_value_bits": self.raw_value_bits,
            "per_layer_delta_t": list(self.per_layer_delta_t),
            "n_samples": self.n_samples,
            "dim": self.dim,
            "config": self.config.to_dict(),
            "converged": self.converged,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, doc: dict) -> "ITReport":
        """Rebuild a report from a dict holding exactly its field names."""
        _exact_keys(doc, [f.name for f in fields(cls)], "report")
        return cls(
            quantity=doc["quantity"],
            value_bits=doc["value_bits"],
            raw_value_bits=doc["raw_value_bits"],
            per_layer_delta_t=tuple(doc["per_layer_delta_t"]),
            n_samples=doc["n_samples"],
            dim=doc["dim"],
            config=FitConfig.from_dict(doc["config"]),
            converged=doc["converged"],
        )


def _report(quantity: str, raw: float, model: GaussModel, n: int, dim: int) -> ITReport:
    clamp = quantity in (QUANTITY_TC, QUANTITY_MI)
    return ITReport(
        quantity=quantity,
        value_bits=max(0.0, raw) if clamp else raw,
        raw_value_bits=raw,
        per_layer_delta_t=tuple(model.delta_t_trace.tolist()),
        n_samples=n,
        dim=dim,
        config=model.config,
        converged=model.converged,
    )


def total_correlation(data, config: FitConfig | None = None) -> ITReport:
    """Total correlation of a sample matrix, in bits (zero iff independent)."""
    x = np.asarray(data, dtype=float)
    model = fit(x, config)
    return _report(QUANTITY_TC, model.total_correlation, model, x.shape[0], x.shape[1])


def entropy(data, config: FitConfig | None = None) -> ITReport:
    """Joint differential entropy in bits: sum of marginal entropies minus T."""
    x = np.asarray(data, dtype=float)
    model = fit(x, config)
    raw = float(model.marginal_entropies_input.sum()) - model.total_correlation
    return _report(QUANTITY_ENTROPY, raw, model, x.shape[0], x.shape[1])


def _as_columns(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[:, None] if a.ndim == 1 else np.atleast_2d(a)


def mutual_information(x, y, config: FitConfig | None = None) -> ITReport:
    """Mutual information between two paired datasets, in bits.

    Each dataset is Gaussianized independently (removing its internal total
    correlation); the total correlation remaining in the concatenated
    transformed rows is the mutual information between the originals.
    Row i of ``x`` must correspond to row i of ``y``; a 1-D array is one
    variable, an N x 1 column.
    """
    xa = _as_columns(x)
    ya = _as_columns(y)
    if xa.shape[0] != ya.shape[0]:
        raise PairedLengthMismatch(
            f"paired datasets need equal row counts, got {xa.shape[0]} and {ya.shape[0]}"
        )
    gx = fit(xa, config)
    gy = fit(ya, config)
    # Unnamed, the transforms are freed once stacked and the stack with the
    # joint fit's first layer: two N x (Dx + Dy) arrays at most.
    model = fit(np.hstack([gx.transform(xa)[0], gy.transform(ya)[0]]), config)
    return _report(QUANTITY_MI, model.total_correlation, model, xa.shape[0], model.dim)
