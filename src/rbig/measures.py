"""Information-theoretic estimators built on the Gaussianization flow.

Total correlation comes straight from the fitted model's per-layer
bookkeeping; joint entropy combines it with the input marginal entropies;
mutual information between two datasets is the total correlation left in
the concatenation of their independently Gaussianized versions.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import PairedLengthMismatch, _exact_keys, _finite, _integer
from .flow import FitConfig, GaussModel, _check_config_converged, fit

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

    Construction checks every field's type: ``quantity`` is one of the three
    quantity names, ``per_layer_delta_t`` is a list or tuple, the values and
    each item of ``per_layer_delta_t`` follow the number rule of
    :mod:`rbig.errors` and ``n_samples`` and ``dim`` (>= 1) its integer
    rule, ``config`` is a :class:`FitConfig` and ``converged`` is a bool;
    else a one-line ``ValueError`` names the field or item.  Numbers are
    stored as Python ``int``/``float``, so every report serializes to JSON.
    """

    quantity: str
    value_bits: float
    raw_value_bits: float
    per_layer_delta_t: tuple[float, ...]
    n_samples: int
    dim: int
    config: FitConfig
    converged: bool

    def __post_init__(self):
        if self.quantity not in (QUANTITY_ENTROPY, QUANTITY_TC, QUANTITY_MI):
            raise ValueError(f"unknown quantity: {reprlib.repr(self.quantity)}")
        for name in ("value_bits", "raw_value_bits"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        trace = self.per_layer_delta_t
        if not isinstance(trace, (list, tuple)):
            raise ValueError(f"per_layer_delta_t must be a list, got {reprlib.repr(trace)}")
        trace = tuple(_finite(f"per_layer_delta_t[{i}]", v) for i, v in enumerate(trace))
        object.__setattr__(self, "per_layer_delta_t", trace)
        for name in ("n_samples", "dim"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        _check_config_converged(self)

    def to_dict(self) -> dict:
        return {**asdict(self), "per_layer_delta_t": list(self.per_layer_delta_t)}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, doc: dict) -> "ITReport":
        """Rebuild a report from a dict holding exactly its field names."""
        _exact_keys(doc, [f.name for f in fields(cls)], "report")
        return cls(**{**doc, "config": FitConfig.from_dict(doc["config"])})


def _report(quantity: str, raw: float, model: GaussModel, n: int, converged: bool) -> ITReport:
    clamp = quantity in (QUANTITY_TC, QUANTITY_MI)
    return ITReport(
        quantity=quantity,
        value_bits=max(0.0, raw) if clamp else raw,
        raw_value_bits=raw,
        per_layer_delta_t=model.delta_t.tolist(),
        n_samples=n,
        dim=model.dim,
        config=model.config,
        converged=converged,
    )


def total_correlation(data, config: FitConfig | None = None) -> ITReport:
    """Total correlation of a sample matrix, in bits (zero iff independent)."""
    x = np.asarray(data, dtype=float)
    model = fit(x, config)
    return _report(QUANTITY_TC, model.total_correlation, model, x.shape[0], model.converged)


def entropy(data, config: FitConfig | None = None) -> ITReport:
    """Joint differential entropy in bits: sum of marginal entropies minus T."""
    x = np.asarray(data, dtype=float)
    model = fit(x, config)
    raw = float(model.marginal_entropies_input.sum()) - model.total_correlation
    return _report(QUANTITY_ENTROPY, raw, model, x.shape[0], model.converged)


def _as_columns(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[:, None] if a.ndim == 1 else np.atleast_2d(a)


def mutual_information(x, y, config: FitConfig | None = None) -> ITReport:
    """Mutual information between two paired datasets, in bits.

    Each dataset is Gaussianized independently (removing its internal total
    correlation); the total correlation remaining in the concatenated
    transformed rows is the mutual information between the originals.
    Row i of ``x`` must correspond to row i of ``y``; a 1-D array is one
    variable, an N x 1 column.  The report is ``converged`` only if all
    three fits are, and its per-layer trace is the joint fit's.  A
    one-column side stops at its first layer below ``tol_delta_t``
    (see :func:`rbig.flow.fit`).
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
    converged = gx.converged and gy.converged and model.converged
    return _report(QUANTITY_MI, model.total_correlation, model, xa.shape[0], converged)
