"""Spatio-temporal cube handling: patch extraction, ratio sweeps, file IO.

A cube holds one variable on a (time, row, col) grid with NaN for missing
values.  Patches of shape (temporal, spatial, spatial) are flattened
time-major into sample rows, so any tabular estimator applies; anchors are
retained so per-sample results can be painted back onto maps.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    InfeasibleBudget,
    PatchLargerThanCube,
    SeriesTooShort,
    _exact_keys,
    _finite,
    _integer,
)

__all__ = [
    "GridMeta",
    "DataCube",
    "PatchConfig",
    "extract_patches",
    "patch_grid_shape",
    "ratio_sweep_configs",
    "lag_embed",
    "save_cube",
    "load_cube",
    "save_csv",
    "load_csv",
]


@dataclass(frozen=True)
class GridMeta:
    """Optional georeferencing: degree origin/step and time step in days.

    Each field is None or follows the number rule of :mod:`rbig.errors`,
    stored as a Python ``float``.
    """

    lat_origin: float | None = None
    lon_origin: float | None = None
    lat_step: float | None = None
    lon_step: float | None = None
    time_step_days: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                object.__setattr__(self, f.name, _finite(f.name, value))


@dataclass(frozen=True)
class DataCube:
    """One variable on a (T, H, W) grid; missing values are NaN."""

    values: np.ndarray
    grid_meta: GridMeta | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ValueError("cube values must be a (time, row, col) array")
        if not np.any(np.isfinite(v)):
            raise ValueError("cube contains no finite values")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


@dataclass(frozen=True)
class PatchConfig:
    """Sliding-window patch geometry: s x s spatial window, tau time steps."""

    spatial: int
    temporal: int
    stride_space: int = 1
    stride_time: int = 1

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _integer(f.name, getattr(self, f.name), 1))

    @property
    def dim(self) -> int:
        return self.spatial * self.spatial * self.temporal

    @property
    def ratio(self) -> float:
        """Position on the spatial(0)-to-temporal(1) axis, log(tau)/log(dim)."""
        if self.dim == 1:
            return 0.0
        return math.log(self.temporal) / math.log(self.dim)


def patch_grid_shape(cube_shape, cfg: PatchConfig) -> tuple[int, int, int]:
    """Anchor-grid shape (T', H', W') before any NaN dropping."""
    t, h, w = cube_shape
    if cfg.spatial > min(h, w) or cfg.temporal > t:
        raise PatchLargerThanCube(
            f"patch {cfg.spatial}x{cfg.spatial}x{cfg.temporal} does not fit cube {t}x{h}x{w}"
        )
    return (
        (t - cfg.temporal) // cfg.stride_time + 1,
        (h - cfg.spatial) // cfg.stride_space + 1,
        (w - cfg.spatial) // cfg.stride_space + 1,
    )


def extract_patches(cube: DataCube, cfg: PatchConfig):
    """Flatten sliding-window patches into sample rows.

    Each patch is raveled time-major (time, then row, then col) into a row
    of length ``spatial**2 * temporal``.  Patches containing NaN are dropped.

    Returns
    -------
    samples : ndarray, shape (N, dim)
    anchors : ndarray, shape (N, 3)
        The (t, r, c) cube index of each patch's first element, in row-major
        anchor order.
    """
    patch_grid_shape(cube.shape, cfg)  # raises if the patch does not fit
    st, ss = cfg.stride_time, cfg.stride_space
    windows = np.lib.stride_tricks.sliding_window_view(
        cube.values, (cfg.temporal, cfg.spatial, cfg.spatial)
    )[::st, ::ss, ::ss]
    keep = ~np.isnan(windows).any(axis=(3, 4, 5))
    # The anchors come before the samples: made after them, they pinned
    # freed heap, and patch-query peak RSS read 175-185 MB against 161 MB.
    anchors = np.column_stack(np.nonzero(keep)) * (st, ss, ss)
    # One N x dim copy: the kept windows, selected from the view.
    samples = windows[keep].reshape(-1, cfg.dim)
    return samples, anchors


def ratio_sweep_configs(
    budget: int, n_ratios: int, t: int, h: int, w: int
) -> list[PatchConfig]:
    """Patch configurations spanning fully-spatial to fully-temporal.

    Returns ``n_ratios`` configs whose dimensionality is within 20% of
    ``budget`` (the fully-temporal endpoint is capped at the cube length),
    ordered by ratio from 0 (tau = 1) to 1 (s = 1); the two endpoints are
    always included and interior configs are chosen nearest to evenly
    spaced target ratios.  ``budget`` (>= 4), ``n_ratios`` (>= 2) and the
    cube's sizes ``t``, ``h`` and ``w`` (>= 1) follow the integer rule.
    """
    budget = _integer("budget", budget, 4)
    n_ratios = _integer("n_ratios", n_ratios, 2)
    t, h, w = (_integer(name, size, 1) for name, size in (("t", t), ("h", h), ("w", w)))
    lo, hi = 0.8 * budget, 1.2 * budget
    s_spatial = min(round(math.sqrt(budget)), min(h, w))
    if s_spatial < 2:
        raise InfeasibleBudget("cube too small for a fully spatial configuration")
    tau_temporal = min(budget, t)
    if tau_temporal < 2:
        raise InfeasibleBudget("cube too short for a fully temporal configuration")
    spatial_end = PatchConfig(spatial=s_spatial, temporal=1)
    temporal_end = PatchConfig(spatial=1, temporal=tau_temporal)

    candidates: dict[tuple[int, int], PatchConfig] = {}
    for s in range(2, min(h, w) + 1):
        if s * s > hi:
            break
        for tau in range(2, t + 1):
            dim = s * s * tau
            if dim > hi:
                break
            if dim >= lo:
                candidates[(s, tau)] = PatchConfig(spatial=s, temporal=tau)
    interior = sorted(candidates.values(), key=lambda c: c.ratio)

    chosen = [spatial_end, temporal_end]
    targets = np.linspace(0.0, 1.0, n_ratios)[1:-1]
    pool = [c for c in interior if 0.0 < c.ratio < 1.0]
    for target in targets:
        if not pool:
            break
        best = min(pool, key=lambda c: abs(c.ratio - target))
        pool.remove(best)
        chosen.append(best)
    return sorted(chosen, key=lambda c: c.ratio)


def lag_embed(series, lags: int) -> np.ndarray:
    """Stack a 1-D series with its own delayed copies.

    Row i holds ``(x_i, x_{i-1}, ..., x_{i-lags+1})``; the output has
    ``N - lags + 1`` rows and ``lags`` columns.  ``lags`` is an integer >= 1
    (numpy's too), never a bool.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 2 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 1:
        raise ValueError("series must be 1-D (or a single-column matrix)")
    lags = _integer("lags", lags, 1)
    n = x.size
    if n <= lags:
        raise SeriesTooShort(f"series of length {n} cannot embed {lags} lags")
    idx = np.arange(lags - 1, n)[:, None] - np.arange(lags)[None, :]
    return x[idx]


# The payload's little-endian numpy dtype for each sidecar dtype.
_PAYLOAD_DTYPES = {"float32": "<f4", "float64": "<f8"}


def _fill(value, dtype: str):
    """A sidecar's fill value in the payload dtype, in which cells are
    compared with it; a value that breaks the number rule, or one beyond the
    range of ``dtype``, raises a one-line ``ValueError``."""
    fill = _finite("cube sidecar fill_value", value)
    with np.errstate(over="ignore"):
        stored = np.array(fill).astype(_PAYLOAD_DTYPES[dtype])
    if np.isinf(stored):
        raise ValueError(f"cube sidecar fill_value = {fill!r} is beyond the {dtype} range")
    return stored


# Every sidecar holds exactly these keys: one lost (fill_value, say) would
# load its cube differently (the fill sentinel as data).
_SIDECAR_KEYS = ("shape", "dtype", "fill_value", "order", "grid_meta")
_GRID_META_FIELDS = {f.name for f in fields(GridMeta)}


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def save_cube(path, cube: DataCube) -> None:
    """Write a cube as flat little-endian float64 in C order, NaN kept as
    NaN, plus a JSON sidecar whose ``fill_value`` is null.

    The sidecar's text is encoded before either file is written.
    """
    sidecar = {
        "shape": list(cube.shape),
        "dtype": "float64",
        "fill_value": None,
        "order": "C",
        "grid_meta": asdict(cube.grid_meta) if cube.grid_meta else None,
    }
    text = json.dumps(sidecar, sort_keys=True, indent=2)
    np.asarray(cube.values, dtype="<f8").tofile(path)
    with open(_sidecar_path(path), "w") as fh:
        fh.write(text)


def load_cube(path) -> DataCube:
    """Load a flat float32 or float64 payload and its JSON sidecar, as
    :func:`save_cube` and outside products write them; cells equal to the
    ``fill_value`` in the payload dtype load as NaN.

    A sidecar that is not a JSON object holding exactly the keys ``shape``,
    ``dtype``, ``fill_value``, ``order`` and ``grid_meta``, or whose values
    are not a list of sizes, ``float32``/``float64``, null or a fill value
    (:func:`_fill`), ``"C"`` and null or an object of :class:`GridMeta`
    fields, or a payload whose byte length differs from the ``shape``'s,
    raises a one-line ``ValueError``.
    """
    with open(_sidecar_path(path)) as fh:
        sidecar = json.load(fh)
    _exact_keys(sidecar, _SIDECAR_KEYS, "cube sidecar")
    shape = sidecar["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"cube sidecar shape must be a list of sizes, got {shape!r}")
    dtype, order = sidecar["dtype"], sidecar["order"]
    if dtype not in _PAYLOAD_DTYPES:
        raise ValueError(f"cube sidecar dtype must be 'float32' or 'float64', got {dtype!r}")
    if order != "C":
        raise ValueError(f"cube sidecar order must be 'C', got {order!r}")
    fill = sidecar["fill_value"]
    if fill is not None:
        fill = _fill(fill, dtype)
    meta = sidecar["grid_meta"]
    try:
        if not (meta is None or isinstance(meta, dict) and set(meta) <= _GRID_META_FIELDS):
            raise ValueError(f"must be null or an object of GridMeta fields, got {meta!r}")
        meta = GridMeta(**meta) if meta else None
    except ValueError as exc:
        raise ValueError(f"cube sidecar grid_meta {exc}") from None
    payload = np.dtype(_PAYLOAD_DTYPES[dtype])
    size, length = math.prod(shape) * payload.itemsize, os.path.getsize(path)
    if length != size:
        raise ValueError(
            f"cube sidecar shape {shape} holds {size} bytes of {dtype}, the payload {length}"
        )
    stored = np.fromfile(path, dtype=payload).reshape(shape)
    # A float64 payload is kept as it is read: one array, not two.
    values = stored.astype(float, copy=False)
    if fill is not None:
        values[stored == fill] = np.nan
    return DataCube(values=values, grid_meta=meta)


def save_csv(path, data, header: list[str] | None = None) -> None:
    """Write an N x D sample matrix as CSV with a one-line header."""
    x = np.atleast_2d(np.asarray(data, dtype=float))
    if header is None:
        header = [f"c{j}" for j in range(x.shape[1])]
    np.savetxt(
        path,
        x,
        delimiter=",",
        header=",".join(header),
        comments="",
        fmt="%.17g",
    )


def load_csv(path) -> np.ndarray:
    """Load an N x D sample matrix from CSV with a one-line header.

    A file with no data rows after its header raises a ``ValueError``, and
    so does a row that ``np.loadtxt`` cannot read, named by its line in the
    file (:func:`_bad_line`).
    """
    with warnings.catch_warnings():
        # numpy warns of an empty file before returning it; the error below says it.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError:
            # numpy's messages count data rows, not lines, and advise an
            # argument of its own.
            bad = _bad_line(path)
            if bad is None:
                raise
            raise ValueError(bad) from None
    if data.shape[0] == 0:
        raise ValueError("no data rows after the header")
    return data


def _bad_line(path) -> str | None:
    """Name the first line of a CSV file, after its header, whose number of
    columns differs from the first data row's or which holds a cell that is
    not a number (:func:`_is_number`); None if there is none.  As in
    ``np.loadtxt``, a line that is empty once its ``#`` comment is cut is
    not a row."""
    first = None
    with open(path) as fh:
        next(fh, None)
        for number, line in enumerate(fh, start=2):
            row = line.rstrip("\n").split("#", 1)[0]
            if not row:
                continue
            cells = row.split(",")
            if first is None:
                first = number, len(cells)
            elif len(cells) != first[1]:
                noun = "column" if len(cells) == 1 else "columns"
                return f"line {number} has {len(cells)} {noun}, line {first[0]} has {first[1]}"
            for k, cell in enumerate(cells, start=1):
                if not _is_number(cell):
                    return (
                        f"line {number}, column {k}:"
                        f" could not convert string {cell!r} to float64"
                    )
    return None


def _is_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a float: Python's ``float``
    syntax, whitespace around it allowed, with no underscore or non-ASCII
    digit."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True
