"""Spatio-temporal cube handling: patch extraction, ratio sweeps, file IO.

A cube holds one variable on a (time, row, col) grid with NaN for missing
values.  Patches of shape (temporal, spatial, spatial) are flattened
time-major into sample rows, so any tabular estimator applies; anchors are
retained so per-sample results can be painted back onto maps.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InfeasibleBudget, PatchLargerThanCube, SeriesTooShort
from .flow import _is_finite_number

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
    """Optional georeferencing: degree origin/step and time step in days."""

    lat_origin: float | None = None
    lon_origin: float | None = None
    lat_step: float | None = None
    lon_step: float | None = None
    time_step_days: float | None = None


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
        if min(self.spatial, self.temporal, self.stride_space, self.stride_time) < 1:
            raise ValueError("patch sizes and strides must be >= 1")

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
    spaced target ratios.
    """
    if budget < 4:
        raise ValueError("budget must be >= 4")
    if n_ratios < 2:
        raise ValueError("n_ratios must be >= 2")
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
    ``N - lags + 1`` rows and ``lags`` columns.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 2 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 1:
        raise ValueError("series must be 1-D (or a single-column matrix)")
    if lags < 1:
        raise ValueError("lags must be >= 1")
    n = x.size
    if n <= lags:
        raise SeriesTooShort(f"series of length {n} cannot embed {lags} lags")
    idx = np.arange(lags - 1, n)[:, None] - np.arange(lags)[None, :]
    return x[idx]


def _fill_float(value, what: str) -> float:
    """A fill value as a float; a bool, a non-real or a number beyond the
    float range raises a one-line ``ValueError`` naming it ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{what} {reprlib.repr(value)} is beyond the float range") from None


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def save_cube(path, cube: DataCube, dtype: str = "float64", fill_value: float | None = None) -> None:
    """Write a cube as flat little-endian floats plus a JSON sidecar.

    ``fill_value``, when given, replaces NaN in the binary payload and is
    recorded in the sidecar, as a float, so loading restores the NaNs.  A
    fill value that is not a real number (a bool included), lies beyond the
    float range or equals a data value in the stored dtype raises
    ``ValueError``.  Both files are written only once the sidecar has been
    encoded.
    """
    if dtype not in ("float32", "float64"):
        raise ValueError("dtype must be 'float32' or 'float64'")
    if fill_value is not None:
        fill_value = _fill_float(fill_value, "fill_value")
    np_dtype = "<f4" if dtype == "float32" else "<f8"
    stored = cube.values.astype(np_dtype)
    if fill_value is not None:
        fill = np.array(fill_value, dtype=np_dtype)
        if np.any(stored == fill):
            raise ValueError(f"fill_value {fill_value!r} equals a data value in {dtype}")
        stored[np.isnan(stored)] = fill
    sidecar = {
        "shape": list(cube.shape),
        "dtype": dtype,
        "fill_value": fill_value,
        "order": "C",
        "grid_meta": asdict(cube.grid_meta) if cube.grid_meta else None,
    }
    text = json.dumps(sidecar, sort_keys=True, indent=2)
    stored.tofile(path)
    with open(_sidecar_path(path), "w") as fh:
        fh.write(text)


def load_cube(path) -> DataCube:
    """Load a cube written by :func:`save_cube` (binary + JSON sidecar).

    A sidecar that is not a JSON object, whose ``shape`` is not a list of
    sizes holding as many values as the payload, whose ``dtype`` is not
    ``float32``/``float64``, whose ``order`` is not ``"C"``, whose
    ``fill_value`` is not null or a real number within the float range, or
    whose ``grid_meta`` is not null or an object of :class:`GridMeta` fields
    holding finite numbers or null raises ``ValueError``.
    """
    with open(_sidecar_path(path)) as fh:
        sidecar = json.load(fh)
    if not isinstance(sidecar, dict):
        raise ValueError("cube sidecar must be a JSON object")
    shape = sidecar.get("shape")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"cube sidecar shape must be a list of sizes, got {shape!r}")
    dtype, order = sidecar.get("dtype"), sidecar.get("order")
    if dtype not in ("float32", "float64"):
        raise ValueError(f"cube sidecar dtype must be 'float32' or 'float64', got {dtype!r}")
    if order != "C":
        raise ValueError(f"cube sidecar order must be 'C', got {order!r}")
    fill = sidecar.get("fill_value")
    if fill is not None:
        fill = _fill_float(fill, "cube sidecar fill_value")
    meta = sidecar.get("grid_meta")
    names = {f.name for f in fields(GridMeta)}
    if meta is not None and not (
        isinstance(meta, dict)
        and set(meta) <= names
        and all(v is None or _is_finite_number(v) for v in meta.values())
    ):
        raise ValueError(
            "cube sidecar grid_meta must be null or an object of GridMeta fields,"
            f" each a finite number or null, got {meta!r}"
        )
    np_dtype = "<f4" if dtype == "float32" else "<f8"
    stored = np.fromfile(path, dtype=np_dtype)
    size = math.prod(shape)
    if stored.size != size:
        raise ValueError(
            f"cube sidecar shape {shape} holds {size} values, the payload {stored.size}"
        )
    stored = stored.reshape(shape)
    values = stored.astype(float)
    if fill is not None:
        # Mask in the stored dtype: save_cube rounded the fill value to it.
        values[stored == np.array(fill, dtype=np_dtype)] = np.nan
    return DataCube(values=values, grid_meta=GridMeta(**meta) if meta else None)


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
    """Load an N x D sample matrix from CSV with a one-line header."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
