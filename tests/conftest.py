import json
from pathlib import Path

import numpy as np
import pytest


def write_outside_cube(path, values, dtype="float64", fill_value=None, grid_meta=None):
    """Write a cube as an outside product does: ``values`` in ``dtype``
    (``float32``, say) with NaN replaced by ``fill_value`` (-9999, say),
    and its sidecar."""
    stored = np.asarray(values).astype({"float32": "<f4", "float64": "<f8"}[dtype])
    if fill_value is not None:
        stored[np.isnan(stored)] = fill_value
    stored.tofile(path)
    sidecar = {"shape": list(stored.shape), "dtype": dtype, "fill_value": fill_value,
               "order": "C", "grid_meta": grid_meta}
    Path(str(path) + ".json").write_text(json.dumps(sidecar))


@pytest.fixture()
def outside_cube():
    return write_outside_cube
