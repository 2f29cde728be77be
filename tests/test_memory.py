"""Working memory of the N x D paths, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so a call's traced peak
above the memory traced before it is its working set, returned arrays
included.  fit, transform, log_density, inverse and sample hold one N x D
array here: every layer maps its columns in one working array and rotates
it in place through chunk-sized temporaries (fit's PCA sums its Gram matrix
over such chunks too).  fit only reads the caller's input, which is not
counted.  sample's working array is its uniform draw, which its last layer
maps in place.  inverse holds its input beside its working array only while
it loads it.  The column kernels add their temporaries, a few columns per
worker thread.
"""

import tracemalloc

import numpy as np
import pytest

from rbig import (
    DataCube,
    FitConfig,
    PatchConfig,
    extract_patches,
    fit,
    load_cube,
    mutual_information,
    save_cube,
)
from rbig import flow

# 2**15 rows reach flow._POOL_MIN_ROWS, so the worker pool runs on 2 or more
# CPUs.
N, D = 2**15, 32
MATRIX = N * D * 8
COLUMN = N * 8
# Column-sized temporaries per worker: the serial path measured 8 for fit
# and 9 for transform, and 2 workers (the calling thread and one helper) up
# to 15 in all for transform.  The rest are the results a helper finishes
# ahead of their turn while the calling thread runs a task of its own.
COLUMN_TEMPORARIES = 14
WORKERS = min(flow._cpu_count(), D)
# Two working arrays plus each worker's column temporaries.  Before each
# layer freed its spent input, fit, transform, log_density, inverse and
# sample read 3.0-3.1 matrices on 2 CPUs, against a bound of 2.875.
BOUND = 2 * MATRIX + WORKERS * COLUMN_TEMPORARIES * COLUMN
# One working array plus each worker's column temporaries.  With a fresh
# N x D array per layer, transform and log_density read 2.42-2.47 matrices on
# 2 CPUs against BOUND; in one working array, 1.44-1.60.  fit read 2.35-2.38
# with a centered copy and a fresh rotated array per layer; in one working
# array, 1.35-1.41.
QUERY_BOUND = MATRIX + WORKERS * COLUMN_TEMPORARIES * COLUMN
# Two layers: every layer after the first maps an array of the call's own.
CONFIG = FitConfig(tol_delta_t=1e3, patience=2, max_layers=2)


def traced_peak(call) -> int:
    """Bytes of ``call()``'s tracemalloc peak above the memory traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def skewed(n, d, seed):
    x = np.random.default_rng(seed).standard_normal((n, d))
    x[:, ::2] = np.exp(x[:, ::2])
    return x


@pytest.fixture(scope="module")
def data():
    return skewed(N, D, 0)


@pytest.fixture(scope="module")
def model(data):
    return fit(data, CONFIG)


def in_matrices(peak, bound=BOUND):
    return f"peak {peak / MATRIX:.2f} N x D matrices, bound {bound / MATRIX:.2f}"


class TestWorkingMemory:
    def test_fit(self, data):
        peak = traced_peak(lambda: fit(data, CONFIG))
        assert peak <= QUERY_BOUND, in_matrices(peak, QUERY_BOUND)

    def test_transform(self, model, data):
        # The guard against a scheduler that collects a call's results
        # before it yields them: that holds all D log-Jacobian columns at
        # once.  On 2 CPUs, a scheduler that yields each result once it and
        # every earlier one are in read 1.35-1.47 matrices, and one that
        # collected them first read 2.20-2.23, against QUERY_BOUND's 1.875.
        # A thread pool with one future per task read 1.33-1.44.
        peak = traced_peak(lambda: model.transform(data))
        assert peak <= QUERY_BOUND, in_matrices(peak, QUERY_BOUND)

    def test_log_density(self, model, data):
        peak = traced_peak(lambda: model.log_density(data))
        assert peak <= QUERY_BOUND, in_matrices(peak, QUERY_BOUND)

    def test_inverse(self, model, data):
        z = np.ascontiguousarray(model.transform(data)[0])
        # Made inside the traced call and held by inverse alone: 2.01-2.02
        # matrices on 2 CPUs, the input beside the working array it is
        # loaded into, then freed before the first layer.  Held by the
        # caller, the input is not counted: 1.38.
        peak = traced_peak(lambda: model.inverse(z.copy()))
        assert peak <= BOUND, in_matrices(peak)

    def test_sample(self, model):
        # The draw is the working array: 1.36-1.38 matrices on 2 CPUs.  An
        # N(0, I) draw inverted beside a working array read 2.13.
        peak = traced_peak(lambda: model.sample(N, seed=1))
        assert peak <= QUERY_BOUND, in_matrices(peak, QUERY_BOUND)

    def test_mutual_information(self):
        # The joint matrix is N x D, each side half of it.
        xy = skewed(N, D, 1)
        xy[:, D // 2:] += xy[:, : D // 2]
        x, y = xy[:, : D // 2].copy(), xy[:, D // 2:].copy()
        peak = traced_peak(lambda: mutual_information(x, y, CONFIG))
        assert peak <= BOUND, in_matrices(peak)

    def test_extract_patches(self):
        values = np.random.default_rng(2).standard_normal((34, 32, 32))
        values[5, 3:6, 10:14] = np.nan
        values[20, 30, 0] = np.nan
        cube = DataCube(values)
        cfg = PatchConfig(spatial=4, temporal=2)
        samples, anchors = extract_patches(cube, cfg)
        # One copy of the kept windows, the anchors and the NaN masks read
        # 1.2 times the samples; copying every window and then masking read
        # 2.3.
        peak = traced_peak(lambda: extract_patches(cube, cfg))
        limit = 1.5 * samples.nbytes
        assert peak <= limit, f"peak {peak / samples.nbytes:.2f} times the samples"

    def test_load_cube(self, tmp_path):
        # A float64 payload is the loaded cube: reading it and then copying
        # it to float64 read 2.1 times the payload.
        values = np.random.default_rng(3).standard_normal((46, 64, 64))
        values[4, 10:20, 5] = np.nan
        path = tmp_path / "cube.bin"
        save_cube(path, DataCube(values))
        peak = traced_peak(lambda: load_cube(path))
        limit = 1.25 * values.nbytes
        assert peak <= limit, f"peak {peak / values.nbytes:.2f} times the payload"
