"""Working memory of the N x D paths, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so a call's traced peak
above the memory traced before it is its working set, returned arrays
included.  A layer may hold two N x D arrays; the column kernels add their
temporaries, a few columns per worker thread.
"""

import tracemalloc

import numpy as np
import pytest

from rbig import DataCube, FitConfig, PatchConfig, extract_patches, fit, mutual_information
from rbig import flow

# 2**15 rows reach flow._POOL_MIN_ROWS, so the column pool runs on 2 or more
# CPUs.
N, D = 2**15, 32
MATRIX = N * D * 8
COLUMN = N * 8
# Column-sized temporaries per worker: the serial path measured 8 for fit
# and 9 for transform, and 2 workers up to 21 in all under CPU contention,
# which leaves results the pool finishes ahead of the calling thread.
COLUMN_TEMPORARIES = 14
WORKERS = min(flow._cpu_count(), D)
# Two working arrays plus each worker's column temporaries.  Before each
# layer freed its spent input, fit, transform, log_density, inverse and
# sample read 3.0-3.1 matrices on 2 CPUs, against a bound of 2.875.
BOUND = 2 * MATRIX + WORKERS * COLUMN_TEMPORARIES * COLUMN
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


def in_matrices(peak):
    return f"peak {peak / MATRIX:.2f} N x D matrices, bound {BOUND / MATRIX:.2f}"


class TestWorkingMemory:
    def test_fit(self, data):
        peak = traced_peak(lambda: fit(data, CONFIG))
        assert peak <= BOUND, in_matrices(peak)

    def test_transform(self, model, data):
        peak = traced_peak(lambda: model.transform(data))
        assert peak <= BOUND, in_matrices(peak)

    def test_log_density(self, model, data):
        peak = traced_peak(lambda: model.log_density(data))
        assert peak <= BOUND, in_matrices(peak)

    def test_inverse(self, model, data):
        z = np.ascontiguousarray(model.transform(data)[0])
        # Made inside the traced call and held by inverse alone, as sample's
        # draw is: it must be freed once the first layer has rotated it.
        peak = traced_peak(lambda: model.inverse(z.copy()))
        assert peak <= BOUND, in_matrices(peak)

    def test_sample(self, model):
        peak = traced_peak(lambda: model.sample(N, seed=1))
        assert peak <= BOUND, in_matrices(peak)

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
