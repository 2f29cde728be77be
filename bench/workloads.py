"""The benchmark's workloads: seeded inputs, timed ops and their checks.

Each workload builds its inputs from the workload seed and then yields op
cycles.  The patch workloads give each cycle a cube of its own, seeded
``seed + CYCLE_SEED_STEP * k``, so one run's accuracy figures average over
several inputs.  An op is ``(name, run, check)``: ``run`` is the timed call
into rbig and ``check`` verifies its output, untimed, raising
``CheckFailed``.  ``summary`` gives the run-level accuracy figures and
checks once the cycles are done.

- ``patch-fit``: the "write" path on high-D patches (fit, save, load).
- ``patch-query``: the "read" path (info-map CLI, transform, inverse,
  sample) on a fresh cube with a planted extreme block.
- ``mi-tabular``: the low-D path, ``mutual_information`` on Gaussian pairs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import rbig.cli
import rbig.flow
import rbig.measures
from rbig import GAUSS_ENTROPY_BITS, FitConfig
from rbig.cube import DataCube, PatchConfig, extract_patches, load_cube, patch_grid_shape, save_cube
from rbig.synth import ar1_cube, equicorrelated_gaussian

# The patch workload (PW): an AR(1) cube cut into 7x7x1 patches at spatial
# stride 2, a 38,686 x 49 matrix.  Pixels are spatially independent with
# N(0, 1) marginals, so a patch row is N(0, I_49): its total correlation is
# 0 and its information content is known in closed form.
PW_SHAPE = (46, 64, 64)
PW_PHI = 0.9
PW_PATCH = PatchConfig(spatial=7, temporal=1, stride_space=2)
PW_FIT = FitConfig(tol_delta_t=0.49)
PW_CLI_PATCH = ["--spatial", "7", "--temporal", "1", "--stride-space", "2"]

# The query cube's planted extreme block (16x16 pixels, 10 time steps, x3)
# and a small missing-value hole, so the info map has unpainted anchors.
BLOCK = (slice(18, 28), slice(16, 32), slice(16, 32))
BLOCK_SCALE = 3.0
HOLE = (slice(5, 6), slice(44, 47), slice(44, 47))

# Acceptance 08: 99th-percentile round-trip error per column, as a share of
# the column's range.
ROUNDTRIP_TOL = 1e-4
# Sample moments must match the training matrix column by column.
MOMENT_TOL = 0.05

MI_N = 20000
MI_RHOS = (0.1, 0.5, 0.9)
# Acceptance 01's tolerance on the mean MI estimate for each rho.
MI_TOL = {0.1: 0.05, 0.5: 0.05, 0.9: 0.10}
# Input pairs generated in set-up and cycled by the ops; about as many as a
# run makes calls, so few inputs repeat within one run.
MI_POOL = 256


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def require_finite(array, shape, what):
    require(np.shape(array) == shape, f"{what} has shape {np.shape(array)}, want {shape}")
    require(bool(np.all(np.isfinite(array))), f"{what} has non-finite values")


def gaussian_information_bits(x):
    """-log2 N(x; 0, I) per row, in bits."""
    d = x.shape[1]
    return 0.5 * d * math.log2(2.0 * math.pi) + np.sum(x * x, axis=1) / (2.0 * math.log(2.0))


def roundtrip_rel_err(x, back):
    spans = x.max(axis=0) - x.min(axis=0)
    return float((np.percentile(np.abs(back - x), 99, axis=0) / spans).max())


CYCLE_SEED_STEP = 1000
# patch-fit generates this many cubes in set-up; a run makes about as many
# fits, so few repeat.
FIT_CUBES = 16


def pw_patches(seed):
    samples, _ = extract_patches(ar1_cube(*PW_SHAPE, PW_PHI, seed), PW_PATCH)
    return samples


class PatchFit:
    """PW fit, then save and load of the fitted model."""

    name = "patch-fit"
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.model_path = str(workdir / "model.json")
        self.model = None
        self.model_bytes = 0
        self.tc = []
        self.entropy_err = []
        self.layers = []

    def setup(self):
        # Only the cubes: extracting a 15 MB patch matrix is dominated by
        # page faults, whose cost swung by a third between processes.  Each
        # cycle extracts its own matrix, untimed.
        self.cubes = [
            ar1_cube(*PW_SHAPE, PW_PHI, self.seed + CYCLE_SEED_STEP * k)
            for k in range(FIT_CUBES)
        ]

    def ops(self, i):
        x, _ = extract_patches(self.cubes[i % FIT_CUBES], PW_PATCH)

        def fit():
            self.model = rbig.flow.fit(x, PW_FIT)

        def check_fit(_):
            m = self.model
            require(m.converged, "fit did not converge")
            require(m.dim == x.shape[1], f"model dim {m.dim}")
            require(bool(np.all(np.isfinite(m.delta_t_trace))), "non-finite delta-T")
            self.tc.append(abs(m.total_correlation))
            h = (float(m.marginal_entropies_input.sum()) - m.total_correlation) / m.dim
            self.entropy_err.append(abs(h - GAUSS_ENTROPY_BITS))
            self.layers.append(m.n_layers)

        def model_io():
            self.model.save(self.model_path)
            return rbig.flow.load_model(self.model_path)

        def check_io(loaded):
            self.model_bytes = Path(self.model_path).stat().st_size
            require(loaded.n_layers == self.model.n_layers, "layer count changed on load")
            head = x[:256]
            a, la = self.model.transform(head)
            b, lb = loaded.transform(head)
            require(np.array_equal(a, b) and np.array_equal(la, lb),
                    "reloaded model does not reproduce transform bit for bit")

        return [("fit_s", fit, check_fit), ("model_io_s", model_io, check_io)]

    def summary(self):
        return {
            # Mean |T| over the fits: the patch rows' true T is 0.
            "oracle_err_bits": float(np.mean(self.tc)),
            "extra": {
                "model_bytes": (self.model_bytes, "B"),
                "entropy_abs_err_bits": (float(np.mean(self.entropy_err)), "bits"),
                "layers": (float(np.mean(self.layers)), "count"),
            },
            "failures": [],
        }


class PatchQuery:
    """Read path on a fitted PW model: info-map CLI, transform, inverse, sample."""

    name = "patch-query"
    setup_reps = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.model_path = str(workdir / "model.json")
        self.cube_path = str(workdir / "query.bin")
        self.map_path = str(workdir / "map.bin")
        self.info_err = []
        self.roundtrip = []

    def setup(self):
        train = pw_patches(self.seed)
        self.model = rbig.flow.fit(train, PW_FIT)
        self.model.save(self.model_path)
        # Every 8th training row: the acceptance-08 round trip on the
        # model's own data.
        self.train = train[::8]
        self.train_mean = train.mean(axis=0)
        self.train_var = train.var(axis=0)
        self.grid_shape = patch_grid_shape(PW_SHAPE, PW_PATCH)
        self.cycle = None
        self._query(0)

    def _query(self, i):
        """Write cycle i's query cube; keep its patches and expected map."""
        if self.cycle == i:
            return
        values = ar1_cube(*PW_SHAPE, PW_PHI, self.seed + 1 + CYCLE_SEED_STEP * i).values
        values[BLOCK] *= BLOCK_SCALE
        values[HOLE] = np.nan
        cube = DataCube(values)
        save_cube(self.cube_path, cube)
        self.query, anchors = extract_patches(cube, PW_PATCH)
        # Grid cell of each painted anchor; every other cell must stay NaN.
        self.cells = (anchors[:, 0], anchors[:, 1] // 2, anchors[:, 2] // 2)
        self.painted = np.zeros(self.grid_shape, dtype=bool)
        self.painted[self.cells] = True
        self.true_info = gaussian_information_bits(self.query)
        # Patches wholly inside the planted block.
        t, r, c = anchors.T
        self.in_block = (
            (t >= BLOCK[0].start) & (t < BLOCK[0].stop)
            & (r >= BLOCK[1].start) & (r + 7 <= BLOCK[1].stop)
            & (c >= BLOCK[2].start) & (c + 7 <= BLOCK[2].stop)
        )
        self.cycle = i

    def ops(self, i):
        self._query(i)
        n, d = self.query.shape
        state = {}

        def info_map():
            argv = ["info-map", "--model", self.model_path, "--cube", self.cube_path,
                    "--out", self.map_path, *PW_CLI_PATCH]
            return rbig.cli.main(argv)

        def check_info_map(code):
            require(code == 0, f"info-map exited {code}")
            grid = load_cube(self.map_path).values
            require(grid.shape == self.grid_shape, f"grid shape {grid.shape}")
            require(bool(np.array_equal(np.isnan(grid), ~self.painted)),
                    "NaN cells differ from the unpainted anchors")
            info = grid[self.cells]
            require(bool(np.all(np.isfinite(info))), "non-finite painted cells")
            require(info[self.in_block].mean() > info[~self.in_block].mean(),
                    "planted block is not more informative than the rest")
            self.info_err.append(float(np.mean(np.abs(info - self.true_info))))

        def transform():
            state["z"] = self.model.transform(self.query)
            return state["z"]

        def check_transform(out):
            require_finite(out[0], (n, d), "z")
            require_finite(out[1], (n,), "logjac")

        def inverse():
            return self.model.inverse(state["z"][0])

        def check_inverse(back):
            require_finite(back, (n, d), "inverse")
            self.roundtrip.append(roundtrip_rel_err(self.query, back))
            z, _ = self.model.transform(self.train)
            err = roundtrip_rel_err(self.train, self.model.inverse(z))
            require(err <= ROUNDTRIP_TOL, f"training round trip {err:.2e} > {ROUNDTRIP_TOL}")

        def sample():
            return self.model.sample(n, seed=self.seed * 1000 + i)

        def check_sample(s):
            require_finite(s, (n, d), "sample")
            mean_err = np.abs(s.mean(axis=0) - self.train_mean).max()
            var_err = np.abs(s.var(axis=0) / self.train_var - 1.0).max()
            require(mean_err <= MOMENT_TOL and var_err <= MOMENT_TOL,
                    f"sample moments off: |mean| {mean_err:.3f}, |var ratio - 1| {var_err:.3f}")

        return [
            ("info_map_s", info_map, check_info_map),
            ("transform_s", transform, check_transform),
            ("inverse_s", inverse, check_inverse),
            ("sample_s", sample, check_sample),
        ]

    def summary(self):
        return {
            # Mean |information - (-log2 N(x; 0, I))| per query patch.
            "oracle_err_bits": float(np.mean(self.info_err)),
            "extra": {
                # Not gated: clamped tails make the map lossy outside the
                # training support.
                "roundtrip_rel_err": (float(np.median(self.roundtrip)), "ratio"),
                "query_rows": (self.query.shape[0], "count"),
            },
            "failures": [],
        }


class MiTabular:
    """mutual_information on 20,000 x (1+1) Gaussian pairs, rho cycling."""

    name = "mi-tabular"
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.estimates = {rho: [] for rho in MI_RHOS}

    def setup(self):
        self.pool = []
        for k in range(MI_POOL):
            rho = MI_RHOS[k % len(MI_RHOS)]
            data_seed = self.seed * 1000 + k
            data = equicorrelated_gaussian(MI_N, 2, rho, data_seed)
            self.pool.append((rho, data_seed, data[:, :1], data[:, 1:]))

    def ops(self, i):
        rho, data_seed, x, y = self.pool[i % len(self.pool)]

        def mi():
            return rbig.measures.mutual_information(x, y, FitConfig(seed=data_seed))

        def check_mi(report):
            require(math.isfinite(report.value_bits), "non-finite MI")
            require(report.converged, "MI fit did not converge")
            self.estimates[rho].append(report.value_bits)

        return [("mi_s", mi, check_mi)]

    def summary(self):
        errors = []
        failures = []
        extra = {}
        for rho, values in self.estimates.items():
            true = -0.5 * math.log2(1.0 - rho * rho)
            errors.extend(abs(v - true) for v in values)
            mean = float(np.mean(values))
            extra[f"mi_mean_bits_rho{rho}"] = (mean, "bits")
            if abs(mean - true) > MI_TOL[rho]:
                failures.append(f"rho={rho}: mean MI {mean:.4f} vs {true:.4f} (tol {MI_TOL[rho]})")
        mae = float(np.mean(errors))
        extra["mi_abs_err_bits"] = (mae, "bits")
        return {"oracle_err_bits": mae, "extra": extra, "failures": failures}


WORKLOADS = {w.name: w for w in (PatchFit, PatchQuery, MiTabular)}
