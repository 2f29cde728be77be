"""Span tracer for the benchmark's traced run.

The tracer wraps rbig's public functions and methods at the names their
callers look up (``rbig.flow.rotate``, not ``rbig.rotation.rotate``), so a
call made inside the library is seen.  Each call becomes one span: name,
start, end, parent span, op id and phase.  Spans stay in memory and are
written out when the run ends.  Nothing inside ``src/`` is changed; the
wrappers are installed for the traced phases only and the originals are put
back afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

import rbig.cli
import rbig.flow
import rbig.marginal
import rbig.measures
from rbig.flow import GaussModel
from rbig.marginal import MarginalGaussianizer, MarginalUniformizer


def _rows(args, kwargs, result):
    return {"rows": result[0].shape[0]}


def _values(args, kwargs, result):
    return {"values": np.size(args[1])}


def _uniformize(args, kwargs, result):
    uniformizer, x = args[0], np.asarray(args[1])
    p = np.asarray(result[0])
    eps = uniformizer.clamp_eps
    kx = uniformizer.knots_x
    return {
        "values": x.size,
        "out_of_support": int(np.count_nonzero((x < kx[0]) | (x > kx[-1]))),
        "clamp_hits": int(np.count_nonzero((p <= eps) | (p >= 1.0 - eps))),
    }


def _gflop(args, kwargs, result):
    n, d = np.shape(args[1])
    return {"gflop": 2.0 * n * d * d / 1e9}


def _fit(args, kwargs, result):
    tol = result.config.tol_delta_t
    return {
        "layers": result.n_layers,
        "useful_layers": int(np.count_nonzero(result.delta_t_trace >= tol)),
        "column_layers": result.dim * result.n_layers,
    }


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (owner, attribute, span name, counter).  The owner is the module or class
# through which the caller finds the function.  ``fit_gaussianizer`` is
# ``fit_uniformizer`` plus a constructor, so it carries that span name.
TARGETS = [
    (rbig.cli, "main", "cli.main", None),
    (rbig.cli, "load_cube", "cube.load_cube", None),
    (rbig.cli, "extract_patches", "cube.extract_patches", _rows),
    (rbig.cli, "save_cube", "cube.save_cube", None),
    (rbig.cli, "fit", "flow.fit", _fit),
    (rbig.flow, "fit", "flow.fit", _fit),
    (rbig.measures, "fit", "flow.fit", _fit),
    (GaussModel, "transform", "flow.transform", None),
    (GaussModel, "inverse", "flow.inverse", None),
    (GaussModel, "log_density", "flow.log_density", None),
    (GaussModel, "sample", "flow.sample", None),
    (GaussModel, "save", "flow.save", _saved_bytes),
    (GaussModel, "load", "flow.load", None),
    (rbig.flow, "fit_gaussianizer", "marginal.fit_uniformizer", None),
    (rbig.flow, "marginal_entropy", "marginal.entropy", None),
    (rbig.flow, "marginal_kl_to_standard_normal", "marginal.entropy", None),
    (MarginalGaussianizer, "forward", "marginal.forward", _values),
    (MarginalUniformizer, "forward", "marginal.uniformize", _uniformize),
    (rbig.marginal, "probit", "marginal.probit", None),
    (MarginalGaussianizer, "inverse", "marginal.inverse", _values),
    (rbig.marginal, "normal_cdf", "marginal.normal_cdf", None),
    (rbig.flow, "fit_pca_rotation", "rotation.fit_pca", None),
    (rbig.flow, "rotate", "rotation.rotate", _gflop),
    (rbig.flow, "rotate_inverse", "rotation.rotate_inverse", _gflop),
    (rbig.measures, "mutual_information", "measures.mutual_information", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})

# Spans each workload's ops must record; every other span must record none.
EXPECTED_SPANS = {
    "patch-fit": {
        "flow.fit", "flow.save", "flow.load",
        "marginal.fit_uniformizer", "marginal.entropy",
        "marginal.forward", "marginal.uniformize", "marginal.probit",
        "rotation.fit_pca", "rotation.rotate",
    },
    "patch-query": {
        "cli.main", "cube.load_cube", "cube.extract_patches", "cube.save_cube",
        "flow.load", "flow.log_density", "flow.transform", "flow.inverse",
        "flow.sample",
        "marginal.forward", "marginal.uniformize", "marginal.probit",
        "marginal.inverse", "marginal.normal_cdf",
        "rotation.rotate", "rotation.rotate_inverse",
    },
    "mi-tabular": {
        "measures.mutual_information", "flow.fit", "flow.transform",
        "marginal.fit_uniformizer", "marginal.entropy",
        "marginal.forward", "marginal.uniformize", "marginal.probit",
        "rotation.fit_pca", "rotation.rotate",
    },
}

# Time spent counting after a span ends is recorded under this name, so it
# is taken out of the enclosing span's self time.
COUNTING = "trace.counting"


class Tracer:
    """In-memory span recorder.

    ``phase`` tags every span recorded from now on (``setup``, ``op`` or
    ``check``) and ``op`` the id of the current op cycle; only ``op`` spans
    feed the per-layer metrics.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, phase, counts]
        self.phase = "setup"
        self.op = -1
        self._stack = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent, self.op, self.phase, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                record[6] = counter(args, kwargs, result)
                self.spans.append(
                    [COUNTING, record[2], time.perf_counter(), parent, self.op, self.phase, None]
                )
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper, restoring the originals on exit."""
        saved = []
        try:
            for owner, attr, name, counter in TARGETS:
                if attr not in vars(owner):
                    raise RuntimeError(
                        f"trace target {owner.__name__}.{attr} no longer exists"
                    )
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, counter))
                else:
                    wrapped = self._wrap(raw, name, counter)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def op_spans(self):
        return [s for s in self.spans if s[5] == "op"]

    def check_expected(self, workload: str) -> None:
        """Raise if an expected span never fired or an unexpected one did."""
        fired = {s[0] for s in self.op_spans()} - {COUNTING}
        expected = EXPECTED_SPANS[workload]
        missing = sorted(expected - fired)
        extra = sorted(fired - expected)
        if missing or extra:
            raise RuntimeError(
                f"trace self-check failed on {workload}: "
                f"expected spans with no calls {missing}, "
                f"spans predicted absent that fired {extra}"
            )

    def dump(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op", "phase", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)


# Per-layer metrics (their names and units are listed in BENCHMARK.json).
# Times are per op cycle, the median over the traced cycles; counts are per
# op cycle, the mean; ratios are taken over the whole traced phase.
# Time metrics: name -> (span, use self time).
_TIMES = {
    "cube.extract_patches_s": ("cube.extract_patches", False),
    "cube.load_cube_s": ("cube.load_cube", False),
    "cube.save_cube_s": ("cube.save_cube", False),
    "marginal.fit_uniformizer_s": ("marginal.fit_uniformizer", False),
    "marginal.entropy_s": ("marginal.entropy", False),
    "marginal.forward_s": ("marginal.forward", False),
    "marginal.uniformize_s": ("marginal.uniformize", False),
    "marginal.probit_s": ("marginal.probit", False),
    "marginal.inverse_s": ("marginal.inverse", False),
    "marginal.normal_cdf_s": ("marginal.normal_cdf", False),
    "rotation.fit_pca_s": ("rotation.fit_pca", False),
    "rotation.rotate_s": ("rotation.rotate", False),
    "rotation.rotate_inverse_s": ("rotation.rotate_inverse", False),
    "flow.fit_self_s": ("flow.fit", True),
    "flow.transform_self_s": ("flow.transform", True),
    "flow.inverse_self_s": ("flow.inverse", True),
    "flow.log_density_self_s": ("flow.log_density", True),
    "flow.sample_self_s": ("flow.sample", True),
    "flow.save_s": ("flow.save", False),
    "flow.load_s": ("flow.load", False),
    "measures.mutual_information_self_s": ("measures.mutual_information", True),
    "cli.info_map_self_s": ("cli.main", True),
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, n_ops: int, overhead_ratio: float) -> dict:
    """Reduce the op-phase spans to the per-layer metric values."""
    spans = tracer.spans
    # covered: time of direct children; tare: counting time anywhere below.
    covered = [0.0] * len(spans)
    tare = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
        if s[0] == COUNTING:
            p = s[3]
            while p >= 0:
                tare[p] += s[2] - s[1]
                p = spans[p][3]

    incl = {}  # (name, op) -> seconds
    excl = {}
    calls = dict.fromkeys(SPAN_NAMES, 0)
    counts = {}  # (name, key) -> total
    under_mi = {"flow.fit": 0, "flow.transform": 0}
    for i, s in enumerate(spans):
        name, start, end, parent, op, phase, extra = s
        if phase != "op" or name == COUNTING:
            continue
        dur = end - start
        incl[name, op] = incl.get((name, op), 0.0) + dur - tare[i]
        excl[name, op] = excl.get((name, op), 0.0) + dur - covered[i]
        calls[name] += 1
        for key, value in (extra or {}).items():
            counts[name, key] = counts.get((name, key), 0) + value
        if name in under_mi:
            p = parent
            while p >= 0 and spans[p][0] != "measures.mutual_information":
                p = spans[p][3]
            under_mi[name] += p >= 0

    def per_op_median(name, use_self):
        table = excl if use_self else incl
        return statistics.median(table.get((name, op), 0.0) for op in range(n_ops))

    out = {m: per_op_median(*spec) for m, spec in _TIMES.items()}
    forward_values = counts.get(("marginal.forward", "values"), 0)
    forward_time = sum(v for (n, _), v in incl.items() if n == "marginal.forward")
    passes = calls["marginal.fit_uniformizer"] + calls["marginal.entropy"]
    fits = calls["flow.fit"]
    mi_calls = calls["measures.mutual_information"]
    uniformized = counts.get(("marginal.uniformize", "values"), 0)
    out.update(
        {
            "cube.rows": counts.get(("cube.extract_patches", "rows"), 0) / n_ops,
            "marginal.fit_uniformizer_calls": calls["marginal.fit_uniformizer"] / n_ops,
            "marginal.entropy_calls": calls["marginal.entropy"] / n_ops,
            # Each fit_uniformizer, marginal_entropy and KL call bins its
            # column once: a counted number of np.histogram passes.
            "marginal.histogram_passes": passes / n_ops,
            "marginal.histograms_per_column_layer": _ratio(
                passes, counts.get(("flow.fit", "column_layers"), 0)
            ),
            "marginal.forward_calls": calls["marginal.forward"] / n_ops,
            "marginal.forward_values": forward_values / n_ops,
            "marginal.forward_ns_per_value": _ratio(forward_time * 1e9, forward_values),
            "marginal.inverse_values": counts.get(("marginal.inverse", "values"), 0) / n_ops,
            "marginal.out_of_support_ratio": _ratio(
                counts.get(("marginal.uniformize", "out_of_support"), 0), uniformized
            ),
            "marginal.clamp_hit_ratio": _ratio(
                counts.get(("marginal.uniformize", "clamp_hits"), 0), uniformized
            ),
            "rotation.fit_pca_calls": calls["rotation.fit_pca"] / n_ops,
            # 2*N*D^2 per rotate call: computed from the shapes, not measured.
            "rotation.gflop_computed": (
                counts.get(("rotation.rotate", "gflop"), 0)
                + counts.get(("rotation.rotate_inverse", "gflop"), 0)
            )
            / n_ops,
            "flow.layers": _ratio(counts.get(("flow.fit", "layers"), 0), fits),
            "flow.useful_layer_ratio": _ratio(
                counts.get(("flow.fit", "useful_layers"), 0),
                counts.get(("flow.fit", "layers"), 0),
            ),
            "flow.model_bytes": _ratio(
                counts.get(("flow.save", "bytes"), 0), calls["flow.save"]
            ),
            "measures.fits_per_call": _ratio(under_mi["flow.fit"], mi_calls),
            "measures.transforms_per_call": _ratio(under_mi["flow.transform"], mi_calls),
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return out
