"""rbig benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 bench/run.py --workload patch-fit --seed 11 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs the same ops, first untraced and then with every rbig module wrapped by
``tracing.Tracer``, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report, including the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: multi-threaded BLAS made medians drift between processes.
# Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("patch-fit", "patch-query", "mi-tabular")
DEFAULT_SEED = 11
MIN_CYCLES = 3
# Share of a traced run spent on untraced cycles, the overhead baseline.
UNTRACED_SHARE = 1 / 3

# On the shared 2-CPU x86_64 host the bounds were set on, CPU speed drifted
# by up to a third over minutes: the median of a fixed mutual_information
# call moved from 0.10 to 0.14 s.  So every end-to-end time is calibrated:
# multiplied by REF_NOMINAL_S over the median time of a fixed numpy
# reference kernel timed in the same run, between cycles.  REF_NOMINAL_S is
# that kernel's time on that host at its quiet speed, so a calibrated time
# reads as seconds there.  Raw times are in the report lines.
REF_NOMINAL_S = 0.056
REF_EVERY_S = 1.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    """HEAD's commit from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "rbig").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values):
    """Highest of p99/p95/p90/p75 with at least 10 samples beyond it."""
    import numpy as np

    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None, None


class Reference:
    """Fixed numpy kernel like rbig's hot path, timed to calibrate run speed."""

    def __init__(self):
        import numpy as np
        from scipy.special import erfc

        rng = np.random.default_rng(0)
        self.np, self.erfc = np, erfc
        self.x = rng.standard_normal(20000)
        self.knots = np.sort(rng.standard_normal(142))
        self.levels = np.linspace(0.0, 1.0, 142)
        self.pairs = rng.standard_normal((20000, 2))
        self.times = []
        self.last = -math.inf

    def measure(self):
        np, x = self.np, self.x
        started = time.perf_counter()
        for _ in range(20):
            np.histogram(x, bins=141)
            np.interp(x, self.knots, self.levels)
            np.searchsorted(self.knots, x)
            self.erfc(x)
            np.log(np.abs(x) + 1.0)
            self.pairs.T @ self.pairs
        self.last = time.perf_counter()
        self.times.append(self.last - started)

    def measure_every(self, seconds):
        if time.perf_counter() - self.last >= seconds:
            self.measure()

    def scale(self):
        return REF_NOMINAL_S / statistics.median(self.times)


class Runner:
    """Runs op cycles, times each op, checks it and counts failures."""

    def __init__(self, workload, tracer=None, reference=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.op_times = {}
        self.cycle_times = []
        self.attempted = 0
        self.failed = 0

    def _phase(self, phase):
        if self.tracer is not None:
            self.tracer.phase = phase

    def cycle(self, i):
        from workloads import CheckFailed

        total = 0.0
        if self.tracer is not None:
            self.tracer.op = i
        self._phase("setup")  # ops(i) generates the cycle's inputs
        for name, run, check in self.workload.ops(i):
            self.attempted += 1
            self._phase("op")
            started = time.perf_counter()
            try:
                out = run()
            except Exception:
                self.failed += 1
                print(f"FAILED {name} (cycle {i}):\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - started
                self._phase("check")
            total += elapsed
            self.op_times.setdefault(name, []).append(elapsed)
            try:
                check(out)
            except CheckFailed as exc:
                self.failed += 1
                print(f"FAILED check {name} (cycle {i}): {exc}", file=sys.stderr)
        self.cycle_times.append(total)

    def run_for(self, seconds, first=0):
        """Run cycles until the next one would end after ``seconds``."""
        deadline = time.perf_counter() + seconds
        i = first
        while True:
            if self.reference is not None:
                self.reference.measure_every(REF_EVERY_S)
            self.cycle(i)
            i += 1
            done = i - first
            if done >= MIN_CYCLES and (
                time.perf_counter() + statistics.median(self.cycle_times) > deadline
            ):
                return done


def report_line(name, value, unit, extra=""):
    print(f"  {name:<38} {value:>14.6g} {unit:<6} {extra}")


def with_units(values, kind):
    """Attach BENCHMARK.json's units; the names must match its list exactly."""
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics {sorted(values)} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_untraced(args, workload):
    setup_times = []
    for _ in range(workload.setup_reps):
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    reference = Reference()
    runner = Runner(workload, reference=reference)
    runner.run_for(args.seconds)
    summary = workload.summary()
    scale = reference.scale()

    print("ops (raw seconds per call: median, tail percentile with >=10 samples"
          " beyond, count; then the calibrated median)")
    for name, times in runner.op_times.items():
        p, tail = tail_percentile(times)
        tail_text = f"p{p}={tail:.6g}" if p else "tail=n/a"
        median = statistics.median(times)
        report_line(name, median, "s", f"{tail_text} n={len(times)} calibrated={median * scale:.6g}")
    report_line("reference_kernel_s", statistics.median(reference.times), "s",
                f"n={len(reference.times)} scale={scale:.4f}")
    report_line("raw setup_s", statistics.median(setup_times), "s")
    report_line("raw op_s", statistics.median(runner.cycle_times), "s")
    metrics = {
        "setup_s": statistics.median(setup_times) * scale,
        "op_s": statistics.median(runner.cycle_times) * scale,
        "peak_rss_mb": peak_rss_mb(),
        "oracle_err_bits": summary["oracle_err_bits"],
    }
    metrics = with_units(metrics, "end_to_end")
    print("end-to-end")
    for name, m in metrics.items():
        report_line(name, m["value"], m["unit"])
    report_line("failed_ratio", runner.failed / runner.attempted, "ratio",
                f"{runner.failed}/{runner.attempted}")
    print("accuracy and counts")
    for name, (value, unit) in summary["extra"].items():
        report_line(name, value, unit)
    return runner, summary, metrics


def run_traced(args, workload):
    from tracing import Tracer, per_layer_metrics

    tracer = Tracer()
    with tracer.installed():
        workload.setup()
    untraced = Runner(workload)
    first = untraced.run_for(args.seconds * UNTRACED_SHARE)
    traced = Runner(workload, tracer)
    with tracer.installed():
        n_ops = traced.run_for(args.seconds * (1 - UNTRACED_SHARE), first=0)
    tracer.check_expected(workload.name)
    summary = workload.summary()
    overhead = statistics.median(traced.cycle_times) / statistics.median(untraced.cycle_times) - 1
    metrics = with_units(per_layer_metrics(tracer, n_ops, overhead), "per_layer")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.dump(trace_path)
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    print(f"per layer (per op cycle; {n_ops} traced cycles, {first} untraced)")
    for name, m in metrics.items():
        report_line(name, m["value"], m["unit"])
    runner = untraced
    runner.attempted += traced.attempted
    runner.failed += traced.failed
    return runner, summary, metrics


def run_all(args):
    """Run each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rbig" / "__init__.py").is_file():
        print(f"error: rbig sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    env = environment(args)
    print(f"# rbig bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            runner, summary, metrics = run_traced(args, workload)
        else:
            runner, summary, metrics = run_untraced(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in summary["failures"]:
        print(f"FAILED run check: {failure}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not summary["failures"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
