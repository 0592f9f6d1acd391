"""singularflow benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload classify-basin --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    classify-basin  classify_blowup over a seeded ensemble with known verdicts
    sweep-ray       `singular-flow sweep` on saddle2d from the collapse ray
    sweep-cycle     `singular-flow sweep` on sphere3d along nu_n = exp(-T<F_r>n + chi)

The load is a closed loop: one caller in this process, no worker threads,
BLAS pinned to one thread; each call is issued when the previous one has
returned.  A run repeats the workload's fixed job (a pass) for about
`--seconds`, at least three times, and checks that every
operation's output digest is bitwise identical across passes.

Times are reported at reference speed.  On a shared two-vCPU host the speed
of the same code drifts by up to 1.5x over seconds to minutes, and all code
slows together.  So a fixed reference kernel of about REF_NOMINAL_S (frozen
here, never package code) runs between consecutive calls, and each call's
wall time is multiplied by REF_NOMINAL_S over the mean reference time near
the call (see Runner.scale).  `wall_s` sums, over the job's operations, the
median of each one's scaled times across passes.  Raw times are printed too.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` the run makes one untraced and one traced pass, alternating call
by call, then the kernel microbenchmarks, and the last line reports the
per-layer metrics.  The lines before it print every metric by name with its
unit, including the workload-specific ones.  Outputs go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in BLAS_ENV:
    os.environ[_name] = "1"
os.environ.pop("SINGULAR_FLOW_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / ".out"
SETUP_REPEATS = 5
MIN_PASSES = 3
REF_NOMINAL_S = 0.020
REF_STEPS = 32
REF_REPEATS = 5

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PACKAGE_MODULES = (
    "fields", "integrators", "renorm", "attractors", "regularize", "continuation", "cli",
)
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import singularflow, singularflow.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def import_seconds():
    """Import time of the package in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def reference_seconds(np):
    """Wall time of the fixed reference kernel; no package code runs in it.

    A frozen six-stage explicit Runge-Kutta loop on a renormalized planar
    field, recording every step in Python lists: the same mix of tiny NumPy
    calls, float arithmetic and allocation as the package's integrator.
    """
    c = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)

    def rhs(u):
        y = u[:2] / math.sqrt(float(u[:2] @ u[:2]))
        f = np.array([y[0] * y[0] + y[0] * y[1], y[0] * y[1] - y[0] * y[0] * y[1]])
        fr = float(f @ y)
        out = np.empty(4)
        out[:2] = f - fr * y
        out[2] = fr
        out[3] = math.exp(min(0.5 * u[2], 60.0))
        return out

    def run():
        t0 = time.perf_counter()
        u, h = np.array([0.6, 0.8, 0.0, 0.0]), 0.01
        k = np.empty((7, 4))
        states = [u]
        for _ in range(REF_STEPS):
            k[0] = rhs(u)
            for j in range(1, 6):
                k[j] = rhs(u + c[j] * h * (k[:j].T @ np.full(j, 1.0 / j)))
            u = u + h * (k[:6].T @ np.full(6, 1.0 / 6.0))
            k[6] = rhs(u)
            states.append(u)
        np.array(states)
        return time.perf_counter() - t0

    # the median of several short repeats ignores a preemption inside one
    return REF_REPEATS * statistics.median(run() for _ in range(REF_REPEATS))


def environment(np, scipy):
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "SINGULAR_FLOW_THREADS": os.environ.get("SINGULAR_FLOW_THREADS", "unset"),
    }


@dataclass
class Record:
    index: int  # pass
    op: workloads.Op
    start: float
    raw_s: float  # wall time of the call
    outcome: workloads.Outcome
    ref_s: float = REF_NOMINAL_S  # reference-kernel time around the call

    @property
    def seconds(self):
        """Wall time at reference speed."""
        return self.raw_s * REF_NOMINAL_S / self.ref_s


class Runner:
    """Runs passes over one job and keeps every timing and oracle result."""

    def __init__(self, ops, ctx, run_dir, np):
        self.ops = ops
        self.ctx = ctx
        self.run_dir = run_dir
        self.np = np
        self.digests = {}
        self.records = []
        self.pass_count = 0
        self.failures = []
        self.probes = []  # (time, reference seconds)

    def probe(self):
        t = time.perf_counter()
        self.probes.append((t, reference_seconds(self.np)))

    def scale(self):
        """Give each call the mean reference time over a window that extends
        the call by its own length (at least 0.1 s) on both sides: the two
        probes next to a short call, several passes' worth for a long one,
        whose own speed is an average over seconds of drifting load."""
        for r in self.records:
            pad = max(r.raw_s, 0.1)
            lo, hi = r.start - pad, r.start + r.raw_s + pad
            r.ref_s = statistics.mean(ref for t, ref in self.probes if lo <= t <= hi)

    def run_op(self, index, op):
        """Time one call, check its output and its digest against pass 0."""
        workdir = self.run_dir / f"pass{index}-{op.label}"
        workdir.mkdir(parents=True)
        self.ctx.workdir = str(workdir)
        if not self.probes:
            self.probe()
        t0 = time.perf_counter()
        try:
            result = op.call(self.ctx)
            raw = time.perf_counter() - t0
            self.probe()
            outcome = op.check(result, self.ctx)
        except Exception as exc:  # one failed operation must not end the run
            raw = time.perf_counter() - t0
            self.probe()
            outcome = workloads.Outcome(False, "", f"{type(exc).__name__}: {exc}")
        shutil.rmtree(workdir)
        first = self.digests.setdefault(op.label, outcome.digest)
        if outcome.ok and outcome.digest != first:
            outcome.ok = False
            outcome.note = "output digest differs from pass 0"
        if not outcome.ok:
            self.failures.append(f"pass {index} {op.label}: {outcome.note}")
        rec = Record(index, op, t0, raw, outcome)
        self.records.append(rec)
        return rec

    def run_pass(self):
        for op in self.ops:
            self.run_op(self.pass_count, op)
        self.pass_count += 1

    def run_paired_passes(self, tracer):
        """Pass 0 untraced and pass 1 traced, alternating call by call so both
        see the same machine load."""
        for op in self.ops:
            self.run_op(0, op)
            tracer.install()
            self.ctx.field_wrapper = tracer.counting_field
            try:
                self.run_op(1, op)
            finally:
                self.ctx.field_wrapper = None
                tracer.uninstall()
        self.pass_count = 2

    def select(self, group=None, passes=None):
        return [r for r in self.records
                if (group is None or r.op.group == group) and (passes is None or r.index in passes)]

    def job_seconds(self):
        """The fixed job at reference speed: per-operation medians, summed."""
        return sum(statistics.median(r.seconds for r in self.records if r.op is op)
                   for op in self.ops)

    def pass_seconds(self, index, raw=False):
        return sum(r.raw_s if raw else r.seconds for r in self.select(passes=[index]))

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r.outcome.ok)

    def disagreements(self, passes=None):
        return sum(1 for r in self.select(passes=passes) if r.outcome.disagreement)


def kernel_microbench(sf, np):
    """us per sphere_map call per built-in field, us per accepted step."""
    out = {}
    points = {
        "power1d": [1.0],
        "saddle2d": [-0.8, 0.6],
        "spiral2d": [0.6, 0.8],
        "sphere3d": [0.48, 0.64, 0.6],
    }
    for name, y in points.items():
        field = sf.builtin_field(name, None if name == "sphere3d" else workloads.ALPHA)
        smap, y = field.sphere_map, np.array(y)
        n = 20000
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                smap(y)
            samples.append((time.perf_counter() - t0) / n)
        out[f"fields.sphere_map_us.{name}"] = (1e6 * statistics.median(samples), "us")
    field = sf.builtin_field("saddle2d", workloads.ALPHA)
    y0 = np.array([-1.0, 0.7]) / np.hypot(1.0, 0.7)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        rt = sf.renorm_integrate(field, y0, 0.0, 512.0)
        samples.append((time.perf_counter() - t0) / (len(rt.s) - 1))
    out["integrators.us_per_step"] = (1e6 * statistics.median(samples), "us")
    return out


def print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}{'  ' + note if note else ''}")


def median_of(records):
    return statistics.median(r.seconds for r in records) if records else 0.0


def workload_metrics(workload, runner, passes):
    """End-to-end metrics that exist on one workload only, for printing."""
    out = {}
    if workload == "classify-basin":
        recs = runner.select(passes=passes)
        out["verdicts_per_s"] = (len(recs) / sum(r.seconds for r in recs), "1/s", "")
        for group in ("fixed_point", "limit_cycle"):
            rs = runner.select(group, passes)
            out[f"verdict_p50_ms.{group}"] = (1e3 * median_of(rs), "ms", f"n={len(rs)}")
    else:
        groups = ("trap", "expel") if workload == "sweep-ray" else ("cycle",)
        for group in groups:
            rs = runner.select(group, passes)
            out[f"sweep_s.{group}"] = (median_of(rs), "s", f"median, n={len(rs)}")
    out["failed_frac"] = (runner.failed / runner.attempted, "ratio",
                          f"{runner.failed}/{runner.attempted}")
    out["continuation.verdict_disagreements"] = (
        runner.disagreements(passes), "count", "library sweep verdict vs oracle")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "singularflow" / "__init__.py").is_file():
        print(f"error: no singularflow package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import importlib

    import numpy as np
    import scipy

    sf = importlib.import_module("singularflow")
    mods = {m: importlib.import_module(f"singularflow.{m}") for m in PACKAGE_MODULES}

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        return measure(args, sf, mods, np, scipy, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, sf, mods, np, scipy, run_dir):
    env = environment(np, scipy)
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))

    # set-up: package import in a fresh interpreter plus input generation,
    # scaled to reference speed like every other time
    setup = []
    for k in range(SETUP_REPEATS):
        ref = reference_seconds(np)
        imported = import_seconds()
        gen_dir = run_dir / f"inputs{k}"
        gen_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](random.Random(args.seed), str(gen_dir))
        raw = imported + time.perf_counter() - t0
        setup.append(raw * REF_NOMINAL_S / (0.5 * (ref + reference_seconds(np))))
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          "closed loop, 1 caller")

    runner = Runner(ops, workloads.Context(mods), run_dir, np)
    if args.trace:
        return traced_run(args, sf, mods, np, runner, setup)

    # whole passes until the one that ends nearest to --seconds, at least three
    start = time.perf_counter()
    while True:
        runner.run_pass()
        elapsed = time.perf_counter() - start
        if (runner.pass_count >= MIN_PASSES
                and elapsed + 0.5 * elapsed / runner.pass_count >= args.seconds):
            break
    runner.scale()
    passes = range(runner.pass_count)
    metrics = {
        "wall_s": (runner.job_seconds(), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    raw = [runner.pass_seconds(i, raw=True) for i in passes]
    print_metric("wall_raw_s", statistics.median(raw), "s",
                 "unscaled; passes " + ", ".join(f"{s:.4f}" for s in raw))
    for name, (value, unit, note) in workload_metrics(args.workload, runner, passes).items():
        print_metric(name, value, unit, note)
    return finish(runner, metrics)


def traced_run(args, sf, mods, np, runner, setup):
    tracer = tracing.Tracer(mods)
    runner.run_paired_passes(tracer)
    runner.scale()
    untraced, traced = runner.pass_seconds(0), runner.pass_seconds(1)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-s{args.seed}.json")

    # layer times are raw wall seconds of the traced pass
    traced_raw = runner.pass_seconds(1, raw=True)
    self_s = tracer.self_times()
    metrics = {f"{layer}.self_s": (v, "s") for layer, v in self_s.items()}
    metrics["unattributed_s"] = (traced_raw - sum(self_s.values()), "s")
    metrics["traced_wall_s"] = (traced_raw, "s")
    metrics["tracing_overhead"] = (traced / untraced, "ratio")
    metrics.update(tracer.layer_metrics())
    metrics["continuation.verdict_disagreements"] = (runner.disagreements(), "count")
    metrics.update(kernel_microbench(sf, np))

    print_metric("wall_s.untraced", untraced, "s")
    print_metric("setup_s", statistics.median(setup), "s")
    for name, (value, unit, note) in workload_metrics(args.workload, runner, [0]).items():
        print_metric(name + ".untraced", value, unit, note)
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    return finish(runner, metrics)


def finish(runner, metrics):
    for op in runner.ops:
        rs = [r for r in runner.records if r.op is op]
        print(f"op {op.label} ({op.group}): "
              + ", ".join(f"{r.seconds:.4f}/{r.raw_s:.4f}" for r in rs) + " s scaled/raw")
    for line in runner.failures:
        print(f"FAILED {line}")
    notes = sorted({f"{r.op.label}: {r.outcome.note}" for r in runner.records
                    if r.outcome.ok and r.outcome.note})
    for line in notes:
        print(f"note {line}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
