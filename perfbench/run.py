"""cptsim benchmark: one workload in this process, outputs checked, metrics printed.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,cli,driven} --seed N \\
        --seconds S --trace {0,1}

A run first times set-up (import plus first model assembly) in fresh child
processes, then repeats passes of the workload until S seconds have gone
by, with at least two passes so that their artifacts can be compared byte
for byte.  Every pass is checked; a pass that raises, exits non-zero,
fails an output check or writes different bytes counts as failed.

With --trace 0 the passes run untraced and the end-to-end metrics are
printed.  Pass times are reported in units of a fixed reference loop timed
during each pass (see reference.py), because raw seconds on a shared host
swing with the neighbours' load; the raw seconds are printed and kept in
the result file as well.  With --trace 1 untraced and traced passes
alternate, and the per-layer metrics, in seconds per pass, come from the
traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count passes.  The
environment, layer shares and kernel operation counts go to a result file
under .bench_build/perfbench/, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# One BLAS thread: the kernels are small matvecs, and a single thread keeps
# the load inside this one process.  Set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

MIN_PASSES = 2
REFERENCE_SPAN = "reference"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60

# Layer boundaries: (binding the callers use, span name).  Each layer is
# hooked in every module that calls it.
INTEGRATORS = [
    ("cptsim.sim.integrate", "sim.integrate"),
    ("cptsim.cli.integrate", "sim.integrate"),
    ("cptsim.sim.integrate_driven", "sim.integrate_driven"),
    ("cptsim.cli.integrate_driven", "sim.integrate_driven"),
]
LAYERS = [
    ("cptsim.cli.parse_config", "cli.parse_config"),
    ("cptsim.cli.run", "cli.run"),
    ("cptsim.cli.build_two_scale", "models.build"),
    ("cptsim.cli.build_three_scale", "models.build"),
    ("cptsim.sim.build_two_scale", "models.build"),
    ("cptsim.sim.build_three_scale", "models.build"),
    ("cptsim.sim.liouvillian", "models.liouvillian"),
    ("cptsim.cli.reduce_model", "reduction.reduce_model"),
    ("cptsim.sim.reduce_model", "reduction.reduce_model"),
    ("cptsim.sim.rk4_superop", "kernels.static"),
    ("cptsim.sim.rk4_superop_driven", "kernels.driven"),
    ("cptsim.cli.validate_density", "linalg.validate_density"),
    ("cptsim.sim.validate_density", "linalg.validate_density"),
    ("cptsim.cli.compare_full_vs_slow", "sim.compare_full_vs_slow"),
    ("cptsim.sim.compare_full_vs_slow", "sim.compare_full_vs_slow"),
    ("cptsim.cli.epsilon_sweep", "sim.epsilon_sweep"),
    ("cptsim.cli.rwa_comparison", "sim.rwa_comparison"),
    ("cptsim.tikhonov.integrate_full", "tikhonov.integrate_full"),
]


class Call(NamedTuple):
    name: str
    dim: int
    steps: int
    samples: int
    renorm: int


class Counts:
    """Steps and samples per integrator call, read from the returned Trajectory."""

    def __init__(self):
        self.calls: list[Call] = []

    def record(self, name: str, traj):
        self.calls.append(
            Call(name, traj.states.shape[1], traj.meta["n_steps"], len(traj.times), traj.meta["n_renorm"])
        )

    def total(self, field: str, name: str | None = None) -> int:
        return sum(getattr(c, field) for c in self.calls if name is None or c.name == name)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="cptsim benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(model: dict) -> list[float]:
    """Import plus first model assembly, timed in fresh child processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = workloads.setup_code(model)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_pass(cli_main, workload, outdir: Path, tracer: spans.Tracer):
    """One pass of every job; returns its start and end times and the problems found."""
    problems = []
    sink = io.StringIO()
    start = time.perf_counter()
    with tracer.span("pass"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for experiment, config in workload.jobs:
            try:
                code = cli_main([experiment, "--config", str(config), "--out", str(outdir / experiment)])
            except Exception:  # a crash is a failed pass, not a failed benchmark
                code = traceback.format_exc(limit=-3)
            if code != 0:
                problems.append(f"{experiment}: exit {code}")
    end = time.perf_counter()
    if problems:
        problems.append(sink.getvalue().strip()[-2000:])
    return start, end, problems


def artifact_digest(outdir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file() and (p.suffix == ".csv" or p.name == "summary.txt")
    }


def artifact_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def environment(args, backend: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "backend": backend,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(setup_times: list[float], passes: list[tuple[bool, float, float]],
               counts: Counts, ref: reference.Reference) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, plus the same in raw seconds."""
    n = len(passes)
    steps = counts.total("steps") / n
    samples = counts.total("samples") / n
    wall_s = statistics.median(p[1] for p in passes)
    wall_ref = statistics.median(p[2] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref": (wall_ref, "ref"),
        "steps_per_ref": (steps / wall_ref, "1/ref"),
        "samples_per_ref": (samples / wall_ref, "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    raw = {
        "wall_s": wall_s,
        "steps_per_s": steps / wall_s,
        "samples_per_s": samples / wall_s,
        "reference_loop_s": statistics.median(d for _, d in ref.samples),
    }
    return metrics, raw


def layer_metrics(spans_per_pass: list[list], counts: Counts, n_passes: int, bytes_written: int,
                  overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics averaged over traced passes, plus kernel op counts by dimension."""
    times: dict[str, dict] = {}
    for pass_spans in spans_per_pass:
        for name, entry in spans.layer_times(pass_spans, excluded=REFERENCE_SPAN).items():
            agg = times.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += entry[key]

    def per_pass(name: str, key: str) -> float:
        return times.get(name, {}).get(key, 0) / n_passes

    # Computed, not measured: a d^2 x d^2 complex matvec is 8 d^4 real flops
    # and reads 16 d^4 bytes of generator; RK4 has 4 stages and the driven
    # kernel does two matvecs per stage.
    ops: dict[str, dict] = {}
    for call in counts.calls:
        kind = "static" if call.name == "sim.integrate" else "driven"
        matvecs = 4 * call.steps * (1 if kind == "static" else 2)
        entry = ops.setdefault(f"{kind}.d{call.dim}", {"steps": 0, "flops": 0, "bytes": 0})
        entry["steps"] += call.steps
        entry["flops"] += 8 * call.dim**4 * matvecs
        entry["bytes"] += 16 * call.dim**4 * matvecs
    ops = {k: {key: v // n_passes for key, v in entry.items()} for k, entry in ops.items()}

    def kernel_total(kind: str, key: str) -> int:
        return sum(v[key] for k, v in ops.items() if k.startswith(kind + "."))

    static_steps = counts.total("steps", "sim.integrate") / n_passes
    driven_steps = counts.total("steps", "sim.integrate_driven") / n_passes
    steps = static_steps + driven_steps
    samples = counts.total("samples") / n_passes
    static_s = per_pass("kernels.static", "total_s")
    driven_s = per_pass("kernels.driven", "total_s")
    metrics = {
        "cli.parse_config_s": (per_pass("cli.parse_config", "total_s"), "s"),
        "cli.run_self_s": (per_pass("cli.run", "self_s"), "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "models.build_s": (per_pass("models.build", "total_s"), "s"),
        "models.build_calls": (per_pass("models.build", "calls"), "count"),
        "models.liouvillian_s": (per_pass("models.liouvillian", "total_s"), "s"),
        "models.liouvillian_calls": (per_pass("models.liouvillian", "calls"), "count"),
        "reduction.reduce_model_s": (per_pass("reduction.reduce_model", "total_s"), "s"),
        "reduction.reduce_model_calls": (per_pass("reduction.reduce_model", "calls"), "count"),
        "kernels.static_s": (static_s, "s"),
        "kernels.static_steps": (static_steps, "count"),
        "kernels.static_us_per_step": (1e6 * static_s / static_steps if static_steps else 0.0, "us"),
        "kernels.static_flops_computed": (kernel_total("static", "flops"), "flop"),
        "kernels.static_bytes_computed": (kernel_total("static", "bytes"), "B"),
        "kernels.driven_s": (driven_s, "s"),
        "kernels.driven_steps": (driven_steps, "count"),
        "kernels.driven_us_per_step": (1e6 * driven_s / driven_steps if driven_steps else 0.0, "us"),
        "kernels.driven_flops_computed": (kernel_total("driven", "flops"), "flop"),
        "kernels.driven_bytes_computed": (kernel_total("driven", "bytes"), "B"),
        "kernels.renorm_per_step": (counts.total("renorm") / n_passes / steps if steps else 0.0, "1/step"),
        "linalg.validate_density_s": (per_pass("linalg.validate_density", "total_s"), "s"),
        "linalg.validate_density_calls": (per_pass("linalg.validate_density", "calls"), "count"),
        "sim.integrate_self_s": (
            per_pass("sim.integrate", "self_s") + per_pass("sim.integrate_driven", "self_s"), "s"
        ),
        "sim.compare_self_s": (per_pass("sim.compare_full_vs_slow", "self_s"), "s"),
        "sim.epsilon_sweep_self_s": (per_pass("sim.epsilon_sweep", "self_s"), "s"),
        "sim.rwa_comparison_self_s": (per_pass("sim.rwa_comparison", "self_s"), "s"),
        "sim.samples": (samples, "count"),
        "sim.steps_per_sample": (steps / samples if samples else 0.0, "step/sample"),
        "tikhonov.integrate_full_s": (per_pass("tikhonov.integrate_full", "total_s"), "s"),
        "tikhonov.integrate_full_calls": (per_pass("tikhonov.integrate_full", "calls"), "count"),
        "trace_overhead_frac": (overhead, "frac"),
    }
    pass_s = per_pass("pass", "total_s")
    shares = {
        name: {"total": entry["total_s"] / n_passes / pass_s, "self": entry["self_s"] / n_passes / pass_s}
        for name, entry in sorted(times.items())
    }
    return metrics, {"shares_of_traced_pass": shares, "kernel_ops_computed": ops}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cptsim" / "__init__.py").is_file():
        print(f"error: cptsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK_ROOT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "configs").mkdir(parents=True)
    workload = workloads.build(args.workload, ROOT, workdir / "configs", args.seed)

    setup_times = measure_setup(workload.setup_model)

    import cptsim
    import cptsim.cli

    env = environment(args, cptsim.backend_name())
    outdir = workdir / "out"
    ref = reference.Reference()
    problems: list[str] = []
    passes: list[tuple[bool, float, float]] = []  # (traced, seconds, ref units) of passes that held
    counts = Counts()  # of the passes the metrics come from
    traced_spans: list[list] = []
    absent: list[str] = []
    first_digest = None
    attempted = failed = 0
    started = time.perf_counter()
    while attempted < MIN_PASSES or time.perf_counter() - started < args.seconds:
        traced = bool(args.trace) and attempted % 2 == 1
        tracer = spans.Tracer()
        pass_counts = Counts()
        for target, name in INTEGRATORS:
            tracer.hook(target, name, pass_counts.record)
        if traced:
            for target, name in LAYERS:
                tracer.hook(target, name)
        try:
            with ref.sampling(lambda: tracer.span(REFERENCE_SPAN)):
                start, end, pass_problems = run_pass(cptsim.cli.main, workload, outdir, tracer)
        finally:
            tracer.restore()
        wall_ref = ref.normalize(start, end)
        attempted += 1
        if not pass_problems:
            digest = artifact_digest(outdir)
            first_digest = first_digest or digest
            if digest != first_digest:
                pass_problems.append("artifacts differ from the first pass")
            pass_problems.extend(workload.check(outdir))
        if pass_problems:
            failed += 1
            problems.extend(f"pass {attempted}: {p}" for p in pass_problems)
            continue
        passes.append((traced, end - start, wall_ref))
        if traced == bool(args.trace):
            counts.calls.extend(pass_counts.calls)
        if traced:
            traced_spans.append(tracer.spans)
            absent = tracer.absent

    untraced = [p for p in passes if not p[0]]
    result: dict = {
        "environment": env,
        "setup_s": setup_times,
        "passes": [{"traced": t, "wall_s": w, "wall_ref": r} for t, w, r in passes],
        "reference_loop_s": [d for _, d in ref.samples],
        "problems": problems,
    }
    metrics: dict = {}
    if not args.trace and untraced:
        metrics, raw = end_to_end(setup_times, untraced, counts, ref)
        result["raw_seconds"] = raw
        print("raw seconds (host-dependent): " + json.dumps(raw))
    elif args.trace and traced_spans and untraced:
        # Adjacent passes see nearly the same host speed, so compare them in pairs.
        ratios = [b[2] / a[2] for a, b in zip(passes, passes[1:]) if b[0] and not a[0]]
        if not ratios:  # a failed pass broke every pair
            ratios = [statistics.median(p[2] for p in passes if p[0]) / statistics.median(p[2] for p in untraced)]
        overhead = statistics.median(ratios) - 1.0
        metrics, detail = layer_metrics(
            traced_spans, counts, len(traced_spans), artifact_bytes(outdir), overhead
        )
        detail["absent_hooks"] = absent
        result.update(detail)
        workdir.with_name(tag + "-spans.json").write_text(
            json.dumps({"passes": traced_spans}), encoding="utf-8"
        )
        for name, share in detail["shares_of_traced_pass"].items():
            print(f"share {name}: total {share['total']:.1%}, self {share['self']:.1%}")
        if absent:
            print("absent hooks: " + ", ".join(absent))

    correct = failed == 0 and bool(metrics)
    printed = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    result.update(correct=correct, attempted=attempted, failed=failed, metrics=printed)
    workdir.with_name(tag + ".json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print("environment: " + json.dumps(env))
    for problem in problems:
        print("problem: " + problem)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": printed}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
