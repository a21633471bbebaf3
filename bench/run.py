"""Benchmark entry point: runs one workload for one seed, untraced or traced.

    python3 bench/run.py --workload train_doprompt --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the only instrumentation is a timer around each call of
``pipeline.train_step`` or ``pipeline.infer`` and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced units of the same seed
alternate, the traced ones with every layer's public functions wrapped, and
the per-layer metrics are reported. Both modes check the program's outputs.
The last line of standard output is one JSON object; the exit code is 0
only if every check passed. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import stats
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train_doprompt", "infer_adapted", "ablate_tiny")
SETUP_REPS = 3
# One BLAS thread per process: the matrices are small (D=64), and ablate_tiny's
# pool runs one worker per core.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="data, model and training seed")
    p.add_argument("--seconds", type=float, required=True, help="minimum measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git without running git, else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, workers: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workers": workers,
    }


def import_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter that imports the program."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import doprompt.cli"
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(src)], check=True)
        times.append(time.perf_counter() - t0)
    return stats.median(times)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


class Checks:
    """Counts attempted and failed timed calls and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, checks):
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"check failed: {name}", file=sys.stderr)


def measure(wl, args, import_s, checks, workloads):
    """Set up, then run units until --seconds have passed; returns (rows, metrics)."""
    spool = wl.workdir / "spool"
    spool.mkdir()
    modules = workloads.program_modules()

    def run_unit(targets):
        unit_tracer = tracer.Tracer(spool)
        unit_tracer.install(modules, targets, wl.entries, workloads.COUNTERS)
        try:
            wall, images, raw = wl.run()
        finally:
            unit_tracer.restore()
        return wall, images, raw, unit_tracer.take()

    setups = []
    setup_tracer = tracer.Tracer(spool)
    for _ in range(SETUP_REPS):
        if args.trace:
            setup_tracer.install(modules, ["datagen.generate_dataset"], (), workloads.COUNTERS)
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            setup_tracer.restore()
        setups.append(time.perf_counter() - t0)
    setup_agg = tracer.aggregate(setup_tracer.take())

    latencies, rates, walls = [], [], []
    layers = workloads.LayerTotals()
    untraced_wall = 0.0
    reference = raw = None
    deadline = time.perf_counter() + args.seconds
    for traced in itertools.cycle([False, True] if args.trace else [False]):
        wall, images, raw, spans = run_unit(workloads.TRACED if traced else [wl.timed])
        timed = [t1 - t0 for _, _, name, t0, t1, _ in spans if name == wl.timed]
        checks.attempted += len(timed)
        if traced:
            layers.add(spans, wall)
        else:
            untraced_wall += wall
            latencies += timed
            rates.append(images / wall)
            walls.append(wall)
        outputs, unit_checks = wl.inspect(raw)
        if reference is None:
            reference = outputs
        else:
            unit_checks.append(("outputs byte-identical to the first (untraced) unit", outputs == reference))
        checks.record(unit_checks)
        # untraced runs repeat the unit at least once, so that determinism is checked
        enough = traced if args.trace else len(latencies) >= wl.min_calls and len(walls) >= 2
        if enough and time.perf_counter() >= deadline:
            break
    checks.record(wl.final_checks(raw))

    if args.trace:
        overhead = layers.wall / untraced_wall - 1.0
        metrics = layers.metrics(setup_agg, wl.workers, wl.timed, overhead)
        iters = layers.agg[wl.timed].calls
        rows = [(name, value, unit, iters) for name, (value, unit) in metrics.items()]
        return rows, metrics

    tail = stats.tail_percentile(len(latencies))
    metrics = {
        "setup_s": (import_s + stats.median(setups), "s"),
        "call_ms_p50": (stats.median(latencies) * 1e3, "ms"),
        "call_ms_p90": (stats.percentile(latencies, 90) * 1e3, "ms"),
        "img_per_s": (stats.median(rates), "images/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    counts = {"setup_s": len(setups), "call_ms_p50": len(latencies), "call_ms_p90": len(latencies),
              "img_per_s": len(rates), "peak_rss_mb": 1}
    rows = [(f"{wl.aliases[k]} ({k})" if k in wl.aliases else k, v, u, counts[k])
            for k, (v, u) in metrics.items()]
    rows.append((wl.unit_name, stats.median(walls), "s", len(walls)))
    rows.append((f"call_ms_p{tail:g} (highest with >=10 beyond)", stats.percentile(latencies, tail) * 1e3,
                 "ms", len(latencies)))
    return rows, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "doprompt" / "__init__.py").is_file():
        print(f"error: program source not found at {src}/doprompt", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import workloads
    import_s = import_seconds(src)

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    checks = Checks()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("# env " + json.dumps(environment(np, wl.workers), sort_keys=True))
    try:
        rows, metrics = measure(wl, args, import_s, checks, workloads)
    except Exception:
        traceback.print_exc()
        print(f"error_rate: a unit of work raised after {checks.attempted} attempts", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    rows.append(("error_rate", checks.failed / checks.attempted, "failed/attempted", checks.attempted))
    for name, value, unit, n in rows:
        print(f"{name:<52} {value:>16.6f} {unit:<16} n={n}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
