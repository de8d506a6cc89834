"""dbmc benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload seed-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # each workload in its own process

Run from any directory; the library is imported from ``src/`` of the
checkout this file lives in.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` items, and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones, measured in
traced passes that follow untraced ones, together with the tracing
overhead.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("case-studies", "seed-sweep", "large-graph")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TRIALS = 6
# Calibrated times are seconds on a host where reference_s() takes this
# long, about its duration on an idle 2-vCPU Intel Xeon.
REF_S = 0.025
MIN_PASSES = 3  # per untraced run; a traced run does 2 untraced + 2 traced
OUT_DIR = ROOT / ".bench_out"


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1, help="base seed of the generated inputs")
    p.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import dbmc from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "dbmc" / "__init__.py").is_file():
        raise BenchError(f"no dbmc package under {src}")
    sys.path.insert(0, str(src))
    import dbmc

    if Path(dbmc.__file__).resolve().parent != (src / "dbmc").resolve():
        raise BenchError(f"dbmc imported from {dbmc.__file__}, not from {src}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
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


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_sha(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


class Clock:
    """Times work and converts it to calibrated seconds.

    Each piece of work is divided by the mean of the reference times taken
    right before and right after it, and multiplied by ``REF_S``.
    """

    def __init__(self) -> None:
        reference_s()  # the first call pays for lazy set-up inside numpy
        self.ref = reference_s()

    def time(self, work):
        """(result, raw seconds, calibrated seconds) of ``work()``."""
        t0 = time.perf_counter()
        result = work()
        raw = time.perf_counter() - t0
        ref_after = reference_s()
        calibrated = raw * REF_S / (0.5 * (self.ref + ref_after))
        self.ref = ref_after
        return result, raw, calibrated


def setup_seconds(args, clock: Clock, trials: int) -> tuple[list[float], list[float]]:
    """Raw and calibrated seconds of fresh processes, from their start to the
    point the first pass would begin."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    raw, calibrated = [], []
    for _ in range(trials):
        _, r, c = clock.time(lambda: subprocess.run(
            cmd, check=True, stdout=subprocess.DEVNULL, env=os.environ.copy()))
        raw.append(r)
        calibrated.append(c)
    return raw, calibrated


def reference_s() -> float:
    """Wall time of one fixed computation that does not touch dbmc.

    On a shared virtual machine the CPU speed can drift by +-20% over
    periods of seconds to minutes, and the process's CPU time drifts with
    it, so raw times spread more between runs than any useful bound.
    ``Clock`` divides each timed piece of work by this reference, timed
    right before and right after it, which cancels most of the drift.  The
    mix follows the library's own work: gathers and scatter-minima on small
    arrays in an interpreter loop, and a sine over an edge-sized array.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.random(64)
    heads = rng.integers(0, 64, 128)
    tails = heads[::-1].copy()
    big = rng.random(16384)
    acc = 0.0
    for k in range(2000):
        best = np.full(64, np.inf)
        np.minimum.at(best, tails, x[heads] + k * 1e-3)
        acc += float(best.min())
        if k % 100 == 0:
            acc += float(np.sin(big * k).sum())
    return time.perf_counter() - t0


def run_passes(workload, clock: Clock, seconds: float, min_passes: int, tracer=None):
    """Closed-loop passes over the workload's items until ``seconds`` is used.

    Returns, per pass, the raw and the calibrated wall time and the items;
    when traced also the per-layer metrics and the spans (each prefixed
    with its pass number).
    """
    import tracing
    from workloads import attempt

    walls, calibrated, passes, layers, spans = [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        items, wall, cal = [], 0.0, 0.0
        if tracer is not None:
            tracer.reset()
        for name, run in workload.items:
            if tracer is not None:
                tracer.item = name
            item, raw, c = clock.time(lambda: attempt(name, run))
            items.append(item)
            wall += raw
            cal += c
        walls.append(wall)
        calibrated.append(cal)
        passes.append(items)
        if tracer is not None:
            layers.append(tracing.layer_metrics(
                tracer, sum(i.judged for i in items), sum(i.correct for i in items)
            ))
            spans.extend([len(walls) - 1] + s for s in tracer.spans)
    return walls, calibrated, passes, layers, spans


def run_workload(args) -> int:
    import_library()
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke, work_dir)
    if args.setup_only:
        return 0
    info = machine_info()
    # Half the set-up trials run before the passes and half after, so that
    # their median spans the run rather than one moment of host speed.
    clock = Clock()
    setup_raw, setup = setup_seconds(args, clock, SETUP_TRIALS // 2)

    problems = []
    try:
        if args.trace:
            walls, cal, passes, _, _ = run_passes(workload, clock, args.seconds / 2, 2)
            with tracing.installed(tracing.Tracer()) as tracer:
                traced_walls, traced_cal, traced, layers, spans = run_passes(
                    workload, clock, args.seconds / 2, 2, tracer
                )
            passes += traced
        else:
            walls, cal, passes, layers, _ = run_passes(workload, clock, args.seconds, MIN_PASSES)
        digests = artifact_digests(workload.work_dir)
        more_raw, more = setup_seconds(args, clock, SETUP_TRIALS - len(setup))
        setup_raw += more_raw
        setup += more
    finally:
        if workload.work_dir is not None:
            shutil.rmtree(workload.work_dir, ignore_errors=True)

    # Every pass runs the same inputs, so what it computes must repeat exactly.
    steps = [sum(i.steps for i in items) for items in passes]
    if len(set(steps)) != 1:
        problems.append(f"dynamics.steps differs between passes: {steps}")
    counts = {"dynamics.steps": steps[0]}
    if args.trace:
        for name in tracing.EXACT_COUNTS:
            seen = [m[name] for m in layers]
            if len(set(seen)) != 1:
                problems.append(f"{name} differs between passes: {seen}")
            counts[name] = seen[0]
    attempted = sum(len(items) for items in passes)
    failed_items = [(k, i) for k, items in enumerate(passes) for i in items if i.failures]
    failed = len(failed_items)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {args.workload}  seed {args.seed}  mode {'traced' if args.trace else 'untraced'}"
          f"{'  smoke' if args.smoke else ''}  items/pass {len(workload.items)}")
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"samples: {SETUP_TRIALS} set-up trials, {len(walls)} untraced passes"
          + (f", {len(traced_walls)} traced passes" if args.trace else ""))
    for label, values, raw in (("setup_s", setup, setup_raw), ("wall_s", cal, walls)):
        med, q1, q3 = spread(values)
        print(f"  {label:<12} {med:.6f} s  (q1 {q1:.6f}, q3 {q3:.6f}, n {len(values)}; "
              f"raw median {statistics.median(raw):.6f} s)")
    print(f"  {'peak_rss_mb':<12} {peak_rss_mb:.3f} MB")
    print(f"  {'failed_ratio':<12} {failed / attempted:.6g} ratio  ({failed}/{attempted} items)")
    print("exact counts per pass " + json.dumps(counts, sort_keys=True))
    for path, digest in digests.items():
        print(f"sha256 {digest}  {path}")
    for k, item in failed_items:
        print(f"FAILED pass {k} item {item.name}: {'; '.join(item.failures)}")
    for problem in problems:
        print(f"FAILED {problem}")

    if args.trace:
        layer = {name: statistics.median(m[name] for m in layers) for name, _ in tracing.LAYER_METRICS[:-1]}
        layer.update(counts)
        layer["trace.overhead_ratio"] = statistics.median(traced_cal) / statistics.median(cal)
        for name, unit in tracing.LAYER_METRICS:
            value = layer[name]
            print(f"  {name:<32} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for row in spans:
                fh.write(json.dumps(dict(zip(
                    ("pass", "name", "start", "end", "parent", "item", "hooks_s"), row))) + "\n")
        print(f"spans written to {spans_file}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(cal), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def artifact_digests(work_dir: Path | None) -> dict[str, str]:
    """SHA-256 of every artifact of the last pass (informational, not a gate)."""
    if work_dir is None or not work_dir.is_dir():
        return {}
    return {
        str(p.relative_to(work_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work_dir.rglob("*")) if p.is_file()
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another; then a summary."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=os.environ.copy())
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    for name, res in results.items():
        cells = "  ".join(f"{m} {v['value']:.6g} {v['unit']}" for m, v in res["metrics"].items())
        print(f"  {name:<13} failed_ratio {res['failed'] / res['attempted']:.6g}  {cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = "1"
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
