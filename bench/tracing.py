"""Per-layer tracing for the dbmc benchmark.

A traced pass replaces, for its duration only, the library functions the
benchmark's items reach, with wrappers that record one span per call:
name, start, end, parent span and item.  The names replaced are those
``run_scenario`` and ``cli.main`` resolve from their own module
namespaces, so the same wrappers time the in-process `dbmc run` and the
workloads that call the library directly.  ``DisturbanceModel.sample_all``
runs up to hundreds of thousands of times per pass, so it is aggregated
into a count and a total time, split by whether a ``simulate`` span is
open.  Untraced passes install nothing.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from dbmc import cli, harness
from dbmc.disturbance import DisturbanceModel


def _steps(tr, args, result):
    tr.steps += len(result.times) - 1


def _values(tr, args, result):
    tr.values += sum(lower.size for lower, _ in result.values())


def _slack(tr, args, result):
    g, traj, curves = args[:3]
    err = traj.errors[:, [i - 1 for i in g.non_sources]]
    for lower, upper in curves.values():
        tr.slack = min(tr.slack, float(np.min(err - lower)), float(np.min(upper - err)))


def _bytes(tr, args, result):
    tr.bytes_written += os.path.getsize(args[0])


# harness-namespace names, each with the hook that reads a count off the
# call once its span has closed.
HARNESS_CALLS = {
    "generate_graph": None,
    "solve_shortest_paths": None,
    "minus_graph": None,
    "build_model": None,
    "early_termination_time": None,
    "simulate": _steps,
    "compute_bound_curves": _values,
    "check_brackets": _slack,
    "build_report": None,
    "trajectory_csv": None,
    "errors_csv": None,
    "bounds_csv": None,
    "focus_csv": None,
    "write_atomic": _bytes,
}
CLI_CALLS = ("main", "load_scenario", "run_scenario")

# Counts that must repeat exactly from pass to pass and run to run.
EXACT_COUNTS = (
    "dynamics.steps",
    "disturbance.sample_calls",
    "bounds.values",
    "harness.bytes_written",
)

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("generate.busy_s", "s"),
    ("graph.busy_s", "s"),
    ("disturbance.build_s", "s"),
    ("disturbance.sample_calls", "count"),
    ("disturbance.sample_s", "s"),
    ("disturbance.ns_per_edge_sample", "ns"),
    ("dynamics.steps", "count"),
    ("dynamics.rhs_per_step", "ratio"),
    ("dynamics.busy_s", "s"),
    ("dynamics.self_s", "s"),
    ("dynamics.us_per_step", "us"),
    ("bounds.busy_s", "s"),
    ("bounds.values", "count"),
    ("termination.busy_s", "s"),
    ("termination.correct_ratio", "ratio"),
    ("harness.check_s", "s"),
    ("harness.bracket_slack_min", "weight"),
    ("harness.bounds_csv_s", "s"),
    ("harness.trajectory_csv_s", "s"),
    ("harness.errors_csv_s", "s"),
    ("harness.focus_csv_s", "s"),
    ("harness.write_atomic_s", "s"),
    ("harness.bytes_written", "count"),
    ("harness.self_s", "s"),
    ("scenario.load_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Spans and counters of one pass; ``reset`` starts the next pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        # span: [name, start, end, parent index, item, time of hooks run under it]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.item: str | None = None
        self.sample_calls = [0, 0]  # [outside simulate, inside simulate]
        self.sample_s = [0.0, 0.0]
        self.edge_samples = 0
        self.steps = 0
        self.values = 0
        self.bytes_written = 0
        self.slack = math.inf

    def wrap(self, fn, hook=None):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.item, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.open[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
                self.open[name] -= 1
            if hook is not None:
                t0 = perf_counter()
                hook(self, args, result)
                if self.stack:  # keep the hook's time out of its caller's self time
                    self.spans[self.stack[-1]][5] += perf_counter() - t0
            return result

        return traced

    def wrap_sample(self, fn):
        @functools.wraps(fn)
        def sample_all(model, t):
            t0 = perf_counter()
            out = fn(model, t)
            dt = perf_counter() - t0
            inside = 1 if self.open["dynamics.simulate"] else 0
            self.sample_calls[inside] += 1
            self.sample_s[inside] += dt
            self.edge_samples += out.shape[0]
            return out

        return sample_all


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace the traced names with ``tracer``'s wrappers; restore on exit."""
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for attr, hook in HARNESS_CALLS.items():
        patch(harness, attr, tracer.wrap(getattr(harness, attr), hook))
    for attr in CLI_CALLS:
        patch(cli, attr, tracer.wrap(getattr(cli, attr)))
    patch(DisturbanceModel, "sample_all", tracer.wrap_sample(DisturbanceModel.sample_all))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tr: Tracer, judged: int, correct: int) -> dict[str, float]:
    """Per-layer metrics of the pass recorded in ``tr``.

    A span's self time is its duration minus its child spans and the hooks
    run under it.  ``trace.overhead_ratio`` needs untraced passes and is
    filled in by the caller.
    """
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    children = [0.0] * len(tr.spans)
    for name, start, end, parent, _, _ in tr.spans:
        if parent is not None:
            children[parent] += end - start
    for k, (name, start, end, _, _, hooks) in enumerate(tr.spans):
        busy[name] += end - start
        own[name] += end - start - children[k] - hooks

    calls_in = tr.sample_calls[1]
    sample_s = sum(tr.sample_s)
    steps = tr.steps
    dyn_self = busy["dynamics.simulate"] - tr.sample_s[1]
    return {
        "generate.busy_s": busy["generate.generate_graph"],
        "graph.busy_s": busy["graph.solve_shortest_paths"] + busy["graph.minus_graph"],
        "disturbance.build_s": busy["disturbance.build_model"],
        "disturbance.sample_calls": sum(tr.sample_calls),
        "disturbance.sample_s": sample_s,
        "disturbance.ns_per_edge_sample": 1e9 * sample_s / max(tr.edge_samples, 1),
        "dynamics.steps": steps,
        "dynamics.rhs_per_step": calls_in / max(steps, 1),
        "dynamics.busy_s": busy["dynamics.simulate"],
        "dynamics.self_s": dyn_self,
        "dynamics.us_per_step": 1e6 * dyn_self / max(steps, 1),
        "bounds.busy_s": busy["harness.compute_bound_curves"]
        + busy["bounds.early_termination_time"],
        "bounds.values": tr.values,
        "termination.busy_s": busy["termination.build_report"],
        "termination.correct_ratio": correct / judged if judged else 0.0,
        "harness.check_s": busy["harness.check_brackets"],
        "harness.bracket_slack_min": tr.slack,
        "harness.bounds_csv_s": busy["harness.bounds_csv"],
        "harness.trajectory_csv_s": busy["harness.trajectory_csv"],
        "harness.errors_csv_s": busy["harness.errors_csv"],
        "harness.focus_csv_s": busy["harness.focus_csv"],
        "harness.write_atomic_s": busy["harness.write_atomic"],
        "harness.bytes_written": tr.bytes_written,
        "harness.self_s": own["harness.run_scenario"],
        "scenario.load_s": busy["scenario.load_scenario"],
        "cli.self_s": own["cli.main"],
    }
