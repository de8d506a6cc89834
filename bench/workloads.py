"""Workloads of the dbmc benchmark and the checks run on their outputs.

A workload is built once from the base seed (its set-up) and is then run
in closed-loop passes: one client runs its items back to back, and each
item is checked as soon as it finishes.  Library calls go through the
``dbmc.harness`` and ``dbmc.cli`` module namespaces, which are the names
``run_scenario`` itself resolves, so that a traced run can time every
workload by replacing those names (see ``tracing.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dbmc import cli, harness
from dbmc.disturbance import DisturbanceSpec
from dbmc.dynamics import PTGainParams
from dbmc.errors import DbmcError, InfeasibleError
from dbmc.termination import VERDICT_CORRECT, VERDICT_SOURCE

# The gain, initial value and q of both shipped case-study scenarios.
PARAMS = PTGainParams(gamma=2.0, h=12.0, deadline=5.0)
X0 = 12.0
Q = 3.0
NONNEG_FLOOR = -1e-6  # acceptance criterion 4
CASE_3PCT = "case_study_3pct"
CASE_3PCT_TS = 3.1445  # acceptance criterion 1: the paper's reference stop time
CASE_3PCT_TOL = 5e-4

# Seed-sweep disturbances, cycled per item.  Both branches of sample_all
# (sinusoid and piecewise carrier) run in every pass; the proportional
# kind is nonnegative, so criterion 4 applies to it.
SWEEP_DISTURBANCES = (
    DisturbanceSpec(kind="sinusoid", amplitude=0.03),
    DisturbanceSpec(kind="sinusoid", amplitude=0.4),
    DisturbanceSpec(kind="piecewise", amplitude=0.03),
    DisturbanceSpec(
        kind="proportional", alpha_lower=0.0, alpha_upper=0.4, carrier="piecewise"
    ),
)
SWEEP_ITEMS = 24
SMOKE_SWEEP_ITEMS = len(SWEEP_DISTURBANCES)

# extra_edge_prob 0.012 gives effective diameter 5 on every seed tried
# (0..29); at 0.01 about one seed in eight gets diameter 6, which moves
# t_s and the step count by 13% and would swamp the timing bounds.
LARGE_GRAPH = (1000, 0.012)
SMOKE_LARGE_GRAPH = (50, 0.1)


@dataclass
class Item:
    """Outcome of one item.

    ``failures`` is empty when every output check passed.  ``judged`` counts
    non-source verdicts given at a guaranteed stop time and ``correct`` the
    correct ones among them.
    """

    name: str
    failures: list[str]
    steps: int = 0
    judged: int = 0
    correct: int = 0


@dataclass
class Workload:
    name: str
    items: list[tuple[str, Callable[[], Item]]]
    work_dir: Path | None = None  # artifacts written by the items, if any


def attempt(name: str, run: Callable[[], Item]) -> Item:
    """Run one item; a library error fails it instead of stopping the pass."""
    try:
        return run()
    except DbmcError as exc:
        return Item(name, [f"{type(exc).__name__}: {exc}"])


def identification_failures(guaranteed: bool, overall: bool) -> list[str]:
    if guaranteed and not overall:
        return ["a parent is not a true parent at the guaranteed t_s"]
    return []


def nonnegative_failures(spec: DisturbanceSpec, min_error: float) -> list[str]:
    if spec.kind == "proportional" and spec.alpha_lower == 0.0 and min_error < NONNEG_FLOOR:
        return [f"error {min_error:.3e} below {NONNEG_FLOOR} under a nonnegative disturbance"]
    return []


def case_study_failures(
    scenario: str, exit_code: int, t_s: float | None, guaranteed: bool, overall: bool
) -> list[str]:
    if exit_code != 0:
        return [f"dbmc run exited with code {exit_code}"]
    failures = identification_failures(guaranteed, overall)
    if scenario == CASE_3PCT and (t_s is None or abs(t_s - CASE_3PCT_TS) > CASE_3PCT_TOL):
        failures.append(f"t_s_guaranteed {t_s} is not within {CASE_3PCT_TOL} of {CASE_3PCT_TS}")
    return failures


def run_case_study(scenario: Path, seed: int, out: Path) -> Item:
    """`dbmc run` in-process, then the checks on the artifacts it wrote."""
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(
            ["run", "--scenario", str(scenario), "--seed", str(seed), "--out", str(out)]
        )
    if code != 0:
        return Item(scenario.stem, case_study_failures(scenario.stem, code, None, False, False))
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    nodes = json.loads((out / "termination.json").read_text(encoding="utf-8"))["nodes"]
    t_s = summary["t_s_guaranteed"]
    guaranteed = t_s is not None and summary["t_end"] == t_s
    verdicts = [v["verdict"] for v in nodes.values() if v["verdict"] != VERDICT_SOURCE]
    return Item(
        scenario.stem,
        case_study_failures(scenario.stem, code, t_s, guaranteed, summary["overall"]),
        steps=summary["steps"],
        judged=len(verdicts) if guaranteed else 0,
        correct=verdicts.count(VERDICT_CORRECT) if guaranteed else 0,
    )


def run_pipeline(name: str, graph_spec: dict, spec: DisturbanceSpec, seed: int) -> Item:
    """Generate, solve, simulate to t_s (or 0.98 deadline), bound, check, judge.

    Mirrors ``run_scenario`` without the artifact writers.
    """
    g = harness.generate_graph(graph_spec)
    sol = harness.solve_shortest_paths(g)
    model = harness.build_model(spec, g, seed, horizon=PARAMS.deadline)
    sol_minus = harness.solve_shortest_paths(harness.minus_graph(g, model.edge_lower))
    x0 = np.full(g.node_count, X0)
    x0[[s - 1 for s in g.sources]] = 0.0
    chi0 = float(max(x0[i - 1] - sol.p[i - 1] for i in g.non_sources))

    guaranteed, t_stop = False, 0.98 * PARAMS.deadline
    if math.isfinite(sol.path_gap):
        try:
            t_s = harness.early_termination_time(
                sol.path_gap, model.u_minus, model.u_plus,
                sol.effective_diameter, sol_minus.effective_diameter, chi0, Q, PARAMS,
            )
            guaranteed, t_stop = True, max(t_s, 1e-6 * PARAMS.deadline)
        except InfeasibleError:
            pass

    traj = harness.simulate(g, model, PARAMS, x0, t_stop, sol=sol)
    kinds = harness.BOUND_KINDS
    if not all(f < 1.0 for f in model.proportional_fractions):
        kinds = ("chain", "uniform", "envelope")
    curves = harness.compute_bound_curves(
        g, sol, sol_minus, model, x0, Q, chi0, PARAMS, traj.times, kinds
    )
    harness.check_brackets(g, traj, curves)
    report = harness.build_report(g, sol, model, traj.final_states, t_stop)

    verdicts = [report.verdicts[i] for i in g.non_sources]
    return Item(
        name,
        identification_failures(guaranteed, report.overall)
        + nonnegative_failures(spec, float(traj.errors.min())),
        steps=len(traj.times) - 1,
        judged=len(verdicts) if guaranteed else 0,
        correct=verdicts.count(VERDICT_CORRECT) if guaranteed else 0,
    )


def case_studies(root: Path, seed: int, smoke: bool, work_dir: Path) -> Workload:
    scenarios = [root / "scenarios" / f"{stem}.ini" for stem in (CASE_3PCT, "case_study_40pct")]
    items = [
        (path.stem, lambda path=path: run_case_study(path, seed, work_dir / path.stem))
        for path in scenarios
    ]
    return Workload("case-studies", items, work_dir)


def seed_sweep(root: Path, seed: int, smoke: bool, work_dir: Path) -> Workload:
    items = []
    for k in range(SMOKE_SWEEP_ITEMS if smoke else SWEEP_ITEMS):
        name = f"sweep-{k}"
        graph = {"kind": "hop-random", "n": 5 + k % 9, "extra_edge_prob": 0.25, "seed": seed + k}
        spec = SWEEP_DISTURBANCES[k % len(SWEEP_DISTURBANCES)]
        items.append((name, lambda a=(name, graph, spec, seed + k): run_pipeline(*a)))
    return Workload("seed-sweep", items)


def large_graph(root: Path, seed: int, smoke: bool, work_dir: Path) -> Workload:
    n, prob = SMOKE_LARGE_GRAPH if smoke else LARGE_GRAPH
    graph = {"kind": "hop-random", "n": n, "extra_edge_prob": prob, "seed": seed}
    spec = DisturbanceSpec(kind="sinusoid", amplitude=0.03)
    return Workload(
        "large-graph", [("large-graph", lambda: run_pipeline("large-graph", graph, spec, seed))]
    )


WORKLOADS = {"case-studies": case_studies, "seed-sweep": seed_sweep, "large-graph": large_graph}
