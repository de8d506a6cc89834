"""Command-line interface.

Verbs: solve, gen, simulate, bounds, ts, run.  The DBMC_LOG environment
variable (debug/info/warning/error) sets the logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bounds import early_termination_time, optimal_q
from .dynamics import PTGainParams, simulate, step_grid
from .errors import DbmcError, InfeasibleError, SpecError
from .generate import GENERATED_KINDS, GRAPH_KINDS, generate_graph
from .graph import dump_graph, load_graph, solve_shortest_paths
from .harness import (
    SeriesWriter,
    bounds_csv,
    compute_bound_curves,
    feed_blocks,
    make_out_dir,
    plan_scenario,
    run_scenario,
    series_files,
    write_atomic,
)
from .scenario import Scenario, load_scenario, parse_t_end_rule

log = logging.getLogger("dbmc")

# `dbmc gen`'s values of n, rows and cols when no flag gives them; the other
# keys of a kind fall back on their GRAPH_KINDS defaults
GEN_DEFAULTS = {"n": 13, "rows": 3, "cols": 4}


def _configure_logging() -> None:
    level_name = os.environ.get("DBMC_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="disturbance seed override")
    p.add_argument("--q", type=float, default=None, help="free exponent override")
    p.add_argument("--t-end", default=None, help="stop-time override: auto, seconds, or <frac>Ts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbmc",
        description="biased min-consensus shortest paths under a prescribed-time gain",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="shortest paths, parents, diameter, path gap")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("gen", help="generate a benchmark graph")
    p.add_argument("kind", choices=GENERATED_KINDS)
    # a flag per [graph] key of the generated kinds, in table order, left
    # out of the namespace when not given
    keys = {k: t for kind in GENERATED_KINDS for k, (t, _) in GRAPH_KINDS[kind][1].items()}
    for key, convert in keys.items():
        p.add_argument("--" + key.replace("_", "-"), type=convert, default=argparse.SUPPRESS)
    p.add_argument("--out", default=None, help="write here instead of stdout")

    p = sub.add_parser("simulate", help="integrate a scenario; write trajectory CSVs")
    _add_scenario_flags(p)

    p = sub.add_parser("bounds", help="evaluate bound curves on a time grid")
    _add_scenario_flags(p)
    p.add_argument("--points", type=int, default=600, help="grid resolution")

    p = sub.add_parser("ts", help="guaranteed early stop time calculator")
    p.add_argument("--zeta", type=float, required=True, help="path gap")
    p.add_argument("--u-minus", type=float, required=True)
    p.add_argument("--u-plus", type=float, required=True)
    p.add_argument("--diameter", type=int, required=True)
    p.add_argument("--diameter-minus", type=int, default=None)
    p.add_argument("--chi0", type=float, required=True, help="largest initial error")
    p.add_argument("--q", type=float, default=3.0)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument(
        "--gamma", type=float, default=2.0,
        help="gain offset; does not enter the stop-time formula",
    )
    p.add_argument("--sweep-q", action="store_true", help="also minimize over q")

    p = sub.add_parser("run", help="full pipeline: simulate, bound, judge, write artifacts")
    _add_scenario_flags(p)

    return parser


def _cmd_solve(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        g = load_graph(fh.read())
    sol = solve_shortest_paths(g)
    if args.json:
        doc = {
            "p": {str(i): sol.p[i - 1] for i in range(1, g.node_count + 1)},
            "true_parents": {
                str(i): sorted(sol.true_parents[i - 1])
                for i in range(1, g.node_count + 1)
            },
            "effective_diameter": sol.effective_diameter,
            "path_gap": sol.path_gap if math.isfinite(sol.path_gap) else None,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for i in range(1, g.node_count + 1):
        parents = sorted(sol.true_parents[i - 1])
        tag = "source" if i in g.sources else f"p = {sol.p[i - 1]:.10g}, parents = {parents}"
        print(f"node {i}: {tag}")
    gap = f"{sol.path_gap:.10g}" if math.isfinite(sol.path_gap) else "inf"
    print(f"effective diameter = {sol.effective_diameter}")
    print(f"path gap = {gap}")
    return 0


def _cmd_gen(args) -> int:
    given = {k: v for k, v in vars(args).items() if k not in ("verb", "kind", "out")}
    stray = ["--" + k.replace("_", "-") for k in given if k not in GRAPH_KINDS[args.kind][1]]
    if stray:
        raise SpecError(f"graph kind {args.kind!r} does not read {', '.join(stray)}")
    # the kind's keys are flags of the same name
    text = dump_graph(generate_graph({**GEN_DEFAULTS, **given, "kind": args.kind}))
    if args.out:
        write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def _scenario(args) -> Scenario:
    """The scenario file with the values of ``--seed``, ``--q`` and
    ``--t-end`` written in, before any check runs on them."""
    sc = load_scenario(args.scenario)
    t_end_rule = None if args.t_end is None else parse_t_end_rule(args.t_end)
    flags = {"seed": args.seed, "q": args.q, "t_end_rule": t_end_rule}
    return replace(sc, **{k: v for k, v in flags.items() if v is not None})


def _cmd_simulate(args) -> int:
    sc = _scenario(args)
    plan = plan_scenario(sc)
    with SeriesWriter() as series:
        times = np.array(step_grid(sc.params, plan.t_stop)[0])
        traj = simulate(
            plan.g, plan.model, sc.params, plan.x0, plan.t_stop, sol=plan.sol,
            on_block=feed_blocks(series.stream(series_files(times, plan.sol.p))),
        )
        out = make_out_dir(args.out, sc)
        series.commit(out)
        series.wait()
    print(f"wrote {out}/trajectory.csv and errors.csv ({len(traj.times) - 1} steps)")
    return 0


def _cmd_bounds(args) -> int:
    if args.points < 2:
        raise SpecError(f"--points must be at least 2, got {args.points}")
    sc = _scenario(args)
    plan = plan_scenario(sc)
    times = np.linspace(0.0, plan.t_stop, args.points)
    kinds = plan.auto_kinds
    curves = compute_bound_curves(
        plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
        sc.params, times, kinds,
    )
    out = make_out_dir(args.out, sc)
    write_atomic(out / "bounds.csv", bounds_csv(plan.g, times, curves))
    print(f"wrote {out}/bounds.csv ({args.points} grid points, kinds: {', '.join(kinds)})")
    return 0


def _cmd_ts(args) -> int:
    params = PTGainParams(gamma=args.gamma, h=args.h, deadline=args.deadline)
    dm = args.diameter_minus if args.diameter_minus is not None else args.diameter
    try:
        ts = early_termination_time(
            args.zeta, args.u_minus, args.u_plus, args.diameter, dm,
            args.chi0, args.q, params,
        )
    except InfeasibleError as exc:
        print(f"infeasible: {exc}")
        return 1
    print(f"t_s = {ts:.10g}")
    if args.sweep_q:
        q_best, ts_best = optimal_q(
            args.zeta, args.u_minus, args.u_plus, args.diameter, dm, args.chi0, params
        )
        print(f"best q = {q_best:.6g} giving t_s = {ts_best:.10g}")
    return 0


def _cmd_run(args) -> int:
    result = run_scenario(_scenario(args), args.out)
    s = result.summary
    ts_txt = "n/a" if s["t_s_guaranteed"] is None else f"{s['t_s_guaranteed']:.6g}"
    print(
        f"nodes={s['nodes']} gap={s['path_gap']} D={s['effective_diameter']} "
        f"u-={s['u_minus']:.6g} u+={s['u_plus']:.6g} "
        f"t_s={ts_txt} t_end={s['t_end']:.6g} overall={s['overall']}"
    )
    print(f"artifacts in {result.out_dir}")
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a bad command line, but 2 is the exit code of
        # a failed identification; --help exits 0
        return 1 if exc.code else 0
    handlers = {
        "solve": _cmd_solve,
        "gen": _cmd_gen,
        "simulate": _cmd_simulate,
        "bounds": _cmd_bounds,
        "ts": _cmd_ts,
        "run": _cmd_run,
    }
    try:
        return handlers[args.verb](args)
    except DbmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
