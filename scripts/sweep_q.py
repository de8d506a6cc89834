#!/usr/bin/env python3
"""Tabulate the guaranteed stop time of the 13-node benchmark against q.

The free exponent q trades the geometric prefactor against the decay power;
the table shows the resulting stop time with the inputs of
scenarios/case_study_3pct.ini and marks the grid minimum next to the
refined optimum.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dbmc import early_termination_time, load_scenario, optimal_q  # noqa: E402
from dbmc.harness import plan_scenario  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    sc = load_scenario(str(ROOT / "scenarios" / "case_study_3pct.ini"))
    plan = plan_scenario(sc)
    params, sol, model = sc.params, plan.sol, plan.model
    args = (
        sol.path_gap, model.u_minus, model.u_plus,
        sol.effective_diameter, plan.sol_minus.effective_diameter, plan.chi0,
    )

    print(f"{'q':>6}  {'stop time':>10}")
    grid = np.concatenate([np.linspace(1.2, 4.0, 15), [5.0, 8.0, 12.0]])
    best_on_grid = min(grid, key=lambda q: early_termination_time(*args, float(q), params))
    for q in grid:
        ts = early_termination_time(*args, float(q), params)
        mark = "  <- grid minimum" if q == best_on_grid else ""
        print(f"{q:6.2f}  {ts:10.6f}{mark}")

    q_star, ts_star = optimal_q(*args, params)
    print(f"\nrefined optimum: q = {q_star:.4f} giving stop time {ts_star:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
