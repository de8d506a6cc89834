"""End-to-end acceptance checks, one per stated criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion.  Each check pins its tolerance and runtime budget explicitly.
"""

import math
import time

import numpy as np

from dbmc import (
    DisturbanceSpec,
    PTGainParams,
    build_model,
    build_report,
    early_termination_time,
    hop_random_graph,
    load_graph,
    minus_graph,
    power_law_envelope,
    simulate,
    solve_shortest_paths,
    standin13,
)
from dbmc.bounds import nominal_envelopes
from dbmc.harness import BOUND_KINDS, compute_bound_curves, resolve_chi0

from helpers import (
    brute_force_distances,
    brute_force_parents,
    constant_initial,
    random_weighted_graph,
)

PARAMS = PTGainParams(gamma=2.0, h=12.0, deadline=5.0)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_guaranteed_stop_time_reproduction():
    early_termination_time(1.0, 0.03, 0.03, 13, 13, 12.0, 3.0, PARAMS)  # warm-up
    t0 = time.perf_counter()
    ts = early_termination_time(1.0, 0.03, 0.03, 13, 13, 12.0, 3.0, PARAMS)
    elapsed = time.perf_counter() - t0
    ok = abs(ts - 3.1445) <= 5e-4 and elapsed < 1e-3
    _verdict(1, "stop-time value", ok, f"t_s={ts:.6f}, elapsed={elapsed * 1e3:.3f} ms")


def test_criterion_2_closed_form_ode_oracle():
    g = load_graph("nodes 2\nsources 1\n2 1 1.0\n")
    model = build_model(DisturbanceSpec(kind="zero"), g, 0, 5.0)
    t0 = time.perf_counter()
    traj = simulate(g, model, PARAMS, [0.0, 12.0], 4.0)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for target in (1.0, 2.5, 4.0):
        k = int(np.argmin(np.abs(traj.times - target)))
        t = traj.times[k]
        exact = 11.0 * math.exp(-2.0 * t) * ((5.0 - t) / 5.0) ** 26
        worst = max(worst, abs(traj.errors[k, 1] - exact) / exact)
    ok = worst <= 1e-6 and elapsed < 1.0
    _verdict(2, "closed-form ODE match", ok,
             f"worst rel err={worst:.3e}, elapsed={elapsed:.2f} s")


def test_criterion_3_bound_validity_suite():
    """Every band ``dbmc run`` emits, as ``compute_bound_curves`` assembles it,
    brackets the simulated errors: chain, proportional, uniform and the
    envelope band that the stop time inverts (q = 3, chi0 the largest
    initial error)."""
    t0 = time.perf_counter()
    tol = 1e-6
    worst = dict.fromkeys(BOUND_KINDS, math.inf)
    runs = 0
    for seed in range(50):
        n = 5 + seed % 9  # node counts 5..13
        g = hop_random_graph(n, 0.25, seed)
        sol = solve_shortest_paths(g)
        x0 = constant_initial(g, 12.0)
        chi0 = resolve_chi0(g, sol, x0, None)
        cols = [i - 1 for i in g.non_sources]
        for amplitude in (0.4, 0.03):
            model = build_model(
                DisturbanceSpec(kind="sinusoid", amplitude=amplitude), g, seed, 5.0
            )
            traj = simulate(g, model, PARAMS, x0, 0.98 * 5.0, sol=sol)
            sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
            curves = compute_bound_curves(
                g, sol, sol_minus, model, x0, 3.0, chi0, PARAMS, traj.times, BOUND_KINDS
            )
            err = traj.errors[:, cols]
            for kind, (lower, upper) in curves.items():
                slack = min(float(np.min(err - lower)), float(np.min(upper - err)))
                worst[kind] = min(worst[kind], slack)
            runs += 1
    elapsed = time.perf_counter() - t0
    worst_slack = min(worst.values())
    checked = all(math.isfinite(value) for value in worst.values())  # every kind ran
    ok = checked and worst_slack >= -tol and elapsed < 120.0
    per_kind = ", ".join(f"{kind} {value:.3e}" for kind, value in worst.items())
    _verdict(3, "bound validity suite", ok,
             f"{runs} runs, worst slack={worst_slack:.3e} ({per_kind}), "
             f"elapsed={elapsed:.1f} s")


def test_criterion_4_nonnegative_disturbances_keep_errors_nonnegative():
    t0 = time.perf_counter()
    worst = math.inf
    for seed in range(50):
        n = 5 + seed % 9
        g = hop_random_graph(n, 0.25, seed + 1000)
        carrier = "sinusoid" if seed % 2 == 0 else "piecewise"
        model = build_model(
            DisturbanceSpec(
                kind="proportional", alpha_lower=0.0, alpha_upper=0.4, carrier=carrier
            ),
            g, seed, 5.0,
        )
        traj = simulate(g, model, PARAMS, constant_initial(g, 12.0), 0.98 * 5.0)
        worst = min(worst, float(traj.errors.min()))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-6
    _verdict(4, "nonnegative-disturbance floor", ok,
             f"min error={worst:.3e}, elapsed={elapsed:.1f} s")


def test_criterion_5_power_law_dominance():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    strict = True
    worst_ratio = math.inf
    for _ in range(1000):
        params = PTGainParams(
            gamma=float(rng.uniform(0.3, 5.0)),
            h=float(rng.uniform(-0.45, 20.0)),
            deadline=float(rng.uniform(0.5, 10.0)),
        )
        ell = int(rng.integers(1, 13))
        q = float(rng.choice([1.5, 2.0, 3.0, 5.0]))
        e0 = np.concatenate(([0.0], rng.uniform(0.05, 12.0, ell)))
        t = float(rng.uniform(1e-9, params.deadline * (1.0 - 1e-9)))
        nominal = nominal_envelopes([e0], params, t)[..., 0]
        relaxed = power_law_envelope(float(e0.max()), ell, q, params, t)
        if nominal > 0.0:
            strict = strict and (relaxed > nominal)
            worst_ratio = min(worst_ratio, relaxed / nominal)
    elapsed = time.perf_counter() - t0
    _verdict(5, "power-law dominance", strict,
             f"1000 draws, min ratio={worst_ratio:.3f}, elapsed={elapsed:.1f} s")


def test_criterion_6_end_to_end_identification():
    t0 = time.perf_counter()
    g = standin13()
    sol = solve_shortest_paths(g)
    x0 = constant_initial(g, 12.0)
    all_ok = True
    ts_used = None
    for seed in range(20):
        model = build_model(
            DisturbanceSpec(kind="sinusoid", amplitude=0.03), g, seed, 5.0
        )
        sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
        ts = early_termination_time(
            sol.path_gap, model.u_minus, model.u_plus,
            sol.effective_diameter, sol_minus.effective_diameter,
            12.0, 3.0, PARAMS,
        )
        ts_used = ts
        traj = simulate(g, model, PARAMS, x0, ts, sol=sol)
        report = build_report(g, sol, model, traj.final_states, ts)
        all_ok = all_ok and report.overall
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 60.0
    _verdict(6, "end-to-end identification", ok,
             f"20 seeds at t_s={ts_used:.4f}, elapsed={elapsed:.1f} s")


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    parents_ok = True
    for seed in range(100):
        g = random_weighted_graph(seed, max_nodes=10)
        sol = solve_shortest_paths(g)
        dist = brute_force_distances(g)
        for i in range(1, g.node_count + 1):
            worst = max(worst, abs(sol.p[i - 1] - dist[i]))
        expected = brute_force_parents(g, dist)
        for i in g.non_sources:
            parents_ok = parents_ok and sol.parents(i) == expected[i]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and parents_ok
    _verdict(7, "shortest-path oracle equivalence", ok,
             f"100 graphs, worst |dp|={worst:.2e}, parents exact={parents_ok}, "
             f"elapsed={elapsed:.1f} s")
