import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from dbmc import (
    DisturbanceModel,
    DisturbanceSpec,
    DomainError,
    PTGainParams,
    PreconditionError,
    ValidationError,
    build_model,
    chain_initial_errors,
    load_graph,
    log_integrating_factor,
    line_graph,
    parent_chain,
    simulate,
    solve_shortest_paths,
    standin13,
)

from dbmc import dynamics
from dbmc.disturbance import candidate_layout

from helpers import (
    constant_initial,
    nominal_envelopes,
    out_edges,
    random_weighted_graph,
    simulate_scatter,
)

PARAMS = PTGainParams(gamma=2.0, h=12.0, deadline=5.0)
TWO_NODE = "nodes 2\nsources 1\n2 1 1.0\n"


def zero_model(g, horizon=5.0):
    return build_model(DisturbanceSpec(kind="zero"), g, 0, horizon)


class TestGain:
    def test_domain(self):
        with pytest.raises(DomainError):
            log_integrating_factor(PARAMS, 5.0)
        with pytest.raises(DomainError):
            log_integrating_factor(PARAMS, -0.1)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            PTGainParams(0.0, 12.0, 5.0)
        with pytest.raises(ValidationError):
            PTGainParams(2.0, -0.5, 5.0)
        with pytest.raises(ValidationError):
            PTGainParams(2.0, 12.0, 0.0)


class TestIntegratingFactor:
    def test_one_at_zero(self):
        assert np.exp(log_integrating_factor(PARAMS, 0.0)) == 1.0

    def test_closed_form_value(self):
        # gamma=2, h=0, deadline=1 at t=0.5: e^1 * 2^2 = 4e
        params = PTGainParams(2.0, 0.0, 1.0)
        assert np.exp(log_integrating_factor(params, 0.5)) == pytest.approx(
            4.0 * math.e, rel=1e-12
        )

    def test_strictly_increasing_vectorized(self):
        ts = np.linspace(0.0, 4.9, 200)
        vals = np.exp(log_integrating_factor(PARAMS, ts))
        assert np.all(np.diff(vals) > 0)

    def test_matches_quadrature_of_gain(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = PTGainParams(
                gamma=float(rng.uniform(0.2, 5.0)),
                h=float(rng.uniform(-0.4, 15.0)),
                deadline=float(rng.uniform(0.5, 8.0)),
            )
            t = float(rng.uniform(0.0, 0.95 * params.deadline))
            integral, _ = quad(
                lambda s: params.gamma + 2.0 * (1.0 + params.h) / (params.deadline - s),
                0.0, t, limit=200,
            )
            assert log_integrating_factor(params, t) == pytest.approx(
                integral, abs=1e-8
            )


class TestSimulate:
    def test_two_node_matches_closed_form(self):
        g = load_graph(TWO_NODE)
        traj = simulate(g, zero_model(g), PARAMS, [0.0, 12.0], 4.0)
        for target in (1.0, 2.5, 4.0):
            k = int(np.argmin(np.abs(traj.times - target)))
            t = traj.times[k]
            exact = 11.0 * math.exp(-2.0 * t) * ((5.0 - t) / 5.0) ** 26
            assert traj.errors[k, 1] == pytest.approx(exact, rel=1e-6)

    def test_equilibrium_is_exact(self):
        g = load_graph("nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n")
        sol = solve_shortest_paths(g)
        traj = simulate(g, zero_model(g), PARAMS, list(sol.p), 1.0, sol=sol)
        assert np.all(traj.errors == 0.0)

    def test_sources_stay_frozen(self):
        g = standin13()
        m = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.4), g, 5, 5.0)
        traj = simulate(g, m, PARAMS, constant_initial(g, 12.0), 2.0)
        assert np.all(traj.errors[:, 0] == 0.0)
        assert np.all((traj.errors + traj.p)[:, 0] == 0.0)

    def test_stored_times_structure(self):
        g = load_graph(TWO_NODE)
        traj = simulate(g, zero_model(g), PARAMS, [0.0, 12.0], 1.0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.0
        assert np.all(np.diff(traj.times) > 0)

    def test_underestimated_initial_state_names_node(self):
        g = standin13()
        x0 = constant_initial(g, 12.0)
        x0[7] = 5.0  # node 8 sits at distance 6.5
        with pytest.raises(PreconditionError, match="node 8"):
            simulate(g, zero_model(g), PARAMS, x0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_state_rejected(self, value):
        g = standin13()
        x0 = constant_initial(g, 12.0)
        x0[7] = value
        with pytest.raises(PreconditionError, match="node 8 is not finite"):
            simulate(g, zero_model(g), PARAMS, x0, 1.0)

    def test_nonzero_source_state_rejected(self):
        g = load_graph(TWO_NODE)
        with pytest.raises(PreconditionError, match="source node 1"):
            simulate(g, zero_model(g), PARAMS, [1.0, 12.0], 1.0)

    def test_t_end_too_close_to_deadline_rejected(self):
        g = load_graph(TWO_NODE)
        with pytest.raises(PreconditionError, match="t_end"):
            simulate(g, zero_model(g), PARAMS, [0.0, 12.0], 5.0)
        with pytest.raises(PreconditionError, match="t_end"):
            simulate(g, zero_model(g), PARAMS, [0.0, 12.0], 5.0 * (1 - 1e-12))

    def test_min_consensus_sign_structure(self):
        g = standin13()
        sol = solve_shortest_paths(g)
        m = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.3), g, 2, 5.0)
        lay = candidate_layout(g, m)
        p = np.array(sol.p)
        rates = dynamics._rates(lay, m, p, PARAMS)
        rng = np.random.default_rng(0)
        adj = out_edges(g)
        for t in rng.uniform(0.0, 4.5, 50):
            e = rng.uniform(0.0, 12.0, 13)
            e[0] = 0.0
            z = np.append(e[lay.non_sources], 0.0)
            de = rates(float(t), z, z[:-1], math.nan)
            u = m.sample_all(float(t))
            x = p + e
            for k, i in enumerate(g.non_sources):
                best = min(x[j - 1] + w + u[k] for j, (w, k) in adj[i].items())
                assert math.copysign(1.0, de[k]) == math.copysign(
                    1.0, best - x[i - 1]
                ) or de[k] == 0.0 == best - x[i - 1]

    def test_nonnegative_disturbance_keeps_errors_nonnegative(self):
        spec = DisturbanceSpec(
            kind="proportional", alpha_lower=0.0, alpha_upper=0.4, carrier="sinusoid"
        )
        for seed in range(5):
            g = random_weighted_graph(seed)
            sol = solve_shortest_paths(g)
            m = build_model(spec, g, seed, 5.0)
            x0 = constant_initial(g, max(12.0, max(sol.p) + 1.0))
            traj = simulate(g, m, PARAMS, x0, 4.75, sol=sol)
            assert traj.errors.min() >= -1e-6

    def test_zero_disturbance_errors_below_nominal_envelope(self):
        g = standin13()
        sol = solve_shortest_paths(g)
        x0 = constant_initial(g, 12.0)
        traj = simulate(g, zero_model(g), PARAMS, x0, 0.999 * 5.0, sol=sol)
        for i in g.non_sources:
            chain = parent_chain(sol, i)
            env = nominal_envelopes(
                [chain_initial_errors(sol, x0, chain)], PARAMS, traj.times
            )[..., 0]
            assert np.all(traj.errors[:, i - 1] <= env + 1e-6)
        # and the ceiling itself collapses approaching the deadline
        tail = nominal_envelopes(
            [chain_initial_errors(sol, x0, parent_chain(sol, 13))],
            PARAMS,
            np.array([4.0, 4.9, 4.999]),
        )[..., 0]
        assert tail[-1] < 1e-12 and np.all(np.diff(tail) < 0)

    def test_step_halving_consistency(self):
        """The default grid against the scatter oracle at half its step cap."""
        g = standin13()
        sol = solve_shortest_paths(g)
        m = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.03), g, 1, 5.0)
        x0 = constant_initial(g, 12.0)
        a = simulate(g, m, PARAMS, x0, 3.0, sol=sol)
        _, errors = simulate_scatter(g, m, PARAMS, x0, 3.0, sol, max_step=5e-4)
        b_final = errors[-1] + a.p
        rel = np.max(np.abs(a.final_states - b_final)) / max(
            1.0, np.max(np.abs(b_final))
        )
        assert rel < 1e-7

    def test_deterministic_repeat(self):
        g = standin13()
        m = build_model(DisturbanceSpec(kind="piecewise", amplitude=0.1), g, 4, 5.0)
        x0 = constant_initial(g, 12.0)
        a = simulate(g, m, PARAMS, x0, 1.5)
        b = simulate(g, m, PARAMS, x0, 1.5)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.times, b.times)

    @pytest.mark.parametrize("t_end", [0.0004, 0.127, 0.128, 0.3])  # 2, 128, 129 and 301 rows
    def test_each_finished_block_of_rows_is_handed_over_in_order(self, t_end):
        g = standin13()
        m = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.1), g, 4, 5.0)
        x0 = constant_initial(g, 12.0)
        plain = simulate(g, m, PARAMS, x0, t_end)
        blocks = []
        traj = simulate(
            g, m, PARAMS, x0, t_end,
            on_block=lambda span, rows: blocks.append((span, rows.copy())),
        )
        assert np.array_equal(traj.errors.view(np.uint64), plain.errors.view(np.uint64))
        assert np.array_equal(traj.times, plain.times)
        rows = len(plain.times)
        assert [(s.start, s.stop) for s, _ in blocks] == [
            (a, min(a + dynamics.BLOCK, rows)) for a in range(0, rows, dynamics.BLOCK)
        ]
        # each block is final when it is handed over
        got = np.concatenate([b for _, b in blocks])
        assert np.array_equal(got.view(np.uint64), plain.errors.view(np.uint64))

    def test_trajectory_accessors(self):
        g = load_graph(TWO_NODE)
        traj = simulate(g, zero_model(g), PARAMS, [0.0, 12.0], 1.0)
        assert (traj.errors + traj.p)[:, 1][0] == 12.0
        assert traj.errors[:, 1][0] == 11.0
        assert traj.final_states.shape == (2,)


def test_rhs_needs_an_out_edge_per_non_source():
    line3 = load_graph("nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n")
    stranded = load_graph("nodes 3\nsources 1\n2 1 1.0\n")  # node 3 has no out-edge
    with pytest.raises(PreconditionError, match="out-edge"):
        candidate_layout(stranded, zero_model(stranded))
    with pytest.raises(PreconditionError, match="out-edge"):
        simulate(stranded, zero_model(stranded), PARAMS, [0.0, 12.0, 12.0], 1.0,
                 sol=solve_shortest_paths(line3))


def test_model_must_cover_the_graphs_edges():
    line3 = load_graph("nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n")
    shortcut = load_graph("nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n3 1 3.0\n")
    for g, other in ((line3, shortcut), (shortcut, line3)):
        with pytest.raises(PreconditionError, match="disturbance model has"):
            simulate(g, zero_model(other), PARAMS, [0.0, 12.0, 12.0], 1.0)
        with pytest.raises(PreconditionError, match="disturbance model has"):
            candidate_layout(g, zero_model(other))


class TestAccuracyAgainstExactChains:
    """With zero disturbance every node of a path graph keeps its parent,
    so the nominal envelopes are the exact errors at every time.  The
    tolerances were fixed from the integrator's measured error before the
    compact non-source loop: 3.48e-10 absolute (at t = 0.076, where the
    errors are largest) and 3.1e-4 relative (near the deadline), the same
    on every depth here."""

    @pytest.mark.parametrize("depth", [2, 13, 60])
    @pytest.mark.parametrize("t_frac", [0.6289, 0.98])
    def test_default_grid_tracks_the_exact_solution(self, depth, t_frac):
        g = line_graph(depth + 1)
        sol = solve_shortest_paths(g)
        x0 = np.array(sol.p) + 12.0
        x0[0] = 0.0
        traj = simulate(g, zero_model(g), PARAMS, x0, t_frac * PARAMS.deadline, sol=sol)
        ns = g.non_sources
        exact = nominal_envelopes(
            [chain_initial_errors(sol, x0, parent_chain(sol, i)) for i in ns],
            PARAMS, traj.times,
        )
        gap = np.abs(traj.errors[:, [i - 1 for i in ns]] - exact)
        assert gap.max() <= 5e-10
        assert np.all(gap <= 5e-4 * exact)


@pytest.mark.parametrize(
    "spec",
    [
        DisturbanceSpec(kind="zero"),
        DisturbanceSpec(kind="sinusoid", amplitude=0.3),
        DisturbanceSpec(kind="proportional", alpha_lower=0.1, alpha_upper=0.3,
                        carrier="piecewise"),
    ],
    ids=["zero", "sinusoid", "proportional-piecewise"],
)
def test_simulate_samples_the_disturbance_four_times_per_step(monkeypatch, spec):
    """One sample per RK4 stage, through ``DisturbanceModel.sample_all``."""
    g = standin13()
    m = build_model(spec, g, 3, 5.0)
    calls = []
    original = DisturbanceModel.sample_all

    def counted(model, t):
        calls.append(t)
        return original(model, t)

    monkeypatch.setattr(DisturbanceModel, "sample_all", counted)
    traj = simulate(g, m, PARAMS, constant_initial(g, 12.0), 1.5)
    assert len(calls) == 4 * (len(traj.times) - 1)


# The split RHS runs only in a process with one OS thread.  Each test below
# runs ``simulate`` in a child interpreter started with OPENBLAS_NUM_THREADS=1,
# which keeps numpy's BLAS pool from starting a thread, so the thread check
# holds without patching it.  The prelude records every pid ``os.fork``
# returns to the parent in ``forks``.
SPLIT_PRELUDE = """
import json, os, signal, sys, threading, time
import numpy as np
from dbmc import (DisturbanceModel, DisturbanceSpec, IntegrationError, PTGainParams,
                  WeightedDigraph, build_model, hop_random_graph, simulate,
                  solve_shortest_paths)
from dbmc import dynamics
from dbmc.disturbance import candidate_layout

PARAMS = PTGainParams(gamma=2.0, h=12.0, deadline=5.0)
MAIN = os.getpid()
forks = []
_fork = os.fork

def fork():
    pid = _fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = fork

def x0_of(g):
    x0 = np.array(solve_shortest_paths(g).p) + 12.0
    x0[[s - 1 for s in g.sources]] = 0.0
    return x0

def run(g, model, split, t_end=1.0, **kw):
    dynamics.SPLIT_EDGES = 1 if split else 10**12
    before = len(forks)
    traj = simulate(g, model, PARAMS, x0_of(g), t_end, **kw)
    return traj, len(forks) - before

def parent_sample(at, action):
    # patch sample_all to call action() before the parent's at-th sample;
    # the worker's samples are left alone
    original, calls = DisturbanceModel.sample_all, [0]

    def sample_all(model, t):
        if os.getpid() == MAIN:
            calls[0] += 1
            if calls[0] == at:
                action()
        return original(model, t)

    DisturbanceModel.sample_all = sample_all

def gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False

G = hop_random_graph(40, 0.3, 1)
SINUSOID = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.3), G, 1, 5.0)
"""


def _split_env() -> dict:
    src = str(Path(dynamics.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def _split_child(code: str) -> dict:
    """Run ``SPLIT_PRELUDE + code`` in a child; its stdout must be one JSON line."""
    proc = subprocess.run(
        [sys.executable, "-c", SPLIT_PRELUDE + code],
        capture_output=True, text=True, env=_split_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


# Each case is a graph and a disturbance, simulated split and serial in one
# child; the child also reports where the cut fell.
SPLIT_CASES = """
def relabel(g, f):
    return WeightedDigraph(g.node_count, frozenset(f(s) for s in g.sources),
                           tuple((f(i), f(j), w) for i, j, w in g.edges))

spec = DisturbanceSpec

n = 60
chain_to_source = WeightedDigraph(
    n, frozenset({1}),
    tuple((i, i - 1, 1.0) for i in range(2, n + 1)) + tuple((i, 1, float(i)) for i in range(3, n + 1)))
tree = hop_random_graph(60, 0.0, 3)  # node 30 holds about half the edges
hub = WeightedDigraph(60, tree.sources, tree.edges + tuple(
    (30, j, 5.0) for j in range(1, 61) if j != 30 and all(e[:2] != (30, j) for e in tree.edges)))
cases = {
    "sinusoid": (G, spec(kind="sinusoid", amplitude=0.3)),
    "piecewise": (G, spec(kind="piecewise", amplitude=0.3)),
    "proportional": (G, spec(kind="proportional", alpha_lower=0.1, alpha_upper=0.4,
                             carrier="sinusoid")),
    "proportional-piecewise": (G, spec(kind="proportional", alpha_lower=0.0,
                                       alpha_upper=0.4, carrier="piecewise")),
    "zero": (G, spec(kind="zero")),
    "two-sources": (WeightedDigraph(40, frozenset({1, 7}), G.edges), spec(kind="sinusoid", amplitude=0.3)),
    "source-not-1": (relabel(G, lambda i: 41 - i), spec(kind="piecewise", amplitude=0.3)),
    "unequal-halves": (hub, spec(kind="sinusoid", amplitude=0.3)),
    "source-slot-at-cut": (chain_to_source, spec(kind="sinusoid", amplitude=0.3)),
}
out = {}
for name, (g, s) in cases.items():
    model = build_model(s, g, 2, 5.0)
    split, split_forks = run(g, model, True)
    serial, serial_forks = run(g, model, False)
    lay = candidate_layout(g, model)
    cut = dynamics._Worker(lay, model, np.zeros(g.node_count)).cut
    m, starts = len(lay.starts), list(lay.starts) + [len(lay.order)]
    out[name] = {
        "same": split.errors.tobytes() == serial.errors.tobytes(),
        "forks": [split_forks, serial_forks],
        "sources": sorted(g.sources),
        "edges": [int(starts[cut]), int(len(lay.order) - starts[cut])],
        "reads_source": [bool(np.any(lay.slots[starts[k]:starts[k + 1]] == m))
                         for k in (cut - 1, cut)],
    }
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def split_cases():
    return _split_child(SPLIT_CASES)


class TestSplitRates:
    """A forked worker takes the non-sources from a segment boundary near half
    the candidate edges; every value is the same elementwise op or
    per-segment minimum as in the serial RHS, so the bits are the same."""

    @pytest.mark.parametrize("case", [
        "sinusoid", "piecewise", "proportional", "proportional-piecewise", "zero",
        "two-sources", "source-not-1", "unequal-halves", "source-slot-at-cut",
    ])
    def test_split_errors_have_the_serial_bits(self, split_cases, case):
        got = split_cases[case]
        assert got["forks"] == [1, 0]
        assert got["same"]

    def test_the_cases_reach_what_they_name(self, split_cases):
        assert split_cases["two-sources"]["sources"] == [1, 7]
        assert split_cases["source-not-1"]["sources"] == [40]
        parent, worker = split_cases["unequal-halves"]["edges"]
        assert max(parent, worker) > 2 * min(parent, worker)
        assert split_cases["source-slot-at-cut"]["reads_source"] == [True, True]

    def test_fork_only_when_every_condition_holds(self):
        got = _split_child("""
model = SINUSOID
x0 = x0_of(G)
edges = len(candidate_layout(G, model).order)
def forks_in(threshold, **kw):
    dynamics.SPLIT_EDGES = threshold
    before = len(forks)
    simulate(G, model, PARAMS, x0, 0.05, **kw)
    return len(forks) - before
out = {"at the threshold": forks_in(edges),
       "below the threshold": forks_in(edges + 1),
       "streaming": forks_in(1, on_block=lambda span, rows: None)}
affinity = os.sched_getaffinity
os.sched_getaffinity = lambda pid: {0}
out["one CPU"] = forks_in(1)
os.sched_getaffinity = affinity
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
out["second thread"] = forks_in(1)
stop.set()
thread.join()
out["after the thread"] = forks_in(1)
print(json.dumps(out))
""")
        assert got == {
            "at the threshold": 1, "below the threshold": 0, "streaming": 0,
            "one CPU": 0, "second thread": 0, "after the thread": 1,
        }

    def test_no_worker_outlives_simulate(self):
        got = _split_child("""
out = {"forks": run(G, SINUSOID, True)[1], "returned": gone(forks[-1])}
def fail():
    raise RuntimeError("stage 7")
parent_sample(7, fail)
try:
    run(G, SINUSOID, True)
except RuntimeError as exc:
    out["raised"] = str(exc)
out["raised, gone"] = gone(forks[-1])
print(json.dumps(out))
""")
        assert got == {"forks": 1, "returned": True, "raised": "stage 7", "raised, gone": True}

    @pytest.mark.parametrize("how", ["killed", "raises"])
    def test_a_lost_worker_raises_instead_of_hanging(self, how):
        """The worker leaves silently: the child's stderr stays empty."""
        got = _split_child(f"""
if {how!r} == "killed":
    parent_sample(7, lambda: os.kill(forks[-1], signal.SIGKILL))
else:
    original = DisturbanceModel.sample_all
    def sample_all(model, t):
        if os.getpid() != MAIN:
            raise RuntimeError("worker")
        return original(model, t)
    DisturbanceModel.sample_all = sample_all
start = time.monotonic()
try:
    run(G, SINUSOID, True)
    error = None
except IntegrationError as exc:
    error = str(exc)
print(json.dumps({{"error": error, "seconds": time.monotonic() - start, "gone": gone(forks[-1])}}))
""")
        assert got["error"] is not None and "worker" in got["error"]
        assert got["seconds"] < 10.0
        assert got["gone"]

    def test_the_parent_samples_at_the_serial_times_in_the_serial_order(self):
        """Each side samples its next stage while it waits, yet this process
        still samples once per stage, at the serial run's times and in its
        order, and takes no sample after the last stage; the second run's
        t_end is off the step grid, so its last step is shortened."""
        got = _split_child("""
def sample_times(split, t_end):
    original, times = DisturbanceModel.sample_all, []
    def sample_all(model, t):
        if os.getpid() == MAIN:
            times.append(t)
        return original(model, t)
    DisturbanceModel.sample_all = sample_all
    try:
        return run(G, SINUSOID, split, t_end)[1], times
    finally:
        DisturbanceModel.sample_all = original
out = {}
for t_end in (0.05, 0.0505):
    steps = dynamics.step_grid(PARAMS, t_end)[1]
    split_forks, split = sample_times(True, t_end)
    serial_forks, serial = sample_times(False, t_end)
    out[repr(t_end)] = {"forks": [split_forks, serial_forks], "same": split == serial,
                        "samples": [len(split), 4 * len(steps)],
                        "last step": steps[-1] / steps[0]}
print(json.dumps(out))
""")
        for t_end, last_step in (("0.05", 1.0), ("0.0505", 0.5)):
            case = got[t_end]
            assert case["forks"] == [1, 0]
            assert case["same"]
            assert case["samples"][0] == case["samples"][1]
            assert case["last step"] == pytest.approx(last_step, rel=1e-9)

    def test_a_worker_killed_while_it_samples_ahead_raises(self):
        """The worker dies by SIGKILL after it has published stage 6, while
        it samples stage 7: this process posts stage 7, samples stage 8
        while it waits, and then raises instead of hanging."""
        got = _split_child("""
original, worker_calls, parent_calls = DisturbanceModel.sample_all, [0], [0]
def sample_all(model, t):
    if os.getpid() == MAIN:
        parent_calls[0] += 1
    else:
        worker_calls[0] += 1  # call 1 is stage 1's; call k + 1 follows stage k
        if worker_calls[0] == 7:
            os.kill(os.getpid(), signal.SIGKILL)
    return original(model, t)
DisturbanceModel.sample_all = sample_all
start = time.monotonic()
try:
    run(G, SINUSOID, True)
    error = None
except IntegrationError as exc:
    error = str(exc)
print(json.dumps({"error": error, "seconds": time.monotonic() - start,
                  "gone": gone(forks[-1]), "parent samples": parent_calls[0]}))
""")
        assert got["error"] is not None and "worker" in got["error"]
        assert got["seconds"] < 10.0
        assert got["gone"]
        assert got["parent samples"] == 8

    def test_the_split_run_holds_no_fd_and_no_named_semaphore(self):
        """The handoff is two semaphores whose names are unlinked at once, and
        each side watches the process tree, not a pipe, for the other."""
        got = _split_child("""
def fds():
    return sorted(os.listdir("/proc/self/fd"))
seen = {}
def at_stage_7():
    seen["stage 7"] = fds()
    seen["semaphores"] = sorted(n for n in os.listdir("/dev/shm") if n.startswith("sem.dbmc-"))
before = fds()
parent_sample(7, at_stage_7)
forks_made = run(G, SINUSOID, True)[1]
print(json.dumps({"forks": forks_made, "before": before, "after": fds(), **seen}))
""")
        assert got["forks"] == 1
        assert got["stage 7"] == got["before"]
        assert got["after"] == got["before"]
        assert got["semaphores"] == []

    def test_a_killed_parent_leaves_no_worker(self):
        """The orphaned worker exits by itself, through ``os._exit``: it neither
        flushes the stdout buffer it inherited nor runs the atexit hook."""
        code = """
import atexit
sys.stdout.write("buffered\\n")
atexit.register(lambda: sys.stdout.write("atexit\\n"))
def stop():
    print(forks[-1], flush=True)
    time.sleep(600)
parent_sample(7, stop)
run(G, SINUSOID, True)
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", SPLIT_PRELUDE + code],
            stdout=subprocess.PIPE, text=True, env=_split_env(),
        )
        try:
            assert proc.stdout.readline() == "buffered\n"
            worker = int(proc.stdout.readline())
        finally:
            proc.kill()
            proc.wait(timeout=60)
        deadline = time.monotonic() + 10.0
        try:
            while _alive(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(worker)
        finally:
            if _alive(worker):
                os.kill(worker, signal.SIGKILL)
        assert proc.stdout.read() == ""  # EOF: the worker wrote nothing
        proc.stdout.close()


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; an orphan's zombie counts as gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
