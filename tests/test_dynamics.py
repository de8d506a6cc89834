import math

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
    WeightedDigraph,
    build_model,
    chain_initial_errors,
    hop_random_graph,
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
            de = rates(float(t), z, z[:-1])
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
@pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
def test_simulate_samples_the_disturbance_four_times_per_step(monkeypatch, spec, large):
    """One sample per RK4 stage, through ``DisturbanceModel.sample_all``.
    The large layout takes the active RHS, which samples fewer edges on
    most stages."""
    g = hop_random_graph(300, 0.05, 1) if large else standin13()
    assert (len(candidate_layout(g, zero_model(g)).order) >= dynamics.ACTIVE_EDGES) == large
    m = build_model(spec, g, 3, 5.0)
    calls = []
    original = DisturbanceModel.sample_all

    def counted(model, t):
        calls.append(len(model.edge_lower))
        return original(model, t)

    monkeypatch.setattr(DisturbanceModel, "sample_all", counted)
    traj = simulate(g, m, PARAMS, constant_initial(g, 12.0), 1.5)
    assert len(calls) == 4 * (len(traj.times) - 1)
    assert (min(calls) < len(g.edges)) == large


def x0_of(g):
    x0 = np.array(solve_shortest_paths(g).p) + 12.0
    x0[[s - 1 for s in g.sources]] = 0.0
    return x0


def run_counted(monkeypatch, g, model, active, t_end=1.0, params=PARAMS, x0=None, log=None):
    """``simulate`` on the active RHS (``active``, every layout with 2m <= E)
    or the full one (no layout), and the counts of its stages: ``full`` and
    ``pruned`` samples (of the whole layout's edges and of fewer), and the
    active RHS's refreshes, ``mid`` of them after a failed test.

    ``log``, if given, is a dict that receives ``samples``: the (time,
    edges sampled, model horizon, model first knot) of every stage, and
    ``refreshes``: the (stage, candidates kept, None on a bail) of every
    refresh, stages counted from 0."""
    monkeypatch.setattr(dynamics, "ACTIVE_EDGES", 1 if active else 10**12)
    n_edges = len(candidate_layout(g, model).order)
    counts = {"full": 0, "pruned": 0, "refresh": 0, "mid": 0}
    log = {} if log is None else log
    samples, refreshes = log.setdefault("samples", []), log.setdefault("refreshes", [])
    sample_all, refresh = DisturbanceModel.sample_all, dynamics._ActiveRates._refresh

    def counted_sample(m, t):
        counts["full" if len(m.edge_lower) == n_edges else "pruned"] += 1
        samples.append((t, len(m.edge_lower), m.horizon, m.first_knot))
        return sample_all(m, t)

    def counted_refresh(rates, *args):
        counts["refresh"] += 1
        counts["mid"] += rates._kept is not None  # a failed test, not a first try
        refresh(rates, *args)
        refreshes.append((len(samples) - 1, None if rates._kept is None else len(rates._kept[0])))

    monkeypatch.setattr(DisturbanceModel, "sample_all", counted_sample)
    monkeypatch.setattr(dynamics._ActiveRates, "_refresh", counted_refresh)
    try:
        traj = simulate(g, model, params, x0_of(g) if x0 is None else x0, t_end)
    finally:
        monkeypatch.setattr(DisturbanceModel, "sample_all", sample_all)
        monkeypatch.setattr(dynamics._ActiveRates, "_refresh", refresh)
    return traj, counts


def assert_same_bits(a, b):
    assert np.array_equal(a.errors.view(np.uint64), b.errors.view(np.uint64))


def run_both(monkeypatch, g, model, t_end=1.0, x0=None):
    """``run_counted`` on the active RHS, its ``log``, after checking that
    the full RHS gives the same bits and samples at the same times."""
    logs = {True: {}, False: {}}
    runs = {a: run_counted(monkeypatch, g, model, a, t_end, x0=x0, log=logs[a]) for a in logs}
    assert_same_bits(runs[True][0], runs[False][0])
    assert [s[0] for s in logs[True]["samples"]] == [s[0] for s in logs[False]["samples"]]
    return (*runs[True], logs[True])


def _relabel(g, f):
    return WeightedDigraph(g.node_count, frozenset(f(s) for s in g.sources),
                           tuple((f(i), f(j), w) for i, j, w in g.edges))


def _active_cases():
    """name -> (graph, spec): graphs of 40-60 nodes, each simulated on the
    active and the full RHS."""
    spec = DisturbanceSpec
    g = hop_random_graph(40, 0.3, 1)
    n = 60
    # every non-source reads the source slot, and all but node 2 also a
    # non-source one
    chain_to_source = WeightedDigraph(
        n, frozenset({1}),
        tuple((i, i - 1, 1.0) for i in range(2, n + 1))
        + tuple((i, i - 2, 2.0) for i in range(4, n + 1))
        + tuple((i, 1, float(i)) for i in range(3, n + 1)),
    )
    sparse = hop_random_graph(60, 0.05, 3)
    hub = WeightedDigraph(60, sparse.sources, sparse.edges + tuple(
        (30, j, 1.0) for j in range(1, 61)
        if j != 30 and all(e[:2] != (30, j) for e in sparse.edges)))
    sinusoid = spec(kind="sinusoid", amplitude=0.1)
    return {
        "sinusoid": (g, spec(kind="sinusoid", amplitude=0.3)),
        "piecewise": (g, spec(kind="piecewise", amplitude=0.1)),
        "proportional": (g, spec(kind="proportional", alpha_lower=0.05, alpha_upper=0.1,
                                 carrier="sinusoid")),
        "proportional-piecewise": (g, spec(kind="proportional", alpha_lower=0.0,
                                           alpha_upper=0.4, carrier="piecewise")),
        "zero": (g, spec(kind="zero")),
        "two-sources": (WeightedDigraph(40, frozenset({1, 7}), g.edges), sinusoid),
        "source-not-1": (_relabel(g, lambda i: 41 - i), spec(kind="piecewise", amplitude=0.1)),
        "hub": (hub, sinusoid),
        "chain-to-source": (chain_to_source, spec(kind="sinusoid", amplitude=0.01)),
    }


ACTIVE_CASES = _active_cases()


class TestActiveCandidates:
    """The active RHS keeps the full RHS's bits: a dropped candidate provably
    stays above its node's minimum, and no candidate is -0."""

    @pytest.mark.parametrize("case", list(ACTIVE_CASES))
    def test_active_errors_have_the_full_bits(self, monkeypatch, case):
        g, spec = ACTIVE_CASES[case]
        model = build_model(spec, g, 2, 5.0)
        active, counts = run_counted(monkeypatch, g, model, True)
        full, full_counts = run_counted(monkeypatch, g, model, False)
        assert_same_bits(active, full)
        assert full_counts == {"full": 4000, "pruned": 0, "refresh": 0, "mid": 0}
        assert counts["full"] + counts["pruned"] == 4000

    def test_the_cases_reach_what_they_name(self, monkeypatch):
        cases = ACTIVE_CASES
        assert sorted(cases["two-sources"][0].sources) == [1, 7]
        assert sorted(cases["source-not-1"][0].sources) == [40]
        g, spec = cases["chain-to-source"]
        lay = candidate_layout(g, build_model(spec, g, 2, 5.0))
        reads_source = np.maximum.reduceat(lay.slots == len(lay.starts), lay.starts)
        assert reads_source.all()
        g, spec = cases["hub"]
        lay = candidate_layout(g, build_model(spec, g, 2, 5.0))
        assert lay.degree.max() > 10 * np.median(lay.degree)
        for name, (g, spec) in cases.items():
            counts = run_counted(monkeypatch, g, build_model(spec, g, 2, 5.0), True)[1]
            assert counts["pruned"] > 0, name

    def test_a_test_that_fails_inside_a_block_refreshes_there(self, monkeypatch):
        """Far from the solution the errors move faster than a small
        disturbance's margin allows, so the test fails inside the first
        block, and the stage refreshes and goes on pruning."""
        g = hop_random_graph(40, 0.3, 1)
        model = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.01), g, 2, 5.0)
        x0 = np.array(solve_shortest_paths(g).p) + 10.0
        x0[0] = 0.0
        active, counts = run_counted(monkeypatch, g, model, True, 0.127, x0=x0)
        full, _ = run_counted(monkeypatch, g, model, False, 0.127, x0=x0)
        assert_same_bits(active, full)
        assert len(active.times) == dynamics.BLOCK  # one block
        assert counts["mid"] >= 1
        assert counts["refresh"] == 1 + counts["mid"]
        assert counts["pruned"] > 0

    @pytest.mark.parametrize("case", ["sinusoid", "piecewise", "proportional-piecewise", "zero"])
    def test_no_input_the_test_admits_moves_a_minimum(self, case):
        """The margin is a bound, not an estimate: stage inputs at just under
        half the margin from the refresh's input, with random signs, at times
        across two blocks, give the full RHS's bits on a pruned stage, and
        one just over half the margin refreshes.  The kept set outlives the
        block start; only its sub-model is re-windowed."""
        g, spec = ACTIVE_CASES[case]
        model = build_model(spec, g, 2, 5.0)
        lay = candidate_layout(g, model)
        p = np.array(solve_shortest_paths(g).p)
        active = dynamics._ActiveRates(lay, model, p, PARAMS)
        full = dynamics._rates(lay, model, p, PARAMS)
        rng = np.random.default_rng(0)
        m = len(lay.starts)
        z = np.append(rng.uniform(0.0, 3.0, m), 0.0)
        active.start_block(0.428)
        active(0.3, z, z[:m])
        kept = active._kept
        margin = kept[-1]
        assert margin > 0.0
        for t0, t1 in ((0.3, 0.428), (0.428, 0.556)):
            if t0 > 0.3:
                active.start_block(t1)
            for t in np.linspace(t0, t1, 33):
                for _ in range(30):
                    y = z.copy()
                    y[:m] += 0.4999 * margin * rng.choice((-1.0, 1.0), m)
                    got, want = active(float(t), y, y[:m]), full(float(t), y, y[:m])
                    assert active._kept is kept  # a pruned stage
                    assert active._sub.horizon == t1
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # just over half the margin, the stage refreshes
        y = z.copy()
        y[:m] += 0.5001 * margin
        active(0.556, y, y[:m])
        assert active._kept is not kept

    def test_samples_at_the_full_times_in_the_full_order(self, monkeypatch):
        """The second run's t_end is off the step grid, so its last step is
        shortened and its last stage time is not a stored time."""
        g, spec = ACTIVE_CASES["sinusoid"]
        model = build_model(spec, g, 2, 5.0)
        original = DisturbanceModel.sample_all
        for t_end, last_step in ((0.05, 1.0), (0.0505, 0.5)):
            times = {True: [], False: []}
            for active in times:
                def sample_all(m, t, seen=times[active]):
                    seen.append(t)
                    return original(m, t)

                monkeypatch.setattr(DisturbanceModel, "sample_all", sample_all)
                monkeypatch.setattr(dynamics, "ACTIVE_EDGES", 1 if active else 10**12)
                simulate(g, model, PARAMS, x0_of(g), t_end)
            steps = dynamics.step_grid(PARAMS, t_end)[1]
            assert times[True] == times[False]
            assert len(times[True]) == 4 * len(steps)
            assert steps[-1] / steps[0] == pytest.approx(last_step, rel=1e-9)

    def test_a_layout_where_every_refresh_keeps_most_candidates_runs_in_full(self, monkeypatch):
        """On a line every node has one candidate (2m > E), so a refresh
        keeps every candidate and bails, and ``simulate`` takes the full
        RHS: no stage refreshes or prunes."""
        g = line_graph(30)
        model = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.3), g, 2, 5.0)
        lay = candidate_layout(g, model)
        assert 2 * len(lay.starts) > len(lay.order)
        rates = dynamics._ActiveRates(lay, model, np.array(solve_shortest_paths(g).p), PARAMS)
        z = np.append(x0_of(g)[lay.non_sources], 0.0)
        for t in (0.0, 0.1):
            rates._left = 0
            rates(t, z, z[:-1])
            assert rates._kept is None  # it bailed
        active, counts = run_counted(monkeypatch, g, model, True, 0.3)
        full, _ = run_counted(monkeypatch, g, model, False, 0.3)
        assert_same_bits(active, full)
        assert counts == {"full": 1200, "pruned": 0, "refresh": 0, "mid": 0}

    def test_a_constant_x0_prunes_inside_the_first_block(self, monkeypatch):
        """x0 = 12 everywhere ties most candidates at t = 0, so the first
        refresh bails; a retry ``SHORT_LIVED`` stages on keeps a set, well
        before the first block ends."""
        g = hop_random_graph(300, 0.05, 1)
        model = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.03), g, 3, 5.0)
        traj, counts, log = run_both(monkeypatch, g, model, 0.127, constant_initial(g, 12.0))
        assert len(traj.times) == dynamics.BLOCK  # one block
        refreshes = log["refreshes"]
        assert refreshes[0] == (0, None)
        assert refreshes[1][0] == dynamics.SHORT_LIVED and refreshes[1][1] is not None
        n_edges = len(candidate_layout(g, model).order)
        widths = [s[1] for s in log["samples"]]
        assert min(k for k, w in enumerate(widths) if w < n_edges) == dynamics.SHORT_LIVED + 1
        assert counts["pruned"] > 3 * counts["full"]

    def test_a_refresh_that_bails_backs_off_across_blocks(self, monkeypatch):
        """Each non-source of this layered graph has two candidates through
        the two nodes of the layer below, which tie under zero disturbance
        and stay within each other's envelope under this one, so every
        refresh keeps all of them and bails (2m = E, so the layout takes the
        active RHS).  The first retry comes ``SHORT_LIVED`` stages on, each
        later wait is 1.5 times the last, and block starts do not refresh."""
        n = 40
        g = WeightedDigraph(n, frozenset({1, 2}), tuple(
            (a, b, 1.0) for k in range(1, n // 2) for a in (2 * k + 1, 2 * k + 2)
            for b in (2 * k - 1, 2 * k)))
        model = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.3), g, 2, 5.0)
        lay = candidate_layout(g, model)
        assert 2 * len(lay.starts) == len(lay.order)
        _, counts, log = run_both(monkeypatch, g, model)
        assert counts == {"full": 4000, "pruned": 0, "refresh": 12, "mid": 0}
        stages = [stage for stage, kept in log["refreshes"]]
        assert all(kept is None for _, kept in log["refreshes"])
        waits = np.diff(stages)
        assert stages[0] == 0 and waits[0] == dynamics.SHORT_LIVED
        assert list(waits[1:]) == [w + w // 2 for w in waits[:-1]]
        block = 4 * (dynamics.BLOCK - 1)  # stages per block
        assert stages[-1] > 5 * block
        assert not any(stage % block == 0 for stage in stages[1:])

    def test_a_kept_set_that_passes_at_a_block_start_is_rewindowed(self, monkeypatch):
        """Near the solution a piecewise kept set passes its test at every
        block start.  The first stage of each block samples the same kept
        edges, pruned, with no refresh, through a sub-model re-windowed to
        the new block: its horizon is the block's last stage time and its
        first knot the one at the stage's time."""
        g, spec = ACTIVE_CASES["piecewise"]
        model = build_model(spec, g, 2, 5.0)
        _, _, log = run_both(monkeypatch, g, model)
        samples = log["samples"]
        refreshed = {stage for stage, _ in log["refreshes"]}
        times, steps = dynamics.step_grid(PARAMS, 1.0)
        n_edges = len(candidate_layout(g, model).order)
        starts = range(dynamics.BLOCK, len(times), dynamics.BLOCK)
        assert len(starts) == 7
        for a in starts:
            b = min(a + dynamics.BLOCK, len(times))
            stage = 4 * (a - 1)
            t, width, horizon, first_knot = samples[stage]
            assert stage not in refreshed
            assert width == samples[stage - 1][1] < n_edges
            assert samples[stage - 1][2] == t < horizon == times[b - 2] + steps[b - 2]
            assert first_knot == int(t / model.knot_spacing)


CARRIERS = (
    DisturbanceSpec(kind="zero"),
    DisturbanceSpec(kind="sinusoid", amplitude=0.05),
    DisturbanceSpec(kind="piecewise", amplitude=0.05),
    DisturbanceSpec(kind="proportional", alpha_lower=0.02, alpha_upper=0.05, carrier="sinusoid"),
    DisturbanceSpec(kind="proportional", alpha_lower=0.0, alpha_upper=0.05, carrier="piecewise"),
)


def random_two_source_case(seed):
    """A seeded random graph of 20-40 nodes with sources 1 and 2, with its
    disturbance, gain and initial state, over every carrier, gamma in
    {0.1, 2}, h in {0, 2, 12} and x0 = p + {0, U(0, 1), U(0, 10)}; the
    weights lie on a 0.5 grid (many ties) or are continuous."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 41))
    if seed % 2:
        def weight():
            return float(rng.uniform(0.2, 3.0))
    else:
        def weight():
            return 0.5 * float(rng.integers(1, 7))
    edges = [(k, int(rng.integers(1, k)), weight()) for k in range(3, n + 1)]
    present = {(i, j) for i, j, _ in edges}
    for i in range(3, n + 1):
        for j in range(1, n + 1):
            if i != j and (i, j) not in present and rng.random() < 0.3:
                edges.append((i, j, weight()))
                present.add((i, j))
    g = WeightedDigraph(n, frozenset({1, 2}), tuple(edges))
    spec = CARRIERS[seed % len(CARRIERS)]
    params = PTGainParams(gamma=(0.1, 2.0)[seed // 5 % 2], h=(0.0, 2.0, 12.0)[seed % 3],
                          deadline=5.0)
    spread = (0.0, 1.0, 10.0)[seed // 3 % 3]
    x0 = np.array(solve_shortest_paths(g).p) + rng.uniform(0.0, spread, n)
    x0[:2] = 0.0
    return g, build_model(spec, g, seed, 5.0), params, x0


@pytest.mark.parametrize("seed", range(48))
def test_active_rhs_keeps_the_bits_on_random_graphs(monkeypatch, seed):
    g, model, params, x0 = random_two_source_case(seed)
    active, counts = run_counted(monkeypatch, g, model, True, 0.5, params, x0)
    full, _ = run_counted(monkeypatch, g, model, False, 0.5, params, x0)
    assert_same_bits(active, full)
    assert counts["full"] + counts["pruned"] == 2000


@pytest.mark.parametrize("seed", [5, 15, 25, 35])
def test_a_set_that_breaks_early_makes_the_next_one_wider(monkeypatch, seed):
    """Zero disturbance on continuous weights: sigma starts each block at
    0, so the first kept sets break within a few stages.  Widening them
    keeps the refreshes to at most one per ``SHORT_LIVED`` stages."""
    g, model, params, x0 = random_two_source_case(seed)
    assert model.u_plus == 0.0 and len({w for _, _, w in g.edges}) == len(g.edges)
    counts = run_counted(monkeypatch, g, model, True, 0.5, params, x0)[1]
    assert counts["mid"] > 0
    assert counts["refresh"] * dynamics.SHORT_LIVED <= counts["full"] + counts["pruned"]
