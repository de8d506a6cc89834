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
from dbmc.bounds import nominal_envelopes
from dbmc.disturbance import candidate_layout

from helpers import constant_initial, out_edges, random_weighted_graph, simulate_scatter

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
        assert np.all(traj.states[:, 0] == 0.0)

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
        rates = dynamics._rates(lay, m.take(lay.order), sol, PARAMS)
        rng = np.random.default_rng(0)
        p = np.array(sol.p)
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
        assert traj.states[:, 1][0] == 12.0
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
