import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbmc import (
    DisturbanceSpec,
    DomainError,
    InfeasibleError,
    PTGainParams,
    build_model,
    chain_initial_errors,
    early_termination_time,
    hop_random_graph,
    line_graph,
    load_graph,
    log_integrating_factor,
    minus_graph,
    optimal_q,
    parent_chain,
    power_law_envelope,
    simulate,
    solve_shortest_paths,
    worst_case_offset,
)
from dbmc.bounds import NominalEnvelopes, proportional_offsets
from dbmc.harness import BOUND_KINDS, BRACKET_TOL, compute_bound_curves, resolve_chi0

from helpers import constant_initial, nominal_envelopes, random_weighted_graph

PARAMS = PTGainParams(gamma=2.0, h=12.0, deadline=5.0)


def high_precision_envelope(e0, gamma, h, deadline, t):
    """Independent 50-digit evaluation of the chain error ceiling."""
    with mp.workdps(50):
        gamma, h, deadline, t = map(mp.mpf, (gamma, h, deadline, t))
        lp = gamma * t + (2 + 2 * h) * mp.log(deadline / (deadline - t))
        phi = mp.e**lp
        ell = len(e0) - 1
        total = sum(
            mp.mpf(e0[k]) * lp ** (ell - k) / (phi * mp.factorial(ell - k))
            for k in range(ell + 1)
        )
        return float(total)


class TestNominalEnvelope:
    def test_at_zero_equals_last_initial_error(self):
        assert nominal_envelopes([[0.0, 11.0, 10.0]], PARAMS, 0.0)[..., 0] == 10.0

    def test_source_only_chain_is_zero(self):
        ts = np.linspace(0.0, 4.9, 50)
        assert np.all(nominal_envelopes([[0.0]], PARAMS, ts)[..., 0] == 0.0)

    def test_matches_high_precision_oracle_at_reference_point(self):
        got = nominal_envelopes([[0.0, 11.0, 10.0]], PARAMS, 2.5)[..., 0]
        # frozen from a 50-digit evaluation of the defining sum
        assert got == pytest.approx(2.643015681179744e-08, rel=1e-12)

    def test_matches_high_precision_oracle_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            params = PTGainParams(
                float(rng.uniform(0.5, 4.0)),
                float(rng.uniform(-0.4, 15.0)),
                float(rng.uniform(1.0, 8.0)),
            )
            ell = int(rng.integers(1, 8))
            e0 = [0.0] + list(rng.uniform(0.0, 12.0, ell))
            t = float(rng.uniform(0.0, 0.99 * params.deadline))
            got = nominal_envelopes([e0], params, t)[..., 0]
            want = high_precision_envelope(e0, params.gamma, params.h, params.deadline, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_vectorized_matches_scalar(self):
        ts = np.linspace(0.0, 4.5, 7)
        chain = [0.0, 11.0, 10.0]
        vec = nominal_envelopes([chain], PARAMS, ts)[..., 0]
        for k, t in enumerate(ts):
            assert vec[k] == nominal_envelopes([chain], PARAMS, float(t))[..., 0]

    def test_domain_error_at_deadline(self):
        with pytest.raises(DomainError):
            nominal_envelopes([[0.0, 1.0]], PARAMS, 5.0)

    @pytest.mark.parametrize("depth", [179, 499])
    def test_deep_chain_is_finite_and_matches_high_precision_oracle(self, depth):
        """Past 170 hops near the deadline the direct terms overflow; the
        log-space terms keep the envelope finite, without a warning."""
        e0 = [0.0] + list(np.random.default_rng(depth).uniform(0.0, 12.0, depth))
        ts = np.array([0.5, 4.0, 4.5, 4.9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nominal_envelopes([e0], PARAMS, ts)[..., 0]
        for k, t in enumerate(ts):
            want = high_precision_envelope(e0, PARAMS.gamma, PARAMS.h, PARAMS.deadline, t)
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_every_chain_keeps_its_bits_among_all_chains(self):
        """A cell depends only on its own chain and time: all chains at once,
        each chain alone and a scalar time give the same bits, in the
        log-space cells of a deep chain near the deadline too."""
        g = line_graph(200)
        sol = solve_shortest_paths(g)
        x0 = constant_initial(g, 220.0)
        e0s = [chain_initial_errors(sol, x0, parent_chain(sol, i)) for i in g.non_sources]
        ts = np.concatenate((np.linspace(0.0, 4.9, 40), [4.95, 4.99]))
        # 199 hops at t = 4.99: L^199 is far past the largest float
        assert 199 * math.log(log_integrating_factor(PARAMS, 4.99)) > 1000.0
        columns = np.column_stack([nominal_envelopes([e0], PARAMS, ts)[:, 0] for e0 in e0s])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nominal_envelopes(e0s, PARAMS, ts)
            at_scalar = nominal_envelopes(e0s, PARAMS, 4.99)
        assert got.shape == (len(ts), len(e0s)) and at_scalar.shape == (len(e0s),)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got.view(np.uint64), columns.view(np.uint64))
        assert np.array_equal(at_scalar.view(np.uint64), columns[-1].view(np.uint64))

    @pytest.mark.parametrize("rows", [1, 7, None], ids=["1-row", "7-rows", "one-block"])
    def test_blocks_of_time_rows_keep_every_bit(self, rows):
        """A reader may fill the table a block of time rows at a time; a cell
        depends only on its own time, so every block size gives the same
        bits, in the log-space cells of a deep chain near the deadline too."""
        g = line_graph(200)
        sol = solve_shortest_paths(g)
        x0 = constant_initial(g, 220.0)
        e0s = [chain_initial_errors(sol, x0, parent_chain(sol, i)) for i in g.non_sources]
        ts = np.concatenate((np.linspace(0.0, 4.9, 40), [4.95, 4.99]))
        columns = np.column_stack([nominal_envelopes([e0], PARAMS, ts)[:, 0] for e0 in e0s])
        env = NominalEnvelopes(e0s, PARAMS, ts)
        step = rows or len(ts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.vstack(
                [env.rows(lo, min(lo + step, len(ts))) for lo in range(0, len(ts), step)]
            )
        assert got.shape == (len(ts), len(e0s))
        assert np.all(np.isfinite(got))
        assert np.array_equal(got.view(np.uint64), columns.view(np.uint64))

    def test_overflowing_chain_leaves_its_neighbours_bits(self):
        """Only cells with a non-finite term are redone in log space: a chain
        keeps its bits next to one whose terms overflow at the same times."""
        big = [0.0] + [1e100] * 170
        small = [0.0] + list(np.random.default_rng(1).uniform(0.0, 12.0, 170))
        ts = np.array([3.0, 4.9])  # L = 30 and 111: at 4.9 both chains have big terms
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            both = nominal_envelopes([big, small], PARAMS, ts)
            alone = nominal_envelopes([small], PARAMS, ts)
        assert np.array_equal(both[:, 1].view(np.uint64), alone[:, 0].view(np.uint64))
        for k, t in enumerate(ts):
            want = high_precision_envelope(big, PARAMS.gamma, PARAMS.h, PARAMS.deadline, t)
            assert both[k, 0] == pytest.approx(want, rel=1e-12)


PATH3 = "nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n"


def bound_curves(g, spec, x0, times, kinds):
    """``compute_bound_curves`` of ``g`` under ``spec`` (seed 0), with q = 3
    and chi0 the largest initial error."""
    sol = solve_shortest_paths(g)
    model = build_model(spec, g, 0, PARAMS.deadline)
    sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
    chi0 = max(x0[i - 1] - sol.p[i - 1] for i in g.non_sources)
    return compute_bound_curves(
        g, sol, sol_minus, model, x0, 3.0, chi0, PARAMS, np.atleast_1d(times), kinds
    )


def node_envelope(g, x0, node, times):
    """The nominal envelope of ``node``'s parent chain, evaluated on its own."""
    sol = solve_shortest_paths(g)
    e0 = chain_initial_errors(sol, x0, parent_chain(sol, node))
    return nominal_envelopes([e0], PARAMS, np.atleast_1d(times))[..., 0]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestChainUpperBound:
    """The chain band of ``compute_bound_curves``: the node's nominal envelope
    plus the sum of the caps along its parent chain, with no lower bound."""

    def setup_method(self):
        self.g = load_graph(PATH3)
        self.x0 = np.array([0.0, 12.0, 12.0])
        self.col = self.g.non_sources.index(3)
        self.spec = DisturbanceSpec(kind="sinusoid", amplitude=0.4)  # caps 0.4, 0.4

    def test_zero_caps_equal_nominal(self):
        ts = np.linspace(0.0, 4.0, 9)
        ((lower, upper),) = bound_curves(
            self.g, DisturbanceSpec(kind="zero"), self.x0, ts, ("chain",)
        ).values()
        assert np.all(lower == -np.inf)
        assert same_bits(np.asarray(upper)[:, self.col], node_envelope(self.g, self.x0, 3, ts))

    def test_caps_shift_by_their_sum(self):
        ((_, upper),) = bound_curves(self.g, self.spec, self.x0, 2.0, ("chain",)).values()
        base = node_envelope(self.g, self.x0, 3, 2.0)[0]
        assert np.asarray(upper)[0, self.col] == pytest.approx(base + 0.8)

    def test_limit_near_deadline_is_cap_sum(self):
        t = 5.0 * (1.0 - 1e-9)
        ((_, upper),) = bound_curves(self.g, self.spec, self.x0, t, ("chain",)).values()
        assert np.asarray(upper)[0, self.col] == pytest.approx(0.8, abs=1e-12)


class TestProportionalBounds:
    """The proportional band of ``compute_bound_curves``: -a1 * p below, the
    nominal envelope plus a2 * p above."""

    def setup_method(self):
        self.g = load_graph(PATH3)
        self.x0 = np.array([0.0, 12.0, 12.0])
        self.col = self.g.non_sources.index(3)

    def test_zero_fractions_reduce_to_nominal(self):
        ts = np.linspace(0.0, 4.0, 9)
        ((lower, upper),) = bound_curves(
            self.g, DisturbanceSpec(kind="zero"), self.x0, ts, ("proportional",)
        ).values()
        assert np.all(lower[:, self.col] == 0.0)
        assert same_bits(np.asarray(upper)[:, self.col], node_envelope(self.g, self.x0, 3, ts))

    def test_lower_bound_scales_with_distance(self):
        spec = DisturbanceSpec(kind="sinusoid", amplitude=0.4)
        ((lower, _),) = bound_curves(self.g, spec, self.x0, 2.0, ("proportional",)).values()
        assert lower[0, self.col] == pytest.approx(-0.8)  # -a1 * p with p = 2

    def test_fraction_domain(self):
        with pytest.raises(DomainError):
            proportional_offsets(1.0, 0.4, 2.0)
        with pytest.raises(DomainError):
            proportional_offsets(0.4, -0.1, 2.0)

    def test_vectorized_shapes(self):
        ts = np.linspace(0.0, 4.0, 9)
        spec = DisturbanceSpec(kind="sinusoid", amplitude=0.4)
        ((lower, upper),) = bound_curves(self.g, spec, self.x0, ts, ("proportional",)).values()
        assert lower.shape == upper.shape == (len(ts), 2)
        assert np.all(lower <= upper)


class TestUniformBounds:
    """The uniform band of ``compute_bound_curves``: -(D_minus - 1) * u_minus
    below, the nominal envelope plus depth * u_plus above."""

    def test_zero_bounds_reduce_to_nominal(self):
        g = load_graph(PATH3)
        x0 = np.array([0.0, 12.0, 12.0])
        ts = np.linspace(0.0, 4.0, 9)
        ((lower, upper),) = bound_curves(
            g, DisturbanceSpec(kind="zero"), x0, ts, ("uniform",)
        ).values()
        col = g.non_sources.index(3)
        assert np.all(lower[:, col] == 0.0)
        assert same_bits(np.asarray(upper)[:, col], node_envelope(g, x0, 3, ts))

    def test_line13_values(self):
        g = line_graph(13)
        x0 = np.zeros(13)
        x0[1:] = 12.0
        spec = DisturbanceSpec(kind="sinusoid", amplitude=0.03)  # u- = u+ = 0.03
        sol_minus = solve_shortest_paths(
            minus_graph(g, build_model(spec, g, 0, PARAMS.deadline).edge_lower)
        )
        assert sol_minus.effective_diameter == 13
        ((lower, upper),) = bound_curves(g, spec, x0, 2.0, ("uniform",)).values()
        col = g.non_sources.index(13)
        assert lower[0, col] == pytest.approx(-0.36)
        env = node_envelope(g, x0, 13, 2.0)[0]
        assert np.asarray(upper)[0, col] == pytest.approx(12 * 0.03 + env)


class TestPowerLawEnvelope:
    def test_back_substitution_value(self):
        # frozen from a 50-digit evaluation at the reference stop time
        got = power_law_envelope(12.0, 12, 3.0, PARAMS, 3.1445)
        assert got == pytest.approx(0.110014188225824, rel=1e-12)

    def test_vanishes_at_deadline(self):
        assert power_law_envelope(12.0, 12, 3.0, PARAMS, 5.0) == 0.0

    def test_rejects_q_at_or_below_one(self):
        with pytest.raises(DomainError):
            power_law_envelope(12.0, 12, 1.0, PARAMS, 1.0)

    @pytest.mark.parametrize("q, depth", [(1e200, 12), (1e26, 12), (1e300, 2)])
    def test_rejects_a_scale_past_the_float_range(self, q, depth):
        with pytest.raises(DomainError, match="power-law envelope overflows"):
            power_law_envelope(12.0, depth, q, PARAMS, np.array([0.0, 1.0]))

    def test_largest_representable_q_is_kept(self):
        # (q^12 - 1)/(q - 1) ~ 1e275 is finite, so the band is too
        got = power_law_envelope(12.0, 12, 1e25, PARAMS, 0.0)
        assert math.isfinite(got) and got > 1e275

    def test_dominates_nominal_envelope(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = PTGainParams(
                float(rng.uniform(0.5, 4.0)),
                float(rng.uniform(-0.4, 15.0)),
                float(rng.uniform(1.0, 8.0)),
            )
            ell = int(rng.integers(1, 13))
            e0 = np.concatenate(([0.0], rng.uniform(0.1, 12.0, ell)))
            q = float(rng.choice([1.5, 2.0, 3.0, 5.0]))
            t = float(rng.uniform(1e-6, params.deadline * (1 - 1e-9)))
            nominal = nominal_envelopes([e0], params, t)[..., 0]
            relaxed = power_law_envelope(float(e0.max()), ell, q, params, t)
            assert relaxed > nominal > 0.0


class TestWorstCaseOffset:
    def test_picks_larger_side(self):
        assert worst_case_offset(0.03, 0.05, 13, 13) == pytest.approx(0.6)
        assert worst_case_offset(0.05, 0.03, 13, 9) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(DomainError):
            worst_case_offset(-0.1, 0.0, 13, 13)
        with pytest.raises(DomainError):
            worst_case_offset(0.0, 0.0, 0, 13)
        with pytest.raises(DomainError):
            worst_case_offset(0.03, math.nan, 13, 13)


class TestEarlyTerminationTime:
    def test_reference_inputs_give_known_stop_time(self):
        ts = early_termination_time(1.0, 0.03, 0.03, 13, 13, 12.0, 3.0, PARAMS)
        assert ts == pytest.approx(3.1445, abs=5e-4)

    def test_zero_disturbance_value(self):
        ts = early_termination_time(1.0, 0.0, 0.0, 13, 13, 12.0, 3.0, PARAMS)
        # frozen from a 50-digit evaluation of the closed form
        assert ts == pytest.approx(2.975140564345631, rel=1e-12)

    def test_infeasible_margin(self):
        with pytest.raises(InfeasibleError):
            early_termination_time(1.0, 0.05, 0.05, 13, 13, 12.0, 3.0, PARAMS)

    def test_monotone_in_disturbance_bounds(self):
        lo = early_termination_time(1.0, 0.0, 0.0, 13, 13, 12.0, 3.0, PARAMS)
        mid = early_termination_time(1.0, 0.01, 0.01, 13, 13, 12.0, 3.0, PARAMS)
        hi = early_termination_time(1.0, 0.03, 0.03, 13, 13, 12.0, 3.0, PARAMS)
        assert lo < mid < hi < 5.0

    def test_zero_initial_error_stops_immediately(self):
        assert early_termination_time(1.0, 0.0, 0.0, 13, 13, 0.0, 3.0, PARAMS) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            early_termination_time(1.0, 0.0, 0.0, 13, 13, 12.0, 1.0, PARAMS)
        with pytest.raises(DomainError):
            early_termination_time(math.inf, 0.0, 0.0, 13, 13, 12.0, 3.0, PARAMS)
        with pytest.raises(DomainError):
            early_termination_time(-1.0, 0.0, 0.0, 13, 13, 12.0, 3.0, PARAMS)
        # NaN fails every comparison, so each input must be checked for it
        for u_minus, u_plus, chi0 in (
            (math.nan, 0.03, 12.0),
            (0.03, math.nan, 12.0),
            (math.inf, 0.03, 12.0),
            (0.03, 0.03, math.nan),
            (0.03, 0.03, math.inf),
        ):
            with pytest.raises(DomainError):
                early_termination_time(1.0, u_minus, u_plus, 13, 13, chi0, 3.0, PARAMS)

    def test_log_space_evaluation_survives_large_diameters(self):
        ts = early_termination_time(1.0, 0.0, 0.0, 800, 800, 12.0, 5.0, PARAMS)
        assert 0.0 < ts < 5.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.035),
        st.floats(min_value=1.1, max_value=10.0),
    )
    def test_feasible_results_stay_below_deadline(self, u, q):
        ts = early_termination_time(1.0, u, u, 13, 13, 12.0, q, PARAMS)
        assert ts < 5.0

    def test_large_margin_can_give_nonpositive_time(self):
        ts = early_termination_time(1e9, 0.0, 0.0, 3, 3, 1.0, 3.0, PARAMS)
        assert ts <= 0.0


class TestOptimalQ:
    def test_never_worse_than_default(self):
        baseline = early_termination_time(1.0, 0.03, 0.03, 13, 13, 12.0, 3.0, PARAMS)
        q_best, ts_best = optimal_q(1.0, 0.03, 0.03, 13, 13, 12.0, PARAMS)
        assert ts_best <= baseline + 1e-12
        assert q_best > 1.0

    def test_infeasibility_propagates(self):
        with pytest.raises(InfeasibleError):
            optimal_q(1.0, 0.05, 0.05, 13, 13, 12.0, PARAMS)


class TestBoundValidityAgainstSimulation:
    def test_uniform_lower_bound_holds_on_random_runs(self):
        for seed in range(6):
            g = random_weighted_graph(seed)
            sol = solve_shortest_paths(g)
            m = build_model(
                DisturbanceSpec(kind="piecewise", amplitude=0.2), g, seed, 5.0
            )
            x0 = constant_initial(g, max(12.0, max(sol.p) + 1.0))
            traj = simulate(g, m, PARAMS, x0, 4.5, sol=sol)
            sol_minus = solve_shortest_paths(minus_graph(g, m.edge_lower))
            chi0 = max(x0[i - 1] - sol.p[i - 1] for i in g.non_sources)
            ((lo, hi),) = compute_bound_curves(
                g, sol, sol_minus, m, x0, 3.0, chi0, PARAMS, traj.times, ("uniform",)
            ).values()
            err = traj.errors[:, [i - 1 for i in g.non_sources]]
            assert np.all(err >= lo - 1e-6)
            assert np.all(err <= np.asarray(hi) + 1e-6)

    def test_every_band_brackets_the_two_extremal_runs(self):
        """The right-hand side is nondecreasing in u, so by the comparison
        principle the runs with u held at +edge_upper and at -edge_lower
        bound every admissible run; each band, built from the run's own
        model, must bracket both.  Criterion 3's graphs, seeds 0-4."""
        worst = dict.fromkeys(BOUND_KINDS, math.inf)
        for seed in range(5):
            g = hop_random_graph(5 + seed % 9, 0.25, seed)
            sol = solve_shortest_paths(g)
            x0 = constant_initial(g, 12.0)
            chi0 = resolve_chi0(g, sol, x0, None)
            cols = [i - 1 for i in g.non_sources]
            for amplitude in (0.4, 0.03):
                model = build_model(
                    DisturbanceSpec(kind="sinusoid", amplitude=amplitude), g, seed, 5.0
                )
                sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
                for cap in (model.edge_upper, -model.edge_lower):
                    # two equal knots spanning the horizon: u(t) = cap throughout
                    extremal = replace(
                        model, rows=(cap, cap), knot_spacing=model.horizon,
                        proportional_fractions=(1.0, 1.0),
                    )
                    traj = simulate(g, extremal, PARAMS, x0, 0.98 * 5.0, sol=sol)
                    curves = compute_bound_curves(
                        g, sol, sol_minus, model, x0, 3.0, chi0, PARAMS, traj.times,
                        BOUND_KINDS,
                    )
                    err = traj.errors[:, cols]
                    for kind, (lower, upper) in curves.items():
                        slack = min(float(np.min(err - lower)), float(np.min(upper - err)))
                        worst[kind] = min(worst[kind], slack)
        print("extremal-run slack per kind:",
              ", ".join(f"{kind} {value:.3e}" for kind, value in worst.items()))
        assert all(value >= -BRACKET_TOL for value in worst.values()), worst
