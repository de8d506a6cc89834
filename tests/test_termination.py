import logging
import math

import numpy as np
import pytest

from dbmc import (
    CycleError,
    DisturbanceModel,
    DisturbanceSpec,
    MissingParentError,
    PreconditionError,
    VERDICT_CORRECT,
    VERDICT_INCORRECT,
    VERDICT_SOURCE,
    build_model,
    build_report,
    check_identification,
    current_parents,
    load_graph,
    reconstruct_path,
    solve_shortest_paths,
    standin13,
)
from dbmc.disturbance import candidate_layout

from helpers import out_edges, random_weighted_graph

LINE3 = "nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n"


def zero_model(g):
    return build_model(DisturbanceSpec(kind="zero"), g, 0, 5.0)


class TestCurrentParents:
    def test_at_solution_without_disturbance_equals_true_parents(self):
        for seed in range(10):
            g = random_weighted_graph(seed)
            sol = solve_shortest_paths(g)
            got = current_parents(g, zero_model(g), np.array(sol.p), 1.0)
            for i in g.non_sources:
                assert got[i] == sol.parents(i)

    def test_model_must_cover_the_graphs_edges(self):
        g = load_graph(LINE3)
        shortcut = load_graph(LINE3 + "3 1 3.0\n")
        x = np.array([0.0, 1.0, 2.0])
        for graph, other in ((g, shortcut), (shortcut, g)):
            with pytest.raises(PreconditionError, match="disturbance model has"):
                current_parents(graph, zero_model(other), x, 0.0)

    def test_tie_window(self):
        g = load_graph("nodes 3\nsources 1 2\n3 1 3.0\n3 2 3.0000005\n")
        x = np.zeros(3)
        strict = current_parents(g, zero_model(g), x, 0.0, tie_tol=0.0)
        wide = current_parents(g, zero_model(g), x, 0.0, tie_tol=1e-6)
        assert strict[3] == frozenset({1})
        assert wide[3] == frozenset({1, 2})

    def test_matches_defining_minimum_with_disturbance(self):
        rng = np.random.default_rng(4)
        for seed in range(8):
            g = random_weighted_graph(seed)
            m = build_model(
                DisturbanceSpec(kind="piecewise", amplitude=0.3), g, seed, 5.0
            )
            x = rng.uniform(0.0, 12.0, g.node_count)
            t = float(rng.uniform(0.0, 5.0))
            got = current_parents(g, m, x, t, tie_tol=0.0)
            u = m.sample_all(t)
            adj = out_edges(g)
            for i in g.non_sources:
                values = {j: x[j - 1] + w + u[k] for j, (w, k) in adj[i].items()}
                best = min(values.values())
                assert got[i] == frozenset(
                    j for j, v in values.items() if v <= best
                )

    def test_proportional_piecewise_parents_without_taking_the_model(self, monkeypatch):
        # current_parents reorders one sample instead of taking the model,
        # which would copy the whole knot table; the parents are those the
        # taken model's candidates give.
        rng = np.random.default_rng(6)
        spec = DisturbanceSpec(
            kind="proportional", alpha_lower=0.1, alpha_upper=0.4, carrier="piecewise"
        )
        for seed in range(6):
            g = random_weighted_graph(seed)
            sol = solve_shortest_paths(g)
            m = build_model(spec, g, seed, 5.0)
            x = rng.uniform(0.0, 12.0, g.node_count)
            t = float(rng.uniform(0.0, 5.0))
            lay = candidate_layout(g, m)
            u = m.take(lay.order).sample_all(t)
            values: dict[int, dict[int, float]] = {i: {} for i in g.non_sources}
            for r, (i, j) in enumerate(zip(lay.tails.tolist(), lay.heads.tolist())):
                values[i + 1][j + 1] = x[j] + lay.weights[r] + u[r]
            want = {
                i: frozenset(j for j, v in vs.items() if v <= min(vs.values()))
                for i, vs in values.items()
            }

            def refuse(model, order):
                raise AssertionError("current_parents took the model")

            with monkeypatch.context() as patch:
                patch.setattr(DisturbanceModel, "take", refuse)
                assert current_parents(g, m, x, t) == want
                assert build_report(g, sol, m, x, t).current == want

    def test_samples_the_disturbance_once(self, monkeypatch):
        g = standin13()
        sol = solve_shortest_paths(g)
        m = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.3), g, 1, 5.0)
        calls = []
        original = DisturbanceModel.sample_all

        def counted(model, t):
            calls.append(t)
            return original(model, t)

        monkeypatch.setattr(DisturbanceModel, "sample_all", counted)
        for tie_tol in (0.0, 1e-9):
            current_parents(g, m, np.array(sol.p), 2.0, tie_tol=tie_tol)
        assert calls == [2.0, 2.0]
        build_report(g, sol, m, np.array(sol.p), 3.0)
        assert calls == [2.0, 2.0, 3.0]

    def test_covers_exactly_non_sources(self):
        g = standin13()
        sol = solve_shortest_paths(g)
        got = current_parents(g, zero_model(g), np.array(sol.p), 0.5)
        assert set(got) == set(g.non_sources)


class TestReconstructPath:
    def test_source_is_singleton(self):
        g = load_graph(LINE3)
        assert reconstruct_path(g, 1, {}) == [1]

    def test_line_traces_to_source(self):
        g = load_graph(LINE3)
        parents = {3: frozenset({2}), 2: frozenset({1})}
        assert reconstruct_path(g, 3, parents) == [3, 2, 1]

    def test_smallest_id_member_is_chosen(self):
        g = load_graph("nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n3 1 2.0\n")
        parents = {3: frozenset({1, 2}), 2: frozenset({1})}
        assert reconstruct_path(g, 3, parents) == [3, 1]

    def test_cycle_detected(self):
        g = load_graph("nodes 3\nsources 1\n3 2 1.0\n2 3 1.0\n2 1 1.0\n")
        parents = {3: frozenset({2}), 2: frozenset({3})}
        with pytest.raises(CycleError):
            reconstruct_path(g, 3, parents)

    def test_missing_parent_detected(self):
        g = load_graph(LINE3)
        with pytest.raises(MissingParentError):
            reconstruct_path(g, 3, {3: frozenset()})

    def test_path_length_under_true_parents_equals_distance(self):
        for seed in range(10):
            g = random_weighted_graph(seed)
            sol = solve_shortest_paths(g)
            truth = {i: sol.parents(i) for i in g.non_sources}
            adj = out_edges(g)
            for i in g.non_sources:
                path = reconstruct_path(g, i, truth)
                total = sum(adj[path[k]][path[k + 1]][0] for k in range(len(path) - 1))
                assert total == pytest.approx(sol.p[i - 1], abs=1e-12)


class TestCheckIdentification:
    def test_exact_match_is_correct(self):
        truth = {2: frozenset({1}), 3: frozenset({2})}
        verdicts, overall = check_identification(truth, truth)
        assert overall and all(v == VERDICT_CORRECT for v in verdicts.values())

    def test_strict_subset_is_correct(self):
        truth = {3: frozenset({1, 2})}
        verdicts, overall = check_identification({3: frozenset({1})}, truth)
        assert overall and verdicts[3] == VERDICT_CORRECT

    def test_foreign_member_fails_that_node(self):
        truth = {2: frozenset({1}), 3: frozenset({2})}
        current = {2: frozenset({1}), 3: frozenset({1})}
        verdicts, overall = check_identification(current, truth)
        assert not overall
        assert verdicts[2] == VERDICT_CORRECT
        assert verdicts[3] == VERDICT_INCORRECT

    def test_empty_set_is_incorrect(self):
        verdicts, overall = check_identification(
            {2: frozenset()}, {2: frozenset({1})}
        )
        assert not overall and verdicts[2] == VERDICT_INCORRECT


class TestSmallErrorGuarantee:
    def test_identification_holds_below_threshold(self):
        # whenever max |e| < (gap - u- - u+)/2, strict verdicts are all correct
        rng = np.random.default_rng(21)
        checked = 0
        for seed in range(40):
            g = random_weighted_graph(seed)
            sol = solve_shortest_paths(g)
            if not math.isfinite(sol.path_gap):
                continue
            m = build_model(
                DisturbanceSpec(kind="sinusoid", amplitude=0.05), g, seed, 5.0
            )
            threshold = (sol.path_gap - m.u_minus - m.u_plus) / 2.0
            if threshold <= 0:
                continue
            e = rng.uniform(-0.95 * threshold, 0.95 * threshold, g.node_count)
            for s in g.sources:
                e[s - 1] = 0.0
            x = np.array(sol.p) + e
            t = float(rng.uniform(0.0, 5.0))
            current = current_parents(g, m, x, t, tie_tol=0.0)
            truth = {i: sol.parents(i) for i in g.non_sources}
            _, overall = check_identification(current, truth)
            assert overall
            checked += 1
        assert checked >= 10


class TestBuildReport:
    def test_report_at_solution(self):
        g = standin13()
        sol = solve_shortest_paths(g)
        report = build_report(g, sol, zero_model(g), np.array(sol.p), 3.0)
        assert report.overall
        assert report.t_s == 3.0
        assert report.verdicts[1] == VERDICT_SOURCE
        assert report.paths[1] == (1,)
        assert report.paths[13] == tuple(range(13, 0, -1))
        doc = report.to_dict()
        assert doc["overall"] is True
        assert doc["nodes"]["8"]["current_parents"] == [7]
        assert doc["nodes"]["8"]["path"] == [8, 7, 6, 5, 4, 3, 2, 1]

    def test_report_flags_misidentification(self):
        g = load_graph("nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n3 1 3.0\n")
        sol = solve_shortest_paths(g)
        x = np.array([0.0, 12.0, 12.0])  # untouched initial states: 3 prefers 3->1
        report = build_report(g, sol, zero_model(g), x, 0.1)
        assert not report.overall
        assert report.verdicts[3] == VERDICT_INCORRECT
        assert report.verdicts[2] == VERDICT_CORRECT

    @pytest.mark.parametrize(
        "level, expected",
        [
            (logging.DEBUG, ["node 3 near-tie: strict parents [1], within 1.0e-09 also [2]"]),
            (logging.WARNING, []),
        ],
        ids=["debug", "warning"],
    )
    def test_near_tie_listing_only_at_debug(self, caplog, level, expected):
        g = load_graph("nodes 3\nsources 1 2\n3 1 3.0\n3 2 3.0000000005\n")
        sol = solve_shortest_paths(g)
        caplog.set_level(level, logger="dbmc")
        report = build_report(g, sol, zero_model(g), np.array(sol.p), 1.0)
        assert report.overall
        assert [r.getMessage() for r in caplog.records] == expected
