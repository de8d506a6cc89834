import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbmc import (
    ParseError,
    UnreachableError,
    ValidationError,
    WeightedDigraph,
    dump_graph,
    load_graph,
    minus_graph,
    parent_chain,
    solve_shortest_paths,
)
from helpers import (
    brute_force_distances,
    brute_force_parents,
    multi_source_graph,
    out_edges,
    random_weighted_graph,
)

LINE3 = "nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n"


def line_text(n):
    lines = [f"nodes {n}", "sources 1"]
    lines += [f"{k} {k - 1} 1.0" for k in range(2, n + 1)]
    return "\n".join(lines) + "\n"


class TestLoadGraph:
    def test_minimal_two_node(self):
        g = load_graph("nodes 2\nsources 1\n2 1 1.0\n")
        assert g.node_count == 2
        assert g.sources == frozenset({1})
        assert g.edges == ((2, 1, 1.0),)

    def test_comments_and_blank_lines(self):
        text = "# header\n\nnodes 2\n  sources 1  # trailing\n\n2 1 0.5 # w\n"
        g = load_graph(text)
        assert g.edges == ((2, 1, 0.5),)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            load_graph("nodes 2\nsources 1\n2 2 1.0\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            load_graph("nodes 2\nsources 1\n2 1 1.0\n2 1 2.0\n")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError, match="weight"):
            load_graph("nodes 2\nsources 1\n2 1 0\n")
        with pytest.raises(ValidationError, match="weight"):
            load_graph("nodes 2\nsources 1\n2 1 -3\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            load_graph("nodes 2\nsources 1\n2 1 abc\n")
        with pytest.raises(ParseError, match="line 1"):
            load_graph("vertices 2\nsources 1\n")

    def test_malformed_edge_line(self):
        with pytest.raises(ParseError, match="expected 'i j w'"):
            load_graph("nodes 2\nsources 1\n2 1\n")

    def test_truncated_document(self):
        with pytest.raises(ParseError):
            load_graph("nodes 4\n")

    def test_sources_must_be_proper_subset(self):
        with pytest.raises(ValidationError):
            load_graph("nodes 2\nsources 1 2\n2 1 1.0\n")

    def test_unknown_node_id(self):
        with pytest.raises(ValidationError, match="unknown node"):
            load_graph("nodes 2\nsources 1\n3 1 1.0\n")

    def test_line13_is_valid(self):
        g = load_graph(line_text(13))
        assert g.node_count == 13
        assert len(g.edges) == 12

    def test_roundtrip(self):
        g = load_graph("nodes 3\nsources 1 2\n3 1 0.125\n3 2 2.5\n")
        assert load_graph(dump_graph(g)) == g

    def test_huge_node_id_is_an_unknown_node(self):
        with pytest.raises(ValidationError, match="unknown node"):
            load_graph(f"nodes 2\nsources 1\n{10**20} 1 1.0\n")
        with pytest.raises(ValidationError, match="unknown node"):
            load_graph(f"nodes 2\nsources 1\n2 {-10**20} 1.0\n")


class TestEdgeArrays:
    def test_arrays_match_edges(self):
        for seed in range(10):
            g = random_weighted_graph(seed)
            assert g.tails.dtype == g.heads.dtype == np.intp
            assert [(i + 1, j + 1, w) for i, j, w in zip(
                g.tails.tolist(), g.heads.tolist(), g.weights.tolist()
            )] == list(g.edges)

    def test_arrays_are_read_only(self):
        g = load_graph(LINE3)
        for a in (g.tails, g.heads, g.weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
        assert g == load_graph(LINE3)


def solves(g):
    """True when the solver accepts ``g``, False when it raises UnreachableError."""
    try:
        solve_shortest_paths(g)
    except UnreachableError:
        return False
    return True


class TestReachability:
    def test_two_node_true(self):
        assert solves(load_graph("nodes 2\nsources 1\n2 1 1.0\n"))

    def test_isolated_node_false(self):
        assert not solves(WeightedDigraph(3, frozenset({1}), ((2, 1, 1.0),)))

    def test_line13_matches_reverse_bfs_oracle(self):
        g = load_graph(line_text(13))
        adj = out_edges(g)
        # independent oracle: forward walks from every node
        def reaches_source(start):
            frontier, seen = [start], {start}
            while frontier:
                i = frontier.pop()
                if i in g.sources:
                    return True
                for j in adj[i]:
                    if j not in seen:
                        seen.add(j)
                        frontier.append(j)
            return False

        assert solves(g) == all(
            reaches_source(i) for i in range(1, 14)
        )

    def test_solver_refuses_unreachable(self):
        g = WeightedDigraph(3, frozenset({1}), ((2, 1, 1.0),))
        with pytest.raises(UnreachableError, match="3"):
            solve_shortest_paths(g)

    def test_unreachable_message_lists_every_stranded_node(self):
        # 4, 5 and 6 only reach each other; a source's edge into 5 does not help
        edges = ((6, 4, 1.0), (3, 1, 1.0), (4, 6, 1.0), (5, 4, 2.0), (1, 5, 1.0))
        g = WeightedDigraph(6, frozenset({1, 2}), edges)
        with pytest.raises(UnreachableError) as exc:
            solve_shortest_paths(g)
        assert str(exc.value) == "nodes [4, 5, 6] cannot reach any source"


class TestSolve:
    def test_line3(self):
        sol = solve_shortest_paths(load_graph(LINE3))
        assert sol.p == (0.0, 1.0, 2.0)
        assert sol.parents(3) == frozenset({2})
        assert sol.parents(2) == frozenset({1})
        assert sol.effective_diameter == 3
        assert math.isinf(sol.path_gap)

    def test_line3_with_competitor(self):
        g = load_graph(LINE3 + "3 1 3.0\n")
        sol = solve_shortest_paths(g)
        assert sol.p[2] == 2.0
        assert sol.parents(3) == frozenset({2})
        assert sol.path_gap == pytest.approx(1.0, abs=1e-12)

    def test_line13_diameter(self):
        sol = solve_shortest_paths(load_graph(line_text(13)))
        assert sol.effective_diameter == 13

    def test_equal_cost_routes_are_co_parents(self):
        g = load_graph("nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n3 1 2.0\n")
        sol = solve_shortest_paths(g)
        assert sol.parents(3) == frozenset({1, 2})

    def test_parent_links_tight_and_competitors_gapped(self):
        for seed in range(25):
            g = random_weighted_graph(seed)
            sol = solve_shortest_paths(g)
            adj = out_edges(g)
            for i in g.non_sources:
                for j, (w, _) in adj[i].items():
                    value = sol.p[j - 1] + w
                    if j in sol.parents(i):
                        assert abs(value - sol.p[i - 1]) <= 1e-12
                    else:
                        assert value >= sol.p[i - 1] + sol.path_gap - 1e-12


class TestParentChain:
    def test_chain_reaches_source_with_matching_length(self):
        for seed in range(25):
            g = random_weighted_graph(seed)
            sol = solve_shortest_paths(g)
            adj = out_edges(g)
            for i in g.non_sources:
                chain = parent_chain(sol, i)
                assert chain[0] in g.sources
                assert chain[-1] == i
                assert len(chain) - 1 <= sol.effective_diameter - 1
                total = sum(adj[chain[k + 1]][chain[k]][0] for k in range(len(chain) - 1))
                assert total == pytest.approx(sol.p[i - 1], abs=1e-12)

    def test_tie_break_smallest_id(self):
        g = load_graph("nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n3 1 2.0\n")
        sol = solve_shortest_paths(g)
        assert parent_chain(sol, 3) == [1, 3]

    def test_source_chain_is_singleton(self):
        sol = solve_shortest_paths(load_graph(LINE3))
        assert parent_chain(sol, 1) == [1]


class TestMinusAndScale:
    def test_minus_zero_is_identity(self):
        g = load_graph(LINE3)
        assert minus_graph(g, 0.0) == g

    def test_minus_uniform_keeps_structure(self):
        g = load_graph(line_text(13))
        gm = minus_graph(g, 0.03)
        assert all(w == pytest.approx(0.97, abs=1e-15) for _, _, w in gm.edges)
        sol, solm = solve_shortest_paths(g), solve_shortest_paths(gm)
        assert sol.true_parents == solm.true_parents
        assert sol.effective_diameter == solm.effective_diameter

    def test_minus_rejects_bound_at_weight(self):
        g = load_graph(LINE3)
        with pytest.raises(ValidationError):
            minus_graph(g, 1.0)

    def test_minus_per_edge_sequence(self):
        g = load_graph(LINE3)
        gm = minus_graph(g, [0.1, 0.2])
        assert gm.edges == ((3, 2, 0.9), (2, 1, 0.8))

    def test_minus_rejects_wrong_length(self):
        g = load_graph(LINE3)
        for lows in ([0.1], [0.1, 0.2, 0.3], np.zeros(0)):
            with pytest.raises(ValidationError, match="expected 2 per-edge values"):
                minus_graph(g, lows)

    def test_minus_names_first_offending_edge(self):
        g = load_graph(LINE3)
        with pytest.raises(ValidationError) as exc:
            minus_graph(g, np.array([0.1, 1.0]))
        assert str(exc.value) == "lower disturbance bound 1.0 not in [0, w) on edge (2, 1)"
        with pytest.raises(ValidationError, match=r"bound 2\.0 .* edge \(3, 2\)"):
            minus_graph(g, np.array([2.0, 3.0]))
        with pytest.raises(ValidationError, match=r"bound nan .* edge \(3, 2\)"):
            minus_graph(g, [math.nan, 0.1])
        with pytest.raises(ValidationError, match=r"bound -0\.5 .* edge \(2, 1\)"):
            minus_graph(g, [0.1, -0.5])

    def test_scale_preserves_argmin_structure(self):
        for seed in range(15):
            g = random_weighted_graph(seed)
            sol = solve_shortest_paths(g)
            edges = tuple((i, j, w * 0.6) for i, j, w in g.edges)
            scaled = solve_shortest_paths(WeightedDigraph(g.node_count, g.sources, edges))
            assert scaled.true_parents == sol.true_parents
            assert scaled.effective_diameter == sol.effective_diameter
            for a, b in zip(scaled.p, sol.p):
                assert a == pytest.approx(0.6 * b, abs=1e-12)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    edges = []
    present = set()
    for k in range(2, n + 1):
        j = draw(st.integers(min_value=1, max_value=k - 1))
        w = draw(st.integers(min_value=1, max_value=5000)) / 1000.0
        edges.append((k, j, w))
        present.add((k, j))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=n),
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=1, max_value=5000),
            ),
            max_size=8,
        )
    )
    for i, j, millis in extra:
        if i != j and (i, j) not in present:
            edges.append((i, j, millis / 1000.0))
            present.add((i, j))
    return WeightedDigraph(n, frozenset({1}), tuple(edges))


class TestOracleEquivalence:
    def test_multi_source_graphs_match_brute_force(self):
        co_parents = source_edges = multi_source = 0
        for seed in range(40):
            g = multi_source_graph(seed)
            nodes = range(1, g.node_count + 1)
            sol = solve_shortest_paths(g)
            dist = brute_force_distances(g)
            parents = brute_force_parents(g, dist)
            assert sol.p == pytest.approx([dist[i] for i in nodes], abs=1e-12)
            assert sol.true_parents == tuple(parents[i] for i in nodes)

            def chain_nodes(i):
                return 1 + max((chain_nodes(j) for j in parents[i]), default=0)

            assert sol.effective_diameter == max(chain_nodes(i) for i in nodes)
            adj = out_edges(g)
            gap = min(
                (dist[j] + w - dist[i] for i in g.non_sources
                 for j, (w, _) in adj[i].items() if j not in parents[i]),
                default=math.inf,
            )
            assert sol.path_gap == pytest.approx(gap, abs=1e-12)
            co_parents += sum(len(ps) > 1 for ps in sol.true_parents)
            source_edges += sum(i in g.sources for i, _, _ in g.edges)
            multi_source += len(g.sources) > 1
        assert co_parents and source_edges and multi_source

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_matches_simple_path_enumeration(self, g):
        sol = solve_shortest_paths(g)
        dist = brute_force_distances(g)
        for i in range(1, g.node_count + 1):
            assert sol.p[i - 1] == pytest.approx(dist[i], abs=1e-12)
        parents = brute_force_parents(g, dist)
        for i in g.non_sources:
            assert sol.parents(i) == parents[i]
