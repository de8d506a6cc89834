"""Weighted directed graphs and their shortest-path structure.

Node ids are 1-based integers.  An edge (i, j, w) means node i can hand off
to node j at cost w > 0.  A nonempty proper subset of nodes acts as sources;
every other node wants the cheapest directed route to any source.

A graph is its edge list plus three read-only arrays of it (tails, heads,
weights).  Those arrays are the one per-edge view: the solver groups them
by head itself, and reachability is read off Dijkstra's own distances, a
node left at infinity being one that cannot reach a source.

Besides plain distances, the solver extracts the structure the rest of the
package feeds on:

* ``true_parents`` -- per node, the out-neighbors attaining the minimum of
  ``p_j + w_ij`` over the neighborhood;
* ``effective_diameter`` -- the largest node count of a chain that follows
  true-parent links down to a source;
* ``path_gap`` -- the smallest margin by which any non-optimal neighbor
  choice loses, over all non-source nodes (+inf when nothing competes).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ParseError, UnreachableError, ValidationError

# Membership tolerance for argmin sets; edge weights are assumed to dwarf it.
ARGMIN_TOL = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    # setflags, not flags.writeable = False: numpy 2.4 leaks a few bytes on
    # each of those
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with positive edge weights and a set of source nodes.

    ``edges`` is the one edge list.  ``tails``, ``heads`` and ``weights``
    are read-only arrays of it in the same order, with 0-based node ids;
    they are the only per-edge view, and a reader that needs the edges
    grouped by node sorts them itself.
    """

    node_count: int
    sources: frozenset[int]
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 2:
            raise ValidationError("graph needs at least two nodes")
        if not self.sources:
            raise ValidationError("source set is empty")
        if any(not (1 <= s <= n) for s in self.sources):
            raise ValidationError("source id outside 1..node_count")
        if len(self.sources) >= n:
            raise ValidationError("every node is a source; nothing to solve")
        seen: set[tuple[int, int]] = set()
        for i, j, w in self.edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(f"edge ({i}, {j}) references an unknown node")
            if i == j:
                raise ValidationError(f"self-loop on node {i}")
            if not math.isfinite(w) or w <= 0.0:
                raise ValidationError(f"edge ({i}, {j}) has nonpositive weight {w!r}")
            if (i, j) in seen:
                raise ValidationError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    @cached_property
    def tails(self) -> np.ndarray:
        return _read_only(np.array([i - 1 for i, _, _ in self.edges], dtype=np.intp))

    @cached_property
    def heads(self) -> np.ndarray:
        return _read_only(np.array([j - 1 for _, j, _ in self.edges], dtype=np.intp))

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(np.array([w for _, _, w in self.edges], dtype=float))

    @property
    def non_sources(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.node_count + 1) if i not in self.sources)


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what} {token!r}") from None


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what} {token!r}") from None


def load_graph(text: str) -> WeightedDigraph:
    """Parse the line-oriented edge-list format.

    First significant line is ``nodes N``, second is ``sources s1 [s2 ...]``,
    every following line is ``i j w``.  ``#`` starts a comment; blank lines
    are ignored.  Raises :class:`ParseError` with the offending line number,
    or :class:`ValidationError` when the parsed graph breaks an invariant.
    """
    node_count: int | None = None
    sources: list[int] = []
    edges: list[tuple[int, int, float]] = []
    stage = 0  # 0: expect "nodes", 1: expect "sources", 2: edge lines
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if stage == 0:
            if parts[0] != "nodes" or len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'nodes N'")
            node_count = _parse_int(parts[1], lineno, "node count")
            stage = 1
        elif stage == 1:
            if parts[0] != "sources" or len(parts) < 2:
                raise ParseError(f"line {lineno}: expected 'sources s1 [s2 ...]'")
            sources = [_parse_int(p, lineno, "source id") for p in parts[1:]]
            stage = 2
        else:
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'i j w'")
            i = _parse_int(parts[0], lineno, "tail id")
            j = _parse_int(parts[1], lineno, "head id")
            w = _parse_float(parts[2], lineno, "weight")
            edges.append((i, j, w))
    if stage != 2 or node_count is None:
        raise ParseError("document ended before the 'nodes'/'sources' headers")
    return WeightedDigraph(node_count, frozenset(sources), tuple(edges))


def dump_graph(g: WeightedDigraph) -> str:
    """Inverse of :func:`load_graph`; weights keep 17 significant digits."""
    lines = [f"nodes {g.node_count}"]
    lines.append("sources " + " ".join(str(s) for s in sorted(g.sources)))
    for i, j, w in g.edges:
        lines.append(f"{i} {j} {w:.17g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ShortestPathSolution:
    """Distances to the nearest source plus derived structure.

    Tuples are indexed by ``node_id - 1``.  ``path_gap`` is ``math.inf``
    when no node has a competing (non-optimal) out-edge.
    """

    p: tuple[float, ...]
    true_parents: tuple[frozenset[int], ...]
    effective_diameter: int
    path_gap: float

    def parents(self, i: int) -> frozenset[int]:
        return self.true_parents[i - 1]


def solve_shortest_paths(g: WeightedDigraph) -> ShortestPathSolution:
    """Multi-source Dijkstra on the edge-reversed graph.

    Raises :class:`UnreachableError` when some node cannot reach a source,
    that is, when Dijkstra leaves its distance infinite.  Argmin-set
    membership uses the ``ARGMIN_TOL`` cushion so that floating point dust
    cannot drop a genuinely optimal parent.
    """
    n = g.node_count
    # in-edges grouped by head, in edge order within a group
    by_head = np.argsort(g.heads, kind="stable")
    first_in = [0] + np.cumsum(np.bincount(g.heads, minlength=n)).tolist()
    in_tails = g.tails[by_head].tolist()
    in_weights = g.weights[by_head].tolist()
    dist = [math.inf] * n
    heap: list[tuple[float, int]] = []
    for s in sorted(g.sources):
        dist[s - 1] = 0.0
        heapq.heappush(heap, (0.0, s - 1))
    while heap:
        d, j = heapq.heappop(heap)
        if d > dist[j]:
            continue
        for k in range(first_in[j], first_in[j + 1]):
            i, nd = in_tails[k], d + in_weights[k]
            if nd < dist[i]:
                dist[i] = nd
                heapq.heappush(heap, (nd, i))
    missing = [i + 1 for i in range(n) if math.isinf(dist[i])]
    if missing:
        raise UnreachableError(f"nodes {missing} cannot reach any source")

    p = np.array(dist)
    src = np.zeros(n, dtype=bool)
    src[[s - 1 for s in g.sources]] = True
    judged = ~src[g.tails]  # an edge leaving a source is no parent link or competitor
    via = p[g.heads] + g.weights
    tight = via <= p[g.tails] + ARGMIN_TOL
    members: list[set[int]] = [set() for _ in range(n)]
    links = judged & tight
    for i, j in zip(g.tails[links].tolist(), g.heads[links].tolist()):
        members[i].add(j + 1)
    parents = tuple(frozenset(m) for m in members)
    rivals = judged & ~tight
    gap = float(np.min(via[rivals] - p[g.tails[rivals]], initial=math.inf))

    # Longest parent chain: parents always have strictly smaller distance,
    # so a sweep in increasing-distance order sees them first.
    longest = [1] * n
    for i in sorted(range(n), key=dist.__getitem__):
        if parents[i]:
            longest[i] = 1 + max(longest[j - 1] for j in parents[i])

    return ShortestPathSolution(
        p=tuple(dist),
        true_parents=parents,
        effective_diameter=max(longest),
        path_gap=gap,
    )


def parent_chain(sol: ShortestPathSolution, node: int) -> list[int]:
    """Source-first chain of true parents ending at ``node``.

    Ties are broken toward the smallest node id, so the chain is unique and
    reproducible.  A source yields the one-element chain ``[node]``.
    """
    chain = [node]
    cur = node
    while sol.true_parents[cur - 1]:
        cur = min(sol.true_parents[cur - 1])
        chain.append(cur)
        if len(chain) > len(sol.p):
            raise ValidationError("true-parent relation contains a cycle")
    chain.reverse()
    return chain


def minus_graph(
    g: WeightedDigraph, lower_bounds: float | Sequence[float] | np.ndarray
) -> WeightedDigraph:
    """Graph with each weight shrunk by its worst-case negative disturbance.

    ``lower_bounds`` is a scalar or one value per edge, aligned with
    ``g.edges``.  Every bound must satisfy 0 <= u < w.
    """
    lows = np.asarray(lower_bounds, dtype=float)
    if lows.ndim == 0:
        lows = np.full(len(g.edges), lows)
    if lows.shape != (len(g.edges),):
        raise ValidationError(f"expected {len(g.edges)} per-edge values, got {lows.size}")
    new_edges = []
    for (i, j, w), u in zip(g.edges, lows.tolist()):
        if not 0.0 <= u < w:
            raise ValidationError(
                f"lower disturbance bound {u!r} not in [0, w) on edge ({i}, {j})"
            )
        new_edges.append((i, j, w - u))
    return WeightedDigraph(g.node_count, g.sources, tuple(new_edges))
