"""Graph generators for simulation studies, and GRAPH_KINDS, every graph kind.

All generators emit graphs whose every node reaches node 1, the sole source.
Weights are 1 unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import MISSING
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import SpecError
from .graph import WeightedDigraph, load_graph

# hop-random defaults, which `dbmc gen` shares
EXTRA_EDGE_PROB = 0.2
GRAPH_SEED = 0


def line_graph(n: int) -> WeightedDigraph:
    """Chain n -> n-1 -> ... -> 1 with unit weights."""
    if n < 2:
        raise SpecError("line graph needs n >= 2")
    edges = tuple((k, k - 1, 1.0) for k in range(2, n + 1))
    return WeightedDigraph(n, frozenset({1}), edges)


def hop_random_graph(n: int, extra_edge_prob: float, seed: int) -> WeightedDigraph:
    """Random unit-weight graph: a random in-tree toward node 1 plus extra edges."""
    if n < 2:
        raise SpecError("hop-random graph needs n >= 2")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise SpecError("extra_edge_prob must lie in [0, 1]")
    if seed < 0:
        raise SpecError(f"graph seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    edges = [(k, int(rng.integers(1, k)), 1.0) for k in range(2, n + 1)]
    # Row i draws one number per head other than i and its tree parent, in
    # increasing head order: n - 2 draws, the same stream as one draw per
    # candidate pair.
    heads = np.arange(1, n + 1)
    for i, parent, _ in edges[: n - 1]:
        eligible = heads[(heads != i) & (heads != parent)]
        chosen = eligible[rng.random(n - 2) < extra_edge_prob]
        edges.extend((i, j, 1.0) for j in chosen.tolist())
    return WeightedDigraph(n, frozenset({1}), tuple(edges))


def grid_graph(rows: int, cols: int) -> WeightedDigraph:
    """Rectangular grid, edges pointing left and up toward node 1 at the corner.

    Interior nodes have two true parents and no competitor edges, so the
    path gap of the solved graph is infinite.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise SpecError("grid needs at least two nodes")
    def nid(r: int, c: int) -> int:
        return (r - 1) * cols + c
    edges = []
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if c > 1:
                edges.append((nid(r, c), nid(r, c - 1), 1.0))
            if r > 1:
                edges.append((nid(r, c), nid(r - 1, c), 1.0))
    return WeightedDigraph(rows * cols, frozenset({1}), tuple(edges))


def standin13() -> WeightedDigraph:
    """13-node near-line benchmark with a unit competitor margin.

    A chain 13 -> 12 -> ... -> 1 carries the optimal routes; the link
    8 -> 7 is shortened to 0.5 so that the added competitor edge 7 -> 8
    (weight 0.5) loses by exactly 1.  Every other interior node k gets a
    competitor edge k -> k+1 of weight 1, losing by 2.  The longest parent
    chain spans all 13 nodes, the largest weight is 1, and the path gap is
    exactly 1, so a fractional weight disturbance of amplitude a yields
    uniform bounds a on both sides.
    """
    edges = []
    for k in range(2, 14):
        edges.append((k, k - 1, 0.5 if k == 8 else 1.0))
    for k in range(2, 13):
        edges.append((7, 8, 0.5) if k == 7 else (k, k + 1, 1.0))
    return WeightedDigraph(13, frozenset({1}), tuple(edges))


def file_graph(path: str) -> WeightedDigraph:
    """The graph of the edge-list file at ``path``."""
    return load_graph(Path(path).read_text(encoding="utf-8"))


# Every graph kind: its builder and its [graph] keys, which the builder takes
# by name, each with its type and default (MISSING for a required key).
GRAPH_KINDS = {
    "file": (file_graph, {"path": (str, MISSING)}),
    "line": (line_graph, {"n": (int, MISSING)}),
    "hop-random": (hop_random_graph, {"n": (int, MISSING),
                   "extra_edge_prob": (float, EXTRA_EDGE_PROB), "seed": (int, GRAPH_SEED)}),
    "grid": (grid_graph, {"rows": (int, MISSING), "cols": (int, MISSING)}),
    "standin13": (standin13, {}),
}
# the kinds `dbmc gen` offers: every kind but file, which reads its graph
GENERATED_KINDS = tuple(kind for kind in GRAPH_KINDS if kind != "file")


def generate_graph(spec: Mapping) -> WeightedDigraph:
    """The graph of the kind ``spec['kind']`` from its keys in ``spec``; other items are ignored."""
    kind = spec.get("kind")
    if kind not in GRAPH_KINDS:
        raise SpecError(f"unknown graph kind {kind!r}")
    build, keys = GRAPH_KINDS[kind]
    args = {}
    for key, (convert, default) in keys.items():
        value = spec.get(key, default)
        if value is MISSING:
            raise SpecError(f"graph spec is missing key {key!r}")
        args[key] = convert(value)
    return build(**args)


def synthetic_positions(spec: Mapping, g: WeightedDigraph) -> dict[int, tuple[float, float]] | None:
    """Cosmetic node layout for plot overlays; None when nothing natural exists."""
    kind = spec.get("kind")
    if kind in ("line", "standin13"):
        return {i: (float(i - 1), 0.0) for i in range(1, g.node_count + 1)}
    if kind == "grid":
        cols = int(spec["cols"])
        return {
            i: (float((i - 1) % cols), -float((i - 1) // cols))
            for i in range(1, g.node_count + 1)
        }
    if kind == "hop-random":
        n = g.node_count
        return {
            i: (float(np.cos(2 * np.pi * (i - 1) / n)), float(np.sin(2 * np.pi * (i - 1) / n)))
            for i in range(1, n + 1)
        }
    return None
