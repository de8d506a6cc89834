"""Shared test utilities: independent oracles and seeded graph factories.

The brute-force solver enumerates every simple path with plain DFS, so it
shares no code with the production Dijkstra path and serves as its oracle.
The ``*_csv_loop`` writers format every value on its own, one ``%.17g`` call
per cell, and serve as the oracle for the CSV writers in ``dbmc.harness``.
``build_model_per_kind`` is the earlier disturbance builder, one branch per
kind, and serves as the oracle for ``dbmc.disturbance.build_model``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from dbmc import DisturbanceSpec, WeightedDigraph


def brute_force_distances(g: WeightedDigraph) -> dict[int, float]:
    """Min over all simple paths to any source, by exhaustive DFS."""
    adj = {i: list(g.out_adjacency[i - 1]) for i in range(1, g.node_count + 1)}

    def shortest_from(i: int, visited: frozenset[int]) -> float:
        if i in g.sources:
            return 0.0
        best = math.inf
        for j, w in adj[i]:
            if j in visited:
                continue
            tail = shortest_from(j, visited | {j})
            if w + tail < best:
                best = w + tail
        return best

    return {i: shortest_from(i, frozenset({i})) for i in range(1, g.node_count + 1)}


def brute_force_parents(
    g: WeightedDigraph, dist: dict[int, float], tol: float = 1e-12
) -> dict[int, frozenset[int]]:
    out = {}
    for i in range(1, g.node_count + 1):
        if i in g.sources:
            out[i] = frozenset()
            continue
        out[i] = frozenset(
            j for j, w in g.out_adjacency[i - 1] if dist[j] + w <= dist[i] + tol
        )
    return out


def random_weighted_graph(seed: int, max_nodes: int = 10) -> WeightedDigraph:
    """Seeded random graph: in-tree toward node 1 plus extra edges.

    Weights land on a 1e-3 grid so floating-point dust cannot flip argmin
    membership near the comparison tolerance.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, max_nodes + 1))

    def weight() -> float:
        return float(rng.integers(1, 5001)) / 1000.0

    edges = [(k, int(rng.integers(1, k)), weight()) for k in range(2, n + 1)]
    present = {(i, j) for i, j, _ in edges}
    for i in range(2, n + 1):
        for j in range(1, n + 1):
            if i != j and (i, j) not in present and rng.random() < 0.25:
                edges.append((i, j, weight()))
                present.add((i, j))
    return WeightedDigraph(n, frozenset({1}), tuple(edges))


def hop_random_graph_loop(n: int, extra_edge_prob: float, seed: int) -> WeightedDigraph:
    """Scalar-draw reference for ``hop_random_graph``: one ``rng.random()`` per
    candidate pair, short-circuited past self-loops and tree edges."""
    rng = np.random.default_rng(seed)
    edges = [(k, int(rng.integers(1, k)), 1.0) for k in range(2, n + 1)]
    present = {(i, j) for i, j, _ in edges}
    for i in range(2, n + 1):
        for j in range(1, n + 1):
            if i != j and (i, j) not in present and rng.random() < extra_edge_prob:
                edges.append((i, j, 1.0))
                present.add((i, j))
    return WeightedDigraph(n, frozenset({1}), tuple(edges))


def constant_initial(g: WeightedDigraph, value: float) -> np.ndarray:
    x0 = np.full(g.node_count, float(value))
    for s in g.sources:
        x0[s - 1] = 0.0
    return x0


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def trajectory_csv_loop(traj) -> str:
    n = traj.errors.shape[1]
    buf = io.StringIO()
    buf.write("t," + ",".join(f"x_{i}" for i in range(1, n + 1)) + "\n")
    states = traj.states
    for k in range(len(traj.times)):
        buf.write(_fmt(traj.times[k]) + "," + ",".join(_fmt(v) for v in states[k]) + "\n")
    return buf.getvalue()


def errors_csv_loop(traj) -> str:
    n = traj.errors.shape[1]
    buf = io.StringIO()
    buf.write("t," + ",".join(f"e_{i}" for i in range(1, n + 1)) + "\n")
    for k in range(len(traj.times)):
        buf.write(
            _fmt(traj.times[k]) + "," + ",".join(_fmt(v) for v in traj.errors[k]) + "\n"
        )
    return buf.getvalue()


def bounds_csv_loop(g: WeightedDigraph, times: np.ndarray, curves: dict) -> str:
    buf = io.StringIO()
    buf.write("t,node,lower,upper,kind\n")
    ns = g.non_sources
    for kind in ("chain", "proportional", "uniform", "envelope"):
        if kind not in curves:
            continue
        lower, upper = curves[kind]
        for k, t in enumerate(times):
            ts = _fmt(t)
            for col, i in enumerate(ns):
                buf.write(f"{ts},{i},{_fmt(lower[k, col])},{_fmt(upper[k, col])},{kind}\n")
    return buf.getvalue()


def focus_csv_loop(g: WeightedDigraph, traj, curves: dict, focus: int, kind: str) -> str:
    col = g.non_sources.index(focus)
    lower, upper = curves[kind]
    buf = io.StringIO()
    buf.write("t,error,lower,upper\n")
    err = traj.error_of(focus)
    for k, t in enumerate(traj.times):
        buf.write(
            f"{_fmt(t)},{_fmt(err[k])},{_fmt(lower[k, col])},{_fmt(upper[k, col])}\n"
        )
    return buf.getvalue()


@dataclass
class PerKindModel:
    """Samples and envelopes of the per-kind builder below."""

    kind: str
    edge_lower: np.ndarray
    edge_upper: np.ndarray
    u_minus: float
    u_plus: float
    omega: float
    sin_coef: np.ndarray | None
    cos_coef: np.ndarray | None
    knot_values: np.ndarray | None
    knot_spacing: float
    carrier: str | None

    def _carrier_values(self, t: float) -> np.ndarray:
        if self.carrier == "sinusoid":
            wt = self.omega * t
            return self.sin_coef * math.sin(wt) + self.cos_coef * math.cos(wt)
        k = min(int(t / self.knot_spacing), self.knot_values.shape[1] - 2)
        frac = t / self.knot_spacing - k
        return self.knot_values[:, k] * (1.0 - frac) + self.knot_values[:, k + 1] * frac

    def sample_all(self, t: float) -> np.ndarray:
        if self.carrier is None:
            return np.zeros(len(self.edge_lower))
        c = self._carrier_values(t)
        if self.kind != "proportional":
            return c
        return np.where(c >= 0.0, self.edge_upper, self.edge_lower) * c


def build_model_per_kind(
    spec: DisturbanceSpec, g: WeightedDigraph, seed: int, horizon: float
) -> PerKindModel:
    """One branch per kind: the sinusoid and piecewise kinds scale their
    carrier by amplitude*w, the proportional kind keeps a unit carrier and
    multiplies each sample by alpha*w, and its envelope is alpha*w."""
    w = np.array([e[2] for e in g.edges])
    n_edges = len(g.edges)
    rng = np.random.default_rng(seed)

    def phases() -> np.ndarray:
        if spec.phase is not None:
            return np.full(n_edges, float(spec.phase))
        return rng.uniform(0.0, 2.0 * math.pi, n_edges)

    knot_dt = spec.knot_spacing if spec.knot_spacing is not None else horizon / 500.0
    n_knots = int(math.ceil(horizon / knot_dt)) + 1
    sin_coef = cos_coef = knots = carrier = None
    if spec.kind == "zero":
        lower = np.zeros(n_edges)
        upper = np.zeros(n_edges)
    elif spec.kind == "sinusoid":
        carrier = "sinusoid"
        ph = phases()
        lower = spec.amplitude * w
        upper = lower.copy()
        sin_coef, cos_coef = lower * np.cos(ph), lower * np.sin(ph)
    elif spec.kind == "piecewise":
        carrier = "piecewise"
        knots = rng.uniform(-1.0, 1.0, (n_edges, n_knots)) * (spec.amplitude * w)[:, None]
        lower = np.maximum(0.0, -knots.min(axis=1))
        upper = np.maximum(0.0, knots.max(axis=1))
    else:  # proportional
        carrier = spec.carrier
        if carrier == "sinusoid":
            ph = phases()
            sin_coef, cos_coef = np.cos(ph), np.sin(ph)
        else:
            knots = rng.uniform(-1.0, 1.0, (n_edges, n_knots))
        lower = spec.alpha_lower * w
        upper = spec.alpha_upper * w
    u_minus = float(lower.max(initial=0.0))
    u_plus = float(upper.max(initial=0.0))
    if spec.uniform_lower is not None:
        u_minus = float(spec.uniform_lower)
    if spec.uniform_upper is not None:
        u_plus = float(spec.uniform_upper)
    return PerKindModel(spec.kind, lower, upper, u_minus, u_plus, spec.omega,
                        sin_coef, cos_coef, knots, knot_dt, carrier)
