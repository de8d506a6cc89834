"""Shared test utilities: independent oracles and seeded graph factories.

The brute-force solver enumerates every simple path with plain DFS, so it
shares no code with the production Dijkstra path and serves as its oracle.
The ``*_csv_loop`` writers format every value on its own, one ``%.17g`` call
per cell, and serve as the oracle for the CSV writers in ``dbmc.harness``;
``assert_same_text`` compares a writer's text with theirs.
``expand_bands`` loads ``scripts/expand_bands.py``, which rebuilds a run's
``bounds.csv`` from its ``bands.csv`` and ``bands.json``.
``build_model_per_kind`` is the earlier disturbance builder, one branch per
kind, and serves as the oracle for ``dbmc.disturbance.build_model``.
``simulate_scatter`` (a scatter-min right-hand side over every edge) and
``bound_curves_per_node`` (one nominal envelope per node and kind) are the
earlier integration loop and bound evaluation, and serve as the oracles for
``dbmc.dynamics.simulate`` and ``dbmc.harness.compute_bound_curves``;
``nominal_envelope_exact`` sums in mpmath the cells where the float loop
overflows, and ``nominal_envelopes`` reads every row of
``dbmc.bounds.NominalEnvelopes`` at once.  ``current_parents_loop`` (a Python loop per node over
``out_edges``) is the oracle for ``dbmc.termination.current_parents``.
``out_edges`` is every test's adjacency, a plain loop over ``g.edges``.
``check_brackets_loop`` is the earlier bracket check, which compares every
block of :func:`dbmc.harness.band_blocks` and reads the whole run again to
report a failure, and serves as the oracle for ``dbmc.harness.check_brackets``.
"""

from __future__ import annotations

import importlib.util
import io
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np

from dbmc import DisturbanceSpec, WeightedDigraph
from dbmc.bounds import (
    NominalEnvelopes,
    chain_initial_errors,
    power_law_envelope,
    worst_case_offset,
)
from dbmc.dynamics import log_integrating_factor
from dbmc.errors import DbmcError
from dbmc.graph import parent_chain
from dbmc.harness import BRACKET_TOL, band_blocks


def out_edges(g: WeightedDigraph) -> dict[int, dict[int, tuple[float, int]]]:
    """Per node i, ``{j: (w, k)}`` over its out-edges in edge order, where
    ``g.edges[k] == (i, j, w)``."""
    adj: dict[int, dict[int, tuple[float, int]]] = {
        i: {} for i in range(1, g.node_count + 1)
    }
    for k, (i, j, w) in enumerate(g.edges):
        adj[i][j] = (w, k)
    return adj


def brute_force_distances(g: WeightedDigraph) -> dict[int, float]:
    """Min over all simple paths to any source, by exhaustive DFS."""
    adj = out_edges(g)

    def shortest_from(i: int, visited: frozenset[int]) -> float:
        if i in g.sources:
            return 0.0
        best = math.inf
        for j, (w, _) in adj[i].items():
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
    adj = out_edges(g)
    out = {}
    for i in range(1, g.node_count + 1):
        if i in g.sources:
            out[i] = frozenset()
            continue
        out[i] = frozenset(
            j for j, (w, _) in adj[i].items() if dist[j] + w <= dist[i] + tol
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


def multi_source_graph(seed: int) -> WeightedDigraph:
    """Seeded random graph of 3-8 nodes with 1-3 sources and edges leaving them.

    The nodes are shuffled with the sources first, each non-source gets an
    edge toward a node before it, and then every other ordered pair is an
    edge with probability 0.3.  Weights are 0.1 to 0.5, on the 1e-3 grid
    and few enough that equal-cost co-parents are common.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    k = int(rng.integers(1, min(3, n - 1) + 1))
    order = (rng.permutation(n) + 1).tolist()

    def weight() -> float:
        return float(rng.integers(1, 6)) / 10.0

    edges = [(order[m], order[int(rng.integers(0, m))], weight()) for m in range(k, n)]
    present = {(i, j) for i, j, _ in edges}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (i, j) not in present and rng.random() < 0.3:
                edges.append((i, j, weight()))
                present.add((i, j))
    return WeightedDigraph(n, frozenset(order[:k]), tuple(edges))


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
    states = traj.errors + traj.p
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
        lower, upper = (np.asarray(band) for band in curves[kind])
        for k, t in enumerate(times):
            ts = _fmt(t)
            for col, i in enumerate(ns):
                buf.write(f"{ts},{i},{_fmt(lower[k, col])},{_fmt(upper[k, col])},{kind}\n")
    return buf.getvalue()


def bands_csv_loop(g: WeightedDigraph, times: np.ndarray, curves: dict) -> str:
    shifted = [upper for kind, (_, upper) in curves.items() if kind != "envelope"]
    names = ["t"]
    if shifted:
        env = shifted[0].env.rows(0, len(times))
        names += [f"env_{i}" for i in g.non_sources]
    if "envelope" in curves:
        band = np.asarray(curves["envelope"][1])[:, 0]
        names.append("envelope")
    buf = io.StringIO()
    buf.write(",".join(names) + "\n")
    for k, t in enumerate(times):
        cells = [_fmt(t)]
        if shifted:
            cells += [_fmt(v) for v in env[k]]
        if "envelope" in curves:
            cells.append(_fmt(band[k]))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def expand_bands():
    """The module ``scripts/expand_bands.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "expand_bands.py"
    spec = importlib.util.spec_from_file_location("expand_bands", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def focus_csv_loop(g: WeightedDigraph, traj, curves: dict, focus: int, kind: str) -> str:
    col = g.non_sources.index(focus)
    lower, upper = (np.asarray(band) for band in curves[kind])
    buf = io.StringIO()
    buf.write("t,error,lower,upper\n")
    err = traj.errors[:, focus - 1]
    for k, t in enumerate(traj.times):
        buf.write(
            f"{_fmt(t)},{_fmt(err[k])},{_fmt(lower[k, col])},{_fmt(upper[k, col])}\n"
        )
    return buf.getvalue()


def assert_same_text(got: str, want: str, what="text") -> None:
    """Assert ``got == want`` and name the first difference cheaply.

    Line counts are compared first, then the first differing line is
    reported with its index, and only then the whole strings, so a mismatch
    in a multi-megabyte file fails at once and not through a full diff.
    """
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    if len(got_lines) != len(want_lines):
        raise AssertionError(f"{what}: {len(got_lines)} lines, want {len(want_lines)}")
    for k, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            raise AssertionError(f"{what}: line {k} is {a!r}, want {b!r}")
    if got != want:
        raise AssertionError(f"{what}: texts differ with equal lines")


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


def simulate_scatter(g, model, params, x0, t_end, sol, max_step=None):
    """RK4 over ``np.minimum.at`` into every node, one sample per stage,
    storing a copy of every step; returns (times, errors).  ``max_step``
    replaces the step cap deadline/5000 of ``simulate``."""
    p = np.asarray(sol.p, dtype=float)
    tails = np.array([i - 1 for i, _, _ in g.edges], dtype=np.intp)
    heads = np.array([j - 1 for _, j, _ in g.edges], dtype=np.intp)
    w = np.array([w for _, _, w in g.edges])
    offsets = p[heads] + w - p[tails]
    src = np.zeros(g.node_count, dtype=bool)
    src[[s - 1 for s in g.sources]] = True
    gamma, two_h2, deadline = params.gamma, 2.0 * (1.0 + params.h), params.deadline

    def rhs(t, e):
        cand = e[heads] + offsets + model.sample_all(t)
        best = np.full(e.shape, np.inf)
        np.minimum.at(best, tails, cand)
        out = (gamma + two_h2 / (deadline - t)) * (best - e)
        out[src] = 0.0
        return out

    h_cap = max_step if max_step is not None else deadline / 5000.0
    e = np.asarray(x0, dtype=float) - p
    t = 0.0
    times = [0.0]
    errors = [e.copy()]
    while t < t_end:
        hs = min(h_cap, 0.01 * (deadline - t))
        last = (t_end - t) <= hs
        if last:
            hs = t_end - t
        k1 = rhs(t, e)
        k2 = rhs(t + 0.5 * hs, e + (0.5 * hs) * k1)
        k3 = rhs(t + 0.5 * hs, e + (0.5 * hs) * k2)
        k4 = rhs(t + hs, e + hs * k3)
        e = e + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_end if last else t + hs
        times.append(t)
        errors.append(e.copy())
    return np.array(times), np.array(errors)


def nominal_envelopes(e0_chains, params, t):
    """Every row of :class:`NominalEnvelopes` in one read, shaped
    ``np.shape(t) + (chains,)``: the production cells, not an oracle."""
    env = NominalEnvelopes(e0_chains, params, t)
    return env.rows(0, env.shape[0]).reshape(np.shape(t) + (env.shape[1],))


def nominal_envelope_loop(e0_chain, params, t):
    """The nominal envelope of one chain, summed term by term.

    Past 170 hops near the deadline L**m and the factorial overflow, and
    the cell is nan.
    """
    e0 = np.asarray(e0_chain, dtype=float)
    lp = np.asarray(log_integrating_factor(params, t), dtype=float)
    total = np.zeros_like(lp)
    fact = 1.0
    for m, coeff in enumerate(e0[::-1]):
        if m > 0:
            fact *= m
        total = total + coeff * lp**m / fact
    return total * np.exp(-lp)


def nominal_envelope_exact(e0_chain, params, t, weights=None):
    """``nominal_envelope_loop``, with every cell it leaves nan summed in
    40-digit mpmath as sum_m e0[ell - m] * L^m exp(-L) / m!.

    ``weights`` maps each L to the weights L^m exp(-L) / m! found so far;
    pass one dict to every chain of a graph, which share L at each time.
    """
    weights = {} if weights is None else weights
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array(nominal_envelope_loop(e0_chain, params, t), dtype=float)
    lp = np.broadcast_to(log_integrating_factor(params, t), out.shape)
    coeffs = [mpmath.mpf(float(c)) for c in reversed(e0_chain)]
    with mpmath.workdps(40):
        for k in zip(*np.nonzero(np.isnan(out))):
            big_l = float(lp[k])
            w = weights.setdefault(big_l, [mpmath.exp(-mpmath.mpf(big_l))])
            for m in range(len(w), len(coeffs)):
                w.append(w[-1] * big_l / m)
            out[k] = float(mpmath.fdot(coeffs, w[: len(coeffs)]))
    return out


def bound_curves_per_node(
    g, sol, sol_minus, model, x0, q, chi0, params, times, kinds,
    envelope=nominal_envelope_loop,
):
    """Every bound kind's (lower, upper) arrays, filled column by column,
    with ``envelope`` giving each node's nominal envelope."""
    ns = g.non_sources
    shape = (len(times), len(ns))
    adj = out_edges(g)
    chains = {i: parent_chain(sol, i) for i in ns}
    env = {
        i: envelope(chain_initial_errors(sol, x0, chains[i]), params, times)
        for i in ns
    }
    curves = {}
    if "chain" in kinds:
        upper = np.empty(shape)
        for col, i in enumerate(ns):
            c = chains[i]
            caps = [
                float(model.edge_upper[adj[c[k + 1]][c[k]][1]])
                for k in range(len(c) - 1)
            ]
            upper[:, col] = env[i] + float(sum(caps))
        curves["chain"] = (np.full(shape, -np.inf), upper)
    if "proportional" in kinds:
        a_lower, a_upper = model.proportional_fractions
        lower, upper = np.empty(shape), np.empty(shape)
        for col, i in enumerate(ns):
            lower[:, col] = -a_lower * sol.p[i - 1]
            upper[:, col] = env[i] + a_upper * sol.p[i - 1]
        curves["proportional"] = (lower, upper)
    if "uniform" in kinds:
        lower, upper = np.empty(shape), np.empty(shape)
        for col, i in enumerate(ns):
            lower[:, col] = -(sol_minus.effective_diameter - 1) * model.u_minus
            upper[:, col] = env[i] + (len(chains[i]) - 1) * model.u_plus
        curves["uniform"] = (lower, upper)
    if "envelope" in kinds:
        offset = worst_case_offset(
            model.u_minus, model.u_plus,
            sol.effective_diameter, sol_minus.effective_diameter,
        )
        band = offset + power_law_envelope(
            chi0, sol.effective_diameter - 1, q, params, times
        )
        curves["envelope"] = (np.tile(-band[:, None], (1, len(ns))),
                              np.tile(band[:, None], (1, len(ns))))
    return curves


def current_parents_loop(g, model, x, t, tie_tol=0.0):
    """Per non-source node, the neighbors within ``tie_tol`` of the disturbed
    minimum, one node at a time through ``out_edges``."""
    x = np.asarray(x, dtype=float)
    u = model.sample_all(t)
    adj = out_edges(g)
    out = {}
    for i in g.non_sources:
        values = [(x[j - 1] + w + u[k], j) for j, (w, k) in adj[i].items()]
        best = min(v for v, _ in values)
        out[i] = frozenset(j for v, j in values if v <= best + tie_tol)
    return out


def check_brackets_loop(g: WeightedDigraph, traj, curves: dict) -> None:
    """Every emitted curve must bracket the simulated errors pointwise.

    The comparisons are negated so that a NaN anywhere fails the check.
    They run over the blocks of :func:`band_blocks`, and each block of
    errors is gathered once for every kind, so the check makes no temporary
    as large as a curve until one fails, and reads no band of a kind that
    has failed.  The error names the first failing kind in ``curves`` order
    and its worst slacks over the whole run.
    """
    cols = [i - 1 for i in g.non_sources]
    failed: set[str] = set()
    for rows, read in band_blocks(len(traj.times), len(cols)):
        err = traj.errors[rows, cols]
        for kind, (lower, upper) in curves.items():
            if kind not in failed and not (
                np.all(err >= read(lower) - BRACKET_TOL)
                and np.all(err <= read(upper) + BRACKET_TOL)
            ):
                failed.add(kind)
    for kind, (lower, upper) in curves.items():
        if kind in failed:
            err = traj.errors[:, cols]
            worst_low = float(np.min(err - lower))
            worst_high = float(np.min(upper - err))
            raise DbmcError(
                f"bound curve {kind!r} fails to bracket the trajectory "
                f"(worst lower slack {worst_low:.3e}, upper slack {worst_high:.3e})"
            )
