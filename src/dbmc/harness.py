"""Scenario execution: solve, simulate, bound, judge, and write artifacts.

Artifacts written per run (all files atomically, write-then-rename):

    graph.txt         edge list actually used
    trajectory.csv    t,x_1,...,x_n at every stored step (17 significant digits)
    errors.csv        t,e_1,...,e_n (same rows; per-node error curves)
    bounds.csv        t,node,lower,upper,kind for every enabled bound kind
    focus.csv         t,error,lower,upper for the focus node (single-node overlay)
    termination.json  stop-time report: t_s, overall, per-node parents/verdict/path
    path.json         traced route of the focus node plus the full edge list
    summary.json      scalar diagnostics: gap, diameters, bounds, stop-time status

Every CSV cell is ``%.17g``.  The CSV writers return the file as a list of
chunks of at most ``BLOCK`` rows, each assembled with one ``"".join``.
Each distinct float column is formatted once per file: within a block,
columns are cached by their bytes, so a band several bound kinds share
costs one formatting, and a constant column is one string.
``write_atomic`` writes the chunks to a temporary file and renames it over
the target, so no second copy of a whole file is built, and a failed write
leaves any earlier file as it was.

Exit codes: 0 success, 2 identification failure, 1 any error.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    NominalEnvelopes,
    chain_initial_errors,
    early_termination_time,
    power_law_envelope,
    proportional_offsets,
    uniform_offsets,
    worst_case_offset,
)
from .disturbance import DisturbanceModel, build_model
from .dynamics import Trajectory, check_initial_state, check_t_end, simulate
from .errors import DbmcError, InfeasibleError, PreconditionError, SpecError
from .generate import generate_graph, synthetic_positions
from .graph import (
    ShortestPathSolution,
    WeightedDigraph,
    dump_graph,
    load_graph,
    minus_graph,
    parent_chain,
    solve_shortest_paths,
)
from .scenario import BOUND_KINDS, Scenario, parse_t_end_rule
from .termination import TerminationReport, build_report

log = logging.getLogger("dbmc")

BRACKET_TOL = 1e-6
CHECK_BLOCK = 1 << 15  # values per block of the bracket check (256 KiB of float64)
BLOCK = 128  # rows of a CSV file joined into one string


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    report: TerminationReport
    summary: dict


def write_atomic(path: Path, data: str | list[str]) -> None:
    """Write ``data``, one string or a list of chunks, to ``path`` through a
    temporary file renamed over it.  If writing fails, the temporary file is
    removed and any earlier ``path`` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([data] if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def resolve_graph(spec: dict) -> WeightedDigraph:
    if spec.get("kind") == "file":
        with open(spec["path"], "r", encoding="utf-8") as fh:
            return load_graph(fh.read())
    return generate_graph(spec)


def initial_state_vector(
    g: WeightedDigraph, sc: Scenario
) -> np.ndarray:
    """Materialize the initial-state rule: zeros on sources, rule elsewhere."""
    n = g.node_count
    if sc.initial_states is not None:
        if len(sc.initial_states) != n:
            raise SpecError(
                f"[initial] states: expected {n} entries, got {len(sc.initial_states)}"
            )
        return np.asarray(sc.initial_states, dtype=float)
    x0 = np.full(n, float(sc.initial_value))
    for s in g.sources:
        x0[s - 1] = 0.0
    return x0


def resolve_chi0(
    g: WeightedDigraph, sol: ShortestPathSolution, x0: np.ndarray, chi0: float | None
) -> float:
    """The scenario's chi0, or the largest initial error when it sets none.

    Raises SpecError when an initial state or ``chi0`` is not finite, or when
    ``chi0`` lies below the largest initial error: the envelope bound and t_s
    would then not hold.
    """
    if not np.all(np.isfinite(x0)):
        raise SpecError("[initial] every initial state must be finite")
    e0_max = float(max(x0[i - 1] - sol.p[i - 1] for i in g.non_sources))
    if chi0 is None:
        return e0_max
    if not math.isfinite(chi0):
        raise SpecError(f"[run] chi0 must be finite, got {chi0!r}")
    if chi0 < e0_max:
        raise SpecError(
            f"[run] chi0 = {chi0} is below the actual largest initial error {e0_max}"
        )
    return chi0


@dataclass
class Plan:
    """A scenario resolved up to its stop time, with the overrides applied."""

    g: WeightedDigraph
    sol: ShortestPathSolution
    sol_minus: ShortestPathSolution
    model: DisturbanceModel
    x0: np.ndarray
    seed: int
    q: float
    chi0: float
    ts_status: str  # ok | not_applicable | infeasible
    ts_value: float | None
    ts_detail: str
    t_stop: float
    auto_kinds: tuple[str, ...]  # every bound kind the disturbance supports
    kinds: tuple[str, ...]  # the kinds [run] bounds selects


def plan_scenario(
    sc: Scenario,
    *,
    seed: int | None = None,
    q: float | None = None,
    t_end: str | None = None,
) -> Plan:
    """Graph, solutions, model, x0, chi0, guaranteed stop time, t_end and kinds.

    ``seed``, ``q`` and ``t_end`` override the corresponding scenario fields
    (``t_end`` accepts the same syntax as the scenario key).  Raises
    SpecError when q is not finite and above 1 or when ``t_end = auto`` but no
    guaranteed stop time exists or when ``[run] bounds`` lists a kind the
    disturbance does not support, and PreconditionError when x0 fails
    :func:`dynamics.check_initial_state` or the stop time fails
    :func:`dynamics.check_t_end`, so every verb enforces the preconditions
    ``simulate`` does.
    """
    q_eff = sc.q if q is None else q
    if not 1.0 < q_eff < math.inf:
        raise SpecError(f"q must be finite and exceed 1, got {q_eff!r}")
    g = resolve_graph(sc.graph_spec)
    sol = solve_shortest_paths(g)
    seed_eff = sc.seed if seed is None else seed
    model = build_model(sc.disturbance, g, seed_eff, horizon=sc.params.deadline)
    x0 = initial_state_vector(g, sc)

    sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
    chi0 = resolve_chi0(g, sol, x0, sc.chi0)
    check_initial_state(g, sol, x0)

    ts_status, ts_value, ts_detail = "ok", None, ""
    if math.isinf(sol.path_gap):
        ts_status = "not_applicable"
        ts_detail = "no node has a competitor edge (infinite path gap)"
    else:
        try:
            ts_value = early_termination_time(
                sol.path_gap, model.u_minus, model.u_plus,
                sol.effective_diameter, sol_minus.effective_diameter,
                chi0, q_eff, sc.params,
            )
        except InfeasibleError as exc:
            ts_status = "infeasible"
            ts_detail = str(exc)

    rule = parse_t_end_rule(t_end) if t_end is not None else sc.t_end_rule
    if rule[0] == "explicit":
        t_stop = rule[1]
    elif rule[0] == "fraction":
        t_stop = rule[1] * sc.params.deadline
    else:
        if ts_status != "ok":
            raise SpecError(f"t_end = auto needs a guaranteed stop time: {ts_detail}")
        t_stop = max(ts_value, 1e-6 * sc.params.deadline)
    check_t_end(sc.params, t_stop, model.horizon)

    auto_kinds = BOUND_KINDS
    if not all(f < 1.0 for f in model.proportional_fractions):
        auto_kinds = ("chain", "uniform", "envelope")
    if sc.bound_kinds == ("none",):
        kinds: tuple[str, ...] = ()
    elif sc.bound_kinds == ("auto",):
        kinds = auto_kinds
    else:
        kinds = sc.bound_kinds
    if "proportional" in kinds and "proportional" not in auto_kinds:
        raise SpecError(
            "[run] bounds = proportional needs fractional disturbance bounds "
            f"in [0, 1), got {model.proportional_fractions}"
        )

    return Plan(
        g, sol, sol_minus, model, x0, seed_eff, q_eff, chi0,
        ts_status, ts_value, ts_detail, t_stop, auto_kinds, kinds,
    )


class ShiftedBand(np.lib.mixins.NDArrayOperatorsMixin):
    """The read-only band ``env + shift``: a (times x nodes) envelope plus a
    constant per node, formed only where it is read.

    ``env`` is the shared :class:`bounds.NominalEnvelopes`; several bands may
    share one.  :func:`band_blocks` reads a band a block of rows at a time.
    Numpy functions, operators (``upper - err``, ``np.isnan(upper)``) and
    ``band[key]`` see the whole band through ``__array__``, which evaluates
    every row of ``env`` again on each use.
    """

    def __init__(self, env, shift: np.ndarray) -> None:
        self.env = env
        self.shift = shift

    @property
    def shape(self) -> tuple[int, ...]:
        return self.env.shape

    @property
    def size(self) -> int:
        return math.prod(self.env.shape)

    def __getitem__(self, key) -> np.ndarray:
        return np.asarray(self)[key]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a shifted band is formed on every read and cannot be a view")
        return np.asarray(self.env.rows(0, self.shape[0]) + self.shift, dtype=dtype)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(isinstance(o, ShiftedBand) for o in kwargs.get("out", ())):
            return NotImplemented
        inputs = tuple(np.asarray(x) if isinstance(x, ShiftedBand) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def band_blocks(rows: int, width: int):
    """Walk ``rows`` time rows of bands ``width`` nodes wide in blocks of
    about ``CHECK_BLOCK`` values, yielding ``(span, read)`` per block.

    ``span`` is the block's slice of rows, and ``read(band)`` is those rows
    of ``band`` as an array.  Every :class:`ShiftedBand` over one envelope
    shares one evaluation of the block, made at the first such read, so a
    reader that reads no shifted band evaluates nothing.
    """
    step = max(1, CHECK_BLOCK // width)
    for a in range(0, rows, step):
        span = slice(a, min(a + step, rows))
        envs: dict = {}

        def read(band, span=span, envs=envs) -> np.ndarray:
            if not isinstance(band, ShiftedBand):
                return band[span]
            if band.env not in envs:
                envs[band.env] = band.env.rows(span.start, span.stop)
            return envs[band.env] + band.shift

        yield span, read


def compute_bound_curves(
    g: WeightedDigraph,
    sol: ShortestPathSolution,
    sol_minus: ShortestPathSolution,
    model,
    x0: np.ndarray,
    q: float,
    chi0: float,
    params,
    times: np.ndarray,
    kinds: tuple[str, ...],
) -> dict[str, tuple]:
    """Per enabled kind, (lower, upper) bands of shape (len(times), non_sources).

    This is the one place a band is assembled.  Columns follow
    ``g.non_sources`` order.  The chain kind's upper band is the nominal
    envelope plus the sum of the edge caps along the node's parent chain;
    it has no lower bound and uses -inf.  The envelope kind is the
    network-wide band +-(offset + power-law envelope at the largest depth),
    the band ``t_s`` inverts.  The chain, proportional and uniform upper
    bands are one nominal envelope per node plus a constant per node: each
    is a :class:`ShiftedBand` over the same stateless, read-only
    :class:`bounds.NominalEnvelopes`, which holds L = ln f(t) per time and
    evaluates the envelope only for the rows it is asked for.  Read the
    bands with :func:`band_blocks`, which evaluates each block of rows once
    for all three; no (times x nodes) array is made unless a whole band is
    read.  A time outside [0, deadline) raises DomainError here, before any
    read.  The curves constant in time or across nodes (every lower band
    and the envelope kind's upper) are read-only ``np.broadcast_to`` views
    of one value, one row or one column.  No band can be written into.
    """
    ns = g.non_sources
    shape = (len(times), len(ns))
    curves: dict[str, tuple] = {}
    chains = [parent_chain(sol, i) for i in ns]
    e0s = [chain_initial_errors(sol, x0, c) for c in chains]
    if any(k in kinds for k in ("chain", "proportional", "uniform")):
        env = NominalEnvelopes(e0s, params, times)

    if "chain" in kinds:
        # each node's cap on the hop to its smallest true parent, the hop
        # parent_chain takes, then each chain's caps summed from the source end
        first = np.array([min(ps, default=0) for ps in sol.true_parents])
        hop = g.heads + 1 == first[g.tails]
        caps = dict(zip(g.tails[hop].tolist(), model.edge_upper[hop].tolist()))
        offsets = [sum(caps[i - 1] for i in c[1:]) for c in chains]
        curves["chain"] = (np.broadcast_to(-np.inf, shape), ShiftedBand(env, np.array(offsets)))

    if "proportional" in kinds:
        p = np.array([sol.p[i - 1] for i in ns])
        low, shift = proportional_offsets(*model.proportional_fractions, p)
        curves["proportional"] = (np.broadcast_to(low, shape), ShiftedBand(env, shift))

    if "uniform" in kinds:
        depths = np.array([len(c) - 1 for c in chains])
        low, shift = uniform_offsets(
            model.u_minus, model.u_plus, depths, sol_minus.effective_diameter
        )
        curves["uniform"] = (np.broadcast_to(low, shape), ShiftedBand(env, shift))

    if "envelope" in kinds:
        offset = worst_case_offset(
            model.u_minus, model.u_plus,
            sol.effective_diameter, sol_minus.effective_diameter,
        )
        band = offset + power_law_envelope(
            chi0, sol.effective_diameter - 1, q, params, times
        )
        lower = np.broadcast_to(-band[:, None], shape)
        upper = np.broadcast_to(band[:, None], shape)
        curves["envelope"] = (lower, upper)

    return curves


def check_brackets(
    g: WeightedDigraph,
    traj: Trajectory,
    curves: dict[str, tuple],
    tol: float = BRACKET_TOL,
) -> None:
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
                np.all(err >= read(lower) - tol) and np.all(err <= read(upper) + tol)
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


def _cells(a: np.ndarray, seen: dict[bytes, np.ndarray]) -> np.ndarray:
    """Object array of the ``%.17g`` strings of the 2-D float block ``a``.

    ``seen`` maps the bytes of each column formatted so far to its strings.
    Columns are keyed by their bytes, not compared as floats, because
    -0.0 == 0.0 but prints as "-0"; a column seen before reuses its strings,
    and a column holding one value is formatted as one string.
    """
    out = np.empty(a.shape, dtype=object)
    for j in range(a.shape[1]):
        col = np.ascontiguousarray(a[:, j], dtype=np.float64)
        key = col.tobytes()
        text = seen.get(key)
        if text is None:
            bits = col.view(np.uint64)
            if len(bits) > 1 and np.all(bits == bits[0]):
                text = np.full(len(col), f"{float(col[0]):.17g}", dtype=object)
            else:
                text = np.array([f"{v:.17g}" for v in col.tolist()], dtype=object)
            seen[key] = text
        out[:, j] = text
    return out


def _blocks(rows: int) -> list[slice]:
    return [slice(a, a + BLOCK) for a in range(0, rows, BLOCK)]


def _join(fields: list) -> str:
    """One block of rows as one string.

    The fields broadcast to (rows, width), and the text is, row by row and
    column by column, ``field[r, j]`` of each field in order.  A string field
    is the same at every position, a 1-D field the same in every row.
    """
    shape = np.broadcast_shapes(*(np.shape(f) for f in fields))
    parts = np.empty(shape + (len(fields),), dtype=object)
    for k, f in enumerate(fields):
        parts[..., k] = f
    return "".join(parts.ravel().tolist())


def _series_csv(header: str, times: np.ndarray, values: np.ndarray) -> list[str]:
    """``header`` then one row ``t,v_1,...,v_m`` per time, ``values`` of shape (T, m)."""
    ends = np.array([","] * values.shape[1] + ["\n"], dtype=object)
    return [header] + [
        _join([_cells(np.column_stack((times[rows], values[rows])), {}), ends])
        for rows in _blocks(len(times))
    ]


def trajectory_csv(traj: Trajectory) -> list[str]:
    n = traj.errors.shape[1]
    header = "t," + ",".join(f"x_{i}" for i in range(1, n + 1)) + "\n"
    return _series_csv(header, traj.times, traj.states)


def errors_csv(traj: Trajectory) -> list[str]:
    n = traj.errors.shape[1]
    header = "t," + ",".join(f"e_{i}" for i in range(1, n + 1)) + "\n"
    return _series_csv(header, traj.times, traj.errors)


def bounds_csv(
    g: WeightedDigraph,
    times: np.ndarray,
    curves: dict[str, tuple],
) -> list[str]:
    """The file is kind by kind, but it is built block by block of rows:
    each block of :func:`band_blocks` is read once for every kind, and
    formatted ``BLOCK`` rows at a time, so that one cache of those rows'
    strings serves every kind."""
    nodes = np.array([f",{i}," for i in g.non_sources], dtype=object)
    kinds = [kind for kind in BOUND_KINDS if kind in curves]
    chunks: dict[str, list[str]] = {kind: [] for kind in kinds}
    for span, read in band_blocks(len(times), len(nodes)):
        bands = {kind: tuple(map(read, curves[kind])) for kind in kinds}
        for rows in _blocks(span.stop - span.start):
            seen: dict[bytes, np.ndarray] = {}
            stamps = _cells(times[span][rows, None], seen)
            for kind in kinds:
                lower, upper = bands[kind]
                chunks[kind].append(_join([
                    stamps, nodes, _cells(lower[rows], seen), ",",
                    _cells(upper[rows], seen), f",{kind}\n",
                ]))
    return ["t,node,lower,upper,kind\n"] + [c for kind in kinds for c in chunks[kind]]


def focus_csv(
    g: WeightedDigraph,
    traj: Trajectory,
    curves: dict[str, tuple],
    focus: int,
    kind: str,
) -> list[str]:
    col = g.non_sources.index(focus)
    lower, upper = curves[kind]
    err = traj.error_of(focus)
    values = np.concatenate([
        np.column_stack((err[rows], read(lower)[:, col], read(upper)[:, col]))
        for rows, read in band_blocks(len(traj.times), len(g.non_sources))
    ])
    return _series_csv("t,error,lower,upper\n", traj.times, values)


def make_out_dir(out_dir: str | os.PathLike | None, sc: Scenario) -> Path:
    """Create ``out_dir``, else the scenario's, else ``out`` ("" is unset).
    Called once every check has passed, so a failed run leaves no directory."""
    out = Path(out_dir or sc.out_dir or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def run_scenario(
    sc: Scenario,
    out_dir: str | os.PathLike | None = None,
    *,
    seed: int | None = None,
    q: float | None = None,
    t_end: str | None = None,
) -> RunResult:
    """Execute one scenario end to end; see the module docstring for artifacts.

    ``seed``, ``q`` and ``t_end`` override the corresponding scenario fields
    (``t_end`` accepts the same syntax as the scenario key).
    """
    plan = plan_scenario(sc, seed=seed, q=q, t_end=t_end)
    g, sol, model, x0, t_stop = plan.g, plan.sol, plan.model, plan.x0, plan.t_stop
    focus = sc.focus_node
    if focus is None:
        focus = max(g.non_sources, key=lambda i: sol.p[i - 1])
    elif focus in g.sources or not 1 <= focus <= g.node_count:
        raise SpecError(f"[run] focus_node {focus} must be a non-source node")
    traj = simulate(g, model, sc.params, x0, t_stop, sol=sol)

    kinds = plan.kinds
    curves = compute_bound_curves(
        g, sol, plan.sol_minus, model, x0, plan.q, plan.chi0, sc.params, traj.times, kinds
    )
    check_brackets(g, traj, curves)

    report = build_report(g, sol, model, traj.final_states, t_stop)
    out = make_out_dir(out_dir, sc)

    focus_kind = "proportional" if "proportional" in curves else (
        "uniform" if "uniform" in curves else None
    )

    summary = {
        "nodes": g.node_count,
        "sources": sorted(g.sources),
        "path_gap": sol.path_gap if math.isfinite(sol.path_gap) else None,
        "effective_diameter": sol.effective_diameter,
        "effective_diameter_minus": plan.sol_minus.effective_diameter,
        "u_minus": model.u_minus,
        "u_plus": model.u_plus,
        "chi0": plan.chi0,
        "q": plan.q,
        "seed": plan.seed,
        "termination_status": plan.ts_status,
        "termination_detail": plan.ts_detail,
        "t_s_guaranteed": plan.ts_value,
        "t_end": t_stop,
        "steps": int(len(traj.times) - 1),
        "overall": report.overall,
        "bound_kinds": list(kinds),
        "focus_node": focus,
    }

    write_atomic(out / "graph.txt", dump_graph(g))
    write_atomic(out / "trajectory.csv", trajectory_csv(traj))
    write_atomic(out / "errors.csv", errors_csv(traj))
    # a band file this run does not write is removed, so none is left stale
    if curves:
        write_atomic(out / "bounds.csv", bounds_csv(g, traj.times, curves))
    else:
        (out / "bounds.csv").unlink(missing_ok=True)
    if focus_kind is not None:
        write_atomic(out / "focus.csv", focus_csv(g, traj, curves, focus, focus_kind))
    else:
        (out / "focus.csv").unlink(missing_ok=True)
    write_atomic(out / "termination.json", _json_dump(report.to_dict()))

    positions = synthetic_positions(sc.graph_spec, g)
    path = report.paths.get(focus)
    overlay = {
        "focus_node": focus,
        "path": list(path) if path is not None else None,
        "path_edges": (
            [[path[k], path[k + 1]] for k in range(len(path) - 1)]
            if path is not None
            else None
        ),
        "verdict": report.verdicts[focus],
        "edges": [[i, j, w] for i, j, w in g.edges],
        "positions": (
            {str(i): list(xy) for i, xy in positions.items()} if positions else None
        ),
    }
    write_atomic(out / "path.json", _json_dump(overlay))
    write_atomic(out / "summary.json", _json_dump(summary))

    exit_code = 0 if report.overall else 2
    if exit_code:
        log.warning("identification failed for nodes %s",
                    [i for i, v in report.verdicts.items() if v == "incorrect"])
    return RunResult(exit_code, out, report, summary)
