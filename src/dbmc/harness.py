"""Scenario execution: solve, simulate, bound, judge, and write artifacts.

Artifacts written per run (all files atomically, write-then-rename):

    graph.txt         edge list actually used
    trajectory.csv    t,x_1,...,x_n at every stored step (17 significant digits)
    errors.csv        t,e_1,...,e_n (same rows; per-node error curves)
    bands.csv         t,env_<i>...,envelope: the nominal envelope of each
                      non-source and the envelope kind's band, per stored step
    bands.json        per enabled bound kind, each node's upper shift and
                      constant lower (null is -inf); the envelope kind is
                      +-the envelope column
    focus.csv         t,error,lower,upper for the focus node (single-node overlay)
    termination.json  stop-time report: t_s, overall, per-node parents/verdict/path
    path.json         traced route of the focus node plus the full edge list
    summary.json      scalar diagnostics: gap, diameters, bounds, stop-time status

``bands.csv`` and ``bands.json`` hold every band of the run in a few
columns: a chain, proportional or uniform upper is ``env_<i> + shift`` (one
float add) and its lower a constant.  ``scripts/expand_bands.py`` rebuilds
from them, byte for byte, the run's ``bounds.csv``: every band at every
stored step, in the format ``dbmc bounds`` writes with :func:`bounds_csv`.

Every CSV cell is ``%.17g``, and every CSV is formatted ``BLOCK`` rows at a
time with one ``%`` call on a row template (:class:`seriesio.SeriesText`).
A series file (``trajectory.csv``, ``errors.csv``, ``bands.csv``,
``focus.csv``) has a row of ``%.17g`` cells per stored time; ``bounds.csv``
has, per kind and stored time, one line ``t,node,lower,upper,kind`` per
non-source.  :func:`bounds_csv` returns it as a list of chunks of at most
``BLOCK`` times, and ``write_atomic`` writes the chunks to a temporary file
and renames it over the target, so no second copy of a whole file is built,
and a failed write leaves any earlier file as it was.

``run_scenario`` and ``dbmc simulate`` leave every series file to a
:class:`SeriesWriter` child, started right after the scenario is planned.
``run`` computes its bands first, at the stored times of
:func:`dynamics.step_grid`.  :func:`dynamics.simulate` then hands over each
finished ``BLOCK`` of error rows, and :func:`feed_blocks` gives that
block's one shared reader to each consumer: the series files of
:meth:`SeriesWriter.stream`, whose raw rows the child formats while RK4
runs the next block, and ``run``'s :class:`BracketCheck`.  A run so
evaluates the envelope once per stored time; :func:`band_blocks` walks the
bands of standalone reads.
Once every check has passed, the output directory is made and named to the
child, which writes its files with the same ``seriesio.write_atomic`` that
``write_atomic`` calls while the parent writes the JSON files and
``graph.txt``; the parent formats no CSV during a run.

Exit codes: 0 success, 2 identification failure, 1 any error.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
from .dynamics import Trajectory, check_initial_state, check_t_end, simulate, step_grid, t_end_limit
from .errors import DbmcError, InfeasibleError, SpecError
from .generate import generate_graph, synthetic_positions
from .graph import (
    ShortestPathSolution,
    WeightedDigraph,
    dump_graph,
    minus_graph,
    parent_chain,
    solve_shortest_paths,
)
from .scenario import BOUND_KINDS, Scenario
from . import seriesio
from .seriesio import BLOCK, SeriesText, series_chunks
from .termination import TerminationReport, build_report

log = logging.getLogger("dbmc")

BRACKET_TOL = 1e-6
CHECK_BLOCK = 1 << 15  # values per block of band_blocks (256 KiB of float64)


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    report: TerminationReport
    summary: dict


def write_atomic(path: Path, data: str | list[str]) -> None:
    """:func:`seriesio.write_atomic`, the one atomic write, which the writer
    child shares.  It is wrapped here rather than imported because the
    benchmark's tracer names each span by the module that defines the
    function: imported, the harness's writes would be timed as
    ``seriesio.write_atomic`` and ``harness.write_atomic_s`` would read 0."""
    seriesio.write_atomic(path, data)


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
    """A scenario resolved up to its stop time."""

    g: WeightedDigraph
    sol: ShortestPathSolution
    sol_minus: ShortestPathSolution
    model: DisturbanceModel
    x0: np.ndarray
    chi0: float
    ts_status: str  # ok | not_applicable | infeasible
    ts_value: float | None
    ts_detail: str
    t_stop: float
    auto_kinds: tuple[str, ...]  # every bound kind the disturbance supports
    kinds: tuple[str, ...]  # the kinds [run] bounds selects
    focus: int  # [run] focus_node, else the deepest non-source


def plan_scenario(sc: Scenario) -> Plan:
    """Graph, solutions, model, x0, chi0, stop times, kinds and focus node.

    Every setting comes from ``sc``: to plan another seed, q or stop time,
    pass ``dataclasses.replace(sc, ...)``.  Raises SpecError when q is not
    finite and above 1, when the focus node is a source or no node, when
    ``t_end = auto`` but no guaranteed stop time exists or it is not below
    :func:`dynamics.t_end_limit`, when ``[run] bounds`` lists a kind the
    disturbance does not support, and PreconditionError when x0 fails
    :func:`dynamics.check_initial_state` or the stop time fails
    :func:`dynamics.check_t_end`, so every verb enforces the preconditions
    ``run`` does.
    """
    if not 1.0 < sc.q < math.inf:
        raise SpecError(f"q must be finite and exceed 1, got {sc.q!r}")
    g = generate_graph(sc.graph_spec)
    sol = solve_shortest_paths(g)
    focus = sc.focus_node
    if focus is None:
        focus = max(g.non_sources, key=lambda i: sol.p[i - 1])
    elif focus in g.sources or not 1 <= focus <= g.node_count:
        raise SpecError(f"[run] focus_node {focus} must be a non-source node")
    model = build_model(sc.disturbance, g, sc.seed, horizon=sc.params.deadline)
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
                chi0, sc.q, sc.params,
            )
        except InfeasibleError as exc:
            ts_status = "infeasible"
            ts_detail = str(exc)

    rule = sc.t_end_rule
    if rule[0] == "explicit":
        t_stop = rule[1]
    elif rule[0] == "fraction":
        t_stop = rule[1] * sc.params.deadline
    else:
        if ts_status != "ok":
            raise SpecError(f"t_end = auto needs a guaranteed stop time: {ts_detail}")
        t_stop = max(ts_value, 1e-6 * sc.params.deadline)
        limit = t_end_limit(sc.params)
        if t_stop >= limit:
            raise SpecError(
                f"t_end = auto needs t_s below {limit!r}, the limit of t_end; "
                f"got t_s = {ts_value!r}"
            )
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
        g, sol, sol_minus, model, x0, chi0,
        ts_status, ts_value, ts_detail, t_stop, auto_kinds, kinds, focus,
    )


class ShiftedBand:
    """The read-only band ``env + shift``: a (times x nodes) envelope plus a
    constant per node, formed only where it is read.

    ``env`` is the shared :class:`bounds.NominalEnvelopes`; several bands may
    share one.  :func:`band_blocks` reads a band a block of rows at a time.
    ``np.asarray(band)`` and numpy functions and operators with an array
    (``upper - err``, ``np.isnan(upper)``) see the whole band through
    ``__array__``, which fills one (times x nodes) array through
    :func:`band_blocks`, evaluating every row of ``env`` again on each use.
    """

    def __init__(self, env, shift: np.ndarray) -> None:
        self.env = env
        self.shift = shift
        self.shape = env.shape

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a shifted band is formed on every read and cannot be a view")
        out = np.empty(self.shape)
        for span, read in band_blocks(*self.shape):
            out[span] = read(self)
        return np.asarray(out, dtype=dtype)


def band_blocks(rows: int, width: int):
    """Per block of about ``CHECK_BLOCK`` values of ``rows`` time rows of
    bands ``width`` nodes wide, its slice of rows and its :func:`_span_reader`."""
    step = max(1, CHECK_BLOCK // width)
    for a in range(0, rows, step):
        span = slice(a, min(a + step, rows))
        yield span, _span_reader(span)


def _span_reader(span: slice):
    """``read(band)``, the rows ``span`` of ``band`` as an array: the read
    of a block of :func:`band_blocks` or :func:`feed_blocks`.  ``band`` may
    also be a :class:`bounds.NominalEnvelopes`, read as its own rows.  Every
    read of one envelope, and of every :class:`ShiftedBand` over it, shares
    one evaluation of the block, made at the first such read, so a reader
    that reads no envelope evaluates nothing."""
    envs: dict = {}

    def read(band) -> np.ndarray:
        env = band.env if isinstance(band, ShiftedBand) else band
        if not isinstance(env, NominalEnvelopes):
            return band[span]
        if env not in envs:
            envs[env] = env.rows(span.start, span.stop)
        return envs[env] if env is band else envs[env] + band.shift

    return read


def feed_blocks(*consumers: Callable) -> Callable[[slice, np.ndarray], None]:
    """The ``on_block`` of :func:`dynamics.simulate` that calls every consumer
    with ``(span, errors, read)`` and one :func:`_span_reader` per block, so
    an envelope is evaluated once per block however many consumers read it."""

    def on_block(span: slice, errors: np.ndarray) -> None:
        read = _span_reader(span)
        for consume in consumers:
            consume(span, errors, read)

    return on_block


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
    bands through a block's :func:`_span_reader`, which evaluates the block
    once for all three; no (times x nodes) array is made unless a whole band
    is read, and a whole read is filled block by block the same way.  A time
    outside [0, deadline) raises DomainError here, before any read.  The
    curves constant in time or across nodes (every lower band and the
    envelope kind's upper) are read-only ``np.broadcast_to`` views of one
    value, one row or one column.  No band can be written into.
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


class BracketCheck:
    """The bracket check, fed a block at a time as a :data:`SeriesFile`'s
    ``rows(span, errors, read)`` is: per kind, ``slacks`` keeps the worst
    lower slack ``err - lower`` and upper slack ``upper - err`` by
    ``np.minimum``, so no NaN is dropped, and ``rows`` counts the rows."""

    def __init__(self, g: WeightedDigraph, curves: dict[str, tuple]) -> None:
        self.cols = [i - 1 for i in g.non_sources]
        self.curves = curves
        self.slacks = {kind: np.full(2, np.inf) for kind in curves}
        self.rows = 0

    def __call__(self, span: slice, errors: np.ndarray, read) -> None:
        err = errors[:, self.cols]
        for kind, (lower, upper) in self.curves.items():
            worst = (err - read(lower)).min(), (read(upper) - err).min()
            np.minimum(self.slacks[kind], worst, out=self.slacks[kind])
        self.rows += len(err)


def check_brackets(
    g: WeightedDigraph,
    traj: Trajectory,
    curves: dict[str, tuple],
    check: BracketCheck | None = None,
) -> None:
    """Every emitted curve must bracket the simulated errors pointwise:
    judged from ``check``, the :class:`BracketCheck` a run fed every stored
    time, else from one fed the blocks of :func:`band_blocks`.  A kind fails
    when a worst slack is NaN or below ``-BRACKET_TOL``; the error names the
    first failing kind in ``curves`` order and its worst slacks."""
    n = len(traj.times)
    if check is None:
        check = BracketCheck(g, curves)
        for span, read in band_blocks(n, len(g.non_sources)):
            check(span, traj.errors[span], read)
    elif check.rows != n:
        raise DbmcError(f"the bracket check saw {check.rows} of the run's {n} stored times")
    for kind in curves:
        low, high = check.slacks[kind]
        if not (low >= -BRACKET_TOL and high >= -BRACKET_TOL):
            raise DbmcError(
                f"bound curve {kind!r} fails to bracket the trajectory "
                f"(worst lower slack {low:.3e}, upper slack {high:.3e})"
            )


def _table(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The float64 rows ``t, v_1, ..., v_m``, C-contiguous, ``values`` of shape (T, m)."""
    return np.column_stack((times, values)).astype(np.float64, copy=False)


# (name, header line, cells per row, rows(span, errors, read)) of one series
# CSV: rows gives the float64 rows at the times span; read is the block's reader
SeriesFile = tuple[str, str, int, Callable[[slice, np.ndarray, Callable], np.ndarray]]


def series_files(times: np.ndarray, p) -> list[SeriesFile]:
    """The ``trajectory.csv`` entry, rows ``t, errors + p``, and the
    ``errors.csv`` entry, rows ``t, errors``, of a run stored at ``times``
    with distances ``p``.  Neither reads a band."""
    p = np.asarray(p, dtype=float)
    nodes = range(1, len(p) + 1)
    return [
        ("trajectory.csv", "t," + ",".join(f"x_{i}" for i in nodes) + "\n", len(p) + 1,
         lambda span, errors, read: _table(times[span], errors + p)),
        ("errors.csv", "t," + ",".join(f"e_{i}" for i in nodes) + "\n", len(p) + 1,
         lambda span, errors, read: _table(times[span], errors)),
    ]


def _series_text(traj: Trajectory, k: int) -> list[str]:
    """Entry ``k`` of :func:`series_files` formatted in this process, all rows at once."""
    _, header, width, rows = series_files(traj.times, traj.p)[k]
    return series_chunks(header, width, rows(slice(None), traj.errors, None).ravel())


def trajectory_csv(traj: Trajectory) -> list[str]:
    return _series_text(traj, 0)


def errors_csv(traj: Trajectory) -> list[str]:
    return _series_text(traj, 1)


PIPE_BYTES = 1 << 20  # the pipe to the writer child, where the OS lets it grow


def _enlarge_pipe(fd: int) -> None:
    """Grow the pipe of ``fd`` to ``PIPE_BYTES`` where the OS allows it
    (Linux ``F_SETPIPE_SZ``); elsewhere, or if refused, keep its size."""
    try:
        import fcntl

        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass


class SeriesWriter:
    """The writer child of :mod:`seriesio`, which formats series files from
    raw rows while the parent goes on, and writes them once told where.

    The child, ``python -I -S seriesio.py``, imports no numpy and starts in
    about 10 ms, so it is started before the trajectory exists.
    :meth:`stream` declares the files, in order, and returns the consumer
    of :func:`feed_blocks` that sends a block's raw float64 rows of every
    file through :meth:`rows`; :meth:`commit` names the output directory.
    The child formats each message on arrival and writes nothing before the
    commit.  The parent formats none of the rows it streams, and a run
    streams every CSV it writes.
    :meth:`wait` returns once every file is written and raises OSError with
    the child's message if it failed, as does a message the child is no
    longer there to read.  The parent's end of the pipe is grown to
    ``PIPE_BYTES`` where the OS allows it, so the parent seldom waits for
    the child to read; where the child lags, a write blocks until it reads.
    ``blocked`` counts the seconds spent writing to the pipe.  Leaving the
    ``with`` block by an exception kills the child, waits for it and
    removes its temporary files, so no process and no ``*.tmp`` outlives
    the run.
    """

    def __init__(self) -> None:
        # imported here, so a process that writes no series file does not
        # pay for it (about 0.4 MB resident and 5 ms at import)
        import subprocess

        self.widths: dict[str, int] = {}
        self.paths: list[Path] = []
        self.blocked = 0.0
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", seriesio.__file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        _enlarge_pipe(self.proc.stdin.fileno())

    def __enter__(self) -> SeriesWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.communicate()
            for path in self.paths:
                seriesio.discard_tmp(path)

    def _send(self, head: dict, payload=None) -> None:
        stream = self.proc.stdin
        start = time.perf_counter()
        try:
            stream.write(json.dumps(head).encode() + b"\n")
            if payload is not None:
                stream.write(payload)
            stream.flush()
        except BrokenPipeError:
            self.wait()  # the child is gone: raise its message
            raise
        finally:
            self.blocked += time.perf_counter() - start

    def rows(self, name: str, table: np.ndarray) -> None:
        """Stream the rows of the 2-D float64 ``table`` to the file ``name``,
        for the child to format."""
        if table.ndim != 2 or table.shape[1] != self.widths[name]:
            raise ValueError(f"{name} has {self.widths[name]} cells per row, got {table.shape}")
        table = np.ascontiguousarray(table, dtype=np.float64)
        self._send({"file": name, "rows": len(table)}, table)

    def stream(self, files: list[SeriesFile]) -> Callable[[slice, np.ndarray, Callable], None]:
        """Declare ``files`` to the child, in order, and return the consumer
        of :func:`feed_blocks` that sends a block's raw rows of every file."""
        for name, header, width, _ in files:
            self.widths[name] = width
            self._send({"file": name, "header": header, "width": width})

        def send(span: slice, errors: np.ndarray, read) -> None:
            for name, _, _, rows in files:
                self.rows(name, rows(span, errors, read))

        return send

    def commit(self, out: Path) -> None:
        """Have the child write every declared file into ``out``."""
        self.paths = [out / name for name in self.widths]
        self._send({"out": os.fspath(out)})

    def wait(self) -> tuple[float, float, float]:
        """The child's wall seconds, its seconds spent writing and its CPU
        seconds, once it has written every file; OSError with its message
        if it failed."""
        out, err = self.proc.communicate()
        if self.proc.returncode:
            why = err.decode(errors="replace").strip()
            raise OSError(f"writing {', '.join(self.widths)} failed: "
                          f"{why or f'the writer exited with status {self.proc.returncode}'}")
        wall, writing, cpu = map(float, out.split())
        return wall, writing, cpu


def bounds_csv(
    g: WeightedDigraph,
    times: np.ndarray,
    curves: dict[str, tuple],
) -> list[str]:
    """The text of ``bounds.csv``, as chunks: per kind in ``BOUND_KINDS``
    order, per stored time, one line ``t,node,lower,upper,kind`` per
    non-source.  Each kind prints its cells ``(t, lower, upper)`` with a row
    template of one time's lines (:class:`seriesio.SeriesText`), and each
    block of :func:`band_blocks` is read once for every kind."""
    ns = g.non_sources
    texts = {
        kind: SeriesText("", "".join(f"%.17g,{i},%.17g,%.17g,{kind}\n" for i in ns))
        for kind in BOUND_KINDS if kind in curves
    }
    for span, read in band_blocks(len(times), len(ns)):
        cells = np.empty((span.stop - span.start, len(ns), 3))
        cells[..., 0] = times[span, None]
        for kind, text in texts.items():
            cells[..., 1], cells[..., 2] = map(read, curves[kind])
            text.add(cells.ravel())
    return ["t,node,lower,upper,kind\n"] + [c for text in texts.values() for c in text.chunks[1:]]


def band_rows(
    g: WeightedDigraph,
    times: np.ndarray,
    curves: dict[str, tuple],
) -> SeriesFile | None:
    """The ``bands.csv`` entry of :meth:`SeriesWriter.stream`, or None when
    ``curves`` is empty.

    A row is ``t``, then ``env_<i>`` per non-source i when a chain,
    proportional or uniform kind is enabled, then ``envelope`` when that
    kind is.  ``env_<i>`` is node i's nominal envelope, read from the shared
    :class:`bounds.NominalEnvelopes` itself: adding a zero shift would print
    a -0.0 as 0.  ``envelope`` is the envelope kind's band.  No (times x
    nodes) array is made.  The shifted bands of ``curves`` share one
    envelope, as those of :func:`compute_bound_curves` do.
    """
    if not curves:
        return None
    env = next((u.env for _, u in curves.values() if isinstance(u, ShiftedBand)), None)
    names = [f"env_{i}" for i in g.non_sources] if env is not None else []
    if "envelope" in curves:
        names.append("envelope")

    def rows(span: slice, errors: np.ndarray, read) -> np.ndarray:
        cols = [read(env)] if env is not None else []
        if "envelope" in curves:
            cols.append(read(curves["envelope"][1])[:, :1])
        return _table(times[span], np.hstack(cols))

    return "bands.csv", ",".join(["t"] + names) + "\n", len(names) + 1, rows


def bands_json(g: WeightedDigraph, curves: dict[str, tuple]) -> str:
    """The constants that complete ``bands.csv`` into ``curves``, as
    strict JSON.

    ``nodes`` lists the non-sources.  A chain, proportional or uniform kind
    is ``{"lower": [...], "upper_shift": [...]}``, one value per node: its
    upper is ``env_<i> + upper_shift`` and its lower is constant in time.
    The chain kind's lower is -inf, written ``null``.  The envelope kind is
    ``{"lower": "-envelope", "upper": "envelope"}``.
    """
    doc: dict = {"nodes": list(g.non_sources)}
    for kind, (lower, upper) in curves.items():
        if kind == "envelope":
            doc[kind] = {"lower": "-envelope", "upper": "envelope"}
        else:
            doc[kind] = {
                "lower": None if kind == "chain" else lower[0].tolist(),
                "upper_shift": upper.shift.tolist(),
            }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def focus_csv(
    g: WeightedDigraph,
    times: np.ndarray,
    curves: dict[str, tuple],
    focus: int,
) -> SeriesFile | None:
    """The ``focus.csv`` entry of :meth:`SeriesWriter.stream`: rows
    ``t,error,lower,upper`` of the node ``focus`` under the proportional
    band, else the uniform one; None without either.  The band's columns
    are read through the block's shared reader, so ``upper`` is the
    ``env + shift`` of the evaluation ``bands.csv`` reads too, with the
    band's bits, and no envelope is evaluated for this file alone."""
    kind = next((k for k in ("proportional", "uniform") if k in curves), None)
    if kind is None:
        return None
    col = g.non_sources.index(focus)
    lower, upper = curves[kind]

    def rows(span: slice, errors: np.ndarray, read) -> np.ndarray:
        return np.column_stack((
            times[span], errors[:, focus - 1], read(lower)[:, col], read(upper)[:, col],
        ))

    return "focus.csv", "t,error,lower,upper\n", 4, rows


def make_out_dir(out_dir: str | os.PathLike | None, sc: Scenario) -> Path:
    """Create ``out_dir``, else the scenario's, else ``out`` ("" is unset).
    Called once every check has passed, so a failed run leaves no directory."""
    out = Path(out_dir or sc.out_dir or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def run_scenario(sc: Scenario, out_dir: str | os.PathLike | None = None) -> RunResult:
    """Execute one scenario end to end; see the module docstring for artifacts.

    Every setting comes from ``sc``, resolved by :func:`plan_scenario`;
    ``out_dir`` (else ``[run] out``, else ``out``) is created only once
    every check has passed.
    """
    plan = plan_scenario(sc)
    with SeriesWriter() as series:
        return _run_plan(sc, plan, series, out_dir)


def _run_plan(
    sc: Scenario, plan: Plan, series: SeriesWriter, out_dir: str | os.PathLike | None
) -> RunResult:
    g, sol, model, x0, t_stop = plan.g, plan.sol, plan.model, plan.x0, plan.t_stop
    times = np.array(step_grid(sc.params, t_stop)[0])

    kinds = plan.kinds
    curves = compute_bound_curves(
        g, sol, plan.sol_minus, model, x0, sc.q, plan.chi0, sc.params, times, kinds
    )
    bands = (band_rows(g, times, curves), focus_csv(g, times, curves, plan.focus))
    files = [f for f in bands if f is not None] + series_files(times, sol.p)
    check = BracketCheck(g, curves)
    on_block = feed_blocks(series.stream(files), check)
    traj = simulate(g, model, sc.params, x0, t_stop, sol=sol, on_block=on_block)
    check_brackets(g, traj, curves, check)

    report = build_report(g, sol, model, traj.final_states, t_stop)
    out = make_out_dir(out_dir, sc)

    summary = {
        "nodes": g.node_count,
        "sources": sorted(g.sources),
        "path_gap": sol.path_gap if math.isfinite(sol.path_gap) else None,
        "effective_diameter": sol.effective_diameter,
        "effective_diameter_minus": plan.sol_minus.effective_diameter,
        "u_minus": model.u_minus,
        "u_plus": model.u_plus,
        "chi0": plan.chi0,
        "q": sc.q,
        "seed": sc.seed,
        "termination_status": plan.ts_status,
        "termination_detail": plan.ts_detail,
        "t_s_guaranteed": plan.ts_value,
        "t_end": t_stop,
        "steps": int(len(traj.times) - 1),
        "overall": report.overall,
        "bound_kinds": list(kinds),
        "focus_node": plan.focus,
    }

    start = time.perf_counter()
    series.commit(out)
    write_atomic(out / "graph.txt", dump_graph(g))
    written = {name for name, *_ in files}
    if curves:
        write_atomic(out / "bands.json", bands_json(g, curves))
        written.add("bands.json")
    # a band file this run does not write is removed, so none is left stale
    for name in ("bounds.csv", "bands.csv", "bands.json", "focus.csv"):
        if name not in written:
            (out / name).unlink(missing_ok=True)
    write_atomic(out / "termination.json", _json_dump(report.to_dict()))

    positions = synthetic_positions(sc.graph_spec, g)
    path = report.paths.get(plan.focus)
    overlay = {
        "focus_node": plan.focus,
        "path": list(path) if path is not None else None,
        "path_edges": (
            [[path[k], path[k + 1]] for k in range(len(path) - 1)]
            if path is not None
            else None
        ),
        "verdict": report.verdicts[plan.focus],
        "edges": [[i, j, w] for i, j, w in g.edges],
        "positions": (
            {str(i): list(xy) for i, xy in positions.items()} if positions else None
        ),
    }
    write_atomic(out / "path.json", _json_dump(overlay))
    write_atomic(out / "summary.json", _json_dump(summary))
    waiting = time.perf_counter()
    child_wall, child_writing, child_cpu = series.wait()
    log.info(
        "writers: %.3f s in the parent, then %.3f s waiting, %.3f s of the run "
        "writing to the pipe; series child %.3f s wall, %.3f s of it writing, "
        "%.3f s CPU",
        waiting - start, time.perf_counter() - waiting, series.blocked,
        child_wall, child_writing, child_cpu,
    )

    exit_code = 0 if report.overall else 2
    if exit_code:
        log.warning("identification failed for nodes %s",
                    [i for i, v in report.verdicts.items() if v == "incorrect"])
    return RunResult(exit_code, out, report, summary)
