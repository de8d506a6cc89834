"""Prescribed-time gain schedule and integration of the consensus dynamics.

Every non-source node relaxes toward the minimum of (neighbor state +
disturbed edge weight) under a gain that diverges at a user-chosen deadline:

    dx_i/dt = -gain(t) * (x_i - min_j {x_j + w_ij + u_ij(t)}),   i not a source,

with source states frozen at zero.  The integrator advances the error
coordinates e_i = x_i - p_i instead of x_i: the two systems are identical in
exact arithmetic, but near convergence e_i shrinks below the floating-point
resolution of x_i around p_i, and only the error form keeps those magnitudes
representable.  Reported states are p + e.

Only the m non-source errors are integrated.  The state is a compact vector
of those m errors followed by one slot that is always 0: every source keeps
error 0, so every edge into a source reads that slot.  The candidates
z_j + w_ij + u_ij(t) come from the tail-grouped
:class:`~dbmc.disturbance.CandidateLayout`, the same layout
``termination.current_parents`` takes its parent sets from.
"""

from __future__ import annotations

import math
import os
import signal
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .disturbance import CandidateLayout, DisturbanceModel, candidate_layout
from .errors import (
    DomainError,
    IntegrationError,
    PreconditionError,
    ValidationError,
)
from .graph import ShortestPathSolution, WeightedDigraph, solve_shortest_paths
from .seriesio import BLOCK

# The one step policy: no step exceeds deadline / STEPS_PER_DEADLINE nor
# REMAINING_FRACTION of the time left to the deadline, which keeps
# gain * step bounded as the gain blows up.
STEPS_PER_DEADLINE = 5000.0
REMAINING_FRACTION = 0.01

# simulate splits each RHS call with a forked worker from this many candidate
# edges on.  Below it the handoff can cost more than half the edge work saves.
# On 1000-node graphs (2-vCPU host) the split took x0.92-1.07 the serial time
# at 2 991 edges, x0.85-0.94 at 4 963 and about x0.75 at 12 984; a prototype
# took x1.09 at 4 772 and x0.94 at 5 522.  The threshold is above every loss.
SPLIT_EDGES = 5000
# Times a side waiting for the other tries the handoff semaphore before it
# starts to block on it.
SPIN = 2000
# Seconds a side blocks on the handoff semaphore before it checks that the
# other side still lives.
POLL_S = 0.05


@dataclass(frozen=True)
class PTGainParams:
    """Parameters of the prescribed-time gain schedule.

    gain(t) = gamma + 2 (1 + h) / (deadline - t); finite on [0, deadline)
    and divergent at the deadline.  Requires gamma > 0, h > -1/2,
    deadline > 0.
    """

    gamma: float
    h: float
    deadline: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValidationError("gamma must be positive")
        if not (math.isfinite(self.h) and self.h > -0.5):
            raise ValidationError("h must exceed -1/2")
        if not (math.isfinite(self.deadline) and self.deadline > 0.0):
            raise ValidationError("deadline must be positive")


def log_integrating_factor(params: PTGainParams, t):
    """The running integral of the gain on [0, deadline); a float for scalar ``t``."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= params.deadline):
        raise DomainError(f"time must lie in [0, {params.deadline}), got {t!r}")
    out = params.gamma * arr + (2.0 + 2.0 * params.h) * np.log(
        params.deadline / (params.deadline - arr)
    )
    return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class Trajectory:
    """Stored output of one integration: every accepted step, no interpolation."""

    p: np.ndarray
    times: np.ndarray
    errors: np.ndarray

    @property
    def final_states(self) -> np.ndarray:
        return self.errors[-1] + self.p


def check_initial_state(
    g: WeightedDigraph, sol: ShortestPathSolution, x0: np.ndarray
) -> None:
    """Raise PreconditionError unless ``x0`` is a valid initial state of ``g``.

    It needs one finite entry per node, every source at exactly 0, and every
    other node at or above its shortest-path distance.
    """
    if x0.shape != (g.node_count,):
        raise PreconditionError(f"x0 must have one entry per node, got shape {x0.shape}")
    bad = np.flatnonzero(~np.isfinite(x0))
    if bad.size:
        raise PreconditionError(f"initial state of node {bad[0] + 1} is not finite")
    for s in sorted(g.sources):
        if x0[s - 1] != 0.0:
            raise PreconditionError(
                f"source node {s} must start at 0, got {float(x0[s - 1])!r}"
            )
    for i in g.non_sources:
        if x0[i - 1] < sol.p[i - 1]:
            raise PreconditionError(
                f"initial state of node {i} underestimates its distance "
                f"({float(x0[i - 1])!r} < {float(sol.p[i - 1])!r})"
            )


def t_end_limit(params: PTGainParams) -> float:
    """The bound every t_end must stay below: a relative 1e-9 short of the
    deadline, where the gain is singular."""
    return params.deadline * (1.0 - 1e-9)


def check_t_end(params: PTGainParams, t_end: float, horizon: float) -> None:
    """Raise PreconditionError unless 0 < t_end <= horizon and t_end stays
    below :func:`t_end_limit`."""
    limit = t_end_limit(params)
    if not 0.0 < t_end < limit:
        raise PreconditionError(f"t_end must lie in (0, {limit!r}), got {t_end!r}")
    if horizon < t_end:
        raise PreconditionError(
            f"disturbance model covers [0, {horizon}], t_end {t_end} is beyond it"
        )


def _segments(
    lay: CandidateLayout, model: DisturbanceModel, p: np.ndarray, lo: int, hi: int
) -> tuple[DisturbanceModel, np.ndarray, np.ndarray, np.ndarray]:
    """(grouped, slots, offsets, starts) of the segments of non-sources lo..hi-1.

    ``grouped`` is ``model`` taken in the order of those segments' edges.
    The smallest candidate z_j + (p_j + w_ij - p_i) + u_ij(t) of each of
    those non-sources is ``np.minimum.reduceat(z[slots] + offsets +
    grouped.sample_all(t), starts)``, where ``z`` holds the m non-source
    errors followed by one 0, the error every source keeps.  The offset
    term vanishes on true-parent edges, so at the solution with zero
    disturbance every minimum is exactly 0.  Each value is an elementwise
    op or a per-segment minimum, so the minima of any split of 0..m into
    ranges have the bits of the minima of the whole.
    """
    a = lay.starts[lo]
    b = lay.starts[hi] if hi < len(lay.starts) else len(lay.order)
    offsets = p[lay.heads[a:b]] + lay.weights[a:b] - p[lay.tails[a:b]]
    return model.take(lay.order[a:b]), lay.slots[a:b], offsets, lay.starts[lo:hi] - a


def _stage_times(times: Sequence[float], steps: Sequence[float]):
    """The time of every RK4 stage on the grid, in the order ``simulate``
    takes them: t, t + h/2, t + h/2, t + h per step, the same floats."""
    for t, hs in zip(times, steps):
        half = 0.5 * hs
        yield t
        yield t + half
        yield t + half
        yield t + hs


class _Half:
    """The minima of one range of non-sources, from its :func:`_segments`.

    ``minima(t, z, out)`` writes them to ``out``; it uses the sample that
    ``sample_ahead(t)`` took, if any, and samples stage time ``t`` itself
    otherwise.  ``sample_ahead(t_next)`` samples the next stage's
    disturbance; a NaN ``t_next`` (after the last stage) samples nothing.
    """

    def __init__(
        self, grouped: DisturbanceModel, slots: np.ndarray, offsets: np.ndarray,
        starts: np.ndarray,
    ) -> None:
        self._grouped, self._slots, self._offsets, self._starts = grouped, slots, offsets, starts
        self._t_ahead, self._ahead = math.nan, None

    def minima(self, t: float, z: np.ndarray, out: np.ndarray) -> None:
        u = self._ahead if t == self._t_ahead else self._grouped.sample_all(t)
        np.minimum.reduceat(z[self._slots] + self._offsets + u, self._starts, out=out)

    def sample_ahead(self, t_next: float) -> None:
        self._t_ahead = t_next
        if not math.isnan(t_next):
            self._ahead = self._grouped.sample_all(t_next)


def _rates(
    lay: CandidateLayout,
    model: DisturbanceModel,
    sol: ShortestPathSolution,
    params: PTGainParams,
    worker: _Worker | None = None,
    stages: Iterable[float] = (),
) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """rates(t, z, own): the time derivative of the m non-source errors.

    ``z`` holds the m non-source errors followed by one 0, the error every
    source keeps, and ``own`` is ``z[:m]``; the rates are gain(t) times the
    smallest candidate of each non-source (:func:`_segments`) minus
    ``own``.  With a ``worker``, this process takes the non-sources before
    ``worker.cut`` and the worker the rest, at the same time; the bits are
    the same.  ``stages`` then iterates the times of the calls, in order.
    Each call posts its stage to the worker, computes this process's
    :class:`_Half` of the minima into ``worker.best``, samples the next
    stage's disturbance while the worker finishes its half, and collects
    it, which lands in ``worker.best`` too.
    """
    p = np.asarray(sol.p, dtype=float)
    gamma, two_h2, deadline = params.gamma, 2.0 * (1.0 + params.h), params.deadline

    if worker is None:
        grouped, slots, offsets, starts = _segments(lay, model, p, 0, len(lay.non_sources))

        def rates(t: float, z: np.ndarray, own: np.ndarray) -> np.ndarray:
            best = np.minimum.reduceat(z[slots] + offsets + grouped.sample_all(t), starts)
            return (gamma + two_h2 / (deadline - t)) * (best - own)

        return rates

    half, best = _Half(*_segments(lay, model, p, 0, worker.cut)), worker.best
    head = best[: worker.cut]
    stages = iter(stages)
    next(stages, None)  # the first call's own time

    def split_rates(t: float, z: np.ndarray, own: np.ndarray) -> np.ndarray:
        t_next = next(stages, math.nan)
        worker.post(t, t_next, z)
        half.minima(t, z, head)
        half.sample_ahead(t_next)
        worker.collect()
        return (gamma + two_h2 / (deadline - t)) * (best - own)

    return split_rates


def _may_split(lay: CandidateLayout) -> bool:
    """Whether ``simulate`` may fork a :class:`_Worker` for this layout.

    It needs at least ``SPLIT_EDGES`` candidate edges over two or more
    non-sources, ``os.fork``, two CPUs this process may run on, and this
    process to be its only OS thread (Linux ``/proc/self/task``): forking
    a process that runs threads, such as a BLAS pool, can copy a lock that
    a lost thread holds.
    """
    if len(lay.order) < SPLIT_EDGES or len(lay.starts) < 2 or not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return False
    return cpus >= 2 and threads == 1


class _Worker:
    """A forked process that takes the non-sources from ``cut`` on, every stage.

    The cut is the segment boundary nearest half the candidate edges.  The
    two processes share one anonymous ``mmap``: the stage time and the next
    stage's (NaN after the last), the stage input ``z`` and ``best``, the
    minima of all m non-sources: the parent writes those before ``cut``,
    and the worker writes the rest in place, so the parent copies nothing.
    Two process-shared POSIX semaphores are the handoff: the parent posts
    ``posted`` once it has written a stage, and the worker posts ``done``
    once it has written its minima; each post and each wait is also a
    memory fence.  Once the worker has posted a stage, it samples the next
    stage's disturbance while the parent finishes the RK4 update and
    posts; both sides compute with one :class:`_Half` each.

    A waiting side tries its semaphore ``SPIN`` times, then waits on it
    ``POLL_S`` seconds at a time.  Between waits it checks that the other
    side lives: the parent, that the worker has not exited; the worker,
    that it is still the parent's child.  If not, the parent raises
    IntegrationError and the worker exits.  A post never blocks, so a side
    killed at any point leaves nothing held.

    The worker leaves only through ``os._exit``: it never returns into its
    caller's frames, runs no atexit hook, flushes no inherited stdio buffer
    and writes nothing.  Leaving the ``with`` block kills and reaps it.
    """

    def __init__(self, lay: CandidateLayout, model: DisturbanceModel, p: np.ndarray) -> None:
        self._args = lay, model, p
        n = len(lay.order)
        self.cut = int(np.argmin(np.abs(lay.starts[1:] - 0.5 * n))) + 1

    def __enter__(self) -> _Worker:
        import mmap

        # The C semaphore type under multiprocessing: importing the
        # multiprocessing package itself adds 0.85 MB to the peak RSS.
        from _multiprocessing import SemLock

        lay, model, p = self._args
        m = len(lay.non_sources)
        self._mem = mmap.mmap(-1, 8 * (2 + (m + 1) + m))
        floats = np.frombuffer(self._mem, dtype=float)
        self._t, self._z, self.best = floats[:2], floats[2 : m + 3], floats[m + 3 :]
        # Kind SEMAPHORE (1), value 0, max 1, each name unlinked at once.
        self._parent = os.getpid()
        name = f"/dbmc-{self._parent}-{id(self)}"
        self._posted, self._done = (SemLock(1, 0, 1, name + k, True) for k in ("-p", "-d"))
        self._pid = os.fork()
        if self._pid == 0:
            code = 1
            try:
                self._serve(_Half(*_segments(lay, model, p, self.cut, m)))
                code = 0
            finally:
                os._exit(code)
        return self

    def __exit__(self, *exc) -> None:
        os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)

    def post(self, t: float, t_next: float, z: np.ndarray) -> None:
        """Hand the worker stage time ``t``, the next stage's time (NaN
        after the last stage) and stage input ``z``."""
        self._t[0] = t
        self._t[1] = t_next
        np.copyto(self._z, z)
        self._posted.release()

    def collect(self) -> None:
        """Wait for the worker's minima of the last posted stage in ``best[cut:]``."""
        if not self._wait(self._done):
            raise IntegrationError("the worker of the split RHS is gone")

    def _serve(self, half: _Half) -> None:
        """The worker's loop over its half; returns once the parent is gone.
        It reads the next stage's time before it posts ``done``, as the
        parent may post over it after."""
        z, out, clock = self._z, self.best[self.cut :], self._t
        while self._wait(self._posted):
            t, t_next = float(clock[0]), float(clock[1])
            half.minima(t, z, out)
            self._done.release()
            half.sample_ahead(t_next)

    def _gone(self) -> bool:
        """Whether the other side has exited: the worker once it can be
        waited for, the parent once the worker is no longer its child."""
        if self._pid == 0:
            return os.getppid() != self._parent
        try:
            return os.waitid(os.P_PID, self._pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None
        except ChildProcessError:
            return True

    def _wait(self, sem) -> bool:
        """Take ``sem``; False if the other side is gone first."""
        for _ in range(SPIN):
            if sem.acquire(False):
                return True
        while not sem.acquire(True, POLL_S):
            if self._gone():
                return False
        return True


def step_grid(params: PTGainParams, t_end: float) -> tuple[list[float], list[float]]:
    """Stored times on [0, t_end] (0 and t_end included) and the step sizes.

    A step is min(deadline / STEPS_PER_DEADLINE, REMAINING_FRACTION * time
    left to the deadline), cut to land on t_end; raises IntegrationError
    when one underflows.
    """
    h_cap = params.deadline / STEPS_PER_DEADLINE
    floor = 1e-15 * params.deadline
    t = 0.0
    times = [0.0]
    steps = []
    while t < t_end:
        hs = min(h_cap, REMAINING_FRACTION * (params.deadline - t))
        last = (t_end - t) <= hs
        if last:
            hs = t_end - t
        if hs <= floor:
            raise IntegrationError(f"step size underflow at t = {t!r}")
        t = t_end if last else t + hs
        times.append(t)
        steps.append(hs)
    return times, steps


def simulate(
    g: WeightedDigraph,
    model: DisturbanceModel,
    params: PTGainParams,
    x0: Sequence[float],
    t_end: float,
    sol: ShortestPathSolution | None = None,
    *,
    on_block: Callable[[slice, np.ndarray], None] | None = None,
) -> Trajectory:
    """Integrate the disturbed dynamics on [0, t_end] with classic RK4.

    Preconditions: those of :func:`check_initial_state` and
    :func:`check_t_end`, and ``model`` is built on ``g``.  Disturbances
    are sampled once per RK4 stage, four times per step.
    Deterministic for fixed inputs; every accepted step is stored.  Row 0
    of ``errors`` is x0 - p; later rows hold 0.0 in the source columns.

    The stored times are :func:`step_grid` of ``(params, t_end)``, which a
    caller may build itself to know them before the integration.
    ``on_block(span, rows)``, if given, receives each finished block
    of ``BLOCK`` rows of ``errors`` (the last may be shorter), in order, as
    soon as its last step is taken: ``rows`` is ``errors[span]``, final.

    Which process gets a second CPU: when ``on_block`` is given, the
    caller's consumer does (``dbmc run`` and ``dbmc simulate`` hand the
    blocks to a writer child).  Otherwise, on a graph of at least
    ``SPLIT_EDGES`` candidate edges, ``simulate`` forks one worker that
    computes the minima of about half the candidate edges at every stage,
    while this process computes the other half (:class:`_Worker`).  Each
    side samples its next stage's disturbance in the time it would wait for
    the other, and the worker writes its minima into a buffer shared with
    this process; two semaphores hand each stage over.  The split needs two
    usable CPUs and a process that runs no other OS thread; numpy's default
    OpenBLAS pool is one, so a caller enables the split by setting
    ``OPENBLAS_NUM_THREADS=1`` before numpy is imported, as ``bench/run.py``
    does.  The split changes no bit of the result, no stored time and no
    sample: this process still calls ``sample_all`` once per stage, on its
    half, at the same times and in the same order, and none after the last
    stage.  The worker never outlives the call, and the split holds no file
    descriptor and leaves no semaphore name behind.
    """
    if sol is None:
        sol = solve_shortest_paths(g)
    x0 = np.asarray(x0, dtype=float)
    check_initial_state(g, sol, x0)
    check_t_end(params, t_end, model.horizon)

    times, steps = step_grid(params, t_end)
    lay = candidate_layout(g, model)
    ns = lay.non_sources
    p = np.asarray(sol.p, dtype=float)
    split = on_block is None and _may_split(lay)

    # Only the m non-source errors are integrated.  ``z`` and the stage
    # input ``y`` carry one trailing 0 that every source head reads, and each
    # step is written into its row of ``errors`` (sources stay 0 after row 0).
    # Steps run block by block of rows, so a block's end costs nothing per step.
    errors = np.zeros((len(times), g.node_count))
    errors[0] = x0 - p
    m = len(ns)
    z = np.append(errors[0, ns], 0.0)
    y = np.zeros(m + 1)
    z_own, y_own = z[:m], y[:m]
    with _Worker(lay, model, p) if split else nullcontext() as worker:
        rates = _rates(lay, model, sol, params, worker, _stage_times(times, steps))
        for a in range(0, len(times), BLOCK):
            b = min(a + BLOCK, len(times))
            lo = max(a, 1)
            for k, t, hs in zip(range(lo, b), times[lo - 1 : b - 1], steps[lo - 1 : b - 1]):
                half = 0.5 * hs
                k1 = rates(t, z, z_own)
                np.add(z_own, half * k1, out=y_own)
                k2 = rates(t + half, y, y_own)
                np.add(z_own, half * k2, out=y_own)
                k3 = rates(t + half, y, y_own)
                np.add(z_own, hs * k3, out=y_own)
                k4 = rates(t + hs, y, y_own)
                z_own += (hs / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)
                errors[k, ns] = z_own
            if on_block is not None:
                on_block(slice(a, b), errors[a:b])

    return Trajectory(p=p, times=np.array(times), errors=errors)
