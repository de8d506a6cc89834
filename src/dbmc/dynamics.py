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
from dataclasses import dataclass
from typing import Callable, Sequence

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

# simulate evaluates only the active candidates (:class:`_ActiveRates`)
# from this many candidate edges on.  Against the RHS that evaluates every
# candidate, with sinusoid 3% to 1.7 (2 vCPU host), the active one took
# x1.09 the time at 1 069 edges (100 nodes), x0.95 at 1 988 (1000 nodes),
# x0.86 at 2 502 (100 nodes) and x0.67 at 2 991 (1000 nodes).
ACTIVE_EDGES = 2500
# A refresh costs what several pruned stages save, so a kept set that fails
# its test within this many pruned stages has barely paid for itself, and the
# next one is kept wider (:class:`_ActiveRates`).  Without the widening, zero
# disturbance on continuous weights refreshed at every second stage and took
# x2.06 the full RHS's time on a 1000-node graph; with it, x0.53.  It is also
# the first wait, in stages, before a refresh that bails is retried.  On that
# graph with x0 = 12, retrying there in place of refreshing at every block
# start took the full stages of a run to t_s from 540 to 242.
SHORT_LIVED = 16


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
    lay: CandidateLayout, model: DisturbanceModel, p: np.ndarray
) -> tuple[DisturbanceModel, np.ndarray]:
    """(grouped, offsets) of the layout's candidate edges.

    ``grouped`` is ``model`` taken in layout order.  The smallest candidate
    z_j + (p_j + w_ij - p_i) + u_ij(t) of each non-source is
    ``np.minimum.reduceat(z[lay.slots] + offsets + grouped.sample_all(t),
    lay.starts)``, where ``z`` holds the m non-source errors followed by one
    0, the error every source keeps.  The offset term vanishes on
    true-parent edges, so at the solution with zero disturbance every
    minimum is exactly 0.
    """
    offsets = p[lay.heads] + lay.weights - p[lay.tails]
    return model.take(lay.order), offsets


def _rates(
    lay: CandidateLayout, model: DisturbanceModel, p: np.ndarray, params: PTGainParams
) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """rates(t, z, own): the time derivative of the m non-source errors.

    ``z`` holds the m non-source errors followed by one 0, the error every
    source keeps, and ``own`` is ``z[:m]``; the rates are gain(t) times the
    smallest candidate of each non-source (:func:`_segments` of ``p``)
    minus ``own``.
    """
    gamma, two_h2, deadline = params.gamma, 2.0 * (1.0 + params.h), params.deadline
    grouped, offsets = _segments(lay, model, p)
    slots, starts = lay.slots, lay.starts
    gain = np.zeros(())  # see simulate's step sizes

    def rates(t: float, z: np.ndarray, own: np.ndarray) -> np.ndarray:
        best = np.minimum.reduceat(z[slots] + offsets + grouped.sample_all(t), starts)
        gain[()] = gamma + two_h2 / (deadline - t)
        return gain * (best - own)

    return rates


class _ActiveRates:
    """The rates of :func:`_rates`, bit for bit, from only the candidates
    that can still be a node's minimum.

    Between two samples an edge's disturbance moves by at most W_e =
    edge_lower + edge_upper, so a candidate c_e moves by at most W_e + D,
    where D = max|y - z_ref| is how far the stage input y lies from the
    input z_ref the candidates were last evaluated at.  A *refresh*
    evaluates every candidate, as :func:`_rates` does, records z_ref and
    keeps, per non-source, the candidates with c_e - W_e <= min(c + W) +
    sigma: the node's smallest candidate is among them.  Each dropped
    candidate clears the kept minimum by at least the margin S = min over
    nodes of (min over its dropped ones of c - W) - min(c + W), which is
    stored less 2 eps, eps = 1e-12 (1 + max|c| + max W) a rounding
    allowance.  So while 2D < S, every dropped candidate stays above its
    node's minimum, and a stage samples (``window(...).take``) and reduces
    only the kept ones.  No candidate is -0 (a sum is -0 only when both
    terms are, and no offset is) and a NaN input fails the test, so the
    minimum has the bits of the full one.

    The first stage refreshes, and so does a stage whose test fails; a
    kept set outlives a block start (:meth:`start_block`).  sigma starts
    each block at 2 max W and is never taken below 4 eps, so that S > 2
    eps.  A kept set that fails the test within ``SHORT_LIVED`` pruned
    stages widens the next one: sigma becomes twice the larger of sigma
    and D, so a steady drift breaks each set later than the last.  A
    refresh that would keep more than half the candidates *bails*: it
    keeps none, and the stages up to its retry run in full.  The choice
    between a full and a pruned stage is made before sampling, so each
    stage samples once.
    """

    def __init__(
        self, lay: CandidateLayout, model: DisturbanceModel, p: np.ndarray,
        params: PTGainParams,
    ) -> None:
        self._params = params.gamma, 2.0 * (1.0 + params.h), params.deadline
        self._grouped, self._offsets = _segments(lay, model, p)
        self._slots, self._starts = lay.slots, lay.starts
        self._degree = lay.degree
        # the position among the non-sources of each candidate's tail
        self._node = np.repeat(np.arange(len(lay.starts)), lay.degree)
        self._w_max = float((self._grouped.edge_lower + self._grouped.edge_upper).max())
        self._dz = np.empty(len(lay.starts) + 1)
        self._gain = np.zeros(())
        # _left: the full stages before the next refresh.  A bail retries
        # after _wait stages, which starts at SHORT_LIVED, grows 1.5 times
        # with each bail in a row, across block starts, and resets once a
        # refresh keeps a set.
        self._kept, self._wait, self._left = None, SHORT_LIVED, 0
        self.start_block(model.horizon)

    def start_block(self, t_last: float) -> None:
        """No stage before the next call samples past ``t_last``."""
        # a kept set stays; the first stage that passes its test re-windows
        # its sub-model to the block, with no full stage
        self._t_last, self._stale = t_last, True
        self._sigma = 2.0 * self._w_max

    def __call__(self, t: float, z: np.ndarray, own: np.ndarray) -> np.ndarray:
        gamma, two_h2, deadline = self._params
        best = None if self._kept is None else self._pruned(t, z)
        if best is None:
            cand = z[self._slots] + self._offsets + self._grouped.sample_all(t)
            best = np.minimum.reduceat(cand, self._starts)
            if self._left:
                self._left -= 1
            else:
                self._refresh(t, z, cand)
        gain = self._gain
        gain[()] = gamma + two_h2 / (deadline - t)
        return gain * (best - own)

    def _pruned(self, t: float, z: np.ndarray) -> np.ndarray | None:
        """The minima from the kept candidates at stage input ``z``, or None
        (a refresh due) when ``z`` lies too far from the refresh's input."""
        kept, slots, offsets, extra, z_ref, margin = self._kept
        dz = np.subtract(z, z_ref, out=self._dz)
        d = float(np.abs(dz, out=dz).max())
        if 2.0 * d < margin:
            if self._stale:
                self._sub, self._stale = self._grouped.window(t, self._t_last).take(kept), False
            self._served += 1
            cand = z[slots] + offsets + self._sub.sample_all(t)
            m = len(z) - 1  # z ends with the sources' 0
            best = cand[:m]  # each node's first kept candidate
            np.minimum.at(best, extra, cand[m:])
            return best
        if self._served < SHORT_LIVED:
            self._sigma = 2.0 * max(self._sigma, d)
        return None

    def _refresh(self, t: float, z: np.ndarray, cand: np.ndarray) -> None:
        """Keep the candidates that can still be a minimum, from the
        candidates ``cand`` of stage input ``z`` at time ``t``, or bail."""
        self._kept = None
        w = self._grouped.edge_lower + self._grouped.edge_upper
        eps = 1e-12 * (1.0 + float(np.abs(cand).max()) + self._w_max)
        top = np.minimum.reduceat(cand + w, self._starts)
        low = cand - w
        keep = low <= np.repeat(top + max(self._sigma, 4.0 * eps), self._degree)
        kept = np.flatnonzero(keep)
        if 2 * len(kept) > len(cand):
            self._left, self._wait = self._wait - 1, self._wait + self._wait // 2
            return
        self._wait = SHORT_LIVED
        # min over the dropped e of (c_e - W_e) - min(c + W) of e's node
        gap = np.where(keep, np.inf, low) - np.repeat(top, self._degree)
        margin = float(gap.min()) - 2.0 * eps
        # each node's first kept candidate, in node order, then the others
        node = self._node[kept]
        first = np.ones(len(kept), dtype=bool)
        np.not_equal(node[1:], node[:-1], out=first[1:])
        kept = np.concatenate((kept[first], kept[~first]))
        self._sub, self._stale = self._grouped.window(t, self._t_last).take(kept), False
        self._kept = (kept, self._slots[kept], self._offsets[kept], node[~first], z.copy(),
                      margin)
        self._served = 0


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

    On a layout of at least ``ACTIVE_EDGES`` candidate edges, and twice its
    non-sources, most stages evaluate only the candidates that can still
    be a node's minimum (:class:`_ActiveRates`); the result has the same
    bits, and the samples the same times, as a run that evaluates all of
    them.  Nothing forks, so no setting such as ``OPENBLAS_NUM_THREADS=1``
    is needed.
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
    # Every non-source keeps at least one candidate, so where 2m > E no
    # refresh could keep half or fewer.
    active = len(lay.order) >= ACTIVE_EDGES and 2 * len(ns) <= len(lay.order)
    rates = (_ActiveRates if active else _rates)(lay, model, p, params)

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
    # a basic slice when the non-sources are one id range, as when node 1 is
    # the only source: a row store then takes about a sixth of the time
    cols = slice(ns[0], ns[-1] + 1) if m and ns[-1] - ns[0] == m - 1 else ns
    # The step sizes and the gain are 0-d arrays: an array times a Python
    # float costs about 150 ns more than an array times a 0-d array.
    half, step, sixth = np.zeros(()), np.zeros(()), np.zeros(())
    for a in range(0, len(times), BLOCK):
        b = min(a + BLOCK, len(times))
        lo = max(a, 1)
        if active:
            # the block's last stage time, formed as its last step forms it
            rates.start_block(times[b - 2] + steps[b - 2])
        for k, t, hs in zip(range(lo, b), times[lo - 1 : b - 1], steps[lo - 1 : b - 1]):
            half[()], step[()], sixth[()] = 0.5 * hs, hs, hs / 6.0
            t_half = t + 0.5 * hs
            k1 = rates(t, z, z_own)
            np.add(z_own, half * k1, out=y_own)
            k2 = rates(t_half, y, y_own)
            np.add(z_own, half * k2, out=y_own)
            k3 = rates(t_half, y, y_own)
            np.add(z_own, step * k3, out=y_own)
            k4 = rates(t + hs, y, y_own)
            z_own += sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)
            errors[k, cols] = z_own
        if on_block is not None:
            on_block(slice(a, b), errors[a:b])

    return Trajectory(p=p, times=np.array(times), errors=errors)
