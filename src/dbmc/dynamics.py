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


def check_t_end(params: PTGainParams, t_end: float, horizon: float) -> None:
    """Raise PreconditionError unless 0 < t_end <= horizon and t_end stays
    a relative 1e-9 short of the deadline, where the gain is singular."""
    limit = params.deadline * (1.0 - 1e-9)
    if not 0.0 < t_end < limit:
        raise PreconditionError(f"t_end must lie in (0, {limit!r}), got {t_end!r}")
    if horizon < t_end:
        raise PreconditionError(
            f"disturbance model covers [0, {horizon}], t_end {t_end} is beyond it"
        )


def _rates(
    lay: CandidateLayout,
    grouped: DisturbanceModel,
    sol: ShortestPathSolution,
    params: PTGainParams,
) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """rates(t, z, own): the time derivative of the m non-source errors.

    ``grouped`` is the disturbance model taken in layout order,
    ``model.take(lay.order)``.  ``z`` holds the m non-source errors followed
    by one 0, the error every source keeps, and ``own`` is ``z[:m]``.
    Candidate values are z_j + (p_j + w_ij - p_i) + u_ij(t) over ``lay``;
    the offset term vanishes on true-parent edges, so at the solution with
    zero disturbance the rates are exactly zero.
    """
    p = np.asarray(sol.p, dtype=float)
    offsets = p[lay.heads] + lay.weights - p[lay.tails]
    slots, starts = lay.slots, lay.starts
    gamma, two_h2, deadline = params.gamma, 2.0 * (1.0 + params.h), params.deadline

    def rates(t: float, z: np.ndarray, own: np.ndarray) -> np.ndarray:
        best = np.minimum.reduceat(z[slots] + offsets + grouped.sample_all(t), starts)
        return (gamma + two_h2 / (deadline - t)) * (best - own)

    return rates


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
    """
    if sol is None:
        sol = solve_shortest_paths(g)
    x0 = np.asarray(x0, dtype=float)
    check_initial_state(g, sol, x0)
    check_t_end(params, t_end, model.horizon)

    times, steps = step_grid(params, t_end)
    lay = candidate_layout(g, model)
    rates = _rates(lay, model.take(lay.order), sol, params)
    ns = lay.non_sources
    p = np.asarray(sol.p, dtype=float)

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
