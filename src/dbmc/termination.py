"""Stop-time bookkeeping: parents in effect, traced routes, and verdicts.

A node's *current parents* at time t are the out-neighbors attaining the
disturbed running minimum x_j(t) + w_ij + u_ij(t).  Identification is judged
strictly: a node is correct iff its nonempty current-parent set is contained
in its true-parent set.  A verdict tolerance other than zero would weaken
that condition, so only the diagnostic listing may use one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .disturbance import DisturbanceModel, candidate_layout
from .errors import CycleError, DomainError, MissingParentError
from .graph import ShortestPathSolution, WeightedDigraph

log = logging.getLogger("dbmc")

VERDICT_CORRECT = "correct"
VERDICT_INCORRECT = "incorrect"
VERDICT_SOURCE = "source"

DIAG_TIE_TOL = 1e-9


def current_parents(
    g: WeightedDigraph,
    model: DisturbanceModel,
    x,
    t: float,
    tie_tol: float = 0.0,
) -> dict[int, frozenset[int]]:
    """Per non-source node, the neighbors within ``tie_tol`` of the disturbed minimum.

    The candidates x_j + w_ij + u_ij(t) are laid out by
    :func:`~dbmc.disturbance.candidate_layout` (``model`` must be built on
    ``g``), so the disturbance is sampled once and each node's minimum is
    one ``np.minimum.reduceat`` segment.  A NaN candidate makes its node's
    minimum NaN and its set empty.
    """
    if tie_tol < 0.0:
        raise DomainError("tie_tol must be nonnegative")
    lay = candidate_layout(g, model)
    x = np.asarray(x, dtype=float)
    cand = x[lay.heads] + lay.weights + model.sample_all(t)[lay.order]
    best = np.minimum.reduceat(cand, lay.starts)
    hit = cand <= np.repeat(best, lay.degree) + tie_tol
    out: dict[int, list[int]] = {i: [] for i in (lay.non_sources + 1).tolist()}
    for i, j in zip((lay.tails[hit] + 1).tolist(), (lay.heads[hit] + 1).tolist()):
        out[i].append(j)
    return {i: frozenset(js) for i, js in out.items()}


def reconstruct_path(
    g: WeightedDigraph, start: int, parents: Mapping[int, frozenset[int]]
) -> list[int]:
    """Trace parent links from ``start`` down to a source.

    Picks the smallest id whenever a set has several members.  Raises
    CycleError if a node repeats and MissingParentError if a non-source node
    has nothing to follow.
    """
    path = [start]
    seen = {start}
    cur = start
    while cur not in g.sources:
        members = parents.get(cur, frozenset())
        if not members:
            raise MissingParentError(f"node {cur} has no parent to follow")
        cur = min(members)
        if cur in seen:
            raise CycleError(f"parent tracing revisits node {cur}")
        path.append(cur)
        seen.add(cur)
    return path


def check_identification(
    current: Mapping[int, frozenset[int]],
    truth: Mapping[int, frozenset[int]],
) -> tuple[dict[int, str], bool]:
    """Verdict per node: correct iff its current set is nonempty and within truth."""
    verdicts = {}
    for i, cur in current.items():
        ok = bool(cur) and cur <= truth[i]
        verdicts[i] = VERDICT_CORRECT if ok else VERDICT_INCORRECT
    overall = all(v == VERDICT_CORRECT for v in verdicts.values())
    return verdicts, overall


@dataclass(frozen=True)
class TerminationReport:
    """Outcome of stopping the protocol at ``t_s``."""

    t_s: float
    overall: bool
    current: dict[int, frozenset[int]]
    verdicts: dict[int, str]
    paths: dict[int, tuple[int, ...] | None]

    def to_dict(self) -> dict:
        nodes = {}
        for i in sorted(self.verdicts):
            path = self.paths[i]
            nodes[str(i)] = {
                "current_parents": sorted(self.current.get(i, frozenset())),
                "verdict": self.verdicts[i],
                "path": list(path) if path is not None else None,
            }
        return {"t_s": self.t_s, "overall": self.overall, "nodes": nodes}


def build_report(
    g: WeightedDigraph,
    sol: ShortestPathSolution,
    model: DisturbanceModel,
    x,
    t_s: float,
) -> TerminationReport:
    """Judge identification at time ``t_s`` from the states ``x``.

    Verdicts always use a zero tie tolerance; nodes whose parent set widens
    under the diagnostic tolerance are logged at debug level.  Paths follow
    the current parents and are ``None`` when tracing fails (possible only
    for misidentified nodes).
    """
    current = current_parents(g, model, x, t_s, tie_tol=0.0)
    truth = {i: sol.parents(i) for i in g.non_sources}
    verdicts, overall = check_identification(current, truth)

    if log.isEnabledFor(logging.DEBUG):
        wide = current_parents(g, model, x, t_s, tie_tol=DIAG_TIE_TOL)
        for i in g.non_sources:
            if wide[i] != current[i]:
                log.debug(
                    "node %d near-tie: strict parents %s, within %.1e also %s",
                    i, sorted(current[i]), DIAG_TIE_TOL, sorted(wide[i] - current[i]),
                )

    paths: dict[int, tuple[int, ...] | None] = {}
    for i in range(1, g.node_count + 1):
        if i in g.sources:
            paths[i] = (i,)
            continue
        try:
            paths[i] = tuple(reconstruct_path(g, i, current))
        except (CycleError, MissingParentError):
            paths[i] = None
    for s in g.sources:
        verdicts[s] = VERDICT_SOURCE

    return TerminationReport(
        t_s=float(t_s),
        overall=overall,
        current=dict(current),
        verdicts=verdicts,
        paths=paths,
    )
