"""Closed-form error bands for the disturbed dynamics, and the early stop time.

This module holds the pieces of the bands: the nominal envelope of each
parent chain, the constant shifts of the proportional and uniform bands,
the network-wide offset and the power-law envelope that the stop time
inverts.  ``harness.compute_bound_curves`` is the one place that assembles
them into the chain, proportional, uniform and envelope bands, which the
harness reads a block of rows at a time.  :class:`NominalEnvelopes`
evaluates exactly the rows it is asked for, in one pass; splitting rows
into blocks is left to the harness.

Chains are source-first node sequences as produced by ``graph.parent_chain``;
a chain of ell + 1 nodes has depth ell.  Every evaluator accepts a scalar
time or an array of times and broadcasts accordingly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dynamics import PTGainParams, log_integrating_factor
from .errors import DomainError, InfeasibleError
from .graph import ShortestPathSolution


def chain_initial_errors(
    sol: ShortestPathSolution, x0: Sequence[float], chain: Sequence[int]
) -> np.ndarray:
    """Initial errors x0 - p along a chain, source first."""
    x0 = np.asarray(x0, dtype=float)
    return np.array([x0[k - 1] - sol.p[k - 1] for k in chain])


class NominalEnvelopes:
    """Error ceiling along each parent chain when edge weights are undisturbed,
    as a (times x chains) table evaluated only for the rows a reader asks for.

    With f(t) the integrating factor and L = ln f(t), the chain
    i_0, ..., i_ell (source first, initial errors e0) obeys

        envelope(t) = sum_k e0[k] * L^(ell - k) / (f(t) * (ell - k)!).

    At t = 0 only the k = ell term survives (0^0 = 1), so the envelope
    starts at e0[-1]; the numerator grows logarithmically in f while the
    denominator grows linearly, so the envelope vanishes at the deadline.

    Built once: L = ln f(t) at every time, so a time outside [0, deadline)
    raises DomainError here and not at a read; per hop count m, the m-th
    coefficient of every chain deep enough to have one (deepest first),
    their largest magnitude and m!; and the permutation back to chain order.
    L, each power L^m and exp(-L) are shared by all chains, and each chain's
    terms are summed in the order m = 0, 1, ..., ell, so a cell has the same
    bits whichever rows are evaluated with it.  On deep chains near the
    deadline L^m or the running factorial m! (inf past m = 170) overflows; a
    term that is not finite is then evaluated in log space as
    e0 * exp(m ln L - lgamma(m + 1) - L) and added after the exp(-L) factor,
    so every envelope is finite and every cell without such a term keeps the
    bits of the direct sum.

    The one read is :meth:`rows`.  Nothing is stored per time row but L,
    and nothing is kept between reads: the caller decides which rows are
    evaluated, how many at a time, and how often.
    """

    def __init__(self, e0_chains: Sequence[Sequence[float]], params: PTGainParams, t) -> None:
        self.lp = np.atleast_1d(np.asarray(log_integrating_factor(params, t), dtype=float))
        depths = np.array([len(e0) - 1 for e0 in e0_chains], dtype=int)
        order = np.argsort(-depths, kind="stable")  # deepest first
        self.hops = _hops([e0_chains[c] for c in order])
        self.back = np.argsort(order)
        self.shape = (self.lp.size, len(e0_chains))

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi - 1 of every chain, in chain order, as one read-only
        (hi - lo, chains) array; the caller sizes the read."""
        out = _deepest_first_envelopes(self.hops, self.shape[1], self.lp[lo:hi])[:, self.back]
        # setflags, not flags.writeable = False: numpy 2.4 leaks a few bytes
        # on each of those, and per block that pins freed heap in RSS
        out.setflags(write=False)
        return out


def _hops(chains: list) -> list[tuple[np.ndarray, float, float]]:
    """Per hop count m = 0, 1, ...: the m-th coefficient of each of the
    source-first ``chains`` deep enough to have one, in the given order (so
    deepest first when the chains are), their largest magnitude, and m!."""
    out = []
    fact = 1.0
    for m in range(max((len(e0) for e0 in chains), default=0)):
        if m > 0:
            fact *= m
        coeff = np.array([e0[len(e0) - 1 - m] for e0 in chains if len(e0) > m], dtype=float)
        out.append((coeff, float(np.abs(coeff).max()), fact))
    return out


def _deepest_first_envelopes(hops: list, width: int, lp: np.ndarray) -> np.ndarray:
    """The envelopes at the times whose L are ``lp``, one column per chain,
    deepest first; ``hops`` is :func:`_hops` of the chains in that order."""
    total = np.zeros((lp.size, width))
    logged = None  # log-space terms, already times exp(-L), and where they go
    for m, (coeff, scale, fact) in enumerate(hops):  # m counts hops above each chain node
        live = len(coeff)  # chains with an m-th term
        with np.errstate(over="ignore", invalid="ignore"):
            lpm = lp**m
            term = lpm[:, None] * coeff
            term /= fact
            # the times at which the largest term of the row is not finite
            rows = np.flatnonzero(~np.isfinite(lpm * scale / fact))
        if rows.size:
            if logged is None:
                logged, redone = np.zeros_like(total), np.zeros(total.shape, dtype=bool)
            block = term[rows]
            bad = ~np.isfinite(block)
            poisson = np.exp(m * np.log(lp[rows]) - math.lgamma(m + 1) - lp[rows])  # <= 1
            logged[rows, :live] += np.where(bad, poisson[:, None] * coeff, 0.0)
            redone[rows, :live] |= bad
            block[bad] = 0.0
            term[rows] = block
        total[:, :live] += term
    total *= np.exp(-lp)[:, None]
    if logged is not None:
        total[redone] += logged[redone]
    return total


def proportional_offsets(alpha_lower: float, alpha_upper: float, p):
    """(lower, upper shift) of the proportional band at distance ``p``.

    lower = -a1 * p (constant); upper = nominal envelope + a2 * p.  ``p``
    may be an array of distances.  Both fractions must lie in [0, 1).
    """
    if not (0.0 <= alpha_lower < 1.0 and 0.0 <= alpha_upper < 1.0):
        raise DomainError("fractional disturbance bounds must lie in [0, 1)")
    return -alpha_lower * p, alpha_upper * p


def uniform_offsets(u_minus: float, u_plus: float, depth, diameter_minus: int):
    """(lower, upper shift) of the uniform band of a chain of depth ``depth``.

    lower = -(D_minus - 1) * u_minus with D_minus the effective diameter of
    the shrunk-weight graph; upper = nominal envelope + depth * u_plus.
    ``depth`` may be an array of depths.
    """
    _check_uniform_bounds(u_minus, u_plus)
    return -(diameter_minus - 1) * u_minus, depth * u_plus


def power_law_envelope(
    max_initial_error: float, depth: int, q: float, params: PTGainParams, t
):
    """Closed-form relaxation of the nominal envelope used to place the stop time.

        max_initial_error * (q^depth - 1)/(q - 1) * ((deadline - t)/deadline)^x,
        x = (2h + 2)(1 - 1/q),  1 < q < inf.

    Strictly dominates the nominal envelope of any depth-``depth`` chain with
    zero source error and initial errors at most ``max_initial_error``, for
    every t in (0, deadline); defined up to t = deadline where it vanishes.
    Raises DomainError when max_initial_error * (q^depth - 1)/(q - 1) is not
    a finite float.
    """
    if not 1.0 < q < math.inf:
        raise DomainError(f"q must be finite and exceed 1, got {q!r}")
    if max_initial_error < 0.0:
        raise DomainError("max_initial_error must be nonnegative")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > params.deadline):
        raise DomainError(f"time must lie in [0, {params.deadline}], got {t!r}")
    try:
        scale = max_initial_error * ((q**depth - 1.0) / (q - 1.0))
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise DomainError(
            f"the power-law envelope overflows: q = {q!r} is too large for depth {depth}"
        )
    expo = (2.0 * params.h + 2.0) * (1.0 - 1.0 / q)
    out = scale * ((params.deadline - arr) / params.deadline) ** expo
    return float(out) if np.ndim(t) == 0 else out


def _check_uniform_bounds(u_minus: float, u_plus: float) -> None:
    if not (0.0 <= u_minus < math.inf and 0.0 <= u_plus < math.inf):
        raise DomainError(
            f"uniform disturbance bounds must be finite and nonnegative, "
            f"got {u_minus!r} and {u_plus!r}"
        )


def worst_case_offset(
    u_minus: float, u_plus: float, diameter: int, diameter_minus: int
) -> float:
    """Largest steady error offset the disturbances can sustain network-wide:
    max{(diameter_minus - 1) u_minus, (diameter - 1) u_plus}."""
    _check_uniform_bounds(u_minus, u_plus)
    if min(diameter, diameter_minus) < 1:
        raise DomainError("diameters must be at least 1")
    return max((diameter_minus - 1) * u_minus, (diameter - 1) * u_plus)


def early_termination_time(
    path_gap: float,
    u_minus: float,
    u_plus: float,
    diameter: int,
    diameter_minus: int,
    max_initial_error: float,
    q: float,
    params: PTGainParams,
) -> float:
    """Earliest stop time with a guaranteed correct parent choice at every node.

    Requires the margin condition (u_minus + u_plus)/2 + offset < path_gap/2,
    with offset = :func:`worst_case_offset`; otherwise raises
    :class:`InfeasibleError`.  The returned time is

        deadline * (1 - ratio^(1 / ((2h + 2)(1 - 1/q)))),
        ratio = ((path_gap - u_minus - u_plus)/2 - offset)
                / (max_initial_error * (q^(diameter - 1) - 1)/(q - 1)),

    computed in log space so large diameters cannot overflow.  A nonpositive
    result means stopping is already safe at t = 0.  Strictly below the
    deadline whenever the initial errors are not all zero; when the exact
    value rounds to the deadline it is nudged to the nearest float below.
    """
    if not 1.0 < q < math.inf:
        raise DomainError(f"q must be finite and exceed 1, got {q!r}")
    if not (math.isfinite(path_gap) and path_gap > 0.0):
        raise DomainError(f"path gap must be positive and finite, got {path_gap!r}")
    if not 0.0 <= max_initial_error < math.inf:
        raise DomainError(
            f"max_initial_error must be finite and nonnegative, got {max_initial_error!r}"
        )
    offset = worst_case_offset(u_minus, u_plus, diameter, diameter_minus)
    margin = 0.5 * (path_gap - u_minus - u_plus) - offset
    if not margin > 0.0:
        raise InfeasibleError(
            f"margin condition fails: (u- + u+)/2 + {offset} >= {path_gap}/2"
        )
    if max_initial_error == 0.0 or diameter == 1:
        return 0.0
    z = (diameter - 1) * math.log(q)
    log_den = (
        math.log(max_initial_error) + z + math.log1p(-math.exp(-z)) - math.log(q - 1.0)
    )
    expo = 1.0 / ((2.0 * params.h + 2.0) * (1.0 - 1.0 / q))
    value = params.deadline * (1.0 - math.exp(expo * (math.log(margin) - log_den)))
    return min(value, math.nextafter(params.deadline, 0.0))


def optimal_q(
    path_gap: float,
    u_minus: float,
    u_plus: float,
    diameter: int,
    diameter_minus: int,
    max_initial_error: float,
    params: PTGainParams,
) -> tuple[float, float]:
    """Grid-plus-refinement sweep of q > 1 minimizing the guaranteed stop time.

    Returns (q, stop_time).  Feasibility does not depend on q, so an
    InfeasibleError from the underlying evaluation propagates unchanged.
    """
    grid = np.linspace(1.02, 20.0, 400)

    def ts_of(q: float) -> float:
        return early_termination_time(
            path_gap, u_minus, u_plus, diameter, diameter_minus,
            max_initial_error, q, params,
        )

    values = [ts_of(float(q)) for q in grid]
    k = int(np.argmin(values))
    lo = float(grid[max(0, k - 1)])
    hi = float(grid[min(len(grid) - 1, k + 1)])
    for _ in range(60):  # golden-section refinement on the bracketing interval
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        if ts_of(m1) <= ts_of(m2):
            hi = m2
        else:
            lo = m1
    q_best = 0.5 * (lo + hi)
    return q_best, ts_of(q_best)
