"""Bounded continuous per-edge disturbance signals.

A model assigns every edge a signal u_ij(t) on [0, horizon] together with
its envelope [-edge_lower, edge_upper]; u_minus/u_plus are uniform bounds
covering all edges.  Signals are pure functions of time (no state feedback)
and deterministic for a fixed seed.

Every kind is one model: fractions (alpha_lower, alpha_upper) of each edge
weight times a carrier (none, sinusoid or piecewise).  The sinusoid and
piecewise kinds are that model with alpha_lower = alpha_upper = amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .errors import DomainError, PreconditionError, SpecError
from .graph import WeightedDigraph

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DisturbanceSpec:
    """Declarative description of a disturbance family.

    ``amplitude`` and the alpha bounds are fractions of each edge weight.
    ``phase``, when set, fixes one common sinusoid phase instead of drawing
    one per edge.  ``uniform_lower``/``uniform_upper`` may only loosen the
    recorded uniform bounds, never tighten them.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    omega: float = TWO_PI
    phase: float | None = None
    knot_spacing: float | None = None
    alpha_lower: float = 0.0
    alpha_upper: float = 0.0
    carrier: str = "sinusoid"
    uniform_lower: float | None = None
    uniform_upper: float | None = None


@dataclass(frozen=True)
class DisturbanceModel:
    """Concrete signals for the edges of one graph; freely shareable across threads.

    The model holds no graph: every per-edge array follows the ``edges``
    order of the graph it was built on, or the order given to ``take``, and
    callers pass that graph alongside it.

    A sample is ``alpha_upper*c`` where the carrier ``c`` is nonnegative and
    ``alpha_lower*c`` elsewhere, with ``proportional_fractions = (alpha_lower,
    alpha_upper)`` and ``c`` scaled by each edge weight ``w``.  When the two
    fractions are equal the carrier is scaled by ``alpha*w`` instead, and a
    sample is the carrier itself.  Every carrier is one time-major table:
    ``rows`` are views into one C-contiguous (rows x edges) block, and a
    carrier value is ``rows[k]*a + rows[k + 1]*b``.  A sinusoid
    (``knot_spacing`` None) ``s*sin(omega*t + phase)`` has the rows
    ``(s*cos(phase), s*sin(phase))`` and weights ``(sin(omega*t),
    cos(omega*t))``; a piecewise carrier has one row per knot and weights
    ``(1 - frac, frac)``; the zero kind has two zero knots spanning the
    horizon.
    """

    horizon: float
    edge_lower: np.ndarray
    edge_upper: np.ndarray
    u_minus: float
    u_plus: float
    proportional_fractions: tuple[float, float]
    rows: tuple[np.ndarray, ...]  # a tuple item is ~7x cheaper to index than a 2-D row
    omega: float = 0.0
    knot_spacing: float | None = None
    first_knot: int = 0  # the knot ``rows[0]`` holds; nonzero only in a ``window``

    def sample_all(self, t: float) -> np.ndarray:
        """Disturbance value of every edge at time t, in the model's edge order."""
        if not 0.0 <= t <= self.horizon:
            raise DomainError(f"time {t!r} outside [0, {self.horizon}]")
        if self.knot_spacing is None:
            wt = self.omega * t
            k, a, b = 0, math.sin(wt), math.cos(wt)
        else:
            k = min(int(t / self.knot_spacing), self.first_knot + len(self.rows) - 2)
            b = t / self.knot_spacing - k
            a = 1.0 - b
            k -= self.first_knot
            if k < 0:
                raise DomainError(f"time {t!r} before the window's first knot")
        c = self.rows[k] * a + self.rows[k + 1] * b
        lo, hi = self.proportional_fractions
        if lo == hi:
            return c
        # a two-entry table read: the bits of np.where(c >= 0.0, hi, lo) * c, faster
        return np.array((lo, hi)).take(c >= 0.0) * c

    def window(self, t0: float, t1: float) -> DisturbanceModel:
        """The model for sampling on [t0, t1] alone, with only the knot rows
        ``sample_all`` reads there, so that ``take`` copies no other.

        Its ``sample_all(t)`` equals this model's bit for bit on [t0, t1],
        and raises DomainError past t1 or before its first knot.
        """
        horizon = min(t1, self.horizon)
        if self.knot_spacing is None:
            return replace(self, horizon=horizon)
        last = self.first_knot + len(self.rows) - 2
        k0, k1 = (min(int(t / self.knot_spacing), last) for t in (t0, horizon))
        rows = self.rows[k0 - self.first_knot : k1 + 2 - self.first_knot]
        return replace(self, horizon=horizon, rows=rows, first_knot=k0)

    def take(self, order: Sequence[int] | np.ndarray) -> DisturbanceModel:
        """The model restricted to the edges ``order`` indexes, in that order.

        Every per-edge array is reordered, so ``take(order).sample_all(t)``
        equals ``sample_all(t)[order]`` bit for bit.
        """
        order = np.asarray(order, dtype=np.intp)
        table = np.empty((len(self.rows), len(order)))
        for row, src in zip(table, self.rows):
            np.take(src, order, out=row)
        return replace(
            self,
            edge_lower=self.edge_lower[order],
            edge_upper=self.edge_upper[order],
            rows=tuple(table),
        )


@dataclass(frozen=True)
class CandidateLayout:
    """The candidates x_j + w_ij + u_ij(t) of every non-source i, grouped by i.

    Only edges whose tail is a non-source are kept, ordered by tail with a
    stable sort: ``order`` indexes them in the graph's edge order, and
    ``tails``, ``heads`` and ``weights`` are the graph's edge arrays in that
    order.  A model's samples are put in layout order by
    ``model.sample_all(t)[order]``, or, for many samples, by sampling
    ``model.take(order)`` once it is built.  Node ids are 0-based.  The m
    non-sources, ascending, own consecutive segments: the k-th starts at
    edge ``starts[k]`` and has ``degree[k] >= 1`` edges, so
    ``np.minimum.reduceat(values, starts)`` is one minimum per non-source.
    ``slots`` maps each head to a compact index: its position among the
    non-sources, or m for every source.  A state of the m non-source errors
    followed by one 0 (the error every source keeps) is gathered with it.
    """

    order: np.ndarray
    non_sources: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    slots: np.ndarray
    weights: np.ndarray
    degree: np.ndarray
    starts: np.ndarray


def candidate_layout(g: WeightedDigraph, model: DisturbanceModel) -> CandidateLayout:
    """The tail-grouped :class:`CandidateLayout` of ``g`` and its model.

    Raises PreconditionError when the model's edge count differs from
    ``g``'s or a non-source has no out-edge.  Built once per ``simulate``
    run and once per ``current_parents`` call rather than cached on the
    model: a layout that lived through the bound curves fragmented the heap
    they use and raised the peak RSS of a 1000-node run by up to 12 MB.
    """
    if len(model.edge_lower) != len(g.edges):
        raise PreconditionError(
            f"disturbance model has {len(model.edge_lower)} edges, "
            f"the graph has {len(g.edges)}"
        )
    n = g.node_count
    src = np.zeros(n, dtype=bool)
    src[[s - 1 for s in g.sources]] = True
    keep = np.flatnonzero(~src[g.tails])
    order = keep[np.argsort(g.tails[keep], kind="stable")]
    tails = g.tails[order]
    heads = g.heads[order]
    non_sources = np.flatnonzero(~src)
    degree = np.bincount(tails, minlength=n)[non_sources]
    # A non-source that reaches a source has an out-edge, so its segment of
    # the grouped edges is nonempty.
    if not degree.all():
        raise PreconditionError("every non-source node needs an out-edge")
    slot_of = np.full(n, len(non_sources), dtype=np.intp)
    slot_of[non_sources] = np.arange(len(non_sources))
    return CandidateLayout(
        order=order,
        non_sources=non_sources,
        tails=tails,
        heads=heads,
        slots=slot_of[heads],
        weights=g.weights[order],
        degree=degree,
        starts=np.concatenate(([0], np.cumsum(degree)[:-1])),
    )


def build_model(
    spec: DisturbanceSpec, g: WeightedDigraph, seed: int, horizon: float
) -> DisturbanceModel:
    """Instantiate signals for ``g`` and record their analytic envelopes.

    The per-edge envelope is each fraction times the carrier's own extremes
    (the scale for the sinusoid, the knot extremes for the piecewise
    carrier), so it contains every sample on [0, horizon]; the uniform
    bounds are its maxima unless the spec loosens them.  Raises SpecError
    for a negative seed, for non-finite numbers, for fractions that would
    let a weight reach zero (amplitude or alpha_lower >= 1), for a
    knot_spacing so fine that numpy refuses the knot table, and for
    malformed specs.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise SpecError(f"horizon must be positive and finite, got {horizon!r}")
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise SpecError(f"{f.name} must be finite, got {value!r}")
    alpha_lower, alpha_upper, carrier = _fractions_and_carrier(spec)
    w = g.weights
    n_edges = len(w)

    if alpha_lower == alpha_upper:
        scale, f_lower, f_upper = alpha_lower * w, 1.0, 1.0
    else:
        scale, f_lower, f_upper = w, alpha_lower, alpha_upper
    if seed < 0:
        raise SpecError(f"disturbance seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    knot_dt = None
    if carrier is None:
        table, knot_dt = np.zeros((2, n_edges)), float(horizon)
        c_lower = c_upper = np.zeros(n_edges)
    elif carrier == "sinusoid":
        if not spec.omega > 0.0:
            raise SpecError("omega must be positive")
        if spec.phase is not None:
            phases = np.full(n_edges, float(spec.phase))
        else:
            phases = rng.uniform(0.0, TWO_PI, n_edges)
        table = np.stack((scale * np.cos(phases), scale * np.sin(phases)))
        c_lower = c_upper = scale
    else:
        knot_dt = spec.knot_spacing if spec.knot_spacing is not None else horizon / 500.0
        if not knot_dt > 0.0:
            raise SpecError("knot_spacing must be positive")
        ratio = horizon / knot_dt
        # numpy refuses a table of more than the largest intp bytes
        if not (ratio + 1.0) * 8.0 * max(n_edges, 1) < np.iinfo(np.intp).max:
            raise SpecError(
                f"knot_spacing = {knot_dt!r} needs {ratio:.3g} knots per edge, "
                "more than an array can hold"
            )
        n_knots = int(math.ceil(ratio)) + 1
        # drawn edge-major, so a seed keeps giving the same knots
        table = np.ascontiguousarray(rng.uniform(-1.0, 1.0, (n_edges, n_knots)).T)
        table *= scale
        # + 0.0 makes a -0.0 extreme, which a zero scale gives, 0.0
        c_lower = np.maximum(0.0, -table.min(axis=0)) + 0.0
        c_upper = np.maximum(0.0, table.max(axis=0)) + 0.0
    lower = f_lower * c_lower
    upper = f_upper * c_upper

    return DisturbanceModel(
        horizon=float(horizon),
        edge_lower=lower,
        edge_upper=upper,
        u_minus=_loosened(float(lower.max(initial=0.0)), spec.uniform_lower, "uniform_lower"),
        u_plus=_loosened(float(upper.max(initial=0.0)), spec.uniform_upper, "uniform_upper"),
        proportional_fractions=(alpha_lower, alpha_upper),
        rows=tuple(table),
        omega=spec.omega,
        knot_spacing=knot_dt,
    )


# The DisturbanceSpec fields that each kind and each carrier reads, beside
# kind and the uniform overrides, which every kind reads.  A proportional
# spec reads the fields of its carrier too.
CARRIER_FIELDS = {"sinusoid": ("omega", "phase"), "piecewise": ("knot_spacing",)}
KIND_FIELDS = {
    "zero": (),
    **{carrier: ("amplitude", *names) for carrier, names in CARRIER_FIELDS.items()},
    "proportional": ("alpha_lower", "alpha_upper", "carrier"),
}


def _fractions_and_carrier(spec: DisturbanceSpec) -> tuple[float, float, str | None]:
    """(alpha_lower, alpha_upper, carrier) of any kind, with its fractions
    checked and each -0.0 made 0.0 (``value + 0.0``): the products and maxima
    built from a fraction keep its sign, so a model of -0 would otherwise
    write "-0.0" where a model of 0 writes "0.0"."""
    if spec.kind == "zero":
        return 0.0, 0.0, None
    if spec.kind in CARRIER_FIELDS:
        amplitude = _fraction(spec.amplitude, "amplitude")
        return amplitude, amplitude, spec.kind
    if spec.kind != "proportional":
        raise SpecError(f"unknown disturbance kind {spec.kind!r}")
    alpha_lower = _fraction(spec.alpha_lower, "alpha_lower")
    if spec.alpha_upper < 0.0:
        raise SpecError("alpha_upper must be nonnegative")
    if spec.carrier not in CARRIER_FIELDS:
        raise SpecError(f"unknown carrier {spec.carrier!r}")
    return alpha_lower, spec.alpha_upper + 0.0, spec.carrier


def _loosened(bound: float, override: float | None, name: str) -> float:
    """The spec's uniform override of ``bound``, which may only loosen it;
    -0.0 is made 0.0."""
    if override is None:
        return bound
    if override < bound:
        raise SpecError(f"{name} {override} tighter than per-edge bound {bound}")
    return float(override) + 0.0


def _fraction(value: float, name: str) -> float:
    """``value``, -0.0 made 0.0, if it lies in [0, 1); SpecError otherwise."""
    if not 0.0 <= value < 1.0:
        raise SpecError(f"{name} must lie in [0, 1), got {value!r}")
    return value + 0.0
