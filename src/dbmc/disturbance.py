"""Bounded continuous per-edge disturbance signals.

A model assigns every edge a signal u_ij(t) on [0, horizon] together with
its envelope [-edge_lower, edge_upper]; u_minus/u_plus are uniform bounds
covering all edges.  Signals are pure functions of time (no state feedback)
and deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpecError, UnknownEdgeError
from .graph import WeightedDigraph

TWO_PI = 2.0 * math.pi

KINDS = ("zero", "sinusoid", "piecewise", "proportional")
CARRIERS = ("sinusoid", "piecewise")


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
    """Concrete signals for one graph; freely shareable across threads.

    Every nonzero kind evaluates a per-edge carrier.  The sinusoid carrier
    ``s*sin(omega*t + phase)`` is stored in quadrature form,
    ``sin_coef*sin(omega*t) + cos_coef*cos(omega*t)`` with
    ``sin_coef = s*cos(phase)`` and ``cos_coef = s*sin(phase)``, so a
    sample costs two scalar sines and two scalar-vector products; ``s`` is
    ``amplitude*w`` for the ``sinusoid`` kind and 1 for the proportional
    carrier.  The piecewise carrier interpolates ``knot_values`` linearly,
    already scaled by ``amplitude*w`` for the ``piecewise`` kind.  The
    proportional kind multiplies its carrier by the edge's upper or lower
    envelope according to the carrier's sign.
    """

    kind: str
    graph: WeightedDigraph
    horizon: float
    edge_lower: np.ndarray
    edge_upper: np.ndarray
    u_minus: float
    u_plus: float
    slope_limit: float
    proportional_fractions: tuple[float, float] | None
    omega: float = 0.0
    phases: np.ndarray | None = None
    sin_coef: np.ndarray | None = None
    cos_coef: np.ndarray | None = None
    knot_values: np.ndarray | None = None
    knot_spacing: float | None = None
    carrier: str | None = None

    def _check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.horizon:
            raise DomainError(f"time {t!r} outside [0, {self.horizon}]")

    def _carrier_values(self, t: float) -> np.ndarray:
        if self.carrier == "sinusoid":
            wt = self.omega * t
            return self.sin_coef * math.sin(wt) + self.cos_coef * math.cos(wt)
        k = min(int(t / self.knot_spacing), self.knot_values.shape[1] - 2)
        frac = t / self.knot_spacing - k
        return self.knot_values[:, k] * (1.0 - frac) + self.knot_values[:, k + 1] * frac

    def sample_all(self, t: float) -> np.ndarray:
        """Disturbance value of every edge at time t, in ``graph.edges`` order."""
        self._check_time(t)
        if self.carrier is None:
            return np.zeros(len(self.edge_lower))
        c = self._carrier_values(t)
        if self.kind != "proportional":
            return c
        return np.where(c >= 0.0, self.edge_upper, self.edge_lower) * c

    def sample(self, edge: tuple[int, int], t: float) -> float:
        """Disturbance on one edge; raises UnknownEdgeError for non-edges."""
        try:
            k = self.graph.edge_index[edge]
        except KeyError:
            raise UnknownEdgeError(f"{edge} is not an edge") from None
        return float(self.sample_all(t)[k])

    def bounds(self, edge: tuple[int, int]) -> tuple[float, float]:
        """(lower, upper) envelope magnitudes of one edge's signal."""
        try:
            k = self.graph.edge_index[edge]
        except KeyError:
            raise UnknownEdgeError(f"{edge} is not an edge") from None
        return float(self.edge_lower[k]), float(self.edge_upper[k])


def build_model(
    spec: DisturbanceSpec, g: WeightedDigraph, seed: int, horizon: float
) -> DisturbanceModel:
    """Instantiate signals for ``g`` and record their analytic envelopes.

    The recorded per-edge bounds always contain every sample on
    [0, horizon]; the uniform bounds are their maxima unless the spec
    loosens them.  Raises SpecError for fractions that would let a weight
    reach zero (amplitude or alpha_lower >= 1) and for malformed specs.
    """
    if horizon <= 0.0:
        raise SpecError("horizon must be positive")
    if spec.kind not in KINDS:
        raise SpecError(f"unknown disturbance kind {spec.kind!r}")
    w = np.array([e[2] for e in g.edges])
    n_edges = len(g.edges)
    rng = np.random.default_rng(seed)

    phases = None
    sin_coef = cos_coef = None
    knots = None
    knot_dt = None
    carrier = None
    fractions: tuple[float, float] | None

    if spec.kind == "zero":
        lower = np.zeros(n_edges)
        upper = np.zeros(n_edges)
        slope = 0.0
        fractions = (0.0, 0.0)
    elif spec.kind == "sinusoid":
        _check_fraction(spec.amplitude, "amplitude")
        if spec.omega <= 0.0:
            raise SpecError("omega must be positive")
        carrier = "sinusoid"
        phases = _phases(spec, rng, n_edges)
        lower = spec.amplitude * w
        upper = lower.copy()
        sin_coef, cos_coef = lower * np.cos(phases), lower * np.sin(phases)
        slope = spec.amplitude * float(w.max()) * spec.omega
        fractions = (spec.amplitude, spec.amplitude)
    elif spec.kind == "piecewise":
        _check_fraction(spec.amplitude, "amplitude")
        carrier = "piecewise"
        knot_dt = _knot_spacing(spec, horizon)
        n_knots = int(math.ceil(horizon / knot_dt)) + 1
        knots = rng.uniform(-1.0, 1.0, (n_edges, n_knots)) * (spec.amplitude * w)[:, None]
        lower = np.maximum(0.0, -knots.min(axis=1))
        upper = np.maximum(0.0, knots.max(axis=1))
        slope = 2.0 * spec.amplitude * float(w.max()) / knot_dt
        fractions = (spec.amplitude, spec.amplitude)
    else:  # proportional
        _check_fraction(spec.alpha_lower, "alpha_lower")
        if spec.alpha_upper < 0.0:
            raise SpecError("alpha_upper must be nonnegative")
        if spec.carrier not in CARRIERS:
            raise SpecError(f"unknown carrier {spec.carrier!r}")
        carrier = spec.carrier
        if carrier == "sinusoid":
            if spec.omega <= 0.0:
                raise SpecError("omega must be positive")
            phases = _phases(spec, rng, n_edges)
            sin_coef, cos_coef = np.cos(phases), np.sin(phases)
            base_slope = spec.omega
        else:
            knot_dt = _knot_spacing(spec, horizon)
            n_knots = int(math.ceil(horizon / knot_dt)) + 1
            knots = rng.uniform(-1.0, 1.0, (n_edges, n_knots))
            base_slope = 2.0 / knot_dt
        lower = spec.alpha_lower * w
        upper = spec.alpha_upper * w
        slope = max(spec.alpha_lower, spec.alpha_upper) * float(w.max()) * base_slope
        fractions = (spec.alpha_lower, spec.alpha_upper)

    u_minus = float(lower.max(initial=0.0))
    u_plus = float(upper.max(initial=0.0))
    if spec.uniform_lower is not None:
        if spec.uniform_lower < u_minus:
            raise SpecError(
                f"uniform_lower {spec.uniform_lower} tighter than per-edge bound {u_minus}"
            )
        u_minus = float(spec.uniform_lower)
    if spec.uniform_upper is not None:
        if spec.uniform_upper < u_plus:
            raise SpecError(
                f"uniform_upper {spec.uniform_upper} tighter than per-edge bound {u_plus}"
            )
        u_plus = float(spec.uniform_upper)

    return DisturbanceModel(
        kind=spec.kind,
        graph=g,
        horizon=float(horizon),
        edge_lower=lower,
        edge_upper=upper,
        u_minus=u_minus,
        u_plus=u_plus,
        slope_limit=slope,
        proportional_fractions=fractions,
        omega=spec.omega,
        phases=phases,
        sin_coef=sin_coef,
        cos_coef=cos_coef,
        knot_values=knots,
        knot_spacing=knot_dt,
        carrier=carrier,
    )


def _phases(spec: DisturbanceSpec, rng: np.random.Generator, n_edges: int) -> np.ndarray:
    if spec.phase is not None:
        return np.full(n_edges, float(spec.phase))
    return rng.uniform(0.0, TWO_PI, n_edges)


def _knot_spacing(spec: DisturbanceSpec, horizon: float) -> float:
    knot_dt = spec.knot_spacing if spec.knot_spacing is not None else horizon / 500.0
    if knot_dt <= 0.0:
        raise SpecError("knot_spacing must be positive")
    return knot_dt


def _check_fraction(value: float, name: str) -> None:
    if not 0.0 <= value < 1.0:
        raise SpecError(f"{name} must lie in [0, 1), got {value!r}")
