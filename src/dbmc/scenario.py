"""Scenario files: sectioned key = value text, parsed with configparser.

Sections and keys (see README for the full reference):

    [graph]        kind = file|line|hop-random|grid|standin13, plus kind args
    [disturbance]  kind, amplitude, omega, phase, knot_spacing,
                   alpha_lower, alpha_upper, carrier,
                   uniform_lower, uniform_upper, seed
    [gain]         gamma, h, deadline
    [initial]      value = <constant for non-sources>  or  states = x1 x2 ...
    [run]          t_end = auto | <seconds> | <fraction>Ts, q, chi0,
                   bounds = auto|none|<kind list>, focus_node, out
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .disturbance import DisturbanceSpec
from .dynamics import PTGainParams
from .errors import ParseError, SpecError

BOUND_KINDS = ("chain", "proportional", "uniform", "envelope")


@dataclass
class Scenario:
    graph_spec: dict
    disturbance: DisturbanceSpec
    seed: int
    params: PTGainParams
    initial_value: float | None
    initial_states: tuple[float, ...] | None
    t_end_rule: tuple
    q: float = 3.0
    chi0: float | None = None
    bound_kinds: tuple[str, ...] = ("auto",)
    focus_node: int | None = None
    out_dir: str | None = None


def _get(cp, section, key, fallback=None):
    return cp.get(section, key, fallback=fallback)


def _get_float(cp, section, key, fallback=None, required=False):
    raw = _get(cp, section, key)
    if raw is None:
        if required:
            raise SpecError(f"[{section}] {key}: required")
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise SpecError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _get_int(cp, section, key, fallback=None, required=False):
    raw = _get(cp, section, key)
    if raw is None:
        if required:
            raise SpecError(f"[{section}] {key}: required")
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise SpecError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def parse_t_end_rule(raw: str) -> tuple:
    """'auto', explicit seconds, or a fraction of the deadline like '0.98Ts'."""
    raw = raw.strip()
    if raw == "auto":
        return ("auto",)
    if raw.endswith("Ts"):
        try:
            frac = float(raw[:-2])
        except ValueError:
            raise SpecError(f"t_end: bad deadline fraction {raw!r}") from None
        if not 0.0 < frac < 1.0:
            raise SpecError(f"t_end: fraction must lie in (0, 1), got {frac!r}")
        return ("fraction", frac)
    try:
        value = float(raw)
    except ValueError:
        raise SpecError(f"t_end: expected 'auto', seconds, or '<frac>Ts', got {raw!r}") from None
    if not 0.0 < value < math.inf:
        raise SpecError(f"t_end: must be positive and finite, got {value!r}")
    return ("explicit", value)


def _graph_spec(cp, base_dir: str) -> dict:
    kind = _get(cp, "graph", "kind")
    if kind is None:
        raise SpecError("[graph] kind: required")
    spec: dict = {"kind": kind}
    if kind == "file":
        path = _get(cp, "graph", "path")
        if path is None:
            raise SpecError("[graph] path: required for kind = file")
        spec["path"] = os.path.join(base_dir, path) if not os.path.isabs(path) else path
    elif kind == "line":
        spec["n"] = _get_int(cp, "graph", "n", required=True)
    elif kind == "hop-random":
        spec["n"] = _get_int(cp, "graph", "n", required=True)
        spec["extra_edge_prob"] = _get_float(cp, "graph", "extra_edge_prob", 0.2)
        spec["seed"] = _get_int(cp, "graph", "seed", 0)
    elif kind == "grid":
        spec["rows"] = _get_int(cp, "graph", "rows", required=True)
        spec["cols"] = _get_int(cp, "graph", "cols", required=True)
    elif kind == "standin13":
        pass
    else:
        raise SpecError(f"[graph] kind: unknown kind {kind!r}")
    return spec


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"scenario: {exc}") from None
    for section in ("graph", "gain"):
        if not cp.has_section(section):
            raise SpecError(f"scenario is missing the [{section}] section")

    graph_spec = _graph_spec(cp, base_dir)

    dist = DisturbanceSpec(
        kind=_get(cp, "disturbance", "kind", "zero"),
        amplitude=_get_float(cp, "disturbance", "amplitude", 0.0),
        omega=_get_float(cp, "disturbance", "omega", DisturbanceSpec.omega),
        phase=_get_float(cp, "disturbance", "phase", None),
        knot_spacing=_get_float(cp, "disturbance", "knot_spacing", None),
        alpha_lower=_get_float(cp, "disturbance", "alpha_lower", 0.0),
        alpha_upper=_get_float(cp, "disturbance", "alpha_upper", 0.0),
        carrier=_get(cp, "disturbance", "carrier", "sinusoid"),
        uniform_lower=_get_float(cp, "disturbance", "uniform_lower", None),
        uniform_upper=_get_float(cp, "disturbance", "uniform_upper", None),
    )
    seed = _get_int(cp, "disturbance", "seed", 0)

    params = PTGainParams(
        gamma=_get_float(cp, "gain", "gamma", required=True),
        h=_get_float(cp, "gain", "h", required=True),
        deadline=_get_float(cp, "gain", "deadline", required=True),
    )

    initial_value = _get_float(cp, "initial", "value", None)
    raw_states = _get(cp, "initial", "states", None)
    initial_states: tuple[float, ...] | None = None
    if raw_states is not None:
        try:
            initial_states = tuple(float(tok) for tok in raw_states.split())
        except ValueError:
            raise SpecError("[initial] states: expected whitespace-separated numbers") from None
    if (initial_value is None) == (initial_states is None):
        raise SpecError("[initial] set exactly one of 'value' or 'states'")

    t_end_rule = parse_t_end_rule(_get(cp, "run", "t_end", "auto"))
    bounds_raw = _get(cp, "run", "bounds", "auto").split()
    if bounds_raw in (["auto"], ["none"]):
        bound_kinds = tuple(bounds_raw)
    else:
        for name in bounds_raw:
            if name not in BOUND_KINDS:
                raise SpecError(f"[run] bounds: unknown kind {name!r}")
            if bounds_raw.count(name) > 1:
                raise SpecError(f"[run] bounds: kind {name!r} is listed twice")
        bound_kinds = tuple(bounds_raw)

    return Scenario(
        graph_spec=graph_spec,
        disturbance=dist,
        seed=seed,
        params=params,
        initial_value=initial_value,
        initial_states=initial_states,
        t_end_rule=t_end_rule,
        q=_get_float(cp, "run", "q", 3.0),
        chi0=_get_float(cp, "run", "chi0", None),
        bound_kinds=bound_kinds,
        focus_node=_get_int(cp, "run", "focus_node", None),
        out_dir=_get(cp, "run", "out", None),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))
