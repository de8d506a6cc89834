"""Scenario files: sectioned key = value text, parsed with configparser.

Sections and keys (see README for the full reference):

    [graph]        kind, plus the keys of that kind in generate.GRAPH_KINDS
    [disturbance]  kind, seed, uniform_lower, uniform_upper, plus the fields
                   of that kind in disturbance.KIND_FIELDS
    [gain]         the fields of PTGainParams: gamma, h, deadline
    [initial]      value = <constant for non-sources>  or  states = x1 x2 ...
    [run]          t_end = auto | <seconds> | <fraction>Ts, q, chi0,
                   bounds = auto|none|<kind list>, focus_node, out

Each key is read once.  A ``[disturbance]`` or ``[gain]`` key takes the
default declared on its dataclass field, and a ``[graph]`` key the default
``generate.GRAPH_KINDS`` declares; the other defaults are declared where
``parse_scenario`` reads them.  A key or a section that nothing reads is
refused, so a misspelled key, a key the chosen kind does not read or a
section named with the wrong case raises SpecError instead of being skipped.
Section names are case-sensitive and key names are not.  ``[DEFAULT]`` is
refused, because configparser would copy its keys into every section.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, fields

from .disturbance import CARRIER_FIELDS, KIND_FIELDS, DisturbanceSpec
from .dynamics import PTGainParams
from .errors import ParseError, SpecError
from .generate import GRAPH_KINDS

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
    q: float
    chi0: float | None
    bound_kinds: tuple[str, ...]
    focus_node: int | None
    out_dir: str | None


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


def _fields(read, section: str, cls, names=None) -> dict:
    """The fields ``names`` of the dataclass ``cls``, or all of them, read
    from ``section`` with the field's own default; a field whose default is
    text is read as text, any other as a number."""
    return {
        f.name: read(section, f.name, str if isinstance(f.default, str) else float, f.default)
        for f in fields(cls)
        if names is None or f.name in names
    }


def _disturbance(read) -> DisturbanceSpec:
    """The kind, the uniform overrides, and the fields that the kind reads
    (``disturbance.KIND_FIELDS``), then those that its carrier reads."""
    spec = _fields(read, "disturbance", DisturbanceSpec, ("kind", "uniform_lower", "uniform_upper"))
    for key, table in (("kind", KIND_FIELDS), ("carrier", CARRIER_FIELDS)):
        if key in spec:
            if spec[key] not in table:
                raise SpecError(f"[disturbance] {key}: unknown {key} {spec[key]!r}")
            spec.update(_fields(read, "disturbance", DisturbanceSpec, table[spec[key]]))
    return DisturbanceSpec(**spec)


def _graph_spec(read, base_dir: str) -> dict:
    kind = read("graph", "kind")
    if kind not in GRAPH_KINDS:
        raise SpecError(f"[graph] kind: unknown kind {kind!r}")
    spec = {"kind": kind}
    for key, (convert, default) in GRAPH_KINDS[kind][1].items():
        spec[key] = read("graph", key, convert, default)
    if "path" in spec:  # a file graph's path resolves from the scenario's directory
        spec["path"] = os.path.join(base_dir, spec["path"])
    return spec


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """The scenario ``text`` holds; a relative graph path resolves from
    ``base_dir``.

    Every key is read and converted before any value is checked, so a key
    that nothing reads is refused before it can cause another error; only
    an unknown graph kind, disturbance kind or carrier, whose keys are
    unknown too, is refused first.
    Raises ParseError on malformed text and SpecError on a missing,
    malformed or unknown key or section.
    """
    # no interpolation: a "%" in a value is that character, not a reference
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"scenario: {exc}") from None
    if cp.defaults():
        raise SpecError("[DEFAULT]: unknown section")
    for section in cp.sections():
        if section not in ("graph", "disturbance", "gain", "initial", "run"):
            raise SpecError(f"[{section}]: unknown section")
    for section in ("graph", "gain"):
        if not cp.has_section(section):
            raise SpecError(f"scenario is missing the [{section}] section")
    seen: set[tuple[str, str]] = set()

    def read(section: str, key: str, convert=str, default=MISSING):
        """The value of ``key`` converted, else ``default``; MISSING means required."""
        seen.add((section, key))
        raw = cp.get(section, key, fallback=None)
        if raw is None:
            if default is MISSING:
                raise SpecError(f"[{section}] {key}: required")
            return default
        try:
            return convert(raw)
        except ValueError:
            expected = "a number" if convert is float else "an integer"
            raise SpecError(f"[{section}] {key}: expected {expected}, got {raw!r}") from None

    graph_spec = _graph_spec(read, base_dir)
    dist = _disturbance(read)
    seed = read("disturbance", "seed", int, 0)
    gain = _fields(read, "gain", PTGainParams)
    initial_value = read("initial", "value", float, None)
    raw_states = read("initial", "states", default=None)
    raw_t_end = read("run", "t_end", default="auto")
    bounds_raw = read("run", "bounds", default="auto").split()
    q = read("run", "q", float, 3.0)
    chi0 = read("run", "chi0", float, None)
    focus_node = read("run", "focus_node", int, None)
    out_dir = read("run", "out", default=None)
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in seen:
                raise SpecError(f"[{section}] {key}: unknown key")

    params = PTGainParams(**gain)
    initial_states: tuple[float, ...] | None = None
    if raw_states is not None:
        try:
            initial_states = tuple(float(tok) for tok in raw_states.split())
        except ValueError:
            raise SpecError("[initial] states: expected whitespace-separated numbers") from None
    if (initial_value is None) == (initial_states is None):
        raise SpecError("[initial] set exactly one of 'value' or 'states'")

    t_end_rule = parse_t_end_rule(raw_t_end)
    if bounds_raw not in (["auto"], ["none"]):
        for name in bounds_raw:
            if name not in BOUND_KINDS:
                raise SpecError(f"[run] bounds: unknown kind {name!r}")
            if bounds_raw.count(name) > 1:
                raise SpecError(f"[run] bounds: kind {name!r} is listed twice")

    return Scenario(
        graph_spec, dist, seed, params, initial_value, initial_states, t_end_rule,
        q, chi0, tuple(bounds_raw), focus_node, out_dir,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))
