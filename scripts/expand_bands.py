#!/usr/bin/env python3
"""Rebuild a run's bounds.csv from its bands.csv and bands.json.

    python scripts/expand_bands.py OUT_DIR

`dbmc run` writes the bands of every enabled bound kind as two small files:
bands.csv holds the nominal envelope of each non-source and the envelope
kind's band over time, bands.json each kind's per-node shifts and constant
lower values.  This script reads them, with the run's graph.txt for the
node list, and writes OUT_DIR/bounds.csv with one `t,node,lower,upper,kind`
row per stored step, node and kind.  The file is byte for byte the one
`harness.bounds_csv` writes from the run's own bands:

  * every cell of bands.csv is `%.17g`, which reads back to the same float;
  * a chain, proportional or uniform upper is rebuilt as the run forms it,
    the one float add `env + shift`, and its lower is the constant;
  * the envelope kind is 0 - band and +band of the `envelope` column, as
    `compute_bound_curves` forms them, so a zero band prints 0, not -0;
  * the text is written by `harness.bounds_csv` itself.

Exits 0 on success and 1, with an `error:` line, when a file is missing or
malformed.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dbmc.errors import DbmcError  # noqa: E402
from dbmc.graph import load_graph  # noqa: E402
from dbmc.harness import bounds_csv, write_atomic  # noqa: E402
from dbmc.scenario import BOUND_KINDS  # noqa: E402


def expand(out: pathlib.Path) -> list[str]:
    """The chunks of the run's bounds.csv, rebuilt from the files in ``out``."""
    doc = json.loads((out / "bands.json").read_text(encoding="utf-8"))
    lines = (out / "bands.csv").read_text(encoding="utf-8").splitlines()
    g = load_graph((out / "graph.txt").read_text(encoding="utf-8"))
    nodes = doc.get("nodes")
    if nodes != list(g.non_sources):
        raise ValueError(f"bands.json: nodes {nodes} are not the non-sources of graph.txt")
    unknown = set(doc) - {"nodes", *BOUND_KINDS}
    if unknown:
        raise ValueError(f"bands.json: unknown keys {sorted(unknown)}")
    kinds = [kind for kind in BOUND_KINDS if kind in doc]
    shifted = [kind for kind in kinds if kind != "envelope"]
    names = ["t"] + ([f"env_{i}" for i in nodes] if shifted else [])
    names += ["envelope"] if "envelope" in kinds else []
    if lines[:1] != [",".join(names)]:
        raise ValueError(f"bands.csv: expected the header {','.join(names)!r}")
    table = np.array(
        [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    ).reshape(len(lines) - 1, len(names))

    times = table[:, 0]
    shape = (len(times), len(nodes))
    curves = {}
    for kind in kinds:
        if kind == "envelope":
            band = table[:, -1:]
            curves[kind] = (np.broadcast_to(0.0 - band, shape), np.broadcast_to(band, shape))
            continue
        lower = doc[kind]["lower"]
        lower = -np.inf if lower is None else np.array(lower, dtype=float)
        shift = np.array(doc[kind]["upper_shift"], dtype=float)
        curves[kind] = (np.broadcast_to(lower, shape), table[:, 1 : 1 + len(nodes)] + shift)
    return bounds_csv(g, times, curves)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: expand_bands.py OUT_DIR", file=sys.stderr)
        return 1
    out = pathlib.Path(argv[0])
    try:
        chunks = expand(out)
    except (OSError, ValueError, KeyError, TypeError, DbmcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_atomic(out / "bounds.csv", chunks)
    print(f"wrote {out}/bounds.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
