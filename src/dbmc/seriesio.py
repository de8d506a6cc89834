"""Series CSV text, formatted in place or by a writer child process.

A series file is a header line, then one row ``v_1,...,v_w`` per time, every
cell ``%.17g``.  :func:`series_chunks` formats ``BLOCK`` rows with one
``%`` call on one template string, so the per-cell work is C code.

Run as a script, the module is the writer child of
:class:`harness.SeriesWriter`.  It imports only the standard library, so it
starts as ``python -I -S seriesio.py`` without numpy.  It reads one request
from standard input, all of it before it formats anything:

    per file:  one JSON line {"path", "header", "rows", "width"}, then
               rows * width native float64 values, row by row
    end:       one empty line

It then writes each file with :func:`write_atomic`, through ``<path>.tmp``
renamed over ``<path>``, and prints its wall seconds and its seconds spent
writing on standard output.  If the input ends before the empty line, it
writes nothing.  Any failure exits 1, with the message of an
EOFError or OSError on standard error, or else the traceback.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

BLOCK = 128  # rows of a CSV file formatted and joined into one string


def series_chunks(header: str, width: int, values):
    """Yield ``header``, then the text of each ``BLOCK`` rows of ``values``.

    ``values`` is a flat float64 sequence, ``width`` per row, row by row,
    whose slices have ``tolist()``: an ``array("d")`` or a 1-D ndarray.
    Each block is one call ``(row * n) % tuple(block)``, which prints every
    cell as ``%.17g`` does on its own, character for character.
    """
    yield header
    row = ",".join(["%.17g"] * width) + "\n"
    step = BLOCK * width
    for a in range(0, len(values), step):
        block = values[a : a + step].tolist()
        yield (row * (len(block) // width)) % tuple(block)


def _read_request(stream) -> list[tuple[dict, array]]:
    """Every file of one request, or EOFError if the input ends early."""
    files = []
    try:
        while (line := stream.readline()) != b"\n":
            if not line.endswith(b"\n"):
                raise EOFError
            head = json.loads(line)
            values = array("d")
            values.fromfile(stream, head["rows"] * head["width"])
            files.append((head, values))
    except EOFError:
        raise EOFError("the request ended early; nothing was written") from None
    return files


def _tmp(path) -> str:
    return os.fspath(path) + ".tmp"


def discard_tmp(path) -> None:
    """Remove the temporary file of a write of ``path``, if there is one."""
    try:
        os.unlink(_tmp(path))
    except FileNotFoundError:
        pass


def write_atomic(path, data) -> None:
    """Write ``data``, one string or an iterable of chunks, to ``path``
    through ``<path>.tmp`` renamed over it.  If writing fails, the temporary
    file is removed and any earlier ``path`` is left as it was."""
    tmp = _tmp(path)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([data] if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        discard_tmp(path)
        raise


def main() -> int:
    start = time.perf_counter()
    try:
        files = _read_request(sys.stdin.buffer)
        read = time.perf_counter()
        for head, values in files:
            write_atomic(head["path"], series_chunks(head["header"], head["width"], values))
    except (EOFError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1
    done = time.perf_counter()
    print(f"{done - start:.6f} {done - read:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
