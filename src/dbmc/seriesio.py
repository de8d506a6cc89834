"""Series CSV text, formatted in place or by a writer child process.

A series file is a header line, then one row ``v_1,...,v_w`` per time, every
cell ``%.17g``.  :class:`SeriesText` formats ``BLOCK`` rows with one ``%``
call on one template string, so the per-cell work is C code.  The row
template is the caller's: ``harness.bounds_csv`` prints ``bounds.csv`` with
one whose row is a stored time's lines, one per non-source.

Run as a script, the module is the writer child of
:class:`harness.SeriesWriter`.  It imports only the standard library, so it
starts as ``python -I -S seriesio.py`` without numpy.  It reads a stream of
messages from standard input, each one JSON line:

    declare:  {"file", "header", "width"}  a file by its name, header line
              and number of cells per row
    rows:     {"file", "rows"}, then rows * width native float64 values,
              row by row, for a file declared before
    commit:   {"out"}  the output directory; the last message

A file's rows arrive only raw, in any number of rows messages, interleaved
with other files' messages; each message is formatted on arrival, so the
child formats while its parent computes the next rows.  Nothing is written
before the commit.  It then writes each file, in the order declared, to
``<out>/<file>`` with :func:`write_atomic`, through ``<path>.tmp`` renamed
over ``<path>``, and prints on standard output its wall seconds, its seconds
spent writing and its CPU seconds.  If the input ends before the commit, it
writes nothing.  Any failure exits 1, with the message of an EOFError,
ValueError or OSError on standard error, or else the traceback.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

BLOCK = 128  # rows of a CSV file formatted and joined into one string


class SeriesText:
    """The text of one file, as a list of chunks built as rows arrive.

    ``row`` is the template of one row, whose only ``%`` are its cells
    ``%.17g`` (a series file's is :func:`series_row`).  ``chunks`` is the
    header, then the text of each ``BLOCK`` rows of each :meth:`add`.  A row
    prints the same whichever call brings it, so the text does not depend on
    how the rows are split between calls.
    """

    def __init__(self, header: str, row: str) -> None:
        self.width = row.count("%")
        self.row = row
        self.chunks = [header]

    def add(self, values) -> None:
        """Format the rows of ``values``: a flat float64 sequence, ``width``
        per row, row by row, whose slices have ``tolist()`` (an
        ``array("d")`` or a 1-D ndarray).  Each block is one call
        ``(row * n) % tuple(block)``, which prints every cell as ``%.17g``
        does on its own, character for character."""
        step = BLOCK * self.width
        for a in range(0, len(values), step):
            block = values[a : a + step].tolist()
            self.chunks.append((self.row * (len(block) // self.width)) % tuple(block))


def series_row(width: int) -> str:
    """The row template of a series file: ``width`` cells ``%.17g``."""
    return ",".join(["%.17g"] * width) + "\n"


def series_chunks(header: str, width: int, values) -> list[str]:
    """``header``, then the text of each ``BLOCK`` rows of ``values``
    (see :meth:`SeriesText.add`)."""
    text = SeriesText(header, series_row(width))
    text.add(values)
    return text.chunks


def _read_exact(stream, size: int) -> bytes:
    """The next ``size`` bytes; EOFError if the input ends first, even
    inside a float."""
    data = stream.read(size)
    if len(data) != size:
        raise EOFError
    return data


def _read_request(stream) -> tuple[str, dict[str, SeriesText]]:
    """The output directory and every declared file's text, formatted
    message by message; EOFError if the input ends before the commit."""
    files: dict[str, SeriesText] = {}
    try:
        while True:
            line = stream.readline()
            if not line.endswith(b"\n"):
                raise EOFError
            msg = json.loads(line)
            if "out" in msg:
                return msg["out"], files
            name = msg["file"]
            if "header" in msg:
                if name in files:
                    raise ValueError(f"{name} is declared twice")
                files[name] = SeriesText(msg["header"], series_row(msg["width"]))
            elif name not in files:
                raise ValueError(f"rows of {name}, which was not declared")
            else:
                values = array("d")
                size = msg["rows"] * files[name].width * values.itemsize
                values.frombytes(_read_exact(stream, size))
                files[name].add(values)
    except EOFError:
        raise EOFError("the request ended early; nothing was written") from None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed message {line[:200]!r}: {exc!r}") from None


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
        out, files = _read_request(sys.stdin.buffer)
        read = time.perf_counter()
        for name, text in files.items():
            write_atomic(os.path.join(out, name), text.chunks)
    except (EOFError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1
    done = time.perf_counter()
    print(f"{done - start:.6f} {done - read:.6f} {time.process_time():.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
