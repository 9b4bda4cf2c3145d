"""The whole-text CSV table reader, kept as the test oracle for the streaming
:func:`recrisk.samples.read_table`.

It reads the whole text, splits it into lines, drops blank and ``#`` lines
and parses the rest in one ``np.loadtxt`` call; a failed parse is described
by the first ragged or non-numeric row, a blank field counting as not
numeric.  Copied from the reader that streaming replaced; it holds the text
and three lists of its lines at once, so it is heavy on memory but plainly
right.
"""

from __future__ import annotations

import numpy as np


def read_table(path_or_buffer, what: str) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    if hasattr(path_or_buffer, "read"):
        text = path_or_buffer.read()
    else:
        with open(path_or_buffer, "r", encoding="utf-8") as fh:
            text = fh.read()
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError(f"{what} is empty")
    cols = [c.strip() for c in rows[0].split(",")]
    if len(rows) == 1:
        raise ValueError(f"{what} has a header but no rows")
    try:
        data = _parse_rows(rows[1:])
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(cols):
        raise ValueError(f"{what} {_first_bad_row(text, len(cols))}")
    return cols, data, data[:, cols.index("weight")] if "weight" in cols else None


def _parse_rows(rows: list[str]) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", dtype=float, ndmin=2, comments=None)


def _first_bad_row(text: str, width: int) -> str:
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)]
    data = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")][1:]
    for n, ln in data:
        fields = ln.split(",")
        if len(fields) != width:
            return f"line {n} has {len(fields)} fields, the header has {width}"
        for field in fields:
            try:
                if not field.strip():  # np.loadtxt reads a blank field as no data
                    raise ValueError
                _parse_rows([field])
            except ValueError:
                return f"line {n}: {field.strip()!r} is not a number"
    return "has malformed rows"
