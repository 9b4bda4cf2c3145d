"""Weighted finite scenario sets.

A :class:`WeightedSample` is the universal input to all empirical risk
estimators: ``M`` joint scenarios of a pair ``(x, y)`` with strictly positive
probability weights summing to one.  Depending on context ``x`` plays the net
asset value (or its change) and ``y`` the liabilities.

The module also holds what every reader and writer shares: the weight
validation (:func:`checked_weights`), the array freezer (:func:`freeze`),
the JSON field reader (:func:`json_object`, :func:`json_number`,
:func:`json_numbers`), the CSV table reader (:func:`read_table`) with its
numbered-column lookup (:func:`numbered_columns`), the CSV table writer
(:func:`write_table`) and the text writer (:func:`write_text`).
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

WEIGHT_SUM_TOL = 1e-12

# Characters a CSV read hands to the parser at a time, completed to a line end.
READ_BLOCK = 1 << 20

# Column aliases accepted when reading scenario CSVs.  Files produced by the
# simulator carry (deltaE, L, A); hand-written files use (x, y).
_X_ALIASES = ("x", "deltaE", "dE")
_Y_ALIASES = ("y", "L", "l")
_A_ALIASES = ("A", "a")


def checked_weights(weights, n: int) -> np.ndarray:
    """Probability weights for ``n`` scenarios: uniform ``1/n`` when
    ``weights`` is None, otherwise the given weights once they are a finite,
    strictly positive 1-d array of length ``n`` summing to 1 within
    ``WEIGHT_SUM_TOL``."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape != (n,):
        raise ValueError(f"weights must be a 1-d array of length {n}, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights contain non-finite values")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
    return w


def freeze(obj, what: str | None, **arrays) -> None:
    """Set each named array on the frozen dataclass ``obj`` as a private
    read-only C-ordered float copy; ``what`` names values that must be finite,
    and None lets them hold infinities."""
    for name, a in arrays.items():
        a = np.array(a, dtype=float, order="C")
        if what is not None and not np.all(np.isfinite(a)):
            raise ValueError(f"{what} must be finite")
        a.setflags(write=False)
        object.__setattr__(obj, name, a)


def json_object(obj, what: str, known) -> dict:
    """``obj`` once it is a JSON object whose keys are all in ``known``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object with the fields {', '.join(known)}")
    for key in obj:
        if key not in known:
            raise ValueError(f"{what} field {key!r} is unknown; known fields: {', '.join(known)}")
    return obj


def json_number(value, what: str) -> float:
    """``value`` as a float, once it is a finite JSON number (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an integer no float holds
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


def json_numbers(value, what: str) -> tuple[float, ...]:
    """``value`` as a tuple of floats, once it is a list of finite JSON numbers."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    return tuple(json_number(v, f"{what} entry {i}") for i, v in enumerate(value))


@dataclass(frozen=True)
class WeightedSample:
    """Finite joint scenarios of (x, y) with probability weights."""

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size or x.size == 0:
            raise ValueError("x and y must be non-empty 1-d arrays of equal length")
        freeze(self, "scenario values", x=x, y=y)
        freeze(self, "weights", weights=checked_weights(self.weights, x.size))

    @property
    def size(self) -> int:
        return self.x.size

    def require_nonnegative_y(self, context: str = "this operation") -> None:
        if np.any(self.y < 0.0):
            raise ValueError(f"{context} requires nonnegative liabilities (y >= 0)")

    def shifted_x(self, amount: float) -> "WeightedSample":
        return WeightedSample(self.x + amount, self.y, self.weights)

    def mean_x(self) -> float:
        return float(np.dot(self.weights, self.x))


def _column(cols: list[str], aliases: tuple[str, ...]) -> int | None:
    return next((cols.index(name) for name in aliases if name in cols), None)


def xy_columns(cols: list[str]) -> tuple[int | None, int | None]:
    """Positions of the x and y columns under their aliases (None if absent)."""
    return _column(cols, _X_ALIASES), _column(cols, _Y_ALIASES)


def numbered_columns(cols: list[str], prefix: str) -> list[int]:
    """Positions of the columns ``<prefix>1 .. <prefix>K`` in number order,
    wherever they sit in ``cols``.  The K columns carrying the prefix must be
    exactly those, once each: a gap, a repeat or a non-number is an error."""
    names = [c for c in cols if c.startswith(prefix)]
    wanted = [f"{prefix}{k}" for k in range(1, len(names) + 1)]
    if sorted(names) != sorted(wanted):
        odd = [c for c in dict.fromkeys(names) if c not in wanted or names.count(c) > 1]
        raise ValueError(f"{prefix} columns must be {prefix}1..{prefix}{len(names)} once each; "
                         f"got {', '.join(odd)}")
    return [cols.index(c) for c in wanted]


def read_table(path_or_buffer, what: str) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """Read a comma-separated table of floats from a path or a text buffer.

    UTF-8, '.' decimal separator, no thousands separators; blank lines and
    lines starting with ``#`` are skipped, and the first remaining line is
    the header.  Returns the stripped column names, the (rows, columns) data
    and the ``weight`` column wherever it sits (None without one: uniform
    weights then apply).  ``what`` names the table in error messages; a
    ragged or non-numeric row is reported with its line number in the file.

    A file is streamed to the parser in blocks of about ``READ_BLOCK``
    characters, so a read holds O(rows x columns x 8 + READ_BLOCK) bytes
    rather than the whole text; a text buffer is read whole once.  Only a
    read that fails reads the whole text, to name what is wrong with it.
    """
    if hasattr(path_or_buffer, "read"):
        text = path_or_buffer.read()
        try:
            return _stream_table(io.StringIO(text))
        except ValueError:
            raise ValueError(f"{what} {_table_fault(text)}") from None
    try:
        with open(path_or_buffer, "r", encoding="utf-8") as fh:
            return _stream_table(fh)
    except ValueError:
        pass
    with open(path_or_buffer, "r", encoding="utf-8") as fh:
        text = fh.read()  # a decoding error raises here with its position in the file
    raise ValueError(f"{what} {_table_fault(text)}")


def _stream_table(fh) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """Parse the table in ``fh`` block by block; any fault raises ValueError.
    A block is ``READ_BLOCK`` characters completed to the end of their last
    line, so its rows are the ones the whole text would give."""
    blocks = iter(lambda: fh.read(READ_BLOCK) + fh.readline(), "")
    rows = chain.from_iterable(map(_rows, blocks))
    header, first = next(rows, None), next(rows, None)
    if first is None:
        raise ValueError("no data rows")
    cols = [c.strip() for c in header.split(",")]
    data = _parse_rows(chain([first], rows))
    if data.shape[1] != len(cols):
        raise ValueError("ragged rows")
    return cols, data, data[:, cols.index("weight")] if "weight" in cols else None


def _rows(text: str) -> list[str]:
    """The stripped lines of ``text`` that are neither blank nor ``#`` comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def _parse_rows(rows: Iterable[str]) -> np.ndarray:
    """The (rows, fields) floats of comma-separated lines, parsed straight
    into one array (no Python float per field)."""
    return np.loadtxt(rows, delimiter=",", dtype=float, ndmin=2, comments=None)


def _table_fault(text: str) -> str:
    """What is wrong with the table ``text``, whose streamed parse failed:
    it has no rows, or its first ragged or non-numeric data row, named by its
    line number.  Only a failed read pays for this second pass."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)]
    rows = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    if not rows:
        return "is empty"
    if len(rows) == 1:
        return "has a header but no rows"
    width = len(rows[0][1].split(","))
    for n, ln in rows[1:]:
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


def write_text(payload, path_or_buffer) -> None:
    """Write ``payload``, a string or an iterable of strings written in turn,
    to a text buffer, or to a file path as UTF-8 with the line endings
    unchanged."""
    chunks = [payload] if isinstance(payload, str) else payload
    if hasattr(path_or_buffer, "write"):
        path_or_buffer.writelines(chunks)
    else:
        with open(path_or_buffer, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _cells(column) -> Iterable[str]:
    if len(column) and isinstance(column[0], str):
        return column
    return map(repr, np.asarray(column, dtype=float).tolist())


def write_table(path_or_buffer, header, columns, comment: str | None = None) -> None:
    """Write a CSV table: an optional ``# comment`` line, the header, then one
    row per entry of the equally long ``columns``, with ``\n`` line endings.
    Floats are written as ``repr(float)`` (the shortest string that reads
    back bit-exactly), strings as they are.  Rows are streamed to the target
    through :func:`write_text`, never held as one string."""
    rows = (",".join(row) + "\n" for row in zip(*map(_cells, columns)))
    head = ([f"# {comment}\n"] if comment else []) + [",".join(header) + "\n"]
    write_text(chain(head, rows), path_or_buffer)


def read_scenario_csv(path_or_buffer) -> tuple[WeightedSample, np.ndarray | None]:
    """Read a scenario CSV; returns the sample and the asset column if present.

    Header ``weight,x,y`` with the weight column optional (uniform weights
    then apply) and the columns in any order; the format is that of
    :func:`read_table`.
    """
    cols, data, weights = read_table(path_or_buffer, "scenario CSV")
    xi, yi = xy_columns(cols)
    if xi is None or yi is None:
        raise ValueError(
            "scenario CSV must have columns weight,x,y (weight optional; "
            "deltaE/L/A accepted as aliases); got header " + ",".join(cols)
        )
    ai = _column(cols, _A_ALIASES)
    assets = data[:, ai] if ai is not None else None
    return WeightedSample(data[:, xi], data[:, yi], weights), assets


def write_scenario_csv(sample: WeightedSample, path_or_buffer,
                       assets: np.ndarray | None = None,
                       header_comment: str | None = None) -> None:
    """Write a scenario CSV (``weight,x,y``, or ``weight,deltaE,L,A`` with the
    asset column) in the format of :func:`write_table`."""
    if assets is None:
        header, columns = ("weight", "x", "y"), (sample.weights, sample.x, sample.y)
    else:
        header = ("weight", "deltaE", "L", "A")
        columns = (sample.weights, sample.x, sample.y, assets)
    write_table(path_or_buffer, header, columns, header_comment)
