"""The streaming CSV table reader against the whole-text reader it replaced
(``table_reference``), and the bound on the memory a read holds."""

import io
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import table_reference
from recrisk import samples

# Every separator that str.splitlines honours, plus the ones a file read
# translates (CRLF, lone CR).
SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\u2029"]
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e3", " -0.0 ", "\t2.5", "inf", "-inf", "nan", ".5"]),
)
NOT_NUMBERS = st.sampled_from(["abc", "1_0", "", "0x10", "1,5", "2#3", "1.2.3"])


@st.composite
def table_texts(draw):
    """The text of a small table: an optional header of 1-4 columns among
    data, comment, blank and whitespace-only lines, some rows ragged or not
    numeric, joined by any mix of line separators."""
    width = draw(st.integers(1, 4))
    names = draw(st.permutations(["weight", "x", "y", " A ", "R_1"]))[:width]

    def row():
        n = draw(st.sampled_from([width] * 6 + [width - 1, width + 1]))
        cells = [draw(NOT_NUMBERS if draw(st.integers(0, 19)) == 0 else NUMBERS)
                 for _ in range(max(n, 1))]
        return ",".join(cells)

    kinds = st.sampled_from(["row"] * 6 + ["comment", "blank", "space"])
    lines = [] if draw(st.integers(0, 9)) == 0 else [",".join(names)]
    for kind in draw(st.lists(kinds, max_size=12)):
        lines.append({"comment": lambda: "# " + draw(st.text(max_size=5)).replace("\n", ""),
                      "blank": lambda: "",
                      "space": lambda: draw(st.sampled_from([" ", "\t", "  \t "])),
                      "row": row}[kind]())
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "  # leading comment")
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(SEPARATORS))
    return text if draw(st.booleans()) else text.rstrip("".join(SEPARATORS))


def outcome(reader, source):
    """Everything a read returns, as bytes, or the type and text of its error."""
    try:
        cols, data, weights = reader(source, "table")
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return (cols, data.shape, data.tobytes(),
            None if weights is None else (weights.shape, weights.tobytes()))


def streamed(source):
    """The outcome of the streaming reader, which must not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return outcome(samples.read_table, source)


def reference(source):
    """The outcome of the whole-text reader."""
    return outcome(table_reference.read_table, source)


@settings(max_examples=300, deadline=None)
@given(text=table_texts(), block=st.integers(1, 64), bad_byte=st.integers(-1, 200))
def test_streamed_read_equals_the_whole_text_read(tmp_path_factory, text, block, bad_byte):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    raw = text.encode("utf-8")
    if 0 <= bad_byte <= len(raw):
        raw = raw[:bad_byte] + b"\xff" + raw[bad_byte:]
    path.write_bytes(raw)
    with mock.patch.object(samples, "READ_BLOCK", block):
        assert streamed(path) == reference(path)
        assert streamed(str(path)) == reference(path)
        assert streamed(io.StringIO(text)) == reference(io.StringIO(text))


@pytest.mark.parametrize("text", [
    "x,y\r\n1,2\r\n3,4\r\n",
    "x,y\r1,2\r3,4",
    "# c\n\n  \nweight , x,y\n0.5,1,2\n\x0c0.5,3,4\n",
    "x,y\n1,2\u20283,4\x1c5,6\x856,7\u2029\n",
    "x,y\n1,2\n3\n",
    "x,y\n1,2\n\n# c\n3,abc\n",
    "x,y\n1,2\n,abc\n4,\n",
    "# only a comment\n\n",
    "x,y\n\n",
], ids=["crlf", "lone-cr", "comments-and-ff", "unicode-separators", "ragged", "non-numeric",
        "empty-field", "empty", "header-only"])
@pytest.mark.parametrize("block", [1, 3, 1 << 20])
def test_known_tables_read_alike(tmp_path, text, block):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(samples, "READ_BLOCK", block):
        assert streamed(path) == reference(path)
        assert streamed(io.StringIO(text)) == reference(io.StringIO(text))


def test_read_memory_is_about_twice_the_array(tmp_path):
    # 1e5 rows of 9 columns: a 7.2 MB array from a file of about 17 MB.  The
    # whole-text reader held about 6.9 times the array at its peak.
    path = tmp_path / "wide.csv"
    data = np.random.default_rng(11).standard_normal((100_000, 9))
    samples.write_table(path, [f"c{k}" for k in range(9)], list(data.T))
    tracemalloc.start()
    try:
        _, read, _ = samples.read_table(path, "table")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read.tobytes() == data.tobytes()
    assert peak <= 2 * read.nbytes + 4 * samples.READ_BLOCK, peak / read.nbytes
