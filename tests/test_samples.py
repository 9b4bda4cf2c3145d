import io
import re
from pathlib import Path

import numpy as np
import pytest

from recrisk.allocation import DivisionalSample, read_divisional_csv
from recrisk.frontier import PortfolioProblem, read_problem_csv
from recrisk.measures import reavar, var_empirical
from recrisk.recovery import RecoveryFunction
from recrisk.samples import (WeightedSample, numbered_columns, read_scenario_csv,
                             write_scenario_csv, write_table)

SRC = Path(__file__).resolve().parent.parent / "src" / "recrisk"


def test_uniform_weights_default():
    s = WeightedSample([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], None)
    assert np.allclose(s.weights, 1.0 / 3.0)
    assert s.size == 3


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightedSample([1.0], [1.0], [0.5])  # does not sum to 1
    with pytest.raises(ValueError):
        WeightedSample([1.0, 2.0], [0.0, 0.0], [1.5, -0.5])  # negative weight
    with pytest.raises(ValueError):
        WeightedSample([np.inf], [0.0], None)
    with pytest.raises(ValueError):
        WeightedSample([], [], None)


def test_arrays_are_immutable():
    s = WeightedSample([1.0, 2.0], [0.0, 0.0], None)
    with pytest.raises(ValueError):
        s.x[0] = 5.0


CALLER_ARRAYS = {
    "WeightedSample": (WeightedSample, ("x", "y", "weights"), (4,), (4,)),
    "DivisionalSample": (DivisionalSample, ("de", "liabilities", "weights"), (4, 2), (4, 2)),
    "PortfolioProblem": (lambda r, z, w: PortfolioProblem(r, z, RecoveryFunction.constant(0.5),
                                                          weights=w),
                         ("returns", "liability_fraction", "weights"), (4, 2), (4,)),
}


@pytest.mark.parametrize("build, names, x_shape, y_shape", CALLER_ARRAYS.values(),
                         ids=CALLER_ARRAYS.keys())
def test_sample_keeps_a_private_copy_of_its_arrays(build, names, x_shape, y_shape):
    rng = np.random.default_rng(3)
    arrays = (rng.uniform(0.1, 1.0, x_shape), rng.uniform(0.1, 1.0, y_shape),
              np.array([0.1, 0.2, 0.3, 0.4]))
    views = [a[:] for a in arrays]
    sample = build(*arrays)
    kept = [getattr(sample, name).copy() for name in names]
    for a, view in zip(arrays, views):
        assert a.flags.writeable
        view[...] = -50.0
    for name, before in zip(names, kept):
        assert np.array_equal(getattr(sample, name), before)
        assert not getattr(sample, name).flags.writeable


def test_write_through_an_earlier_view_leaves_the_measure_unchanged():
    x = np.array([1.0, -2.0, 0.5, 3.0])
    view = x[:]
    s = WeightedSample(x, np.array([0.5, 1.0, 0.2, 0.1]), None)
    before = reavar(s, RecoveryFunction.constant(0.3))
    view[1] = -50.0
    assert reavar(s, RecoveryFunction.constant(0.3)) == before


def test_only_samples_freezes_arrays_and_reads_json_numbers():
    """Which arrays a sample may hold and which JSON values count as numbers
    are decided in ``samples`` alone (``freeze`` and ``json_number``)."""
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "samples.py"
                 for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if re.search(r"\.setflags\(|isinstance\([^()]*,\s*\(int,\s*float\)\)", line)]
    assert offenders == []


def test_nonnegative_y_guard():
    s = WeightedSample([1.0], [-0.5], None)
    with pytest.raises(ValueError):
        s.require_nonnegative_y()


def test_csv_round_trip_plain():
    s = WeightedSample([1.5, -2.25], [0.5, 3.0], [0.25, 0.75])
    buf = io.StringIO()
    write_scenario_csv(s, buf)
    loaded, assets = read_scenario_csv(io.StringIO(buf.getvalue()))
    assert assets is None
    assert np.array_equal(loaded.x, s.x)
    assert np.array_equal(loaded.y, s.y)
    assert np.array_equal(loaded.weights, s.weights)


def test_csv_aliases_and_assets():
    text = "# comment line\nweight,deltaE,L,A\n0.5,1.0,2.0,9.5\n0.5,-1.0,3.0,8.5\n"
    sample, assets = read_scenario_csv(io.StringIO(text))
    assert np.array_equal(sample.x, [1.0, -1.0])
    assert np.array_equal(sample.y, [2.0, 3.0])
    assert np.array_equal(assets, [9.5, 8.5])


def test_csv_without_weight_column():
    text = "x,y\n1.0,0.0\n2.0,0.5\n"
    sample, _ = read_scenario_csv(io.StringIO(text))
    assert np.allclose(sample.weights, 0.5)


def test_write_table_format(tmp_path):
    columns = [np.array([0.1, 1e-20, -0.0]), ["a", "b", "c"], [1, 2.5, float("nan")]]
    expected = "# note\nv,s,w\n0.1,a,1.0\n1e-20,b,2.5\n-0.0,c,nan\n"
    buf = io.StringIO()
    write_table(buf, ["v", "s", "w"], columns, comment="note")
    assert buf.getvalue() == expected
    path = tmp_path / "t.csv"
    write_table(str(path), ["v", "s", "w"], columns, comment="note")
    assert path.read_bytes() == expected.encode()


def test_scenario_csv_literal_text():
    s = WeightedSample([1.5, -2.25], [0.5, 3.0], [0.25, 0.75])
    buf = io.StringIO()
    write_scenario_csv(s, buf, assets=np.array([2.0, 0.75]), header_comment="seed=1")
    assert buf.getvalue() == "# seed=1\nweight,deltaE,L,A\n0.25,1.5,0.5,2.0\n0.75,-2.25,3.0,0.75\n"


def test_numbered_columns_reads_shuffled_columns_in_number_order():
    cols = ["R_10", "Z", "R_3", "R_1", "weight", "R_7", "R_2", "R_9", "R_5", "R_4", "R_8", "R_6"]
    assert [cols[j] for j in numbered_columns(cols, "R_")] == [f"R_{k}" for k in range(1, 11)]
    assert numbered_columns(cols, "L_") == []
    row = ",".join("0.5" if c == "weight" else "0.0" if c == "Z" else str(int(c[2:]))
                   for c in cols)
    text = ",".join(cols) + "\n" + row + "\n" + row + "\n"
    problem = read_problem_csv(io.StringIO(text), RecoveryFunction.constant(0.5))
    assert problem.returns[0].tolist() == [float(k) for k in range(1, 11)]


def test_csv_missing_columns_rejected():
    with pytest.raises(ValueError):
        read_scenario_csv(io.StringIO("a,b\n1,2\n"))


READERS = {
    "scenario": lambda buf: read_scenario_csv(buf)[0].weights,
    "divisional": lambda buf: read_divisional_csv(buf).weights,
    "problem": lambda buf: read_problem_csv(buf, RecoveryFunction.constant(0.5)).weights,
}


@pytest.mark.parametrize("reader, header", [
    ("scenario", "x,weight,y"),
    ("divisional", "dE_1,weight,L_1"),
    ("divisional", "x,l,weight"),
    ("problem", "R_1,weight,Z"),
], ids=["scenario", "divisional", "divisional-single-alias", "problem"])
def test_readers_take_the_weight_column_anywhere(reader, header):
    rows = "".join(",".join(w if c == "weight" else "1.0" for c in header.split(",")) + "\n"
                   for w in ("0.9", "0.1"))
    assert np.array_equal(READERS[reader](io.StringIO(header + "\n" + rows)), [0.9, 0.1])


WEIGHTED_CONSTRUCTORS = {
    "WeightedSample": lambda w: WeightedSample([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], w),
    "var_empirical": lambda w: var_empirical([1.0, 2.0, 3.0], w, 0.1),
    "DivisionalSample": lambda w: DivisionalSample(np.zeros((3, 2)), np.ones((3, 2)), w),
    "PortfolioProblem": lambda w: PortfolioProblem(np.zeros((3, 2)), np.zeros(3),
                                                   RecoveryFunction.constant(0.5), weights=w),
}


@pytest.mark.parametrize("weights, message", [
    ([0.5, np.nan, 0.5], "non-finite"),
    ([0.5, 0.0, 0.5], "strictly positive"),
    ([0.6, -0.1, 0.5], "strictly positive"),
    ([0.5, 0.5], "length 3"),
    ([0.25, 0.25, 0.5 + 1e-9], r"got 1\.000000001"),
], ids=["nan", "zero", "negative", "wrong-length", "sum-off-1e-9"])
@pytest.mark.parametrize("build", WEIGHTED_CONSTRUCTORS.values(), ids=WEIGHTED_CONSTRUCTORS.keys())
def test_bad_weights_rejected_everywhere(build, weights, message):
    with pytest.raises(ValueError, match=message):
        build(np.asarray(weights))
