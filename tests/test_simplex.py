import itertools
import math

import numpy as np
import pytest

from recrisk.errors import SolverStalled
from recrisk.simplex import LinearProgram, solve_lp


def make_lp(objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
            lower=None, upper=None):
    n = len(objective)
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    return LinearProgram(np.asarray(objective, dtype=float), a_ub, b_ub, a_eq, b_eq,
                         lower, upper)


def vertex_enumeration_min(lp):
    """Brute-force optimum: stack all constraints (rows and finite bounds) and
    check every square subsystem's solution for feasibility."""
    n = lp.n_variables
    rows = []
    rhs = []
    for i in range(lp.b_ub.size):
        rows.append(lp.a_ub[i])
        rhs.append(lp.b_ub[i])
    for i in range(lp.b_eq.size):
        rows.append(lp.a_eq[i])
        rhs.append(lp.b_eq[i])
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if math.isfinite(lp.lower[j]):
            rows.append(-e)
            rhs.append(-lp.lower[j])
        if math.isfinite(lp.upper[j]):
            rows.append(e)
            rhs.append(lp.upper[j])
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)
    best = math.inf
    for combo in itertools.combinations(range(rows.shape[0]), n):
        a = rows[list(combo)]
        b = rhs[list(combo)]
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        x = np.linalg.solve(a, b)
        if lp.b_ub.size and np.any(lp.a_ub @ x > lp.b_ub + 1e-8):
            continue
        if lp.b_eq.size and np.any(np.abs(lp.a_eq @ x - lp.b_eq) > 1e-8):
            continue
        if np.any(x < lp.lower - 1e-8) or np.any(x > lp.upper + 1e-8):
            continue
        best = min(best, float(lp.objective @ x))
    return best


def test_trivial_threshold():
    # min U subject to U >= 3 with U free
    lp = make_lp([1.0], a_ub=[[-1.0]], b_ub=[-3.0], lower=[-np.inf])
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.residual <= 1e-9


def test_equality_and_bounds():
    # min x + y st x + y = 1, x <= 0.3
    lp = make_lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], upper=[0.3, np.inf])
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_free_variable_split():
    # min |style| objective with a free variable pushed negative
    lp = make_lp([1.0, 0.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0],
                 lower=[-np.inf, 0.0])
    # min x st x + y >= 2, y >= 0, x free -> x unbounded below? No: decreasing
    # x forces y >= 2 - x which stays feasible, so the LP is unbounded.
    sol = solve_lp(lp)
    assert sol.status == "Unbounded"


def test_infeasible_detection():
    lp = make_lp([1.0], a_ub=[[1.0]], b_ub=[-1.0])  # x <= -1 with x >= 0
    sol = solve_lp(lp)
    assert sol.status == "Infeasible"


def test_degenerate_lp_terminates():
    # many redundant rows through the origin: classic degeneracy stress
    n = 4
    a = -np.eye(n)
    a = np.vstack([a, -np.ones((1, n))])
    b = np.zeros(n + 1)
    lp = make_lp(-np.ones(n), a_ub=a, b_ub=b, upper=np.ones(n))
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective == pytest.approx(-n, abs=1e-9)


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(61)
    solved = 0
    while solved < 40:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        a_ub = rng.normal(0, 1, size=(m, n))
        b_ub = rng.uniform(0.5, 2.0, size=m)
        upper = rng.uniform(0.5, 3.0, size=n)
        lp = make_lp(rng.normal(0, 1, size=n), a_ub=a_ub, b_ub=b_ub, upper=upper)
        sol = solve_lp(lp)
        brute = vertex_enumeration_min(lp)
        assert sol.status == "Optimal"  # box-bounded and 0 feasible
        assert sol.objective == pytest.approx(brute, abs=1e-8)
        assert sol.residual <= 1e-7
        solved += 1


def test_random_equality_lps():
    rng = np.random.default_rng(62)
    for _ in range(20):
        n = 4
        a_eq = np.ones((1, n))
        b_eq = np.array([1.0])
        a_ub = rng.normal(0, 1, size=(2, n))
        b_ub = rng.uniform(0.2, 1.5, size=2)
        lp = make_lp(rng.normal(0, 1, size=n), a_ub=a_ub, b_ub=b_ub,
                     a_eq=a_eq, b_eq=b_eq, upper=np.ones(n))
        sol = solve_lp(lp)
        brute = vertex_enumeration_min(lp)
        if sol.status == "Optimal":
            assert sol.objective == pytest.approx(brute, abs=1e-8)
        else:
            assert brute == math.inf


def test_iteration_cap_raises():
    rng = np.random.default_rng(63)
    a_ub = rng.normal(0, 1, size=(30, 20))
    lp = make_lp(rng.normal(0, 1, 20), a_ub=a_ub, b_ub=np.abs(rng.normal(1, 1, 30)),
                 upper=np.full(20, 2.0))
    with pytest.raises(SolverStalled):
        solve_lp(lp, max_iter=2)


@pytest.mark.parametrize("field, kwargs", [
    ("objective", dict(objective=[np.nan, 1.0])),
    ("a_ub", dict(a_ub=[[np.nan, 1.0]])),
    ("a_ub", dict(a_ub=[[np.inf, 1.0]])),
    ("b_ub", dict(b_ub=[np.nan])),
    ("a_eq", dict(a_eq=[[1.0, -np.inf]], b_eq=[1.0])),
    ("b_eq", dict(a_eq=[[1.0, 1.0]], b_eq=[np.inf])),
    ("lower", dict(lower=[np.inf, 0.0])),
    ("lower", dict(lower=[np.nan, 0.0])),
    ("upper", dict(upper=[-np.inf, 1.0])),
    ("upper", dict(upper=[np.nan, 1.0])),
])
def test_non_finite_input_is_rejected(field, kwargs):
    # each of these used to stall, report a phase-1 failure, report
    # Unbounded, or (a NaN upper bound) be ignored and solve as Optimal
    args = dict(objective=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[2.0])
    args.update(kwargs)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        make_lp(**args)



@pytest.mark.parametrize("field, kwargs", [
    # six entries for three variables: reshape(-1, 3) would re-read them as
    # a (2, 3) matrix with scrambled coefficients and solve it as Optimal
    ("a_ub", dict(a_ub=np.ones((3, 2)), b_ub=[1.0, 1.0])),
    ("a_ub", dict(a_ub=[1.0, 1.0, 1.0], b_ub=[1.0])),
    ("a_eq", dict(a_eq=np.ones((1, 2)), b_eq=[1.0])),
])
def test_mis_shaped_matrix_is_rejected(field, kwargs):
    args = dict(objective=[1.0, 1.0, 1.0])
    args.update(kwargs)
    with pytest.raises(ValueError, match=f"^{field} must be a 2-d matrix with 3 columns"):
        make_lp(**args)


def test_size_zero_matrix_means_no_rows():
    lp = LinearProgram([1.0, 1.0], [], [], np.zeros((0, 0)), np.zeros(0),
                       [0.0, 0.0], [1.0, 1.0])
    assert lp.a_ub.shape == (0, 2) and lp.a_eq.shape == (0, 2)
    assert solve_lp(lp).objective == 0.0


def test_program_keeps_private_read_only_copies():
    # max x1 + 2 x2  s.t.  x1 + x2 <= 1, x >= 0: optimum -2 at x = (0, 1).
    a = np.array([[1.0, 1.0]])
    upper = np.full(2, np.inf)
    lp = LinearProgram(np.array([-1.0, -2.0]), a, np.array([1.0]), np.zeros((0, 2)),
                       np.zeros(0), np.zeros(2), upper)
    a[0, 1] = 4.0
    upper[0] = 0.0
    assert lp.a_ub is not a and lp.a_ub[0, 1] == 1.0 and np.isinf(lp.upper).all()
    assert solve_lp(lp).objective == -2.0
    for name in ("objective", "a_ub", "b_ub", "a_eq", "b_eq", "lower", "upper"):
        assert not getattr(lp, name).flags.writeable
