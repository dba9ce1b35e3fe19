import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from classicality.errors import FormatError, ResourceLimitError
from classicality.lp import FarkasCertificate, LinearProgram, LpSolution, farkas_gap, solve


def test_simple_max():
    lp = LinearProgram(n_vars=1, objective=[1.0], sense="max", a_ub=[[1.0]], b_ub=[3.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-12)


def test_infeasible_interval_farkas():
    # x >= 1 and x <= 0 cannot both hold.
    lp = LinearProgram(
        n_vars=1,
        a_ub=[[-1.0], [1.0]],
        b_ub=[-1.0, 0.0],
    )
    sol = solve(lp)
    assert sol.status == "infeasible"
    resid, margin = farkas_gap(lp, sol.farkas)
    assert resid < 1e-10
    assert margin >= 1e-9
    # The certificate is (up to scale) one unit on each of the two rows.
    q = sol.farkas.ub
    assert q[0] > 0 and q[1] > 0
    assert q[0] / q[1] == pytest.approx(1.0, abs=1e-9)


def test_unbounded():
    lp = LinearProgram(n_vars=1, objective=[1.0], sense="max")
    assert solve(lp).status == "unbounded"


def test_equality_and_bounds():
    # min x + y  s.t. x + y = 1, 0 <= x,y <= 1  -> objective 1
    lp = LinearProgram(
        n_vars=2,
        objective=[1.0, 1.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[1.0],
        upper=[1.0, 1.0],
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-10)


def test_free_variable():
    # A free x enters as x = x+ - x- with x+, x- >= 0: min x s.t. -x <= 5.
    lp = LinearProgram(
        n_vars=2,
        objective=[1.0, -1.0],
        sense="min",
        a_ub=[[-1.0, 1.0]],
        b_ub=[5.0],
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.x[0] - sol.x[1] == pytest.approx(-5.0, abs=1e-10)
    assert sol.objective_value == pytest.approx(-5.0, abs=1e-10)


def test_degenerate_redundant_rows():
    lp = LinearProgram(
        n_vars=2,
        objective=[-1.0, -2.0],
        a_eq=[[1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 2.0],
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-2.0, abs=1e-10)


def test_determinism_bitwise():
    rng = np.random.default_rng(11)
    lp = LinearProgram(
        n_vars=6,
        objective=rng.normal(size=6),
        a_ub=rng.normal(size=(4, 6)),
        b_ub=rng.normal(size=4) + 2,
        a_eq=rng.normal(size=(1, 6)),
        b_eq=[0.3],
    )
    a = solve(lp)
    b = solve(lp)
    assert pickle.dumps(a) == pickle.dumps(b)


def test_size_limit():
    with pytest.raises(ResourceLimitError):
        LinearProgram(n_vars=20_001)


def test_shape_validation():
    with pytest.raises(FormatError):
        LinearProgram(n_vars=2, a_eq=[[1.0]], b_eq=[1.0])


def test_negative_upper_bound_rejected():
    # Every variable is bounded below by 0, so an upper bound below 0 is malformed.
    with pytest.raises(FormatError):
        LinearProgram(n_vars=1, upper=[-1.0])


def test_iteration_log_env_var(monkeypatch, capsys):
    monkeypatch.setenv("CLASSICALITY_LP_LOG", "1")
    lp = LinearProgram(
        n_vars=2, objective=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]
    )
    solve(lp)
    err = capsys.readouterr().err
    assert "lp phase" in err


def _random_lp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(1, 5))
    m_eq = int(rng.integers(0, 3))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = rng.normal(size=m_ub) + 1.0
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    x_feas = rng.uniform(0, 1, size=n)
    b_eq = a_eq @ x_feas if m_eq else None
    b_ub = np.maximum(b_ub, a_ub @ x_feas + rng.uniform(0, 1, size=m_ub))
    upper = np.full(n, 10.0)
    return LinearProgram(
        n_vars=n, objective=c, sense="min",
        a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, upper=upper,
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_agrees_with_scipy_on_feasible_programs(seed):
    lp = _random_lp(seed)
    sol = solve(lp)
    ref = linprog(
        lp.objective,
        A_ub=lp.a_ub if len(lp.b_ub) else None,
        b_ub=lp.b_ub if len(lp.b_ub) else None,
        A_eq=lp.a_eq if len(lp.b_eq) else None,
        b_eq=lp.b_eq if len(lp.b_eq) else None,
        bounds=[(0, u) for u in lp.upper],
        method="highs",
    )
    assert sol.status == "optimal"
    assert ref.status == 0
    assert sol.objective_value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
    assert sol.max_violation <= 1e-8


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_farkas_on_random_infeasible_systems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    w = rng.normal(size=n)
    # w.x <= -1 and w.x >= 1 simultaneously, plus noise rows, over the box
    # -10 <= x <= 10, shifted to x' = x + 10 in [0, 20].
    a_ub = np.vstack([w, -w, rng.normal(size=(2, n))])
    b_ub = np.array([-1.0, -1.0, 5.0, 5.0]) + 10.0 * a_ub.sum(axis=1)
    lp = LinearProgram(n_vars=n, a_ub=a_ub, b_ub=b_ub, upper=np.full(n, 20.0))
    sol = solve(lp)
    ref = linprog(np.zeros(n), A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0, 20)] * n, method="highs")
    assert (sol.status == "infeasible") == (ref.status == 2)
    if sol.status == "infeasible":
        resid, margin = farkas_gap(lp, sol.farkas)
        assert resid <= 1e-8
        assert margin >= 1e-9
    else:
        assert sol.max_violation <= 1e-8
