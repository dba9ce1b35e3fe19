import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classicality.errors import FormatError
from classicality.linalg import (
    constrained_lstsq,
    matrix_rank,
    null_space,
    orthonormal_basis,
    rref,
    unique_rows,
)


def test_null_space_full_rank_is_empty():
    assert null_space(np.eye(2), tol=1e-9) == []


def test_null_space_proportional_rows():
    basis = null_space([[1.0, 1.0], [2.0, 2.0]])
    assert len(basis) == 1
    v = basis[0]
    assert abs(abs(v[0]) - abs(v[1])) < 1e-12
    assert abs(v @ np.array([1.0, 1.0])) < 1e-12


def test_null_space_pr_states_coefficients():
    # Four square-corner states stacked as rows; coefficient null space of
    # the transpose carries the single linear dependence (1, 1, -1, -1).
    states = np.array([[1, 1, 1], [1, 0, 0], [1, 1, 0], [1, 0, 1]], dtype=float)
    basis = null_space(states.T)
    assert len(basis) == 1
    v = basis[0] / basis[0][0]
    assert np.allclose(v, [1.0, 1.0, -1.0, -1.0], atol=1e-9)


def test_null_space_rejects_empty():
    with pytest.raises(FormatError):
        null_space(np.zeros((0, 3)))


@given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_null_space_residual_property(cols, rows, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols))
    for v in null_space(m):
        assert np.max(np.abs(m @ v)) <= 10 * 1e-9 * np.max(np.abs(m))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_rref_canonical_leading_ones():
    r = rref([[0.0, 2.0, 4.0], [1.0, 1.0, 1.0]])
    assert r.shape == (2, 3)
    for row in r:
        lead = np.flatnonzero(np.abs(row) > 1e-12)[0]
        assert row[lead] == pytest.approx(1.0)


def test_orthonormal_basis_rank():
    b = orthonormal_basis([[1, 0, 0], [2, 0, 0], [0, 1, 0]])
    assert b.shape == (2, 3)
    assert np.allclose(b @ b.T, np.eye(2), atol=1e-12)
    assert matrix_rank([[1, 2], [2, 4]]) == 1


def test_constrained_lstsq_matches_unconstrained_when_interior():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 3))
    x_true = np.array([0.5, -0.2, 0.3])
    b = a @ x_true
    (x,) = constrained_lstsq(a[None], b[None], g=np.eye(3)[None], h=np.full((1, 3), -10.0))
    assert np.allclose(x, x_true, atol=1e-8)


def test_constrained_lstsq_active_bound():
    # min (x-2)^2 with x <= 1  ->  x = 1
    (x,) = constrained_lstsq([[[1.0]]], [[2.0]], g=[[[-1.0]]], h=[[-1.0]])
    assert x[0] == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_constrained_lstsq_kkt_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=6)
    g = np.vstack([np.eye(3), -np.eye(3)])
    h = np.concatenate([np.full(3, -1.0), np.full(3, -1.0)])  # box [-1, 1]
    (x,) = constrained_lstsq(a[None], b[None], g=g[None], h=h[None])
    assert np.all(g @ x >= h - 1e-9)
    # No feasible descent direction: project the gradient on the box.
    grad = 2 * a.T @ (a @ x - b)
    for i in range(3):
        if x[i] > -1 + 1e-7 and x[i] < 1 - 1e-7:
            assert abs(grad[i]) < 1e-5
        elif x[i] <= -1 + 1e-7:
            assert grad[i] > -1e-5
        else:
            assert grad[i] < 1e-5


@pytest.mark.parametrize("p, r, n, q", [(1, 4, 2, 3), (9, 6, 3, 6), (5, 12, 12, 24), (4, 3, 2, 0)])
def test_constrained_lstsq_stack_matches_one_call_per_problem(p, r, n, q):
    rng = np.random.default_rng([p, r, n, q])
    a = rng.normal(size=(p, r, n))
    b = rng.normal(size=(p, r))
    g = rng.normal(size=(p, q, n))
    h = rng.normal(size=(p, q)) - 1.0  # g x >= h holds near x = 0
    x = constrained_lstsq(a, b, g, h)
    assert x.shape == (p, n)
    for i in range(p):
        one = constrained_lstsq(a[i : i + 1], b[i : i + 1], g[i : i + 1], h[i : i + 1])
        assert x[i].tobytes() == one[0].tobytes()


def test_constrained_lstsq_stack_flags_only_the_infeasible_problem():
    # x >= 1 and -x >= 0 cannot both hold; the other problems have x >= -1.
    a = np.ones((3, 2, 1))
    b = np.array([[0.5, 0.5], [2.0, 2.0], [-3.0, -3.0]])
    g = np.array([[[1.0], [-1.0]]] * 3)
    h = np.array([[-1.0, -1.0], [1.0, 0.0], [-1.0, -1.0]])
    x = constrained_lstsq(a, b, g, h)
    assert np.isnan(x[1]).all()
    assert not np.isnan(x[[0, 2]]).any()
    assert x[0] == pytest.approx([0.5], abs=1e-9)
    assert x[2] == pytest.approx([-1.0], abs=1e-9)
    for i in range(3):
        one = constrained_lstsq(a[i : i + 1], b[i : i + 1], g[i : i + 1], h[i : i + 1])
        assert one.shape == (1, 1)
        assert one[0].tobytes() == x[i].tobytes()  # NaN bits too


def test_unique_rows_greedy_first_seen():
    rows = np.array([[0.0, 0.0], [0.4, 0.0], [0.8, 0.0], [0.2, 0.1], [1.5, 0.0]])
    # [0.4, 0] is within 0.5 of the kept [0, 0]: dropped.  [0.8, 0] is
    # within 0.5 only of that dropped row, so it is kept.
    assert np.array_equal(unique_rows(rows, 0.5), rows[[0, 2, 4]])
    # Kept rows stay in input order, and the order decides which survive.
    assert np.array_equal(unique_rows(rows[::-1], 0.5), rows[[4, 3, 2]])
    assert unique_rows(np.zeros((0, 3)), 1e-9).shape == (0, 3)
