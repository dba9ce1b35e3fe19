import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ldp_scipy, rref_row_loop, unique_rows_greedy
from scipy.optimize import nnls

import classicality as C
from classicality import linalg
from classicality.errors import FormatError, NumericalError
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


def _assert_nnls_optimal(e, b, u):
    """u >= 0 reaches scipy's NNLS objective to 1e-12 (1 + |b|) and meets the
    KKT conditions: gradient <= 0, and 0 where u > 0."""
    ref, _ = nnls(e, b)
    scale = 1.0 + np.linalg.norm(b)
    assert abs(np.linalg.norm(e @ u - b) - np.linalg.norm(e @ ref - b)) <= 1e-12 * scale
    assert np.all(u >= 0.0)
    w = e.T @ (b - e @ u)
    tol = 1e-10 * scale * max(1.0, np.max(np.linalg.norm(e, axis=0)))
    assert np.all(w <= tol)
    assert np.all(np.abs(w[u > 0.0]) <= tol)


def _nnls_problems(seed):
    """Seeded NNLS problems of the shapes ``_ldp`` builds, (n + 1) x m with
    n <= 7 and m <= 30: generic, rank-deficient, with duplicate and zero
    columns, with b in the cone of the columns, and least-distance ones."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 31))
    e = rng.normal(size=(n + 1, m))
    yield e, rng.normal(size=n + 1)
    rank = int(rng.integers(1, n + 1))
    low = rng.normal(size=(n + 1, rank)) @ rng.normal(size=(rank, m))
    yield low, rng.normal(size=n + 1)
    dup = e.copy()
    dup[:, rng.integers(0, m, m // 2)] = dup[:, rng.integers(0, m, m // 2)]
    dup[:, rng.integers(0, m, max(1, m // 4))] = 0.0
    yield dup, rng.normal(size=n + 1)
    for a in (e, low, dup):
        # Exact fits leave gradients of rounding size, which must not cycle.
        yield a, a @ (np.abs(rng.normal(size=m)) * (rng.random(m) < 0.4))
    yield np.round(2 * e), np.round(2 * rng.normal(size=n + 1))  # many ties
    ldp = e.copy()
    ldp[-1] = rng.normal(size=m) - 0.5
    yield ldp, np.eye(n + 1)[-1]


@pytest.mark.parametrize("seed", range(60))
def test_nnls_matches_scipy_and_meets_kkt(seed):
    for e, b in _nnls_problems(seed):
        _assert_nnls_optimal(e, b, linalg._nnls(e, b))


# Found by a seeded search.  Rounding leaves a positive gradient entry on
# a column whose trial coefficient is then <= 0 (first problem) or on a
# duplicate of a passive column (second).  With the rounding slack off,
# the book's two entry tests alone keep these from cycling to the cap.
_ENTRY_TEST_PROBLEMS = [
    (
        [[-1.3493172462579026, -0.5915748828912161, -0.09240806520639366, 0.6909519446056412],
         [1.3203794893667786, -0.8083458775593314, 0.5509765318813011, -0.44445682570554373],
         [2.0751877763153903, -0.048723544625703656, 0.5021269704086143, -0.9361621531378327]],
        [-0.8497718354952157, 0.9133962144948464, 1.3515974572020077],
    ),
    (
        [[0.032360133264003034, 0.032360133264003034, -0.21129075694428245],
         [-1.9820559740785837, -1.9820559740785837, 0.6191354276214243]],
        [0.052409377771749, -3.2100708443555526],
    ),
]


def test_nnls_entry_tests_keep_rounding_from_cycling(monkeypatch):
    monkeypatch.setattr(linalg, "_EPS", 0.0)
    for e, b in _ENTRY_TEST_PROBLEMS:
        e, b = np.array(e), np.array(b)
        _assert_nnls_optimal(e, b, linalg._nnls(e, b))


def test_nnls_takes_the_lowest_index_on_ties():
    e = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert linalg._nnls(e, np.array([2.0, -1.0])).tolist() == [2.0, 0.0, 0.0]


def test_nnls_iteration_cap_raises_naming_its_cause(monkeypatch):
    rng = np.random.default_rng(3)
    e, b = rng.normal(size=(8, 20)), rng.normal(size=8)
    linalg._nnls(e, b)
    monkeypatch.setattr(linalg, "_NNLS_SOLVES_PER_COLUMN", 0)
    with pytest.raises(NumericalError, match="NNLS stopped at its cap of 0 solves"):
        linalg._nnls(e, b)


@pytest.fixture(scope="module")
def pipeline_ldp_problems():
    """Every (g, h, failed, y) ``_ldp`` sees in one counts-pipeline pass at
    seeds 1-3, and the ``e`` of every ``_nnls`` call."""
    from perfbench import inputs as I

    ldp, nnls_calls = [], []
    real_ldp, real_nnls = linalg._ldp, linalg._nnls

    def ldp_spy(g, h, failed):
        y = real_ldp(g, h, failed)
        ldp.append((g.copy(), h.copy(), failed.copy(), y))
        return y

    def nnls_spy(e, f):
        nnls_calls.append(e.copy())
        return real_nnls(e, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_ldp", ldp_spy)
        mp.setattr(linalg, "_nnls", nnls_spy)
        for seed in (1, 2, 3):
            for item in I.count_inputs(I.COUNT_TABLES, seed):
                synth_seed, fit_seed = item.seeds(0)
                C.verdict_pipeline(C.synth(item.fragment, item.trials, synth_seed), seed=fit_seed)
    return ldp, nnls_calls


def test_ldp_skips_the_solver_where_all_bounds_are_nonpositive(pipeline_ldp_problems):
    ldp, nnls_calls = pipeline_ldp_problems
    skipped = sum(int(np.sum(~failed & np.all(h <= 0, axis=1))) for _, h, failed, _ in ldp)
    assert nnls_calls and skipped
    assert all(np.any(e[-1] > 0) for e in nnls_calls)
    for g, h, failed, y in ldp:
        ref = ldp_scipy(g, h, failed)
        zero = ~failed & np.all(h <= 0, axis=1)
        assert y[zero].tobytes() == ref[zero].tobytes()
        assert np.array_equal(np.isnan(y), np.isnan(ref))
        assert np.allclose(y, ref, rtol=1e-9, atol=1e-12, equal_nan=True)


def test_nnls_matches_scipy_on_every_pipeline_ldp_problem(pipeline_ldp_problems):
    ldp, _ = pipeline_ldp_problems
    count = 0
    for g, h, failed, _ in ldp:
        for i in np.flatnonzero(~failed).tolist():
            e = np.vstack([g[i].T, h[i]])
            b = np.eye(len(e))[-1]
            _assert_nnls_optimal(e, b, linalg._nnls(e, b))
            count += 1
    assert count > 100


def test_unique_rows_greedy_first_seen():
    rows = np.array([[0.0, 0.0], [0.4, 0.0], [0.8, 0.0], [0.2, 0.1], [1.5, 0.0]])
    # [0.4, 0] is within 0.5 of the kept [0, 0]: dropped.  [0.8, 0] is
    # within 0.5 only of that dropped row, so it is kept.
    assert np.array_equal(unique_rows(rows, 0.5), rows[[0, 2, 4]])
    # Kept rows stay in input order, and the order decides which survive.
    assert np.array_equal(unique_rows(rows[::-1], 0.5), rows[[4, 3, 2]])
    assert unique_rows(np.zeros((0, 3)), 1e-9).shape == (0, 3)


@pytest.mark.parametrize("seed", range(40))
def test_unique_rows_matches_the_greedy_loop_on_near_duplicate_chains(seed):
    # Chains of rows a step of up to 10 tol apart: a row is close to its
    # neighbours but not always to the chain's start, so which rows survive
    # depends on the greedy order.
    rng = np.random.default_rng(seed)
    tol = 1e-8
    n, d = int(rng.integers(2, 40)), int(rng.integers(1, 6))
    starts = rng.integers(-2, 3, size=(n, d)).astype(float)
    steps = rng.uniform(-10 * tol, 10 * tol, size=(n, d)) * rng.integers(0, 2, size=(n, 1))
    rows = np.cumsum(np.where(rng.random((n, 1)) < 0.7, steps, starts), axis=0)
    rows = rows[rng.permutation(n)] if seed % 2 else rows
    got = unique_rows(rows, 10 * tol)
    want = unique_rows_greedy(rows, 10 * tol)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _tied_rows(rng, d, tol):
    """Rows of a symmetric cone, all of {-1, 0, 1}^d normalized, whose keys
    tie (e_0 + e_3 and e_1 + e_2 weigh alike), shuffled, and each of some
    rows again with one entry moved by just under or just over ``tol``."""
    rows = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=d)))
    rows = rows[np.any(rows != 0.0, axis=1)]
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    picks = rows[rng.integers(0, len(rows), size=len(rows) // 2)]
    cols = rng.integers(0, d, size=len(picks))
    step = tol * np.where(rng.random(len(picks)) < 0.5, 1.0 - 1e-6, 1.0 + 1e-6)
    near = picks.copy()
    near[np.arange(len(picks)), cols] += step * rng.choice([-1.0, 1.0], size=len(picks))
    return np.vstack([rows, near])[rng.permutation(len(rows) + len(picks))]


@pytest.mark.parametrize("seed", range(20))
def test_unique_rows_matches_the_greedy_loop_on_tied_keys_and_near_duplicates(
    seed, monkeypatch
):
    rng = np.random.default_rng(seed)
    tol = 1e-8
    rows = _tied_rows(rng, int(rng.integers(4, 6)), tol)
    d = rows.shape[1]
    w = 1.0 + np.arange(d) / (d + 0.5)
    want = unique_rows_greedy(rows, tol)
    assert np.min(np.diff(np.sort(want @ w))) <= tol * w.sum()  # kept rows' keys tie
    if seed % 2:  # closeness tested in blocks of a few pairs
        monkeypatch.setattr(linalg, "_PAIR_CELLS", 4 * d)
    got = unique_rows(rows, tol)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(want) < len(rows)  # the near duplicates within tol went


@pytest.mark.parametrize("seed", range(10))
def test_unique_rows_returns_rows_far_apart_unchanged(seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(int(rng.integers(2, 200)), int(rng.integers(2, 17))))
    rows[rng.random(len(rows)) < 0.3, 0] = -0.0  # signed zeros survive
    got = unique_rows(rows, 1e-8)
    assert got.tobytes() == rows.tobytes() == unique_rows_greedy(rows, 1e-8).tobytes()


def test_orthonormal_basis_sign_ties_go_to_the_first_largest_entry():
    for v in ([-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]):
        (row,) = orthonormal_basis([v])
        assert row.tolist() == pytest.approx([2**-0.5, -(2**-0.5), 0.0], abs=1e-15)
        assert row[0] > 0.0
    rng = np.random.default_rng(3)
    signs = rng.choice([-1.0, 1.0], size=(6, 8))
    for rows in (orthonormal_basis(signs), np.array(null_space(signs[:3]))):
        mag = np.abs(rows)
        for row, m in zip(rows, mag):
            assert row[np.flatnonzero(m > m.max() - 1e-14)[0]] > 0.0


def test_unique_rows_keeps_single_and_empty_inputs():
    for rows in (np.zeros((0, 2)), np.array([[1.0, -0.0]])):
        got = unique_rows(rows, 1e-9)
        assert got.shape == rows.shape and got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("seed", range(40))
def test_rref_matches_the_row_loop_with_ties_and_signed_zeros(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 9))
    m = rng.integers(-2, 3, size=(rows, cols)).astype(float)
    if seed % 3 == 0:
        m = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.6)
    m[rng.random((rows, cols)) < 0.25] = -0.0  # signed zeros a masked update keeps
    if rows > 1 and seed % 2:
        m[-1] = m[0] * 3.0  # a dependent row
    got = rref(m)
    want = rref_row_loop(m)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.signbit(got).tolist() == np.signbit(want).tolist()
