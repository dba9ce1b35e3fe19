"""Membership on the row space of the response table, against the full-row LP.

``membership`` keeps one statistics row per preparation for each outcome
column of the response table that the unit response and the earlier
columns do not span; ``oracles.membership_full_rows`` keeps a row for every
(preparation, outcome).  The two must give the same verdict everywhere, a
table that breaks only a dropped row must still be refuted, and the
inequalities must stay violated and tight whatever order the outcomes come in.
"""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from classicality import noncontextuality
from classicality.embedding import accessibilize, accessible_identities
from classicality.fragments import StatisticsTable, predict
from classicality.identities import find_identities, induced_marginal_identities
from classicality.linalg import matrix_rank, rref
from classicality.lp import FarkasCertificate, farkas_gap
from classicality.noncontextuality import (
    evaluate,
    membership,
    response_vertices,
)
from classicality.scenarios import build
from oracles import (
    full_row_membership_lp,
    grid_bound_oracle,
    membership_full_rows,
    noncontextual_maximum_mu_polytope,
    random_fragment,
    random_noncontextual_models,
)
from perfbench.inputs import composite, regular_polygon, scenario


def _sweep_input(fragment):
    """(statistics, state identities, effect identities, tol) as the geometry sweep
    passes them to ``membership``."""
    af = accessibilize(fragment, 1e-9)
    state_idents, effect_idents = accessible_identities(af)
    return predict(fragment), state_idents, effect_idents, af.tol


def _vertices(stats, effect_idents, tol=1e-9):
    return response_vertices(effect_idents, list(zip(stats.measurements, stats.outcomes)), tol)


def _pr_groups(stats, state_idents):
    """The grid oracle's (plus, minus) preparation pairs, for pr-shaped tables only."""
    if len(state_idents) != 1 or [len(o) for o in stats.outcomes] != [2, 2]:
        return None
    alpha = state_idents[0].coefficient_vector(stats.preparations)
    plus, minus = tuple(np.flatnonzero(alpha > 0)), tuple(np.flatnonzero(alpha < 0))
    if len(alpha) != 4 or len(plus) != 2 or len(minus) != 2 or np.ptp(np.abs(alpha)) > 1e-9:
        return None  # the grid takes one identity with coefficients +-c
    return plus, minus


def _assert_same_verdict(stats, state_idents, effect_idents, tol, name):
    """Both LPs agree; a refutation is violated and bounds every noncontextual table."""
    got = membership(stats, state_idents, effect_idents, tol)
    want = membership_full_rows(stats, state_idents, effect_idents, tol)
    assert got.feasible == want.feasible, name
    if got.feasible:
        return got
    ineq = got.inequality
    assert evaluate(ineq, stats).violated, name
    samples = random_noncontextual_models(
        stats, state_idents, _vertices(stats, effect_idents, tol), 8,
        seed=zlib.crc32(name.encode()),
    )
    for _, table in samples:
        assert evaluate(ineq, table).value <= ineq.bound + 1e-9, name
    groups = _pr_groups(stats, state_idents)
    structure = [(f"m{y}", list(o)) for y, o in enumerate(stats.outcomes)]
    if groups is not None and np.allclose(  # the grid's vertices: no effect cuts
        _vertices(stats, effect_idents, tol), response_vertices([], structure), atol=1e-12
    ):
        oracle = grid_bound_oracle(ineq.coefficients, stats.outcomes, groups)
        assert ineq.bound >= oracle - 1e-9, name
    return got


def test_row_space_membership_agrees_with_the_full_rows_on_the_random_suite():
    verdicts = set()
    for seed in range(200):
        fragment = random_fragment(seed)
        stats = predict(fragment)
        state_idents = find_identities(fragment, "states")
        effect_idents = find_identities(fragment, "effects")
        result = _assert_same_verdict(stats, state_idents, effect_idents, 1e-9, f"random-{seed}")
        verdicts.add(result.feasible)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "fragment",
    [scenario("pr"), *(regular_polygon(n) for n in range(4, 12)),
     composite("bit", "pr"), composite("pr", "bit")],
    ids=lambda f: f.name,
)
def test_row_space_membership_agrees_with_the_full_rows_on_the_sweep(fragment):
    stats, state_idents, effect_idents, tol = _sweep_input(fragment)
    result = _assert_same_verdict(stats, state_idents, effect_idents, tol, fragment.name)
    assert not result.feasible


def _mix(stats, other, t):
    return replace(stats, tables=[t * a + (1 - t) * b for a, b in zip(stats.tables, other.tables)])


@pytest.mark.parametrize("key", ["pr", "polygon-5", "polygon-6", "bit-pr"])
def test_row_space_membership_agrees_near_the_boundary(key):
    fragment = {
        "pr": scenario("pr"),
        "polygon-5": regular_polygon(5),
        "polygon-6": regular_polygon(6),
        "bit-pr": composite("bit", "pr"),
    }[key]
    stats, state_idents, effect_idents, tol = _sweep_input(fragment)
    verts = _vertices(stats, effect_idents, tol)
    for seed in (1, 2):
        # The mean of sampled noncontextual tables lies inside the
        # noncontextual set; bisect the segment to the infeasible table.
        samples = random_noncontextual_models(stats, state_idents, verts, 8, seed=seed)
        inside = replace(
            stats, tables=[np.mean(ts, axis=0) for ts in zip(*(t.tables for _, t in samples))]
        )
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if membership_full_rows(_mix(stats, inside, mid), state_idents, effect_idents, tol).feasible:
                lo = mid
            else:
                hi = mid
        for step in (1e-2, 1e-4, 1e-6):
            for t, feasible in ((lo - step, True), (hi + step, False)):
                if 0.0 <= t <= 1.0:
                    table = _mix(stats, inside, t)
                    name = f"{key}-{seed}-{t:.9f}"
                    got = _assert_same_verdict(table, state_idents, effect_idents, tol, name)
                    assert got.feasible is feasible, name


def test_a_table_broken_only_on_a_dropped_row_is_refuted_by_a_checked_certificate(monkeypatch):
    # The pentagon's response table has rank 3, so per preparation the LP
    # keeps the unit and two outcomes, and f2 is a combination of those:
    # a normalized table can break its row while every kept row holds.
    stats, state_idents, effect_idents, tol = _sweep_input(regular_polygon(5))
    verts = _vertices(stats, effect_idents, tol)
    echelon = rref(np.hstack([np.ones((len(verts), 1)), verts]))
    kept = set((np.argmax(echelon != 0.0, axis=1) - 1).tolist())
    y = next(y for y in range(len(stats.outcomes)) if 2 * y not in kept)  # f_y dropped
    samples = random_noncontextual_models(stats, state_idents, verts, 8, seed=5)
    inside = [np.mean(ts, axis=0) for ts in zip(*(t.tables for _, t in samples))]

    def broken(eps):
        tables = [t.copy() for t in inside]
        tables[y][0, 0] += eps
        tables[y][0] /= tables[y][0].sum()
        return replace(stats, tables=tables)

    checked, programs = [], []

    def spy(lp, cert):
        checked.append((lp, cert))
        return farkas_gap(lp, cert)

    def solve(lp):
        programs.append(lp)
        return real_solve(lp)

    real_solve = noncontextuality.solve
    monkeypatch.setattr(noncontextuality, "farkas_gap", spy)
    monkeypatch.setattr(noncontextuality, "solve", solve)
    table = broken(1e-3)
    result = membership(table, state_idents, effect_idents, tol)
    assert not result.feasible and not programs  # refuted without an LP
    assert evaluate(result.inequality, table).violated
    # The functional is constant on noncontextual tables: that constant,
    # normalized, is the bound, equal to the maximum over them.
    alphas = [ident.coefficient_vector(stats.preparations) for ident in state_idents]
    xi = np.split(verts, np.cumsum([len(o) for o in stats.outcomes])[:-1], axis=1)
    top = noncontextual_maximum_mu_polytope(alphas, xi, result.inequality.coefficients)
    assert abs(result.inequality.bound - top) <= 1e-12
    assert not membership_full_rows(table, state_idents, effect_idents, tol).feasible
    # The certificate covers preparation 0's rows (normalization, then every
    # outcome); on the full-row program every other multiplier is 0.
    ((rows, cert),) = checked
    full, alphas, _ = full_row_membership_lp(table, state_idents, effect_idents, tol)
    nx, n_out = len(stats.preparations), verts.shape[1]
    eq = np.zeros(len(full.b_eq))
    eq[0] = cert.eq[0]
    n_mu = nx + len(alphas) * len(verts)
    eq[n_mu : n_mu + n_out] = cert.eq[1:]
    resid, margin = farkas_gap(full, FarkasCertificate(eq=eq, ub=np.zeros(0)))
    assert resid <= 1e-12 and margin > 1e-8
    assert np.array_equal(rows.b_eq[1:], np.hstack(table.tables)[0])

    checked.clear()
    table = broken(1e-10)
    result = membership(table, state_idents, effect_idents, tol)
    assert result.feasible and not checked and len(programs) == 1
    assert membership_full_rows(table, state_idents, effect_idents, tol).feasible


def _order_cases():
    pr = build("boxworld-pr")
    yield "pr", pr.statistics, find_identities(pr.fragment, "states"), find_identities(
        pr.fragment, "effects"), 1e-9
    lab = build("lab-notebook", variant="A")
    yield "lab-notebook-A", lab.statistics, induced_marginal_identities(
        lab.fragment, "S"), find_identities(lab.fragment, "effects"), 1e-9
    for n in range(5, 9):
        yield (f"polygon-{n}", *_sweep_input(regular_polygon(n)))


ORDER_CASES = list(_order_cases())


@pytest.mark.parametrize("case", ORDER_CASES, ids=lambda c: c[0])
def test_membership_verdict_and_bound_ignore_outcome_and_measurement_order(case):
    name, stats, state_idents, effect_idents, tol = case
    want = membership(stats, state_idents, effect_idents, tol).feasible
    assert not want
    alphas = [ident.coefficient_vector(stats.preparations) for ident in state_idents]
    for seed in range(3):
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        order = rng.permutation(len(stats.measurements))
        flips = [rng.permutation(len(stats.outcomes[y])) for y in order]
        permuted = StatisticsTable(
            preparations=list(stats.preparations),
            measurements=[stats.measurements[y] for y in order],
            outcomes=[[stats.outcomes[y][b] for b in f] for y, f in zip(order, flips)],
            tables=[stats.tables[y][:, f] for y, f in zip(order, flips)],
        )
        result = membership(permuted, state_idents, effect_idents, tol)
        assert result.feasible == want, (name, seed)
        ineq = result.inequality
        assert evaluate(ineq, permuted).violated, (name, seed)
        verts = _vertices(permuted, effect_idents, tol)
        xi = np.split(verts, np.cumsum([len(o) for o in permuted.outcomes])[:-1], axis=1)
        assert ineq.bound == pytest.approx(
            noncontextual_maximum_mu_polytope(alphas, xi, ineq.coefficients), abs=1e-9
        ), (name, seed)


@pytest.mark.parametrize("case", ORDER_CASES[:2], ids=lambda c: c[0])
def test_pr_and_lab_notebook_inequalities_keep_bound_three_quarters(case):
    _, stats, state_idents, effect_idents, tol = case
    ineq = membership(stats, state_idents, effect_idents, tol).inequality
    check = evaluate(ineq, stats)
    assert check.bound == pytest.approx(0.75, abs=1e-12)
    assert check.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [9, 10, 11])
def test_membership_lp_keeps_only_the_row_space_rows(n, monkeypatch):
    programs = []
    solve = noncontextuality.solve

    def spy(lp):
        programs.append(lp)
        return solve(lp)

    monkeypatch.setattr(noncontextuality, "solve", spy)
    stats, state_idents, effect_idents, tol = _sweep_input(regular_polygon(n))
    membership(stats, state_idents, effect_idents, tol)
    (lp,) = programs  # membership solves one LP
    rows = len(lp.b_eq) + len(lp.b_ub)
    verts = _vertices(stats, effect_idents, tol)
    nx, (nv, n_out) = len(stats.preparations), verts.shape
    assert rows <= nx * matrix_rank(verts) + len(state_idents) * nv + nx
    assert rows < nx + len(state_idents) * nv + nx * n_out  # the full-row count
    if n == 11:
        assert rows <= 132  # 341 with every statistics row

