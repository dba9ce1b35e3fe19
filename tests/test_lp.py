import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import solve_full_tableau
from scipy.optimize import linprog

from classicality import embedding, noncontextuality, scenarios, secondary
from classicality.embedding import (
    accessibilize,
    accessible_identities,
    robustness,
    test_embeddability,
)
from classicality.errors import FormatError, NumericalError, ResourceLimitError
from classicality.fragments import predict, tensor
from classicality.identities import OperationalIdentity, find_identities
from classicality.lp import (
    MAX_LP_CELLS,
    FarkasCertificate,
    LinearProgram,
    LpSolution,
    check_lp_size,
    farkas_gap,
    solve,
)
from classicality.models import verify_model
from classicality.noncontextuality import evaluate, membership
from perfbench.inputs import SCENARIOS, composite, noisy_copy, regular_polygon, scenario

REPO = Path(__file__).resolve().parents[1]


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
        a_ub=np.eye(2),
        b_ub=[1.0, 1.0],
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
    # One variable under r rows fills r x (1 + r + 1) cells: 4,095 rows make
    # 2**24 - 1 of them, 4,096 rows 2**24 + 8,192.  A program without rows
    # counts as one row, so a wide one is refused before anything is built.
    LinearProgram(n_vars=1, a_eq=np.ones((4095, 1)), b_eq=np.ones(4095))
    with pytest.raises(ResourceLimitError):
        LinearProgram(n_vars=1, a_eq=np.ones((4096, 1)), b_eq=np.ones(4096))
    with pytest.raises(ResourceLimitError):
        LinearProgram(n_vars=MAX_LP_CELLS)
    # Each shape fills exactly MAX_LP_CELLS cells: a row spans n_vars
    # structural, n_ub slack, one artificial and one rhs column.
    shapes = [
        (MAX_LP_CELLS - 2, 1, 0),
        (MAX_LP_CELLS - 3, 0, 1),
        (6143, 2048, 0),
        (MAX_LP_CELLS - 1, 0, 0),
    ]
    for n_vars, n_eq, n_ub in shapes:
        check_lp_size(n_vars, n_eq, n_ub)
        one_more = MAX_LP_CELLS + max(n_eq + n_ub, 1)  # each row gains one column
        with pytest.raises(ResourceLimitError, match=f"LP tableau of {one_more} cells"):
            check_lp_size(n_vars + 1, n_eq, n_ub)


def test_shape_validation():
    with pytest.raises(FormatError):
        LinearProgram(n_vars=2, a_eq=[[1.0]], b_eq=[1.0])
    # Right-hand sides without rows would silently drop their constraints.
    with pytest.raises(FormatError):
        LinearProgram(n_vars=2, a_eq=[], b_eq=[1.0, 2.0])
    with pytest.raises(FormatError):
        LinearProgram(n_vars=2, b_ub=[1.0])
    lp = LinearProgram(n_vars=2, a_eq=np.zeros((0, 2)), b_eq=[], a_ub=None, b_ub=None)
    assert lp.a_eq.shape == (0, 2) and lp.b_ub.shape == (0,)


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
    # The box x <= 10 as rows after the others.
    return LinearProgram(
        n_vars=n, objective=c, sense="min", a_eq=a_eq, b_eq=b_eq,
        a_ub=np.vstack([a_ub, np.eye(n)]), b_ub=np.concatenate([b_ub, np.full(n, 10.0)]),
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
        bounds=(0, None),
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
    lp = LinearProgram(
        n_vars=n,
        a_ub=np.vstack([a_ub, np.eye(n)]),  # x' <= 20 as rows
        b_ub=np.concatenate([b_ub, np.full(n, 20.0)]),
    )
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


def _assert_same_solution(lp):
    """The narrow tableau takes the full tableau's pivots to the same bits."""
    got, want = solve(lp), solve_full_tableau(lp)
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert pickle.dumps(got) == pickle.dumps(want)  # x, objective and Farkas bits
    return got


def _mixed_lp(seed):
    """A seeded program with redundant ``=`` rows, ``<=`` rows with negative
    right-hand sides and a mix of boxed and free-above variables, the
    boxes stated as ``<=`` rows after the others; every third one is made
    infeasible by contradicting ``<=`` rows.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    m_eq, m_ub = int(rng.integers(1, 4)), int(rng.integers(2, 8))
    x_feas = rng.uniform(0.0, 1.0, size=n)
    a_eq = rng.normal(size=(m_eq, n))
    a_eq = np.vstack([a_eq, a_eq[0] - 2.0 * a_eq[-1]])  # a redundant row
    a_ub = rng.normal(size=(m_ub, n))
    a_ub[0] = -np.abs(a_ub[0])
    b_ub = a_ub @ x_feas + rng.uniform(0.0, 0.5, size=m_ub)
    b_ub[0] = 0.5 * float(a_ub[0] @ x_feas)  # negative, and x_feas meets it
    if seed % 3 == 0:
        w = rng.normal(size=n)
        a_ub = np.vstack([a_ub, w, -w])
        b_ub = np.concatenate([b_ub, [float(w @ x_feas) - 0.5, -float(w @ x_feas) - 0.5]])
    boxed = np.flatnonzero(rng.uniform(size=n) < 0.5)
    return LinearProgram(
        n_vars=n, objective=rng.normal(size=n), sense=("min", "max")[seed % 2],
        a_eq=a_eq, b_eq=a_eq @ x_feas,
        a_ub=np.vstack([a_ub, np.eye(n)[boxed]]),
        b_ub=np.concatenate([b_ub, np.full(len(boxed), 2.0)]),
    )


def test_narrow_tableau_takes_the_full_tableaus_pivots_on_random_programs():
    statuses = [_assert_same_solution(_mixed_lp(seed)).status for seed in range(90)]
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    for seed in range(30):
        _assert_same_solution(_random_lp(seed))


def test_optimal_duals_are_dual_feasible_and_price_the_objective():
    # Redundant rows, rows with b < 0 and the max sense each change how the
    # final basis's multipliers map back onto the program's rows.
    programs = [_random_lp(seed) for seed in range(30)] + [_mixed_lp(seed) for seed in range(90)]
    optimal = 0
    for lp in programs:
        sol = solve(lp)
        if sol.status != "optimal":
            assert sol.duals is None
            continue
        optimal += 1
        sign = 1.0 if lp.sense == "min" else -1.0
        y_eq, y_ub = np.split(sol.duals, [len(lp.b_eq)])
        reduced = lp.objective - y_eq @ lp.a_eq - y_ub @ lp.a_ub
        assert np.min(sign * reduced) >= -1e-9
        assert np.max(sign * y_ub, initial=0.0) <= 1e-12
        assert y_eq @ lp.b_eq + y_ub @ lp.b_ub == pytest.approx(sol.objective_value, abs=1e-9)
    assert optimal >= 60


def _near_degenerate_lp(seed):
    """A seeded program over small integer rows whose right-hand sides are
    off by a few 1e-8: inconsistent within about the rhs perturbation, so
    the perturbed optimum can leave basic values below zero at the true b.
    """
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 7))
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    b = a @ rng.integers(0, 2, size=n) + 1e-8 * rng.integers(-1, 4, size=m)
    n_eq = int(rng.integers(0, m))
    return LinearProgram(
        n_vars=n, objective=rng.integers(-2, 3, size=n).astype(float),
        a_eq=a[:n_eq], b_eq=b[:n_eq],
        a_ub=np.vstack([a[n_eq:], np.eye(n)]), b_ub=np.concatenate([b[n_eq:], np.full(n, 2.0)]),
    )


def test_narrow_tableau_takes_the_full_tableaus_dual_clean_up_pivots(monkeypatch, capsys):
    monkeypatch.setenv("CLASSICALITY_LP_LOG", "1")
    statuses = set()
    for seed in range(200):
        lp = _near_degenerate_lp(seed)
        try:
            statuses.add(_assert_same_solution(lp).status)
        except NumericalError as exc:  # the violation check refused the same bits
            assert "violates constraints" in str(exc)
            want = solve_full_tableau(lp)
            assert want.status == "optimal" and want.max_violation > 1e-8
    assert statuses == {"optimal", "infeasible"}
    assert "lp phase 2 dual" in capsys.readouterr().err


def _fragment(name, **params):
    return scenarios.build(name, **params).fragment


def test_narrow_tableau_takes_the_full_tableaus_pivots_on_scenario_programs(monkeypatch):
    programs = []

    def record(lp):
        programs.append(lp)
        return solve(lp)

    monkeypatch.setattr(embedding, "solve", record)
    monkeypatch.setattr(noncontextuality, "solve", record)
    monkeypatch.setattr(secondary, "solve", record)
    bit, pr = _fragment("simplex-d", d=2), _fragment("boxworld-pr")
    fragments = [
        pr,
        _fragment("boxworld-classical-mediary"),
        _fragment("lab-notebook", variant="A"),
        _fragment("lab-notebook", variant="B"),
        _fragment("qubit-stabilizer"),
        bit,
        _fragment("simplex-d", d=3),
        tensor(bit, pr),
        tensor(pr, bit),
    ]
    for fragment in fragments:
        af = accessibilize(fragment, 1e-9)
        embeddable = test_embeddability(af).embeddable
        robustness(af)
        if not embeddable:  # the membership LP that ``embed`` solves
            state_idents, effect_idents = accessible_identities(af)
            membership(predict(fragment), state_idents, effect_idents, af.tol)
        # The mixing LPs, whose c <= 1 bounds are ``<=`` rows.
        states = [(s.label, s.vector) for s in fragment.states]
        effects = [(e.label, e.vector) for e in fragment.effects]
        secondary.secondary_states(states, find_identities(fragment, "states"))
        secondary.secondary_effects(
            effects, fragment.unit_effect, find_identities(fragment, "effects")
        )
    # No mixture of the square's states meets an identity whose
    # coefficients do not sum to zero: an infeasible mixing LP.
    (square,) = find_identities(pr, "states")
    skewed = [(lab, 3.0 if lab == "s1|0" else c) for lab, c in square.terms]
    states = [(s.label, s.vector) for s in pr.states]
    bad = secondary.secondary_states(states, [OperationalIdentity("states", skewed)])
    assert not bad.feasible and bad.farkas_margin > 0
    # Per fragment: the one decomposition LP and at least two mixing LPs.
    assert len(programs) >= 3 * len(fragments) + 1
    statuses = {_assert_same_solution(lp).status for lp in programs}
    assert statuses == {"optimal", "infeasible"}


_NINE_GON_MEMBERSHIP = """
from classicality.embedding import accessibilize, accessible_identities
from classicality.fragments import predict
from classicality.lp import solve
from oracles import full_row_membership_lp
from perfbench.inputs import regular_polygon

fragment = regular_polygon(9)
af = accessibilize(fragment, 1e-9)
state_idents, effect_idents = accessible_identities(af)
lp, _, _ = full_row_membership_lp(predict(fragment), state_idents, effect_idents, af.tol)
solution = solve(lp)
print(solution.status, solution.iterations)
"""


def _nine_gon_membership_pivots(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), str(REPO), str(REPO / "tests"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NINE_GON_MEMBERSHIP],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_a_basic_column_never_reenters_whatever_the_blas_thread_count():
    # Recomputed, the reduced costs of basic columns are rounding noise that
    # depends on the BLAS thread count; below -1e-11 it let the column just
    # pivoted in re-enter.  Refresh sets them to 0.0, so the pivot path of
    # this infeasible membership LP with every statistics row (225 rows over
    # 81 weights) no longer depends on the threads.
    one, two = _nine_gon_membership_pivots(1), _nine_gon_membership_pivots(2)
    assert one[0] == "infeasible"
    assert one == two


# Inputs on which the simplex once stalled at the pivot cap, failed its
# Farkas check or hit a singular basis; each now ends in a checked
# certificate.
def _analysis(fragment):
    af = accessibilize(fragment, 1e-9)
    emb, rob = test_embeddability(af), robustness(af)
    if emb.embeddable:
        model = embedding.to_model(emb.certificate, af)
        assert verify_model(model, predict(fragment)).passed
    else:  # <Y, d h^T> >= 0 on every ray pair, and trace Y < 0
        y = emb.farkas_matrix
        pairs = np.einsum("ab,ja,ib->ij", y, af.d_rays, af.h_rays)
        assert np.min(pairs) >= -1e-9 and np.trace(y) < -1e-9
    return emb.embeddable, rob.r_star


@pytest.mark.parametrize("a, b", [("stab", "bit"), ("tri", "pr"), ("pr", "pr")])
def test_composites_in_both_factor_orders(a, b):
    truth = SCENARIOS[a][3] and SCENARIOS[b][3]
    (verdict, r_star), (verdict_ba, r_star_ba) = (
        _analysis(composite(a, b)), _analysis(composite(b, a))
    )
    assert verdict is verdict_ba is truth
    assert r_star == pytest.approx(r_star_ba, abs=1e-7)
    assert (r_star <= 1e-9) is truth


def test_permuted_composite_keeps_its_verdict_and_robustness():
    fragment = composite("bit", "labB")
    rng = np.random.default_rng(1)
    permuted = replace(
        fragment,
        states=[fragment.states[i] for i in rng.permutation(len(fragment.states))],
        effects=[fragment.effects[i] for i in rng.permutation(len(fragment.effects))],
    )
    verdict, r_star = _analysis(fragment)
    assert _analysis(permuted) == (verdict, pytest.approx(r_star, abs=1e-7))


def test_twelve_gon_membership_is_refuted_by_a_checked_inequality():
    fragment = regular_polygon(12)
    af = accessibilize(fragment, 1e-9)
    state_idents, effect_idents = accessible_identities(af)
    stats = predict(fragment)
    result = membership(stats, state_idents, effect_idents, af.tol)
    assert not result.feasible
    assert evaluate(result.inequality, stats).violated


def test_secondary_states_of_a_noisy_stabilizer_copy():
    noisy = noisy_copy(scenario("stab"), 2, "stab")
    targets = find_identities(scenario("stab"), "states")
    sol = secondary.secondary_states([(s.label, s.vector) for s in noisy.states], targets)
    assert sol.feasible
    assert np.min(sol.weights) >= -1e-9
    assert np.allclose(sol.weights.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(sol.weights @ noisy.state_matrix(), sol.secondaries, atol=1e-9)
    assert max(sol.residuals) <= 1e-8
