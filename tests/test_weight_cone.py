"""Membership and its bound over the extreme rays of the weight cone.

The state identities hold vertex by vertex, so each vertex's preparation
weights lie in C = {z >= 0 : alpha . z = 0 for every identity alpha}.
``membership`` works over C's extreme rays, unless C has too many of
them; then it keeps one identity row per (identity, vertex), as the
references in ``oracles`` always do.
"""

import json

import numpy as np
import pytest

from classicality import noncontextuality, serialize
from classicality.cli import main
from classicality.errors import ResourceLimitError
from classicality.embedding import accessibilize, accessible_identities
from classicality.fragments import StatisticsTable, predict
from classicality.identities import OperationalIdentity
from classicality.noncontextuality import (
    _weight_cone,
    membership,
    response_vertices,
)
from oracles import _mu_polytope, membership_full_rows, noncontextual_maximum_mu_polytope
from perfbench.inputs import SCENARIOS, composite, regular_polygon, scenario

FRAGMENTS = [
    *(scenario(key) for key in SCENARIOS),
    *(regular_polygon(n) for n in range(4, 12)),
    composite("bit", "pr"),
    composite("pr", "bit"),
]


def _sweep_input(fragment):
    """(statistics, state identities, effect identities, tol) as ``embed`` passes them."""
    af = accessibilize(fragment, 1e-9)
    state_idents, effect_idents = accessible_identities(af)
    return predict(fragment), state_idents, effect_idents, af.tol


def _xi(stats, effect_idents, tol):
    verts = response_vertices(effect_idents, list(zip(stats.measurements, stats.outcomes)), tol)
    return np.split(verts, np.cumsum([len(o) for o in stats.outcomes])[:-1], axis=1)


@pytest.mark.parametrize("fragment", FRAGMENTS, ids=lambda f: f.name)
def test_membership_bound_matches_the_mu_polytope_lp(fragment):
    stats, state_idents, effect_idents, tol = _sweep_input(fragment)
    result = membership(stats, state_idents, effect_idents, tol)
    want = membership_full_rows(stats, state_idents, effect_idents, tol)
    assert result.feasible is want.feasible
    if not result.feasible:
        ineq = result.inequality
        alphas = [ident.coefficient_vector(stats.preparations) for ident in state_idents]
        top = noncontextual_maximum_mu_polytope(alphas, _xi(stats, effect_idents, tol),
                                                ineq.coefficients)
        assert abs(ineq.bound - top) <= 1e-9, fragment.name
        assert ineq.value(stats) > ineq.bound + 1e-6, fragment.name


def test_weight_rays_of_the_pr_identity_are_the_opposite_sign_pairs():
    stats, state_idents, _, tol = _sweep_input(scenario("pr"))
    (alpha,) = [ident.coefficient_vector(stats.preparations) for ident in state_idents]
    rays, left = _weight_cone([alpha], len(alpha), tol, 4)
    assert left.shape == (0, 4)
    assert np.all(rays >= 0.0) and np.allclose(rays.sum(axis=1), 1.0, atol=1e-15)
    assert np.max(np.abs(rays @ alpha)) <= 1e-12
    pairs = {tuple(np.flatnonzero(r > 1e-9).tolist()) for r in rays}
    plus, minus = np.flatnonzero(alpha > 0), np.flatnonzero(alpha < 0)
    assert pairs == {tuple(sorted((int(a), int(b)))) for a in plus for b in minus}


def test_no_identities_give_the_unit_rays_and_the_mu_lp_without_a_double_description(
    monkeypatch,
):
    programs = []
    real_solve = noncontextuality.solve

    def solve(lp):
        programs.append(lp)
        return real_solve(lp)

    cones_enumerated = []
    real_h_rep = noncontextuality.h_rep_extreme_rays

    def h_rep(*args):
        cones_enumerated.append(args)
        return real_h_rep(*args)

    stats, _, effect_idents, tol = _sweep_input(scenario("pr"))
    xi_all = np.hstack(_xi(stats, effect_idents, tol))
    monkeypatch.setattr(noncontextuality, "solve", solve)
    monkeypatch.setattr(noncontextuality, "h_rep_extreme_rays", h_rep)
    rays, left = _weight_cone([], 4, tol, 0)
    assert np.array_equal(rays, np.eye(4)) and left.shape == (0, 4)
    membership(stats, [], effect_idents, tol)
    assert len(cones_enumerated) == 1  # the response polytope's only
    # The mu-polytope LP's rows and columns, with no identity rows.
    nx, (nv, _) = len(stats.preparations), xi_all.shape
    echelon = noncontextuality.rref(np.hstack([np.ones((nv, 1)), xi_all]), tol)
    kept = np.argmax(echelon != 0.0, axis=1)[1:] - 1
    a_stat = np.zeros((nx * len(kept), nx * nv))
    for x in range(nx):
        a_stat[x * len(kept) : (x + 1) * len(kept), x * nv : (x + 1) * nv] = xi_all[:, kept].T
    want = np.vstack([_mu_polytope(nx, nv, [])[0], a_stat])
    assert programs[0].a_eq[:, :-1].tobytes() == want.tobytes()  # then the column of r


def test_regular_11_gon_lps_have_one_row_per_preparation_and_kept_outcome(monkeypatch):
    programs = []
    real_solve = noncontextuality.solve

    def solve(lp):
        programs.append(lp)
        return real_solve(lp)

    monkeypatch.setattr(noncontextuality, "solve", solve)
    stats, state_idents, effect_idents, tol = _sweep_input(regular_polygon(11))
    assert not membership(stats, state_idents, effect_idents, tol).feasible
    (member,) = programs
    assert len(member.b_eq) + len(member.b_ub) <= 33


def _alternating_input(tmp_path, nx, shift):
    """nx preparations, one binary measurement and one identity with
    coefficients +1 and -1 in turn, whose weight cone has (nx / 2)^2
    extreme rays.  The table obeys the identity, except for ``shift`` added
    to one entry."""
    preps = [f"x{i}" for i in range(nx)]
    ident = OperationalIdentity("states", [(p, (-1.0) ** i) for i, p in enumerate(preps)])
    alpha = ident.coefficient_vector(preps)
    q = np.random.default_rng(0).uniform(0.2, 0.8, size=nx)
    q -= alpha * (alpha @ q) / nx
    q[0] += shift
    stats = StatisticsTable(
        preparations=preps,
        measurements=["m"],
        outcomes=[["a", "b"]],
        tables=[np.stack([q, 1.0 - q], axis=1)],
    )
    stats_path, ident_path = tmp_path / f"stats-{shift}.json", tmp_path / "ident.json"
    stats_path.write_text(json.dumps(serialize.statistics_to_obj(stats)))
    ident_path.write_text(json.dumps(serialize.identities_to_obj([ident])))
    return stats, ident, stats_path, ident_path


def _spy(monkeypatch, name):
    """Record the arguments of every call to ``noncontextuality.<name>``."""
    calls = []
    real = getattr(noncontextuality, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(noncontextuality, name, spy)
    return calls


@pytest.mark.parametrize("shift", [0.0, 0.01])
@pytest.mark.parametrize("nx", [100, 130])
def test_a_wide_weight_cone_keeps_the_identity_rows_without_a_double_description(
    tmp_path, monkeypatch, nx, shift
):
    # The weight cone has dimension nx - 1, over MAX_CONE_DIM, and 2,500 or
    # 4,225 rays: the LP keeps the weights mu_x(v) of the 2 vertices, with
    # 2 identity rows, and no double description runs on the cone.
    stats, ident, stats_path, ident_path = _alternating_input(tmp_path, nx, shift)
    programs = _spy(monkeypatch, "solve")
    cones_enumerated = _spy(monkeypatch, "h_rep_extreme_rays")
    out = tmp_path / "mem.json"
    code = main(["membership", str(stats_path), "--identities", str(ident_path), "-o", str(out)])
    assert code == 0
    assert len(cones_enumerated) == 1  # the response polytope's only
    ((lp,),) = programs
    assert lp.a_eq.shape == (nx + 2 + nx, nx * 2 + 1)
    report = json.loads(out.read_text())
    assert report["feasible"] is (shift == 0.0)
    assert report["feasible"] is membership_full_rows(stats, [ident]).feasible
    if not report["feasible"]:
        ineq = serialize.inequality_from_obj(report["inequality"])
        want = noncontextual_maximum_mu_polytope([ident.coefficient_vector(stats.preparations)],
                                                 [np.eye(2)], ineq.coefficients)
        assert abs(ineq.bound - want) <= 1e-9
        assert ineq.value(stats) > ineq.bound + 1e-6


@pytest.mark.parametrize("shift", [0.0, 0.01])
def test_a_weight_cone_with_more_rays_than_the_identity_rows_pay_for_keeps_them(
    tmp_path, monkeypatch, shift
):
    # 16 preparations: the cone has dimension 15 and 64 rays, so the ray
    # LP's 32 rows x 128 columns outsize the identity-row LP's 34 x 32.
    stats, ident, *_ = _alternating_input(tmp_path, 16, shift)
    programs = _spy(monkeypatch, "solve")
    cones_enumerated = _spy(monkeypatch, "h_rep_extreme_rays")
    result = membership(stats, [ident])
    assert len(cones_enumerated) == 2
    ((lp,),) = programs
    assert lp.a_eq.shape == (34, 33)
    assert result.feasible is (shift == 0.0)
    assert result.feasible is membership_full_rows(stats, [ident]).feasible
    if not result.feasible:
        ineq = result.inequality
        xi = _xi(stats, [], 1e-9)
        (alpha,) = [ident.coefficient_vector(stats.preparations)]
        want = noncontextual_maximum_mu_polytope([alpha], xi, ineq.coefficients)
        assert abs(ineq.bound - want) <= 1e-9
        assert ineq.value(stats) > ineq.bound + 1e-6


def test_a_weight_cone_over_the_double_description_limits_keeps_the_identity_rows(
    monkeypatch,
):
    stats, state_idents, effect_idents, tol = _sweep_input(scenario("pr"))
    real_h_rep = noncontextuality.h_rep_extreme_rays
    calls = []

    def h_rep(*args):
        calls.append(args)
        if len(calls) == 2:  # the weight cone's, after the response polytope's
            raise ResourceLimitError("double description over its limit")
        return real_h_rep(*args)

    monkeypatch.setattr(noncontextuality, "h_rep_extreme_rays", h_rep)
    programs = _spy(monkeypatch, "solve")
    result = membership(stats, state_idents, effect_idents, tol)
    assert not result.feasible and len(calls) == 2
    nx, nv = len(stats.preparations), len(_xi(stats, effect_idents, tol)[0])
    ((member,),) = programs
    assert member.a_eq.shape[1] == nx * nv + 1
    assert abs(result.inequality.bound - 0.75) <= 1e-12


def test_identities_apart_by_their_rounding_keep_the_uniform_weights():
    # The two identities sum to 0 within 1e-8, and with a singular value
    # ratio above tol their coefficient matrix has full rank: without the
    # all-ones direction the weight cone would be {0}.
    stats = StatisticsTable(["x0", "x1"], ["m"], [["a", "b"]], [np.full((2, 2), 0.5)])
    idents = [
        OperationalIdentity("states", [("x0", 1.0), ("x1", -1.0)]),
        OperationalIdentity("states", [("x0", 1.0), ("x1", -1.0 + 8e-9)]),
    ]
    alphas = [ident.coefficient_vector(stats.preparations) for ident in idents]
    assert np.linalg.matrix_rank(np.array(alphas), tol=1e-9 * 2) == 2
    rays, _ = _weight_cone(alphas, 2, 1e-9, 2)
    assert np.allclose(rays, [[0.5, 0.5]], atol=1e-15)
    assert membership(stats, idents).feasible
    assert membership_full_rows(stats, idents).feasible


def test_a_program_too_large_for_any_ray_count_is_refused_before_the_double_description(
    monkeypatch,
):
    # 2,100 preparations of one binary measurement give 4,200 rows, over
    # the tableau bound with even one ray; the weight cone would live in
    # 2,099 dimensions.
    nx = 2100
    stats = StatisticsTable(
        [f"x{i}" for i in range(nx)], ["m"], [["a", "b"]], [np.full((nx, 2), 0.5)]
    )
    ident = OperationalIdentity("states", [("x0", 1.0), ("x1", -1.0)])

    def weight_cone(*args):
        raise AssertionError("weight cone enumerated before the size check")

    monkeypatch.setattr(noncontextuality, "_weight_cone", weight_cone)
    with pytest.raises(ResourceLimitError, match="LP tableau"):
        membership(stats, [ident])


def test_pr_membership_solves_one_lp(monkeypatch):
    # The inequality and its tight bound come from the min-r LP's duals, with
    # no second LP to tighten the bound; the 11-gon and wide-cone tests above
    # pin the same single program.
    programs = _spy(monkeypatch, "solve")
    assert not membership(*_sweep_input(scenario("pr"))).feasible
    assert len(programs) == 1
