import numpy as np
import pytest

from classicality.errors import FormatError, ResourceLimitError
from classicality.fragments import StatisticsTable
from classicality.identities import OperationalIdentity, find_identities
from classicality.models import OntologicalModel, verify_model
from classicality.noncontextuality import (
    NoncontextualityInequality,
    evaluate,
    membership,
    noncontextual_maximum,
    response_vertices,
)
from classicality.scenarios import build


def two_binary_structure():
    return [("m0", ["e0|0", "e1|0"]), ("m1", ["e0|1", "e1|1"])]


def test_two_binary_measurements_give_four_deterministic_vertices():
    verts = response_vertices([], two_binary_structure())
    assert len(verts) == 4
    vals = sorted(tuple(np.round(v, 9)) for v in verts)
    assert vals == [
        (0.0, 1.0, 0.0, 1.0),
        (0.0, 1.0, 1.0, 0.0),
        (1.0, 0.0, 0.0, 1.0),
        (1.0, 0.0, 1.0, 0.0),
    ]


def test_half_unit_identity_collapses_to_single_vertex():
    ident = OperationalIdentity("effects", [("e0", 1.0), ("unit", -0.5)])
    verts = response_vertices([ident], [("m", ["e0", "e1"])])
    assert len(verts) == 1
    assert np.allclose(verts[0], [0.5, 0.5], atol=1e-9)


def test_pr_bob_measurements_vertices():
    pr = build("boxworld-pr").fragment
    eids = find_identities(pr, "effects")
    verts = response_vertices(eids, [(m.label, list(m.effects)) for m in pr.measurements])
    assert len(verts) == 4
    assert [o for m in pr.measurements for o in m.effects][:2] == ["e0|0", "e1|0"]
    for v in verts:
        assert v[0] + v[1] == pytest.approx(1.0)
        assert set(np.round(v, 9)) <= {0.0, 1.0}


def test_shared_effect_across_measurements_is_tied():
    # The same outcome effect appearing in two measurements forces equal
    # response values, squeezing the vertex set.
    structure = [("m0", ["shared", "a"]), ("m1", ["shared", "b"])]
    verts = response_vertices([], structure)
    assert verts.shape == (2, 4)
    assert np.array_equal(verts[:, 0], verts[:, 2])  # the two "shared" slots
    assert np.allclose(verts[:, 1], verts[:, 3])  # a = 1 - shared = b


def test_zero_term_leaves_vertices_unchanged():
    pr = build("boxworld-pr").fragment
    eids = find_identities(pr, "effects")
    with_zero = [
        OperationalIdentity("effects", ident.terms + [("zero", 0.7)]) for ident in eids
    ]
    structure = [(m.label, list(m.effects)) for m in pr.measurements]
    plain = response_vertices(eids, structure)
    padded = response_vertices(with_zero, structure)
    assert np.array_equal(padded, plain)


def one_measurement_model():
    return OntologicalModel(
        ontic_labels=["l0", "l1"],
        preparations=["p"],
        measurements=["m"],
        outcomes=[["e0", "e1"]],
        mu=np.array([[0.5, 0.5]]),
        xi=[np.array([[1.0, 0.0], [0.0, 1.0]])],
    )


def test_verify_model_counts_zero_term_as_zero_response():
    model = one_measurement_model()
    holds = OperationalIdentity(
        "effects", [("e0", 1.0), ("e1", 1.0), ("unit", -1.0), ("zero", 0.5)]
    )
    check = verify_model(model, effect_identities=[holds])
    assert check.passed and check.worst["effect identities"] == 0.0
    fails = OperationalIdentity("effects", [("e0", 1.0), ("zero", -1.0)])
    assert verify_model(model, effect_identities=[fails]).worst["effect identities"] == 1.0


def test_verify_model_rejects_unmeasured_effect_label():
    ident = OperationalIdentity("effects", [("e0", 1.0), ("e2", -1.0)])
    with pytest.raises(FormatError):
        verify_model(one_measurement_model(), effect_identities=[ident])


def test_vertex_size_limit():
    big = [(f"m{i}", [f"e{i}b", f"e{i}c"]) for i in range(13)]
    with pytest.raises(ResourceLimitError):
        response_vertices([], big)


def test_inconsistent_identities_rejected():
    ident = OperationalIdentity("effects", [("e0", 1.0), ("unit", -2.0)])  # xi = 2
    with pytest.raises(FormatError):
        response_vertices([ident], [("m", ["e0", "e1"])])


def test_identities_that_leave_the_box_empty_rejected():
    # Consistent with normalization, but e0|0 = e0|1 + 2 has no point in [0, 1].
    ident = OperationalIdentity("effects", [("e0|0", 1.0), ("e0|1", -1.0), ("unit", -2.0)])
    with pytest.raises(FormatError, match="response polytope is empty"):
        response_vertices([ident], two_binary_structure())


def test_pr_membership_infeasible_and_inequality_tight():
    bundle = build("boxworld-pr")
    idents = find_identities(bundle.fragment, "states")
    eidents = find_identities(bundle.fragment, "effects")
    result = membership(bundle.statistics, idents, eidents)
    assert not result.feasible
    ineq = result.inequality
    check = evaluate(ineq, bundle.statistics)
    assert check.violated
    assert check.value == pytest.approx(1.0, abs=1e-9)
    assert ineq.bound == pytest.approx(0.75, abs=1e-9)


def test_membership_rejects_effect_side_state_identities():
    bundle = build("boxworld-pr")
    (ident,) = find_identities(bundle.fragment, "states")
    # Its labels are preparation labels, so only the side check can catch it.
    relabelled = OperationalIdentity("effects", ident.terms)
    with pytest.raises(FormatError, match="side 'states'"):
        membership(bundle.statistics, [relabelled])


def test_membership_rejects_state_identities_inconsistent_with_normalization():
    # The unit effect turns a state identity into sum(alpha) = 0; with 3 in
    # place of 1 the sum is 2, so no table of any kind meets it.
    bundle = build("boxworld-pr")
    (ident,) = find_identities(bundle.fragment, "states")
    skewed = [(lab, 3.0 if lab == "s1|0" else c) for lab, c in ident.terms]
    with pytest.raises(FormatError, match="inconsistent with normalization"):
        membership(bundle.statistics, [OperationalIdentity("states", skewed)])


def test_inequality_rejects_non_finite_numbers():
    stats = build("boxworld-pr").statistics
    header = (stats.preparations, stats.measurements, stats.outcomes)
    finite = [np.zeros_like(t) for t in stats.tables]
    with pytest.raises(FormatError, match="must be finite"):
        NoncontextualityInequality(*header, coefficients=finite, bound=float("inf"))
    finite[1][0, 0] = float("nan")
    with pytest.raises(FormatError, match="must be finite"):
        NoncontextualityInequality(*header, coefficients=finite, bound=0.5)


def test_pr_inequality_bound_matches_grid_oracle():
    from oracles import grid_bound_oracle

    bundle = build("boxworld-pr")
    idents = find_identities(bundle.fragment, "states")
    result = membership(bundle.statistics, idents)
    ineq = result.inequality
    oracle = grid_bound_oracle(
        ineq.coefficients, bundle.statistics.outcomes, ((0, 1), (2, 3))
    )
    assert oracle == pytest.approx(ineq.bound, abs=1e-9)


def test_classical_mediary_membership_feasible():
    bundle = build("boxworld-classical-mediary")
    eidents = find_identities(bundle.fragment, "effects")
    result = membership(bundle.statistics, [], eidents)
    assert result.feasible
    assert verify_model(result.model, bundle.statistics).passed


def test_ontic_labels_name_rows_of_the_response_table():
    bundle = build("qubit-stabilizer")
    stats = bundle.statistics
    eidents = find_identities(bundle.fragment, "effects")
    result = membership(stats, find_identities(bundle.fragment, "states"), eidents)
    assert result.feasible
    model = result.model
    table = response_vertices(eidents, list(zip(stats.measurements, stats.outcomes)))
    support = [int(label[1:]) for label in model.ontic_labels]
    assert support != list(range(len(support)))  # the support skips rows
    rows = table[support]
    splits = np.cumsum([len(o) for o in stats.outcomes])[:-1]
    for y, xi_y in enumerate(np.split(rows, splits, axis=1)):
        assert np.array_equal(model.xi[y], xi_y.T)


def test_unconstrained_membership_always_feasible():
    rng = np.random.default_rng(3)
    p0 = rng.dirichlet(np.ones(2), size=3)
    p1 = rng.dirichlet(np.ones(2), size=3)
    stats = StatisticsTable(
        preparations=["a", "b", "c"],
        measurements=["m0", "m1"],
        outcomes=[["e0|0", "e1|0"], ["e0|1", "e1|1"]],
        tables=[p0, p1],
    )
    result = membership(stats, [])
    assert result.feasible
    assert verify_model(result.model, stats).passed


def test_pr_inequality_on_uniform_stats():
    bundle = build("boxworld-pr")
    idents = find_identities(bundle.fragment, "states")
    ineq = membership(bundle.statistics, idents).inequality
    uniform = StatisticsTable(
        preparations=list(bundle.statistics.preparations),
        measurements=list(bundle.statistics.measurements),
        outcomes=[list(o) for o in bundle.statistics.outcomes],
        tables=[np.full_like(t, 0.5) for t in bundle.statistics.tables],
    )
    check = evaluate(ineq, uniform)
    assert check.value == pytest.approx(0.5, abs=1e-12)
    assert not check.violated


def test_membership_feasible_tables_satisfy_emitted_inequalities():
    # Soundness: tables built from explicit noncontextual models respect
    # the PR inequality.
    bundle = build("boxworld-pr")
    idents = find_identities(bundle.fragment, "states")
    eidents = find_identities(bundle.fragment, "effects")
    verts = response_vertices(
        eidents, [(m.label, list(m.effects)) for m in bundle.fragment.measurements]
    )
    xi = np.split(verts, 2, axis=1)  # two binary measurements
    ineq = membership(bundle.statistics, idents, eidents).inequality
    rng = np.random.default_rng(11)
    alpha = idents[0].coefficient_vector(bundle.statistics.preparations)
    for _ in range(50):
        tau = rng.dirichlet(np.ones(4)) * 2.0
        mu = _identity_respecting_mu(tau, rng)
        tables = [mu @ xi_y for xi_y in xi]
        stats = StatisticsTable(
            preparations=list(bundle.statistics.preparations),
            measurements=list(bundle.statistics.measurements),
            outcomes=[list(o) for o in bundle.statistics.outcomes],
            tables=tables,
        )
        assert np.max(np.abs(alpha @ mu)) <= 1e-12
        assert evaluate(ineq, stats).value <= ineq.bound + 1e-7


def _identity_respecting_mu(tau, rng):
    """Random mu rows with mu1 + mu2 = mu3 + mu4 = tau and unit row sums."""
    mu = np.zeros((4, 4))
    for pair in ((0, 1), (2, 3)):
        w = rng.uniform(0, 1, size=4)
        hi = np.minimum(tau, 1.0)
        # Random feasible split: row a gets fraction w of each column,
        # adjusted to land the row sums on 1 exactly.
        a = hi * w
        deficit = 1.0 - a.sum()
        slack = tau - a if deficit > 0 else a
        step = slack * (abs(deficit) / slack.sum()) if slack.sum() > 0 else 0
        a = a + np.sign(deficit) * step
        a = np.clip(a, 0, tau)
        mu[pair[0]] = a
        mu[pair[1]] = tau - a
    return mu


def test_membership_agrees_with_grid_search_on_interior_instances():
    # Completeness at desk scale: tables with an explicit denominator-64
    # grid model are found feasible; the PR table, which the exhaustive
    # grid search provably cannot reach (its noncontextual maximum of the
    # success functional is 3/4 < 1), is found infeasible.
    bundle = build("boxworld-pr")
    idents = find_identities(bundle.fragment, "states")
    eidents = find_identities(bundle.fragment, "effects")
    verts = response_vertices(
        eidents, [(m.label, list(m.effects)) for m in bundle.fragment.measurements]
    )
    xi = np.split(verts, 2, axis=1)  # two binary measurements
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = rng.multinomial(64, np.ones(4) / 4) / 64.0  # grid distribution
        q = rng.multinomial(64, np.ones(4) / 4) / 64.0
        mu = np.array([p, q, p, q])  # pairs equal: identity holds pointwise
        tables = [mu @ xi_y for xi_y in xi]
        stats = StatisticsTable(
            preparations=list(bundle.statistics.preparations),
            measurements=list(bundle.statistics.measurements),
            outcomes=[list(o) for o in bundle.statistics.outcomes],
            tables=tables,
        )
        assert membership(stats, idents, eidents).feasible
    assert not membership(bundle.statistics, idents, eidents).feasible


def test_noncontextual_maximum_unconstrained_is_logical_maximum():
    bundle = build("boxworld-pr")
    verts = response_vertices(
        find_identities(bundle.fragment, "effects"),
        [(m.label, list(m.effects)) for m in bundle.fragment.measurements],
    )
    ineq = membership(
        bundle.statistics,
        find_identities(bundle.fragment, "states"),
        find_identities(bundle.fragment, "effects"),
    ).inequality
    xi = np.split(verts, 2, axis=1)  # two binary measurements
    top = noncontextual_maximum([], xi, ineq.coefficients)
    assert top == pytest.approx(1.0, abs=1e-9)  # no identities: success hits 1
