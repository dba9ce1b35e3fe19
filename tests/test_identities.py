import numpy as np
import pytest

from classicality.errors import FormatError
from classicality.fragments import Fragment, GptVector, tensor
from classicality.identities import (
    OperationalIdentity,
    find_identities,
    induced_marginal_identities,
)
from classicality.scenarios import build
from oracles import check_identity, state_vector


def coeff_map(ident):
    return dict(ident.terms)


def test_pr_states_have_one_identity_with_chsh_coefficients():
    pr = build("boxworld-pr").fragment
    idents = find_identities(pr, "states")
    assert len(idents) == 1
    c = coeff_map(idents[0])
    # Canonical scaling: first nonzero coefficient +1; proportional to
    # (1/2, 1/2, -1/2, -1/2).
    assert c["s0|0"] == pytest.approx(1.0)
    assert c["s1|0"] == pytest.approx(1.0)
    assert c["s0|1"] == pytest.approx(-1.0)
    assert c["s1|1"] == pytest.approx(-1.0)
    assert idents[0].residual <= 1e-12


def test_barycenter_identity():
    d = 3
    simplex = build("simplex-d", d=d).fragment
    center = np.mean([s.vector for s in simplex.states], axis=0)
    frag = Fragment(
        name="with-center",
        dimension=d,
        unit_effect=simplex.unit_effect,
        states=simplex.states + [GptVector("center", center, "state")],
        effects=simplex.effects,
        measurements=simplex.measurements,
    )
    idents = find_identities(frag, "states")
    assert len(idents) == 1
    c = coeff_map(idents[0])
    ratio = c["center"] / c["p0"]
    assert ratio == pytest.approx(-(d + 1 - 1), abs=1e-9)  # barycenter has weight -d


def test_completeness_count():
    pr = build("boxworld-pr").fragment
    assert len(find_identities(pr, "states")) == 4 - 3
    med = build("boxworld-classical-mediary").fragment
    assert find_identities(med, "states") == []


def test_effect_side_includes_unit_relations():
    pr = build("boxworld-pr").fragment
    idents = find_identities(pr, "effects")
    # Two binary measurements summing to the unit: 5 stacked vectors, rank 3.
    assert len(idents) == 2
    for ident in idents:
        labels = set(coeff_map(ident))
        assert "unit" in labels


def test_identities_invariant_under_reordering():
    pr = build("boxworld-pr").fragment
    flipped = Fragment(
        name="flipped",
        dimension=pr.dimension,
        unit_effect=pr.unit_effect,
        states=list(reversed(pr.states)),
        effects=pr.effects,
        measurements=pr.measurements,
    )
    a = find_identities(pr, "states")[0]
    b = find_identities(flipped, "states")[0]
    ca, cb = coeff_map(a), coeff_map(b)
    scale = ca["s0|0"] / cb["s0|0"]
    for lab in ca:
        assert ca[lab] == pytest.approx(scale * cb[lab], abs=1e-9)


def test_lab_notebook_states_are_linearly_independent():
    ln = build("lab-notebook").fragment
    assert find_identities(ln, "states") == []


def test_induced_marginal_identity_matches_original():
    ln = build("lab-notebook").fragment
    induced = induced_marginal_identities(ln, "S")
    assert len(induced) == 1
    ident = induced[0]
    assert ident.marginalization == "S"
    original = find_identities(build("boxworld-pr").fragment, "states")[0]
    # Positional coefficient match: composite states are ordered like the
    # single-system ones.
    got = [c for _, c in ident.terms]
    want = [c for _, c in original.terms]
    assert np.allclose(got, want, atol=1e-9)
    resid, ok = check_identity(ln, ident)
    assert ok and resid <= 1e-12


def test_lifting_property_via_tensor():
    # Composites of any fragment with a pointer recording the preparation
    # reproduce the original identity set after marginalization.
    pr = build("boxworld-pr").fragment
    pointer = build("simplex-d", d=4).fragment
    comp = tensor(pr, pointer)
    diagonal = [
        state_vector(comp, f"{s.label}⊗p{i}") for i, s in enumerate(pr.states)
    ]
    restricted = Fragment(
        name="diag",
        dimension=comp.dimension,
        unit_effect=comp.unit_effect,
        states=[
            GptVector(f"{s.label}⊗p{i}", diagonal[i], "state")
            for i, s in enumerate(pr.states)
        ],
        effects=comp.effects,
        measurements=[],
        subsystems=comp.subsystems,
        subsystem_units=comp.subsystem_units,
    )
    assert find_identities(restricted, "states") == []
    induced = induced_marginal_identities(restricted, comp.subsystems[0][0])
    original = find_identities(pr, "states")
    assert len(induced) == len(original) == 1
    got = [c for _, c in induced[0].terms]
    want = [c for _, c in original[0].terms]
    assert np.allclose(got, want, atol=1e-9)


def test_lifting_property_on_random_fragments():
    # For any fragment paired diagonally with a pointer of matching size,
    # the induced marginal identities equal the bare identities of the
    # original fragment, coefficient for coefficient.
    from oracles import random_fragment

    for seed in (0, 3, 11, 27):
        frag = random_fragment(seed)
        pointer = build("simplex-d", d=len(frag.states)).fragment
        comp = tensor(frag, pointer)
        diagonal = Fragment(
            name="diag",
            dimension=comp.dimension,
            unit_effect=comp.unit_effect,
            states=[
                GptVector(
                    f"{s.label}⊗p{i}", state_vector(comp, f"{s.label}⊗p{i}"), "state"
                )
                for i, s in enumerate(frag.states)
            ],
            effects=[],
            measurements=[],
            subsystems=comp.subsystems,
            subsystem_units=comp.subsystem_units,
        )
        assert find_identities(diagonal, "states") == []
        induced = induced_marginal_identities(diagonal, comp.subsystems[0][0])
        original = find_identities(frag, "states")
        assert len(induced) == len(original)
        for a, b in zip(induced, original):
            ca = np.array([c for _, c in a.terms])
            cb = np.array([c for _, c in b.terms])
            assert np.allclose(ca, cb, atol=1e-9), seed


def test_find_identities_needs_two_vectors():
    frag = Fragment(
        name="single",
        dimension=2,
        unit_effect=[1.0, 0.0],
        states=[GptVector("only", [1.0, 0.5], "state")],
    )
    with pytest.raises(FormatError):
        find_identities(frag, "states")


def test_product_of_simplices_marginal_identities():
    bit = build("simplex-d", d=2).fragment
    comp = tensor(bit, bit)
    for keep in (comp.subsystems[0][0], comp.subsystems[1][0]):
        induced = induced_marginal_identities(comp, keep)
        # Four product states trace to two distinct points, twice each.
        assert len(induced) == 2


def test_independent_marginals_give_no_induced_identities():
    tri = build("simplex-d", d=3).fragment
    pointer = build("simplex-d", d=3).fragment
    comp = tensor(tri, pointer)
    diagonal = Fragment(
        name="diag",
        dimension=comp.dimension,
        unit_effect=comp.unit_effect,
        states=[
            GptVector(f"p{i}⊗p{i}", state_vector(comp, f"p{i}⊗p{i}"), "state")
            for i in range(3)
        ],
        subsystems=comp.subsystems,
        subsystem_units=comp.subsystem_units,
    )
    assert induced_marginal_identities(diagonal, comp.subsystems[0][0]) == []


def test_check_identity_on_perturbed_states_fails():
    pr = build("boxworld-pr").fragment
    ident = find_identities(pr, "states")[0]
    rng = np.random.default_rng(5)
    noisy = Fragment(
        name="noisy",
        dimension=3,
        unit_effect=pr.unit_effect,
        states=[
            GptVector(s.label, s.vector + np.r_[0.0, rng.normal(0, 0.02, 2)], "state")
            for s in pr.states
        ],
        effects=pr.effects,
        measurements=pr.measurements,
    )
    resid, ok = check_identity(noisy, ident, tol=1e-3)
    assert resid > 1e-3
    assert not ok


def test_identity_construction_rejects_degenerate():
    with pytest.raises(FormatError):
        OperationalIdentity("states", [("a", 0.0), ("b", 0.0)])
    with pytest.raises(FormatError):
        OperationalIdentity("states", [("a", 1.0)])


def test_canonical_scale_applied_at_construction():
    ident = OperationalIdentity(
        "states",
        [("a", 0.5), ("b", 0.5), ("c", -0.5), ("d", -0.5)],
        residual=1e-10,
    )
    assert coeff_map(ident)["a"] == pytest.approx(1.0)
    assert ident.residual == pytest.approx(2e-10)


@pytest.mark.parametrize(
    "terms, residual",
    [
        ([("a", 1.0), ("b", float("nan")), ("c", -1.0)], 0.0),
        ([("a", 1.0), ("b", float("inf"))], 0.0),
        ([("a", 1.0), ("b", -1.0)], float("nan")),
    ],
)
def test_identity_rejects_non_finite_numbers(terms, residual):
    # abs(nan) > 1e-12 is False, so a NaN term used to vanish silently.
    with pytest.raises(FormatError, match="must be finite"):
        OperationalIdentity("states", terms, residual=residual)


def test_check_identity_unknown_label():
    pr = build("boxworld-pr").fragment
    ident = OperationalIdentity("states", [("nope", 1.0), ("s0|0", -1.0)])
    with pytest.raises(FormatError):
        check_identity(pr, ident)


def test_identity_naming_a_label_twice_rejected():
    # Summed, these terms are the square's identity; a dict lookup would
    # keep only the last s1|1 term, so the format forbids repeats.
    with pytest.raises(FormatError, match="more than once"):
        OperationalIdentity(
            "states",
            [("s0|0", 1.0), ("s1|0", 1.0), ("s0|1", -1.0), ("s1|1", -0.5), ("s1|1", -0.5)],
        )
