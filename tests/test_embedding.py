from dataclasses import replace

import numpy as np
import pytest

from classicality import cones, embedding, tomography
from classicality.cli import main
from classicality.cones import MAX_CONE_DIM, MAX_CONE_GENERATORS
from classicality.embedding import (
    accessibilize,
    accessible_identities,
    robustness,
    test_embeddability,
    to_model,
    violated_inequality,
)
from classicality.errors import FormatError, NumericalError, ResourceLimitError
from classicality.fragments import Fragment, GptVector, Measurement, predict
from classicality.serialize import dumps, fragment_to_obj
from classicality.identities import find_identities
from classicality.models import verify_model
from classicality.scenarios import build
from classicality.noncontextuality import response_vertices
from oracles import (
    accessibilize_by_rounds,
    cone_fragments,
    depolarize,
    embeds_by_feasibility,
    noncontextual_maximum_mu_polytope,
    robustness_by_bisection,
)
from perfbench import inputs
from perfbench.inputs import SCENARIOS, composite, regular_polygon, scenario


def test_accessibilize_pr_is_full_rank_and_faithful():
    pr = build("boxworld-pr").fragment
    af = accessibilize(pr)
    assert af.dimension == 3
    # Already mutually spanning: pairwise probabilities match exactly and
    # complement closure adds nothing (each complement already listed).
    assert set(af.effect_labels) == {e.label for e in pr.effects}
    probs = af.states @ af.effects.T
    want = pr.state_matrix() @ pr.effect_matrix().T
    assert np.allclose(probs, want, atol=1e-9)


def test_accessibilize_prunes_unobservable_effect_component():
    simplex = build("simplex-d", d=2).fragment
    frag = Fragment(
        name="orthogonal-effect",
        dimension=3,
        unit_effect=[1.0, 1.0, 0.0],
        states=[
            GptVector("p0", [1.0, 0.0, 0.0], "state"),
            GptVector("p1", [0.0, 1.0, 0.0], "state"),
        ],
        effects=[
            GptVector("r0", [1.0, 0.0, 0.0], "effect"),
            GptVector("r1", [0.0, 1.0, 0.0], "effect"),
            GptVector("ghost", [0.0, 0.0, 1.0], "effect"),  # orthogonal to states
        ],
        measurements=[Measurement("readout", ("r0", "r1"))],
    )
    af = accessibilize(frag)
    assert af.dimension == 2
    ghost = af.effect_row("ghost")
    assert np.allclose(af.states @ ghost, 0.0, atol=1e-12)


def test_embedding_tolerates_unobservable_effects():
    # Effects that project to zero constrain nothing and must not break
    # the cone enumeration.
    frag = Fragment(
        name="ghostly",
        dimension=3,
        unit_effect=[1.0, 1.0, 0.0],
        states=[
            GptVector("p0", [1.0, 0.0, 0.0], "state"),
            GptVector("p1", [0.0, 1.0, 0.0], "state"),
        ],
        effects=[
            GptVector("r0", [1.0, 0.0, 0.0], "effect"),
            GptVector("r1", [0.0, 1.0, 0.0], "effect"),
            GptVector("ghost", [0.0, 0.0, 1.0], "effect"),
        ],
        measurements=[Measurement("readout", ("r0", "r1"))],
    )
    result = test_embeddability(accessibilize(frag))
    assert result.embeddable


def test_accessibilize_stabilizer_dimension_four():
    af = accessibilize(build("qubit-stabilizer").fragment)
    assert af.dimension == 4


def test_accessibilize_rejects_zero_states():
    frag = Fragment(
        name="zero",
        dimension=2,
        unit_effect=[0.0, 0.0],
        states=[GptVector("s", [0.0, 0.0], "state")],
        effects=[GptVector("e", [0.0, 0.0], "effect")],
    )
    with pytest.raises(FormatError):
        accessibilize(frag)


def test_simplex_embeds_with_pointlike_model():
    bundle = build("simplex-d", d=4)
    af = accessibilize(bundle.fragment)
    result = test_embeddability(af)
    assert result.embeddable
    model = to_model(result.certificate, af)
    # Point distributions and deterministic responses.
    assert np.allclose(np.sort(model.mu, axis=1)[:, -1], 1.0, atol=1e-9)
    assert verify_model(model, bundle.statistics).passed


def test_pr_not_embeddable_with_valid_dual_witness():
    af = accessibilize(build("boxworld-pr").fragment)
    result = test_embeddability(af)
    assert not result.embeddable
    y = result.farkas_matrix
    h, d = result_rays(af)
    vals = np.einsum("ab,ja,ib->ij", y, d, h)
    assert np.min(vals) >= -1e-9  # <Y, d h^T> >= 0 on every ray pair
    assert np.trace(y) < -1e-9


def result_rays(af):
    from classicality.cones import dual_cone

    h = dual_cone(af.states).generators
    d = dual_cone(np.vstack([af.effects, af.unit[None, :]])).generators
    return h, d


def test_stabilizer_model_reconstructs_all_36_probabilities():
    bundle = build("qubit-stabilizer")
    af = accessibilize(bundle.fragment)
    result = test_embeddability(af)
    assert result.embeddable
    model = to_model(result.certificate, af)
    assert model.size <= 16
    mine = model.statistics()
    for y in range(3):
        assert np.max(np.abs(mine.tables[y] - bundle.statistics.tables[y])) <= 1e-7
    check = verify_model(
        model,
        bundle.statistics,
        find_identities(bundle.fragment, "states"),
        find_identities(bundle.fragment, "effects"),
    )
    assert check.passed, check.describe()


def test_certificate_reconstruction_property():
    for name in ("qubit-stabilizer", "boxworld-classical-mediary"):
        frag = build(name).fragment
        af = accessibilize(frag)
        result = test_embeddability(af)
        cert = result.certificate
        recon = np.einsum("ij,ja,ib->ab", cert.beta, cert.d_rays, cert.h_rays)
        gens = np.vstack([af.effects, af.unit[None, :]])
        for e in gens:
            for s in af.states:
                assert abs(e @ recon @ s - e @ s) <= 1e-7


def test_epistemic_normalization_forced_by_unit():
    bundle = build("boxworld-classical-mediary")
    af = accessibilize(bundle.fragment)
    model = to_model(test_embeddability(af).certificate, af)
    assert np.allclose(model.mu.sum(axis=1), 1.0, atol=1e-9)


def test_both_lps_read_the_cones_accessibilize_built(monkeypatch):
    calls = []
    real = embedding.h_rep_extreme_rays

    def h_rep_extreme_rays(constraints, tol):
        calls.append(tol)
        return real(constraints, tol)

    monkeypatch.setattr(embedding, "h_rep_extreme_rays", h_rep_extreme_rays)
    af = accessibilize(build("boxworld-pr").fragment)
    test_embeddability(af)
    robustness(af)
    assert calls == [af.tol, af.tol]


def _two_round_fragments():
    """Fragments whose projection takes two rounds: boxworld-pr with only
    m0 measured, and a state with a component that no effect sees."""
    pr = scenario("pr")
    yield replace(pr, name="pr-m0", effects=pr.effects[:2], measurements=pr.measurements[:1])
    yield Fragment(
        name="unseen-state-component",
        dimension=3,
        unit_effect=[1.0, 1.0, 0.0],
        states=[
            GptVector("p0", [1.0, 0.0, 0.0], "state"),
            GptVector("p1", [0.0, 1.0, 0.0], "state"),
            GptVector("p2", [0.5, 0.5, 1.0], "state"),
        ],
        effects=[
            GptVector("r0", [1.0, 0.0, 0.0], "effect"),
            GptVector("r1", [0.0, 1.0, 0.0], "effect"),
        ],
        measurements=[Measurement("readout", ("r0", "r1"))],
    )


def _pipeline_fragments():
    """(fitted fragment, tol) of every counts-pipeline op of seeds 1-3, pass 0."""
    seen = []
    real = tomography.accessibilize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tomography, "accessibilize",
                   lambda f, tol: seen.append((f, tol)) or real(f, tol))
        for seed in (1, 2, 3):
            for item in inputs.count_inputs(inputs.COUNT_TABLES, seed):
                synth_seed = item.seeds(0)[0]
                tomography.verdict_pipeline(
                    tomography.synth(item.fragment, item.trials, synth_seed))
    return seen


def _assert_matches_the_projection_rounds(fragment, tol=1e-9):
    got, want = accessibilize(fragment, tol), accessibilize_by_rounds(fragment, tol)
    assert got.dimension == want.dimension
    assert got.effect_labels == want.effect_labels
    assert got.h_rays.shape == want.h_rays.shape and got.d_rays.shape == want.d_rays.shape
    assert abs(robustness(got).r_star - robustness(want).r_star) <= 1e-12


def test_accessibilize_matches_the_projection_rounds_on_the_cone_fragments():
    for fragment in cone_fragments():
        _assert_matches_the_projection_rounds(fragment)


def test_accessibilize_matches_the_projection_rounds_on_fitted_fragments():
    fitted = _pipeline_fragments()
    assert len(fitted) == 3 * len(inputs.count_inputs(inputs.COUNT_TABLES, 1))
    for fragment, tol in fitted:
        _assert_matches_the_projection_rounds(fragment, tol)


@pytest.mark.parametrize("fragment", _two_round_fragments(), ids=lambda f: f.name)
def test_accessibilize_matches_the_projection_rounds_where_two_rounds_are_needed(fragment):
    _assert_matches_the_projection_rounds(fragment)
    af = accessibilize(fragment)
    assert af.dimension == 2
    probs = af.states @ af.effects[: len(fragment.effects)].T
    assert np.allclose(probs, fragment.state_matrix() @ fragment.effect_matrix().T, atol=1e-12)


def test_complement_closure_keeps_the_greedy_first_seen_rule():
    # not:a is new; not:b lies within 1e-9 of not:a; not:c lies within 1e-9
    # of not:b only, which was not kept, so it is new.  u's complement is
    # zero, h is its own complement and q is p's.
    effects = {"a": [0.3, 0.3], "b": [0.3, 0.3 + 7e-10], "c": [0.3, 0.3 + 1.4e-9],
               "u": [1.0, 1.0], "h": [0.5, 0.5], "z": [0.0, 0.0],
               "p": [0.2, 0.5], "q": [0.8, 0.5]}
    frag = Fragment(
        name="closure",
        dimension=2,
        unit_effect=[1.0, 1.0],
        states=[GptVector("s0", [1.0, 0.0], "state"), GptVector("s1", [0.0, 1.0], "state")],
        effects=[GptVector(lab, v, "effect") for lab, v in effects.items()],
        measurements=[Measurement("m", ("p", "q"))],
    )
    got, want = accessibilize(frag), accessibilize_by_rounds(frag)
    assert got.effect_labels == [*effects, "not:a", "not:c"] == want.effect_labels
    assert got.effects.tobytes() == want.effects.tobytes()


def _spy_calls(monkeypatch):
    """Count accessibilize's basis calls; fail on any dual_cone call."""
    bases = []
    real = embedding.orthonormal_basis
    monkeypatch.setattr(embedding, "orthonormal_basis",
                        lambda *a: bases.append(1) or real(*a))

    def dual_cone(*args, **kwargs):
        raise AssertionError("accessibilize went through dual_cone")

    monkeypatch.setattr(cones, "dual_cone", dual_cone)
    return bases


def test_a_single_round_fragment_takes_two_bases_and_no_dual_cone(monkeypatch):
    bases = _spy_calls(monkeypatch)
    accessibilize(scenario("pr"))
    assert len(bases) == 2


@pytest.mark.parametrize("fragment", _two_round_fragments(), ids=lambda f: f.name)
def test_each_further_projection_round_takes_two_more_bases(fragment, monkeypatch):
    bases = _spy_calls(monkeypatch)
    accessibilize(fragment)
    assert len(bases) == 4


def _oversized_cones():
    """(fragment, dual_cone's message) over each limit accessibilize keeps."""
    n = MAX_CONE_GENERATORS + 1
    yield pytest.param(regular_polygon(n), f"{n} generators exceed limit", id="states")
    # 2 * 65 effects, complements included, and the unit; three states.
    many = regular_polygon(65)
    many = replace(many, states=many.states[:3])
    yield pytest.param(many, "131 generators exceed limit", id="effects")
    yield pytest.param(build("simplex-d", d=MAX_CONE_DIM + 1).fragment,
                       f"cone dimension {MAX_CONE_DIM + 1} exceeds limit", id="dimension")


@pytest.mark.parametrize("fragment, message", _oversized_cones())
def test_accessibilize_refuses_oversized_cones_before_building_rays(
    fragment, message, monkeypatch, tmp_path, capsys
):
    def h_rep_extreme_rays(*args, **kwargs):
        raise AssertionError("rays built before the size check")

    monkeypatch.setattr(embedding, "h_rep_extreme_rays", h_rep_extreme_rays)
    monkeypatch.setattr(cones, "h_rep_extreme_rays", h_rep_extreme_rays)
    with pytest.raises(ResourceLimitError, match=message):
        accessibilize(fragment)
    path = tmp_path / "frag.json"
    path.write_text(dumps(fragment_to_obj(fragment)), encoding="utf-8")
    assert main(["embed", str(path), "-o", str(tmp_path / "embed.json")]) == 3
    assert message in capsys.readouterr().err


def _verdict_inputs():
    yield from (pytest.param(scenario(key), id=key) for key in SCENARIOS)
    yield from (pytest.param(regular_polygon(n), id=f"{n}-gon") for n in range(3, 13))
    for a, b in (("bit", "pr"), ("pr", "bit"), ("stab", "bit"), ("tri", "pr")):
        yield pytest.param(composite(a, b), id=f"{a}x{b}")


@pytest.mark.parametrize("fragment", _verdict_inputs())
def test_min_r_verdict_matches_the_feasibility_lp(fragment):
    af = accessibilize(fragment)
    result, r_star = test_embeddability(af), robustness(af).r_star
    assert result.embeddable is embeds_by_feasibility(af)
    if result.embeddable:
        assert r_star <= 1e-8
    else:  # minus the duals: <-Y, d h^T> >= 0 on every ray pair, tr(-Y) = -r*
        y = result.farkas_matrix
        assert np.min(af.d_rays @ y @ af.h_rays.T) >= -1e-9 * np.max(np.abs(y))
        assert np.trace(y) == pytest.approx(-r_star, abs=1e-9)


def _pr_measuring_m0_twice():
    frag = scenario("pr")
    again = Measurement("m0-again", frag.measurements[0].effects)
    return replace(frag, measurements=[*frag.measurements, again])


def _farkas_inequality_inputs():
    yield from (pytest.param(scenario(key), True, id=key) for key in ("pr", "labA"))
    # A label measured twice carries its weight at its first outcome only.
    yield pytest.param(_pr_measuring_m0_twice(), True, id="pr-m0-twice")
    for n in range(4, 13):
        yield pytest.param(regular_polygon(n), True, id=f"{n}-gon")
    for a, b in (("bit", "pr"), ("pr", "bit")):
        yield pytest.param(composite(a, b), True, id=f"{a}x{b}")
    # Over the outcome-count limit of the response vertices the oracle cannot run.
    for n in (16, 20, 24):
        yield pytest.param(regular_polygon(n), False, id=f"{n}-gon")


@pytest.mark.parametrize("fragment, oracle", _farkas_inequality_inputs())
def test_farkas_inequality_is_violated_and_tight(fragment, oracle):
    af = accessibilize(fragment)
    ineq = violated_inequality(af, test_embeddability(af).farkas_matrix)
    stats = predict(fragment)
    assert ineq.provenance == f"embed:{fragment.name}"
    assert ineq.value(stats) > ineq.bound + 1e-3
    # The depolarized table of the robustness certificate attains the bound.
    r_star = robustness(af).r_star
    mixed = [(1 - r_star) * t + r_star * t.mean(axis=0) for t in stats.tables]
    value = sum(float(np.sum(c * t)) for c, t in zip(ineq.coefficients, mixed))
    assert value == pytest.approx(ineq.bound, abs=1e-9)
    if oracle:  # the bound is the maximum over noncontextual tables
        state_idents, effect_idents = accessible_identities(af)
        xi = response_vertices(effect_idents, list(zip(stats.measurements, stats.outcomes)))
        xi = np.split(xi, np.cumsum([len(o) for o in stats.outcomes])[:-1], axis=1)
        alphas = [i.coefficient_vector(stats.preparations) for i in state_idents]
        top = noncontextual_maximum_mu_polytope(alphas, xi, ineq.coefficients)
        assert top == pytest.approx(ineq.bound, abs=1e-9)


def test_robustness_simplex_is_zero():
    af = accessibilize(build("simplex-d", d=3).fragment)
    assert robustness(af).r_star == pytest.approx(0.0, abs=1e-9)


def test_robustness_pr_is_half():
    af = accessibilize(build("boxworld-pr").fragment)
    rob = robustness(af)
    assert rob.r_star == pytest.approx(0.5, abs=1e-6)
    # Independent oracle: depolarize-and-retest bisection.
    sweep = robustness_by_bisection(build("boxworld-pr").fragment, r_tol=1e-4)
    assert abs(sweep - rob.r_star) <= 1e-4 + 1e-6


def test_robustness_bracketing_witness():
    frag = build("boxworld-pr").fragment
    r_star = robustness(accessibilize(frag)).r_star
    at = test_embeddability(accessibilize(depolarize(frag, min(1.0, r_star + 1e-9))))
    assert at.embeddable
    below = test_embeddability(accessibilize(depolarize(frag, r_star - 1e-4)))
    assert not below.embeddable


@pytest.mark.parametrize(
    "decide, name", [(test_embeddability, "simplex-d"), (robustness, "boxworld-pr")]
)
def test_certificate_residual_is_checked(decide, name, monkeypatch):
    # A solution that misses the decomposition must not become a certificate.
    real = embedding.solve

    def perturbed(lp):
        sol = real(lp)
        sol.x[0] += 1e-3
        return sol

    monkeypatch.setattr(embedding, "solve", perturbed)
    with pytest.raises(NumericalError, match="residual"):
        decide(accessibilize(build(name).fragment))


def test_embeddability_refuses_duals_that_do_not_bound_a_pair_column(monkeypatch):
    # Minus the duals is a Farkas matrix only if y . A_ij <= 0 on every ray
    # pair column (i, j); push them along one column and the check must fire.
    real_solve = embedding.solve

    def solve(lp):
        sol = real_solve(lp)
        column = lp.a_eq[:, 0]  # the first pair column: y . A_00 becomes 1
        sol.duals = sol.duals + (1.0 - sol.duals @ column) / (column @ column) * column
        return sol

    pr = build("boxworld-pr").fragment
    assert not test_embeddability(accessibilize(pr)).embeddable
    monkeypatch.setattr(embedding, "solve", solve)
    with pytest.raises(NumericalError, match="duals are positive on a weight column"):
        test_embeddability(accessibilize(pr))


def test_fully_depolarized_anything_embeds():
    frag = depolarize(build("boxworld-pr").fragment, 1.0)
    assert test_embeddability(accessibilize(frag)).embeddable


def test_depolarization_feasibility_is_monotone():
    frag = build("boxworld-pr").fragment
    verdicts = [
        test_embeddability(accessibilize(depolarize(frag, r))).embeddable
        for r in (0.0, 0.25, 0.45, 0.55, 0.75, 1.0)
    ]
    # Once feasible, feasible for all larger r.
    first = verdicts.index(True)
    assert all(verdicts[first:])
    assert not any(verdicts[:first])


def test_depolarize_validates_range():
    with pytest.raises(FormatError):
        depolarize(build("boxworld-pr").fragment, 1.5)
