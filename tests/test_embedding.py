import numpy as np
import pytest

from classicality import embedding
from classicality.embedding import (
    accessibilize,
    robustness,
    test_embeddability,
    to_model,
)
from classicality.errors import FormatError, NumericalError
from classicality.fragments import Fragment, GptVector, Measurement, predict
from classicality.identities import find_identities
from classicality.models import verify_model
from classicality.scenarios import build
from oracles import depolarize, robustness_by_bisection


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
    real = embedding.dual_cone

    def dual_cone(generators, tol):
        calls.append(tol)
        return real(generators, tol)

    monkeypatch.setattr(embedding, "dual_cone", dual_cone)
    af = accessibilize(build("boxworld-pr").fragment)
    test_embeddability(af)
    robustness(af)
    assert calls == [af.tol, af.tol]


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
