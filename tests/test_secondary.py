import numpy as np
import pytest

from classicality.errors import FormatError
from classicality.identities import OperationalIdentity, find_identities
from classicality.scenarios import build
from classicality.secondary import secondary_effects, secondary_states
from oracles import added_noise, check_identity, mean_primary_weight


def perturbed_pr_states(scale=0.02, seed=20240817):
    """Square states with seeded radial noise confined to the square plane."""
    pr = build("boxworld-pr").fragment
    rng = np.random.default_rng(seed)
    out = []
    for s in pr.states:
        noise = np.concatenate([[0.0], rng.normal(0.0, scale, size=2)])
        out.append((s.label, s.vector + noise))
    return out


def test_exact_states_give_identity_weights():
    pr = build("boxworld-pr").fragment
    target = find_identities(pr, "states")[0]
    sol = secondary_states([(s.label, s.vector) for s in pr.states], [target])
    assert sol.feasible
    assert np.allclose(sol.primary_weight, 1.0, atol=1e-9)
    assert np.allclose(sol.weights, np.eye(4), atol=1e-9)
    assert max(sol.residuals) <= 1e-9


def test_perturbed_pr_states_repair():
    pr = build("boxworld-pr").fragment
    target = find_identities(pr, "states")[0]
    realized = perturbed_pr_states()
    sol = secondary_states(realized, [target])
    assert sol.feasible
    assert max(sol.residuals) <= 1e-9
    assert mean_primary_weight(sol) >= 0.95
    # Secondary vectors live in the hull of the realized ones.
    vecs = np.array([v for _, v in realized])
    hull_err = np.max(np.abs(sol.weights @ vecs - sol.secondaries))
    assert hull_err <= 1e-12


def test_noisier_than_realized_iff_identity_violated():
    # The optimum is the identity weight matrix exactly when the realized
    # states already satisfy the target.
    pr = build("boxworld-pr").fragment
    target = find_identities(pr, "states")[0]
    _, ok = check_identity(pr, target)
    assert ok  # exact fragment passes
    sol_exact = secondary_states([(s.label, s.vector) for s in pr.states], [target])
    assert np.min(sol_exact.primary_weight) == pytest.approx(1.0, abs=1e-9)
    realized = perturbed_pr_states()
    sol_noisy = secondary_states(realized, [target])
    assert np.min(sol_noisy.primary_weight) < 1.0 - 1e-9
    assert added_noise(sol_noisy) > 0


def test_resolve_under_variable_permutation_matches():
    # Independent cross-check: permute the realized states (renaming the LP
    # variables) and confirm the achieved objective agrees.
    pr = build("boxworld-pr").fragment
    target = find_identities(pr, "states")[0]
    realized = perturbed_pr_states()
    sol = secondary_states(realized, [target])
    perm = [2, 0, 3, 1]
    permuted = [realized[i] for i in perm]
    sol_perm = secondary_states(permuted, [target])
    assert sol_perm.feasible
    assert mean_primary_weight(sol) == pytest.approx(
        mean_primary_weight(sol_perm), abs=1e-9
    )
    assert max(sol_perm.residuals) <= 1e-9


def test_two_state_merge_is_optimal_hull_point():
    two = [("a", np.array([1.0, 0.3])), ("b", np.array([1.0, -0.3]))]
    ident = OperationalIdentity("states", [("a", 1.0), ("b", -1.0)])
    sol = secondary_states(two, [ident])
    assert sol.feasible
    assert np.allclose(sol.secondaries[0], sol.secondaries[1], atol=1e-9)
    # Any merge point has c11 + c22 = 1; the solver reaches that optimum.
    assert float(sol.primary_weight.sum()) == pytest.approx(1.0, abs=1e-9)


def test_secondary_effects_repair_normalization():
    pr = build("boxworld-pr").fragment
    targets = find_identities(pr, "effects")
    rng = np.random.default_rng(99)
    realized = [
        (e.label, e.vector + np.concatenate([[0.0], rng.normal(0, 0.02, 2)]))
        for e in pr.effects
    ]
    sol = secondary_effects(realized, pr.unit_effect, targets)
    assert sol.feasible
    assert max(sol.residuals) <= 1e-9
    # e'(0|y) + e'(1|y) = unit for both measurements, exactly.
    sec = {lab: v for lab, v in zip(sol.target_labels, sol.secondaries)}
    for y in (0, 1):
        total = sec[f"e0|{y}"] + sec[f"e1|{y}"]
        assert np.allclose(total, pr.unit_effect, atol=1e-9)


def test_exact_effects_give_identity_weights():
    pr = build("boxworld-pr").fragment
    targets = find_identities(pr, "effects")
    sol = secondary_effects(
        [(e.label, e.vector) for e in pr.effects], pr.unit_effect, targets
    )
    assert np.allclose(sol.primary_weight, 1.0, atol=1e-9)


def test_unreachable_target_reports_farkas():
    pr = build("boxworld-pr").fragment
    bad = OperationalIdentity("effects", [("e0|0", 1.0), ("unit", -3.0)])
    sol = secondary_effects(
        [(e.label, e.vector) for e in pr.effects], pr.unit_effect, [bad]
    )
    assert not sol.feasible
    assert sol.farkas_margin is not None and sol.farkas_margin >= 1e-9


def test_realized_effect_with_reserved_label_rejected():
    pr = build("boxworld-pr").fragment
    realized = [(e.label, e.vector) for e in pr.effects]
    realized[0] = ("zero", realized[0][1])
    with pytest.raises(FormatError, match="reserved"):
        secondary_effects(realized, pr.unit_effect, [])


def test_side_mismatch_rejected():
    pr = build("boxworld-pr").fragment
    state_ident = find_identities(pr, "states")[0]
    with pytest.raises(FormatError):
        secondary_effects(
            [(e.label, e.vector) for e in pr.effects], pr.unit_effect, [state_ident]
        )
    effect_ident = find_identities(pr, "effects")[0]
    with pytest.raises(FormatError):
        secondary_states([(s.label, s.vector) for s in pr.states], [effect_ident])


def test_determinism():
    realized = perturbed_pr_states()
    target = find_identities(build("boxworld-pr").fragment, "states")[0]
    a = secondary_states(realized, [target])
    b = secondary_states(realized, [target])
    assert np.array_equal(a.weights, b.weights)
