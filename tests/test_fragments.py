import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classicality.errors import FormatError, ResourceLimitError
from classicality.fragments import (
    Fragment,
    GptVector,
    Measurement,
    partial_trace,
    predict,
    tensor,
    validate,
)
from classicality.scenarios import build
from oracles import state_vector


def test_scenario_fragments_validate():
    for name in ("boxworld-pr", "boxworld-classical-mediary", "qubit-stabilizer"):
        assert validate(build(name).fragment).passed


def test_validate_flags_measurement_normalization():
    f = build("simplex-d", d=2).fragment
    bad = Fragment(
        name="bad",
        dimension=2,
        unit_effect=f.unit_effect,
        states=f.states,
        effects=[GptVector(e.label, 2 * e.vector, "effect") for e in f.effects],
        measurements=f.measurements,
    )
    report = validate(bad)
    assert not report.passed
    kinds = {v.kind for v in report.violations}
    assert "measurement normalization" in kinds


def test_validate_lists_probability_bound_violations_effect_major():
    f = build("simplex-d", d=2).fragment
    vectors = ([1.5, -0.25], [-0.5, 1.25])  # they still sum to the unit
    effects = [GptVector(e.label, v, "effect") for e, v in zip(f.effects, vectors)]
    bad = Fragment(
        name="bad",
        dimension=2,
        unit_effect=f.unit_effect,
        states=f.states,
        effects=effects,
        measurements=f.measurements,
    )
    got = [(v.kind, v.labels, v.magnitude) for v in validate(bad).violations]
    probs = [(e.label, s.label, e.vector @ s.vector) for e in effects for s in f.states]
    want = [("probability bounds", (e, s), max(-p, p - 1)) for e, s, p in probs]
    assert got == want
    assert [m for *_, m in got] == [0.5, 0.25, 0.5, 0.25]


def test_validate_distinguishes_malformed_input():
    with pytest.raises(FormatError):
        Fragment(
            name="broken",
            dimension=3,
            unit_effect=[1.0, 0.0, 0.0],
            states=[GptVector("s", [1.0, 0.0], "state")],  # wrong dimension
        )
    with pytest.raises(FormatError):
        Fragment(
            name="dup",
            dimension=1,
            unit_effect=[1.0],
            states=[GptVector("s", [1.0], "state"), GptVector("s", [1.0], "state")],
        )


def test_predict_realizes_pr_correlations():
    bundle = build("boxworld-pr")
    stats = bundle.statistics
    # State s(a|x) measured with y yields b = a xor (x and y) with certainty.
    for x_idx, (a, xs) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        for y in (0, 1):
            expect = a ^ (xs * y)
            assert stats.tables[y][x_idx, expect] == pytest.approx(1.0)


def test_predict_unit_only_measurement_gives_ones():
    f = build("simplex-d", d=3).fragment
    f2 = Fragment(
        name="unit-only",
        dimension=3,
        unit_effect=f.unit_effect,
        states=f.states,
        effects=[GptVector("all", np.ones(3), "effect")],
        measurements=[Measurement("trivial", ("all",))],
    )
    stats = predict(f2)
    assert np.allclose(stats.tables[0], 1.0)


def test_tensor_of_classical_bits_is_four_point_simplex():
    bit = build("simplex-d", d=2).fragment
    composite = tensor(bit, bit)
    assert composite.dimension == 4
    assert len(composite.states) == 4
    assert validate(composite).passed
    stats = predict(composite)
    assert np.allclose(np.sort(stats.tables[0], axis=1)[:, -1], 1.0)


def test_tensor_writes_no_negative_zeros():
    # np.kron gives -0.0 where a negative entry meets a 0.0; reports would print it.
    comp = tensor(build("boxworld-pr").fragment, build("simplex-d", d=2).fragment)
    vectors = [v.vector for v in comp.states + comp.effects] + [comp.unit_effect]
    for v in vectors:
        assert not np.any(np.signbit(v) & (v == 0.0))


def test_tensor_size_limit():
    big = build("simplex-d", d=17).fragment
    with pytest.raises(ResourceLimitError):
        tensor(big, big)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_tensor_prediction_factorizes(seed):
    rng = np.random.default_rng(seed)
    pr = build("boxworld-pr").fragment
    bit = build("simplex-d", d=2).fragment
    comp = tensor(pr, bit)
    sa = pr.states[rng.integers(len(pr.states))]
    sb = bit.states[rng.integers(len(bit.states))]
    ea = pr.effects[rng.integers(len(pr.effects))]
    eb = bit.effects[rng.integers(len(bit.effects))]
    left = comp.effect(f"{ea.label}⊗{eb.label}") @ state_vector(comp, f"{sa.label}⊗{sb.label}")
    right = (ea.vector @ sa.vector) * (eb.vector @ sb.vector)
    assert abs(left - right) < 1e-12


def test_partial_trace_recovers_kept_factor():
    pr = build("boxworld-pr").fragment
    bit = build("simplex-d", d=2).fragment
    comp = tensor(pr, bit)
    name_a = comp.subsystems[0][0]
    marg = partial_trace(comp, name_a)
    assert marg.dimension == 3
    for s in pr.states:
        assert np.allclose(state_vector(marg, f"{s.label}⊗p0"), s.vector, atol=1e-12)


def test_partial_trace_is_linear_on_mixtures():
    pr = build("boxworld-pr").fragment
    bit = build("simplex-d", d=2).fragment
    comp = tensor(pr, bit)
    s1 = state_vector(comp, "s0|0⊗p0")
    s2 = state_vector(comp, "s1|0⊗p1")
    mixed = Fragment(
        name="mixed",
        dimension=comp.dimension,
        unit_effect=comp.unit_effect,
        states=[GptVector("mix", 0.5 * s1 + 0.5 * s2, "state")],
        subsystems=comp.subsystems,
        subsystem_units=comp.subsystem_units,
    )
    name_a = comp.subsystems[0][0]
    traced = partial_trace(mixed, name_a)
    expect = 0.5 * state_vector(pr, "s0|0") + 0.5 * state_vector(pr, "s1|0")
    assert np.allclose(state_vector(traced, "mix"), expect, atol=1e-12)


def test_partial_trace_unknown_subsystem():
    comp = tensor(build("simplex-d", d=2).fragment, build("simplex-d", d=2).fragment)
    with pytest.raises(FormatError):
        partial_trace(comp, "nope")
    with pytest.raises(FormatError):
        partial_trace(build("boxworld-pr").fragment, "S")


def test_partial_trace_without_recorded_units_preserves_probabilities():
    # Composites loaded from files without per-factor units fall back to a
    # rank-1 split with a different scale gauge; probabilities and
    # identity coefficients are gauge-invariant and must survive.
    bit = build("simplex-d", d=2).fragment
    comp = tensor(bit, bit)
    stripped = Fragment(
        name=comp.name,
        dimension=comp.dimension,
        unit_effect=comp.unit_effect,
        states=comp.states,
        effects=comp.effects,
        measurements=comp.measurements,
        subsystems=comp.subsystems,
        subsystem_units=None,
    )
    name_a = comp.subsystems[0][0]
    marg = partial_trace(stripped, name_a)
    for s in marg.states:
        assert marg.unit_effect @ s.vector == pytest.approx(1.0, abs=1e-9)
    # Every kept point is the original scaled by one common positive factor.
    scale = float(np.sum(state_vector(marg, "p0⊗p0")))
    assert scale > 0
    for i in (0, 1):
        for j in (0, 1):
            got = state_vector(marg, f"p{i}⊗p{j}")
            assert np.allclose(got, scale * state_vector(bit, f"p{i}"), atol=1e-9)


def test_lab_notebook_marginal_effects_carry_over():
    ln = build("lab-notebook").fragment
    marg = partial_trace(ln, "S")
    assert {e.label for e in marg.effects} == {
        "e0|0⊗unitX",
        "e1|0⊗unitX",
        "e0|1⊗unitX",
        "e1|1⊗unitX",
    }
    assert len(marg.measurements) == 2
    # Traced diagonal states are exactly the square states.
    pr = build("boxworld-pr").fragment
    for i, s in enumerate(pr.states):
        assert np.allclose(state_vector(marg, f"{s.label}⊗δ{i}"), s.vector, atol=1e-12)


@pytest.mark.parametrize("label", ["unit", "zero"])
def test_measurement_with_reserved_outcome_rejected(label):
    # Response vertices cannot take a reserved outcome, so no fragment may list one.
    f = build("boxworld-pr").fragment
    with pytest.raises(FormatError, match="reserved labels"):
        Fragment(
            name="reserved-outcome",
            dimension=3,
            unit_effect=f.unit_effect,
            states=f.states,
            effects=f.effects,
            measurements=[*f.measurements, Measurement("trivial", (label,))],
        )


@pytest.mark.parametrize("label", ["unit", "zero"])
def test_effect_with_reserved_label_rejected(label):
    f = build("simplex-d", d=2).fragment
    with pytest.raises(FormatError, match="reserved"):
        Fragment(
            name="reserved",
            dimension=2,
            unit_effect=f.unit_effect,
            states=f.states,
            effects=[GptVector(label, f.effects[0].vector, "effect")],
        )
