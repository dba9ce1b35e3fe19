import numpy as np
import pytest

from classicality.errors import FormatError
from classicality.fragments import validate
from classicality.identities import find_identities
from classicality.scenarios import build


def test_every_scenario_validates():
    for name, params in [
        ("boxworld-pr", {}),
        ("boxworld-classical-mediary", {}),
        ("lab-notebook", {}),
        ("lab-notebook", {"variant": "B"}),
        ("qubit-stabilizer", {}),
        ("simplex-d", {"d": 5}),
    ]:
        bundle = build(name, **params)
        assert validate(bundle.fragment).passed, name


def test_unknown_scenario():
    with pytest.raises(FormatError):
        build("boxworld-nonsense")


@pytest.mark.parametrize("name, key", [("boxworld-pr", "d"), ("simplex-d", "variant")])
def test_parameter_the_scenario_does_not_take(name, key):
    with pytest.raises(FormatError, match=f"scenario '{name}' takes no parameter {key}"):
        build(name, **{key: "A"})


def test_pr_success_functional_is_maximal():
    stats = build("boxworld-pr").statistics
    success = 0.0
    for x_idx, (a, xs) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        for y in (0, 1):
            success += stats.tables[y][x_idx, a ^ (xs * y)] / 8.0
    assert success == pytest.approx(1.0, abs=1e-12)


def test_pr_identity_coefficients():
    pr = build("boxworld-pr").fragment
    ident = find_identities(pr, "states")[0]
    coeffs = np.array([c for _, c in ident.terms])
    # Proportional to (1/2, 1/2, -1/2, -1/2); canonical leading +1.
    assert np.allclose(coeffs / coeffs[0] / 2.0, [0.5, 0.5, -0.5, -0.5], atol=1e-9)


def test_classical_mediary_matches_pr_tables_with_independent_states():
    cm = build("boxworld-classical-mediary")
    pr = build("boxworld-pr")
    for y in (0, 1):
        assert np.allclose(cm.statistics.tables[y], pr.statistics.tables[y])
    assert find_identities(cm.fragment, "states") == []


def test_qubit_stabilizer_statistics():
    bundle = build("qubit-stabilizer")
    stats = bundle.statistics
    smat = {s: i for i, s in enumerate(stats.preparations)}
    for y, meas in enumerate(stats.measurements):
        axis = meas[-1]
        for prep, x in smat.items():
            p = stats.tables[y][x]
            if prep.endswith(axis):  # aligned pair: sharp outcome
                assert set(np.round(p, 12)) == {0.0, 1.0}
            else:  # mutually unbiased pair
                assert np.allclose(p, 0.5)


def test_simplex_is_identity_table():
    bundle = build("simplex-d", d=4)
    assert np.allclose(bundle.statistics.tables[0], np.eye(4))


def test_simplex_parameter_range():
    with pytest.raises(FormatError):
        build("simplex-d", d=0)


def test_lab_notebook_variants_differ_by_readout():
    a = build("lab-notebook").fragment
    b = build("lab-notebook", variant="B").fragment
    assert len(b.measurements) == len(a.measurements) + 1
    assert b.measurements[-1].label == "pointer-readout"
    assert a.subsystems == [("S", 3), ("X", 4)]
