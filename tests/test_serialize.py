"""The file formats: every writer's output reads back to the same bytes, and
every reader turns a malformed object into FormatError."""

import json
from dataclasses import replace

import pytest

from classicality import serialize
from classicality.errors import FormatError
from classicality.identities import find_identities, induced_marginal_identities
from classicality.noncontextuality import NoncontextualityInequality, membership
from classicality.scenarios import SCENARIO_NAMES, build
from classicality.tomography import synth


def _round_trip(to_obj, from_obj, value):
    """dumps(to_obj(value)), after checking a read-back dumps to the same bytes."""
    text = serialize.dumps(to_obj(value))
    again = serialize.dumps(to_obj(from_obj(json.loads(text))))
    assert again == text
    return text


@pytest.fixture(scope="module", params=SCENARIO_NAMES)
def bundle(request):
    return build(request.param)


def test_fragment_round_trip(bundle):
    fragment = replace(
        bundle.fragment, extra={"experiment_id": "run-42", "notes": {"operator": "a"}}
    )
    text = _round_trip(serialize.fragment_to_obj, serialize.fragment_from_obj, fragment)
    obj = json.loads(text)
    assert obj["experiment_id"] == "run-42"
    if fragment.subsystem_units is not None:
        assert all("unit" in s for s in obj["subsystems"])


def test_statistics_round_trip(bundle):
    _round_trip(serialize.statistics_to_obj, serialize.statistics_from_obj, bundle.statistics)


def test_counts_round_trip(bundle):
    counts = synth(bundle.fragment, 100, seed=3)
    _round_trip(serialize.counts_to_obj, serialize.counts_from_obj, counts)


@pytest.mark.parametrize("side", ["states", "effects"])
def test_identities_round_trip(bundle, side):
    idents = find_identities(bundle.fragment, side)
    _round_trip(serialize.identities_to_obj, serialize.identities_from_obj, idents)


def test_marginal_identities_round_trip_keep_their_subsystem():
    idents = induced_marginal_identities(build("lab-notebook").fragment, "S")
    text = _round_trip(serialize.identities_to_obj, serialize.identities_from_obj, idents)
    assert [i["keep_subsystem"] for i in json.loads(text)] == ["S"]


def test_inequality_round_trip(bundle):
    stats = bundle.statistics
    # Any functional of the table will do; its bound need not be tight.
    made_up = NoncontextualityInequality(
        preparations=list(stats.preparations),
        measurements=list(stats.measurements),
        outcomes=[list(o) for o in stats.outcomes],
        coefficients=[t / 3.0 for t in stats.tables],
        bound=0.25,
        provenance="round-trip",
    )
    _round_trip(serialize.inequality_to_obj, serialize.inequality_from_obj, made_up)


def test_farkas_inequality_round_trip():
    pr = build("boxworld-pr")
    mem = membership(pr.statistics, find_identities(pr.fragment, "states"))
    assert not mem.feasible
    _round_trip(serialize.inequality_to_obj, serialize.inequality_from_obj, mem.inequality)


def _stats_obj(**over):
    return {"preparations": ["a"], "measurements": ["m"], "outcomes": [["0", "1"]],
            "p": [[[0.5, 0.5]]], **over}


def _counts_obj(**over):
    return {"preparations": ["a"], "measurements": ["m"], "outcomes": [["0", "1"]],
            "counts": [[[4, 6]]], "trials": [[10]], **over}


def _identity_obj(**over):
    terms = [{"label": "a", "coefficient": 1.0}, {"label": "b", "coefficient": -1.0}]
    return [{"side": "states", "terms": terms, **over}]


def _inequality_obj(term=None, **over):
    term = term or {"x": "a", "y": "m", "b": "0", "c": 1.0}
    return {"preparations": ["a"], "measurements": ["m"], "outcomes": [["0", "1"]],
            "coefficients": [term], "bound": 0.5, **over}


_FRAGMENT = serialize.fragment_to_obj(build("simplex-d", d=2).fragment)

# reader, malformed object, the error the boundary turns into FormatError
# (None: the reader raises FormatError itself).
MALFORMED = {
    "fragment dimension not a number": (
        serialize.fragment_from_obj, {**_FRAGMENT, "dimension": "two"}, ValueError),
    "fragment dimension a list": (
        serialize.fragment_from_obj, {**_FRAGMENT, "dimension": [2]}, TypeError),
    "fragment without unit effect": (
        serialize.fragment_from_obj, {"dimension": 2}, None),
    "fragment not an object": (serialize.fragment_from_obj, [_FRAGMENT], None),
    "statistics p too short": (serialize.statistics_from_obj, _stats_obj(p=[]), IndexError),
    "statistics p a number": (serialize.statistics_from_obj, _stats_obj(p=3), TypeError),
    "statistics without outcomes": (
        serialize.statistics_from_obj, {"preparations": [], "measurements": []}, None),
    "counts keyed by label": (
        serialize.counts_from_obj, _counts_obj(counts={"a": 1}), KeyError),
    "counts not integers": (
        serialize.counts_from_obj, _counts_obj(counts=[[["4", "x"]]]), ValueError),
    "trials beyond int64": (
        serialize.counts_from_obj, _counts_obj(trials=[[10**30]]), OverflowError),
    "identity terms not objects": (
        serialize.identities_from_obj, [{"side": "states", "terms": [1, 2]}], TypeError),
    "identity coefficient not a number": (
        serialize.identities_from_obj,
        [{"side": "states", "terms": [{"label": "a", "coefficient": "x"}]}], ValueError),
    "identity file an object": (serialize.identities_from_obj, {"terms": []}, None),
    "identity coefficient not finite": (
        serialize.identities_from_obj,
        [{"side": "states", "terms": [{"label": "a", "coefficient": 1.0},
                                      {"label": "b", "coefficient": float("nan")},
                                      {"label": "c", "coefficient": -1.0}]}],
        None),
    "identity residual not finite": (
        serialize.identities_from_obj, _identity_obj(residual=float("inf")), None),
    "inequality term without c": (
        serialize.inequality_from_obj, _inequality_obj({"x": "a", "y": "m", "b": "0"}),
        KeyError),
    "inequality term on an unknown outcome": (
        serialize.inequality_from_obj,
        _inequality_obj({"x": "a", "y": "m", "b": "2", "c": 1.0}), ValueError),
    "inequality outcomes shorter than measurements": (
        serialize.inequality_from_obj, _inequality_obj(outcomes=[]), IndexError),
    "inequality bound not finite": (
        serialize.inequality_from_obj, _inequality_obj(bound=float("nan")), None),
    "inequality coefficient not finite": (
        serialize.inequality_from_obj,
        _inequality_obj({"x": "a", "y": "m", "b": "1", "c": float("-inf")}), None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_reader_turns_malformed_input_into_format_error(case):
    reader, obj, cause = MALFORMED[case]
    # Through JSON text, as the CLI reads it (NaN and Infinity included).
    obj = json.loads(json.dumps(obj))
    with pytest.raises(FormatError) as info:
        reader(obj)
    if cause is None:
        assert not str(info.value).startswith("malformed ")
    else:
        assert isinstance(info.value.__cause__, cause)
        assert str(info.value).startswith("malformed ")


def test_well_formed_objects_above_are_accepted():
    # So each malformed case differs from a valid file only in its one defect.
    serialize.statistics_from_obj(_stats_obj())
    serialize.counts_from_obj(_counts_obj())
    serialize.identities_from_obj(_identity_obj())
    serialize.inequality_from_obj(_inequality_obj())
    assert serialize.fragment_from_obj(_FRAGMENT).dimension == 2
