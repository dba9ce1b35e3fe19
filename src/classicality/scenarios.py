"""Constructors for the worked example scenarios used as golden fixtures.

The Boxworld coordinates follow the fiducial-probability convention
(1, p(0|y=0), p(0|y=1)) with unit effect (1, 0, 0); probabilities are
plain dot products, as everywhere in this package.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .fragments import Fragment, GptVector, Measurement, StatisticsTable, predict

SCENARIO_NAMES = (
    "boxworld-pr",
    "boxworld-classical-mediary",
    "lab-notebook",
    "qubit-stabilizer",
    "simplex-d",
)


@dataclass
class ScenarioBundle:
    fragment: Fragment
    statistics: StatisticsTable


def build(name: str, **params) -> ScenarioBundle:
    """Build a named scenario; returns the fragment and its exact statistics."""
    builders = {
        "boxworld-pr": _boxworld_pr,
        "boxworld-classical-mediary": _classical_mediary,
        "lab-notebook": _lab_notebook,
        "qubit-stabilizer": _qubit_stabilizer,
        "simplex-d": _simplex,
    }
    if name not in builders:
        raise FormatError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        )
    builder = builders[name]
    unknown = sorted(set(params) - set(inspect.signature(builder).parameters))
    if unknown:
        raise FormatError(f"scenario {name!r} takes no parameter {', '.join(unknown)}")
    fragment = builder(**params)
    return ScenarioBundle(fragment=fragment, statistics=predict(fragment))


def _pr_state_label(a: int, x: int) -> str:
    return f"s{a}|{x}"


def _boxworld_pr() -> Fragment:
    """The square state space whose steered states realize a + b = x.y."""
    states = [
        GptVector("s0|0", [1.0, 1.0, 1.0], "state"),
        GptVector("s1|0", [1.0, 0.0, 0.0], "state"),
        GptVector("s0|1", [1.0, 1.0, 0.0], "state"),
        GptVector("s1|1", [1.0, 0.0, 1.0], "state"),
    ]
    effects = [
        GptVector("e0|0", [0.0, 1.0, 0.0], "effect"),
        GptVector("e1|0", [1.0, -1.0, 0.0], "effect"),
        GptVector("e0|1", [0.0, 0.0, 1.0], "effect"),
        GptVector("e1|1", [1.0, 0.0, -1.0], "effect"),
    ]
    return Fragment(
        name="boxworld-pr",
        dimension=3,
        unit_effect=[1.0, 0.0, 0.0],
        states=states,
        effects=effects,
        measurements=[
            Measurement("m0", ("e0|0", "e1|0")),
            Measurement("m1", ("e0|1", "e1|1")),
        ],
    )


def _classical_mediary() -> Fragment:
    """A classical system carrying (a, x) that reproduces the same P(AB|XY).

    Point distributions over the four (a, x) values; the b-readouts
    compute b = a + x.y, so those tables match boxworld-pr cell for cell.
    Reading the record itself is a legitimate classical measurement and is
    included: it is exactly what makes the four states perfectly
    distinguishable, hence linearly independent with no identities.
    """
    dim = 4
    states = []
    record_effects = []
    for x in (0, 1):
        for a in (0, 1):
            vec = np.zeros(dim)
            vec[2 * x + a] = 1.0
            states.append(GptVector(_pr_state_label(a, x), vec, "state"))
            record_effects.append(GptVector(f"record{a}|{x}", vec.copy(), "effect"))
    effects = []
    measurements = []
    for y in (0, 1):
        labels = []
        for b in (0, 1):
            vec = np.zeros(dim)
            for x in (0, 1):
                for a in (0, 1):
                    if (a ^ (x * y)) == b:
                        vec[2 * x + a] = 1.0
            lab = f"e{b}|{y}"
            effects.append(GptVector(lab, vec, "effect"))
            labels.append(lab)
        measurements.append(Measurement(f"m{y}", tuple(labels)))
    effects.extend(record_effects)
    measurements.append(
        Measurement("record-readout", tuple(e.label for e in record_effects))
    )
    return Fragment(
        name="boxworld-classical-mediary",
        dimension=dim,
        unit_effect=np.ones(dim),
        states=states,
        effects=effects,
        measurements=measurements,
    )


def _lab_notebook(variant: str = "A") -> Fragment:
    """Boxworld states paired with a four-valued pointer recording the choice.

    States are the four products s_x (x) delta_x, which are linearly
    independent.  Variant A measures the system alone (effects e (x) unit);
    variant B adds the pointer readout measurement.
    """
    if variant not in ("A", "B"):
        raise FormatError("lab-notebook variant must be 'A' or 'B'")
    pr = _boxworld_pr()
    pointer_dim = 4
    u_pointer = np.ones(pointer_dim)
    states = []
    for i, s in enumerate(pr.states):
        delta = np.zeros(pointer_dim)
        delta[i] = 1.0
        states.append(
            GptVector(f"{s.label}⊗δ{i}", np.kron(s.vector, delta), "state")
        )
    effects = [
        GptVector(f"{e.label}⊗unitX", np.kron(e.vector, u_pointer), "effect")
        for e in pr.effects
    ]
    measurements = [
        Measurement("m0", ("e0|0⊗unitX", "e1|0⊗unitX")),
        Measurement("m1", ("e0|1⊗unitX", "e1|1⊗unitX")),
    ]
    if variant == "B":
        readout = []
        for i in range(pointer_dim):
            delta = np.zeros(pointer_dim)
            delta[i] = 1.0
            lab = f"unitS⊗δ{i}"
            effects.append(
                GptVector(lab, np.kron(pr.unit_effect, delta), "effect")
            )
            readout.append(lab)
        measurements.append(Measurement("pointer-readout", tuple(readout)))
    return Fragment(
        name=f"lab-notebook-{variant}",
        dimension=3 * pointer_dim,
        unit_effect=np.kron(pr.unit_effect, u_pointer),
        states=states,
        effects=effects,
        measurements=measurements,
        subsystems=[("S", 3), ("X", pointer_dim)],
        subsystem_units=[pr.unit_effect.copy(), u_pointer],
    )


def _qubit_stabilizer() -> Fragment:
    """The six stabilizer states and three sharp measurements of a qubit."""
    axes = ("x", "y", "z")
    states = []
    effects = []
    measurements = []
    for i, ax in enumerate(axes):
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            vec = np.zeros(4)
            vec[0] = 1.0
            vec[i + 1] = sign
            states.append(GptVector(f"s{tag}{ax}", vec, "state"))
            effects.append(GptVector(f"e{tag}{ax}", vec / 2.0, "effect"))
        measurements.append(Measurement(f"m{ax}", (f"e+{ax}", f"e-{ax}")))
    return Fragment(
        name="qubit-stabilizer",
        dimension=4,
        unit_effect=[1.0, 0.0, 0.0, 0.0],
        states=states,
        effects=effects,
        measurements=measurements,
    )


def _simplex(d: int = 3) -> Fragment:
    """d perfectly distinguishable point states with their readout."""
    if not 1 <= int(d) <= 64:
        raise FormatError("simplex dimension must be between 1 and 64")
    d = int(d)
    states = [GptVector(f"p{i}", np.eye(d)[i], "state") for i in range(d)]
    effects = [GptVector(f"r{i}", np.eye(d)[i], "effect") for i in range(d)]
    return Fragment(
        name=f"simplex-{d}",
        dimension=d,
        unit_effect=np.ones(d),
        states=states,
        effects=effects,
        measurements=[Measurement("readout", tuple(f"r{i}" for i in range(d)))],
    )
