"""Seeded input generators for the benchmark workloads.

Every random draw comes from ``stream(seed, label)``, a numpy generator
keyed by the workload seed and a CRC-32 of a fixed label, so the same
seed gives byte-identical inputs in every process (no ``hash()``).
Only numpy and classicality are imported here: these generators run
inside the measured set-up time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

import classicality as C
from classicality.fragments import Fragment, GptVector, Measurement

# Truth for the canonical scenarios: accessible dimension and whether the
# fragment admits a simplex embedding (a noncontextual model).
SCENARIOS = {
    "pr": ("boxworld-pr", {}, 3, False),
    "med": ("boxworld-classical-mediary", {}, 4, True),
    "labA": ("lab-notebook", {"variant": "A"}, 3, False),
    "labB": ("lab-notebook", {"variant": "B"}, 4, True),
    "stab": ("qubit-stabilizer", {}, 4, True),
    "bit": ("simplex-d", {"d": 2}, 2, True),
    "tri": ("simplex-d", {"d": 3}, 3, True),
    "s4": ("simplex-d", {"d": 4}, 4, True),
}

POLYGON_SIDES = (4, 5, 6, 7, 8, 9, 10, 11, 16, 20, 24)

# Tensor composites (a, b); each pair is listed in both factor orders.
COMPOSITES = (
    ("bit", "bit"),
    ("bit", "pr"),
    ("pr", "bit"),
    ("bit", "stab"),
    ("bit", "labB"),
    ("labB", "bit"),
)

# (scenario key, trials per cell, tables drawn per pass) for counts -> verdict.
# 21 tables per pass, so that in the shortest run (five passes) the median
# falls among the pr and lab-notebook tables and the p90 tail among the
# simplex-4 ones, whatever the number of passes.
COUNT_TABLES = (
    ("pr", 10_000, 4),
    ("labA", 10_000, 4),
    ("bit", 10_000, 4),
    ("tri", 10_000, 4),
    ("s4", 10_000, 4),
    ("med", 10_000, 1),
)

# Inputs that fail today; kept out of the measured workloads (see README).
DEFECT_COMPOSITES = (("stab", "bit"), ("tri", "pr"), ("pr", "tri"), ("pr", "pr"))
DEFECT_POLYGON_SIDES = (12,)
DEFECT_COUNT_TABLES = (("pentagon", 10_000, 1),)
# Qubit-stabilizer counts fail on some draws: at 1e5 trials test_embeddability's
# LP breaks on about one fitted fragment in five; at 1e3 trials the noise-aware
# verdict is wrong on about one draw in a hundred.  (trials, synth seed, fit seed)
# of one failing draw each:
DEFECT_STAB_DRAWS = ((100_000, 473178112, 643056845), (1_000, 65287071, 698041073))
DEFECT_NOISY_STAB_SEED = 2  # secondary_states on this noisy stabilizer copy fails


def stream(seed: int, label: str) -> np.random.Generator:
    """Generator for one named use of the workload seed."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode("utf-8"))])


def derived_seed(seed: int, label: str) -> int:
    return int(stream(seed, label).integers(2**31 - 1))


def scenario(key: str) -> Fragment:
    name, params, _, _ = SCENARIOS[key]
    return C.build(name, **params).fragment


def regular_polygon(n: int) -> Fragment:
    """Regular n-gon state space with its facet effects and their complements.

    States are (1, cos t, sin t) on the vertices; facet effect f_j vanishes
    on the edge between vertices j and j+1 and reaches 1 on the farthest
    vertex; measurement m_j is (f_j, unit - f_j).
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    unit = np.array([1.0, 0.0, 0.0])
    c = np.cos(np.pi / n)
    states = [
        GptVector(f"s{i}", [1.0, np.cos(t), np.sin(t)], "state")
        for i, t in enumerate(theta)
    ]
    effects, measurements = [], []
    for j in range(n):
        phi = theta[j] + np.pi / n
        top = float(np.max(c - np.cos(theta - phi)))
        facet = np.array([c, -np.cos(phi), -np.sin(phi)]) / top
        effects.append(GptVector(f"f{j}", facet, "effect"))
        effects.append(GptVector(f"g{j}", unit - facet, "effect"))
        measurements.append(Measurement(f"m{j}", (f"f{j}", f"g{j}")))
    return Fragment(
        name=f"polygon-{n}",
        dimension=3,
        unit_effect=unit,
        states=states,
        effects=effects,
        measurements=measurements,
    )


def composite(a: str, b: str) -> Fragment:
    return C.tensor(scenario(a), scenario(b))


def noisy_copy(fragment: Fragment, seed: int, label: str, scale: float = 0.02) -> Fragment:
    """States perturbed by seeded Gaussian noise orthogonal to the unit.

    The noise keeps every state normalized but breaks the exact
    operational identities, which is what secondary procedures repair.
    """
    rng = stream(seed, f"noisy:{label}")
    unit = fragment.unit_effect
    states = []
    for s in fragment.states:
        noise = rng.normal(0.0, scale, size=fragment.dimension)
        noise -= (noise @ unit) / (unit @ unit) * unit
        states.append(GptVector(s.label, s.vector + noise, "state"))
    return replace(fragment, name=f"{fragment.name}+noise", states=states)


@dataclass
class CountInput:
    """One count table per pass, drawn afresh from the workload seed."""

    name: str
    fragment: Fragment  # the generating fragment
    trials: int
    seed: int  # the workload seed
    dimension: int  # true dimension of the generating fragment
    embeddable: bool  # truth for the generating fragment
    pinned: tuple[int, int] | None = None  # fixed (synth, fit) seeds, every pass

    def seeds(self, pass_index: int) -> tuple[int, int]:
        """(synth seed, fit seed) of one pass."""
        if self.pinned is not None:
            return self.pinned
        label = f"{self.name}:{pass_index}"
        return derived_seed(self.seed, f"synth:{label}"), derived_seed(self.seed, f"fit:{label}")

    def counts(self, pass_index: int) -> C.CountTable:
        return C.synth(self.fragment, self.trials, self.seeds(pass_index)[0])


def count_inputs(tables, seed: int) -> list[CountInput]:
    """``tables`` holds (scenario key or "pentagon", trials per cell, draws per pass)."""
    out = []
    for key, trials, draws in tables:
        if key == "pentagon":
            fragment, dim, emb = regular_polygon(5), 3, False
        else:
            fragment = scenario(key)
            _, _, dim, emb = SCENARIOS[key]
        for draw in range(draws):
            out.append(CountInput(f"counts:{key}@{trials}#{draw}", fragment, trials, seed, dim, emb))
    return out


def order(seed: int, label: str, n: int) -> list[int]:
    """Seeded permutation of range(n), one per label."""
    return [int(i) for i in stream(seed, f"order:{label}").permutation(n)]
