"""Explicit ontological models: epistemic states and response functions.

A model is a finite ontic space with a probability table mu per
preparation and a response table xi per measurement outcome.  The
verifier checks the full contract: nonnegativity, normalization,
reproduction of a statistics table, and respect for operational
identities on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fragments import UNIT_LABEL, ZERO_LABEL, StatisticsTable


@dataclass
class OntologicalModel:
    ontic_labels: list[str]
    preparations: list[str]
    measurements: list[str]
    outcomes: list[list[str]]  # outcome effect labels per measurement
    mu: np.ndarray  # (preparations, ontic states)
    xi: list[np.ndarray]  # per measurement: (outcomes, ontic states)

    @property
    def size(self) -> int:
        return len(self.ontic_labels)

    def statistics(self) -> StatisticsTable:
        tables = [self.mu @ x.T for x in self.xi]
        return StatisticsTable(
            preparations=list(self.preparations),
            measurements=list(self.measurements),
            outcomes=[list(o) for o in self.outcomes],
            tables=tables,
        )


@dataclass
class ModelCheck:
    passed: bool
    worst: dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        bits = ", ".join(f"{k}={v:.2e}" for k, v in self.worst.items())
        return ("pass" if self.passed else "FAIL") + f" ({bits})"


def verify_model(
    model: OntologicalModel,
    stats: StatisticsTable | None = None,
    state_identities=(),
    effect_identities=(),
    tol: float = 1e-7,
) -> ModelCheck:
    """Check every ontological-model invariant at one tolerance."""
    worst: dict[str, float] = {}
    worst["mu nonnegative"] = float(max(0.0, -np.min(model.mu, initial=0.0)))
    worst["mu normalized"] = float(np.max(np.abs(model.mu.sum(axis=1) - 1.0)))
    xi_low = min((np.min(x, initial=0.0) for x in model.xi), default=0.0)
    xi_high = max((np.max(x, initial=1.0) for x in model.xi), default=1.0)
    worst["xi in [0,1]"] = float(max(0.0, -xi_low, xi_high - 1.0))
    norm = 0.0
    for x in model.xi:
        if x.size:
            norm = max(norm, float(np.max(np.abs(x.sum(axis=0) - 1.0))))
    worst["xi normalized"] = norm

    if stats is not None:
        mine = model.statistics()
        err = 0.0
        for y in range(len(stats.measurements)):
            err = max(err, float(np.max(np.abs(mine.tables[y] - stats.tables[y]))))
        worst["reproduces statistics"] = err

    err = 0.0
    for ident in state_identities:
        alpha = ident.coefficient_vector(model.preparations)
        err = max(err, float(np.max(np.abs(alpha @ model.mu))))
    worst["state identities"] = err

    # Response functions by distinct outcome label, first seen; the unit
    # responds with 1 and the zero effect with 0.
    responses: dict[str, np.ndarray] = {}
    for outs, x in zip(model.outcomes, model.xi):
        for lab, row in zip(outs, x):
            responses.setdefault(lab, row)
    responses[UNIT_LABEL] = np.ones(model.size)
    responses[ZERO_LABEL] = np.zeros(model.size)
    table = np.array(list(responses.values()))
    err = 0.0
    for ident in effect_identities:
        alpha = ident.coefficient_vector(list(responses))
        err = max(err, float(np.max(np.abs(alpha @ table))))
    worst["effect identities"] = err

    return ModelCheck(passed=all(v <= tol for v in worst.values()), worst=worst)
