"""Secondary states and effects: repairing imperfect operational identities.

Realized (noisy) vectors generally miss their target identities.  The
first remedy constructs secondary vectors inside the convex hull of the
realized ones that satisfy every target identity exactly; the price is
that secondaries are noisier than the realized originals whenever those
violate the targets.  The mixing weights come from a linear program
maximizing the total diagonal weight, so each secondary stays as close
to its primary as the constraints allow.

(The second remedy -- re-deriving identities from the realized vectors
 themselves -- is `identities.find_identities` applied to the noisy data
 at a suitable tolerance.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .fragments import UNIT_LABEL, ZERO_LABEL
from .lp import LinearProgram, farkas_gap, solve


@dataclass
class SecondarySolution:
    """Row-stochastic mixing weights and the secondary vectors they define."""

    target_labels: list[str]
    mixer_labels: list[str]
    weights: np.ndarray  # (targets, mixers), rows sum to 1
    secondaries: np.ndarray  # (targets, dim)
    residuals: list[float]  # per target identity, infinity norm
    primary_weight: np.ndarray  # diagonal weights c_xx
    feasible: bool = True
    farkas_margin: float | None = None


def secondary_states(realized, targets) -> SecondarySolution:
    """Secondary states in the hull of the realized ones meeting the targets.

    ``realized`` is a list of (label, vector) pairs; identity coefficients
    refer to the secondary counterparts of those labels.  Infeasible
    targets return a solution flagged infeasible with its Farkas margin.
    """
    labels, vectors = _unpack(realized)
    for ident in targets:
        if ident.side != "states":
            raise FormatError("secondary_states takes state-side identities")
    return _solve_mixing(labels, labels, vectors, targets)


def secondary_effects(realized, unit_effect, targets) -> SecondarySolution:
    """Secondary effects mixed from the realized ones plus zero and unit.

    The zero and unit effects are always physically available, so the hull
    is taken inside the order interval [0, unit]; identity terms may
    reference the reserved ``unit``/``zero`` labels, which stand for the
    fixed vectors rather than for secondaries, so no realized effect may
    carry either label.
    """
    labels, vectors = _unpack(realized)
    if UNIT_LABEL in labels or ZERO_LABEL in labels:
        raise FormatError("realized effects cannot use the reserved unit or zero label")
    unit = np.asarray(unit_effect, dtype=float)
    for ident in targets:
        if ident.side != "effects":
            raise FormatError("secondary_effects takes effect-side identities")
    mixers = np.vstack([vectors, np.zeros_like(unit)[None, :], unit[None, :]])
    return _solve_mixing(labels, labels + [ZERO_LABEL, UNIT_LABEL], mixers, targets)


def _unpack(realized):
    labels = [lab for lab, _ in realized]
    if len(labels) != len(set(labels)):
        raise FormatError("duplicate realized labels")
    if not labels:
        raise FormatError("no realized vectors given")
    vectors = np.array([np.asarray(v, dtype=float) for _, v in realized])
    return labels, vectors


def _identity_rows(alpha, n_t, mixers):
    """Rows and right-hand side of sum_x alpha_x secondary_x + constants = 0."""
    n_m, dim = mixers.shape
    rows = np.zeros((dim, n_t * n_m))
    const = np.zeros(dim)
    for k in np.flatnonzero(alpha):
        if k < n_t:
            rows[:, k * n_m : (k + 1) * n_m] += alpha[k] * mixers.T
        else:
            const += alpha[k] * mixers[k]
    return rows, -const


def _solve_mixing(labels, mixer_labels, mixers, targets):
    """Secondaries for ``labels``, the leading mixers; later mixers are fixed vectors."""
    n_t = len(labels)
    n_m = len(mixer_labels)
    dim = mixers.shape[1]
    nv = n_t * n_m  # weights c[x, y], x-major
    # Index of the diagonal weights c_xx: each target mixed from its own primary.
    diag = (np.arange(n_t), np.arange(n_t))

    # Rows: sum_y c[x, y] = 1 per target x, then each identity's block.
    alphas = [ident.coefficient_vector(mixer_labels) for ident in targets]
    blocks = [_identity_rows(alpha, n_t, mixers) for alpha in alphas]
    objective = np.zeros((n_t, n_m))
    objective[diag] = 1.0
    lp = LinearProgram(
        n_vars=nv,
        objective=objective.reshape(-1),
        sense="max",
        a_eq=np.vstack([np.repeat(np.eye(n_t), n_m, axis=1)] + [a for a, _ in blocks]),
        b_eq=np.concatenate([np.ones(n_t)] + [b for _, b in blocks]),
        upper=np.ones(nv),
    )
    sol = solve(lp)
    if sol.status == "infeasible":
        _, margin = farkas_gap(lp, sol.farkas)
        return SecondarySolution(
            target_labels=list(labels),
            mixer_labels=list(mixer_labels),
            weights=np.zeros((n_t, n_m)),
            secondaries=np.zeros((n_t, dim)),
            residuals=[np.inf for _ in targets],
            primary_weight=np.zeros(n_t),
            feasible=False,
            farkas_margin=float(margin),
        )

    weights = np.maximum(sol.x.reshape(n_t, n_m), 0.0)
    secondaries = weights @ mixers
    resolved = np.vstack([secondaries, mixers[n_t:]])
    residuals = []
    for alpha in alphas:
        total = np.zeros(dim)
        for k in np.flatnonzero(alpha):
            total += alpha[k] * resolved[k]
        residuals.append(float(np.max(np.abs(total))))
    return SecondarySolution(
        target_labels=list(labels),
        mixer_labels=list(mixer_labels),
        weights=weights,
        secondaries=secondaries,
        residuals=residuals,
        primary_weight=weights[diag],
    )
