"""Operational identities: exact linear relations among states or effects.

Identities are reported as a canonical basis of the coefficient null
space (reduced row echelon form, so each identity's first nonzero
coefficient is +1).  On composite fragments, marginalization-induced
identities are relations among the partial-traced states; for the
pointer composite these recover the single-system identities with the
same coefficients.

Approximate relations are never promoted to identities: a residual above
tolerance means there is no identity, and repairing noisy data is the
secondary-procedures module's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .fragments import UNIT_LABEL, Fragment, partial_trace
from .linalg import DEFAULT_RANK_TOL, null_space, rref


@dataclass
class OperationalIdentity:
    """Signed coefficients over labeled vectors summing to (nearly) zero.

    ``marginalization`` names the kept subsystem when the coefficients
    apply to partial-traced states.  Construction canonicalizes the scale
    so the first nonzero coefficient is +1.
    """

    side: str  # "states" | "effects"
    terms: list[tuple[str, float]]
    marginalization: str | None = None
    residual: float = 0.0

    def __post_init__(self):
        if self.side not in ("states", "effects"):
            raise FormatError(f"unknown identity side {self.side!r}")
        labels = [lab for lab, _ in self.terms]
        if len(set(labels)) != len(labels):
            twice = sorted({lab for lab in labels if labels.count(lab) > 1})
            raise FormatError(f"identity names labels {twice} more than once")
        coeffs = np.array([c for _, c in self.terms], dtype=float)
        if not (np.all(np.isfinite(coeffs)) and np.isfinite(self.residual)):
            raise FormatError("identity coefficients and residual must be finite")
        nonzero = np.flatnonzero(np.abs(coeffs) > 1e-12)
        if len(nonzero) < 2:
            raise FormatError("an identity needs at least two nonzero coefficients")
        lead = coeffs[nonzero[0]]
        if lead != 1.0:
            coeffs = coeffs / lead
            self.residual = float(self.residual / abs(lead))
        self.terms = [
            (lab, float(c))
            for (lab, _), c in zip(self.terms, coeffs)
            if abs(c) > 1e-12
        ]

    def coefficient_vector(self, labels: list[str]) -> np.ndarray:
        """The coefficients aligned with ``labels``, 0.0 where a label has no term.

        This is the one reader of ``terms``: each consumer lists the labels
        its vectors carry, reserved ``unit``/``zero`` included where they
        apply, and works with the returned array.  A term on a label
        outside ``labels`` raises FormatError.
        """
        by_label = dict(self.terms)
        unknown = set(by_label) - set(labels)
        if unknown:
            raise FormatError(f"identity references unknown labels {sorted(unknown)}")
        return np.array([by_label.get(lab, 0.0) for lab in labels])


def _side_vectors(fragment: Fragment, side: str):
    if side == "states":
        return [(v.label, v.vector) for v in fragment.states]
    if side == "effects":
        # The unit effect joins the stack so normalization-type relations
        # (e.g. an effect equal to half the unit) are expressible.
        return [(v.label, v.vector) for v in fragment.effects] + [
            (UNIT_LABEL, fragment.unit_effect)
        ]
    raise FormatError(f"unknown side {side!r}")


def identities_from_stack(
    labels, stack, side: str, tol: float = DEFAULT_RANK_TOL
) -> list[OperationalIdentity]:
    """Canonical identity basis for explicitly stacked labeled vectors."""
    stack = np.asarray(stack, dtype=float)
    scale = max(float(np.max(np.abs(stack))), 1.0)
    zero = [lab for lab, v in zip(labels, stack) if np.max(np.abs(v)) <= tol * scale]
    if zero:
        # A vanishing vector's only relation has a single term, which the
        # identity format cannot carry.
        raise FormatError(f"{side} vectors {zero} are zero; no identity form exists")
    basis = null_space(stack.T, tol)
    if not basis:
        return []
    canon = rref(np.array(basis), tol)
    out = []
    for row in canon:
        resid = float(np.max(np.abs(row @ stack)))
        out.append(
            OperationalIdentity(
                side=side,
                terms=list(zip(labels, map(float, row))),
                residual=resid,
            )
        )
    return out


def find_identities(
    fragment: Fragment, side: str = "states", tol: float = DEFAULT_RANK_TOL
) -> list[OperationalIdentity]:
    """Canonical basis of the linear dependences among one side's vectors.

    Returns the empty list exactly when the vectors are linearly
    independent at the given tolerance; otherwise the number of
    identities is (number of vectors) - rank.
    """
    labeled = _side_vectors(fragment, side)
    if len(labeled) < 2:
        raise FormatError(f"{side} side has fewer than 2 vectors")
    labels = [lab for lab, _ in labeled]
    stack = np.array([vec for _, vec in labeled])
    return identities_from_stack(labels, stack, side, tol)


def induced_marginal_identities(
    fragment: Fragment, keep: str, tol: float = DEFAULT_RANK_TOL
) -> list[OperationalIdentity]:
    """Identities among the partial-traced states, tagged with the kept factor.

    Linear dependences that are invisible on the composite (its states may
    be linearly independent) reappear after marginalization; the returned
    coefficients are exactly those of the traced-state dependences.
    """
    marginal = partial_trace(fragment, keep)
    found = find_identities(marginal, "states", tol)
    return [
        OperationalIdentity(
            side="states",
            terms=ident.terms,
            marginalization=keep,
            residual=ident.residual,
        )
        for ident in found
    ]

