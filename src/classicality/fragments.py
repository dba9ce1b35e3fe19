"""The GPT data model: states, effects, measurements, and composites.

A fragment holds the finitely many state and effect vectors realized in a
prepare-measure experiment.  Probabilities are plain dot products e . s;
every scenario constructor and file format in this package uses that one
convention.  Fragments are treated as immutable after construction, so
all operations here are pure and re-entrant.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import FormatError, ResourceLimitError

UNIT_LABEL = "unit"  # reserved label resolving to the unit effect
ZERO_LABEL = "zero"  # reserved label resolving to the zero effect

MAX_TENSOR_DIM = 256


@dataclass
class GptVector:
    label: str
    vector: np.ndarray
    kind: str  # "state" | "effect"

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=float).reshape(-1)
        if not self.label:
            raise FormatError("vector label must be nonempty")
        if self.kind not in ("state", "effect"):
            raise FormatError(f"unknown vector kind {self.kind!r}")
        if not np.all(np.isfinite(self.vector)):
            raise FormatError(f"vector {self.label!r} has non-finite entries")


@dataclass
class Measurement:
    label: str
    effects: tuple[str, ...]  # ordered outcome effect labels


@dataclass
class Fragment:
    name: str
    dimension: int
    unit_effect: np.ndarray
    states: list[GptVector] = field(default_factory=list)
    effects: list[GptVector] = field(default_factory=list)
    measurements: list[Measurement] = field(default_factory=list)
    subsystems: list[tuple[str, int]] | None = None
    subsystem_units: list[np.ndarray] | None = None  # per-factor unit effects
    extra: dict = field(default_factory=dict)  # unknown file keys, round-tripped

    def __post_init__(self):
        self.unit_effect = np.asarray(self.unit_effect, dtype=float).reshape(-1)
        if self.unit_effect.shape != (self.dimension,):
            raise FormatError("unit effect dimension mismatch")
        if not np.all(np.isfinite(self.unit_effect)):
            raise FormatError("unit effect has non-finite entries")
        for v in self.states + self.effects:
            if v.vector.shape != (self.dimension,):
                raise FormatError(
                    f"{v.kind} {v.label!r} has dimension {v.vector.shape[0]}, "
                    f"expected {self.dimension}"
                )
        for kind, vecs in (("state", self.states), ("effect", self.effects)):
            labels = [v.label for v in vecs]
            if len(set(labels)) != len(labels):
                raise FormatError(f"duplicate {kind} labels")
        reserved = [v.label for v in self.effects if v.label in (UNIT_LABEL, ZERO_LABEL)]
        if reserved:
            raise FormatError(f"effect labels {reserved} are reserved")
        for m in self.measurements:
            reserved = [lab for lab in m.effects if lab in (UNIT_LABEL, ZERO_LABEL)]
            if reserved:
                raise FormatError(
                    f"measurement {m.label!r}: reserved labels {reserved} cannot be outcomes"
                )
        if self.subsystems is not None:
            prod = 1
            for _, d in self.subsystems:
                prod *= d
            if prod != self.dimension:
                raise FormatError("subsystem dimensions do not multiply to d")

    # -- lookups ---------------------------------------------------------

    def effect(self, label: str) -> np.ndarray:
        if label == UNIT_LABEL:
            return self.unit_effect
        if label == ZERO_LABEL:
            return np.zeros(self.dimension)
        for v in self.effects:
            if v.label == label:
                return v.vector
        raise FormatError(f"unknown effect label {label!r}")

    def state_matrix(self) -> np.ndarray:
        return np.array([v.vector for v in self.states]).reshape(
            len(self.states), self.dimension
        )

    def effect_matrix(self) -> np.ndarray:
        return np.array([v.vector for v in self.effects]).reshape(
            len(self.effects), self.dimension
        )


@dataclass
class StatisticsTable:
    """Outcome probabilities p(b | x, y), stored per measurement.

    ``tables[y]`` has shape (preparations, outcomes of measurement y).
    Entries must lie in [0, 1] up to ``tol``, which ``predict`` sets to the
    tolerance it validated the fragment at.
    """

    preparations: list[str]
    measurements: list[str]
    outcomes: list[list[str]]
    tables: list[np.ndarray]
    tol: InitVar[float] = 1e-9

    def __post_init__(self, tol):
        self.tables = [np.asarray(t, dtype=float) for t in self.tables]
        nx = len(self.preparations)
        if len(self.measurements) != len(self.tables) or len(self.outcomes) != len(
            self.tables
        ):
            raise FormatError("statistics table shape mismatch")
        for t, outs in zip(self.tables, self.outcomes):
            if t.shape != (nx, len(outs)):
                raise FormatError("statistics table shape mismatch")
            if not np.all(np.isfinite(t)):
                raise FormatError("statistics entries must be finite")
            if t.size and (t.min() < -tol or t.max() > 1 + tol):
                raise FormatError("statistics entries must lie in [0, 1]")


@dataclass
class Violation:
    kind: str
    labels: tuple[str, ...]
    magnitude: float

    def describe(self) -> str:
        return f"{self.kind} {'/'.join(self.labels)}: off by {self.magnitude:.3e}"


@dataclass
class ValidationReport:
    passed: bool
    violations: list[Violation]


def validate(fragment: Fragment, tol: float = 1e-9) -> ValidationReport:
    """Check the probabilistic consistency of a fragment.

    Structural problems (dimension mismatches, duplicate labels) raise
    FormatError at construction; this reports the numerical invariants:
    state normalization, probability bounds, measurement normalization
    and measurement references.
    """
    out: list[Violation] = []
    u = fragment.unit_effect
    for s in fragment.states:
        err = abs(u @ s.vector - 1.0)
        if err > tol:
            out.append(Violation("state normalization", (s.label,), err))
    probs = fragment.effect_matrix() @ fragment.state_matrix().T  # (effects, states)
    errs = np.maximum(-probs, probs - 1.0)
    for i, j in zip(*np.nonzero(errs > tol)):
        labels = (fragment.effects[i].label, fragment.states[j].label)
        out.append(Violation("probability bounds", labels, float(errs[i, j])))
    known = {e.label for e in fragment.effects}
    for m in fragment.measurements:
        missing = [lab for lab in m.effects if lab not in known]
        if missing:
            out.append(Violation("measurement reference", (m.label, *missing), np.inf))
            continue
        total = sum((fragment.effect(lab) for lab in m.effects), np.zeros(fragment.dimension))
        err = float(np.max(np.abs(total - u)))
        if err > tol:
            out.append(Violation("measurement normalization", (m.label,), err))
    return ValidationReport(passed=not out, violations=out)


def require_valid(fragment: Fragment, tol: float = 1e-9) -> None:
    report = validate(fragment, tol)
    if not report.passed:
        detail = "; ".join(v.describe() for v in report.violations[:4])
        raise FormatError(f"fragment {fragment.name!r} fails validation: {detail}")


def predict(fragment: Fragment, tol: float = 1e-9) -> StatisticsTable:
    """p(b | x, y) = e_(b|y) . s_x for every state, measurement, outcome."""
    require_valid(fragment, tol)
    tables = []
    outcomes = []
    smat = fragment.state_matrix()
    for m in fragment.measurements:
        emat = np.array([fragment.effect(lab) for lab in m.effects])
        tables.append(smat @ emat.T)
        outcomes.append(list(m.effects))
    return StatisticsTable(
        preparations=[s.label for s in fragment.states],
        measurements=[m.label for m in fragment.measurements],
        outcomes=outcomes,
        tables=tables,
        tol=tol,
    )


def tensor(a: Fragment, b: Fragment, tol: float = 1e-9) -> Fragment:
    """Composite fragment with all pairwise Kronecker products.

    States, effects and measurements are the products of the factors';
    the unit effect is u_a (x) u_b, and predictions factorize exactly on
    product pairs.
    """
    require_valid(a, tol)
    require_valid(b, tol)
    dim = a.dimension * b.dimension
    if dim > MAX_TENSOR_DIM:
        raise ResourceLimitError(
            f"composite dimension {dim} exceeds limit {MAX_TENSOR_DIM}"
        )
    name_a, name_b = (a.name, b.name) if a.name != b.name else (a.name + "-1", b.name + "-2")
    states = [
        GptVector(f"{sa.label}⊗{sb.label}", _kron(sa.vector, sb.vector), "state")
        for sa in a.states
        for sb in b.states
    ]
    effects = [
        GptVector(f"{ea.label}⊗{eb.label}", _kron(ea.vector, eb.vector), "effect")
        for ea in a.effects
        for eb in b.effects
    ]
    measurements = [
        Measurement(
            f"{ma.label}⊗{mb.label}",
            tuple(f"{la}⊗{lb}" for la in ma.effects for lb in mb.effects),
        )
        for ma in a.measurements
        for mb in b.measurements
    ]
    return Fragment(
        name=f"{a.name}⊗{b.name}",
        dimension=dim,
        unit_effect=_kron(a.unit_effect, b.unit_effect),
        states=states,
        effects=effects,
        measurements=measurements,
        subsystems=[(name_a, a.dimension), (name_b, b.dimension)],
        subsystem_units=[a.unit_effect.copy(), b.unit_effect.copy()],
    )


def _kron(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # + 0.0 clears the -0.0 that np.kron writes where a negative entry meets a 0.0.
    return np.kron(u, v) + 0.0


def _subsystem_index(fragment: Fragment, keep: str) -> int:
    if not fragment.subsystems:
        raise FormatError("fragment carries no subsystem tags")
    for i, (name, _) in enumerate(fragment.subsystems):
        if name == keep:
            return i
    raise FormatError(f"unknown subsystem {keep!r}")


def contract_discarded(
    vector: np.ndarray,
    dims: list[int],
    keep_axis: int,
    units: list[np.ndarray],
) -> np.ndarray:
    """Contract every discarded tensor factor with its unit effect."""
    t = np.asarray(vector, dtype=float).reshape(dims)
    for axis in reversed(range(len(dims))):
        if axis == keep_axis:
            continue
        t = np.tensordot(t, units[axis], axes=([axis], [0]))
    return t.reshape(-1)


def partial_trace(fragment: Fragment, keep: str, tol: float = 1e-9) -> Fragment:
    """Marginal fragment on one subsystem.

    States are contracted with the discarded units; effects carry over
    exactly when they act as (effect on kept) (x) (unit elsewhere).
    """
    idx = _subsystem_index(fragment, keep)
    dims = [d for _, d in fragment.subsystems]
    kept_dim = dims[idx]

    # Per-factor unit effects: recorded by tensor(); composites loaded from
    # file fall back to a rank-1 split of the composite unit, which fixes
    # the scale gauge by giving every factor but the last unit norm.
    if fragment.subsystem_units is not None:
        units = [np.asarray(u, dtype=float) for u in fragment.subsystem_units]
        if [len(u) for u in units] != dims:
            raise FormatError("subsystem unit effects do not match dimensions")
    else:
        units = _factor_units(fragment.unit_effect, dims)

    states = [
        GptVector(s.label, contract_discarded(s.vector, dims, idx, units), "state")
        for s in fragment.states
    ]
    unit_kept = units[idx]

    effects = []
    carried = set()
    for e in fragment.effects:
        cand = _factor_effect(e.vector, dims, idx, units, tol)
        if cand is not None:
            effects.append(GptVector(e.label, cand, "effect"))
            carried.add(e.label)
    measurements = [
        m for m in fragment.measurements if all(lab in carried for lab in m.effects)
    ]
    return Fragment(
        name=f"{fragment.name}[{keep}]",
        dimension=kept_dim,
        unit_effect=unit_kept,
        states=states,
        effects=effects,
        measurements=measurements,
    )


def _factor_units(unit: np.ndarray, dims: list[int]) -> list[np.ndarray]:
    """Split a composite unit effect into per-factor units by rank-1 SVD.

    The split has a scale gauge; here every factor but the last is unit
    norm with positive leading entry and the last absorbs the scale.
    """
    units: list[np.ndarray] = []
    rest = unit.reshape(-1).astype(float)
    for d in dims[:-1]:
        flat = rest.reshape(d, -1)
        u_mat, s, vt = np.linalg.svd(flat, full_matrices=False)
        if s.size > 1 and s[1] > 1e-9 * max(s[0], 1e-300):
            raise FormatError("composite unit effect does not factorize")
        ui = u_mat[:, 0]
        sign = np.sign(ui[np.argmax(np.abs(ui))]) or 1.0
        units.append(ui * sign)
        rest = vt[0] * s[0] * sign
    units.append(rest)
    return units


def _factor_effect(vector, dims, keep_axis, units, tol):
    """Effect on the kept factor if vector = e (x) units elsewhere, else None."""
    cand = contract_discarded(vector, dims, keep_axis, units)
    denom = 1.0
    for ax, u in enumerate(units):
        if ax != keep_axis:
            denom *= float(u @ u)
    if denom <= tol:
        return None
    cand = cand / denom
    recon = _place_on_axis(cand, dims, keep_axis, units)
    scale = max(1.0, float(np.max(np.abs(vector))))
    if np.max(np.abs(recon - vector)) > 1e3 * tol * scale:
        return None
    return cand


def _place_on_axis(vec, dims, keep_axis, units):
    parts = [units[i] if i != keep_axis else vec for i in range(len(dims))]
    out = parts[0]
    for p in parts[1:]:
        out = np.kron(out, p)
    return out
