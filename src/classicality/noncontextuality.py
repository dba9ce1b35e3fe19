"""Noncontextual-model membership for observed statistics.

The membership test is a linear program over epistemic weights on the
vertices of the response polytope: response functions obey
per-measurement normalization, the [0,1] box, and every effect-side
operational identity; epistemic states obey normalization and every
state-side identity.  Restricting ontic states to polytope vertices
loses no generality -- interior response assignments split into convex
combinations of vertices without changing the statistics.

Infeasibility converts, via the LP's Farkas dual, into a
noncontextuality inequality whose bound is re-tightened to the exact
maximum over noncontextual tables and normalized so the logical maximum
of the functional is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import MAX_CONE_DIM, h_rep_extreme_rays
from .errors import FormatError, NumericalError, ResourceLimitError
from .fragments import UNIT_LABEL, ZERO_LABEL, StatisticsTable
from .linalg import DEFAULT_RANK_TOL, null_space, sort_rows, unique_rows
from .lp import LinearProgram, check_lp_size, solve
from .models import OntologicalModel

MAX_OUTCOME_PRODUCT = 4096
MAX_AFFINE_DIM = MAX_CONE_DIM - 1  # double description works in dimension p + 1


def response_vertices(effect_identities, measurements, tol: float = 1e-9) -> np.ndarray:
    """The response table of the constrained response polytope's vertices.

    The polytope lives in [0,1]^(distinct effect labels) and is cut out
    by per-measurement normalization plus the effect identities (terms on
    the reserved ``unit`` label contribute constants, terms on ``zero``
    nothing).  ``measurements`` lists (label, outcome effect labels) pairs.
    Vertices are found by double description on the homogenized affine
    slice and sorted lexicographically over the distinct labels.

    Row v of the (vertices, total outcomes) result is vertex v's response
    to every outcome of ``measurements``, measurement-major; a label
    shared by two measurements repeats its one value in both columns,
    which is where noncontextuality enters.
    """
    structure = [tuple(outcomes) for _, outcomes in measurements]
    if not structure:
        raise FormatError("response vertices need at least one measurement")
    product = 1
    for outcomes in structure:
        product *= max(1, len(outcomes))
    if product > MAX_OUTCOME_PRODUCT:
        raise ResourceLimitError(
            f"outcome-count product {product} exceeds {MAX_OUTCOME_PRODUCT}"
        )
    labels = list(dict.fromkeys(lab for outcomes in structure for lab in outcomes))
    if UNIT_LABEL in labels or ZERO_LABEL in labels:
        raise FormatError("the unit and zero labels cannot be measurement outcomes")
    n = len(labels)
    columns = [labels.index(lab) for outcomes in structure for lab in outcomes]

    rows = [np.array([outs.count(lab) for lab in labels], float) for outs in structure]
    rhs = [1.0] * len(structure)
    for ident in effect_identities:
        if ident.side != "effects":
            raise FormatError("response polytope takes effect-side identities only")
        # The unit term is a constant; the zero term contributes nothing.
        alpha = ident.coefficient_vector(labels + [UNIT_LABEL, ZERO_LABEL])
        rows.append(alpha[:n])
        rhs.append(-alpha[n])
    a = np.array(rows)
    b = np.array(rhs)

    point, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.max(np.abs(a @ point - b)) > 1e-8:
        raise FormatError("effect identities are inconsistent with normalization")
    basis = null_space(a, tol)
    p = len(basis)
    if p == 0:
        if np.min(point) < -1e-9 or np.max(point) > 1 + 1e-9:
            raise FormatError("response polytope is empty")
        return np.clip(point, 0.0, 1.0)[None, columns]
    if p > MAX_AFFINE_DIM:
        raise ResourceLimitError(
            f"response polytope affine dimension {p} exceeds {MAX_AFFINE_DIM}"
        )
    z = np.array(basis).T  # (n, p)

    # Homogenize the box 0 <= point + z w <= 1 into a pointed cone in R^(p+1).
    cons = np.zeros((2 * n + 1, p + 1))
    cons[:n, :p] = z
    cons[:n, p] = point
    cons[n : 2 * n, :p] = -z
    cons[n : 2 * n, p] = 1.0 - point
    cons[-1, p] = 1.0
    rays = h_rep_extreme_rays(cons, tol)
    if len(rays) == 0:  # the cone is {0}: no point of the slice lies in the box
        raise FormatError("response polytope is empty")

    verts = []
    for ray in rays:
        t = ray[-1]
        if t <= tol:
            raise NumericalError("response polytope is unbounded")  # pragma: no cover
        w = ray[:-1] / t
        verts.append(np.clip(point + z @ w, 0.0, 1.0))
    return sort_rows(unique_rows(np.array(verts), 1e-9))[:, columns]


@dataclass
class NoncontextualityInequality:
    """A linear functional of the statistics bounded on noncontextual tables.

    ``coefficients[y]`` aligns with the statistics tables; the bound is
    the LP-certified maximum of the functional over all tables admitting
    a noncontextual model for the generating scenario.
    """

    preparations: list[str]
    measurements: list[str]
    outcomes: list[list[str]]
    coefficients: list[np.ndarray]
    bound: float
    provenance: str = ""

    def __post_init__(self):
        if not np.isfinite(self.bound) or not all(
            np.all(np.isfinite(c)) for c in self.coefficients
        ):
            raise FormatError("inequality coefficients and bound must be finite")

    def value(self, stats: StatisticsTable) -> float:
        total = 0.0
        for y_here, m in enumerate(self.measurements):
            if m not in stats.measurements:
                raise FormatError(f"statistics lack measurement {m!r}")
            y = stats.measurements.index(m)
            if self.outcomes[y_here] != list(stats.outcomes[y]) or [
                p for p in self.preparations
            ] != list(stats.preparations):
                raise FormatError("inequality and statistics are index-incompatible")
            total += float(np.sum(self.coefficients[y_here] * stats.tables[y]))
        return total


@dataclass
class InequalityVerdict:
    value: float
    bound: float
    violated: bool


def evaluate(
    ineq: NoncontextualityInequality, stats: StatisticsTable, tol: float = 1e-9
) -> InequalityVerdict:
    value = ineq.value(stats)
    return InequalityVerdict(
        value=value, bound=ineq.bound, violated=value > ineq.bound + tol
    )


@dataclass
class MembershipResult:
    feasible: bool
    model: OntologicalModel | None = None
    inequality: NoncontextualityInequality | None = None


def _mu_polytope(nx: int, nv: int, alphas):
    """Equality rows on the weights mu_x(v), x-major.

    One normalization row sum_v mu_x(v) = 1 per preparation x, then one
    row sum_x alpha_x mu_x(v) = 0 per (state identity, vertex): the
    blocks I (x) 1^T and alpha^T (x) I, filled by index so that no
    -0.0 appears where alpha_x < 0.
    """
    n_id = len(alphas)
    a = np.zeros((nx + n_id * nv, nx * nv))
    a[:nx] = np.repeat(np.eye(nx), nv, axis=1)
    v = np.arange(nv)
    a[nx:].reshape(n_id, nv, nx, nv)[:, v, :, v] = np.reshape(alphas, (n_id, nx))
    b = np.zeros(a.shape[0])
    b[:nx] = 1.0
    return a, b


def membership(
    stats: StatisticsTable,
    state_identities=(),
    effect_identities=(),
    tol: float = DEFAULT_RANK_TOL,
    provenance: str = "",
) -> MembershipResult:
    """Is the table a mixture of response vertices respecting the identities?

    Each measurement's rows must sum to 1 within ``tol``.  The response
    polytope is cut out of the table's own measurements by the effect
    identities and enumerated at ``tol``.  Feasible instances
    return the explicit model; infeasible ones return a violated
    noncontextuality inequality extracted from the Farkas dual and
    certified tight by one auxiliary LP.
    """
    if any(ident.side != "states" for ident in state_identities):
        raise FormatError("state identities must have side 'states'")
    # A table off by more than 1e-9 (within tol) reaches the LP clipped at 0
    # and renormalized: the LP's 1e-8 feasibility margin absorbs no more.
    p = []
    for y, table in enumerate(stats.tables):
        off = np.max(np.abs(table.sum(axis=1) - 1.0))
        if off > tol:
            raise FormatError(
                f"statistics for measurement {stats.measurements[y]!r} are not "
                "normalized; raw frequencies need explicit trial bookkeeping"
            )
        if off > 1e-9 or table.min() < -1e-9:
            table = np.maximum(table, 0.0)
            table = table / table.sum(axis=1, keepdims=True)
        p.append(table)
    # xi_all[v]: vertex v's response to every outcome, columns y-major.
    xi_all = response_vertices(
        effect_identities, list(zip(stats.measurements, stats.outcomes)), tol
    )
    nx = len(stats.preparations)
    nv, n_out = xi_all.shape
    splits = np.cumsum([len(o) for o in stats.outcomes])[:-1]
    xi = np.split(xi_all, splits, axis=1)  # xi[y][v, b]

    alphas = [ident.coefficient_vector(stats.preparations) for ident in state_identities]
    # The unit effect turns each identity into sum(alpha) = 0; without it
    # the mu-polytope is empty, whatever the table.
    if any(abs(alpha.sum()) > 1e-8 for alpha in alphas):
        raise FormatError("state identities are inconsistent with normalization")

    # After the mu-polytope rows, one statistics row per (x, y, b):
    # sum_v xi_y(b | v) mu_x(v) = p(b | x, y).
    check_lp_size(nx * nv, nx + len(alphas) * nv + nx * n_out, 0)
    a_mu, b_mu = _mu_polytope(nx, nv, alphas)
    a_stat = np.zeros((nx * n_out, nx * nv))
    idx = np.arange(nx)
    a_stat.reshape(nx, n_out, nx, nv)[idx, :, idx] = xi_all.T
    lp = LinearProgram(
        n_vars=nx * nv,
        a_eq=np.vstack([a_mu, a_stat]),
        b_eq=np.concatenate([b_mu, np.hstack(p).reshape(-1)]),
    )
    sol = solve(lp)

    if sol.status == "optimal":
        mu = np.maximum(sol.x.reshape(nx, nv), 0.0)
        support = np.flatnonzero(np.max(mu, axis=0) > 1e-12)
        model = OntologicalModel(
            ontic_labels=[f"v{row}" for row in support],
            preparations=list(stats.preparations),
            measurements=list(stats.measurements),
            outcomes=[list(o) for o in stats.outcomes],
            mu=mu[:, support],
            xi=[xi[y][support].T for y in range(len(stats.measurements))],
        )
        return MembershipResult(feasible=True, model=model)

    if sol.status != "infeasible":  # pragma: no cover
        raise NumericalError(f"membership LP ended with status {sol.status}")

    # Farkas multipliers on the statistics rows give the inequality
    # direction: for any noncontextual table p', sum c.p' >= -(norm-row
    # part), so -c is bounded above on noncontextual tables.
    p_mult = sol.farkas.eq[len(b_mu) :].reshape(nx, n_out)
    coeffs = np.split(-p_mult, splits, axis=1)

    ineq = _tighten_and_normalize(stats, alphas, xi, coeffs, provenance)
    return MembershipResult(feasible=False, inequality=ineq)


def noncontextual_maximum(alphas, xi, coeffs) -> float:
    """Exact maximum of sum c.p over tables with a noncontextual model.

    ``xi[y]`` is (vertices, outcomes) and ``coeffs[y]`` (preparations,
    outcomes) for each measurement y; ``alphas`` are the state identities'
    coefficient vectors over the preparations.
    """
    nx = coeffs[0].shape[0]
    nv = xi[0].shape[0]
    # One matrix-vector product per (x, y): a single matrix product per y
    # rounds differently and would change the certified bounds' last bits.
    objective = np.zeros((nx, nv))
    for y, c in enumerate(coeffs):
        for x in range(nx):
            objective[x] += xi[y] @ c[x]
    a_mu, b_mu = _mu_polytope(nx, nv, alphas)
    lp = LinearProgram(
        n_vars=nx * nv,
        objective=objective.reshape(-1),
        sense="max",
        a_eq=a_mu,
        b_eq=b_mu,
    )
    sol = solve(lp)
    if sol.status != "optimal":
        raise NumericalError("noncontextual polytope maximization failed")
    return float(sol.objective_value)


def _tighten_and_normalize(stats, alphas, xi, coeffs, provenance):
    # Shift each (x, y) outcome block so its minimum coefficient is zero;
    # on normalized tables this only moves the bound by the same amount.
    for y in range(len(coeffs)):
        coeffs[y] = coeffs[y] - coeffs[y].min(axis=1, keepdims=True)
    # Scale so the maximum over all (not only noncontextual) tables is 1.
    logical_max = sum(float(c.max(axis=1).sum()) for c in coeffs)
    if logical_max <= 1e-12:
        raise NumericalError("degenerate Farkas inequality direction")
    coeffs = [c / logical_max for c in coeffs]
    bound = noncontextual_maximum(alphas, xi, coeffs)
    return NoncontextualityInequality(
        preparations=list(stats.preparations),
        measurements=list(stats.measurements),
        outcomes=[list(o) for o in stats.outcomes],
        coefficients=coeffs,
        bound=bound,
        provenance=provenance or "membership-farkas",
    )
