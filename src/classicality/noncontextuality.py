"""Noncontextual-model membership for observed statistics.

The membership test is a linear program over epistemic weights on the
vertices of the response polytope: response functions obey
per-measurement normalization, the [0,1] box, and every effect-side
operational identity; epistemic states obey normalization and every
state-side identity.  Restricting ontic states to polytope vertices
loses no generality -- interior response assignments split into convex
combinations of vertices without changing the statistics.

The state identities hold vertex by vertex, so the weights mu_.(v) that
the preparations give each vertex v lie in one cone, C = {z >= 0 :
sum_x alpha_x z_x = 0 for every state identity alpha}.  Each mu_.(v) is
written as a nonnegative combination of C's extreme rays, enumerated once
per call by double description, and the LP's variables are those ray
weights: it carries no identity rows, only normalization and statistics.
A cone with too many rays for that to pay -- one identity splitting n
preparations in halves has n^2 / 4 -- keeps the weights mu_x(v)
themselves and one identity row per (identity, vertex) instead.

The weights meet the statistics only through the row space of the
response table (vertices x outcomes), the quotiented (GPT) representation
of the statistics.  So per preparation the LP keeps the normalization row
and one statistics row for each outcome column that the unit response and
the earlier columns do not span -- the pivot columns of the rref of
[1 | table] -- and drops the rest, each a fixed combination of kept rows.
A table that breaks a dropped row by more than the LP's feasibility
tolerance is infeasible without an LP: that row minus its combination of
kept rows is the Farkas certificate, checked like the LP's own; its
functional is constant on noncontextual tables, and that constant is the
bound.

Otherwise one LP, ``embedding``'s min-r program (``lp._min_r_program``),
finds the least weight r of p_c, the vertex average of the responses, in
a noncontextual mixture: A lambda + r (p - p_c) = [1; 0; p] on the
normalization, identity and kept statistics rows, lambda, r >= 0.  r = 1
is always feasible.  r* <= ``lp._INFEAS_TOL`` gives the model; otherwise
the optimal duals y, which ``lp._min_r_result`` checks for y . A_j <= 0
on every weight column, bound sum y_stat . p by -sum_x y_norm,x on every
noncontextual table.  The table exceeds that bound by r*, and
(1 - r*) p + r* p_c, the optimal weights' table, attains it.  Both kinds
of inequality are normalized to logical maximum 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import MAX_CONE_DIM, h_rep_extreme_rays
from .errors import FormatError, NumericalError, ResourceLimitError
from .fragments import UNIT_LABEL, ZERO_LABEL, StatisticsTable
from .linalg import DEFAULT_RANK_TOL, matrix_rank, null_space, rref, sort_rows, unique_rows
from .lp import (
    _INFEAS_TOL,
    FarkasCertificate,
    LinearProgram,
    _min_r_program,
    _min_r_result,
    check_lp_size,
    farkas_gap,
    solve,
)
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
    the maximum of the functional over all tables admitting a noncontextual
    model for the generating scenario, read off a min-r LP's duals and
    attained by its depolarized table (membership's or embed's), or
    constant on those tables (a broken dropped row).
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


def _weight_cone(alphas, nx: int, tol: float, max_rays: int):
    """(rays, identities left) for weights mu_.(v) = sum_r lambda_r(v) rays[r].

    The weights that meet every identity alpha are those of
    C = {z >= 0 : alpha . z = 0}.  Without identities its rays are the
    unit vectors.  Otherwise the double description runs in coordinates t
    over an orthonormal basis of null(alphas) at ``tol``, where C is
    {t : basis^T t >= 0}; each alpha is first shifted to sum exactly to 0,
    as the unit effect makes it within 1e-8, so the all-ones vector lies in
    C and C is never {0}.  The rays are clipped at 0 and sum to 1, and no
    identities are left.

    A cone not worth enumerating -- of dimension over MAX_CONE_DIM, with a
    double description over its cell bounds, or with more than
    ``max_rays`` rays -- gives the unit vectors and every identity instead,
    for the caller's LP to impose row by row.
    """
    a = np.reshape(np.asarray(alphas, dtype=float), (len(alphas), nx))
    # The unit effect turns each identity into sum(alpha) = 0; without it
    # no normalized weights meet the identities, whatever the table.
    if np.any(np.abs(a.sum(axis=1)) > 1e-8):
        raise FormatError("state identities are inconsistent with normalization")
    if not len(a):
        return np.eye(nx), a
    shifted = a - a.mean(axis=1, keepdims=True)
    if nx - matrix_rank(shifted, tol) > MAX_CONE_DIM:
        return np.eye(nx), a
    basis = np.array(null_space(shifted, tol))  # (k, nx)
    try:
        t = h_rep_extreme_rays(basis.T, tol)
    except ResourceLimitError:
        return np.eye(nx), a
    if len(t) > max_rays:
        return np.eye(nx), a
    rays = np.maximum(t @ basis, 0.0)
    return rays / rays.sum(axis=1, keepdims=True), a[:0]


def _weight_rows(rays, alphas, nv: int):
    """Equality rows (and right-hand side) on the ray weights lambda_r(v), r-major.

    With mu_x(v) = sum_r lambda_r(v) rays[r, x]: one normalization row
    sum_v mu_x(v) = 1 per preparation x, the block rays^T (x) 1^T, then one
    row sum_x alpha_x mu_x(v) = 0 per (identity, vertex).  Identities come
    only with the unit rays, so that block is alpha^T (x) I, filled by
    index so that no -0.0 appears where alpha_x < 0.
    """
    n_id, nx = alphas.shape
    a = np.zeros((nx + n_id * nv, len(rays) * nv))
    a[:nx] = np.repeat(rays.T, nv, axis=1)
    if n_id:
        v = np.arange(nv)
        a[nx:].reshape(n_id, nv, nx, nv)[:, v, :, v] = alphas
    b = np.zeros(a.shape[0])
    b[:nx] = 1.0
    return a, b


def _dropped_row_farkas(xi_aug, p_aug, echelon, pivots):
    """(preparation, row multipliers) proving a dropped statistics row broken, or None.

    Column 0 of ``xi_aug`` is the unit response and of ``p_aug`` the
    normalization's 1; the other columns are the outcomes' responses and
    each preparation's statistics.  ``echelon`` is rref(xi_aug) and
    ``pivots`` its pivot columns, so every column b equals
    xi_aug[:, pivots] @ echelon[:, b], and every noncontextual table obeys
    the same combination.  Where a preparation misses it by more than the
    LP's feasibility tolerance, the dropped row minus that combination of
    its kept rows, scaled to largest multiplier 1 and signed so that its
    right-hand side is negative, is a Farkas certificate of the full-row
    program; the worst miss is taken, and checked with ``farkas_gap`` on
    that preparation's rows (all other multipliers are 0).
    """
    dropped = np.setdiff1d(np.arange(xi_aug.shape[1]), pivots)
    if not dropped.size:
        return None
    coef = echelon[:, dropped]
    weight = np.maximum(1.0, np.max(np.abs(coef), axis=0))
    miss = (p_aug[:, dropped] - p_aug[:, pivots] @ coef) / weight
    x, j = np.unravel_index(np.argmax(np.abs(miss)), miss.shape)
    scale = max(1.0, float(np.max(np.abs(p_aug))))
    if abs(miss[x, j]) <= _INFEAS_TOL * scale:
        return None
    multipliers = np.zeros(xi_aug.shape[1])
    multipliers[dropped[j]] = 1.0
    multipliers[pivots] = -coef[:, j]
    multipliers *= -np.sign(miss[x, j]) / weight[j]
    rows = LinearProgram(n_vars=len(xi_aug), a_eq=xi_aug.T, b_eq=p_aug[x])
    resid, margin = farkas_gap(rows, FarkasCertificate(eq=multipliers, ub=np.zeros(0)))
    if margin < 1e-9 or resid > 1e-8 * scale:
        raise NumericalError("dropped statistics row's Farkas certificate failed checks")
    return int(x), multipliers


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
    identities and enumerated at ``tol``, and so is the weight cone of the
    state identities.  The LP keeps the statistics rows of the outcomes
    that rref of the response table (after a unit column) pivots on, at
    ``tol``; a table that breaks a dropped row returns that row's checked
    Farkas certificate without an LP, its bound in closed form.  Otherwise
    one LP finds the least weight r* of the vertex average p_c that the
    table must be mixed toward to become noncontextual.  r* <= 1e-8 returns
    the explicit model; a larger r* returns the inequality read off the
    optimal duals (module docstring), violated by r* before normalization.
    """
    if any(ident.side != "states" for ident in state_identities):
        raise FormatError("state identities must have side 'states'")
    # A table off by more than 1e-9 (within tol) reaches the LP clipped at 0
    # and renormalized: the LP's 1e-8 feasibility margin absorbs no more.
    # Row x then describes p_x / n_x, so sum_x alpha_x p_x = 0 becomes
    # sum_x (alpha_x n_x)(p_x / n_x) = 0, with n_x from the last such table.
    p = []
    row_sums = np.ones(len(stats.preparations))
    for y, table in enumerate(stats.tables):
        off = np.max(np.abs(table.sum(axis=1) - 1.0))
        if off > tol:
            raise FormatError(
                f"statistics for measurement {stats.measurements[y]!r} are not "
                "normalized; raw frequencies need explicit trial bookkeeping"
            )
        if off > 1e-9 or table.min() < -1e-9:
            table = np.maximum(table, 0.0)
            row_sums = table.sum(axis=1)
            table = table / row_sums[:, None]
        p.append(table)
    # xi_all[v]: vertex v's response to every outcome, columns y-major.
    xi_all = response_vertices(
        effect_identities, list(zip(stats.measurements, stats.outcomes)), tol
    )
    nx = len(stats.preparations)
    nv, n_out = xi_all.shape
    splits = np.cumsum([len(o) for o in stats.outcomes])[:-1]
    xi = np.split(xi_all, splits, axis=1)  # xi[y][v, b]

    alphas = [
        ident.coefficient_vector(stats.preparations) * row_sums for ident in state_identities
    ]

    # The row space of the response table, with the unit response (the
    # normalization row's column) first: rref's pivot columns after it are
    # the kept outcomes, and its other columns give each dropped outcome as
    # a combination of the unit and the kept ones.
    xi_aug = np.hstack([np.ones((nv, 1)), xi_all])
    p_aug = np.hstack([np.ones((nx, 1)), *p])
    echelon = rref(xi_aug, tol)
    pivots = np.argmax(echelon != 0.0, axis=1)
    kept = pivots[1:] - 1
    n_kept = len(kept)

    # Over the weight cone's rays the LP has nx * (1 + n_kept) rows, nv
    # columns per ray and the column of r; a program too large with one ray
    # is refused before the weight cone's SVDs and double description
    # allocate anything.  Over the weights mu_x(v) themselves it has nx * nv
    # columns and one more row per (identity, vertex); the rays are used
    # when their tableau is no larger.
    n_rows = nx * (1 + n_kept)
    check_lp_size(nv + 1, n_rows, 0)
    n_id_rows = len(alphas) * nv
    rays, alphas = _weight_cone(alphas, nx, tol, (n_rows + n_id_rows) * nx // n_rows)
    n_head = nx + len(alphas) * nv
    n_lam = nv * len(rays)
    check_lp_size(n_lam + 1, n_head + nx * n_kept, 0)
    coeffs = np.zeros((nx, n_out))
    broken = _dropped_row_farkas(xi_aug, p_aug, echelon, pivots)
    if broken is not None:
        # The multipliers vanish on preparation x's rows of every noncontextual
        # table, so there -multipliers[1:] . p_x is multipliers[0].
        x, multipliers = broken
        coeffs[x] = -multipliers[1:]
        bound = float(multipliers[0])
    else:
        # After the normalization and identity rows, one statistics row per
        # (x, kept b): sum_v xi(b | v) mu_x(v) + r (p(b | x) - p_c(b)) =
        # p(b | x), the block rays^T (x) xi_kept^T and then the r column.
        a_head, b_head = _weight_rows(rays, alphas, nv)
        a_lam = np.vstack([a_head, np.kron(rays.T, xi_all[:, kept].T)])
        p_kept = p_aug[:, pivots[1:]]
        r_col = np.concatenate([np.zeros(n_head), (p_kept - xi_all[:, kept].mean(axis=0)).ravel()])
        program = _min_r_program(a_lam, np.concatenate([b_head, p_kept.ravel()]), r_col)
        _, lam, y = _min_r_result(program, solve(program))
        if y is None:
            mu = rays.T @ lam.reshape(len(rays), nv)
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

        coeffs[:, kept] = y[n_head:].reshape(nx, n_kept)
        bound = -float(y[:nx].sum())

    return MembershipResult(feasible=False, inequality=_normalized_inequality(
        stats.preparations, stats.measurements, stats.outcomes,
        np.split(coeffs, splits, axis=1), bound, provenance or "membership-farkas",
    ))


def _shift_and_scale(coeffs, bound: float):
    """(coeffs, bound) of sum c.p <= bound after shifting each (x, y) outcome
    block to least coefficient 0, which moves both sides by that least
    coefficient times sum_b p(b | x) = 1, and scaling so the maximum over
    all (not only noncontextual) normalized tables is 1."""
    low = [c.min(axis=1, keepdims=True) for c in coeffs]
    coeffs = [c - lo for c, lo in zip(coeffs, low)]
    logical_max = sum(float(c.max(axis=1).sum()) for c in coeffs)
    if logical_max <= 1e-12:
        raise NumericalError("degenerate inequality direction")
    shifted = bound - sum(float(lo.sum()) for lo in low)
    return [c / logical_max for c in coeffs], shifted / logical_max


def _normalized_inequality(preparations, measurements, outcomes, coeffs, bound, provenance):
    """The inequality sum c.p <= bound, normalized by ``_shift_and_scale``."""
    coeffs, bound = _shift_and_scale(coeffs, bound)
    return NoncontextualityInequality(
        preparations=list(preparations),
        measurements=list(measurements),
        outcomes=[list(o) for o in outcomes],
        coefficients=coeffs,
        bound=bound,
        provenance=provenance,
    )
