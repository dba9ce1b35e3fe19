"""Deterministic dense linear programming with certificates.

The one accepted form is ``=`` rows and ``<=`` rows over 0 <= x <= upper;
a program without an objective (all zeros, the default) is a feasibility
test.  It is solved by a two-phase primal simplex on the full tableau.
Pivoting follows Bland's rule (lowest eligible index enters, ratio ties
broken by lowest basis index), which trades speed for anti-cycling and
reproducible results: identical programs yield bit-identical solutions
across runs for a fixed BLAS thread setting.  Different thread counts can
round the basis solves differently, which can change the pivot path and
the certificate's last bits.

Optimal solutions are re-checked against the original rows and bounds,
and report the duality gap of the duals read off the final basis (the gap
is reported, not checked); infeasible systems come with a Farkas
certificate over the original rows and bounds that is re-verified before
being returned.

Set the environment variable ``CLASSICALITY_LP_LOG`` to any nonempty
value for an iteration log on standard error.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NumericalError, ResourceLimitError

MAX_LP_VARS = 20_000
MAX_LP_ROWS = 20_000

# Primal/dual feasibility is 1e-8 absolute; declaring infeasibility needs a
# margin the optimality tolerance can actually certify, so the two are tied.
_INFEAS_TOL = 1e-8
_PIVOT_TOL = 1e-10
_OPT_TOL = 1e-11


@dataclass
class LinearProgram:
    """min/max of objective . x under ``=`` and ``<=`` rows, 0 <= x <= upper.

    ``upper`` may contain +inf and defaults to no upper bound.
    ``sense`` is "min" or "max".  ``objective`` defaults to zeros, which
    makes the program a feasibility test.
    """

    n_vars: int
    objective: np.ndarray | None = None
    sense: str = "min"
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_vars
        if n <= 0:
            raise FormatError("linear program needs at least one variable")
        check_lp_size(n)
        if self.sense not in ("min", "max"):
            raise FormatError(f"unknown sense {self.sense!r}")
        self.objective = _vec(self.objective, n, default=0.0, name="objective")
        self.a_eq, self.b_eq = _rows(self.a_eq, self.b_eq, n, "eq")
        self.a_ub, self.b_ub = _rows(self.a_ub, self.b_ub, n, "ub")
        self.upper = _vec(self.upper, n, default=np.inf, name="upper", allow_inf=True)
        if np.any(self.upper < 0):
            raise FormatError("upper bounds must be nonnegative")
        rows = len(self.b_eq) + len(self.b_ub)
        if rows > MAX_LP_ROWS:
            raise ResourceLimitError(f"{rows} constraints exceed limit {MAX_LP_ROWS}")


def check_lp_size(n_vars: int) -> None:
    """Raise ResourceLimitError if a program this wide would exceed the limit."""
    if n_vars > MAX_LP_VARS:
        raise ResourceLimitError(f"{n_vars} variables exceed limit {MAX_LP_VARS}")


def _vec(v, n, default, name, allow_inf=False):
    if v is None:
        return np.full(n, default, dtype=float)
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (n,):
        raise FormatError(f"{name} must have length {n}")
    if not allow_inf and not np.all(np.isfinite(a)):
        raise FormatError(f"{name} must be finite")
    if allow_inf and np.any(np.isnan(a)):
        raise FormatError(f"{name} must not contain NaN")
    return a


def _rows(a, b, n, name):
    if a is None or (hasattr(a, "__len__") and len(a) == 0):
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape != (len(b), n):
        raise FormatError(f"{name} constraint shapes are inconsistent")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise FormatError(f"{name} constraints must be finite")
    return a, b


@dataclass
class FarkasCertificate:
    """Multipliers proving infeasibility of the original system.

    With p = eq (free), q = ub >= 0, r = lower >= 0 (on x >= 0) and
    s = upper >= 0 the combination p.A_eq + q.A_ub + s - r vanishes while
    p.b_eq + q.b_ub + s.u is strictly negative.
    """

    eq: np.ndarray
    ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective_value: float | None = None
    max_violation: float = 0.0
    duality_gap: float = 0.0
    farkas: FarkasCertificate | None = None
    iterations: int = 0


def farkas_gap(lp: LinearProgram, cert: FarkasCertificate):
    """(stationarity residual, contradiction margin) of a Farkas certificate.

    A valid certificate has residual ~ 0 and margin > 0.  Multipliers on
    infinite upper bounds must vanish for the margin to be meaningful; they
    are required to be zero.
    """
    combo = np.zeros(lp.n_vars)
    if len(cert.eq):
        combo += cert.eq @ lp.a_eq
    if len(cert.ub):
        combo += cert.ub @ lp.a_ub
    combo += cert.upper - cert.lower
    rhs = 0.0
    if len(cert.eq):
        rhs += cert.eq @ lp.b_eq
    if len(cert.ub):
        rhs += cert.ub @ lp.b_ub
    finite = np.isfinite(lp.upper)
    if np.any(cert.upper[~finite] > 0):
        return np.inf, -np.inf
    rhs += cert.upper[finite] @ lp.upper[finite]
    return float(np.max(np.abs(combo))), float(-rhs)


def _positive(v: np.ndarray) -> np.ndarray:
    """max(0.0, v) elementwise, with a +0.0 wherever v <= 0."""
    return np.where(v > 0.0, v, 0.0)


def _farkas_back(lp: LinearProgram, y: np.ndarray) -> FarkasCertificate:
    """Farkas multipliers on the program's rows and bounds from phase-1 duals y.

    y runs over the stacked rows [a_eq; a_ub; one range row per finite upper].
    """
    n_eq, n_ub = len(lp.b_eq), len(lp.b_ub)
    p = -y[:n_eq]
    q = _positive(-y[n_eq : n_eq + n_ub])
    s = np.zeros(lp.n_vars)
    s[np.isfinite(lp.upper)] = _positive(-y[n_eq + n_ub :])
    z = np.zeros(lp.n_vars)
    if n_eq:
        z += p @ lp.a_eq
    if n_ub:
        z += q @ lp.a_ub
    return FarkasCertificate(eq=p, ub=q, lower=_positive(z + s), upper=s)


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program; see module docstring for guarantees."""
    log = bool(os.environ.get("CLASSICALITY_LP_LOG"))

    n, n_eq = lp.n_vars, len(lp.b_eq)
    boxed = np.flatnonzero(np.isfinite(lp.upper))
    ranges = (boxed[:, None] == np.arange(n)).astype(float)  # x_j <= upper_j
    a = np.vstack([lp.a_eq, lp.a_ub, ranges])
    b = np.concatenate([lp.b_eq, lp.b_ub, lp.upper[boxed]])
    m = len(b)
    c = (-1.0 if lp.sense == "max" else 1.0) * lp.objective
    row_sign = np.ones(m)
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    row_sign[neg] = -1.0

    # Tableau columns: structural | slacks (<= rows) | artificials | rhs.
    n_slack = m - n_eq
    total = n + n_slack + m
    tab = np.zeros((m, total + 1))
    tab[:, :n] = a
    slack = np.arange(n_slack)
    tab[n_eq + slack, n + slack] = row_sign[n_eq:]
    tab[:, n + n_slack : total] = np.eye(m)
    tab[:, total] = b
    basis = list(range(n + n_slack, total))
    art_lo = n + n_slack
    a0 = tab[:, :total].copy()
    m0 = m
    kept_rows = list(range(m))

    cost1_init = np.zeros(total + 1)
    cost1_init[art_lo:total] = 1.0
    cost2_init = np.zeros(total + 1)
    cost2_init[:n] = c
    cost1 = cost1_init.copy()
    if m:
        cost1 = cost1 - tab.sum(axis=0)  # reduce against the artificial basis
        cost1[art_lo:total] = 0.0
    cost2 = cost2_init.copy()

    iters = 0

    def basis_duals(cost_init):
        """Exact simplex multipliers of the current basis (kept rows)."""
        if not m:
            return np.zeros(0)
        bmat = a0[np.ix_(kept_rows, basis)]
        try:
            return np.linalg.solve(bmat.T, cost_init[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("numerically singular basis") from exc

    def refresh(cost_row, cost_init):
        """Recompute reduced costs from the basis, clearing pivot drift."""
        y = basis_duals(cost_init)
        rows = a0[kept_rows]
        cost_row[:total] = cost_init[:total] - (y @ rows if m else 0.0)
        cost_row[total] = -(y @ b[kept_rows]) if m else 0.0
        return y

    def pivot(row, col):
        nonlocal tab, cost1, cost2
        tab[row] /= tab[row, col]
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        tab[:, col] = 0.0
        tab[row, col] = 1.0
        if cost1[col] != 0.0:
            cost1 -= cost1[col] * tab[row]  # in place: run_phase holds a view
        if cost2[col] != 0.0:
            cost2 -= cost2[col] * tab[row]
        basis[row] = col

    def run_phase(cost, cost_init, phase):
        nonlocal iters
        cap = 2000 + 50 * (m + total)
        refreshes = 0
        while True:
            entering = -1
            for j in range(art_lo):
                if cost[j] < -_OPT_TOL:
                    entering = j
                    break
            if entering < 0:
                if refreshes < 3:
                    refreshes += 1
                    refresh(cost, cost_init)
                    if np.min(cost[:art_lo]) < -_OPT_TOL:
                        continue
                return "optimal"
            col = tab[:, entering]
            ratios = np.full(m, np.inf)
            ok = col > _PIVOT_TOL
            ratios[ok] = tab[ok, total] / col[ok]
            best = np.inf
            leave = -1
            for i in range(m):
                if ratios[i] < best - 1e-15 or (
                    ratios[i] <= best + 1e-15 and 0 <= leave and basis[i] < basis[leave]
                ):
                    if ratios[i] < np.inf:
                        best = min(best, ratios[i])
                        leave = i
            if leave < 0:
                return "unbounded"
            iters += 1
            if iters > cap:
                raise NumericalError("simplex stalled (pivot cap exceeded)")
            if log:
                print(
                    f"lp phase {phase} iter {iters}: col {entering} row {leave}",
                    file=sys.stderr,
                )
            pivot(leave, entering)

    # Phase 1: drive out infeasibility.
    status1 = run_phase(cost1, cost1_init, 1)
    if status1 != "optimal":  # pragma: no cover - bounded below by zero
        raise NumericalError("phase-1 simplex failed to terminate at an optimum")
    infeas = -cost1[total]
    if infeas > _INFEAS_TOL * max(1.0, np.max(np.abs(b)) if m else 1.0):
        y = basis_duals(cost1_init)  # exact duals of the final phase-1 basis
        cert = _farkas_back(lp, y * row_sign)
        resid, margin = farkas_gap(lp, cert)
        if margin < 1e-9 or resid > 1e-8 * max(1.0, _abs_scale(lp)):
            raise NumericalError("infeasible but Farkas certificate failed checks")
        return LpSolution(status="infeasible", farkas=cert, iterations=iters,
                          max_violation=float(infeas))

    # Pivot artificials out of the basis; rows that offer no real pivot are
    # redundant combinations of earlier rows and are dropped.
    for i in range(m):
        if basis[i] >= art_lo:
            for j in range(art_lo):
                if abs(tab[i, j]) > 1e-7:
                    pivot(i, j)
                    break
    keep = [i for i in range(m) if basis[i] < art_lo]
    if len(keep) < m:
        tab = tab[keep]
        basis = [basis[i] for i in keep]
        kept_rows = [kept_rows[i] for i in keep]
        m = len(keep)

    status = run_phase(cost2, cost2_init, 2)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iters)

    # Refine the basic solution against the original columns to clear
    # accumulated pivot drift.
    x_std = np.zeros(total)
    if m:
        try:
            x_basis = np.linalg.solve(a0[np.ix_(kept_rows, basis)], b[kept_rows])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("numerically singular basis") from exc
        x_std[basis] = np.where(np.abs(x_basis) < 1e-11, 0.0, x_basis)
    x = x_std[:n].copy()

    # Duals solved directly from the final basis columns; a singular basis
    # is a numerical failure distinct from infeasibility.
    y = np.zeros(m0)
    if m:
        y[kept_rows] = basis_duals(cost2_init)
    dual_obj = float(y @ b) if m0 else 0.0

    primal = float(c @ x)
    gap = abs(primal - dual_obj) / max(1.0, abs(primal))
    viol = _violation(lp, x)
    if viol > 1e-8 * max(1.0, _abs_scale(lp)):
        raise NumericalError(f"solution violates constraints by {viol:.2e}")
    return LpSolution(
        status="optimal",
        x=x,
        objective_value=float(lp.objective @ x),
        max_violation=float(viol),
        duality_gap=float(gap),
        iterations=iters,
    )


def _violation(lp: LinearProgram, x: np.ndarray) -> float:
    v = 0.0
    if len(lp.b_eq):
        v = max(v, float(np.max(np.abs(lp.a_eq @ x - lp.b_eq))))
    if len(lp.b_ub):
        v = max(v, float(np.max(lp.a_ub @ x - lp.b_ub, initial=0.0)))
    v = max(v, float(np.max(-x, initial=0.0)))
    v = max(v, float(np.max(x - lp.upper, initial=0.0)))
    return v


def _abs_scale(lp: LinearProgram) -> float:
    parts = [1.0]
    for arr in (lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub):
        if arr is not None and arr.size:
            parts.append(float(np.max(np.abs(arr))))
    return max(parts)
