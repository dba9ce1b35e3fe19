"""Deterministic dense linear programming with certificates.

The one accepted form is ``=`` rows and ``<=`` rows over x >= 0; an upper
bound on a variable is one more ``<=`` row.  A program without an objective
(all zeros, the default) is a feasibility test.  It is solved by a
two-phase primal simplex on a dense tableau.
Artificial columns never enter, so the working tableau holds only the
structural and slack columns and the right-hand side; the standard-form
matrix ``a0`` keeps the artificials for the basis solves, since the
phase-1 basis starts on them.  Below the constraint rows the tableau
carries the phase-1 and phase-2 reduced-cost rows, so a pivot is one
rank-1 update of the whole tableau.  Each basis is solved at most once
per cost vector: the duals of a phase's refresh are reused when no pivot
has happened since.

Only this module sizes a program: ``check_lp_size`` bounds the standard-
form tableau, rows x (structural + slack + artificial + rhs) columns, by
``MAX_LP_CELLS``; callers that build large dense rows check it first.

Pivoting is Dantzig's rule (the most negative reduced cost enters, ties
to the lowest index) on a perturbed right-hand side: the tableau's rhs
column, and only it, starts at b + 1e-7 * max(1, max|b|) * (i + 1) / m for
row i, so ratio ties and the degenerate stalls they cause are generically
gone (Wolfe's perturbation).  The ratio test keeps Bland's tie rule (lowest
basis index).  The basis solves read the exact b: the phase-1 objective,
which decides infeasibility, is taken at the true b, and after phase 2 the
basic solution is recomputed at the true b and any value below zero beyond
rounding is removed by dual simplex pivots that keep the reduced costs
optimal.  A negative row that no dual pivot can repair is a Farkas row of
the true system; beyond the feasibility tolerance it is the program's
infeasibility certificate.  The pivots of both phases and of the
clean-up count against one cap, 2000 + 50 * (rows + columns); past it the
solve raises NumericalError.  The pivots that drive a zero artificial out
of the basis after phase 1 are not counted: ``iterations``, the cap and
the log all leave them out.  At an apparent optimum each phase refreshes
the reduced costs once from the basis and sets those of basic columns to
exactly 0.0, so rounding noise cannot bring a basic column back in.  Identical programs
yield bit-identical solutions across runs for a fixed BLAS thread setting;
other thread counts can round the basis solves differently, which changes
the last bits of solutions and certificates.

Optimal solutions are re-checked against the original rows and x >= 0
and carry their optimal row multipliers ``duals``, with duals . b equal to
the objective; infeasible systems come with a Farkas certificate over the
original rows that is re-verified before being returned.

Set the environment variable ``CLASSICALITY_LP_LOG`` to any nonempty
value for an iteration log on standard error.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NumericalError, ResourceLimitError

# At the bound, solve holds about three dense arrays of 128 MB each.
MAX_LP_CELLS = 2**24

# Primal/dual feasibility is 1e-8 absolute; declaring infeasibility needs a
# margin the optimality tolerance can actually certify, so the two are tied.
_INFEAS_TOL = 1e-8
_PIVOT_TOL = 1e-10
_OPT_TOL = 1e-11


@dataclass
class LinearProgram:
    """min/max of objective . x under ``=`` and ``<=`` rows, x >= 0.

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

    def __post_init__(self):
        n = self.n_vars
        if n <= 0:
            raise FormatError("linear program needs at least one variable")
        if self.sense not in ("min", "max"):
            raise FormatError(f"unknown sense {self.sense!r}")
        self.a_eq, self.b_eq = _rows(self.a_eq, self.b_eq, n, "eq")
        self.a_ub, self.b_ub = _rows(self.a_ub, self.b_ub, n, "ub")
        check_lp_size(n, len(self.b_eq), len(self.b_ub))
        self.objective = _vec(self.objective, n, default=0.0, name="objective")


def check_lp_size(n_vars: int, n_eq: int, n_ub: int) -> None:
    """Raise ResourceLimitError if the program's tableau would exceed the limit."""
    rows = n_eq + n_ub
    cells = max(rows, 1) * (n_vars + n_ub + rows + 1)  # no rows still bounds n_vars
    if cells > MAX_LP_CELLS:
        raise ResourceLimitError(f"LP tableau of {cells} cells exceeds limit {MAX_LP_CELLS}")


def _vec(v, n, default, name):
    if v is None:
        return np.full(n, default, dtype=float)
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (n,):
        raise FormatError(f"{name} must have length {n}")
    if not np.all(np.isfinite(a)):
        raise FormatError(f"{name} must be finite")
    return a


def _rows(a, b, n, name):
    if a is None or (hasattr(a, "__len__") and len(a) == 0):
        if b is not None and np.size(b):
            raise FormatError(f"{name} right-hand sides given without constraint rows")
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
    """Row multipliers proving infeasibility of the original system.

    With p = eq (free) and q = ub >= 0 the combination p.A_eq + q.A_ub is
    a nonnegative row, so its product with any x >= 0 is >= 0, while
    p.b_eq + q.b_ub is strictly negative.
    """

    eq: np.ndarray
    ub: np.ndarray


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective_value: float | None = None
    max_violation: float = 0.0
    farkas: FarkasCertificate | None = None
    iterations: int = 0
    duals: np.ndarray | None = None  # optimal multipliers over [a_eq; a_ub]


def farkas_gap(lp: LinearProgram, cert: FarkasCertificate):
    """(stationarity residual, contradiction margin) of a Farkas certificate.

    A valid certificate has residual ~ 0 and margin > 0.  The residual is
    how far the most negative entry of p.A_eq + q.A_ub falls below zero:
    the multipliers of x >= 0 absorb only its positive entries.
    """
    combo = cert.eq @ lp.a_eq + cert.ub @ lp.a_ub
    rhs = cert.eq @ lp.b_eq + cert.ub @ lp.b_ub
    return max(0.0, -float(np.min(combo))), float(-rhs)


def _positive(v: np.ndarray) -> np.ndarray:
    """max(0.0, v) elementwise, with a +0.0 wherever v <= 0."""
    return np.where(v > 0.0, v, 0.0)


def _farkas_back(lp: LinearProgram, y: np.ndarray) -> FarkasCertificate:
    """Farkas multipliers on the program's rows from phase-1 duals y over [a_eq; a_ub]."""
    n_eq = len(lp.b_eq)
    return FarkasCertificate(eq=-y[:n_eq], ub=_positive(-y[n_eq:]))


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program; see module docstring for guarantees."""
    log = bool(os.environ.get("CLASSICALITY_LP_LOG"))

    n, n_eq = lp.n_vars, len(lp.b_eq)
    a = np.vstack([lp.a_eq, lp.a_ub])
    b = np.concatenate([lp.b_eq, lp.b_ub])
    m = len(b)
    c = (-1.0 if lp.sense == "max" else 1.0) * lp.objective
    row_sign = np.ones(m)
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    row_sign[neg] = -1.0
    b_scale = max(1.0, float(np.max(b, initial=0.0)))

    # Standard-form columns: structural | slacks (<= rows) | artificials.
    # a0 keeps all of them for the basis solves, since the phase-1 basis
    # holds artificial indices.  Artificials never enter, so the working
    # tableau drops them: its columns are structural | slacks | rhs, and its
    # rows are the m constraint rows, then the phase-1 and phase-2 reduced
    # costs, so that one rank-1 update pivots all of them.
    n_slack = m - n_eq
    art_lo = n + n_slack
    total = art_lo + m
    a0 = np.zeros((m, total))
    a0[:, :n] = a
    slack = np.arange(n_slack)
    a0[n_eq + slack, n + slack] = row_sign[n_eq:]
    a0[:, art_lo:] = np.eye(m)
    tab = np.empty((m + 2, art_lo + 1))  # rows are what pivots update
    tab[:m, :art_lo] = a0[:, :art_lo]
    # Only the tableau's rhs is perturbed, by a distinct shift per row, so
    # ratio ties (and the degenerate pivots behind stalls) are generically
    # gone; b and a0 stay exact for every basis solve.
    tab[:m, art_lo] = b + 1e-7 * b_scale * np.arange(1, m + 1) / m
    basis = list(range(art_lo, total))
    kept_rows = list(range(m))

    cost1_init = np.zeros(total)
    cost1_init[art_lo:] = 1.0
    cost2_init = np.zeros(total)
    cost2_init[:n] = c
    # Phase-1 costs reduced against the artificial basis; the cost rows'
    # rhs entries are never read.
    tab[m, :art_lo] = 0.0 - tab[:m, :art_lo].sum(axis=0)
    tab[m + 1, :art_lo] = cost2_init[:art_lo]
    tab[m:, art_lo] = 0.0

    iters = 0
    cap = 2000 + 50 * (m + total)
    # The update's outer product, allocated once: a fresh temporary of a
    # large tableau costs more in page faults than the arithmetic.
    product = np.empty_like(tab)
    solved = {}  # (basis, its costs) -> duals

    def basis_duals(cost_init):
        """Exact simplex multipliers of the current basis (kept rows), solved
        once per basis and cost vector."""
        rhs = cost_init[basis]
        key = (tuple(basis), rhs.tobytes())
        if key not in solved:
            solved[key] = _basis_solve(a0[:, basis].T, rhs)
        return solved[key]

    def refresh(cost_row, cost_init):
        """Recompute reduced costs from the basis, clearing pivot drift.

        Basic columns get exactly 0.0: recomputed, they are rounding noise
        that can fall below -_OPT_TOL and let a basic column re-enter.
        """
        y = basis_duals(cost_init)
        reduced = cost_init - y @ a0
        cost_row[:] = reduced[:art_lo]
        cost_row[[j for j in basis if j < art_lo]] = 0.0

    def pivot(row, col):
        # Pivot elements are normal floats, so x / x and x - x * 1.0 leave col exactly unit.
        tab[row] /= tab[row, col]
        factors = tab[:, col].copy()
        factors[row] = 0.0
        update = product[: len(tab)]
        np.multiply(factors[:, None], tab[row], out=update)
        np.subtract(tab, update, out=tab)
        basis[row] = col

    def step(phase, row, col):
        """One counted pivot, under the cap shared by both phases and the clean-up."""
        nonlocal iters
        iters += 1
        if iters > cap:
            raise NumericalError("simplex stalled (pivot cap exceeded)")
        if log:
            print(f"lp phase {phase} iter {iters}: col {col} row {row}", file=sys.stderr)
        pivot(row, col)

    def run_phase(cost, cost_init, phase):
        refreshed = False
        while True:
            # Dantzig: the most negative reduced cost enters, ties to the
            # lowest index.  At an apparent optimum, one refresh confirms it.
            entering = int(cost.argmin())
            if not cost[entering] < -_OPT_TOL:
                if refreshed:
                    return "optimal"
                refreshed = True
                refresh(cost, cost_init)
                continue
            # Bland's ratio test: smallest ratio over the rows with a positive
            # pivot, ties within 1e-15 to the lowest basis index.  The other
            # rows have an infinite ratio and never leave.
            col = tab[:m, entering]
            rows = (col > _PIVOT_TOL).nonzero()[0]
            best = np.inf
            leave = -1
            for i, ratio in zip(rows.tolist(), (tab[rows, art_lo] / col[rows]).tolist()):
                if ratio < best - 1e-15 or (
                    ratio <= best + 1e-15 and 0 <= leave and basis[i] < basis[leave]
                ):
                    best = min(best, ratio)
                    leave = i
            if leave < 0:
                return "unbounded"
            step(phase, leave, entering)

    def infeasible(y, infeas):
        """The verified certificate of multipliers y, with -y.a >= 0 and y.b > 0."""
        cert = _farkas_back(lp, y * row_sign)
        resid, margin = farkas_gap(lp, cert)
        if margin < 1e-9 or resid > 1e-8 * max(1.0, _abs_scale(lp)):
            raise NumericalError("infeasible but Farkas certificate failed checks")
        return LpSolution(status="infeasible", farkas=cert, iterations=iters,
                          max_violation=infeas)

    # Phase 1: drive out infeasibility.
    status1 = run_phase(tab[m, :art_lo], cost1_init, 1)
    if status1 != "optimal":  # pragma: no cover - bounded below by zero
        raise NumericalError("phase-1 simplex failed to terminate at an optimum")
    # The phase-1 objective at the true b: the perturbation alone can leave
    # about 1e-7 * m / 2 of artificials in a basis that the true b fills.
    y = basis_duals(cost1_init)  # exact duals of the final phase-1 basis
    infeas = float(y @ b)
    if infeas > _INFEAS_TOL * b_scale:
        return infeasible(y, infeas)

    # Pivot artificials out of the basis; rows that offer no real pivot are
    # redundant combinations of earlier rows and are dropped, from the
    # tableau and from a0 alike.
    for i in range(m):
        if basis[i] >= art_lo:
            real = np.flatnonzero(np.abs(tab[i, :art_lo]) > 1e-7)
            if real.size:
                pivot(i, int(real[0]))
    keep = [i for i in range(m) if basis[i] < art_lo]
    if len(keep) < m:
        tab = tab[keep + [m, m + 1]]
        a0 = a0[keep]
        basis = [basis[i] for i in keep]
        kept_rows = [kept_rows[i] for i in keep]
        m = len(keep)

    cost2 = tab[m + 1, :art_lo]
    status = run_phase(cost2, cost2_init, 2)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iters)

    # Remove the perturbation: the basic solution at the true b, then dual
    # simplex pivots (which keep the reduced costs optimal) until no basic
    # value is below zero beyond rounding.  A negative row with no negative
    # entry is a Farkas row of the true system: the perturbation can hide an
    # inconsistency of up to about 1e-7 from phase 1.  Within the
    # feasibility tolerance, the violation check below decides instead.
    x_basis = tab[:m, art_lo]
    x_basis[:] = _basis_solve(a0[:, basis], b[kept_rows])
    while np.min(x_basis, initial=0.0) < -1e-11 * b_scale:
        r = int(np.argmin(x_basis))
        cand = np.flatnonzero(tab[r, :art_lo] < -_PIVOT_TOL)
        if not cand.size:
            if -x_basis[r] <= _INFEAS_TOL * b_scale:
                break
            e_r = np.zeros(m)
            e_r[r] = 1.0
            w = np.zeros(len(b))
            w[kept_rows] = _basis_solve(a0[:, basis].T, e_r)
            return infeasible(-w, float(-x_basis[r]))
        ratios = np.maximum(cost2[cand], 0.0) / -tab[r, cand]
        tied = cand[ratios == ratios.min()]
        step("2 dual", r, int(tied[np.argmin(tab[r, tied])]))  # largest |pivot|
    x_std = np.zeros(total)
    x_std[basis] = np.where(np.abs(x_basis) < 1e-11, 0.0, x_basis)
    x = x_std[:n].copy()

    viol = _violation(lp, x)
    if viol > 1e-8 * max(1.0, _abs_scale(lp)):
        raise NumericalError(f"solution violates constraints by {viol:.2e}")
    duals = np.zeros(len(b))  # the final basis's multipliers; dropped rows get 0
    duals[kept_rows] = basis_duals(cost2_init)
    return LpSolution(
        status="optimal",
        x=x,
        objective_value=float(lp.objective @ x),
        max_violation=float(viol),
        iterations=iters,
        duals=(-1.0 if lp.sense == "max" else 1.0) * row_sign * duals,
    )


def _basis_solve(bmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """bmat^-1 rhs for a basis matrix; a singular basis is a NumericalError."""
    try:
        return np.linalg.solve(bmat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("numerically singular basis") from exc


def _violation(lp: LinearProgram, x: np.ndarray) -> float:
    v = 0.0
    if len(lp.b_eq):
        v = max(v, float(np.max(np.abs(lp.a_eq @ x - lp.b_eq))))
    if len(lp.b_ub):
        v = max(v, float(np.max(lp.a_ub @ x - lp.b_ub, initial=0.0)))
    return max(v, float(np.max(-x, initial=0.0)))


def _abs_scale(lp: LinearProgram) -> float:
    parts = [1.0]
    for arr in (lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub):
        if arr is not None and arr.size:
            parts.append(float(np.max(np.abs(arr))))
    return max(parts)
