"""Dense numerical linear algebra shared by the geometry and fitting code.

All rank decisions are singular-value thresholds relative to the largest
singular value (default 1e-9), so the same tolerance authority governs
null spaces, span projections and canonical bases.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, NumericalError

DEFAULT_RANK_TOL = 1e-9
_RIDGE = 1e-12


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise FormatError("expected a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise FormatError("matrix entries must be finite")
    return a


def null_space(m, tol: float = DEFAULT_RANK_TOL) -> list[np.ndarray]:
    """Orthonormal basis of {v : m @ v = 0}.

    Singular values below ``tol * sigma_max`` count as zero.  Returns an
    empty list when ``m`` has full column rank.
    """
    a = _as_matrix(m)
    if tol <= 0:
        raise FormatError("tolerance must be positive")
    _, s, vt = np.linalg.svd(a)
    cutoff = tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return [_sign_fixed(vt[i]) for i in range(rank, a.shape[1])]


def _sign_fixed(v: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude entry (first on ties) is positive."""
    idx = int(np.argmax(np.abs(v) > np.max(np.abs(v)) - 1e-14))
    return -v if v[idx] < 0 else v.copy()


def orthonormal_basis(vectors, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Deterministic orthonormal basis of the row span, shape (k, d)."""
    a = _as_matrix(vectors)
    _, s, vt = np.linalg.svd(a)
    cutoff = tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return np.array([_sign_fixed(vt[i]) for i in range(rank)]).reshape(rank, a.shape[1])


def matrix_rank(m, tol: float = DEFAULT_RANK_TOL) -> int:
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def unique_rows(rows, tol: float) -> np.ndarray:
    """Rows of an (n, d) array that lie farther than ``tol`` (max-abs) from
    every earlier kept row, in input order.

    Greedy first-seen: a row within ``tol`` only of a dropped row is kept.
    """
    a = np.asarray(rows, dtype=float)
    kept = np.empty_like(a)
    m = 0
    for r in a:
        if m == 0 or np.min(np.max(np.abs(r - kept[:m]), axis=1)) > tol:
            kept[m] = r
            m += 1
    return kept[:m]


def sort_rows(rows: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order of their values rounded to 10 decimals.

    The sort is stable, so rows that round alike keep their input order.
    """
    return rows[np.lexsort(np.round(rows, 10).T[::-1])]


def rref(m, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Reduced row echelon form with partial pivoting at a relative tolerance.

    Used to put null-space bases into a canonical form: each returned row
    has leading coefficient exactly +1.
    """
    a = _as_matrix(m).copy()
    scale = np.max(np.abs(a)) or 1.0
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[pivot, c]) <= tol * scale:
            a[r:, c] = 0.0
            continue
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] / a[r, c]
        for i in range(rows):
            if i != r and a[i, c] != 0.0:
                a[i] = a[i] - a[i, c] * a[r]
        r += 1
    return a[:r]


def constrained_lstsq(a, b, g, h) -> np.ndarray:
    """Least squares min ||a x - b|| subject to g x >= h.

    The problem is reduced to least-distance programming and solved with
    the Lawson-Hanson NNLS active-set method, which is deterministic.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    n = a.shape[1]
    # Ridge rows keep the system full column rank in degenerate fits.
    col_scale = max(np.max(np.abs(a)), 1.0)
    a_aug = np.vstack([a, np.sqrt(_RIDGE) * col_scale * np.eye(n)])
    b_aug = np.concatenate([b, np.zeros(n)])
    g = np.atleast_2d(np.asarray(g, dtype=float))
    h = np.asarray(h, dtype=float)
    return _lsi(a_aug, b_aug, g, h) + 0.0  # + 0.0: no -0.0 reaches a fitted report


def _lsi(a, b, g, h) -> np.ndarray:
    """Least squares with inequality constraints via LDP (Lawson-Hanson)."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[-1] <= 1e-14 * s[0]:
        raise NumericalError("rank-deficient least squares design matrix")
    # x = V diag(1/s) y + minimiser shift turns the problem into min ||y - y0||.
    y0 = u.T @ b
    gt = (g @ vt.T) / s
    ht = h - gt @ y0
    y = _ldp(gt, ht)
    return vt.T @ ((y + y0) / s)


def _ldp(g, h) -> np.ndarray:
    """Least distance programming: min ||y|| s.t. g y >= h."""
    from scipy.optimize import nnls  # importing scipy.optimize dominates package import

    m, n = g.shape
    if m == 0:
        return np.zeros(n)
    e = np.vstack([g.T, h]).astype(float)
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    u, _ = nnls(e, rhs)
    r = e @ u - rhs
    if abs(r[-1]) < 1e-12:
        raise NumericalError("inequality constraints are infeasible")
    return -r[:-1] / r[-1]
