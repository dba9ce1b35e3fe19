"""Dense numerical linear algebra shared by the geometry and fitting code.

All rank decisions are singular-value thresholds relative to the largest
singular value (default 1e-9), so the same tolerance authority governs
null spaces, ranks and canonical bases.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError

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
    rank, vt = _svd_rank(a, tol)
    return [_sign_fixed(vt[i]) for i in range(rank, a.shape[1])]


def _svd_rank(a: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """(rank, V^T) of a nonempty matrix: singular values above tol * sigma_max count."""
    _, s, vt = np.linalg.svd(a)
    return int(np.sum(s > tol * s[0])), vt


def _sign_fixed(v: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude entry (first on ties) is positive."""
    idx = int(np.argmax(np.abs(v) > np.max(np.abs(v)) - 1e-14))
    return -v if v[idx] < 0 else v.copy()


def orthonormal_basis(vectors, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Deterministic orthonormal basis of the row span, shape (k, d)."""
    a = _as_matrix(vectors)
    rank, vt = _svd_rank(a, tol)
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
    n = len(a)
    if n < 2:
        return a.copy()
    close = np.ones((n, n), dtype=bool)  # close[i, j]: |a_i - a_j| <= tol entrywise
    diff = np.empty((n, n))
    for col in a.T:
        np.subtract.outer(col, col, out=diff)
        close &= np.abs(diff, out=diff) <= tol
    close = np.tril(close, -1)  # earlier rows only
    keep = np.ones(n, dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)).tolist():
        keep[i] = not np.any(close[i, :i] & keep[:i])
    return a[keep]


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
        # Rows with a zero (or -0.0) entry stay untouched, as no sign may flip.
        hit = a[:, c] != 0.0
        hit[r] = False
        a[hit] -= a[hit, c, None] * a[r]
        r += 1
    return a[:r]


def constrained_lstsq(a, b, g, h) -> np.ndarray:
    """Least squares min ||a x - b|| subject to g x >= h, for a stack of p problems.

    The problems share one shape: ``a`` (p, r, n), ``b`` (p, r), ``g``
    (p, q, n) and ``h`` (p, q).  Each is reduced to least-distance
    programming and solved with the Lawson-Hanson NNLS active-set method,
    which is deterministic.  One batched SVD and batched products serve the
    whole stack; only the NNLS solves run one by one, so each problem gets
    the bits it gets in a stack of one.  A problem that is rank-deficient or
    infeasible gets a NaN row of the (p, n) result; the other rows are
    solved as usual.
    """
    a, b, g, h = (np.asarray(v, dtype=float) for v in (a, b, g, h))
    p, _, n = a.shape
    # Ridge rows keep the system full column rank in degenerate fits.
    scale = np.sqrt(_RIDGE) * np.maximum(np.max(np.abs(a), axis=(1, 2)), 1.0)
    a_aug = np.concatenate([a, scale[:, None, None] * np.eye(n)], axis=1)
    b_aug = np.concatenate([b, np.zeros((p, n))], axis=1)
    return _lsi(a_aug, b_aug, g, h) + 0.0  # no -0.0 reaches a fitted report


def _matvec(m, v):
    """Stacked matrix-vector products, (p, r, n) @ (p, n) -> (p, r)."""
    return (m @ v[..., None])[..., 0]


def _lsi(a, b, g, h):
    """Stacked least squares with inequality constraints via LDP (Lawson-Hanson).

    Returns the solutions, NaN where a problem is rank-deficient or infeasible.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    failed = s[:, -1] <= 1e-14 * s[:, 0]
    s = np.where(failed[:, None], np.nan, s)
    # x = V diag(1/s) y + minimiser shift turns the problem into min ||y - y0||.
    y0 = _matvec(u.transpose(0, 2, 1), b)
    gt = (g @ vt.transpose(0, 2, 1)) / s[:, None, :]
    ht = h - _matvec(gt, y0)
    return _matvec(vt.transpose(0, 2, 1), (_ldp(gt, ht, failed) + y0) / s)


def _ldp(g, h, failed):
    """Stacked least distance programming: min ||y|| s.t. g y >= h.

    Problems marked in the boolean mask ``failed`` are skipped.  Returns the
    solutions, NaN where a problem was skipped or is infeasible.
    """
    from scipy.optimize import nnls  # importing scipy.optimize dominates package import

    p, m, n = g.shape
    if m == 0:
        return np.zeros((p, n))
    e = np.concatenate([g.transpose(0, 2, 1), h[:, None, :]], axis=1)
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    u = np.zeros((p, m))
    for i in np.flatnonzero(~failed).tolist():
        u[i], _ = nnls(e[i], rhs)
    r = _matvec(e, u) - rhs
    failed = failed | (np.abs(r[:, -1]) < 1e-12)
    return -r[:, :-1] / np.where(failed, np.nan, r[:, -1])[:, None]
