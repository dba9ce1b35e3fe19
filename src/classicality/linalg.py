"""Dense numerical linear algebra shared by the geometry and fitting code.

All rank decisions are singular-value thresholds relative to the largest
singular value (default 1e-9), so the same tolerance authority governs
null spaces, ranks and canonical bases.
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

    A stack of p problems of one shape, ``a`` (p, r, n), ``b`` (p, r),
    ``g`` (p, q, n) and ``h`` (p, q), is solved with one batched SVD and
    batched products; only the NNLS solves run one by one.  Each problem
    gets the bits it gets alone.  A 2-d problem that is rank-deficient or
    infeasible raises ``NumericalError``; in a stack, such a problem's row
    of the (p, n) result is NaN and the other rows are solved as usual.
    """
    a = np.asarray(a, dtype=float)
    single = a.ndim < 3
    if single:
        a, g = np.atleast_2d(a)[None], np.atleast_2d(np.asarray(g, dtype=float))[None]
        b, h = np.asarray(b, dtype=float)[None], np.asarray(h, dtype=float)[None]
    else:
        b, g, h = (np.asarray(v, dtype=float) for v in (b, g, h))
    p, _, n = a.shape
    # Ridge rows keep the system full column rank in degenerate fits.
    scale = np.sqrt(_RIDGE) * np.maximum(np.max(np.abs(a), axis=(1, 2)), 1.0)
    a_aug = np.concatenate([a, scale[:, None, None] * np.eye(n)], axis=1)
    b_aug = np.concatenate([b, np.zeros((p, n))], axis=1)
    x, failure = _lsi(a_aug, b_aug, g, h)
    if single and failure[0]:
        raise NumericalError(_FAILURES[failure[0]])
    x = x + 0.0  # no -0.0 reaches a fitted report
    return x[0] if single else x


# Why a least-squares problem failed, by the codes _lsi returns.
_FAILURES = (
    None,
    "rank-deficient least squares design matrix",
    "inequality constraints are infeasible",
)


def _matvec(m, v):
    """Stacked matrix-vector products, (p, r, n) @ (p, n) -> (p, r)."""
    return (m @ v[..., None])[..., 0]


def _lsi(a, b, g, h):
    """Stacked least squares with inequality constraints via LDP (Lawson-Hanson).

    Returns the solutions, NaN where a problem failed, and per problem
    its ``_FAILURES`` code (0 when solved).
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    failure = np.where(s[:, -1] <= 1e-14 * s[:, 0], 1, 0)
    s = np.where(failure[:, None] > 0, np.nan, s)
    # x = V diag(1/s) y + minimiser shift turns the problem into min ||y - y0||.
    y0 = _matvec(u.transpose(0, 2, 1), b)
    gt = (g @ vt.transpose(0, 2, 1)) / s[:, None, :]
    ht = h - _matvec(gt, y0)
    y, failure = _ldp(gt, ht, failure)
    return _matvec(vt.transpose(0, 2, 1), (y + y0) / s), failure


def _ldp(g, h, failure):
    """Stacked least distance programming: min ||y|| s.t. g y >= h.

    Problems with a nonzero ``failure`` code are skipped.  Returns the
    solutions, NaN where a problem failed, and the codes with each
    infeasible problem marked 2.
    """
    from scipy.optimize import nnls  # importing scipy.optimize dominates package import

    p, m, n = g.shape
    if m == 0:
        return np.zeros((p, n)), failure
    e = np.concatenate([g.transpose(0, 2, 1), h[:, None, :]], axis=1)
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    u = np.zeros((p, m))
    for i, code in enumerate(failure.tolist()):
        if not code:
            u[i], _ = nnls(e[i], rhs)
    r = _matvec(e, u) - rhs
    failure = np.where((failure == 0) & (np.abs(r[:, -1]) < 1e-12), 2, failure)
    return -r[:, :-1] / np.where(failure > 0, np.nan, r[:, -1])[:, None], failure
