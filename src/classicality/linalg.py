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
    return list(_sign_fixed(vt[rank:]))


def _svd_rank(a: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """(rank, V^T) of a nonempty matrix: singular values above tol * sigma_max count."""
    _, s, vt = np.linalg.svd(a)
    return int(np.sum(s > tol * s[0])), vt


def _sign_fixed(rows: np.ndarray) -> np.ndarray:
    """Flip each row's sign so its largest-magnitude entry (first on ties) is positive."""
    mag = np.abs(rows)
    idx = np.argmax(mag > np.max(mag, axis=1)[:, None] - 1e-14, axis=1)
    flip = rows[np.arange(len(rows)), idx] < 0
    return np.where(flip[:, None], -rows, rows)


def orthonormal_basis(vectors, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Deterministic orthonormal basis of the row span, shape (k, d)."""
    a = _as_matrix(vectors)
    rank, vt = _svd_rank(a, tol)
    return _sign_fixed(vt[:rank])


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
    Rows within ``tol`` of each other have keys ``rows @ w`` within
    ``tol * sum(w)`` (plus the keys' rounding), so only pairs that close in
    sorted key order are compared; when no two are, the input comes back
    unchanged.
    """
    a = np.asarray(rows, dtype=float)
    n = len(a)
    if n < 2:
        return a.copy()
    d = a.shape[1]
    w = 1.0 + np.arange(d) / (d + 0.5)
    keys = a @ w
    # Each key is off by at most gamma_d * (|row| @ w); a difference doubles that.
    gamma = (d + 1) * np.finfo(float).eps / (1.0 - (d + 1) * np.finfo(float).eps)
    reach = tol * w.sum() + 2.0 * gamma * float(np.max(np.abs(a) @ w))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    ends = np.searchsorted(sorted_keys, sorted_keys + reach, side="right")
    partners = ends - np.arange(1, n + 1)  # later sorted positions within reach
    if not partners.any():
        return a.copy()
    earlier, later = _close_pairs(a, order, partners, tol)
    if not len(later):
        return a.copy()
    keep = np.ones(n, dtype=bool)
    bounds = np.flatnonzero(np.diff(later)) + 1
    for i, js in zip(later[np.r_[0, bounds]].tolist(), np.split(earlier, bounds)):
        keep[i] = not keep[js].any()
    return a[keep]


_PAIR_CELLS = 2**20  # pairs x columns of one closeness block in unique_rows


def _close_pairs(a, order, partners, tol):
    """(earlier, later) row indices of the pairs within ``tol``, sorted by later.

    Sorted position s is paired with the next ``partners[s]`` positions;
    the pairs are compared in blocks of at most _PAIR_CELLS entries.
    """
    n, d = a.shape
    starts = np.cumsum(partners) - partners
    pos = np.repeat(np.arange(n), partners)
    step = max(1, _PAIR_CELLS // max(d, 1))
    found = []
    for lo in range(0, len(pos), step):
        s = pos[lo : lo + step]
        t = s + 1 + np.arange(lo, lo + len(s)) - starts[s]
        i, j = order[s], order[t]
        close = np.all(np.abs(a[i] - a[j]) <= tol, axis=1)
        found.append(np.sort(np.stack([i[close], j[close]]), axis=0))
    earlier, later = np.hstack(found)
    by_later = np.lexsort((earlier, later))
    return earlier[by_later], later[by_later]


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
