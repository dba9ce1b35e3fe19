"""Dense numerical linear algebra shared by the geometry and fitting code.

All rank decisions are singular-value thresholds relative to the largest
singular value (default 1e-9), so the same tolerance authority governs
null spaces, ranks and canonical bases.  Inequality-constrained least
squares goes through an in-package Lawson-Hanson NNLS, so numpy is the
only dependency.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FormatError, NumericalError

DEFAULT_RANK_TOL = 1e-9
_RIDGE = 1e-12
_EPS = float(np.finfo(float).eps)
_NNLS_SOLVES_PER_COLUMN = 3  # the cap of Lawson and Hanson's own code, 3 per column


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
    programming and solved with the Lawson-Hanson NNLS active-set method
    (``_nnls``), which is deterministic.  One batched SVD and batched
    products serve the whole stack; only the NNLS solves run one by one, so
    each problem gets the bits it gets in a stack of one.  A problem whose
    least-distance bounds are all <= 0 needs no solve.  A problem that is
    rank-deficient or infeasible gets a NaN row of the (p, n) result; the
    other rows are solved as usual.
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

    Each problem becomes the NNLS problem min ||e u - (0, ..., 0, 1)||,
    u >= 0, with e = [g^T; h^T], solved one at a time.  Problems marked in
    the boolean mask ``failed`` are skipped.  A problem whose bounds are
    all <= 0 keeps u = 0 without a solve: the NNLS gradient at u = 0 is h,
    so u = 0 is its answer.  Returns the solutions, NaN where a problem was
    skipped or is infeasible.
    """
    p, m, n = g.shape
    if m == 0:
        return np.zeros((p, n))
    e = np.concatenate([g.transpose(0, 2, 1), h[:, None, :]], axis=1)
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    u = np.zeros((p, m))
    for i in np.flatnonzero(~failed & np.any(h > 0, axis=1)).tolist():
        u[i] = _nnls(e[i], rhs)
    r = _matvec(e, u) - rhs
    failed = failed | (np.abs(r[:, -1]) < 1e-12)
    return -r[:, :-1] / np.where(failed, np.nan, r[:, -1])[:, None]


def _nnls(e, f) -> np.ndarray:
    """Nonnegative least squares: the u >= 0 that minimizes ||e u - f||.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23).  The column with the largest positive gradient entry,
    the lowest index on ties, joins the passive set unless one of the
    book's entry tests rejects it: it must be independent of the passive
    columns, and its trial coefficient must be positive.  A rejected
    column's gradient entry is set to 0 until the next gradient, which
    keeps rounding from cycling a column in and out.  Gradient entries
    within the rounding error of ``e.T @ r`` count as 0.

    The passive columns are kept as the rows of an orthonormal basis and
    the inverse of their triangular factor, extended by Gram-Schmidt with
    one reorthogonalization, so a step costs a few products of arrays no
    larger than e's row count squared.  More than _NNLS_SOLVES_PER_COLUMN
    passive least-squares solves per column raise NumericalError.
    """
    rows, m = e.shape
    cap = _NNLS_SOLVES_PER_COLUMN * m
    q = np.empty((rows, rows))  # rows: orthonormal basis of the passive columns' span
    rinv = np.zeros((rows, rows))  # inverse of their triangular factor
    qf = np.empty(rows)  # q @ f
    passive: list[int] = []
    slack = 10 * rows * _EPS * math.sqrt(f @ f) * np.sqrt(np.einsum("ij,ij->j", e, e))

    def push(j):
        """Append column j's factors; False, and nothing appended, when it
        is not independent of the passive columns (the book's test)."""
        k = len(passive)
        qk, v = q[:k], e[:, j]
        c = qk @ v
        v = v - c @ qk
        d = qk @ v
        v, c = v - d @ qk, c + d
        rho, unorm = math.sqrt(v @ v), math.sqrt(c @ c)
        if not unorm + 0.01 * rho > unorm:
            return False
        q[k] = v / rho
        qf[k] = q[k] @ f
        rinv[:k, k] = (rinv[:k, :k] @ c) / -rho
        rinv[k, k] = 1.0 / rho
        passive.append(j)
        return True

    u = np.zeros(m)
    r = f
    solves = 0
    while True:
        w = e.T @ r
        w[w <= slack] = 0.0
        w[passive] = 0.0
        while True:
            t = int(w.argmax())
            k = len(passive)
            if w[t] == 0.0 or k == rows:
                return u
            if push(t) and qf[k] > 0.0:  # qf[k] carries the trial coefficient's sign
                break
            del passive[k:]
            w[t] = 0.0
        while True:
            solves += 1
            if solves > cap:
                raise NumericalError(f"NNLS stopped at its cap of {cap} solves without converging")
            k = len(passive)
            z = rinv[:k, :k] @ qf[:k]
            bad = z <= 0.0
            if not bad.any():
                break
            # Step back along x -> z to the first passive coefficient that hits 0.
            x = u[passive]
            ratio = x[bad] / (x[bad] - z[bad])
            x += ratio.min() * (z - x)
            x[np.flatnonzero(bad)[np.argmin(ratio)]] = 0.0
            u[passive] = np.maximum(x, 0.0)
            first = int(np.argmax(x <= 0.0))
            rest = passive[first + 1 :]
            del passive[first:]
            for j in rest:
                if u[j] > 0.0 and not push(j):
                    u[j] = 0.0
        u[passive] = z
        r = f - qf[:k] @ q[:k]
