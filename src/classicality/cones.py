"""Polyhedral cone geometry: conversion between ray and facet form.

Cones are handled at desk scale (ambient dimension <= 16, <= 128
generators).  Extreme rays in dimension <= 3 are found in closed form.
Larger cones run the double description array-at-a-time: ray pairs are
tested for adjacency combinatorially, on the zero sets of all pairs at
once, and every array a merge allocates is bounded by MAX_DD_CELLS.  All
outputs are canonicalized -- unit Euclidean norm, lexicographic order --
so certificates are reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ResourceLimitError
from .linalg import DEFAULT_RANK_TOL, matrix_rank, orthonormal_basis, sort_rows, unique_rows

MAX_CONE_DIM = 16
MAX_CONE_GENERATORS = 128
# Cells of one double-description array: a merge's tight sets (rays x rows),
# pair counts (positive x negative rays) or merged-ray closeness (rays x rays).
# qubit-stabilizer (x) itself, at k = 16, peaks at 1,448^2 = 2.1M.
MAX_DD_CELLS = 2**24
_SCREEN_CELLS = 2**20  # cells of an adjacency-screen block or a k <= 3 candidate table


@dataclass(frozen=True)
class ConeDescription:
    """A polyhedral cone by its extreme rays (V form).

    ``generators`` are unit-norm and lexicographically sorted.
    """

    generators: np.ndarray


def canonicalize_rays(rays, tol: float = 1e-9) -> np.ndarray:
    """Unit-normalize, deduplicate and lexicographically sort ray vectors."""
    a = np.asarray(rays, dtype=float)
    if len(a) == 0:
        return np.zeros((0, a.shape[-1]))
    # Row by row: np.linalg.norm(a, axis=1) rounds differently in the last bit.
    norms = np.array([np.linalg.norm(r) for r in a])
    keep = norms > tol
    return sort_rows(unique_rows(a[keep] / norms[keep, None], 10 * tol))


def _check_cone_size(n_generators: int, dim: int) -> None:
    """Refuse a cone over MAX_CONE_DIM or MAX_CONE_GENERATORS, before allocating."""
    if dim > MAX_CONE_DIM:
        raise ResourceLimitError(f"cone dimension {dim} exceeds limit {MAX_CONE_DIM}")
    if n_generators > MAX_CONE_GENERATORS:
        raise ResourceLimitError(f"{n_generators} generators exceed limit {MAX_CONE_GENERATORS}")


def dual_cone(generators, tol: float = DEFAULT_RANK_TOL) -> ConeDescription:
    """Extreme rays of {w : w . g >= 0 for all generators g}.

    The computation runs inside span(generators), so fragments living in
    a proper subspace never produce spurious lineality; the returned rays
    are expressed in the ambient space but lie in that span.  Dualizing
    twice recovers the extreme rays of the original cone.  For general
    callers and the benchmark's gate; ``accessibilize``, whose cones span
    R^k, calls ``h_rep_extreme_rays`` itself.
    """
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    if g.size == 0:
        raise FormatError("dual_cone requires at least one generator")
    if not np.all(np.isfinite(g)):
        raise FormatError("generators must be finite")
    d = g.shape[1]
    _check_cone_size(g.shape[0], d)
    norms = np.linalg.norm(g, axis=1)
    if np.any(norms <= tol):
        raise FormatError("all-zero generator rejected")
    g = g / norms[:, None]

    basis = orthonormal_basis(g, tol)  # (k, d)
    coords = g @ basis.T  # generators in span coordinates
    rays_k = h_rep_extreme_rays(coords, tol)
    rays = rays_k @ basis if rays_k.size else np.zeros((0, d))
    return ConeDescription(generators=canonicalize_rays(rays, tol))


def h_rep_extreme_rays(constraints, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Extreme rays of {w in R^k : C w >= 0}, canonical as ``canonicalize_rays``
    makes them: unit norm, merged at 10 tol, in ``sort_rows`` order.

    ``constraints`` must have full column rank k, which makes the result a
    pointed cone.  At k <= 3, while the C(n, k - 1) * n candidate table
    fits in _SCREEN_CELLS (n <= 128 at k = 3), each extreme ray is a null
    vector of k - 1 independent rows: the candidates are formed at once,
    from the rows sorted by their exact values and merged at 10 tol (so
    the result does not depend on the row order), and those whose sign
    meets every row to -tol are kept.  Larger cones go through
    ``_double_description``, whose rays are then canonicalized.
    """
    c = _unit_rows(constraints, tol)
    n, k = c.shape
    if k > 3 or math.comb(n, k - 1) * n > _SCREEN_CELLS:
        return canonicalize_rays(_double_description(c, tol), tol)
    c = unique_rows(c[np.lexsort(c.T[::-1])], 10 * tol)
    if k == 3:  # c_i x c_j over i < j
        i, j = np.triu_indices(len(c), 1)
        a, b = c[i], c[j]
        v = a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]
        nv = np.sqrt(np.sum(v * v, axis=1))
        # For unit rows, sigma_2 / sigma_1 of [a; b] is |a x b| / (1 + |a . b|).
        indep = nv > tol * (1.0 + np.abs(np.sum(a * b, axis=1)))
        v = v[indep] / nv[indep, None]
    else:  # each row turned by 90 degrees; at k = 1 the unit
        v = np.stack([-c[:, 1], c[:, 0]], axis=1) if k == 2 else np.ones((1, 1))
    s = v @ c.T
    up = np.all(s >= -tol, axis=1)
    down = np.all(s <= tol, axis=1) & ~up
    return sort_rows(unique_rows(np.vstack([v[up], -v[down]]), 10 * tol))


def _unit_rows(constraints, tol: float) -> np.ndarray:
    """Nonzero rows at unit norm; FormatError unless of full column rank."""
    c = np.atleast_2d(np.asarray(constraints, dtype=float))
    norms = np.linalg.norm(c, axis=1)
    c = c[norms > tol] / norms[norms > tol, None]  # vacuous zero rows dropped
    if matrix_rank(c, tol) < c.shape[1]:
        raise FormatError("double description needs constraints of full column rank")
    return c


def _double_description(c: np.ndarray, tol: float) -> np.ndarray:
    """Extreme rays of the cone of ``_unit_rows`` c by incremental double
    description, on any cone size.  Rows are processed in input order.  A
    row that cuts rays merges each positive ray p with each negative ray q
    that is adjacent to it, tested combinatorially on zero sets over the
    rows processed so far: |Z(p) & Z(q)| >= k - 2 and no other ray is
    tight on all of Z(p) & Z(q).  New rays follow p-major, q-minor order.
    A merge whose arrays would exceed MAX_DD_CELLS cells raises
    ResourceLimitError before they are allocated.
    """
    n, k = c.shape
    start = _independent_rows(c, k, tol)
    rays = np.linalg.inv(c[start]).T  # rows r_j with c[start] @ r_j = e_j
    rays = rays / np.linalg.norm(rays, axis=1)[:, None]
    processed = list(start)

    order = [i for i in range(n) if i not in set(start)]
    for idx in order:
        vals = rays @ c[idx]
        pos = np.flatnonzero(vals > tol)
        neg = np.flatnonzero(vals < -tol)
        if len(neg) == 0:
            processed.append(idx)
            continue
        _check_cells(
            max(len(rays) * len(processed), len(pos) * len(neg)),
            f"merge of {len(rays)} rays over {len(processed)} rows",
        )
        tight = np.abs(rays @ c[processed].T) <= tol  # (n_rays, n_processed)
        p, q = _adjacent_pairs(tight, pos, neg, k)
        kept = rays[vals >= -tol]  # the positive and zero rays
        _check_cells((len(kept) + len(p)) ** 2, f"merge into {len(kept) + len(p)} rays")
        w = vals[p, None] * rays[q] - vals[q, None] * rays[p]
        # One dot per row: a batched norm rounds differently in the last bit.
        nw = np.sqrt(np.array([r.dot(r) for r in w]))
        big = nw > tol
        merged = np.vstack([kept, w[big] / nw[big, None]])
        processed.append(idx)
        if not len(merged):
            return np.zeros((0, k))
        rays = unique_rows(merged, 10 * tol)
    return _extreme_only(rays, c, k, tol)


def _check_cells(cells: int, what: str) -> None:
    """Refuse, before allocating, a double-description array over MAX_DD_CELLS."""
    if cells > MAX_DD_CELLS:
        raise ResourceLimitError(
            f"double description {what} needs {cells} cells, over {MAX_DD_CELLS}"
        )


def _adjacent_pairs(tight: np.ndarray, pos: np.ndarray, neg: np.ndarray, k: int):
    """(p, q) index arrays of the adjacent (positive, negative) ray pairs.

    One count product screens out the pairs sharing fewer than k - 2 tight
    rows; the rest are tested, in blocks from ``_blocks``, for a third ray
    tight on their whole common zero set.
    """
    t = tight.astype(float)
    counts = t[pos] @ t[neg].T  # exact: sums of 0/1 products
    pi, qi = np.nonzero(counts >= k - 2)  # row-major: p-major, q-minor
    p, q = pos[pi], neg[qi]
    common_counts = counts[pi, qi]
    adjacent = np.empty(len(p), dtype=bool)
    for lo, hi in _blocks(len(p), t.shape[0] + t.shape[1]):
        common = (tight[p[lo:hi]] & tight[q[lo:hi]]).astype(float)
        supersets = common @ t.T == common_counts[lo:hi, None]
        adjacent[lo:hi] = supersets.sum(axis=1) == 2  # p and q themselves only
    return p[adjacent], q[adjacent]


def _blocks(n: int, width: int):
    """(lo, hi) ranges covering range(n), each of at most _SCREEN_CELLS / width
    rows (and at least one)."""
    step = max(1, _SCREEN_CELLS // width)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _extreme_only(rays: np.ndarray, c: np.ndarray, k: int, tol: float) -> np.ndarray:
    """Drop rays whose tight constraint set has rank below k - 1.

    The tolerance-based adjacency test can over-produce on nearly
    degenerate inputs; extremality of a ray of a pointed cone is exactly
    rank(tight constraints) = k - 1, which this re-checks.  Rays with the
    same number m of tight rows have their tight rows stacked and their
    ranks taken by one batched SVD per block from ``_blocks``, each matrix
    rounding as in ``matrix_rank`` alone.
    """
    if rays.shape[0] <= 1 or k == 1:  # rank 0 of any rows meets k - 1 = 0
        return rays
    tight = np.abs(rays @ c.T) <= 10 * tol  # (n_rays, n)
    counts = tight.sum(axis=1)
    keep = np.zeros(len(rays), dtype=bool)
    for m in np.unique(counts[counts >= k - 1]).tolist():
        sel = np.flatnonzero(counts == m)
        rows = np.nonzero(tight[sel])[1].reshape(len(sel), m)  # ascending, like c[t]
        for lo, hi in _blocks(len(sel), m * k):
            s = np.linalg.svd(c[rows[lo:hi]], compute_uv=False)
            keep[sel[lo:hi]] = np.sum(s > tol * s[:, :1], axis=1) >= k - 1
    return rays[keep]


def _independent_rows(c, k, tol) -> list[int]:
    """k row indices of c, picked in input order: a row is kept when it is
    independent at ``tol`` of the rows kept before it.

    When c[:k] has full rank, so has every prefix of it (its singular
    values interlace those of c[:k], the largest falling and the smallest
    rising), and the greedy loop would pick rows 0..k-1: one SVD decides.
    """
    if matrix_rank(c[:k], tol) == k:
        return list(range(k))
    rows: list[int] = []
    for i in range(c.shape[0]):
        trial = rows + [i]
        if matrix_rank(c[trial], tol) == len(trial):
            rows.append(i)
        if len(rows) == k:
            return rows
    raise FormatError("could not find a full-rank starting set")  # pragma: no cover
