"""Polyhedral cone geometry: double description between ray and facet form.

Cones are handled at desk scale (ambient dimension <= 16, <= 128
generators).  All outputs are canonicalized -- unit Euclidean norm,
lexicographic order -- so certificates are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ResourceLimitError
from .linalg import DEFAULT_RANK_TOL, matrix_rank, orthonormal_basis, sort_rows, unique_rows

MAX_CONE_DIM = 16
MAX_CONE_GENERATORS = 128


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


def dual_cone(generators, tol: float = DEFAULT_RANK_TOL) -> ConeDescription:
    """Extreme rays of {w : w . g >= 0 for all generators g}.

    The computation runs inside span(generators), so fragments living in
    a proper subspace never produce spurious lineality; the returned rays
    are expressed in the ambient space but lie in that span.  Dualizing
    twice recovers the extreme rays of the original cone.
    """
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    if g.size == 0:
        raise FormatError("dual_cone requires at least one generator")
    if not np.all(np.isfinite(g)):
        raise FormatError("generators must be finite")
    d = g.shape[1]
    if d > MAX_CONE_DIM:
        raise ResourceLimitError(f"cone dimension {d} exceeds limit {MAX_CONE_DIM}")
    if g.shape[0] > MAX_CONE_GENERATORS:
        raise ResourceLimitError(
            f"{g.shape[0]} generators exceed limit {MAX_CONE_GENERATORS}"
        )
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
    """Extreme rays of {w in R^k : C w >= 0} by incremental double description.

    ``constraints`` must have full column rank k, which makes the result a
    pointed cone.  Rows are processed in input order; with the rank-based
    adjacency test the ray set stays exactly the extreme rays throughout.
    """
    c = np.atleast_2d(np.asarray(constraints, dtype=float))
    norms = np.linalg.norm(c, axis=1)
    c = c[norms > tol] / norms[norms > tol, None]  # vacuous zero rows dropped
    n, k = c.shape
    if matrix_rank(c, tol) < k:
        raise FormatError("double description needs constraints of full column rank")
    if k == 1:
        signs = np.sign(c[:, 0])
        if np.all(signs > 0):
            return np.array([[1.0]])
        if np.all(signs < 0):
            return np.array([[-1.0]])
        return np.zeros((0, 1))

    start = _independent_rows(c, k, tol)
    rays = np.linalg.inv(c[start]).T  # rows r_j with c[start] @ r_j = e_j
    rays = rays / np.linalg.norm(rays, axis=1)[:, None]
    processed = list(start)

    order = [i for i in range(n) if i not in set(start)]
    for idx in order:
        row = c[idx]
        vals = rays @ row
        pos = vals > tol
        neg = vals < -tol
        zero = ~(pos | neg)
        if not np.any(neg):
            processed.append(idx)
            continue
        kept = [rays[i] for i in np.flatnonzero(pos | zero)]
        tight = np.abs(rays @ c[processed].T) <= tol  # (n_rays, n_processed)
        new = []
        for p in np.flatnonzero(pos):
            for q in np.flatnonzero(neg):
                if not _adjacent(c, processed, tight[p] & tight[q], k, tol):
                    continue
                w = vals[p] * rays[q] - vals[q] * rays[p]
                nw = np.linalg.norm(w)
                if nw > tol:
                    new.append(w / nw)
        merged = kept + new
        processed.append(idx)
        if not merged:
            return np.zeros((0, k))
        rays = unique_rows(np.array(merged), 10 * tol)
    return _extreme_only(rays, c, k, tol)


def _extreme_only(rays: np.ndarray, c: np.ndarray, k: int, tol: float) -> np.ndarray:
    """Drop rays whose tight constraint set has rank below k - 1.

    The tolerance-based adjacency test can over-produce on nearly
    degenerate inputs; extremality of a ray of a pointed cone is exactly
    rank(tight constraints) = k - 1, which this re-checks.
    """
    if rays.shape[0] <= 1 or k == 1:
        return rays
    keep = []
    for r in rays:
        tight = c[np.abs(c @ r) <= 10 * tol]
        if tight.shape[0] >= k - 1 and matrix_rank(tight, tol) >= k - 1:
            keep.append(r)
    return np.array(keep) if keep else np.zeros((0, k))


def _independent_rows(c, k, tol) -> list[int]:
    rows: list[int] = []
    for i in range(c.shape[0]):
        trial = rows + [i]
        if matrix_rank(c[trial], tol) == len(trial):
            rows.append(i)
        if len(rows) == k:
            return rows
    raise FormatError("could not find a full-rank starting set")  # pragma: no cover


def _adjacent(c, processed, common_tight, k, tol) -> bool:
    common = [processed[i] for i in np.flatnonzero(common_tight)]
    if len(common) < k - 2:
        return False
    return matrix_rank(c[common], tol) == k - 2 if common else k == 2
