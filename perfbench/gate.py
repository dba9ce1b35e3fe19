"""Correctness gate: independent checks run outside the timed region.

Each checker returns a list of problems; an empty list means the output
passed.  The LP re-solves use scipy's HiGHS, which shares no code with
the package's own simplex, and build the decomposition columns from the
rays afresh.  scipy is imported lazily so that the gate never adds to
the measured set-up time.
"""

from __future__ import annotations

import numpy as np

import classicality as C
from classicality.cones import dual_cone
from classicality.fragments import UNIT_LABEL

CERT_TOL = 1e-7  # residual of a returned decomposition or model
FARKAS_TOL = 1e-9  # slack on <Y, d h^T> >= 0, relative to max |Y|
R_STAR_TOL = 1e-6  # agreement of r* with the HiGHS re-solve


def ray_pair(af, tol: float = 1e-9):
    """(h, d) rays of an accessible fragment, built with the public dual_cone."""
    h = dual_cone(af.states, tol).generators
    gens = np.vstack([af.effects, af.unit[None, :]])
    gens = gens[np.linalg.norm(gens, axis=1) > tol]
    return h, dual_cone(gens, tol).generators


def _columns(h, d):
    k = h.shape[1]
    return np.einsum("ja,ib->abij", d, h).reshape(k * k, h.shape[0] * d.shape[0])


def highs_embeddable(h, d) -> bool:
    """Feasibility of sum beta_ij d_j h_i^T = I, beta >= 0, by HiGHS."""
    from scipy.optimize import linprog

    cols = _columns(h, d)
    k = h.shape[1]
    res = linprog(
        np.zeros(cols.shape[1]), A_eq=cols, b_eq=np.eye(k).reshape(-1),
        bounds=(0, None), method="highs",
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS embedding re-solve ended with status {res.status}")
    return res.status == 0


def highs_r_star(h, d, af) -> float:
    """Least depolarizing weight toward the mean state, by HiGHS."""
    from scipy.optimize import linprog

    k = af.dimension
    cols = _columns(h, d)
    r_col = (np.eye(k) - np.outer(af.states.mean(axis=0), af.unit)).reshape(-1, 1)
    cost = np.zeros(cols.shape[1] + 1)
    cost[-1] = 1.0
    bounds = [(0, None)] * cols.shape[1] + [(0, 1)]
    res = linprog(
        cost, A_eq=np.hstack([cols, r_col]), b_eq=np.eye(k).reshape(-1),
        bounds=bounds, method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS robustness re-solve ended with status {res.status}")
    return float(res.x[-1])


def decomposition_problems(beta, h, d, target) -> list[str]:
    out = []
    if np.min(beta, initial=0.0) < 0.0:
        out.append(f"negative decomposition weight {np.min(beta):.3e}")
    recon = np.einsum("ij,ja,ib->ab", beta, d, h)
    resid = float(np.max(np.abs(recon - target)))
    if resid > CERT_TOL:
        out.append(f"decomposition residual {resid:.3e}")
    return out


def farkas_problems(y, h, d) -> list[str]:
    """<Y, d h^T> >= 0 for every ray pair and tr Y < 0."""
    y = np.asarray(y, dtype=float)
    scale = max(float(np.max(np.abs(y))), 1e-300)
    out = []
    worst = float(np.min(d @ y @ h.T))
    if worst < -FARKAS_TOL * scale:
        out.append(f"Farkas witness negative on a ray pair ({worst:.3e})")
    if not np.trace(y) < -FARKAS_TOL * scale:
        out.append(f"Farkas witness trace {np.trace(y):.3e} is not negative")
    return out


def model_problems(model, stats, state_ids, effect_ids) -> list[str]:
    check = C.verify_model(model, stats, state_ids, effect_ids)
    return [] if check.passed else [f"model check {check.describe()}"]


def probability_table(fragment):
    """All state-effect probabilities, unit column last."""
    effects = np.vstack([fragment.effect_matrix(), fragment.unit_effect[None, :]])
    return fragment.state_matrix() @ effects.T


def embed_problems(fragment, af, emb, rob, truth: bool, stats, ids) -> list[str]:
    """Verdict, certificate, witness and r* of one embeddability analysis."""
    out = []
    k = af.dimension
    if k != np.linalg.matrix_rank(probability_table(fragment), tol=1e-8):
        out.append(f"accessible dimension {k} differs from the table rank")
    if emb.embeddable != truth:
        out.append(f"verdict embeddable={emb.embeddable}, truth {truth}")
    h, d = rob.certificate.h_rays, rob.certificate.d_rays
    if emb.embeddable:
        cert = emb.certificate
        out += decomposition_problems(cert.beta, cert.h_rays, cert.d_rays, np.eye(k))
    else:
        out += farkas_problems(emb.farkas_matrix, h, d)
    if highs_embeddable(h, d) != emb.embeddable:
        out.append("HiGHS re-solve disagrees with the embeddability verdict")
    target = (1 - rob.r_star) * np.eye(k) + rob.r_star * np.outer(af.states.mean(axis=0), af.unit)
    out += [f"robustness {p}" for p in decomposition_problems(rob.certificate.beta, h, d, target)]
    r_ref = highs_r_star(h, d, af)
    if abs(rob.r_star - r_ref) > R_STAR_TOL:
        out.append(f"r* {rob.r_star:.9f} differs from HiGHS {r_ref:.9f}")
    if (rob.r_star <= R_STAR_TOL) != emb.embeddable:
        out.append(f"r* {rob.r_star:.3e} contradicts the verdict")
    return out


def inequality_problems(ineq, stats) -> list[str]:
    verdict = C.evaluate(ineq, stats)
    value = sum(float(np.sum(c * t)) for c, t in zip(ineq.coefficients, stats.tables))
    out = []
    if not verdict.violated:
        out.append(f"inequality not violated: {verdict.value:.6f} <= {verdict.bound:.6f}")
    if abs(value - verdict.value) > 1e-9:
        out.append("inequality value differs from the direct sum")
    return out


def identity_problems(idents, labeled, tol: float = 1e-8) -> list[str]:
    """Each identity holds on ``labeled`` and they number n - rank."""
    vec = dict(labeled)
    out = []
    for ident in idents:
        total = sum(c * vec[lab] for lab, c in ident.terms)
        if np.max(np.abs(total)) > tol:
            out.append(f"identity residual {np.max(np.abs(total)):.3e}")
    stack = np.array([v for _, v in labeled])
    expected = len(labeled) - np.linalg.matrix_rank(stack, tol=1e-8)
    if len(idents) != expected:
        out.append(f"{len(idents)} identities, expected {expected}")
    return out


def side_vectors(fragment, side: str):
    if side == "states":
        return [(v.label, v.vector) for v in fragment.states]
    return [(v.label, v.vector) for v in fragment.effects] + [(UNIT_LABEL, fragment.unit_effect)]
