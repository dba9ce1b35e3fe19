"""Simplex-embeddability of accessible fragments, with certificates.

The decision runs as a feasibility linear program over products of
extreme rays: h-rays support the state cone's facets, d-rays generate
the dual of the effect cone, and the fragment is classical exactly when
the identity on the accessible subspace decomposes as a nonnegative
combination of d h^T dyads.  Feasible programs yield an explicit
noncontextual ontological model; infeasible ones yield a dual witness.
Depolarizing robustness is the least noise weight making the
decomposition feasible, computed by a single LP in which the noise
weight enters linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import dual_cone
from .errors import FormatError, NumericalError
from .fragments import UNIT_LABEL, Fragment, Measurement, require_valid
from .identities import identities_from_stack
from .linalg import orthonormal_basis
from .lp import LinearProgram, check_lp_size, solve
from .models import OntologicalModel

_SUPPORT_TOL = 1e-12
_RESIDUAL_TOL = 1e-7  # largest certificate residual accepted


@dataclass
class AccessibleFragment:
    """A fragment restricted to the subspace its states and effects span.

    Vectors are stored in coordinates over an orthonormal basis (rows of
    ``basis``) of that subspace, so all pairwise probabilities equal the
    originals.  The effect list is closed under complements e -> unit - e.
    ``tol`` is the rank tolerance the subspace was found at; the identities
    use it too.  The cone rays ``h_rays`` and ``d_rays`` are built once, at
    ``tol``, and every LP on the fragment reads them; ``verdict_pipeline``
    solves the robustness LP only for a fragment that does not embed.
    """

    provenance: str
    dimension: int  # k, the accessible dimension
    basis: np.ndarray  # (k, ambient d); coordinates = vector @ basis.T
    unit: np.ndarray  # (k,)
    state_labels: list[str]
    states: np.ndarray  # (n_states, k)
    effect_labels: list[str]
    effects: np.ndarray  # (n_effects, k), complements included
    measurements: list[Measurement]
    tol: float
    h_rays: np.ndarray  # (n_h, k) extreme rays of the state cone's dual
    d_rays: np.ndarray  # (n_d, k) extreme rays of the dual of effects and unit

    def effect_row(self, label: str) -> np.ndarray:
        return self.effects[self.effect_labels.index(label)]


@dataclass
class EmbeddingCertificate:
    """Nonnegative decomposition sum beta_ij d_j h_i^T of the identity."""

    h_rays: np.ndarray  # (n_h, k) state-cone facets
    d_rays: np.ndarray  # (n_d, k) effect-cone dual rays
    beta: np.ndarray  # (n_h, n_d), nonnegative
    residual: float

    @property
    def pairs(self) -> list[tuple[int, int]]:
        ii, jj = np.nonzero(self.beta > _SUPPORT_TOL)
        return list(zip(ii.tolist(), jj.tolist()))


@dataclass
class EmbedResult:
    embeddable: bool
    certificate: EmbeddingCertificate | None = None
    farkas_matrix: np.ndarray | None = None  # Y with <Y, d h^T> >= 0 and tr Y < 0


@dataclass
class RobustnessResult:
    r_star: float
    noise_center: np.ndarray  # ambient coordinates
    certificate: EmbeddingCertificate


def accessibilize(fragment: Fragment, tol: float = 1e-9) -> AccessibleFragment:
    """Project states and effects onto each other's spans to a fixed point.

    All original pairwise probabilities are preserved; the effect list is
    then closed under complements, which guarantees that dual rays
    annihilated by the unit carry no probability in extracted models.
    """
    require_valid(fragment, max(tol, 1e-9))
    states = fragment.state_matrix()
    if not fragment.states or not fragment.effects:
        raise FormatError("accessibilize requires at least one state and one effect")
    effects = np.vstack([fragment.effect_matrix(), fragment.unit_effect[None, :]])

    orig_probs = states @ effects.T
    dim_prev = None
    while True:
        sb = orthonormal_basis(states, tol)
        if sb.shape[0] == 0:
            raise FormatError("states span only the zero space")
        effects = effects @ sb.T @ sb
        eb = orthonormal_basis(effects, tol)
        states = states @ eb.T @ eb
        if dim_prev == (sb.shape[0], eb.shape[0]):
            break
        dim_prev = (sb.shape[0], eb.shape[0])

    basis = orthonormal_basis(states, tol)
    k = basis.shape[0]
    states_k = states @ basis.T
    effects_k = effects @ basis.T
    unit_k = effects_k[-1]
    effects_k = effects_k[:-1]

    check = states_k @ np.vstack([effects_k, unit_k]).T
    drift = float(np.max(np.abs(check - orig_probs)))
    if drift > 1e-9 * max(1.0, float(np.max(np.abs(orig_probs)))):
        raise NumericalError(f"accessible projection drifted probabilities by {drift:.2e}")

    labels = [e.label for e in fragment.effects]
    closed = list(effects_k)
    closed_labels = list(labels)
    for lab, row in zip(labels, effects_k):
        comp = unit_k - row
        if np.linalg.norm(comp) <= tol:
            continue
        if any(np.max(np.abs(comp - q)) <= 1e-9 for q in closed):
            continue
        closed.append(comp)
        closed_labels.append(f"not:{lab}")

    h = dual_cone(states_k, tol).generators
    gens = np.vstack([*closed, unit_k])
    # Effects projected to zero are unobservable and constrain nothing.
    gens = gens[np.linalg.norm(gens, axis=1) > tol]
    d = dual_cone(gens, tol).generators
    if h.shape[0] == 0 or d.shape[0] == 0:
        raise NumericalError("degenerate cone: no dual rays")
    return AccessibleFragment(
        provenance=fragment.name,
        dimension=k,
        basis=basis,
        unit=unit_k,
        state_labels=[s.label for s in fragment.states],
        states=states_k,
        effect_labels=closed_labels,
        effects=np.array(closed),
        measurements=list(fragment.measurements),
        tol=tol,
        h_rays=h,
        d_rays=d,
    )


def _decomposition_lp(af: AccessibleFragment, center: np.ndarray | None = None):
    """The LP sum beta_ij d_j h_i^T = identity over the fragment's rays.

    With a noise ``center`` m, a last variable r in [0, 1] is appended and
    minimized, and the target becomes (1-r) I + r m u^T.
    """
    h, d = af.h_rays, af.d_rays
    k = af.dimension
    n_beta = h.shape[0] * d.shape[0]
    robust = int(center is not None)  # the r variable and its r <= 1 row
    check_lp_size(n_beta + robust, k * k, robust)  # before the dense columns exist
    # Column (i, j) is vec(outer(d_j, h_i)); rows run over the k x k target.
    cols = np.einsum("ja,ib->abij", d, h).reshape(k * k, n_beta)
    target = np.eye(k).reshape(-1)
    if center is None:
        return LinearProgram(n_vars=n_beta, a_eq=cols, b_eq=target)
    r_col = (np.eye(k) - np.outer(center, af.unit)).reshape(-1, 1)
    r_only = np.zeros(n_beta + 1)
    r_only[-1] = 1.0
    return LinearProgram(
        n_vars=n_beta + 1,
        objective=r_only,
        a_eq=np.hstack([cols, r_col]),
        b_eq=target,
        a_ub=r_only[None],  # r <= 1
        b_ub=np.ones(1),
    )


def _certificate(af: AccessibleFragment, x, target) -> EmbeddingCertificate:
    """The certificate carried by the LP solution x; its residual is checked."""
    h, d = af.h_rays, af.d_rays
    beta = np.maximum(x[: h.shape[0] * d.shape[0]], 0.0).reshape(h.shape[0], d.shape[0])
    recon = np.einsum("ij,ja,ib->ab", beta, d, h)
    residual = float(np.max(np.abs(recon - target)))
    if residual > _RESIDUAL_TOL:
        raise NumericalError(f"embedding certificate residual {residual:.2e}")
    return EmbeddingCertificate(h_rays=h, d_rays=d, beta=beta, residual=residual)


def test_embeddability(af: AccessibleFragment) -> EmbedResult:
    """Feasibility of sum beta_ij d_j h_i^T = identity, with certificates."""
    k = af.dimension
    sol = solve(_decomposition_lp(af))
    if sol.status == "infeasible":
        return EmbedResult(
            embeddable=False, farkas_matrix=sol.farkas.eq.reshape(k, k)
        )
    return EmbedResult(embeddable=True, certificate=_certificate(af, sol.x, np.eye(k)))


test_embeddability.__test__ = False  # not a pytest case despite the name


def accessible_identities(af: AccessibleFragment):
    """Operational identities of the projected vectors.

    Projection onto the mutual span can create dependences the raw
    fragment lacks (components no realized effect can see are quotiented
    away), so these - not the raw identities - pair with the geometric
    embeddability verdict.  Effect identities run over measured effects
    plus the unit.
    """
    state_idents = identities_from_stack(
        list(af.state_labels), af.states, "states", af.tol
    )
    measured = list(dict.fromkeys(lab for m in af.measurements for lab in m.effects))
    stack = [af.effect_row(lab) for lab in measured] + [af.unit]
    effect_idents = identities_from_stack(
        measured + [UNIT_LABEL], np.array(stack), "effects", af.tol
    )
    return state_idents, effect_idents


def to_model(cert: EmbeddingCertificate, af: AccessibleFragment) -> OntologicalModel:
    """Explicit noncontextual model from an embedding certificate.

    Ontic states are the supported (h, d) ray pairs; pairs whose d-ray is
    annihilated by the unit carry no probability (complement closure
    forces every effect to vanish there) and are dropped.
    """
    if cert.residual > _RESIDUAL_TOL:
        raise FormatError(f"certificate residual {cert.residual:.2e} above tolerance")
    u_dot = cert.d_rays @ af.unit
    pairs = [
        (i, j)
        for i, j in cert.pairs
        if u_dot[j] > _SUPPORT_TOL
    ]
    if not pairs:
        raise NumericalError("certificate has no supported ontic pairs")
    h_sel = cert.h_rays[[i for i, _ in pairs]]
    d_sel = cert.d_rays[[j for _, j in pairs]]
    w = np.array([cert.beta[i, j] for i, j in pairs])
    u_sel = d_sel @ af.unit

    mu = (af.states @ h_sel.T) * (w * u_sel)[None, :]
    mu = np.where(np.abs(mu) < _SUPPORT_TOL, 0.0, mu)
    if np.min(mu, initial=0.0) < -1e-9:
        raise NumericalError("negative epistemic weight in extracted model")
    mu = np.maximum(mu, 0.0)

    xi = []
    for m in af.measurements:
        rows = np.array([af.effect_row(lab) for lab in m.effects])
        vals = (rows @ d_sel.T) / u_sel[None, :]
        if np.min(vals, initial=0.0) < -1e-9 or np.max(vals, initial=0.0) > 1 + 1e-9:
            raise NumericalError("response value escaped [0, 1] in extracted model")
        xi.append(np.clip(vals, 0.0, 1.0))

    return OntologicalModel(
        ontic_labels=[f"h{i}·d{j}" for i, j in pairs],
        preparations=list(af.state_labels),
        measurements=[m.label for m in af.measurements],
        outcomes=[list(m.effects) for m in af.measurements],
        mu=mu,
        xi=xi,
    )


def robustness(af: AccessibleFragment) -> RobustnessResult:
    """Minimal depolarizing weight r making the fragment embeddable.

    The noise center is the uniform state average; r enters the
    decomposition target (1-r) I + r m u^T linearly, so one LP suffices.
    Full mixing (r = 1) is always feasible.
    """
    m_center = af.states.mean(axis=0)
    sol = solve(_decomposition_lp(af, m_center))
    if sol.status != "optimal":
        raise NumericalError(f"robustness LP ended with status {sol.status}")
    r_star = float(min(max(sol.x[-1], 0.0), 1.0))
    target = (1 - r_star) * np.eye(af.dimension) + r_star * np.outer(m_center, af.unit)
    return RobustnessResult(
        r_star=r_star,
        noise_center=m_center @ af.basis,
        certificate=_certificate(af, sol.x, target),
    )

