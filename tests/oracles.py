"""Independent test oracles, seeded random-instance generators, and lookups.

These deliberately avoid the code paths they check: identity residuals
are summed term by term, extremality is filtered with NNLS, noncontextual
bounds come from an exhaustive grid search, robustness is re-derived by
depolarize-and-retest bisection, and the tomography fit is replayed one
restart and one least-squares problem at a time.  The lookups at the top
read fragments and secondary solutions the way only tests need to.
"""

from dataclasses import replace

import numpy as np

from classicality.embedding import accessibilize, test_embeddability
from classicality.errors import FormatError, NumericalError
from classicality.fragments import (
    Fragment,
    GptVector,
    Measurement,
    StatisticsTable,
    partial_trace,
)
from classicality.linalg import constrained_lstsq, matrix_rank
from classicality.lp import LinearProgram, solve
from classicality.models import OntologicalModel
from classicality.noncontextuality import response_vertices
from classicality.tomography import FitConvergenceError, _initial_states


def state_vector(fragment: Fragment, label: str) -> np.ndarray:
    """The vector of the state labelled ``label``."""
    for v in fragment.states:
        if v.label == label:
            return v.vector
    raise FormatError(f"unknown state label {label!r}")


def mean_primary_weight(sol) -> float:
    """Mean diagonal weight c_xx of a secondary solution."""
    return float(np.mean(sol.primary_weight))


def added_noise(sol) -> float:
    """The noisier-than-realized tradeoff, 1 - min diagonal weight."""
    return float(1.0 - np.min(sol.primary_weight))


def random_fragment(seed):
    """Seeded random valid fragment: dimension <= 3, <= 6 states, <= 6 effects.

    States are sampled on the normalization plane until they span the
    space; binary measurements use sharp effects so both embeddable and
    non-embeddable geometries occur.  Effects plus the unit always span
    the state span (no quotient on accessibilization).
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    n_states = int(rng.integers(d + 1, 7))
    for _ in range(100):
        xs = rng.uniform(-1.0, 1.0, size=(n_states, d - 1))
        states = np.hstack([np.ones((n_states, 1)), xs])
        if matrix_rank(states) == d:
            break
    else:  # pragma: no cover
        raise RuntimeError("could not sample spanning states")

    n_meas = int(rng.integers(d - 1, 4))
    for _ in range(100):
        dirs = rng.normal(size=(n_meas, d - 1))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        if matrix_rank(dirs) == min(d - 1, n_meas):
            break
    effects = []
    measurements = []
    unit = np.zeros(d)
    unit[0] = 1.0
    for j in range(n_meas):
        w = dirs[j]
        vals = xs @ w
        spread = float(vals.max() - vals.min())
        if spread < 1e-6:  # pragma: no cover
            spread = 1e-6
        sharp = float(rng.uniform(0.7, 0.999))
        c = sharp / spread
        a = -c * float(vals.min()) + (1.0 - sharp) * float(rng.uniform(0.0, 1.0))
        e = np.concatenate([[a], c * w])
        effects.append(GptVector(f"e0|{j}", e, "effect"))
        effects.append(GptVector(f"e1|{j}", unit - e, "effect"))
        measurements.append(Measurement(f"m{j}", (f"e0|{j}", f"e1|{j}")))
    return Fragment(
        name=f"random-{seed}",
        dimension=d,
        unit_effect=unit,
        states=[GptVector(f"s{i}", states[i], "state") for i in range(n_states)],
        effects=effects,
        measurements=measurements,
    )


def check_identity(fragment: Fragment, identity, tol: float = 1e-9):
    """Evaluate the identity residual || sum of coefficient * vector ||_inf.

    Marginalization-tagged identities are evaluated on the partial-traced
    vectors.  Returns (residual, passed).
    """
    if identity.marginalization is not None:
        source = partial_trace(fragment, identity.marginalization)
    else:
        source = fragment
    total = None
    for lab, coeff in identity.terms:
        if identity.side == "states":
            vec = state_vector(source, lab)
        else:
            vec = source.effect(lab)
        total = coeff * vec if total is None else total + coeff * vec
    residual = float(np.max(np.abs(total)))
    return residual, residual <= tol


def grid_bound_oracle(coeffs, outcomes, alpha_groups, resolution=64):
    """Exhaustive grid maximum of a functional over noncontextual models.

    Supports the single pair-identity structure of the square scenario:
    ``alpha_groups`` is ((plus indices), (minus indices)) from an identity
    with +-1 coefficients.  Epistemic states over the 4 deterministic
    response vertices must satisfy the identity pointwise, so the shared
    column measure tau (mass 2, on a 1/resolution grid) determines the
    optimum of each preparation pair by exact greedy filling that stays on
    the grid; tau itself is enumerated exhaustively.
    """
    structure = [(f"m{y}", list(outcomes[y])) for y in range(len(outcomes))]
    verts = response_vertices([], structure)
    n = len(verts)
    n_prep = coeffs[0].shape[0]
    score = np.zeros((n_prep, n))
    for x in range(n_prep):
        for v, vert in enumerate(verts):
            s = 0.0
            for y, tab in enumerate(coeffs):
                for b, lab in enumerate(outcomes[y]):
                    s += tab[x, b] * vert.value(lab)
            score[x, v] = s

    plus, minus = alpha_groups

    # All grid column measures tau with total mass 2 (vectorized
    # compositions of 2*resolution into n parts).
    total = 2 * resolution
    grids = np.meshgrid(*([np.arange(total + 1)] * (n - 1)), indexing="ij")
    parts = np.stack([g.reshape(-1) for g in grids], axis=1)
    mask = parts.sum(axis=1) <= total
    parts = parts[mask]
    tau = np.hstack([parts, (total - parts.sum(axis=1))[:, None]]) / resolution

    def greedy_pair(sx, sy):
        # The greedy fill order depends only on the gains, so it is shared
        # by every tau row and the whole sweep vectorizes.
        order = np.argsort(-(sx - sy), kind="stable")
        t = tau[:, order]
        room = np.maximum(1.0 - np.cumsum(t, axis=1) + t, 0.0)
        take = np.minimum(t, room)
        filled = take.sum(axis=1)
        value = take @ sx[order] + (t - take) @ sy[order]
        value[filled < 1.0 - 1e-12] = -np.inf  # tau cannot carry unit mass
        return value

    totals = greedy_pair(score[plus[0]], score[plus[1]]) + greedy_pair(
        score[minus[0]], score[minus[1]]
    )
    return float(np.max(totals))


def random_noncontextual_models(stats, state_identities, vertices, count, seed):
    """Explicit noncontextual models sampled as vertices of the mu polytope.

    Each sample maximizes a random linear objective over {mu >= 0, rows
    normalized, identities pointwise}, so it is a concrete ontological
    model by construction; callers can verify its invariants directly.
    """
    nx = len(stats.preparations)
    nv = len(vertices)
    rows = []
    rhs = []
    for x in range(nx):
        row = np.zeros(nx * nv)
        row[x * nv : (x + 1) * nv] = 1.0
        rows.append(row)
        rhs.append(1.0)
    alphas = [i.coefficient_vector(stats.preparations) for i in state_identities]
    for alpha in alphas:
        for v in range(nv):
            row = np.zeros(nx * nv)
            for x in range(nx):
                row[x * nv + v] = alpha[x]
            rows.append(row)
            rhs.append(0.0)
    a_eq = np.array(rows)
    b_eq = np.array(rhs)
    xi = [
        np.array([[vert.value(lab) for lab in stats.outcomes[y]] for vert in vertices])
        for y in range(len(stats.measurements))
    ]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        lp = LinearProgram(
            n_vars=nx * nv,
            objective=rng.normal(size=nx * nv),
            sense="max",
            a_eq=a_eq,
            b_eq=b_eq,
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        mu = np.maximum(sol.x.reshape(nx, nv), 0.0)
        model = OntologicalModel(
            ontic_labels=[f"v{v.vertex_id}" for v in vertices],
            preparations=list(stats.preparations),
            measurements=list(stats.measurements),
            outcomes=[list(o) for o in stats.outcomes],
            mu=mu,
            xi=[xi[y].T for y in range(len(stats.measurements))],
        )
        table = StatisticsTable(
            preparations=list(stats.preparations),
            measurements=list(stats.measurements),
            outcomes=[list(o) for o in stats.outcomes],
            tables=[mu @ xi[y] for y in range(len(stats.measurements))],
        )
        out.append((model, table))
    return out


def depolarize(fragment: Fragment, r: float, center: np.ndarray | None = None) -> Fragment:
    """Mix every state with weight r toward the (uniform average) center."""
    if not 0.0 <= r <= 1.0:
        raise FormatError("depolarizing weight must lie in [0, 1]")
    if not fragment.states:
        raise FormatError("cannot depolarize a fragment without states")
    if center is None:
        center = np.mean([s.vector for s in fragment.states], axis=0)
    states = [
        GptVector(s.label, (1 - r) * s.vector + r * center, "state")
        for s in fragment.states
    ]
    return replace(fragment, name=f"{fragment.name}@r={r:.6f}", states=states)


def robustness_by_bisection(
    fragment: Fragment, r_tol: float = 1e-4, tol: float = 1e-9
) -> float:
    """Independent oracle: depolarize, retest embeddability, bisect.

    Feasibility is monotone in r (a feasible mixture stays feasible for
    more mixing), which the bisection relies on and asserts at its
    endpoints.
    """
    if test_embeddability(accessibilize(fragment, tol)).embeddable:
        return 0.0
    lo, hi = 0.0, 1.0
    assert test_embeddability(accessibilize(depolarize(fragment, hi), tol)).embeddable
    while hi - lo > r_tol:
        mid = 0.5 * (lo + hi)
        ok = test_embeddability(accessibilize(depolarize(fragment, mid), tol)).embeddable
        if ok:
            hi = mid
        else:
            lo = mid
    return hi


def fit_rank_sequential(tables, k, seed, max_alternations, warm=None):
    """Reference for ``tomography._fit_rank``: restarts one after another.

    Every restart alternates alone, with one 2-d ``constrained_lstsq``
    call per measurement and per preparation; a restart whose problem
    fails is skipped.  Same arguments as ``_fit_rank``, and every restart
    runs to its end: ``_fit_rank`` stops the restarts after one that
    converges at chi^2 ~ 0, so the two differ only when a stopped restart
    would have ended closer to zero.
    """
    fhat, weights = tables.fhat, tables.weights
    best = (np.inf, None, None, False)
    for init in _initial_states(fhat, k, seed, warm):
        try:
            chi2, states, effects, converged = _fit_once(
                fhat, weights, k, init, max_alternations
            )
        except NumericalError:
            continue
        if (converged, -chi2) > (best[3], -best[0]):
            best = (chi2, states, effects, converged)
    if best[1] is None:
        raise FitConvergenceError(f"all restarts failed numerically at k={k}")
    return best


def _fit_once(fhat, weights, k, init_states, max_alt):
    states = init_states.copy()
    chi2_prev = np.inf
    effects = None
    for _ in range(max_alt):
        effects = [_effect_pass(fhat[y], weights[y], states, k) for y in range(len(fhat))]
        if k > 1:
            states = _state_pass(fhat, weights, effects, states)
        chi2 = 0.0
        for y, f in enumerate(fhat):
            chi2 += float(np.sum((weights[y] * (states @ effects[y].T - f)) ** 2))
        if abs(chi2_prev - chi2) <= 1e-10 * (1.0 + chi2):
            return chi2, states, effects, True
        chi2_prev = chi2
    return chi2_prev, states, effects, False


def _effect_pass(f, w, states, k):
    nx, nb = f.shape
    unit = np.eye(k)[0]
    if nb == 1:
        return unit[None, :]
    m = nb - 1
    a = _outcome_rows(w, states)
    b = np.concatenate([(w[:, :m] * f[:, :m]).T.reshape(-1), w[:, m] * (f[:, m] - 1.0)])
    g = _outcome_rows(np.ones_like(w), states)
    h = np.concatenate([np.zeros(m * nx), np.full(nx, -1.0)])
    effects = constrained_lstsq(a, b, g=g, h=h).reshape(m, k)
    return np.vstack([effects, (unit - effects.sum(axis=0))[None, :]])


def _outcome_rows(scale, states):
    nx, nb = scale.shape
    m = nb - 1
    k = states.shape[1]
    top = np.zeros((m, nx, m, k))
    top[np.arange(m), :, np.arange(m)] = scale[:, :m].T[:, :, None] * states
    last = np.tile(-scale[:, m:] * states, m)
    return np.vstack([top.reshape(m * nx, m * k), last])


def _state_pass(fhat, weights, effects, states):
    e = np.vstack(effects)
    w = np.hstack(weights)
    f = np.hstack(fhat)
    g = np.stack([e[:, 1:], -e[:, 1:]], axis=1).reshape(-1, e.shape[1] - 1)
    h = np.stack([-e[:, 0], e[:, 0] - 1.0], axis=1).reshape(-1)
    out = states.copy()
    for x in range(states.shape[0]):
        a = w[x][:, None] * e[:, 1:]
        out[x, 1:] = constrained_lstsq(a, w[x] * (f[x] - e[:, 0]), g=g, h=h)
    return out
