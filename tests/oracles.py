"""Independent test oracles, seeded random-instance generators, and lookups.

These deliberately avoid the code paths they check: identity residuals
are summed term by term, noncontextual bounds come from an exhaustive
grid search and from the LP over the weights mu_x(v) with one row per
(state identity, vertex), embeddability is decided by the feasibility LP
sum beta d h^T = I rather than the min-r LP, robustness is re-derived by
depolarize-and-retest bisection over that verdict, the accessible
fragment is found by projection rounds until its ranks repeat, with its
cones through ``dual_cone``, the tomography fit is replayed one start
and one least-squares problem at a time and its rank loop without the
chi^2 lower-bound screen, least distance programming
hands every problem to scipy's NNLS, the simplex is replayed on its full
tableau with scalar scans, and the double description and its row
helpers run one pair, one ray and one row at a time.  The lookups at the
top read fragments and secondary solutions the way only tests need to.
"""

from dataclasses import replace

import numpy as np
from scipy.optimize import nnls

from classicality import tomography
from classicality.cones import dual_cone
from classicality.embedding import AccessibleFragment, accessibilize
from classicality.errors import FormatError, NumericalError
from classicality.fragments import (
    Fragment,
    GptVector,
    Measurement,
    StatisticsTable,
    partial_trace,
    require_valid,
)
from classicality.linalg import constrained_lstsq, matrix_rank, orthonormal_basis
from classicality.lp import (
    _INFEAS_TOL,
    _OPT_TOL,
    _PIVOT_TOL,
    LinearProgram,
    LpSolution,
    _farkas_back,
    _violation,
    solve,
)
from classicality.models import OntologicalModel
from classicality.noncontextuality import (
    MembershipResult,
    NoncontextualityInequality,
    response_vertices,
)
from classicality.tomography import (
    DimensionSelectionError,
    FitConvergenceError,
    FitResult,
)
from perfbench.inputs import SCENARIOS, composite, regular_polygon, scenario


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


def cone_fragments():
    """The canonical scenarios, the regular 4- to 24-gons and composites in
    both factor orders: the fragments behind test_cones' cone families."""
    fragments = [scenario(key) for key in SCENARIOS]
    fragments += [regular_polygon(n) for n in range(4, 25)]
    pairs = [("bit", "bit"), ("bit", "pr"), ("bit", "stab"), ("bit", "labB"),
             ("tri", "pr"), ("pr", "pr"), ("stab", "tri"), ("med", "bit")]
    fragments += [composite(a, b) for a, b in pairs]
    return fragments + [composite(b, a) for a, b in pairs if a != b]


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
    flat = np.hstack(coeffs)  # columns in the table's measurement-major order
    score = np.zeros((n_prep, n))
    for x in range(n_prep):
        for v in range(n):
            s = 0.0
            for col in range(flat.shape[1]):
                s += flat[x, col] * verts[v, col]
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
    ``vertices`` is a ``response_vertices`` table whose columns follow
    the statistics' outcomes.
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
    xi = np.split(vertices, np.cumsum([len(o) for o in stats.outcomes])[:-1], axis=1)
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
            ontic_labels=[f"v{v}" for v in range(nv)],
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


def embeds_by_feasibility(af: AccessibleFragment) -> bool:
    """Independent verdict: sum beta_ij d_j h_i^T = I has a solution beta >= 0.

    A feasibility LP without the noise column, so phase 1 decides it; an
    infeasible answer comes with a Farkas certificate ``solve`` verified.
    """
    h, d, k = af.h_rays, af.d_rays, af.dimension
    cols = np.einsum("ja,ib->abij", d, h).reshape(k * k, h.shape[0] * d.shape[0])
    sol = solve(LinearProgram(n_vars=cols.shape[1], a_eq=cols, b_eq=np.eye(k).reshape(-1)))
    return sol.status == "optimal"


def accessibilize_by_rounds(fragment: Fragment, tol: float = 1e-9) -> AccessibleFragment:
    """Reference for ``embedding.accessibilize``: projection rounds until the
    two ranks repeat, a final basis of the projected states, the complements
    appended one at a time, and both cones through ``dual_cone``'s change of
    basis."""
    require_valid(fragment, max(tol, 1e-9))
    states = fragment.state_matrix()
    effects = np.vstack([fragment.effect_matrix(), fragment.unit_effect[None, :]])
    dim_prev = None
    while True:
        sb = orthonormal_basis(states, tol)
        effects = effects @ sb.T @ sb
        eb = orthonormal_basis(effects, tol)
        states = states @ eb.T @ eb
        if dim_prev == (sb.shape[0], eb.shape[0]):
            break
        dim_prev = (sb.shape[0], eb.shape[0])
    basis = orthonormal_basis(states, tol)
    states_k, effects_k = states @ basis.T, effects @ basis.T
    unit_k, effects_k = effects_k[-1], effects_k[:-1]
    labels = [e.label for e in fragment.effects]
    closed, closed_labels = effects_k, list(labels)
    for lab, row in zip(labels, effects_k):
        comp = unit_k - row
        if np.linalg.norm(comp) <= tol:
            continue
        if np.any(np.max(np.abs(comp - closed), axis=1) <= 1e-9):
            continue
        closed = np.vstack([closed, comp])
        closed_labels.append(f"not:{lab}")
    gens = np.vstack([closed, unit_k])
    gens = gens[np.linalg.norm(gens, axis=1) > tol]
    return AccessibleFragment(
        provenance=fragment.name, dimension=basis.shape[0], basis=basis, unit=unit_k,
        state_labels=[s.label for s in fragment.states], states=states_k,
        effect_labels=closed_labels, effects=closed,
        measurements=list(fragment.measurements), tol=tol,
        h_rays=dual_cone(states_k, tol).generators, d_rays=dual_cone(gens, tol).generators,
    )


def robustness_by_bisection(
    fragment: Fragment, r_tol: float = 1e-4, tol: float = 1e-9
) -> float:
    """Independent oracle: depolarize, retest embeddability, bisect.

    Feasibility is monotone in r (a feasible mixture stays feasible for
    more mixing), which the bisection relies on and asserts at its
    endpoints.
    """
    if embeds_by_feasibility(accessibilize(fragment, tol)):
        return 0.0
    lo, hi = 0.0, 1.0
    assert embeds_by_feasibility(accessibilize(depolarize(fragment, hi), tol))
    while hi - lo > r_tol:
        mid = 0.5 * (lo + hi)
        ok = embeds_by_feasibility(accessibilize(depolarize(fragment, mid), tol))
        if ok:
            hi = mid
        else:
            lo = mid
    return hi


def _mu_polytope(nx: int, nv: int, alphas):
    """Equality rows on the weights mu_x(v), x-major.

    One normalization row sum_v mu_x(v) = 1 per preparation x, then one
    row sum_x alpha_x mu_x(v) = 0 per (state identity, vertex): the
    blocks I (x) 1^T and alpha^T (x) I, filled by index so that no
    -0.0 appears where alpha_x < 0.
    """
    n_id = len(alphas)
    a = np.zeros((nx + n_id * nv, nx * nv))
    a[:nx] = np.repeat(np.eye(nx), nv, axis=1)
    v = np.arange(nv)
    a[nx:].reshape(n_id, nv, nx, nv)[:, v, :, v] = np.reshape(alphas, (n_id, nx))
    b = np.zeros(a.shape[0])
    b[:nx] = 1.0
    return a, b


def noncontextual_maximum_mu_polytope(alphas, xi, coeffs) -> float:
    """The maximum of sum c.p over noncontextual tables, the bound oracle for
    ``membership`` and ``violated_inequality``: the LP over the weights
    mu_x(v) themselves, with one identity row per (state identity, vertex)."""
    nx = coeffs[0].shape[0]
    nv = xi[0].shape[0]
    objective = np.zeros((nx, nv))
    for y, c in enumerate(coeffs):
        for x in range(nx):
            objective[x] += xi[y] @ c[x]
    a_mu, b_mu = _mu_polytope(nx, nv, alphas)
    sol = solve(LinearProgram(
        n_vars=nx * nv, objective=objective.reshape(-1), sense="max", a_eq=a_mu, b_eq=b_mu
    ))
    assert sol.status == "optimal"
    return float(sol.objective_value)


def full_row_membership_lp(stats, state_identities=(), effect_identities=(), tol=1e-9):
    """The membership LP with one statistics row per (preparation, outcome).

    Rows: sum_v mu_x(v) = 1 per preparation, then sum_x alpha_x mu_x(v) = 0
    per (state identity, vertex), then sum_v xi(b | v) mu_x(v) = p(b | x)
    per (x, b), x-major.  A table off normalization by more than 1e-9
    (within ``tol``) is clipped at 0 and renormalized, and the identities
    are rescaled by its row sums, as ``membership`` does.  Returns
    (lp, alphas, xi) with xi[y] the (vertices, outcomes) responses.
    """
    p = []
    row_sums = np.ones(len(stats.preparations))
    for table in stats.tables:
        off = np.max(np.abs(table.sum(axis=1) - 1.0))
        if off > tol:
            raise FormatError("statistics are not normalized")
        if off > 1e-9 or table.min() < -1e-9:
            table = np.maximum(table, 0.0)
            row_sums = table.sum(axis=1)
            table = table / row_sums[:, None]
        p.append(table)
    xi_all = response_vertices(
        effect_identities, list(zip(stats.measurements, stats.outcomes)), tol
    )
    nx = len(stats.preparations)
    nv, n_out = xi_all.shape
    xi = np.split(xi_all, np.cumsum([len(o) for o in stats.outcomes])[:-1], axis=1)
    alphas = [i.coefficient_vector(stats.preparations) * row_sums for i in state_identities]
    a_mu, b_mu = _mu_polytope(nx, nv, alphas)
    a_stat = np.zeros((nx * n_out, nx * nv))
    for x in range(nx):
        a_stat[x * n_out : (x + 1) * n_out, x * nv : (x + 1) * nv] = xi_all.T
    lp = LinearProgram(
        n_vars=nx * nv,
        a_eq=np.vstack([a_mu, a_stat]),
        b_eq=np.concatenate([b_mu, np.hstack(p).reshape(-1)]),
    )
    return lp, alphas, xi


def membership_full_rows(stats, state_identities=(), effect_identities=(), tol=1e-9):
    """Reference verdict for ``membership``: the LP with every statistics row.

    A feasible table returns the LP's weights as ``model.mu`` over every
    vertex; an infeasible one the inequality tightened from the Farkas
    multipliers of all (preparation, outcome) rows, its bound from
    ``noncontextual_maximum_mu_polytope``.
    """
    lp, alphas, xi = full_row_membership_lp(stats, state_identities, effect_identities, tol)
    nx, nv = len(stats.preparations), len(xi[0])
    sol = solve(lp)
    if sol.status == "optimal":
        model = OntologicalModel(
            ontic_labels=[f"v{v}" for v in range(nv)],
            preparations=list(stats.preparations),
            measurements=list(stats.measurements),
            outcomes=[list(o) for o in stats.outcomes],
            mu=np.maximum(sol.x.reshape(nx, nv), 0.0),
            xi=[x.T for x in xi],
        )
        return MembershipResult(feasible=True, model=model)
    assert sol.status == "infeasible"
    n_mu = nx + len(alphas) * nv
    p_mult = sol.farkas.eq[n_mu:].reshape(nx, -1)
    splits = np.cumsum([len(o) for o in stats.outcomes])[:-1]
    coeffs = [c - c.min(axis=1, keepdims=True) for c in np.split(-p_mult, splits, axis=1)]
    logical_max = sum(float(c.max(axis=1).sum()) for c in coeffs)
    coeffs = [c / logical_max for c in coeffs]
    ineq = NoncontextualityInequality(
        preparations=list(stats.preparations),
        measurements=list(stats.measurements),
        outcomes=[list(o) for o in stats.outcomes],
        coefficients=coeffs,
        bound=noncontextual_maximum_mu_polytope(alphas, xi, coeffs),
    )
    return MembershipResult(feasible=False, inequality=ineq)


def fit_tables(counts):
    """The ``tomography._Tables`` that ``fit`` builds: inverse binomial
    standard deviations as weights, floored at 1/N^2 variance."""
    fhat = counts.frequencies()
    weights = []
    for y, f in enumerate(fhat):
        n = counts.trials[:, y][:, None].astype(float)
        weights.append(1.0 / np.sqrt(np.maximum(f * (1.0 - f) / n, 1.0 / n**2)))
    return tomography._Tables.build(fhat, weights)


def fit_unscreened(counts, max_dimension=6):
    """Reference for ``tomography.fit``: every rank fitted, none screened.

    The rank loop before the chi^2 lower-bound screen: each k from 1 up is
    fitted, warm-started from the rank below, until one meets the
    selection rule.  Returns a ``FitResult`` with no ``chi_squared_bounds``.
    """
    tables = fit_tables(counts)
    nx = len(counts.preparations)
    n_free = sum(len(o) - 1 for o in counts.outcomes)
    trace, warm = [], None
    for k in range(1, max_dimension + 1):
        chi2, states, effects, converged = tomography._fit_rank(
            tables, k, tomography._MAX_ALTERNATIONS, warm
        )
        if not converged:
            raise FitConvergenceError(f"no start converged at k={k}")
        warm = np.hstack([states, np.zeros((nx, 1))])
        trace.append((k, chi2))
        dof = max(1, nx * n_free - (nx * (k - 1) + k * n_free - k * (k - 1)))
        if chi2 / dof <= 1.0 + 3.0 * np.sqrt(2.0 / dof):
            fragment = tomography._build_fragment(counts, states, effects, k)
            return FitResult(
                k, fragment, chi2, dof, trace, [],
                float(np.linalg.cond(fragment.state_matrix())),
                float(np.linalg.cond(fragment.effect_matrix())),
            )
    raise DimensionSelectionError(f"no dimension up to {max_dimension}; trace {trace}")


def fit_rank_sequential(tables, k, max_alternations, warm=None):
    """Reference for ``tomography._fit_rank``: one problem at a time.

    The SVD start, then ``warm`` if given, alternates with one
    ``constrained_lstsq`` call on a stack of one per measurement and per
    preparation; a start whose problem fails (a NaN row) is skipped.  A
    start that converges within ``_CHI2_RESOLUTION`` of chi^2 = 0 is the
    fit and ends the search; otherwise converged beats unconverged, then
    lower chi^2 wins, and a tie goes to the SVD start.
    """
    fhat, weights = tables.fhat, tables.weights
    best = (np.inf, None, None, False)
    for init in (tomography._svd_init(fhat, k), warm):
        if init is None:
            break
        try:
            chi2, states, effects, converged = _fit_once(
                fhat, weights, k, init, max_alternations
            )
        except NumericalError:
            continue
        if converged and chi2 <= tomography._CHI2_RESOLUTION:
            return chi2, states, effects, converged
        if (converged, -chi2) > (best[3], -best[0]):
            best = (chi2, states, effects, converged)
    if best[1] is None:
        raise FitConvergenceError(f"every start failed numerically at k={k}")
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
        if abs(chi2_prev - chi2) <= tomography._CHI2_RESOLUTION * (1.0 + chi2):
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
    effects = _lstsq_one(a, b, g, h).reshape(m, k)
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
        out[x, 1:] = _lstsq_one(a, w[x] * (f[x] - e[:, 0]), g, h)
    return out


def _lstsq_one(a, b, g, h):
    """``constrained_lstsq`` on a stack of one; a NaN row raises NumericalError."""
    (x,) = constrained_lstsq(a[None], b[None], g[None], h[None])
    if np.isnan(x).any():
        raise NumericalError("constrained least squares failed")
    return x


def ldp_scipy(g, h, failed):
    """Reference for ``linalg._ldp``: every problem not marked ``failed``
    goes to ``scipy.optimize.nnls``, those with all bounds <= 0 too."""
    p, m, n = g.shape
    if m == 0:
        return np.zeros((p, n))
    e = np.concatenate([g.transpose(0, 2, 1), h[:, None, :]], axis=1)
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    u = np.zeros((p, m))
    for i in np.flatnonzero(~failed).tolist():
        u[i], _ = nnls(e[i], rhs)
    r = (e @ u[..., None])[..., 0] - rhs
    failed = failed | (np.abs(r[:, -1]) < 1e-12)
    return -r[:, :-1] / np.where(failed, np.nan, r[:, -1])[:, None]


def solve_full_tableau(lp: LinearProgram) -> LpSolution:
    """Reference for ``lp.solve``: the simplex on the full tableau.

    The tableau keeps every artificial column, and the entering, ratio and
    dual-ratio scans walk every column and row one scalar at a time.  The
    rhs perturbation, Dantzig's entering rule, Bland's ratio test, the
    tolerances, the single refresh (basic reduced costs set to 0.0), the
    phase-1 objective at the true b, the dual simplex clean-up with its
    Farkas-row exit and the certificates are those of ``lp.solve``, so the
    two take the same pivots and return the same bits.
    """
    n, n_eq = lp.n_vars, len(lp.b_eq)
    a = np.vstack([lp.a_eq, lp.a_ub])
    b = np.concatenate([lp.b_eq, lp.b_ub])
    m = len(b)
    c = (-1.0 if lp.sense == "max" else 1.0) * lp.objective
    row_sign = np.ones(m)
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    row_sign[neg] = -1.0
    b_scale = max(1.0, float(np.max(b)) if m else 1.0)

    # Tableau columns: structural | slacks (<= rows) | artificials | rhs.
    n_slack = m - n_eq
    total = n + n_slack + m
    tab = np.zeros((m, total + 1))
    tab[:, :n] = a
    slack = np.arange(n_slack)
    tab[n_eq + slack, n + slack] = row_sign[n_eq:]
    tab[:, n + n_slack : total] = np.eye(m)
    a0 = tab[:, :total].copy()
    for i in range(m):
        tab[i, total] = b[i] + 1e-7 * b_scale * (i + 1) / m
    basis = list(range(n + n_slack, total))
    art_lo = n + n_slack
    kept_rows = list(range(m))

    cost1_init = np.zeros(total + 1)
    cost1_init[art_lo:total] = 1.0
    cost2_init = np.zeros(total + 1)
    cost2_init[:n] = c
    cost1 = cost1_init.copy()
    if m:
        cost1 = cost1 - tab.sum(axis=0)
        cost1[art_lo:total] = 0.0
    cost2 = cost2_init.copy()
    iters = 0
    cap = 2000 + 50 * (m + total)

    def basis_duals(cost_init):
        if not m:
            return np.zeros(0)
        bmat = a0[np.ix_(kept_rows, basis)]
        try:
            return np.linalg.solve(bmat.T, cost_init[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("numerically singular basis") from exc

    def refresh(cost_row, cost_init):
        y = basis_duals(cost_init)
        cost_row[:total] = cost_init[:total] - (y @ a0[kept_rows] if m else 0.0)
        cost_row[basis] = 0.0

    def pivot(row, col):
        nonlocal tab, cost1, cost2
        tab[row] /= tab[row, col]
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        tab[:, col] = 0.0
        tab[row, col] = 1.0
        if cost1[col] != 0.0:
            cost1 -= cost1[col] * tab[row]
        if cost2[col] != 0.0:
            cost2 -= cost2[col] * tab[row]
        basis[row] = col

    def step(row, col):
        nonlocal iters
        iters += 1
        if iters > cap:
            raise NumericalError("simplex stalled (pivot cap exceeded)")
        pivot(row, col)

    def run_phase(cost, cost_init):
        refreshed = False
        while True:
            entering = 0
            for j in range(1, art_lo):
                if cost[j] < cost[entering]:
                    entering = j
            if not cost[entering] < -_OPT_TOL:
                if refreshed:
                    return "optimal"
                refreshed = True
                refresh(cost, cost_init)
                continue
            col = tab[:, entering]
            ratios = np.full(m, np.inf)
            ok = col > _PIVOT_TOL
            ratios[ok] = tab[ok, total] / col[ok]
            best = np.inf
            leave = -1
            for i in range(m):
                if ratios[i] < best - 1e-15 or (
                    ratios[i] <= best + 1e-15 and 0 <= leave and basis[i] < basis[leave]
                ):
                    if ratios[i] < np.inf:
                        best = min(best, ratios[i])
                        leave = i
            if leave < 0:
                return "unbounded"
            step(leave, entering)

    run_phase(cost1, cost1_init)
    y = basis_duals(cost1_init)
    infeas = float(y @ b) if m else 0.0
    if infeas > _INFEAS_TOL * b_scale:
        cert = _farkas_back(lp, y * row_sign)
        return LpSolution(status="infeasible", farkas=cert, iterations=iters,
                          max_violation=infeas)

    for i in range(m):
        if basis[i] >= art_lo:
            for j in range(art_lo):
                if abs(tab[i, j]) > 1e-7:
                    pivot(i, j)
                    break
    keep = [i for i in range(m) if basis[i] < art_lo]
    if len(keep) < m:
        tab = tab[keep]
        basis = [basis[i] for i in keep]
        kept_rows = [kept_rows[i] for i in keep]
        m = len(keep)

    if run_phase(cost2, cost2_init) == "unbounded":
        return LpSolution(status="unbounded", iterations=iters)
    if m:
        tab[:, total] = np.linalg.solve(a0[np.ix_(kept_rows, basis)], b[kept_rows])
    while True:
        r = -1
        for i in range(m):
            if tab[i, total] < -1e-11 * b_scale and (r < 0 or tab[i, total] < tab[r, total]):
                r = i
        if r < 0:
            break
        # Dual ratio test: smallest max(cost, 0) / -pivot over the negative
        # pivots, ties to the largest |pivot|, then to the lowest index.
        enter, best = -1, np.inf
        for j in range(art_lo):
            if tab[r, j] < -_PIVOT_TOL:
                ratio = max(cost2[j], 0.0) / -tab[r, j]
                if ratio < best or (ratio == best and tab[r, j] < tab[r, enter]):
                    enter, best = j, ratio
        if enter < 0:  # row r is a Farkas row, or off by no more than the tolerance
            if -tab[r, total] <= _INFEAS_TOL * b_scale:
                break
            e_r = np.zeros(m)
            e_r[r] = 1.0
            w = np.zeros(len(b))
            w[kept_rows] = np.linalg.solve(a0[np.ix_(kept_rows, basis)].T, e_r)
            return LpSolution(status="infeasible", farkas=_farkas_back(lp, -w * row_sign),
                              iterations=iters, max_violation=float(-tab[r, total]))
        step(r, enter)
    x_std = np.zeros(total)
    x_basis = tab[:, total]
    x_std[basis] = np.where(np.abs(x_basis) < 1e-11, 0.0, x_basis)
    x = x_std[:n].copy()
    duals = np.zeros(len(b))
    duals[kept_rows] = basis_duals(cost2_init)
    return LpSolution(status="optimal", x=x, objective_value=float(lp.objective @ x),
                      max_violation=float(_violation(lp, x)), iterations=iters,
                      duals=(-1.0 if lp.sense == "max" else 1.0) * row_sign * duals)


def unique_rows_greedy(rows, tol: float) -> np.ndarray:
    """Reference for ``linalg.unique_rows``: one row against the kept rows at a time."""
    a = np.asarray(rows, dtype=float)
    kept = np.empty_like(a)
    m = 0
    for r in a:
        if m == 0 or np.min(np.max(np.abs(r - kept[:m]), axis=1)) > tol:
            kept[m] = r
            m += 1
    return kept[:m]


def rref_row_loop(m, tol: float = 1e-9) -> np.ndarray:
    """Reference for ``linalg.rref``: each row eliminated on its own."""
    a = np.array(m, dtype=float)
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


def h_rep_extreme_rays_by_rank(constraints, tol: float = 1e-9) -> np.ndarray:
    """Reference for ``cones.h_rep_extreme_rays``: the (pos, neg) pair loop
    with an algebraic adjacency test, rank(common tight rows) = k - 2, and
    one extremality rank test per ray."""
    c = np.atleast_2d(np.asarray(constraints, dtype=float))
    norms = np.linalg.norm(c, axis=1)
    c = c[norms > tol] / norms[norms > tol, None]
    n, k = c.shape
    if matrix_rank(c, tol) < k:
        raise FormatError("double description needs constraints of full column rank")
    start = independent_rows_greedy(c, k, tol)
    rays = np.linalg.inv(c[start]).T
    rays = rays / np.linalg.norm(rays, axis=1)[:, None]
    processed = list(start)
    for idx in [i for i in range(n) if i not in set(start)]:
        vals = rays @ c[idx]
        pos = vals > tol
        neg = vals < -tol
        if not np.any(neg):
            processed.append(idx)
            continue
        kept = [rays[i] for i in np.flatnonzero(~neg)]
        tight = np.abs(rays @ c[processed].T) <= tol
        new = []
        for p in np.flatnonzero(pos):
            for q in np.flatnonzero(neg):
                common = [processed[i] for i in np.flatnonzero(tight[p] & tight[q])]
                if len(common) < k - 2:
                    continue
                if not (matrix_rank(c[common], tol) == k - 2 if common else k == 2):
                    continue
                w = vals[p] * rays[q] - vals[q] * rays[p]
                nw = np.linalg.norm(w)
                if nw > tol:
                    new.append(w / nw)
        merged = kept + new
        processed.append(idx)
        if not merged:
            return np.zeros((0, k))
        rays = unique_rows_greedy(np.array(merged), 10 * tol)
    return extreme_only_by_rank(rays, c, k, tol)


def independent_rows_greedy(c, k, tol=1e-9) -> list[int]:
    """Reference for ``cones._independent_rows``: one rank test per row, in
    input order, until k rows are kept."""
    start: list[int] = []
    for i in range(len(c)):
        if matrix_rank(c[start + [i]], tol) == len(start) + 1:
            start.append(i)
        if len(start) == k:
            return start
    raise FormatError("could not find a full-rank starting set")


def extreme_only_by_rank(rays, c, k, tol=1e-9) -> np.ndarray:
    """Reference for ``cones._extreme_only``: one rank test per ray, on the
    constraint rows within 10 tol of tight."""
    if rays.shape[0] <= 1:
        return rays
    keep = []
    for r in rays:
        tight = c[np.abs(c @ r) <= 10 * tol]
        if tight.shape[0] >= k - 1 and matrix_rank(tight, tol) >= k - 1:
            keep.append(r)
    return np.array(keep) if keep else np.zeros((0, k))
