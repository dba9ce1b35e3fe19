"""Theory-agnostic tomography: dimension and vector recovery from counts.

Nothing is assumed about the theory governing the device.  For each
candidate dimension k the weighted chi-squared misfit of a rank-k
state/effect factorization is minimized by alternating constrained
least-squares passes (states fixed, effects solved, and vice versa; both
passes keep predicted probabilities inside [0, 1] and measurements
summing to the unit).  The reported dimension is the smallest k whose
misfit is statistically compatible with counting noise.

The factorization gauge is fixed by putting the unit effect on the first
coordinate axis and giving every state first coordinate 1; any invertible
linear reparametrization is physically equivalent, and embeddability
verdicts downstream do not depend on it.

Tomographic completeness of the realized sets is an assumption the data
cannot certify; results carry a coverage diagnostic (condition numbers of
the fitted factors) instead of a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import accessibilize, robustness, test_embeddability
from .errors import FormatError, NumericalError
from .fragments import Fragment, GptVector, Measurement, StatisticsTable
from .linalg import constrained_lstsq

GAUGE_ID = "unit-first-coordinate"
_RESTARTS = 8  # initializations per candidate dimension


class FitConvergenceError(NumericalError):
    """No restart converged within the alternation budget."""


class DimensionSelectionError(NumericalError):
    """No candidate dimension satisfies the goodness-of-fit rule."""


@dataclass
class CountTable:
    """Raw outcome counts n(b | x, y) with trials per cell."""

    preparations: list[str]
    measurements: list[str]
    outcomes: list[list[str]]
    counts: list[np.ndarray]  # per measurement: (preparations, outcomes) ints
    trials: np.ndarray  # (preparations, measurements)
    seed: int | None = None

    def __post_init__(self):
        self.counts = [np.asarray(c, dtype=np.int64) for c in self.counts]
        self.trials = np.asarray(self.trials, dtype=np.int64)
        nx = len(self.preparations)
        if self.trials.shape != (nx, len(self.measurements)):
            raise FormatError("trials array shape mismatch")
        for y, c in enumerate(self.counts):
            if c.shape != (nx, len(self.outcomes[y])):
                raise FormatError("count table shape mismatch")
            if np.any(c < 0):
                raise FormatError("counts must be nonnegative")
            if np.any(c.sum(axis=1) != self.trials[:, y]):
                raise FormatError("counts do not sum to the trials per cell")

    def frequencies(self) -> list[np.ndarray]:
        return [
            self.counts[y] / self.trials[:, y][:, None]
            for y in range(len(self.measurements))
        ]


def synth(fragment: Fragment, trials: int, seed: int) -> CountTable:
    """Simulate finite-count statistics for every preparation-measurement cell.

    Each cell draws one multinomial sample of the given size from the
    exact outcome distribution; identical seeds reproduce identical
    tables bit for bit.
    """
    from .fragments import predict

    if trials < 1:
        raise FormatError("trials per cell must be at least 1")
    stats = predict(fragment)
    rng = np.random.default_rng(seed)
    counts = []
    for y in range(len(stats.measurements)):
        block = np.zeros_like(stats.tables[y], dtype=np.int64)
        for x in range(len(stats.preparations)):
            p = np.clip(stats.tables[y][x], 0.0, None)
            p = p / p.sum()
            block[x] = rng.multinomial(trials, p)
        counts.append(block)
    trials_arr = np.full(
        (len(stats.preparations), len(stats.measurements)), trials, dtype=np.int64
    )
    return CountTable(
        preparations=list(stats.preparations),
        measurements=list(stats.measurements),
        outcomes=[list(o) for o in stats.outcomes],
        counts=counts,
        trials=trials_arr,
        seed=seed,
    )


@dataclass
class FitResult:
    dimension: int
    fragment: Fragment
    chi_squared: float
    dof: int
    chi_squared_trace: list[tuple[int, float]]
    gauge: str = GAUGE_ID
    state_condition: float = 0.0
    effect_condition: float = 0.0


def fit(
    counts: CountTable,
    max_dimension: int = 6,
    seed: int = 0,
    max_alternations: int = 500,
) -> FitResult:
    """Recover the smallest dimension and vectors compatible with the counts.

    Requires at least 10 trials in every cell.  The selection rule accepts
    the smallest k with chi^2/dof <= 1 + 3 sqrt(2/dof); chi^2 uses
    per-cell binomial variance floored at 1/N^2 so exact cells stay
    informative without dominating.
    """
    if np.any(counts.trials < 10):
        raise FormatError("every cell needs at least 10 trials")
    fhat = counts.frequencies()
    weights = []
    for y in range(len(counts.measurements)):
        n = counts.trials[:, y][:, None].astype(float)
        var = np.maximum(fhat[y] * (1.0 - fhat[y]) / n, 1.0 / n**2)
        weights.append(1.0 / np.sqrt(var))
    return _fit_tables(
        counts.preparations,
        counts.measurements,
        counts.outcomes,
        fhat,
        weights,
        max_dimension,
        seed,
        max_alternations,
        selection="chi2",
    )


def fit_exact(
    stats: StatisticsTable,
    max_dimension: int = 6,
    seed: int = 0,
    max_alternations: int = 500,
) -> FitResult:
    """Infinite-count surrogate: fit exact frequencies with unit weights.

    Recovers the table exactly at k equal to its rank, with chi^2 = 0 up
    to roundoff.
    """
    weights = [np.ones_like(t) for t in stats.tables]
    return _fit_tables(
        stats.preparations,
        stats.measurements,
        stats.outcomes,
        [t.copy() for t in stats.tables],
        weights,
        max_dimension,
        seed,
        max_alternations,
        selection="absolute",
    )


def _fit_tables(
    preparations,
    measurements,
    outcomes,
    fhat,
    weights,
    max_dimension,
    seed,
    max_alternations,
    selection,
):
    nx = len(preparations)
    data_points = nx * sum(len(o) - 1 for o in outcomes)
    trace: list[tuple[int, float]] = []
    warm = None
    for k in range(1, max_dimension + 1):
        chi2, states, effects, converged = _fit_rank(
            fhat, weights, k, seed, max_alternations, warm
        )
        if not converged:
            raise FitConvergenceError(
                f"no restart converged within {max_alternations} alternations at k={k}"
            )
        # Warm-starting k+1 from the k solution keeps chi^2(k) nonincreasing.
        warm = np.hstack([states, np.zeros((nx, 1))])
        trace.append((k, chi2))
        params = nx * (k - 1) + k * sum(len(o) - 1 for o in outcomes) - k * (k - 1)
        dof = max(1, data_points - params)
        if selection == "chi2":
            accept = chi2 / dof <= 1.0 + 3.0 * np.sqrt(2.0 / dof)
        else:
            accept = chi2 <= 1e-12 * (1 + data_points)
        if accept:
            fragment = _build_fragment(
                preparations, measurements, outcomes, states, effects, k
            )
            smat = fragment.state_matrix()
            emat = fragment.effect_matrix()
            return FitResult(
                dimension=k,
                fragment=fragment,
                chi_squared=float(chi2),
                dof=int(dof),
                chi_squared_trace=trace,
                state_condition=float(np.linalg.cond(smat)),
                effect_condition=float(np.linalg.cond(emat)),
            )
    raise DimensionSelectionError(
        f"no dimension up to {max_dimension} meets the selection rule; "
        f"chi-squared trace: {[(k, round(c, 3)) for k, c in trace]}"
    )


def _fit_rank(fhat, weights, k, seed, max_alternations, warm=None):
    nx = fhat[0].shape[0]
    inits = [_svd_init(fhat, k, nx)]
    if warm is not None and warm.shape[1] == k:
        inits.append(warm)
    while len(inits) < _RESTARTS:
        rng = np.random.default_rng([seed, k, len(inits)])
        if k > 1:
            inits.append(
                np.hstack([np.ones((nx, 1)), rng.normal(0.0, 0.5, size=(nx, k - 1))])
            )
        else:
            inits.append(np.ones((nx, 1)))
    best = (np.inf, None, None, False)
    for init in inits:
        try:
            chi2, states, effects, converged = _fit_once(
                fhat, weights, k, init, max_alt=max_alternations
            )
        except NumericalError:
            continue
        # Converged restarts outrank unconverged ones at any misfit.
        if (converged, -chi2) > (best[3], -best[0]):
            best = (chi2, states, effects, converged)
    if best[1] is None:
        raise FitConvergenceError(f"all restarts failed numerically at k={k}")
    return best


def _svd_init(fhat, k, nx):
    """Best unweighted rank-k factor of [1 | data], rotated to the gauge."""
    if k == 1:
        return np.ones((nx, 1))
    aug = np.hstack([np.ones((nx, 1))] + list(fhat))
    u, s, _ = np.linalg.svd(aug, full_matrices=False)
    kk = min(k, len(s))
    cols = u[:, :kk] * s[:kk]
    if kk < k:
        cols = np.hstack([cols, np.zeros((nx, k - kk))])
    coef, *_ = np.linalg.lstsq(cols, np.ones(nx), rcond=None)
    states = cols @ _complete_basis(coef, k)
    if np.max(np.abs(states[:, 0] - 1.0)) > 1e-6:
        states = np.hstack([np.ones((nx, 1)), cols[:, 1:k]])
    states[:, 0] = 1.0
    return states


def _fit_once(fhat, weights, k, init_states, max_alt):
    states = init_states.copy()
    chi2_prev = np.inf
    effects = None
    for it in range(max_alt):
        effects = [_effect_pass(fhat[y], weights[y], states, k) for y in range(len(fhat))]
        if k > 1:
            states = _state_pass(fhat, weights, effects, states)
        chi2 = _chi2(fhat, weights, states, effects)
        if abs(chi2_prev - chi2) <= 1e-10 * (1.0 + chi2):
            return chi2, states, effects, True
        chi2_prev = chi2
    return chi2_prev, states, effects, False


def _complete_basis(first_col, k):
    b = np.zeros((k, k))
    b[:, 0] = first_col
    rest = [v for v in np.eye(k).T]
    mat = np.column_stack([first_col] + rest)
    q, _ = np.linalg.qr(mat)
    b[:, 1:] = q[:, 1:k]
    return b


def _effect_pass(f, w, states, k):
    """Per-measurement effect update with the last outcome eliminated.

    Variables are the first nb-1 effect vectors; the last is unit minus
    their sum.  Constraints keep every predicted probability nonnegative
    (the complementary bound follows from measurement normalization).
    """
    nx, nb = f.shape
    if nb == 1:
        return np.array([_unit_vector(k)])
    m = nb - 1
    a = _outcome_rows(w, states)
    b = np.concatenate([(w[:, :m] * f[:, :m]).T.reshape(-1), w[:, m] * (f[:, m] - 1.0)])
    g = _outcome_rows(np.ones_like(w), states)
    h = np.concatenate([np.zeros(m * nx), np.full(nx, -1.0)])
    effects = constrained_lstsq(a, b, g=g, h=h).reshape(m, k)
    last = _unit_vector(k) - effects.sum(axis=0)
    return np.vstack([effects, last[None, :]])


def _outcome_rows(scale, states):
    """Rows over the first nb-1 effect vectors of one measurement, b-major.

    Row (b, x) holds scale[x, b] * states[x] in block b, for b < nb-1;
    row x of the last outcome holds -scale[x, nb-1] * states[x] in every
    block, since that effect is the unit minus the others.
    """
    nx, nb = scale.shape
    m = nb - 1
    k = states.shape[1]
    top = np.zeros((m, nx, m, k))
    top[np.arange(m), :, np.arange(m)] = scale[:, :m].T[:, :, None] * states
    last = np.tile(-scale[:, m:] * states, m)
    return np.vstack([top.reshape(m * nx, m * k), last])


def _state_pass(fhat, weights, effects, states):
    """Per-preparation state update, first coordinate fixed at 1.

    Every predicted probability stays in [0, 1]; those bounds do not
    depend on the preparation, so they are built once.
    """
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


def _chi2(fhat, weights, states, effects):
    total = 0.0
    for y, f in enumerate(fhat):
        pred = states @ effects[y].T
        total += float(np.sum((weights[y] * (pred - f)) ** 2))
    return total


def _unit_vector(k):
    u = np.zeros(k)
    u[0] = 1.0
    return u


def _build_fragment(preparations, measurements, outcomes, states, effects, k):
    svecs = [
        GptVector(lab, states[x], "state") for x, lab in enumerate(preparations)
    ]
    evecs = []
    meas = []
    for y, mlab in enumerate(measurements):
        labs = []
        for b, olab in enumerate(outcomes[y]):
            lab = olab if olab not in [e.label for e in evecs] else f"{mlab}:{olab}"
            evecs.append(GptVector(lab, effects[y][b], "effect"))
            labs.append(lab)
        meas.append(Measurement(mlab, tuple(labs)))
    return Fragment(
        name="fitted",
        dimension=k,
        unit_effect=_unit_vector(k),
        states=svecs,
        effects=evecs,
        measurements=meas,
    )


@dataclass
class PipelineResult:
    fit: FitResult
    embeddable: bool  # noise-aware verdict
    r_star: float
    strictly_embeddable: bool = False  # raw LP verdict on the fitted vectors
    noise_threshold: float = 0.0


def verdict_pipeline(
    counts: CountTable,
    max_dimension: int = 6,
    seed: int = 0,
    tol: float = 1e-6,
) -> PipelineResult:
    """Fit the counts, then test simplex embeddability and robustness.

    Best-fit vectors inherit the counting noise, so fragments on the
    classical boundary generically come out marginally contextual; the
    verdict therefore compares the depolarizing robustness against the
    3-sigma binomial noise scale of the counts.  Both the raw LP verdict
    and the threshold are reported alongside.  ``tol`` is the rank
    tolerance of the accessible fragment and so of both LPs' cones.
    """
    result = fit(counts, max_dimension=max_dimension, seed=seed)
    af = accessibilize(result.fragment, tol)
    emb = test_embeddability(af)
    rob = robustness(af)
    n_min = int(np.min(counts.trials))
    threshold = 3.0 * np.sqrt(0.25 / n_min)
    return PipelineResult(
        fit=result,
        embeddable=bool(emb.embeddable or rob.r_star <= threshold),
        r_star=rob.r_star,
        strictly_embeddable=emb.embeddable,
        noise_threshold=float(threshold),
    )
