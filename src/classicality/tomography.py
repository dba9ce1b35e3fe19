"""Theory-agnostic tomography: dimension and vector recovery from counts.

Nothing is assumed about the theory governing the device.  For each
candidate dimension k the weighted chi-squared misfit of a rank-k
state/effect factorization is minimized by alternating constrained
least-squares passes (states fixed, effects solved, and vice versa; both
passes keep predicted probabilities inside [0, 1] and measurements
summing to the unit).  The reported dimension is the smallest k whose
misfit is statistically compatible with counting noise.

Each k tries several initializations.  They advance together, one
alternation at a time, with the least-squares problems of every restart
still running solved as one stack per pass; a restart stops at its own
convergence test or when one of its problems fails.  A restart that
converges within ``_CHI2_RESOLUTION`` (1e-10) of chi^2 = 0 also stops the
restarts after it that are still running, which could win only by ending
closer to zero than the convergence test resolves.  The result is bit for
bit the one of running the restarts one after another, with one edge:
among fits within ``_CHI2_RESOLUTION`` of chi^2 = 0, the earliest restart
wins over later ones still running, even one that would have ended closer
to zero.

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
from .fragments import Fragment, GptVector, Measurement, predict
from .linalg import DEFAULT_RANK_TOL, constrained_lstsq

GAUGE_ID = "unit-first-coordinate"
_MAX_TRIALS = int(np.iinfo(np.int64).max)  # counts are stored as int64
_RESTARTS = 8  # initializations per candidate dimension
_MAX_ALTERNATIONS = 500  # state/effect passes per restart before it counts as unconverged
# The convergence test's absolute resolution at chi^2 = 0: a restart stops
# once chi^2 moves by at most this much times (1 + chi^2), so misfits
# within it of zero are not told apart.
_CHI2_RESOLUTION = 1e-10


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
        self.counts = [_whole_numbers(c) for c in self.counts]
        self.trials = _whole_numbers(self.trials)
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


def _whole_numbers(values) -> np.ndarray:
    """``values`` as int64, refusing a fraction rather than truncating it."""
    raw = np.asarray(values)
    if raw.dtype.kind == "f" and np.any(np.isfinite(raw) & (raw != np.round(raw))):
        raise FormatError("counts and trials must be whole numbers")
    return np.asarray(values, dtype=np.int64)


def synth(
    fragment: Fragment, trials: int, seed: int, tol: float = DEFAULT_RANK_TOL
) -> CountTable:
    """Simulate finite-count statistics for every preparation-measurement cell.

    Each cell draws one multinomial sample of the given size from the
    exact outcome distribution; identical seeds reproduce identical
    tables bit for bit.  ``tol`` is the tolerance the fragment is
    validated at before its statistics are predicted.
    """
    if not 1 <= trials <= _MAX_TRIALS:
        raise FormatError(f"trials per cell must lie in [1, {_MAX_TRIALS}]")
    stats = predict(fragment, tol)
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
    state_condition: float = 0.0
    effect_condition: float = 0.0


def fit(
    counts: CountTable,
    max_dimension: int = 6,
    seed: int = 0,
) -> FitResult:
    """Recover the smallest dimension and vectors compatible with the counts.

    Requires at least 10 trials in every cell.  The selection rule accepts
    the smallest k with chi^2/dof <= 1 + 3 sqrt(2/dof); chi^2 uses
    per-cell binomial variance floored at 1/N^2 so exact cells stay
    informative without dominating.
    """
    if np.any(counts.trials < 10):
        raise FormatError("every cell needs at least 10 trials")
    if max_dimension < 1:
        raise FormatError(f"max_dimension must be at least 1, not {max_dimension}")
    fhat = counts.frequencies()
    weights = []
    for y in range(len(counts.measurements)):
        n = counts.trials[:, y][:, None].astype(float)
        var = np.maximum(fhat[y] * (1.0 - fhat[y]) / n, 1.0 / n**2)
        weights.append(1.0 / np.sqrt(var))
    nx = len(counts.preparations)
    n_free = sum(len(o) - 1 for o in counts.outcomes)  # free outcomes per preparation
    data_points = nx * n_free
    tables = _Tables.build(fhat, weights)
    trace: list[tuple[int, float]] = []
    warm = None
    for k in range(1, max_dimension + 1):
        chi2, states, effects, converged = _fit_rank(
            tables, k, seed, _MAX_ALTERNATIONS, warm
        )
        if not converged:
            raise FitConvergenceError(
                f"no restart converged within {_MAX_ALTERNATIONS} alternations at k={k}"
            )
        # Warm-starting k+1 from the k solution keeps chi^2(k) nonincreasing.
        warm = np.hstack([states, np.zeros((nx, 1))])
        trace.append((k, chi2))
        params = nx * (k - 1) + k * n_free - k * (k - 1)
        dof = max(1, data_points - params)
        if chi2 / dof <= 1.0 + 3.0 * np.sqrt(2.0 / dof):
            fragment = _build_fragment(counts, states, effects, k)
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


@dataclass
class _Tables:
    """What the alternations read of the data; the same at every k.

    ``groups`` holds, per outcome count nb > 1, the indices of the
    measurements with nb outcomes and the effect pass's per-problem
    invariants for a full stack of restarts (restart-major, then
    measurement): the row weights, the right-hand sides b and the bounds
    h, each (restarts * measurements, nb * nx).  ``w`` and ``f`` put every
    measurement's columns side by side.
    """

    fhat: list[np.ndarray]
    weights: list[np.ndarray]
    w: np.ndarray
    f: np.ndarray
    groups: list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]

    @classmethod
    def build(cls, fhat, weights):
        nx = fhat[0].shape[0]
        groups = []
        for nb in sorted({f.shape[1] for f in fhat} - {1}):
            ys = [y for y, f in enumerate(fhat) if f.shape[1] == nb]
            m = nb - 1
            last = np.arange(nb) == m  # its effect is the unit minus the others

            def flat(v):  # an (nx, nb) table in the row order of _outcome_rows
                return np.concatenate([v[:, :m].T.reshape(-1), v[:, m]])

            w = np.array([flat(weights[y]) for y in ys])
            b = np.array([flat(weights[y] * (fhat[y] - last)) for y in ys])
            h = np.concatenate([np.zeros(m * nx), np.full(nx, -1.0)])
            groups.append((
                ys,
                np.tile(w, (_RESTARTS, 1)),
                np.tile(b, (_RESTARTS, 1)),
                np.tile(h, (_RESTARTS * len(ys), 1)),
            ))
        return cls(fhat, weights, np.hstack(weights), np.hstack(fhat), groups)


def _fit_rank(tables, k, seed, max_alternations, warm=None):
    """Best of the rank-k restarts, all advanced together.

    Each alternation solves the least-squares problems of every active
    restart as one stack per pass.  A restart leaves the stack when its
    chi^2 stops moving or one of its problems fails, so every restart
    follows the path it follows alone, bit for bit.  Converged restarts
    outrank unconverged ones at any misfit, then lower chi^2 wins; ties go
    to the earlier restart.

    Once a restart converges at chi^2 <= ``_CHI2_RESOLUTION``, every
    restart after it that is still running stops: it could only win by a
    chi^2 below that one, closer to zero than the convergence test
    resolves.  Earlier restarts run on, since they would win a tie.  So
    among fits within ``_CHI2_RESOLUTION`` of zero the earliest restart
    wins over later ones still running; otherwise the result is that of
    running every restart to its end.
    """
    inits = _initial_states(tables.fhat, k, seed, warm)
    # Per restart (chi2, states, effects, converged), set when it stops;
    # a restart whose problem fails leaves the stack with None.
    results = [None] * len(inits)
    active = np.arange(len(inits))
    states = np.stack(inits)
    effects = []
    chi2 = np.full(len(inits), np.inf)

    def keep(mask):
        nonlocal active, states, effects, chi2
        if mask.all():
            return
        active, states, chi2 = active[mask], states[mask], chi2[mask]
        effects = [e[mask] for e in effects]

    for _ in range(max_alternations):
        effects, ok = _effect_pass(tables, states)
        keep(ok)
        if k > 1:
            states, ok = _state_pass(tables, effects, states)
            keep(ok)
        chi2_prev, chi2 = chi2, _chi2(tables, states, effects)
        done = np.abs(chi2_prev - chi2) <= _CHI2_RESOLUTION * (1.0 + chi2)
        for j in np.flatnonzero(done):
            results[active[j]] = (float(chi2[j]), states[j], [e[j] for e in effects], True)
        # Restarts after one that converged at chi^2 = 0 can no longer win.
        zero = active[done & (chi2 <= _CHI2_RESOLUTION)]
        keep(~done & (active < zero.min(initial=len(inits))))
        if not len(active):
            break
    for j, i in enumerate(active):
        results[i] = (float(chi2[j]), states[j], [e[j] for e in effects], False)
    best = (np.inf, None, None, False)
    for result in results:
        if result is None:
            continue
        chi2, _, _, converged = result
        if (converged, -chi2) > (best[3], -best[0]):
            best = result
    if best[1] is None:
        raise FitConvergenceError(f"all restarts failed numerically at k={k}")
    return best


def _initial_states(fhat, k, seed, warm):
    """The restarts' starting states: the SVD start, the warm start from
    k-1 when given, then seeded random ones up to ``_RESTARTS``."""
    nx = fhat[0].shape[0]
    inits = [_svd_init(fhat, k, nx)]
    if warm is not None and warm.shape[1] == k:
        inits.append(warm)
    while len(inits) < _RESTARTS:
        rng = np.random.default_rng([seed, k, len(inits)])
        inits.append(np.hstack([np.ones((nx, 1)), rng.normal(0.0, 0.5, size=(nx, k - 1))]))
    return inits


def _svd_init(fhat, k, nx):
    """Best unweighted rank-k factor of [1 | data], rotated to the gauge."""
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


def _complete_basis(first_col, k):
    b = np.zeros((k, k))
    b[:, 0] = first_col
    rest = [v for v in np.eye(k).T]
    mat = np.column_stack([first_col] + rest)
    q, _ = np.linalg.qr(mat)
    b[:, 1:] = q[:, 1:k]
    return b


def _effect_pass(tables, states):
    """Effect update of every restart, one stacked solve per outcome count.

    Per measurement the variables are the first nb-1 effect vectors; the
    last is unit minus their sum.  Constraints keep every predicted
    probability nonnegative (the complementary bound follows from
    measurement normalization).  Returns the effects per measurement,
    shape (restarts, nb, k), and which restarts solved all their problems.
    """
    r, nx, k = states.shape
    unit = _unit_vector(k)
    effects = [np.tile(unit, (r, 1, 1)) for _ in tables.fhat]  # one-outcome measurements
    ok = np.ones(r, dtype=bool)
    for ys, w, b, h in tables.groups:
        nm, p = len(ys), r * len(ys)
        m = tables.fhat[ys[0]].shape[1] - 1
        # The bound rows are the design rows at unit weight.
        g = np.repeat(_outcome_rows(states, m + 1), nm, axis=0)
        x = constrained_lstsq(g * w[:p, :, None], b[:p], g, h[:p]).reshape(r, nm, m, k)
        ok &= ~np.isnan(x).any(axis=(1, 2, 3))
        last = unit - x.sum(axis=2)
        for j, y in enumerate(ys):
            effects[y] = np.concatenate([x[:, j], last[:, j, None]], axis=1)
    return effects, ok


def _outcome_rows(states, nb):
    """Stacked rows over the first nb-1 effect vectors of one measurement, b-major.

    For states (p, nx, k): row (b, x) holds states[x] in block b, for
    b < nb-1; row x of the last outcome holds -states[x] in every block,
    since that effect is the unit minus the others.
    """
    p, nx, k = states.shape
    m = nb - 1
    top = np.zeros((p, m, nx, m, k))
    for j in range(m):
        top[:, j, :, j] = states
    last = np.tile(-states, (1, 1, m))
    return np.concatenate([top.reshape(p, m * nx, m * k), last], axis=1)


def _state_pass(tables, effects, states):
    """State update of every restart and preparation as one stack.

    The first coordinate stays fixed at 1.  Every predicted probability
    stays in [0, 1]; those bounds depend on the restart's effects, not on
    the preparation.  Returns the states and which restarts solved all
    their problems.
    """
    r, nx, k = states.shape
    e = np.concatenate(effects, axis=1)  # (restarts, effects, k)
    ne = e.shape[1]
    g = np.stack([e[:, :, 1:], -e[:, :, 1:]], axis=2).reshape(r, 1, 2 * ne, k - 1)
    h = np.stack([-e[:, :, 0], e[:, :, 0] - 1.0], axis=2).reshape(r, 1, 2 * ne)
    a = tables.w[None, :, :, None] * e[:, None, :, 1:]
    b = tables.w * (tables.f - e[:, None, :, 0])
    x = constrained_lstsq(
        a.reshape(r * nx, ne, k - 1),
        b.reshape(r * nx, ne),
        np.broadcast_to(g, (r, nx, 2 * ne, k - 1)).reshape(r * nx, 2 * ne, k - 1),
        np.broadcast_to(h, (r, nx, 2 * ne)).reshape(r * nx, 2 * ne),
    ).reshape(r, nx, k - 1)
    out = states.copy()
    out[:, :, 1:] = x
    return out, ~np.isnan(x).any(axis=(1, 2))


def _chi2(tables, states, effects):
    """Weighted chi^2 of every restart, summed over measurements in order."""
    total = np.zeros(len(states))
    for y, f in enumerate(tables.fhat):
        pred = states @ effects[y].transpose(0, 2, 1)
        total += np.sum((tables.weights[y] * (pred - f)) ** 2, axis=(1, 2))
    return total


def _unit_vector(k):
    u = np.zeros(k)
    u[0] = 1.0
    return u


def _build_fragment(counts, states, effects, k):
    svecs = [
        GptVector(lab, states[x], "state") for x, lab in enumerate(counts.preparations)
    ]
    evecs = []
    meas = []
    for y, mlab in enumerate(counts.measurements):
        labs = []
        for b, olab in enumerate(counts.outcomes[y]):
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
    tolerance of the accessible fragment and its cones.  An embedding
    certifies r* = 0, so robustness is solved only if the fragment does not embed.
    """
    result = fit(counts, max_dimension=max_dimension, seed=seed)
    af = accessibilize(result.fragment, tol)
    emb = test_embeddability(af)
    r_star = 0.0 if emb.embeddable else robustness(af).r_star
    n_min = int(np.min(counts.trials))
    threshold = 3.0 * np.sqrt(0.25 / n_min)
    return PipelineResult(
        fit=result,
        embeddable=bool(emb.embeddable or r_star <= threshold),
        r_star=r_star,
        strictly_embeddable=emb.embeddable,
        noise_threshold=float(threshold),
    )
