"""Theory-agnostic tomography: dimension and vector recovery from counts.

Nothing is assumed about the theory governing the device.  For each
candidate dimension k the weighted chi-squared misfit of a rank-k
state/effect factorization is minimized by alternating constrained
least-squares passes (states fixed, effects solved, and vice versa; both
passes keep predicted probabilities inside [0, 1] and measurements
summing to the unit).  The reported dimension is the smallest k whose
misfit is statistically compatible with counting noise.

Each k is screened before it is fitted.  A rank-k prediction misses the
frequency table F (preparations x all outcomes) by at least the singular
values of F beyond the k-th (Eckart-Young), and every cell weighs at
least w_min, so chi^2(k) >= L(k) = w_min^2 * sum_{i>k} sigma_i(F)^2 for
any states and effects a fit could return.  A k whose L(k)/dof already
fails the selection rule, beyond a relative 1e-6 for rounding, is skipped
without an alternation.  ``FitResult.chi_squared_bounds`` lists the
screened k with L(k); ``chi_squared_trace`` lists the fitted k with their
chi^2.

Each fitted k alternates from one start, the best unweighted rank-k
factor of the data, until chi^2 moves by at most ``_CHI2_RESOLUTION``
(1e-10) times (1 + chi^2) in one alternation.  A least-squares problem
that fails, or ``_MAX_ALTERNATIONS`` alternations without that, ends the
fit with ``FitConvergenceError``.

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
_MAX_ALTERNATIONS = 500  # state/effect passes per rank before the fit gives up
# The convergence test's absolute resolution at chi^2 = 0: a fit stops
# once chi^2 moves by at most this much times (1 + chi^2), so misfits
# within it of zero are not told apart.
_CHI2_RESOLUTION = 1e-10
# Relative slack on a rank's chi^2 lower bound before it screens the rank,
# for the rounding of the singular values it is summed from.
_BOUND_MARGIN = 1e-6


class FitConvergenceError(NumericalError):
    """A rank's fit failed a least-squares problem or did not converge."""


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
        if not len(self.counts) == len(self.outcomes) == len(self.measurements):
            raise FormatError("count table shape mismatch")
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
    chi_squared_trace: list[tuple[int, float]]  # fitted ranks only
    chi_squared_bounds: list[tuple[int, float]]  # screened ranks: (k, lower bound on chi^2)
    state_condition: float = 0.0
    effect_condition: float = 0.0


def fit(counts: CountTable, max_dimension: int = 6) -> FitResult:
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
    bounds: list[tuple[int, float]] = []
    for k in range(1, max_dimension + 1):
        params = nx * (k - 1) + k * n_free - k * (k - 1)
        dof = max(1, data_points - params)
        limit = 1.0 + 3.0 * np.sqrt(2.0 / dof)
        bound = tables.floor(k)
        if bound / dof > limit * (1.0 + _BOUND_MARGIN):
            bounds.append((k, bound))
            continue
        chi2, states, effects = _fit_rank(tables, k)
        trace.append((k, chi2))
        if chi2 / dof <= limit:
            fragment = _build_fragment(counts, states, effects, k)
            smat = fragment.state_matrix()
            emat = fragment.effect_matrix()
            return FitResult(
                dimension=k,
                fragment=fragment,
                chi_squared=float(chi2),
                dof=int(dof),
                chi_squared_trace=trace,
                chi_squared_bounds=bounds,
                state_condition=float(np.linalg.cond(smat)),
                effect_condition=float(np.linalg.cond(emat)),
            )
    raise DimensionSelectionError(
        f"no dimension up to {max_dimension} meets the selection rule; "
        f"chi-squared trace: {[(k, round(c, 3)) for k, c in trace]}; "
        f"screened by chi-squared lower bound: {[(k, round(b, 3)) for k, b in bounds]}"
    )


@dataclass
class _Tables:
    """What the alternations read of the data; the same at every k.

    ``groups`` holds, per outcome count nb > 1, the indices of the
    measurements with nb outcomes and the effect pass's per-problem
    invariants, one row per measurement: the row weights, the right-hand
    sides b and the bounds h, each (measurements, nb * nx).  ``w`` and
    ``f`` put every measurement's columns side by side.  ``floors[k]`` is
    the chi^2 lower bound L(k) of rank k (see ``floor``).
    """

    fhat: list[np.ndarray]
    weights: list[np.ndarray]
    w: np.ndarray
    f: np.ndarray
    groups: list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]
    floors: np.ndarray

    def floor(self, k):
        """L(k) = w_min^2 * sum_{i>k} sigma_i(f)^2, at most the chi^2 of any rank-k fit.

        Eckart-Young: a rank-k prediction misses the frequencies by at
        least their singular values beyond the k-th, and every cell weighs
        at least w_min.
        """
        return float(self.floors[k]) if k < len(self.floors) else 0.0

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
            groups.append((ys, w, b, np.tile(h, (len(ys), 1))))
        w, f = np.hstack(weights), np.hstack(fhat)
        tail = np.cumsum(np.linalg.svd(f, compute_uv=False)[::-1] ** 2)[::-1]
        return cls(fhat, weights, w, f, groups, float(np.min(w)) ** 2 * tail)


def _fit_rank(tables, k):
    """(chi2, states, effects) of rank k, alternated from the SVD start.

    It stops once chi^2 moves by at most ``_CHI2_RESOLUTION`` * (1 + chi^2)
    in one alternation, and raises ``FitConvergenceError`` when a
    least-squares problem fails or after ``_MAX_ALTERNATIONS`` alternations.
    """
    states, chi2 = _svd_init(tables.fhat, k), np.inf
    for _ in range(_MAX_ALTERNATIONS):
        effects = _effect_pass(tables, states)
        if k > 1:
            states = _state_pass(tables, effects, states)
        chi2_prev, chi2 = chi2, _chi2(tables, states, effects)
        if abs(chi2_prev - chi2) <= _CHI2_RESOLUTION * (1.0 + chi2):
            return chi2, states, effects
    raise FitConvergenceError(
        f"the fit did not converge within {_MAX_ALTERNATIONS} alternations at k={k}"
    )


def _svd_init(fhat, k):
    """Best unweighted rank-k factor of [1 | data], rotated to the gauge."""
    nx = fhat[0].shape[0]
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
    """Effect update, one stacked solve per outcome count.

    Per measurement the variables are the first nb-1 effect vectors; the
    last is unit minus their sum.  Constraints keep every predicted
    probability nonnegative (the complementary bound follows from
    measurement normalization).  Returns the effects per measurement,
    each (nb, k); a failed problem raises ``FitConvergenceError``.
    """
    unit = _unit_vector(states.shape[1])
    effects = [unit[None] for _ in tables.fhat]  # one-outcome measurements
    for ys, w, b, h in tables.groups:
        m = tables.fhat[ys[0]].shape[1] - 1
        # The bound rows are the design rows at unit weight.
        g = np.repeat(_outcome_rows(states, m + 1)[None], len(ys), axis=0)
        x = constrained_lstsq(g * w[:, :, None], b, g, h)
        if np.isnan(x).any():
            raise FitConvergenceError(f"a least-squares problem failed at k={len(unit)}")
        x = x.reshape(len(ys), m, -1)
        last = unit - x.sum(axis=1)
        for j, y in enumerate(ys):
            effects[y] = np.concatenate([x[j], last[j, None]])
    return effects


def _outcome_rows(states, nb):
    """Stacked rows over the first nb-1 effect vectors of one measurement, b-major.

    For states (nx, k): row (b, x) holds states[x] in block b, for
    b < nb-1; row x of the last outcome holds -states[x] in every block,
    since that effect is the unit minus the others.
    """
    nx, k = states.shape
    m = nb - 1
    top = np.zeros((m, nx, m, k))
    for j in range(m):
        top[j, :, j] = states
    return np.concatenate([top.reshape(m * nx, m * k), np.tile(-states, m)])


def _state_pass(tables, effects, states):
    """State update, one stacked solve over the preparations.

    The first coordinate stays fixed at 1.  Every predicted probability
    stays in [0, 1]; those bounds depend on the effects, not on the
    preparation.  A failed problem raises ``FitConvergenceError``.
    """
    nx, k = states.shape
    e = np.concatenate(effects)  # (effects, k)
    ne = len(e)
    g = np.stack([e[:, 1:], -e[:, 1:]], axis=1).reshape(2 * ne, k - 1)
    h = np.stack([-e[:, 0], e[:, 0] - 1.0], axis=1).reshape(2 * ne)
    x = constrained_lstsq(
        tables.w[:, :, None] * e[:, 1:],
        tables.w * (tables.f - e[:, 0]),
        np.broadcast_to(g, (nx, 2 * ne, k - 1)),
        np.broadcast_to(h, (nx, 2 * ne)),
    )
    if np.isnan(x).any():
        raise FitConvergenceError(f"a least-squares problem failed at k={k}")
    out = states.copy()
    out[:, 1:] = x
    return out


def _chi2(tables, states, effects):
    """Weighted chi^2, summed over measurements in order."""
    total = 0.0
    for y, f in enumerate(tables.fhat):
        total += np.sum((tables.weights[y] * (states @ effects[y].T - f)) ** 2)
    return float(total)


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
    taken = set()
    for y, mlab in enumerate(counts.measurements):
        labs = []
        for b, olab in enumerate(counts.outcomes[y]):
            lab = olab
            while lab in taken:  # each prefix lengthens it, so this ends
                lab = f"{mlab}:{lab}"
            taken.add(lab)
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
    tolerance of the accessible fragment and its cones.  ``seed`` is not
    read: the fit draws nothing.  It stays for callers that pass it.
    """
    result = fit(counts, max_dimension=max_dimension)
    af = accessibilize(result.fragment, tol)
    emb = test_embeddability(af)
    r_star = robustness(af).r_star
    n_min = int(np.min(counts.trials))
    threshold = 3.0 * np.sqrt(0.25 / n_min)
    return PipelineResult(
        fit=result,
        embeddable=bool(emb.embeddable or r_star <= threshold),
        r_star=r_star,
        strictly_embeddable=emb.embeddable,
        noise_threshold=float(threshold),
    )
