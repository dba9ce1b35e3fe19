import zlib

import numpy as np
import pytest

import oracles
from classicality import embedding, tomography
from classicality.errors import FormatError, NumericalError
from classicality.fragments import validate
from classicality.scenarios import build
from classicality.tomography import (
    CountTable,
    DimensionSelectionError,
    FitConvergenceError,
    fit,
    synth,
    verdict_pipeline,
)
from perfbench.inputs import SCENARIOS, regular_polygon, scenario


def test_synth_deterministic_cell():
    s2 = build("simplex-d", d=2).fragment
    table = synth(s2, trials=100, seed=0)
    # Point states: the correct readout fires every time, the other never.
    assert np.array_equal(table.counts[0], np.array([[100, 0], [0, 100]]))


def test_synth_reproducible_and_concentrated():
    st = build("qubit-stabilizer").fragment
    a = synth(st, trials=100_000, seed=123)
    b = synth(st, trials=100_000, seed=123)
    assert all(np.array_equal(x, y) for x, y in zip(a.counts, b.counts))
    freqs = a.frequencies()
    # Unbiased cells stay within 3 sigma of one half.
    sigma = np.sqrt(0.25 / 100_000)
    for y, meas in enumerate(a.measurements):
        axis = meas[-1]
        for x, prep in enumerate(a.preparations):
            if not prep.endswith(axis):
                assert abs(freqs[y][x, 0] - 0.5) <= 3 * sigma


def test_counts_validate_shapes():
    with pytest.raises(FormatError):
        CountTable(
            preparations=["a"],
            measurements=["m"],
            outcomes=[["x", "y"]],
            counts=[np.array([[3, 4]])],
            trials=np.array([[10]]),  # does not match 3 + 4
        )


@pytest.mark.parametrize(
    "outcomes, counts",
    [([["x", "y"]] * 2, [[[3, 7]]]), ([["x", "y"]], [[[3, 7]], [[5, 5]]])],
    ids=["a count block short", "an outcome list short"],
)
def test_counts_need_a_block_and_an_outcome_list_per_measurement(outcomes, counts):
    with pytest.raises(FormatError, match="count table shape mismatch"):
        CountTable(["a"], ["m", "n"], outcomes, [np.array(c) for c in counts], [[10, 10]])


@pytest.mark.parametrize(
    "counts, trials", [([[100.9, 0]], [[100]]), ([[100, 0]], [[100.5]])]
)
def test_counts_and_trials_must_be_whole_numbers(counts, trials):
    with pytest.raises(FormatError, match="whole numbers"):
        CountTable(["a"], ["m"], [["x", "y"]], counts=[np.array(counts)], trials=trials)


def test_fit_requires_enough_trials():
    s2 = build("simplex-d", d=2).fragment
    table = synth(s2, trials=5, seed=0)
    with pytest.raises(FormatError):
        fit(table)


@pytest.mark.parametrize("max_dimension", [0, -2])
def test_fit_requires_a_dimension_to_try(max_dimension):
    table = synth(build("simplex-d", d=2).fragment, trials=100, seed=0)
    with pytest.raises(FormatError, match="max_dimension must be at least 1"):
        fit(table, max_dimension=max_dimension)


def test_chi_squared_trace_nonincreasing():
    st = build("qubit-stabilizer").fragment
    counts = synth(st, trials=2000, seed=3)
    result = fit(counts, max_dimension=4)
    values = [c for _, c in result.chi_squared_trace]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    # Every rank up to the fitted one was either fitted or screened.
    ranks = [k for k, _ in result.chi_squared_trace + result.chi_squared_bounds]
    assert sorted(ranks) == list(range(1, result.dimension + 1))


def test_selection_failure_reported():
    st = build("qubit-stabilizer")
    counts = synth(st.fragment, trials=50_000, seed=5)
    # Both ranks are screened, so no rank is fitted and the trace is empty.
    with pytest.raises(
        DimensionSelectionError,
        match=r"chi-squared trace: \[\]; screened by chi-squared lower bound: "
        r"\[\(1, \d+\.\d+\), \(2, \d+\.\d+\)\]",
    ):
        fit(counts, max_dimension=2)


def test_nonconvergence_reported_distinctly(monkeypatch):
    st = build("qubit-stabilizer")
    counts = synth(st.fragment, trials=1000, seed=5)
    monkeypatch.setattr(tomography, "_MAX_ALTERNATIONS", 0)
    with pytest.raises(FitConvergenceError):
        fit(counts)


def test_fitted_fragment_validates_and_has_diagnostics():
    pr = build("boxworld-pr").fragment
    counts = synth(pr, trials=20_000, seed=9)
    result = fit(counts)
    assert result.dimension == 3
    assert validate(result.fragment).passed
    assert result.state_condition >= 1.0
    assert result.effect_condition >= 1.0
    assert np.array_equal(result.fragment.unit_effect, np.eye(3)[0])  # the gauge
    assert result.dof >= 1


def test_gauge_invariance_of_verdict():
    # Any invertible reparametrization preserving probabilities leaves the
    # embeddability verdict unchanged.
    from classicality.embedding import accessibilize, test_embeddability
    from classicality.fragments import Fragment, GptVector

    pr = build("boxworld-pr").fragment
    counts = synth(pr, trials=20_000, seed=9)
    fitted = fit(counts).fragment
    rng = np.random.default_rng(0)
    t = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    t_inv = np.linalg.inv(t)
    gauged = Fragment(
        name="gauged",
        dimension=3,
        unit_effect=fitted.unit_effect @ t_inv,
        states=[GptVector(s.label, t @ s.vector, "state") for s in fitted.states],
        effects=[GptVector(e.label, e.vector @ t_inv, "effect") for e in fitted.effects],
        measurements=fitted.measurements,
    )
    v1 = test_embeddability(accessibilize(fitted, 1e-6)).embeddable
    v2 = test_embeddability(accessibilize(gauged, 1e-6)).embeddable
    assert v1 == v2 == False  # noqa: E712 - the fitted square stays contextual


def test_verdict_pipeline_on_classical_bit():
    s2 = build("simplex-d", d=2).fragment
    counts = synth(s2, trials=100_000, seed=21)
    result = verdict_pipeline(counts)
    assert result.fit.dimension == 2
    assert result.embeddable
    assert result.r_star == pytest.approx(0.0, abs=0.01)


@pytest.mark.parametrize(
    "name, trials, embeds",
    [("simplex-d", 5000, True), ("boxworld-pr", 10_000, False)],
    ids=["simplex", "pr"],
)
def test_pipeline_solves_one_decomposition_lp(name, trials, embeds, monkeypatch):
    real, calls = embedding.solve, []

    def solve(lp):
        calls.append(lp)
        return real(lp)

    monkeypatch.setattr(embedding, "solve", solve)
    counts = synth(build(name).fragment, trials=trials, seed=11)
    result = verdict_pipeline(counts)
    assert result.strictly_embeddable is embeds
    assert (result.r_star == 0.0) is embeds
    assert len(calls) == 1
    # Both verdicts on one accessible fragment read one solve.
    af = embedding.accessibilize(result.fit.fragment, 1e-6)
    embedding.test_embeddability(af)
    embedding.robustness(af)
    assert len(calls) == 2


def test_pipeline_r_star_is_the_robustness_of_a_fragment_that_does_not_embed():
    counts = synth(build("boxworld-pr").fragment, trials=10_000, seed=1)
    result = verdict_pipeline(counts, tol=1e-6)
    assert not result.strictly_embeddable
    from classicality.embedding import accessibilize, robustness

    assert result.r_star > 0.0
    assert result.r_star == robustness(accessibilize(result.fit.fragment, 1e-6)).r_star


def _counts_of(name, seed):
    key = {"pr": ("boxworld-pr", {}), "tri": ("simplex-d", {"d": 3}),
           "s4": ("simplex-d", {"d": 4}), "med": ("boxworld-classical-mediary", {})}[name]
    bundle = build(key[0], **key[1])
    return bundle, synth(bundle.fragment, trials=10_000, seed=seed)


def _same_fit(x, y):
    assert x.dimension == y.dimension
    assert x.chi_squared_trace == y.chi_squared_trace
    assert (x.chi_squared, x.dof) == (y.chi_squared, y.dof)
    for a, b in ((x.fragment.state_matrix(), y.fragment.state_matrix()),
                 (x.fragment.effect_matrix(), y.fragment.effect_matrix())):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["pr", "tri", "s4", "med"])
def test_fit_matches_the_sequential_solves_bit_for_bit(name, monkeypatch):
    bundle, counts = _counts_of(name, seed=zlib.crc32(name.encode()))
    # Exact tables with unit weights at the true rank, where the misfit
    # reaches zero up to roundoff.
    exact = tomography._Tables.build(
        bundle.statistics.tables, [np.ones_like(t) for t in bundle.statistics.tables]
    )
    k = bundle.fragment.dimension
    _same_rank_result(tomography._fit_rank(exact, k), oracles.fit_rank_sequential(exact, k))
    batched = fit(counts)
    monkeypatch.setattr(tomography, "_fit_rank", oracles.fit_rank_sequential)
    _same_fit(batched, fit(counts))


def _same_rank_result(x, y):
    assert x[0] == y[0]
    assert x[1].tobytes() == y[1].tobytes()
    assert [e.tobytes() for e in x[2]] == [e.tobytes() for e in y[2]]


@pytest.mark.parametrize("alternations", [1, 3, 500])
def test_fit_rank_matches_the_sequential_solves_converged_or_not(alternations, monkeypatch):
    # One alternation never converges, since the first chi^2 has nothing to
    # move from; where the fit does not converge, both paths raise.
    monkeypatch.setattr(tomography, "_MAX_ALTERNATIONS", alternations)
    tables = oracles.fit_tables(_counts_of("tri", seed=7)[1])
    for k in (1, 2, 3):
        try:
            got = tomography._fit_rank(tables, k)
        except FitConvergenceError:
            assert alternations < 500
            with pytest.raises(FitConvergenceError):
                oracles.fit_rank_sequential(tables, k)
        else:
            _same_rank_result(got, oracles.fit_rank_sequential(tables, k))


def _counted_lstsq(monkeypatch):
    """Stack sizes of every ``constrained_lstsq`` call the fit makes from now on."""
    solve, calls = tomography.constrained_lstsq, []

    def counting(a, b, g, h):
        calls.append(len(a))
        return solve(a, b, g, h)

    monkeypatch.setattr(tomography, "constrained_lstsq", counting)
    return calls


def _stacks_of_one_start(tables):
    """The ``constrained_lstsq`` stack sizes of one alternation of one
    start at k > 1: an effect pass per outcome count, then a state pass."""
    return [len(ys) for ys, *_ in tables.groups] + [len(tables.f)]


@pytest.mark.parametrize("call", [0, 3])
def test_a_failed_problem_ends_the_fit(call, monkeypatch):
    # Call 0 is the first effect pass at k = 2, call 3 the second state
    # pass; one of its problems fails there, and the fit stops at that pass.
    tables = oracles.fit_tables(_counts_of("pr", seed=11)[1])
    solve, calls = tomography.constrained_lstsq, []

    def failing(a, b, g, h):
        x = solve(a, b, g, h)
        if len(calls) == call:
            x[0] = np.nan
        calls.append(len(a))
        return x

    monkeypatch.setattr(tomography, "constrained_lstsq", failing)
    with pytest.raises(FitConvergenceError, match="least-squares problem failed at k=2"):
        tomography._fit_rank(tables, 2)
    assert calls == (_stacks_of_one_start(tables) * 2)[: call + 1]
    calls.clear()
    monkeypatch.setattr(oracles, "constrained_lstsq", failing)
    with pytest.raises(FitConvergenceError):
        oracles.fit_rank_sequential(tables, 2)


@pytest.mark.parametrize("name", ["pr", "labA", "bit", "tri", "s4", "med"])
def test_an_exact_fit_runs_the_svd_start_alone(name, monkeypatch):
    # Every fitted rank of these tables admits an exact fit, which the SVD
    # start reaches in whole alternations of stacked solves.
    counts = synth(scenario(name), 10_000, seed=zlib.crc32(f"{name}@1e4".encode()))
    tables = oracles.fit_tables(counts)
    calls = _counted_lstsq(monkeypatch)
    result = fit(counts)
    monkeypatch.undo()
    assert result.dimension == SCENARIOS[name][2]
    assert _rank_screen(counts, result.dimension)[0] <= tomography._CHI2_RESOLUTION
    one = _stacks_of_one_start(tables)
    assert calls and calls == one * (len(calls) // len(one))


def test_a_fit_above_the_exact_floor_raises_unconverged(monkeypatch):
    counts = synth(regular_polygon(5), 10_000, seed=zlib.crc32(b"pentagon@1e4"))
    tables = oracles.fit_tables(counts)
    assert _rank_screen(counts, 3)[0] > tomography._CHI2_RESOLUTION
    # 20 alternations keep the sequential replay short.  The SVD start does
    # not converge within them, and no other start runs.
    monkeypatch.setattr(tomography, "_MAX_ALTERNATIONS", 20)
    calls = _counted_lstsq(monkeypatch)
    with pytest.raises(FitConvergenceError, match="within 20 alternations at k=3"):
        tomography._fit_rank(tables, 3)
    assert calls == _stacks_of_one_start(tables) * 20
    with pytest.raises(FitConvergenceError):
        oracles.fit_rank_sequential(tables, 3)


def test_the_pentagon_at_300_trials_fits_no_dimension_but_its_own():
    # A warm start from k = 4 once fitted this table exactly at k = 5 and
    # called it embeddable; the pentagon has dimension 3 and does not embed.
    # The SVD start does not converge at k = 4.
    counts = synth(regular_polygon(5), 300, seed=zlib.crc32(b"pentagon@300"))
    try:
        result = verdict_pipeline(counts)
    except NumericalError:
        return
    assert result.fit.dimension == 3


def _fragment_of(name):
    return regular_polygon(5) if name == "pentagon" else scenario(name)


def _rank_screen(counts, k):
    """(L(k), dof, limit) of rank k, with L(k) read off the best rank-k
    approximation of the frequency table rather than its singular values."""
    tables = oracles.fit_tables(counts)
    u, s, vt = np.linalg.svd(tables.f, full_matrices=False)
    miss = tables.f - (u[:, :k] * s[:k]) @ vt[:k]
    bound = np.min(tables.w) ** 2 * np.sum(miss**2)
    nx, n_free = tables.f.shape[0], sum(len(o) - 1 for o in counts.outcomes)
    dof = max(1, nx * n_free - (nx * (k - 1) + k * n_free - k * (k - 1)))
    return bound, dof, 1.0 + 3.0 * np.sqrt(2.0 / dof)


def _spy_ranks(monkeypatch):
    """The ranks ``fit`` hands to ``_fit_rank`` from now on."""
    fit_rank, ranks = tomography._fit_rank, []

    def spy(tables, k):
        ranks.append(k)
        return fit_rank(tables, k)

    monkeypatch.setattr(tomography, "_fit_rank", spy)
    return ranks


@pytest.mark.parametrize("name", ["pr", "labA", "bit", "tri", "s4", "med", "stab", "pentagon"])
def test_a_screened_rank_fits_no_better_than_its_bound(name, monkeypatch):
    # Few trials bring the bounds closest to the acceptance limit: 2.3 times
    # it for stab@10 at k = 3.
    for trials in (10, 30, 100, 300):
        counts = synth(_fragment_of(name), trials, seed=zlib.crc32(f"{name}@{trials}".encode()))
        tables = oracles.fit_tables(counts)
        screened = []
        for k in range(1, 7):
            bound, dof, limit = _rank_screen(counts, k)
            if bound / dof <= limit * (1.0 + 1e-6):
                continue
            screened.append((k, bound))
            chi2 = tomography._fit_rank(tables, k)[0]
            assert chi2 >= bound * (1.0 - 1e-9)
            assert chi2 / dof > limit
        assert screened, "no rank screened"
        # fit skips exactly these ranks below the last one it reaches, and
        # fits the rest, also when a fitted rank ends in an error.
        ranks = _spy_ranks(monkeypatch)
        try:
            result = fit(counts)
        except NumericalError:
            result = None
        monkeypatch.undo()
        last = result.dimension if result else ranks[-1]
        skipped = [(k, b) for k, b in screened if k < last]
        assert ranks == [k for k in range(1, last + 1) if k not in dict(skipped)]
        if result:
            assert [k for k, _ in result.chi_squared_bounds] == [k for k, _ in skipped]
            np.testing.assert_allclose(
                [b for _, b in result.chi_squared_bounds], [b for _, b in skipped], rtol=1e-9
            )


@pytest.mark.parametrize("name", ["pr", "labA", "bit", "tri", "s4", "med"])
def test_screened_fit_matches_the_unscreened_rank_loop(name, monkeypatch):
    counts = synth(scenario(name), 10_000, seed=zlib.crc32(f"{name}@1e4".encode()))
    screened = verdict_pipeline(counts)
    monkeypatch.setattr(tomography, "fit", oracles.fit_unscreened)
    unscreened = verdict_pipeline(counts)
    assert screened.fit.dimension == unscreened.fit.dimension == SCENARIOS[name][2]
    assert screened.embeddable == unscreened.embeddable == SCENARIOS[name][3]
    assert screened.strictly_embeddable == unscreened.strictly_embeddable


def test_only_the_true_rank_is_fitted(monkeypatch):
    counts = synth(scenario("pr"), 10_000, seed=1)
    ranks = _spy_ranks(monkeypatch)
    result = fit(counts)
    assert ranks == [3]
    assert result.chi_squared_trace == [(3, result.chi_squared)]
    assert [k for k, _ in result.chi_squared_bounds] == [1, 2]
