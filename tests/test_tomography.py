import zlib

import numpy as np
import pytest

import oracles
from classicality import tomography
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
    result = fit(counts, max_dimension=4, seed=2)
    values = [c for _, c in result.chi_squared_trace]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_selection_failure_reported():
    st = build("qubit-stabilizer")
    counts = synth(st.fragment, trials=50_000, seed=5)
    with pytest.raises(DimensionSelectionError):
        fit(counts, max_dimension=2, seed=1)


def test_nonconvergence_reported_distinctly(monkeypatch):
    st = build("qubit-stabilizer")
    counts = synth(st.fragment, trials=1000, seed=5)
    monkeypatch.setattr(tomography, "_MAX_ALTERNATIONS", 0)
    with pytest.raises(FitConvergenceError):
        fit(counts, seed=1)


def test_fitted_fragment_validates_and_has_diagnostics():
    pr = build("boxworld-pr").fragment
    counts = synth(pr, trials=20_000, seed=9)
    result = fit(counts, seed=4)
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
    fitted = fit(counts, seed=4).fragment
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
    result = verdict_pipeline(counts, seed=3)
    assert result.fit.dimension == 2
    assert result.embeddable
    assert result.r_star == pytest.approx(0.0, abs=0.01)


def test_pipeline_takes_r_star_zero_from_the_embedding(monkeypatch):
    def robustness(af):
        raise AssertionError("robustness LP solved for an embeddable fragment")

    monkeypatch.setattr(tomography, "robustness", robustness)
    counts = synth(build("simplex-d", d=2).fragment, trials=5000, seed=11)
    result = verdict_pipeline(counts, seed=1)
    assert result.strictly_embeddable
    assert result.r_star == 0.0


def test_pipeline_r_star_is_the_robustness_of_a_fragment_that_does_not_embed():
    counts = synth(build("boxworld-pr").fragment, trials=10_000, seed=1)
    result = verdict_pipeline(counts, seed=1, tol=1e-6)
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
def test_fit_matches_sequential_restarts_bit_for_bit(name, monkeypatch):
    bundle, counts = _counts_of(name, seed=zlib.crc32(name.encode()))
    # Exact tables with unit weights at the true rank, where the misfit
    # reaches zero up to roundoff.
    exact = tomography._Tables.build(
        bundle.statistics.tables, [np.ones_like(t) for t in bundle.statistics.tables]
    )
    k = bundle.fragment.dimension
    _same_rank_result(
        tomography._fit_rank(exact, k, 3, 500),
        oracles.fit_rank_sequential(exact, k, 3, 500),
    )
    stacked = fit(counts, seed=3)
    monkeypatch.setattr(tomography, "_fit_rank", oracles.fit_rank_sequential)
    _same_fit(stacked, fit(counts, seed=3))


def _rank_tables(counts):
    # The weights fit() uses: inverse binomial standard deviations.
    fhat = counts.frequencies()
    n = counts.trials[:, :1].astype(float)
    weights = [1.0 / np.sqrt(np.maximum(f * (1.0 - f) / n, 1.0 / n**2)) for f in fhat]
    return tomography._Tables.build(fhat, weights)


def _same_rank_result(x, y):
    assert (x[0], x[3]) == (y[0], y[3])
    assert x[1].tobytes() == y[1].tobytes()
    assert [e.tobytes() for e in x[2]] == [e.tobytes() for e in y[2]]


@pytest.mark.parametrize("alternations", [1, 3, 500])
def test_fit_rank_matches_sequential_restarts_converged_or_not(alternations):
    tables = _rank_tables(_counts_of("tri", seed=7)[1])
    for k in (1, 2, 3):
        _same_rank_result(
            tomography._fit_rank(tables, k, 5, alternations),
            oracles.fit_rank_sequential(tables, k, 5, alternations),
        )


@pytest.mark.parametrize("call", [0, 3])
def test_failed_restart_leaves_the_others_ranked(call, monkeypatch):
    # Call 0 is the first effect pass, call 3 the second state pass; one
    # problem of restart 0 (the SVD start, the best one here) fails there.
    # Run one after another, that restart is skipped and the rest are
    # ranked as usual.
    tables = _rank_tables(_counts_of("pr", seed=11)[1])
    unfailed = tomography._fit_rank(tables, 2, 2, 500)
    solve, calls = tomography.constrained_lstsq, []

    def failing(a, b, g, h):
        x = solve(a, b, g, h)
        if len(calls) == call:
            x[0] = np.nan  # stacks are restart-major: row 0 belongs to restart 0
        calls.append(len(a))
        return x

    monkeypatch.setattr(tomography, "constrained_lstsq", failing)
    got = tomography._fit_rank(tables, 2, 2, 500)
    assert calls[call] % tomography._RESTARTS == 0  # every restart was still in the stack
    assert len(calls) > call + 1
    assert got[0] > unfailed[0]

    once, fits = oracles._fit_once, []

    def skip_first(*args):
        fits.append(None)
        if len(fits) == 1:
            raise NumericalError("injected")
        return once(*args)

    monkeypatch.setattr(oracles, "_fit_once", skip_first)
    _same_rank_result(got, oracles.fit_rank_sequential(tables, 2, 2, 500))


def _counted_lstsq(monkeypatch):
    """Stack sizes of every ``constrained_lstsq`` call the fit makes from now on."""
    solve, calls = tomography.constrained_lstsq, []

    def counting(a, b, g, h):
        calls.append(len(a))
        return solve(a, b, g, h)

    monkeypatch.setattr(tomography, "constrained_lstsq", counting)
    return calls


@pytest.mark.parametrize("name, most", [("s4", 150), ("med", 999)])
def test_a_fit_at_chi_squared_zero_stops_the_restarts_after_it(name, most, monkeypatch):
    # At the true rank the SVD start fits these tables to chi^2 ~ 1e-16 in
    # two alternations, while the warm start creeps on to the 500-alternation
    # cap.  Run to its end, it makes 1,072 (s4) and 1,984 (med) calls.
    counts = _counts_of(name, seed=zlib.crc32(name.encode()))[1]
    calls = _counted_lstsq(monkeypatch)
    assert fit(counts, seed=3).dimension == 4
    assert len(calls) <= most


def test_restarts_before_a_fit_at_chi_squared_zero_run_on(monkeypatch):
    tables = _rank_tables(_counts_of("s4", seed=zlib.crc32(b"s4"))[1])
    warm = None
    for k in (1, 2, 3):
        states = tomography._fit_rank(tables, k, 3, 500, warm)[1]
        warm = np.hstack([states, np.zeros((len(states), 1))])
    # Swap the SVD start and the warm start, which creeps to the cap: the
    # SVD start then stops restarts 2-7, which converge with it anyway, but
    # not the warm start before it.
    initial_states = tomography._initial_states

    def swapped(*args):
        inits = initial_states(*args)
        return [inits[1], inits[0], *inits[2:]]

    monkeypatch.setattr(tomography, "_initial_states", swapped)
    monkeypatch.setattr(oracles, "_initial_states", swapped)
    calls = _counted_lstsq(monkeypatch)
    got = tomography._fit_rank(tables, 4, 3, 500, warm)
    # Per alternation, an effect pass with a problem per restart (s4 has one
    # measurement) and a state pass with one per restart and preparation;
    # the warm start runs alone from the third alternation on.
    assert calls == [8, 32] * 2 + [1, 4] * 498
    assert got[0] <= tomography._CHI2_RESOLUTION
    _same_rank_result(got, oracles.fit_rank_sequential(tables, 4, 3, 500, warm))
