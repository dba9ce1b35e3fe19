"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime budgets are asserted as stated; the
oracles (grid search, NNLS extremality, depolarize-and-retest bisection,
random explicit models) live in tests/oracles.py and are independent of
the code paths they check.
"""

import time
import zlib

import numpy as np
import pytest

from classicality.embedding import (
    accessibilize,
    robustness,
    test_embeddability,
    to_model,
)
from classicality.fragments import predict
from classicality.identities import find_identities, induced_marginal_identities
from classicality.models import verify_model
from classicality.noncontextuality import evaluate, membership, response_vertices
from classicality.scenarios import build
from classicality.secondary import secondary_states
from classicality.tomography import fit, synth, verdict_pipeline
from oracles import (
    grid_bound_oracle,
    mean_primary_weight,
    random_fragment,
    random_noncontextual_models,
    robustness_by_bisection,
)

N_RANDOM = 200


def _announce(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def _vertices_for(fragment):
    return response_vertices(
        find_identities(fragment, "effects"),
        [(m.label, list(m.effects)) for m in fragment.measurements],
    )

def test_acceptance_1_pr_contextuality():
    start = time.perf_counter()
    bundle = build("boxworld-pr")
    af = accessibilize(bundle.fragment)
    emb = test_embeddability(af)
    assert not emb.embeddable

    idents = find_identities(bundle.fragment, "states")
    mem = membership(
        bundle.statistics, idents, find_identities(bundle.fragment, "effects")
    )
    assert not mem.feasible
    ineq = mem.inequality
    verdict = evaluate(ineq, bundle.statistics)
    assert verdict.value == pytest.approx(1.0, abs=1e-9)
    assert ineq.bound == pytest.approx(0.75, abs=1e-9)
    assert verdict.violated

    oracle = grid_bound_oracle(
        ineq.coefficients, bundle.statistics.outcomes, ((0, 1), (2, 3))
    )
    assert oracle == pytest.approx(ineq.bound, abs=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(
        1,
        f"square scenario not embeddable; inequality value 1.00 vs bound 0.75 "
        f"(grid oracle {oracle:.6f}); {elapsed:.2f}s",
    )


def test_acceptance_2_classical_mediary():
    start = time.perf_counter()
    bundle = build("boxworld-classical-mediary")
    pr = build("boxworld-pr")
    for y in (0, 1):  # identical P(AB|XY)
        assert np.allclose(bundle.statistics.tables[y], pr.statistics.tables[y])

    emb = test_embeddability(accessibilize(bundle.fragment))
    assert emb.embeddable
    mem = membership(
        bundle.statistics,
        find_identities(bundle.fragment, "states"),
        find_identities(bundle.fragment, "effects"),
    )
    assert mem.feasible
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(
        2,
        f"classical record mediary embeddable and membership feasible on the "
        f"same table; {elapsed:.2f}s",
    )


def test_acceptance_3_lab_notebook_equivalence():
    start = time.perf_counter()
    ln = build("lab-notebook")
    assert find_identities(ln.fragment, "states") == []

    induced = induced_marginal_identities(ln.fragment, "S")
    assert len(induced) == 1
    original = find_identities(build("boxworld-pr").fragment, "states")[0]
    got = np.array([c for _, c in induced[0].terms])
    want = np.array([c for _, c in original.terms])
    assert np.max(np.abs(got - want)) <= 1e-9

    mem = membership(ln.statistics, induced, find_identities(ln.fragment, "effects"))
    assert mem.feasible is False  # same verdict as criterion 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(
        3,
        f"pointer composite: no bare identities, induced identity matches, "
        f"membership verdict unchanged; {elapsed:.2f}s",
    )


def test_acceptance_4_robustness():
    start = time.perf_counter()
    frag = build("boxworld-pr").fragment
    rob = robustness(accessibilize(frag))
    assert rob.r_star == pytest.approx(0.5, abs=1e-6)
    sweep = robustness_by_bisection(frag, r_tol=1e-4)
    assert abs(sweep - rob.r_star) <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(
        4,
        f"r* = {rob.r_star:.8f} by a single LP; bisection sweep {sweep:.6f}; "
        f"{elapsed:.2f}s",
    )


def test_acceptance_5_stabilizer_qubit():
    start = time.perf_counter()
    bundle = build("qubit-stabilizer")
    af = accessibilize(bundle.fragment)
    emb = test_embeddability(af)
    assert emb.embeddable
    model = to_model(emb.certificate, af)
    assert model.size <= 16
    mine = model.statistics()
    worst = max(
        float(np.max(np.abs(mine.tables[y] - bundle.statistics.tables[y])))
        for y in range(3)
    )
    assert worst <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(
        5,
        f"six-state qubit fragment embeddable, model size {model.size} <= 16, "
        f"36 probabilities reproduced to {worst:.1e}; {elapsed:.2f}s",
    )


def test_acceptance_6_secondary_procedure():
    start = time.perf_counter()
    pr = build("boxworld-pr").fragment
    target = find_identities(pr, "states")[0]

    exact = [(s.label, s.vector) for s in pr.states]
    sol_exact = secondary_states(exact, [target])
    assert np.allclose(sol_exact.weights, np.eye(4), atol=1e-9)

    rng = np.random.default_rng(20240817)
    realized = [
        (s.label, s.vector + np.concatenate([[0.0], rng.normal(0.0, 0.02, 2)]))
        for s in pr.states
    ]
    sol = secondary_states(realized, [target])
    assert sol.feasible
    assert max(sol.residuals) <= 1e-9
    assert mean_primary_weight(sol) >= 0.95

    # Independent re-solve under permuted variable order.
    perm = [3, 1, 0, 2]
    sol_perm = secondary_states([realized[i] for i in perm], [target])
    assert mean_primary_weight(sol) == pytest.approx(
        mean_primary_weight(sol_perm), abs=1e-9
    )
    elapsed = time.perf_counter() - start
    _announce(
        6,
        f"secondary states: residual {max(sol.residuals):.1e} <= 1e-9, mean "
        f"primary weight {mean_primary_weight(sol):.4f} >= 0.95; {elapsed:.2f}s",
    )


def test_acceptance_7_tomography_round_trip():
    start = time.perf_counter()
    trials = 100_000
    expectations = {
        "qubit-stabilizer": (4, True),
        "boxworld-pr": (3, False),
        "simplex-d": (2, True),
    }
    r_star_fitted = None
    for name, (k_want, classical) in expectations.items():
        bundle = build(name, d=2) if name == "simplex-d" else build(name)
        counts = synth(bundle.fragment, trials, seed=20240817)
        result = verdict_pipeline(counts)
        assert result.fit.dimension == k_want, name
        noiseless = test_embeddability(accessibilize(bundle.fragment)).embeddable
        assert result.embeddable == noiseless == classical, name
        if name == "boxworld-pr":
            r_star_fitted = result.r_star
    assert r_star_fitted == pytest.approx(0.5, abs=0.02)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _announce(
        7,
        f"count-level round trip recovers k=4/3/2, verdicts match noiseless, "
        f"fitted r* = {r_star_fitted:.4f}; {elapsed:.1f}s",
    )


def test_acceptance_8_oracle_equivalence_suite():
    start = time.perf_counter()
    agree = 0
    verdicts = {True: 0, False: 0}
    for seed in range(N_RANDOM):
        frag = random_fragment(seed)
        af = accessibilize(frag)
        emb = test_embeddability(af)
        stats = predict(frag)
        sids = find_identities(frag, "states")
        mem = membership(stats, sids, find_identities(frag, "effects"))
        assert emb.embeddable == mem.feasible, f"seed {seed} disagrees"
        agree += 1
        verdicts[emb.embeddable] += 1
        if emb.embeddable:
            model = to_model(emb.certificate, af)
            chk = verify_model(
                model, stats, sids, find_identities(frag, "effects")
            )
            assert chk.passed, f"seed {seed}: {chk.describe()}"
    assert agree == N_RANDOM
    assert verdicts[True] > 0 and verdicts[False] > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _announce(
        8,
        f"{agree}/{N_RANDOM} embed/membership agreements "
        f"({verdicts[True]} embeddable, {verdicts[False]} not); all models "
        f"pass every invariant; {elapsed:.1f}s",
    )


def test_acceptance_9_certificate_soundness():
    start = time.perf_counter()
    scenarios = []
    pr = build("boxworld-pr")
    scenarios.append(("boxworld-pr", pr.fragment, pr.statistics))
    for seed in range(N_RANDOM):
        frag = random_fragment(seed)
        if not test_embeddability(accessibilize(frag)).embeddable:
            scenarios.append((f"random-{seed}", frag, predict(frag)))

    checked = 0
    for name, frag, stats in scenarios:
        sids = find_identities(frag, "states")
        mem = membership(stats, sids, find_identities(frag, "effects"))
        assert not mem.feasible, name
        ineq = mem.inequality
        samples = random_noncontextual_models(
            stats, sids, _vertices_for(frag), 100, seed=zlib.crc32(name.encode())
        )
        for model, table in samples:
            chk = verify_model(model, state_identities=sids)
            assert chk.passed, f"{name}: generated model invalid"
            assert evaluate(ineq, table).value <= ineq.bound + 1e-7, name
            checked += 1
    elapsed = time.perf_counter() - start
    _announce(
        9,
        f"{len(scenarios)} contextual scenarios emit Farkas-backed "
        f"inequalities; {checked} noncontextually-generated tables all "
        f"satisfy them; {elapsed:.1f}s",
    )
