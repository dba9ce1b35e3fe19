import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cone_fragments,
    extreme_only_by_rank,
    h_rep_extreme_rays_by_rank,
    independent_rows_greedy,
)
from scipy.optimize import linprog

from classicality import cones, embedding, noncontextuality
from classicality.cli import main
from classicality.cones import canonicalize_rays, dual_cone, h_rep_extreme_rays
from classicality.embedding import accessibilize, accessible_identities
from classicality.errors import FormatError, ResourceLimitError
from classicality.linalg import matrix_rank, unique_rows
from perfbench.inputs import regular_polygon


def brute_extreme_rays(generators):
    """Extremality oracle: g is extreme iff it is not a nonnegative
    combination of the other generators (exact LP membership, HiGHS)."""
    g = np.asarray(generators, dtype=float)
    g = g / np.linalg.norm(g, axis=1)[:, None]
    keep = []
    for i in range(g.shape[0]):
        others = np.delete(g, i, axis=0)
        if others.shape[0] == 0:
            keep.append(g[i])
            continue
        res = linprog(
            np.zeros(others.shape[0]),
            A_eq=others.T,
            b_eq=g[i],
            bounds=[(0, None)] * others.shape[0],
            method="highs",
        )
        if res.status != 0:
            keep.append(g[i])
    return canonicalize_rays(keep)


def test_orthant_self_dual():
    cone = dual_cone(np.eye(3))
    assert np.allclose(cone.generators, canonicalize_rays(np.eye(3)), atol=1e-9)


def test_two_dimensional_wedge():
    cone = dual_cone([[1.0, 1.0], [1.0, -1.0]])
    expected = canonicalize_rays([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(cone.generators, expected, atol=1e-9)


def test_dual_of_whole_space_keeps_ambient_width():
    # Generators of the whole plane: the dual cone is {0}, with no extreme rays.
    cone = dual_cone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert cone.generators.shape == (0, 2)
    assert (cone.generators @ np.array([1.0, 2.0])).shape == (0,)


def test_boxworld_square_dual_rays():
    # The four square-corner states; each dual ray supports a square facet
    # and vanishes on exactly two adjacent generators.
    states = np.array([[1, 1, 1], [1, 0, 0], [1, 1, 0], [1, 0, 1]], dtype=float)
    cone = dual_cone(states)
    expected = canonicalize_rays([[0, 1, 0], [1, -1, 0], [0, 0, 1], [1, 0, -1]])
    assert cone.generators.shape == (4, 3)
    assert np.allclose(cone.generators, expected, atol=1e-9)
    for ray in cone.generators:
        tight = np.sum(np.abs(states @ ray) < 1e-9)
        assert tight == 2


def test_dual_restricted_to_span():
    # Generators spanning only the xy-plane: dual rays stay in that plane.
    gens = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
    cone = dual_cone(gens)
    assert np.allclose(cone.generators[:, 2], 0.0, atol=1e-12)
    assert cone.generators.shape[0] == 2
    for g in gens:
        assert np.all(cone.generators @ np.array(g) >= -1e-9)


def test_halfplane_dual_is_single_ray():
    cone = dual_cone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert cone.generators.shape == (1, 2)
    assert np.allclose(cone.generators[0], [0.0, 1.0], atol=1e-12)


def test_full_space_dual_is_empty():
    cone = dual_cone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert cone.generators.shape[0] == 0


def test_rejects_zero_generator_and_limits():
    with pytest.raises(FormatError):
        dual_cone([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ResourceLimitError):
        dual_cone(np.eye(17))
    with pytest.raises(ResourceLimitError):
        dual_cone(np.ones((129, 2)) + np.arange(129)[:, None])


def test_facet_generator_inequality_invariant():
    rng = np.random.default_rng(3)
    gens = rng.normal(size=(6, 3)) + np.array([2.0, 0, 0])
    cone = dual_cone(gens)
    for h in gens / np.linalg.norm(gens, axis=1)[:, None]:
        assert np.all(cone.generators @ h >= -1e-9)


@given(st.integers(2, 4), st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_double_duality_recovers_extreme_rays(dim, count, seed):
    rng = np.random.default_rng(seed)
    gens = rng.normal(size=(count, dim))
    gens[:, 0] = np.abs(gens[:, 0]) + 0.5  # keep the cone pointed
    once = dual_cone(gens)
    if once.generators.shape[0] == 0:
        return
    twice = dual_cone(once.generators)
    expected = brute_extreme_rays(gens)
    assert twice.generators.shape == expected.shape
    assert np.allclose(twice.generators, expected, atol=1e-7)


def test_h_rep_rays_requires_full_rank():
    with pytest.raises(FormatError):
        h_rep_extreme_rays([[1.0, 0.0], [2.0, 0.0]])


def test_one_column_constraints_give_the_half_line_or_nothing():
    assert np.array_equal(h_rep_extreme_rays([[2.0], [0.5], [1.0]]), [[1.0]])
    assert np.array_equal(h_rep_extreme_rays([[-1.0], [-3.0]]), [[-1.0]])
    assert h_rep_extreme_rays([[1.0], [-2.0], [0.5]]).shape == (0, 1)


def _dd(constraints, tol=1e-9):
    """The double description on any cone size, as h_rep_extreme_rays runs it."""
    return cones._double_description(cones._unit_rows(constraints, tol), tol)


def _same_rays(constraints, tol=1e-9):
    """The double description and the rank-test oracle agree bit for bit, or raise alike."""
    out = []
    for f in (_dd, h_rep_extreme_rays_by_rank):
        try:
            rays = f(constraints, tol)
            out.append((rays.shape, rays.tobytes()))
        except FormatError as exc:
            out.append(str(exc))
    return out[0] == out[1]


def _same_start_rows(constraints, tol=1e-9):
    """cones._independent_rows picks the greedy rank loop's rows, on the
    rows the double description hands it; True for input it refuses."""
    try:
        c = cones._unit_rows(constraints, tol)
    except FormatError:
        return True
    k = c.shape[1]
    return cones._independent_rows(c, k, tol) == independent_rows_greedy(c, k, tol)


def _random_cones(seed):
    """Seeded constraint matrices, generic and degenerate."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    n = int(rng.integers(k, 3 * k + 4))
    g = rng.normal(size=(n, k))
    g[:, 0] = np.abs(g[:, 0]) + 0.5
    yield g
    ties = rng.integers(-2, 3, size=(n, k)).astype(float)  # many equal products
    ties[:, 0] = rng.integers(1, 3, size=n)
    yield ties
    yield rng.integers(-1, 2, size=(n, k)).astype(float)  # often {0} or not full rank
    # Chains of near-duplicate rows, each a step of up to tol from the last.
    picks = ties[rng.integers(0, n, size=n)]
    steps = rng.uniform(-1e-9, 1e-9, size=(n, k))
    yield np.vstack([ties, picks + steps, picks + 2 * steps])
    # The cross-polytope |x|_1 <= 1 (each vertex on 2^(k-2) facets) and the
    # cube (each vertex on k - 1), homogenized, rows shuffled.
    p = k - 1
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=p)))
    cross = np.hstack([-signs, np.ones((len(signs), 1))])
    yield cross[rng.permutation(len(cross))]
    eye = np.hstack([np.eye(p), np.zeros((p, 1))])
    cube = np.vstack([eye, np.hstack([-np.eye(p), np.ones((p, 1))])])
    yield cube[rng.permutation(len(cube))]


@pytest.mark.parametrize("seed", range(30))
def test_combinatorial_adjacency_matches_the_rank_test_on_random_cones(seed):
    for constraints in _random_cones(seed):
        assert _same_rays(constraints)
        assert _same_start_rows(constraints)


def test_start_rows_fall_back_to_the_greedy_loop_when_the_first_rows_are_dependent():
    c = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert cones._independent_rows(c, 2, 1e-9) == [0, 2]


@pytest.mark.parametrize("seed", range(20))
def test_batched_extremality_check_matches_the_rank_loop(seed, monkeypatch):
    # Each cone's extreme rays, the normalized sums of some pairs of them
    # (on a face of dimension >= 2, so not extreme) and random directions
    # (tight nowhere); half the seeds stack a few rays per SVD block.
    rng = np.random.default_rng(seed)
    if seed % 2:
        monkeypatch.setattr(cones, "_SCREEN_CELLS", 64)
    checked = 0
    for constraints in _random_cones(seed):
        norms = np.linalg.norm(constraints, axis=1)
        c = constraints[norms > 1e-9] / norms[norms > 1e-9, None]  # as h_rep_extreme_rays
        k = c.shape[1]
        try:
            rays = h_rep_extreme_rays(c)
        except FormatError:
            continue
        if len(rays) < 2:
            continue
        i, j = rng.integers(0, len(rays), size=(2, len(rays)))
        sums = rays[i] + rays[j]
        sums = sums[np.linalg.norm(sums, axis=1) > 1e-6]
        noise = rng.normal(size=(3, k))
        cand = np.vstack([rays, sums, noise])
        cand = cand / np.linalg.norm(cand, axis=1)[:, None]
        cand = cand[rng.permutation(len(cand))]
        got = cones._extreme_only(cand, c, k, 1e-9)
        want = extreme_only_by_rank(cand, c, k, 1e-9)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert len(rays) <= len(got) < len(cand)
        checked += 1
    assert checked >= 2


def _fragment_cones():
    """Every constraint matrix that accessibilize and response_vertices hand
    to h_rep_extreme_rays for the ``cone_fragments``."""
    seen = []
    real = cones.h_rep_extreme_rays

    def spy(constraints, tol=1e-9):
        seen.append((np.array(constraints, dtype=float), tol))
        return real(constraints, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "h_rep_extreme_rays", spy)
        mp.setattr(embedding, "h_rep_extreme_rays", spy)
        mp.setattr(noncontextuality, "h_rep_extreme_rays", spy)
        for fragment in cone_fragments():
            af = accessibilize(fragment)
            _, effect_idents = accessible_identities(af)
            try:
                noncontextuality.response_vertices(
                    effect_idents, [(m.label, m.effects) for m in af.measurements]
                )
            except ResourceLimitError:  # outcome product over its limit (13-gon on)
                pass
    return seen


def test_combinatorial_adjacency_matches_the_rank_test_on_fragment_cones():
    seen = _fragment_cones()
    assert len(seen) == 117
    for constraints, tol in seen:
        assert _same_rays(constraints, tol)
        assert _same_start_rows(constraints, tol)


def _canonical(f, constraints, tol=1e-9):
    """f's rays canonicalized, or the FormatError's message."""
    try:
        return canonicalize_rays(f(constraints, tol), tol)
    except FormatError as exc:
        return str(exc)


def _close(a, b, atol=1e-12):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and np.allclose(a, b, rtol=0, atol=atol)


def test_closed_form_matches_the_double_description_on_fragment_cones():
    low = [(c, tol) for c, tol in _fragment_cones() if c.shape[1] <= 3]
    assert len(low) == 63
    for constraints, tol in low:
        got = h_rep_extreme_rays(constraints, tol)
        assert len(got) > 0
        assert _close(got, canonicalize_rays(got, tol))  # unit, merged, sorted
        assert _close(canonicalize_rays(got, tol), _canonical(_dd, constraints, tol))


@pytest.mark.parametrize("eps", [1e-12, 1e-10])
def test_closed_form_takes_nearly_antiparallel_rows_as_dependent(eps):
    # Rows 0 and 1 are independent only below the rank tolerance: their
    # cross product, (0, 0, 1), meets every row but is no extreme ray at tol.
    c = np.array([[1.0, 0.0, 0.0], [-1.0, eps, 0.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    got = h_rep_extreme_rays(c)
    assert len(got) == 2
    assert _close(got, _canonical(_dd, c), atol=eps)  # up to the rows' own gap


@pytest.mark.parametrize("seed", range(30))
def test_closed_form_matches_the_double_description_on_random_cones(seed):
    # Every family but the near-duplicate chains (the fourth), tested below.
    families = list(_random_cones(seed))
    if families[0].shape[1] > 3:
        return
    for constraints in families[:3] + families[4:]:
        assert _close(_canonical(h_rep_extreme_rays, constraints),
                      _canonical(_dd, constraints))


def test_closed_form_equals_the_double_description_on_rows_merged_at_ten_tol():
    # Chains of rows a tol-sized step apart: the closed form merges rows
    # within 10 tol, kept first in the exact lexicographic order of the
    # unit rows, before it enumerates, so it matches the double description
    # of the merged rows, not of the raw ones.  That merge can keep a row a
    # step off its integer original; on 8 of the k = 3 cones the double
    # description then picks its own point at a degenerate vertex, up to
    # 1.95e-9 away, and on one of them that swaps two rays in
    # ``sort_rows``' 10-decimal order.  Those 8 are matched as sets at 2e-9;
    # the other 98 agree to 1e-12 (95) or refuse alike (3).
    exact = degenerate = 0
    for constraints in _near_duplicate_chains():
        try:
            c = cones._unit_rows(constraints, 1e-9)
            merged = unique_rows(c[np.lexsort(c.T[::-1])], 1e-8)
        except FormatError:
            merged = constraints
        got = _canonical(h_rep_extreme_rays, constraints)
        want = _canonical(_dd, merged)
        if _close(got, want):
            exact += 1
            continue
        assert got.shape == want.shape and got.shape[1] == 3
        gap = np.max(np.abs(got[:, None] - want[None]), axis=2)
        assert np.all(gap.min(axis=0) <= 2e-9) and np.all(gap.min(axis=1) <= 2e-9)
        degenerate += 1
    assert (exact, degenerate) == (98, 8)


def _near_duplicate_chains():
    """The near-duplicate-chain family of the seeds whose cones have k <= 3."""
    chains = []
    for seed in range(300):
        families = list(_random_cones(seed))
        if families[0].shape[1] <= 3:
            chains.append(families[3])
    assert len(chains) == 106
    return chains


def test_closed_form_rays_on_near_duplicate_chains_do_not_depend_on_the_row_order():
    # The merge keeps the first row of each cluster in exact lexicographic
    # order, so a permutation of the rows gives the same rays bit for bit.
    rng = np.random.default_rng(0)
    checked = 0
    for constraints in _near_duplicate_chains():
        try:
            want = h_rep_extreme_rays(constraints)
        except FormatError:
            continue
        for _ in range(3):
            got = h_rep_extreme_rays(constraints[rng.permutation(len(constraints))])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        checked += 1
    assert checked > 50


def test_closed_form_rays_do_not_depend_on_the_row_order():
    rng = np.random.default_rng(0)
    low = [c for c, _ in _fragment_cones() if c.shape[1] <= 3]
    for seed in range(30):
        families = list(_random_cones(seed))
        low += [c for c in families[:3] + families[4:] if c.shape[1] <= 3]
    for constraints in low:
        try:
            want = h_rep_extreme_rays(constraints)
        except FormatError:
            continue
        got = h_rep_extreme_rays(constraints[rng.permutation(len(constraints))])
        assert _close(got, want)


def test_cones_over_the_size_rule_go_through_the_double_description(monkeypatch):
    seen = []
    real = cones.h_rep_extreme_rays
    with pytest.MonkeyPatch.context() as mp:
        for module in (cones, embedding):
            mp.setattr(module, "h_rep_extreme_rays",
                       lambda c, tol: seen.append((c, tol)) or real(c, tol))
        accessibilize(regular_polygon(24))  # the state cone's dual, the effects'
    want = [_canonical(h_rep_extreme_rays, c, tol) for c, tol in seen]
    described = []
    real_dd = cones._double_description
    monkeypatch.setattr(cones, "_double_description",
                        lambda *a: described.append(1) or real_dd(*a))
    monkeypatch.setattr(cones, "_SCREEN_CELLS", 64)
    for (c, tol), rays in zip(seen, want):
        assert _close(_canonical(h_rep_extreme_rays, c, tol), rays)
    assert len(described) == len(seen) == 2


def test_3d_cones_of_at_most_128_rows_skip_the_adjacency_screen(monkeypatch):
    low = [(c, tol) for c, tol in _fragment_cones() if c.shape[1] <= 3]
    screened = []
    real = cones._adjacent_pairs
    monkeypatch.setattr(cones, "_adjacent_pairs", lambda *a: screened.append(1) or real(*a))
    for constraints, tol in low:
        h_rep_extreme_rays(constraints, tol)
    t = 2.0 * np.pi * np.arange(129) / 129
    polygon = np.stack([np.cos(t), np.sin(t), np.ones_like(t)], axis=1)
    assert len(h_rep_extreme_rays(polygon[:128])) == 128
    assert screened == []
    assert len(h_rep_extreme_rays(polygon)) == 129  # C(129, 2) * 129 cells: over
    assert screened


def test_adjacency_screen_blocks_stay_within_their_cell_bound(monkeypatch):
    bound = 512
    monkeypatch.setattr(cones, "_SCREEN_CELLS", bound)
    cells = []
    real = cones._blocks

    def spy(n, width):
        got = real(n, width)
        assert sum(hi - lo for lo, hi in got) == n
        cells.extend((hi - lo) * width for lo, hi in got)
        return got

    monkeypatch.setattr(cones, "_blocks", spy)
    assert _same_rays(regular_polygon(24).state_matrix())
    for seed in range(5):
        for constraints in _random_cones(seed):
            assert _same_rays(constraints)
    assert len(cells) > 50 and max(cells) <= bound


def test_double_description_refuses_an_oversized_merge_before_allocating(monkeypatch):
    screened = []
    real = cones._adjacent_pairs
    monkeypatch.setattr(cones, "_adjacent_pairs", lambda *a: screened.append(1) or real(*a))
    monkeypatch.setattr(cones, "MAX_DD_CELLS", 0)
    with pytest.raises(ResourceLimitError, match="double description merge"):
        _dd(regular_polygon(8).state_matrix())
    assert screened == []


def test_double_description_refuses_an_oversized_ray_set(monkeypatch):
    # The 24-gon's last merge: its 23 rays over 23 rows fit in 24^2 - 1
    # cells, the closeness matrix of the 24 rays it makes does not.
    monkeypatch.setattr(cones, "MAX_DD_CELLS", 24**2 - 1)
    with pytest.raises(ResourceLimitError, match="double description merge into"):
        _dd(regular_polygon(24).state_matrix())


def test_cli_exits_3_on_an_oversized_double_description(tmp_path, monkeypatch, capsys):
    out = tmp_path / "frag.json"
    assert main(["scenario", "qubit-stabilizer", "-o", str(out)]) == 0
    monkeypatch.setattr(cones, "MAX_DD_CELLS", 8)
    assert main(["embed", str(out), "-o", str(tmp_path / "embed.json")]) == 3
    assert "double description" in capsys.readouterr().err
