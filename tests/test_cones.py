import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from classicality.cones import canonicalize_rays, dual_cone, h_rep_extreme_rays
from classicality.errors import FormatError, ResourceLimitError


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
