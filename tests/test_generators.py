"""Seeded generation: determinism and failure modes."""

import pytest

from borsuk.bodies import validate_body
from borsuk.errors import GenerationFailed
from borsuk.generators import (
    cross_polytope_body,
    cube_body,
    cube_vertices,
    gen_random_body,
    gen_random_points,
    gen_random_polytope,
    parallelogram_body,
)
from borsuk.metric import gauge


def test_same_seed_same_body():
    a = gen_random_body(1, 2, 4)
    b = gen_random_body(1, 2, 4)
    assert a == b
    assert validate_body(a) is a


def test_different_seeds_differ():
    assert gen_random_body(1, 2, 4) != gen_random_body(2, 2, 4)


def test_single_pair_in_plane_fails():
    with pytest.raises(GenerationFailed):
        gen_random_body(5, 2, 1)


def test_random_polytope_is_full_dimensional():
    from borsuk.bodies import is_full_dimensional

    for seed in range(5):
        K = gen_random_polytope(seed, 3, 6)
        assert is_full_dimensional(K)
        assert K.pruned


def test_random_points_distinct_and_reproducible():
    S1 = gen_random_points(9, 2, 12)
    S2 = gen_random_points(9, 2, 12)
    assert S1.points == S2.points
    assert len(set(S1.points)) == 12


def test_cube_fixtures():
    C = cube_body(3)
    assert gauge(C, (1, 2, -3)) == 3  # max-coordinate norm
    V = cube_vertices(3)
    assert len(V.points) == 8
    Cv = cube_body(2, facet_form=False)
    assert Cv.vertices is not None and len(Cv.vertices) == 4


def test_cross_polytope_fixture():
    C = cross_polytope_body(3)
    assert gauge(C, (1, 1, 1)) == 3  # sum-of-absolute-values norm


def test_parallelogram_fixture():
    C = parallelogram_body()
    assert len(C.vertices) == 4
