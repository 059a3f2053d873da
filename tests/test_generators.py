"""Seeded generation: determinism and failure modes."""

import hashlib

import pytest

from borsuk import jsonio, verify
from borsuk.bodies import validate_body
from borsuk.errors import GenerationFailed, InvalidInput
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
from borsuk.verify import run_verify_suite
from oracles import (
    fraction_gen_random_body,
    fraction_gen_random_points,
    fraction_gen_random_polytope,
    list_scan_planar_instance,
)


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


@pytest.mark.parametrize("gen", [gen_random_body, gen_random_polytope, gen_random_points])
def test_a_dimension_below_one_is_refused(gen):
    for dim in (0, -1):
        with pytest.raises(InvalidInput, match="dimension must be >= 1"):
            gen(0, dim, 1)


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


# (max_numerator, max_denominator): small and large numerators and
# denominators, and bounds so tight that draws repeat and retries run
BOUNDS = ((16, 16), (6, 4), (8, 4), (1, 1), (1000, 97), (5, 500))


def _outcome(gen, *args):
    try:
        return gen(*args)
    except GenerationFailed:
        return GenerationFailed


def _hull_planes(P):
    return None if P.hull is None else P.hull.planes


@pytest.mark.parametrize("part", range(3))
def test_generators_match_the_fraction_reference(part):
    """Each generator, drawing points into integer rows, returns what the
    same draws give as ``Fraction`` tuples: equal instances with equal
    scaled forms and hull planes, and the same failures, over seeds 0 to
    299 in dimensions 1 to 5 (from 4, pruning takes the LP path)."""
    pairs = (
        (gen_random_body, fraction_gen_random_body, lambda s, d: d + s % 3),
        (gen_random_polytope, fraction_gen_random_polytope, lambda s, d: d + 1 + s % 4),
        (gen_random_points, fraction_gen_random_points, lambda s, d: 2 + s % 9),
    )
    failed = 0
    for seed in range(100 * part, 100 * part + 100):
        dim = 1 + seed % 5
        bounds = BOUNDS[seed % len(BOUNDS)]
        for new, old, size in pairs:
            args = (seed, dim, size(seed, dim), *bounds)
            got, want = _outcome(new, *args), _outcome(old, *args)
            assert got == want, args
            if got is GenerationFailed:
                failed += 1
                continue
            assert got.scaled == want.scaled, args
            if new is not gen_random_points:
                assert _hull_planes(got) == _hull_planes(want), args
    assert failed > 0


def test_generator_failures_and_repeated_draws_match_the_fraction_reference():
    cases = [
        (gen_random_body, fraction_gen_random_body, (5, 2, 1)),
        # four points in space span at most a plane: 64 retries, by LPs
        (gen_random_body, fraction_gen_random_body, (3, 3, 2, 6, 4)),
        # only -1, 0 and 1 can be drawn, so five distinct points cannot
        (gen_random_points, fraction_gen_random_points, (0, 1, 5, 1, 1)),
        (gen_random_polytope, fraction_gen_random_polytope, (0, 4, 4, 1, 1)),
    ]
    for new, old, args in cases:
        with pytest.raises(GenerationFailed):
            old(*args)
        with pytest.raises(GenerationFailed):
            new(*args)
    # -1, -1/2, 0, 1/2 and 1: draws repeat, and the scale changes between
    # the batches drawn again
    for seed in range(40):
        args = (seed, 1, 5, 1, 2)
        got, want = gen_random_points(*args), fraction_gen_random_points(*args)
        assert got == want and got.scaled == want.scaled
    # three points of -1, 0 and 1 in the plane: seeds 1 and 5 draw a
    # flat or repeated triple first and retry
    for seed in range(8):
        got, want = gen_random_polytope(seed, 2, 3, 1, 1), fraction_gen_random_polytope(seed, 2, 3, 1, 1)
        assert got == want and got.scaled == want.scaled


def test_planar_instances_match_the_list_scan_reference(monkeypatch):
    """The planar verify instance, drawn points checked against the body's
    vertices as integer rows, is the list scan's over 36 instances, which
    take every branch of ``i % 3``, ``i % 4`` and ``i % 9``; and the
    grunbaum_plane report is byte-identical."""
    for seed in (0, 11):
        for i in range(36):
            s = seed * 1_000_003 + i
            assert verify._planar_instance(s, i) == list_scan_planar_instance(s, i), (s, i)
    report = jsonio.dumps(run_verify_suite("grunbaum_plane", 36, 11).to_obj())
    monkeypatch.setattr(verify, "_planar_instance", list_scan_planar_instance)
    assert jsonio.dumps(run_verify_suite("grunbaum_plane", 36, 11).to_obj()) == report


def test_generator_outputs_keep_their_digest():
    """The rng stream and the order of every generator's output are fixed:
    the sha256 of the ``repr`` of each output over a grid of seeds,
    dimensions 1 to 5 and bounds, recorded when every point was drawn as
    a ``Fraction`` tuple."""
    digest = hashlib.sha256()
    for seed in range(120):
        N, D = BOUNDS[seed % len(BOUNDS)]
        dim = 1 + seed % 5
        for gen, n in (
            (gen_random_body, dim + 1 + seed % 3),
            (gen_random_polytope, dim + 2 + seed % 4),
            (gen_random_points, 3 + seed % 7),
        ):
            got = _outcome(gen, seed, dim, n, N, D)
            line = f"GenerationFailed {gen.__name__} {seed}" if got is GenerationFailed else repr(got)
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "42622e889179e6215e926b4cfcf6068dd43883606a599a705ae9477de53c6cb5"
