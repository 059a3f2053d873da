"""Seeded generation: determinism and failure modes.

The draw writes out ``randint``'s rejection rule on ``getrandbits``; it
is compared with ``randint`` itself over 2400 seeds, values and final rng
state, at widths of 1 and next to powers of two. Bounds that ``randint``
would refuse, or that would make the written-out loop never end, are
refused before any draw.
"""

import hashlib
import random
from math import lcm
from types import SimpleNamespace

import pytest

from borsuk import generators, jsonio, verify
from borsuk.bodies import lift_set, validate_body
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
from borsuk.linalg import over_common_denominator
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


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts the bits asked of it."""

    draws = 0

    def getrandbits(self, k):
        _CountingRandom.draws += 1
        return super().getrandbits(k)


BAD_BOUNDS = [
    (-1, 16),  # an empty numerator range
    (16, 0),  # an empty denominator range: getrandbits(0) is 0, and 0 >= 0
    (16, -3),
    (1.0, 16),  # not an int
    (16, 2.0),
    (True, 16),  # a bool is an int, but no bound
    (16, True),
    ("3", 16),
]


@pytest.mark.parametrize("gen", [gen_random_body, gen_random_polytope, gen_random_points])
@pytest.mark.parametrize("bounds", BAD_BOUNDS)
def test_bad_bounds_are_refused_before_any_draw(gen, bounds, monkeypatch):
    monkeypatch.setattr(generators, "random", SimpleNamespace(Random=_CountingRandom))
    _CountingRandom.draws = 0
    name = "max_numerator" if bounds[1] == 16 else "max_denominator"
    with pytest.raises(InvalidInput, match=f"^{name} must be an int >= [01], not "):
        gen(7, 2, 4, *bounds)
    assert _CountingRandom.draws == 0
    # the counting rng draws when the bounds are good
    gen(7, 2, 4, 3, 2)
    assert _CountingRandom.draws > 0


# (max_numerator, max_denominator): widths 2 * max_numerator + 1 and
# max_denominator of 1, where each call still draws a bit, of 31, 32 and 33,
# next to a power of two, and wider
DRAW_BOUNDS = ((0, 1), (0, 32), (15, 1), (16, 31), (15, 32), (16, 33), (0, 33), (15, 31), (1000, 97), (5, 500), (2**40, 3))


def _randint_draw(rng, count, dim, max_numerator, max_denominator):
    """``_draw`` through ``randint``: each numerator, then its denominator."""
    drawn = [(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator)) for _ in range(count * dim)]
    m = lcm(*{d for _, d in drawn})
    return m, [tuple(n * (m // d) for n, d in drawn[k : k + dim]) for k in range(0, len(drawn), dim)]


def test_draw_matches_randint_values_and_final_state():
    for seed in range(2400):
        bounds = DRAW_BOUNDS[seed % len(DRAW_BOUNDS)]
        count, dim = 1 + seed % 5, 1 + seed % 3
        rng, reference = random.Random(seed), random.Random(seed)
        assert generators._draw(rng, count, dim, *bounds) == _randint_draw(reference, count, dim, *bounds), (seed, bounds)
        assert rng.getstate() == reference.getstate(), (seed, bounds)


def test_handed_on_scaled_forms_are_the_least_common_denominator_rows():
    """Random point sets, planar verify instances and their lifts are built
    from their rows alone, with no ``Fraction`` made until the points are
    read: the rows equal the scaled form made from those points."""
    sets = []
    for seed in range(120):
        N, D = BOUNDS[seed % len(BOUNDS)]
        sets.append(_outcome(gen_random_points, seed, 1 + seed % 5, 3 + seed % 7, N, D))
    for seed in (0, 11):
        sets += [verify._planar_instance(seed * 1_000_003 + i, i)[1] for i in range(36)]
    sets = [S for S in sets if S is not GenerationFailed]
    sets += [lift_set(S) for S in sets]
    for S in sets:
        assert "points" not in vars(S)
        assert S.scaled == over_common_denominator(S.points), S
    # a drawn 2/4 is 1/2: 46 of the random sets were drawn over a finer
    # scale than their least common denominator
    assert len(sets) >= 300


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
