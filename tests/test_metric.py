"""Gauge norms, distances, diameters, diameter graphs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borsuk import lp
from borsuk.linalg import vdot
from borsuk.bodies import (
    SymmetricBody,
    VPolytope,
    body_from_facets,
    body_from_vertices,
    contains_point,
    difference_body,
    point_set,
    vpolytope,
)
from borsuk.errors import DegenerateBody, DimensionMismatch, ZeroDiameter
from borsuk.generators import cross_polytope_body, cube_body, cube_vertices, gen_random_body
from borsuk.metric import (
    _pairwise_max,
    body_contains,
    diameter_graph,
    distance,
    gauge,
    normalize_to_unit_diameter,
    polytope_diameter,
    set_diameter,
)
from oracles import gauge_by_support_enumeration, memo_pairwise_max, pairwise_max_by_fractions

F = Fraction

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)


def test_gauge_square_is_max_norm(square_v, square_h):
    for C in (square_v, square_h):
        assert gauge(C, (F(2), F(0))) == 2
        assert gauge(C, (F(1), F(1))) == 1
        assert gauge(C, (F(-3), F(2))) == 3


def test_gauge_cross_is_sum_norm(cross_v, cross_h):
    for C in (cross_v, cross_h):
        assert gauge(C, (F(1), F(1))) == 2
        assert gauge(C, (F(1, 2), F(-1, 3))) == F(5, 6)


def test_gauge_at_origin_is_zero(square_v, cross_v, hexagon_v):
    for C in (square_v, cross_v, hexagon_v):
        assert gauge(C, (F(0), F(0))) == 0


def test_gauge_hexagon_value(hexagon_v, hexagon_h):
    # frozen from the support-enumeration oracle below
    assert gauge(hexagon_v, (F(1), F(1))) == 2
    assert gauge(hexagon_h, (F(1), F(1))) == 2
    assert gauge_by_support_enumeration(hexagon_v.vertices, (F(1), F(1))) == 2


def test_gauge_matches_support_enumeration_on_random_bodies():
    rng = random.Random(41)
    for seed in range(6):
        C = gen_random_body(seed, 2, 4, max_numerator=4, max_denominator=3)
        for _ in range(8):
            x = (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3)))
            assert gauge(C, x) == gauge_by_support_enumeration(C.vertices, x)


def test_gauge_matches_support_enumeration_in_three_dimensions():
    rng = random.Random(43)
    for seed in range(3):
        C = gen_random_body(seed, 3, 5, max_numerator=3, max_denominator=2)
        for _ in range(5):
            x = tuple(F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
            assert gauge(C, x) == gauge_by_support_enumeration(C.vertices, x)


def test_gauge_dimension_mismatch(square_v):
    with pytest.raises(DimensionMismatch):
        gauge(square_v, (F(1),))


def test_distance_properties(square_v):
    rng = random.Random(5)
    for _ in range(100):
        x = (F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
        y = (F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
        assert distance(square_v, x, y) == distance(square_v, y, x)
    assert distance(square_v, (F(1), F(2)), (F(1), F(2))) == 0
    assert distance(square_v, (F(0), F(0)), (F(3), F(0))) == 3


def test_set_diameter_singleton(square_v):
    assert set_diameter(square_v, point_set([(4, 5)])) == (0, [])


def test_set_diameter_square_vertices(square_v):
    S = point_set([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    diam, witnesses = set_diameter(square_v, S)
    assert diam == 2
    assert len(witnesses) == 6  # every pair attains the max-norm diameter


def test_set_diameter_triangle_under_its_difference_body(triangle, hexagon_v):
    S = point_set(triangle.vertices)
    diam, witnesses = set_diameter(hexagon_v, S)
    assert diam == 1
    assert len(witnesses) == 3


def test_polytope_diameter_of_unit_ball_is_two(square_v, hexagon_v, cross_v):
    for C in (square_v, hexagon_v, cross_v):
        K = VPolytope(2, C.vertices)
        assert polytope_diameter(C, K) == 2


def test_polytope_diameter_of_point_is_zero(square_v):
    assert polytope_diameter(square_v, vpolytope([(1, 1)])) == 0


def test_normalized_triangle_difference_diameter(triangle, hexagon_v):
    # with the triangle's own difference norm (diameter exactly 1), the
    # difference body has diameter exactly 2
    D = difference_body(triangle)
    assert polytope_diameter(hexagon_v, VPolytope(2, D.vertices)) == 2


def test_polytope_diameter_matches_dense_sampling(hexagon_v, triangle):
    # vertex-pair reduction versus a dense rational sample of the body
    verts = triangle.vertices
    samples = []
    steps = [F(i, 4) for i in range(5)]
    for a in steps:
        for b in steps:
            if a + b <= 1:
                c = 1 - a - b
                samples.append(
                    tuple(a * v0 + b * v1 + c * v2 for v0, v1, v2 in zip(*verts))
                )
    best = max(
        distance(hexagon_v, p, q) for i, p in enumerate(samples) for q in samples[i + 1 :]
    )
    assert best == polytope_diameter(hexagon_v, triangle)


def test_diameter_graph_square_is_complete(square_v):
    S = point_set([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    G = diameter_graph(square_v, S)
    assert G.diameter == 2
    assert len(G.edges) == 6


def test_diameter_graph_cube_is_complete():
    C = cube_body(3)
    S = cube_vertices(3)
    G = diameter_graph(C, S)
    assert G.diameter == 2
    assert len(G.edges) == 8 * 7 // 2


def test_diameter_graph_collinear_points(square_v):
    S = point_set([(0, 0), (1, 0), (2, 0)])
    G = diameter_graph(square_v, S)
    assert G.edges == ((0, 2),)


def test_normalize_to_unit_diameter(square_v):
    S = point_set([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    scaled, scale = normalize_to_unit_diameter(square_v, S)
    assert scale == F(1, 2)
    assert set_diameter(square_v, scaled)[0] == 1


def test_normalize_unit_input_unchanged(square_v):
    S = point_set([(0, 0), (1, 0)])
    scaled, scale = normalize_to_unit_diameter(square_v, S)
    assert scale == 1
    assert scaled.points == S.points


def test_normalize_singleton_raises(square_v):
    with pytest.raises(ZeroDiameter):
        normalize_to_unit_diameter(square_v, point_set([(0, 0)]))


@given(x=st.tuples(rationals, rationals), t=rationals)
@settings(max_examples=60, deadline=None)
def test_gauge_homogeneous_and_symmetric(x, t):
    C = _hexagon()
    gx = gauge(C, x)
    assert gauge(C, tuple(t * c for c in x)) == abs(t) * gx
    assert gauge(C, tuple(-c for c in x)) == gx
    assert (gx == 0) == (x == (0, 0))


@given(x=st.tuples(rationals, rationals), y=st.tuples(rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_gauge_triangle_inequality(x, y):
    C = _hexagon()
    s = tuple(a + b for a, b in zip(x, y))
    assert gauge(C, s) <= gauge(C, x) + gauge(C, y)


def _hexagon():
    from borsuk.bodies import body_from_vertices

    return body_from_vertices([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])


def test_rep_agreement(square_v, square_h, cross_v, cross_h, hexagon_v, hexagon_h):
    rng = random.Random(17)
    pairs = [(square_v, square_h), (cross_v, cross_h), (hexagon_v, hexagon_h)]
    for _ in range(120):
        x = (F(rng.randint(-16, 16), rng.randint(1, 8)), F(rng.randint(-16, 16), rng.randint(1, 8)))
        for v_form, h_form in pairs:
            assert gauge(v_form, x) == gauge(h_form, x)


def test_gauge_vs_direct_membership(hexagon_v, hexagon_h):
    rng = random.Random(19)
    for _ in range(60):
        x = (F(rng.randint(-4, 4), rng.randint(1, 4)), F(rng.randint(-4, 4), rng.randint(1, 4)))
        for C in (hexagon_v, hexagon_h):
            assert (gauge(C, x) <= 1) == body_contains(C, x)


def test_gauge_monotone_under_inclusion():
    # if D(K) is contained in C then the D(K)-gauge dominates the C-gauge
    rng = random.Random(29)
    checked = 0
    for seed in range(12):
        C = gen_random_body(seed, 2, 4, max_numerator=5, max_denominator=4)
        try:
            K = vpolytope([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)])
            diam = polytope_diameter(C, K)
            if diam == 0:
                continue
            scale = 1 / diam
            K = VPolytope(2, tuple(tuple(scale * c for c in v) for v in K.vertices))
            D = difference_body(K)
        except DegenerateBody:
            continue
        assert all(gauge(C, w) <= 1 for w in D.vertices)  # containment
        for _ in range(10):
            x = (F(rng.randint(-8, 8), rng.randint(1, 4)), F(rng.randint(-8, 8), rng.randint(1, 4)))
            assert gauge(D, x) >= gauge(C, x)
        checked += 1
    assert checked >= 4


def _mixed_points(rng, dim, n):
    # few distinct coordinates, so many pairs share a difference; the
    # denominators mix thirds, sevenths and tenths, signs mixed
    coords = [F(rng.randint(-9, 9), rng.choice((1, 3, 7, 10))) for _ in range(4)]
    points = {tuple(rng.choice(coords) for _ in range(dim)) for _ in range(n)}
    return sorted(points)


def test_set_diameter_matches_fraction_reference(hexagon_v, hexagon_h):
    # the memo keyed on sign-canonical differences must give every pair
    # the gauge of its own difference
    rng = random.Random(17)
    bodies = [
        body_from_vertices([(F(3, 7),), (F(-3, 7),)]),
        body_from_facets([((F(2, 3),), F(5))]),
        hexagon_v,
        hexagon_h,
        body_from_facets([((F(1, 3), F(-2, 7)), F(1, 10)), ((0, 1), 2)]),
        cube_body(3),
        cube_body(3, facet_form=False),
        cross_polytope_body(3),
        *(gen_random_body(seed, 2, 4, max_numerator=5, max_denominator=7) for seed in range(3)),
        *(gen_random_body(seed, 3, 5, max_numerator=4, max_denominator=3) for seed in range(2)),
    ]
    compared = 0
    for C in bodies:
        for _ in range(6):
            S = point_set(_mixed_points(rng, C.dim, rng.randint(2, 12)))
            if len(S.points) < 2:
                continue
            reference = pairwise_max_by_fractions(C, S.points)
            assert set_diameter(C, S) == reference
            assert polytope_diameter(C, VPolytope(C.dim, S.points)) == reference[0]
            compared += 1
    assert compared >= 70


def _lp_gauge(C, x):
    return lp.solve_combination(C.vertices, x, cost=[F(1)] * len(C.vertices)).value


def test_hull_gauge_and_membership_match_lps():
    # random symmetric polygons, and vertex lists that keep inner points
    # and boundary midpoints the hull drops
    rng = random.Random(20261018)
    bodies = [
        gen_random_body(seed, 2, 3 + seed % 4, max_numerator=9, max_denominator=5)
        for seed in range(12)
    ]
    bodies.append(body_from_vertices(
        [(1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (0, 0)]
    ))
    bodies.append(body_from_vertices([
        (F(1, 3), F(2, 7)), (F(-1, 3), F(-2, 7)), (0, F(1, 5)), (0, F(-1, 5)),
        (F(1, 6), F(1, 7)), (F(-1, 6), F(-1, 7)),
    ]))
    compared = {"vertex": 0, "edge": 0, "random": 0}
    for C in bodies:
        hull = C.hull.vertices
        probes = [("vertex", v, F(1)) for v in hull]
        for p, q in zip(hull, hull[1:] + hull[:1]):
            for t in (F(1, 3), F(1, 2), F(rng.randint(1, 9), 10)):
                edge_point = tuple(a + t * (b - a) for a, b in zip(p, q))
                r = F(rng.randint(1, 9), rng.randint(1, 5))
                probes.append(("edge", edge_point, F(1)))
                probes.append(("edge", tuple(r * c for c in edge_point), r))
        for _ in range(12):
            x = (F(rng.randint(-12, 12), rng.randint(1, 6)), F(rng.randint(-12, 12), rng.randint(1, 6)))
            probes.append(("random", x, None))
        probes.append(("random", (F(0), F(0)), F(0)))
        for kind, x, expected in probes:
            g = _lp_gauge(C, x)
            assert gauge(C, x) == g and expected in (None, g)
            assert body_contains(C, x) == contains_point(C.vertices, x) == (g <= 1)
            compared[kind] += 1
    assert min(compared.values()) >= 60


def test_body_contains_answers_for_an_unvalidated_planar_body():
    # a segment is no body, but membership in it still has an answer,
    # the same one the LP gives
    segment = SymmetricBody(2, vertices=((F(-1), F(0)), (F(1), F(0))))
    for x, inside in [((0, 0), True), ((F(1, 2), 0), True), ((1, 0), True),
                      ((F(3, 2), 0), False), ((0, F(1, 9)), False)]:
        x = tuple(F(c) for c in x)
        assert body_contains(segment, x) == contains_point(segment.vertices, x) == inside


PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, p))]


def _rational(rng, top=9):
    return F(rng.randint(-top, top), rng.randint(1, 6))


def _facet_bodies(rng):
    """Facet bodies in 1D-4D: an axis facet per coordinate, so the normals
    span, and random facets whose coefficients and offsets have mixed
    denominators."""
    def offset():
        return F(rng.randint(1, 9), rng.randint(1, 7))

    bodies = [body_from_facets([((F(2, 3),), F(5, 7))]), cube_body(3), cube_body(4)]
    for dim in (1, 2, 3, 4):
        for _ in range(2):
            facets = [(tuple(F(int(j == k)) for j in range(dim)), offset()) for k in range(dim)]
            for _ in range(rng.randint(0, 3)):
                facets.append((tuple(_rational(rng) for _ in range(dim)), offset()))
            bodies.append(body_from_facets(facets))
    return bodies


def _boundary_points(C, rng, n):
    """n random rays scaled onto the boundary of C, with their negations:
    every such pair is at distance 2, the diameter of C, so they tie."""
    points = []
    for _ in range(n):
        x = tuple(_rational(rng) or F(1) for _ in range(C.dim))
        b = tuple(c / gauge(C, x) for c in x)
        points += [b, tuple(-c for c in b)]
    return points


def _point_sets(C, rng):
    """Lattice sets, sets whose coordinates have distinct prime
    denominators, sets holding the body's vertices or antipodal boundary
    points (many tied witnesses), two-point sets and collinear sets."""
    d = C.dim
    lattice = {tuple(F(rng.randint(-3, 3)) for _ in range(d)) for _ in range(rng.randint(2, 12))}
    primes = iter(rng.sample(PRIMES, 12 * d))
    coprime = [tuple(F(rng.randint(-30, 30), next(primes)) for _ in range(d)) for _ in range(12)]
    tied = list(C.vertices) if C.vertices is not None else _boundary_points(C, rng, 4)
    tied += [tuple(_rational(rng, 2) for _ in range(d)) for _ in range(3)]
    two = [tuple(_rational(rng) for _ in range(d)) for _ in range(2)]
    base, step = two[0], tuple(_rational(rng) or F(1) for _ in range(d))
    ts = {_rational(rng) for _ in range(7)}
    collinear = [tuple(b + t * s for b, s in zip(base, step)) for t in ts]
    for points in (lattice, coprime, tied, two, collinear):
        points = sorted(set(points))
        if len(points) >= 2:
            yield point_set(points)


def test_integer_pass_matches_memo_reference(hexagon_v, hexagon_h):
    # the same diameter and the same witnesses, in the same order, as one
    # memoized gauge per pair; planar vertex bodies and facet bodies take
    # the integer pass, the other vertex bodies the LP path
    rng = random.Random(20261019)
    bodies = [
        hexagon_v,
        hexagon_h,
        body_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1), ("1/2", "0"), ("-1/2", "0"), (1, 0), (-1, 0)]),
        *(gen_random_body(seed, 2, 3 + seed % 4, max_numerator=9, max_denominator=7) for seed in range(6)),
        *_facet_bodies(rng),
        body_from_vertices([(F(3, 7),), (F(-3, 7),)]),
        cube_body(3, facet_form=False),
        cross_polytope_body(3),
    ]
    assert sum(C.normals is not None for C in bodies) >= len(bodies) - 3
    most_ties = compared = 0
    for C in bodies:
        for S in _point_sets(C, rng):
            reference = memo_pairwise_max(C, S.points)
            assert set_diameter(C, S) == reference
            assert polytope_diameter(C, VPolytope(C.dim, S.points)) == reference[0]
            most_ties = max(most_ties, len(reference[1]))
            compared += 1
    assert compared >= 100 and most_ties >= 6


def test_integer_pass_gives_no_witness_at_zero_distance(hexagon_h):
    # a point listed twice is at distance 0 from itself, which attains no
    # diameter
    bodies = [hexagon_h, gen_random_body(3, 2, 4, max_numerator=5, max_denominator=3), cube_body(3)]
    for C in bodies:
        p = tuple(F(k, 3) for k in range(C.dim))
        q = tuple(F(1, 2) for _ in range(C.dim))
        assert _pairwise_max(C, [p, p]) == memo_pairwise_max(C, [p, p]) == (0, [])
        assert _pairwise_max(C, [p, p, q]) == memo_pairwise_max(C, [p, p, q])


def test_facet_gauge_through_normals_matches_ratios():
    rng = random.Random(20261020)
    for C in _facet_bodies(rng):
        L, normals = C.normals
        assert len(normals) == 2 * len(C.facets) and L > 0
        for _ in range(20):
            x = tuple(_rational(rng, 12) for _ in range(C.dim))
            assert gauge(C, x) == max(abs(vdot(a, x)) / b for a, b in C.facets)
        assert gauge(C, (F(0),) * C.dim) == 0


def test_normals_of_each_body_kind(hexagon_v):
    assert cube_body(4, facet_form=False).normals is None
    L, normals = cube_body(3, facet_form=False).normals
    assert L == 1 and sorted(normals) == sorted(
        tuple(s * (k == i) for k in range(3)) for i in range(3) for s in (1, -1)
    )
    L, normals = body_from_vertices([(2,), (-2,)]).normals
    assert sorted(F(n, L) for (n,) in normals) == [F(-1, 2), F(1, 2)]
    L, normals = hexagon_v.normals
    assert sorted(normals) == sorted((-a, -b) for a, b in normals) and len(normals) == 6
    for b in (F(0), F(-1)):
        unchecked = SymmetricBody(2, facets=(((F(1), F(0)), F(1)), ((F(0), F(1)), b)))
        with pytest.raises(DegenerateBody):
            unchecked.normals
