"""Gauge norms, distances, diameters, diameter graphs."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borsuk import lp, metric
from borsuk.linalg import canonical_sign, matrix_rank, over_common_denominator, rational_points
from borsuk.bodies import (
    SymmetricBody,
    VPolytope,
    body_from_facets,
    body_from_vertices,
    contains_point,
    difference_body,
    lift_body,
    point_set,
    prune_redundant,
    vpolytope,
)
from borsuk.errors import DegenerateBody, DimensionMismatch, InvalidInput
from borsuk.generators import (
    cross_polytope_body,
    cube_body,
    cube_vertices,
    gen_random_body,
    gen_random_points,
    gen_random_polytope,
)
from borsuk.metric import (
    _extremes,
    _attaining,
    _gauges,
    body_contains,
    diameter_graph,
    distance,
    gauge,
    polytope_diameter,
    set_diameter,
)
from oracles import (
    counter_clockwise,
    gauge_by_support_enumeration,
    lp_path,
    memo_pairwise_max,
    pairwise_max_by_fractions,
)

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


def test_gauge_lp_that_fails_raises_invalid_input(monkeypatch):
    # a segment in 4D, whose gauge LP would have no solution off its line,
    # is refused as it is made; an LP that still ends other than optimal
    # is InvalidInput, not a traceback
    e1 = (F(1), F(0), F(0), F(0))
    with pytest.raises(DegenerateBody, match="^origin is not interior"):
        SymmetricBody(4, vertices=(e1, tuple(-c for c in e1)))
    C = cross_polytope_body(4)
    assert C.normals is None
    monkeypatch.setattr(lp, "solve_combination", lambda *args, **kwargs: lp.LPResult(lp.INFEASIBLE))
    with pytest.raises(InvalidInput, match=r"^gauge LP failed \(infeasible\)$"):
        gauge(C, (F(0), F(1), F(0), F(0)))


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


def _by_facets(C, x):
    return all(abs(sum(u * v for u, v in zip(a, x))) <= b for a, b in C.facets)


def _by_lp(C, x):
    return contains_point(C.vertices, x)


def _random_facet_body(rng, dim):
    # dim random facets that span, and three redundant ones: the sum of two
    # facets (tight where both are), a looser copy of one, and one facet
    # again at twice the scale
    while True:
        facets = [(tuple(_rational(rng, 5) for _ in range(dim)), F(rng.randint(1, 9), rng.randint(1, 4)))
                  for _ in range(dim)]
        if matrix_rank([a for a, _ in facets]) == dim:
            break
    (a1, b1), (a2, b2) = facets[0], facets[-1]
    facets += [
        (tuple(x + y for x, y in zip(a1, a2)), b1 + b2),
        (a2, b2 + F(1, 3)),
        (tuple(2 * x for x in a1), 2 * b1),
    ]
    return body_from_facets(rng.sample(facets, len(facets)))


def test_gauge_vs_direct_membership(hexagon_v, hexagon_h):
    # every body form: facet bodies in 1D-4D against the facets
    # themselves, and vertex bodies, lifts and a body with no normals
    # against the membership LP; each probe is on the boundary, just
    # inside or just outside it, or anywhere
    rng = random.Random(19)
    by_facets = [hexagon_h, *(cube_body(d) for d in range(1, 5)),
                 *(_random_facet_body(rng, d) for d in (1, 2, 2, 3, 3, 4, 4))]
    lifted = lift_body(vpolytope([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, F(3, 2)), (1, 1, 1)]))
    by_lp = [hexagon_v, cube_body(4, facet_form=False), lifted, cross_polytope_body(4)]
    assert lifted.normals is not None and cross_polytope_body(4).normals is None
    compared = 0
    for C, reference in [(C, _by_facets) for C in by_facets] + [(C, _by_lp) for C in by_lp]:
        for _ in range(8):
            x = tuple(_rational(rng, 4) for _ in range(C.dim))
            g = gauge(C, x)
            probes = [x] if g == 0 else [x, *(tuple(c * t / g for c in x) for t in (1, F(7, 8), F(8, 7)))]
            for y in probes:
                assert body_contains(C, y) == (gauge(C, y) <= 1) == reference(C, y)
                compared += 1
    assert compared >= 400


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
        # 4D bodies, the cross-polytope and the random one with no normals:
        # their gauge LPs take integer differences over the set's common
        # denominator
        cross_polytope_body(4),
        cube_body(4, facet_form=False),
        gen_random_body(5, 4, 5, max_numerator=4, max_denominator=3),
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
            # a vertex listed twice adds only a pair at distance 0
            assert polytope_diameter(C, VPolytope(C.dim, S.points + S.points[:1])) == reference[0]
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
        hull = counter_clockwise(prune_redundant(VPolytope(2, C.vertices)).vertices)
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


def test_body_contains_rejects_an_unvalidated_planar_body():
    # a segment is no body: it is refused as it is made, so neither
    # membership nor the gauge can be asked of it
    with pytest.raises(DegenerateBody, match="^origin is not interior"):
        SymmetricBody(2, vertices=((F(-1), F(0)), (F(1), F(0))))


def test_a_facet_body_whose_normals_do_not_span_is_refused():
    # a strip is unbounded: its normals would give a seminorm, with gauge
    # 0 at (0, 100), so it is refused as it is made, as a segment is
    strips = [
        (2, (((1, 0), 1),)),
        (3, (((F(1), F(0), F(0)), F(1)), ((F(0), F(1), F(-1)), F(2, 3)))),
    ]
    for dim, facets in strips:
        with pytest.raises(DegenerateBody, match="do not span"):
            SymmetricBody(dim, facets=facets)
    # a facet body whose normals span keeps its gauge
    C = SymmetricBody(2, facets=(((1, 0), 1), ((1, 1), 2)))
    assert gauge(C, (F(0), F(100))) == 50 and not body_contains(C, (F(0), F(100)))


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
    # the integer pass reads one column of each pair N, -N
    for C in bodies:
        if C.normals is not None:
            assert {tuple(-c for c in n) for n in C.normals[1]} == set(C.normals[1])
    most_ties = compared = 0
    for C in bodies:
        for S in _point_sets(C, rng):
            reference = memo_pairwise_max(C, S.points)
            assert set_diameter(C, S) == reference
            assert polytope_diameter(C, VPolytope(C.dim, S.points)) == reference[0]
            most_ties = max(most_ties, len(reference[1]))
            compared += 1
    assert compared >= 100 and most_ties >= 6

    # sets with many ties: the {0, 1/2, 1}^3 grid, whose 193 diameter
    # pairs lie across the columns of largest spread of three axes (243
    # counted once per axis), and the cube's vertices, all at one
    # distance, under the cube in both forms; a diagonal, whose
    # projections are equal across columns; and 200 seeded planar points
    grid = point_set(product((0, F(1, 2), 1), repeat=3))
    diagonal = point_set([(F(k, 3),) * 3 for k in range(-2, 5)])
    cases = [(C, S) for C in (cube_body(3), cube_body(3, facet_form=False)) for S in (grid, cube_vertices(3), diagonal)]
    cases += [(C, gen_random_points(27, 2, 200, max_numerator=6, max_denominator=4)) for C in (hexagon_v, hexagon_h)]
    for C, S in cases:
        reference = memo_pairwise_max(C, S.points)
        assert set_diameter(C, S) == reference, (C, S)
        assert polytope_diameter(C, VPolytope(C.dim, S.points)) == reference[0]
    assert [len(set_diameter(C, S)[1]) for C, S in cases[:3]] == [193, 28, 1]


def test_integer_pass_gives_no_witness_at_zero_distance(hexagon_h):
    # a point listed twice is at distance 0 from itself, which attains no
    # diameter
    bodies = [hexagon_h, gen_random_body(3, 2, 4, max_numerator=5, max_denominator=3), cube_body(3)]
    for C in bodies:
        p = tuple(F(k, 3) for k in range(C.dim))
        q = tuple(F(1, 2) for _ in range(C.dim))
        assert _attaining(_extremes(C, over_common_denominator([p, p]))) == memo_pairwise_max(C, [p, p]) == (0, [])
        assert _attaining(_extremes(C, over_common_denominator([p, p, q]))) == memo_pairwise_max(C, [p, p, q])
        # a point repeated among others, one point, and all points equal
        for points in ([q, p, q, p, q], [p], [p] * 5):
            assert _attaining(_extremes(C, over_common_denominator(points))) == memo_pairwise_max(C, points)
        assert _extremes(C, over_common_denominator([p] * 5)) == (0, [])


def test_facet_gauge_through_normals_matches_ratios():
    rng = random.Random(20261020)
    for C in _facet_bodies(rng):
        L, normals = C.normals
        assert len(normals) == 2 * len(C.facets) and L > 0
        for _ in range(20):
            x = tuple(_rational(rng, 12) for _ in range(C.dim))
            assert gauge(C, x) == max(abs(sum(u * v for u, v in zip(a, x))) / b for a, b in C.facets)
        assert gauge(C, (F(0),) * C.dim) == 0


def test_normals_of_each_body_kind(hexagon_v):
    assert cross_polytope_body(4).normals is None
    for d in (3, 4):
        # the 4-cube's vertices lie on t = +-1, so it has its slice's normals
        L, normals = cube_body(d, facet_form=False).normals
        assert L == 1 and sorted(normals) == sorted(
            tuple(s * (k == i) for k in range(d)) for i in range(d) for s in (1, -1)
        )
    L, normals = body_from_vertices([(2,), (-2,)]).normals
    assert sorted(F(n, L) for (n,) in normals) == [F(-1, 2), F(1, 2)]
    L, normals = hexagon_v.normals
    assert sorted(normals) == sorted((-a, -b) for a, b in normals) and len(normals) == 6
    for b in (F(0), F(-1)):
        with pytest.raises(DegenerateBody, match=f"^facet offset {b} is not strictly positive$"):
            SymmetricBody(2, facets=(((F(1), F(0)), F(1)), ((F(0), F(1)), b)))


def _gauge_rows(rng, dim):
    """Seeded integer rows of ``dim`` entries, among them a zero row, a row
    and its negation, and a row listed twice, shuffled."""
    rows = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(5)]
    rows += [(0,) * dim, tuple(-x for x in rows[0]), rows[1]]
    rng.shuffle(rows)
    return rows


def _reference_gauge(C, x):
    """A vertex body's gauge by support enumeration; a facet body's as its
    largest ratio ``|a . x| / b``, which needs no vertices."""
    if C.facets is not None:
        return max(abs(sum(u * v for u, v in zip(a, x))) / b for a, b in C.facets)
    return gauge_by_support_enumeration(C.vertices, x)


def _lp_bodies():
    return [
        cross_polytope_body(4),
        body_from_vertices([(2, 1), (-2, -1), (0, 1), (0, -1), (1, -1), (-1, 1)]),
        gen_random_body(5, 3, 4, max_numerator=6, max_denominator=4),
    ]


def test_gauges_match_support_enumeration(hexagon_v, hexagon_h, monkeypatch):
    # row by row, over scaled forms with zero, negated and repeated rows:
    # facet bodies in 1D-4D, vertex bodies in 1D-3D, 4D lifts with normals,
    # and vertex bodies on the LP path, the 4D cross-polytope among them
    rng = random.Random(20261031)
    bodies = [hexagon_v, hexagon_h, *_facet_bodies(rng), body_from_vertices([(F(3, 7),), (F(-3, 7),)])]
    bodies += [gen_random_body(seed, 1 + seed % 3, 3, max_numerator=6, max_denominator=4) for seed in range(6)]
    lifts = [lift_body(gen_random_polytope(seed, 3, 5, max_numerator=6, max_denominator=4)) for seed in range(2)]
    assert all(C.normals is not None for C in bodies + lifts)

    def check(C):
        m = rng.randint(1, 6)
        rows = _gauge_rows(rng, C.dim)
        assert _gauges(C, (m, rows)) == [_reference_gauge(C, x) for x in rational_points(m, rows)]

    for C in bodies + lifts:
        check(C)
    lp_path(monkeypatch)
    for C in _lp_bodies():
        assert C.normals is None
        check(C)


def test_gauges_take_one_lp_per_distinct_row_up_to_sign(hexagon_h, monkeypatch):
    asked = []
    real = metric.gauge

    def counted(C, x):
        asked.append(x)
        return real(C, x)

    monkeypatch.setattr(metric, "gauge", counted)
    rng = random.Random(20261032)
    _gauges(hexagon_h, (2, _gauge_rows(rng, 2)))
    assert asked == []  # a body with normals reads one table
    lp_path(monkeypatch)
    for C in _lp_bodies():
        rows = _gauge_rows(rng, C.dim)
        asked.clear()
        _gauges(C, (3, rows))
        keys = {canonical_sign(X) for X in rows}
        assert len(asked) == len(keys) < len(rows) and set(asked) == keys
        # and the LP pair loop of a diameter, through the same memo
        rows = sorted(set(rows))
        asked.clear()
        _extremes(C, (3, rows))
        differences = {canonical_sign(tuple(x - y for x, y in zip(P, Q))) for P in rows for Q in rows if P < Q}
        assert len(asked) == len(differences) and set(asked) == differences
        # with no positive pair the diameter is still a Fraction
        for few in (rows[:1], [(0,) * C.dim]):
            diam, sides = _extremes(C, (3, few))
            assert type(diam) is Fraction and diam == 0 and sides == []
