"""Polytope constructions: negation, sums, difference bodies, lifting."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from borsuk import bodies, generators, lp
from borsuk.bodies import (
    PointSet,
    SymmetricBody,
    VPolytope,
    body_from_vertices,
    contains_point,
    difference_body,
    integer_hull,
    lift_body,
    lift_set,
    minkowski_sum,
    point_set,
    prune_redundant,
    validate_body,
    vpolytope,
)
from borsuk.errors import DegenerateBody, DimensionMismatch, InvalidInput, NotSymmetric
from borsuk.generators import cross_polytope_body, gen_random_body, gen_random_polytope
from borsuk.linalg import over_common_denominator, vneg
from borsuk.metric import gauge
from oracles import (
    axis_extent_verdict,
    construction_verdict,
    fraction_difference_body,
    fraction_minkowski_sum,
    lp_path,
    negate,
)

F = Fraction

HEXAGON = {
    (F(1), F(0)),
    (F(0), F(1)),
    (F(-1), F(1)),
    (F(-1), F(0)),
    (F(0), F(-1)),
    (F(1), F(-1)),
}


def test_validate_accepts_square(square_v):
    assert validate_body(square_v) is square_v


def test_validate_rejects_asymmetric_triangle():
    # refused as it is made, naming the points as they are written
    with pytest.raises(NotSymmetric, match=r"^vertex \(1, 0\) has no mirror \(-1, 0\)$"):
        SymmetricBody(2, vertices=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))


def test_validate_rejects_flat_segment_in_plane():
    with pytest.raises(DegenerateBody, match=r"^origin is not interior \(body not full-dimensional\)$"):
        SymmetricBody(2, vertices=((F(-1), F(0)), (F(1), F(0))))


def test_a_vertex_of_another_dimension_is_named_readably():
    with pytest.raises(DimensionMismatch, match=r"^vertex \(1, 2, 3\) does not have dim 2$"):
        body_from_vertices([(1, 0), (1, 2, 3)])
    with pytest.raises(DimensionMismatch, match=r"^facet normal \(1/2\) does not have dim 2$"):
        SymmetricBody(2, facets=(((F(1, 2),), F(1)),))


def test_a_body_without_vertices_is_invalid_input():
    # refused as input, not reported as a flat body by the rank check
    with pytest.raises(InvalidInput, match="at least one vertex"):
        SymmetricBody(2, vertices=())


def test_validate_facet_offsets_must_be_positive():
    with pytest.raises(DegenerateBody, match="^facet offset 0 is not strictly positive$"):
        SymmetricBody(2, facets=(((F(1), F(0)), F(0)), ((F(0), F(1)), F(1))))


def test_validate_facet_normals_must_span():
    with pytest.raises(DegenerateBody, match=r"^facet normals do not span the space \(unbounded\)$"):
        SymmetricBody(2, facets=(((F(1), F(0)), F(1)),))


def test_negate_triangle(triangle):
    assert set(negate(triangle).vertices) == {(F(0), F(0)), (F(-1), F(0)), (F(0), F(-1))}


def test_negate_fixes_symmetric_sets(square_v):
    K = VPolytope(2, square_v.vertices)
    assert set(negate(K).vertices) == set(K.vertices)


def test_negate_is_involutive(triangle):
    assert set(negate(negate(triangle)).vertices) == set(triangle.vertices)


def test_minkowski_square_plus_square(square_v):
    K = VPolytope(2, square_v.vertices)
    out = minkowski_sum(K, K)
    assert set(out.vertices) == {(F(2), F(2)), (F(2), F(-2)), (F(-2), F(2)), (F(-2), F(-2))}


def test_minkowski_segments_make_square():
    a = vpolytope([(0, 0), (1, 0)])
    b = vpolytope([(0, 0), (0, 1)])
    out = minkowski_sum(a, b)
    assert set(out.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))}


def test_minkowski_triangle_with_negation_is_hexagon(triangle):
    out = minkowski_sum(triangle, negate(triangle))
    assert set(out.vertices) == HEXAGON
    assert out.pruned


def test_minkowski_dimension_mismatch(triangle):
    with pytest.raises(DimensionMismatch):
        minkowski_sum(triangle, vpolytope([(0,), (1,)]))


def test_minkowski_commutative_and_associative():
    rng = random.Random(7)
    for _ in range(5):
        polys = [
            vpolytope([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)])
            for _ in range(3)
        ]
        a, b, c = polys
        ab = minkowski_sum(a, b)
        ba = minkowski_sum(b, a)
        assert set(ab.vertices) == set(ba.vertices)
        left = minkowski_sum(ab, c)
        right = minkowski_sum(a, minkowski_sum(b, c))
        assert set(left.vertices) == set(right.vertices)


def test_difference_body_of_triangle(triangle):
    D = difference_body(triangle)
    assert set(D.vertices) == HEXAGON


def test_difference_body_of_symmetric_body_is_double(square_v):
    D = difference_body(VPolytope(2, square_v.vertices))
    assert set(D.vertices) == {(F(2), F(2)), (F(2), F(-2)), (F(-2), F(2)), (F(-2), F(-2))}


def test_difference_body_rejects_lower_dimensional():
    with pytest.raises(DegenerateBody):
        difference_body(vpolytope([(1, 1)]))
    with pytest.raises(DegenerateBody):
        difference_body(vpolytope([(0, 0), (1, 1)]))


def test_difference_body_closed_under_negation():
    rng = random.Random(11)
    for _ in range(5):
        K = vpolytope([(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)])
        try:
            D = difference_body(K)
        except DegenerateBody:
            continue
        vs = set(D.vertices)
        assert {tuple(-c for c in v) for v in vs} == vs


def test_prune_removes_midpoint():
    out = prune_redundant(vpolytope([(0, 0), (1, 0), (2, 0)]))
    assert set(out.vertices) == {(F(0), F(0)), (F(2), F(0))}
    assert out.pruned


def test_prune_keeps_simplex(triangle):
    out = prune_redundant(triangle)
    assert set(out.vertices) == set(triangle.vertices)


def test_prune_all_pairwise_differences_of_triangle(triangle):
    diffs = {
        tuple(a - b for a, b in zip(p, q))
        for p in triangle.vertices
        for q in triangle.vertices
    }
    out = prune_redundant(VPolytope(2, tuple(sorted(diffs))))
    assert set(out.vertices) == HEXAGON


def test_prune_matches_graham_scan():
    from oracles import graham_hull_2d

    rng = random.Random(2024)
    for trial in range(20):
        n = rng.randint(3, 14)
        if trial % 2:
            pts = [(F(rng.randint(-6, 6)), F(rng.randint(-6, 6))) for _ in range(n)]
        else:
            pts = [
                (F(rng.randint(-12, 12), rng.randint(1, 4)), F(rng.randint(-12, 12), rng.randint(1, 4)))
                for _ in range(n)
            ]
        pruned = prune_redundant(VPolytope(2, tuple(pts)))
        assert set(pruned.vertices) == graham_hull_2d(pts)


def test_prune_preserves_hull_membership():
    rng = random.Random(3)
    raw = vpolytope([(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(12)])
    pruned = prune_redundant(raw)
    for _ in range(100):
        probe = (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3)))
        assert contains_point(raw.vertices, probe) == contains_point(pruned.vertices, probe)


def test_lift_segment_gives_square():
    seg = vpolytope([(-1,), (1,)])
    lifted = lift_body(seg)
    assert lifted.lift_base.vertices == seg.vertices
    assert lifted.dim == 2
    assert set(lifted.vertices) == {
        (F(1), F(1)),
        (F(-1), F(1)),
        (F(1), F(-1)),
        (F(-1), F(-1)),
    }


def test_lift_vertices_are_symmetric_and_signed(triangle):
    lifted = lift_body(triangle)
    vs = set(lifted.vertices)
    assert len(vs) == 6
    assert {tuple(-c for c in v) for v in vs} == vs
    assert all(v[-1] in (F(1), F(-1)) for v in vs)


def test_lift_slice_at_top_recovers_polytope(triangle):
    lifted = lift_body(triangle)
    top = {v[:-1] for v in lifted.vertices if v[-1] == 1}
    assert top == set(triangle.vertices)


def test_lift_rejects_degenerate():
    with pytest.raises(DegenerateBody):
        lift_body(vpolytope([(0, 0), (1, 1)]))


def test_lift_set_singleton():
    S = point_set([(0, 0)])
    out = lift_set(S)
    assert out.points == ((F(0), F(0), F(1)), (F(0), F(0), F(-1)))
    assert out.labels == ((0, 1), (0, -1))


def test_lift_set_doubles_count(triangle):
    S = point_set(triangle.vertices)
    out = lift_set(S)
    assert len(out.points) == 2 * len(S.points)
    assert out.labels[: len(S.points)] == tuple((i, 1) for i in range(3))


def test_difference_of_lift_sliced_is_difference_body():
    # The central hyperplane slice of D(lifted K) carries exactly the
    # norm of D(K): check boundary vertices exactly and random rays.
    rng = random.Random(23)
    for seed in range(3):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
        try:
            K = vpolytope(pts)
            D = difference_body(K)
        except DegenerateBody:
            continue
        D_lift = difference_body(vpolytope(lift_body(K).vertices, pruned=True))
        for w in D.vertices:
            assert gauge(D_lift, w + (F(0),)) == 1
        for _ in range(10):
            z = (F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
            if all(c == 0 for c in z):
                continue
            assert gauge(D_lift, z + (F(0),)) == gauge(D, z)


def test_point_set_rejects_duplicates():
    with pytest.raises(ValueError):
        point_set([(0, 0), (0, 0)])


def test_point_set_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch, match=r"^point \(-1/3\) does not have dim 2$"):
        PointSet(2, ((F(0), F(0)), (F(-1, 3),)))


def _symmetric_inputs():
    """Negation-closed vertex sets: lifted polytopes (pruned) and random
    symmetric bodies, the latter also padded with interior points and
    marked unpruned so the fast path has to prune them itself."""
    for seed in range(12):
        dim = 1 + seed % 3
        K = gen_random_polytope(900 + seed, dim, dim + 2, max_numerator=6, max_denominator=4)
        yield vpolytope(lift_body(K).vertices, pruned=True)
    for seed in range(8):
        dim = 2 + seed % 2
        C = gen_random_body(700 + seed, dim, dim + 2, max_numerator=6, max_denominator=4)
        yield VPolytope(dim, C.vertices, pruned=True)
        half = tuple(tuple(c / 2 for c in v) for v in C.vertices)
        yield VPolytope(dim, tuple(sorted(C.vertices + half)))


def test_difference_body_of_symmetric_polytope_matches_minkowski_sum():
    for P in _symmetric_inputs():
        expected = minkowski_sum(P, negate(P)).vertices
        assert difference_body(P).vertices == expected


def _copy(K):
    """K afresh, with the hull it was pruned with but nothing it cached."""
    return VPolytope(K.dim, K.vertices, pruned=K.pruned, seed_hull=K.seed_hull)


def _sum_inputs():
    """Seeded polytopes in 1D-4D: pruned ones, whose hull may be finer than
    their vertices, the same without that hull, unpruned ones with an inner
    point of finer denominator, and negation-closed ones."""
    for seed in range(60):
        dim = 1 + seed % 3
        K = gen_random_polytope(1600 + seed, dim, dim + 1 + seed % 4, max_numerator=7, max_denominator=6)
        yield K
        yield VPolytope(dim, K.vertices, pruned=True)
        inner = tuple(sum(c) / len(K.vertices) for c in zip(*K.vertices))  # the centroid
        yield VPolytope(dim, tuple(sorted(set(K.vertices) | {inner})))
        if seed % 4 == 0:
            yield VPolytope(dim, tuple(sorted(set(K.vertices) | {vneg(v) for v in K.vertices})))
    for seed in range(3):
        yield gen_random_polytope(1700 + seed, 4, 5 + seed, max_numerator=5, max_denominator=3)


def _assert_same_polytope(got, expected):
    assert (got.vertices, got.pruned) == (expected.vertices, expected.pruned)
    assert got.hull == expected.hull  # vertices, scale, corners and planes


def test_integer_sums_match_fraction_sums():
    rng = random.Random(1617)
    inputs = list(_sum_inputs())
    scales = Counter()
    for K in inputs:
        L = rng.choice([P for P in inputs if P.dim == K.dim])
        for A, B in ((K, negate(K)), (K, K), (K, L)):
            got = minkowski_sum(_copy(A), _copy(B))
            _assert_same_polytope(got, fraction_minkowski_sum(_copy(A), _copy(B)))
            if got.hull is not None:
                scales[got.hull.scale < lcm(_copy(A).scaled[0], _copy(B).scaled[0])] += 1
        D, expected = difference_body(_copy(K)), fraction_difference_body(_copy(K))
        assert D.vertices == expected.vertices and D.hull == expected.hull
        assert D.normals == expected.normals
    # sums on a coarser scale than their summands are common
    assert scales[True] >= 20 and scales[False] >= 20, scales


def test_sums_coarser_than_their_summands_get_their_own_scale():
    # K has scale 2 and K - K, K + K scale 1: the hull of the sums must
    # have the scale it would have had from the sums as Fractions
    segment = vpolytope([(F(1, 2),), (F(3, 2),)])
    tetrahedron = vpolytope([(F(1, 2), 0, 0), (F(3, 2), 0, 0), (F(1, 2), 1, 0), (F(1, 2), 0, 1)])
    for K in (segment, tetrahedron):
        assert K.scaled[0] == 2
        for got, expected in (
            (minkowski_sum(K, negate(K)), fraction_minkowski_sum(K, negate(K))),
            (minkowski_sum(K, K), fraction_minkowski_sum(K, K)),
        ):
            assert got.hull.scale == 1
            _assert_same_polytope(got, expected)
        D = difference_body(_copy(K))
        assert D.hull.scale == 1 and D.hull == fraction_difference_body(_copy(K)).hull
    assert difference_body(segment).vertices == ((F(-1),), (F(1),))


def test_sums_without_a_hull_are_pruned_by_lps(monkeypatch):
    K = gen_random_polytope(1618, 3, 5, max_numerator=7, max_denominator=6)
    expected = minkowski_sum(K, negate(K))
    with monkeypatch.context() as patch:
        lp_path(patch)
        got = minkowski_sum(_copy(K), negate(K))
        assert got.hull is None and got.vertices == expected.vertices


def _counting(patch, module, name):
    """Count the calls through ``module``'s binding of ``name``."""
    calls = []
    fn = getattr(module, name)
    patch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_every_construction_prunes_through_prune_redundant(monkeypatch):
    # one function makes every pruned polytope: the generators' draws,
    # Minkowski sums and difference bodies build a polytope of their rows
    # and hand it to prune_redundant, in 2D (a hull) and 4D (LPs); a
    # difference body in 2D hands it on with the hull read off K's as its
    # seed, and a Minkowski sum with none
    in_bodies = _counting(monkeypatch, bodies, "prune_redundant")
    in_generators = _counting(monkeypatch, generators, "prune_redundant")
    for dim in (2, 4):
        for generate in (gen_random_polytope, gen_random_body):
            generate(31, dim, dim + 3, max_numerator=5, max_denominator=3)
            assert len(in_generators) == 1 and not in_generators[0][0].pruned
            in_generators.clear()
        K = gen_random_polytope(31, dim, dim + 3, max_numerator=5, max_denominator=3)
        in_generators.clear()
        assert not all(X in K.scaled[1] for X in map(vneg, K.scaled[1]))  # K - K takes the sums
        for build, seeded in ((lambda: minkowski_sum(K, negate(K)), False), (lambda: difference_body(_copy(K)), dim == 2)):
            build()
            [(P,)] = in_bodies
            assert not P.pruned and (P.seed_hull is not None) == seeded
            in_bodies.clear()
    assert in_generators == [] and in_bodies == []


def test_a_flat_sum_is_hulled_once(monkeypatch):
    # two parallel segments sum to a flat set: its one hull is None, and
    # the LP prunes it with no second hull asked for
    hulls = _counting(monkeypatch, bodies, "integer_hull")
    A, B = vpolytope([(0, 0), (1, 1)]), vpolytope([(F(1, 2), F(1, 2)), (2, 2)])
    S = minkowski_sum(A, B)
    assert len(hulls) == 1
    assert S.pruned and S.vertices == ((F(1, 2), F(1, 2)), (F(3), F(3)))


def test_prune_redundant_returns_a_pruned_polytope_as_it_is():
    K = gen_random_polytope(5, 2, 9, max_numerator=6, max_denominator=2)
    assert K.pruned and prune_redundant(K) is K
    inner = tuple(sum(c) / len(K.vertices) for c in zip(*K.vertices))
    for P in (VPolytope(2, K.vertices + (inner,)), VPolytope(4, cross_polytope_body(4).vertices + ((F(1, 5),) * 4,))):
        pruned = prune_redundant(P)
        assert pruned is not P and pruned.pruned
        assert set(pruned.vertices) == set(P.vertices[:-1])


def _planar_clouds():
    """Seeded planar point clouds for the hull: lattice clouds (with
    duplicate points and collinear triples), rational clouds, clouds on
    one line (vertical, horizontal, slanted) and single points."""
    rng = random.Random(20261018)
    clouds = [
        [(0, 0)],
        [(F(1, 3), F(-2, 7))] * 3,
        [(0, 0), (1, 1), (2, 2), (3, 3), (1, 1)],
        [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1)],
        [(-1, -1), (1, -1), (1, 1), (-1, 1), (0, -1), (1, 0), (0, 1), (-1, 0), (0, 0)],
    ]
    for _ in range(40):
        clouds.append([(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 12))])
    for _ in range(20):
        clouds.append([
            (F(rng.randint(-6, 6), rng.randint(1, 4)), F(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(rng.randint(2, 10))
        ])
    for direction in ((0, 1), (1, 0), (2, -3), (F(1, 3), F(1, 2))):
        base = (F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 5))
        ts = [F(rng.randint(-6, 6), 3) for _ in range(5)]
        clouds.append([tuple(b + t * d for b, d in zip(base, direction)) for t in ts])
    return [vpolytope(cloud) for cloud in clouds]


def test_hull_prune_matches_lp_prune(monkeypatch):
    clouds = _planar_clouds()
    by_hull = [prune_redundant(P) for P in clouds]
    with monkeypatch.context() as patch:
        lp_path(patch)
        by_lp = [prune_redundant(P) for P in clouds]
    assert by_hull == by_lp
    sizes = {len(P.vertices) for P in by_hull}
    assert {1, 2} <= sizes and max(sizes) >= 5
    for P, pruned in zip(clouds, by_hull):
        hull = integer_hull(*over_common_denominator(P.vertices))
        if len(pruned.vertices) < 3:
            # a point or a segment is flat, and takes the LP
            assert hull is None
            continue
        assert sorted(hull.corners) == [tuple(x * hull.scale for x in v) for v in pruned.vertices]
        # counter-clockwise from the least point, every turn strictly left
        hull = hull.corners
        assert hull[0] == min(hull)
        assert all(
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0
            for a, b, c in zip(hull, hull[1:] + hull[:1], hull[2:] + hull[:2])
        )


def _symmetric_candidates():
    """Negation-closed planar vertex sets: degenerate ones (the origin
    alone, segments through it, with and without inner points and the
    origin) and full-dimensional ones (thin, with boundary midpoints,
    random)."""
    rng = random.Random(6)
    sets = [
        [(0, 0)],
        [(1, 2)],
        [(1, 2), (0, 0)],
        [(1, 2), (F(1, 2), 1)],
        [(1, 2), (F(1, 2), 1), (0, 0)],
        [(3, 0), (1, 0)],
        [(0, F(1, 7))],
        [(1, 0), (0, F(1, 1000))],
        [(1, 1), (1, -1), (1, 0), (0, 1)],
        [(2, 1), (1, 0), (0, 0)],
    ]
    for _ in range(15):
        d = (F(rng.randint(-5, 5), rng.randint(1, 3)), F(rng.randint(-5, 5), rng.randint(1, 3)))
        sets.append([tuple(F(rng.randint(1, 4), 2) * c for c in d) for _ in range(rng.randint(1, 4))])
    for _ in range(15):
        sets.append([(F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 3)) for _ in range(rng.randint(2, 5))])
    for pts in sets:
        closed = {tuple(F(c) for c in p) for p in pts}
        closed |= {vneg(p) for p in closed}
        yield tuple(sorted(closed))


def _rational(rng, top=6, den=4):
    return F(rng.randint(-top, top), rng.randint(1, den))


def _high_candidates():
    """Negation-closed vertex sets in 4D and 5D that are no symmetric
    lift: the cross-polytopes, random full-dimensional sets, and flat
    sets drawn from the span of fewer than ``d`` random directions."""
    rng = random.Random(45)
    sets = [cross_polytope_body(d).vertices for d in (4, 5)]
    for d in (4, 5):
        for _ in range(8):
            sets.append([tuple(_rational(rng) for _ in range(d)) for _ in range(rng.randint(d - 2, d + 2))])
        for _ in range(8):
            directions = [tuple(_rational(rng) for _ in range(d)) for _ in range(rng.randint(1, d - 1))]
            sets.append([
                tuple(sum(_rational(rng, 3, 2) * u[k] for u in directions) for k in range(d))
                for _ in range(rng.randint(1, 2 * d))
            ])
    for pts in sets:
        closed = set(pts) | {vneg(p) for p in pts}
        if len({abs(v[-1]) for v in closed}) > 1:  # not on two levels t = +-h, as a lift is
            yield tuple(sorted(closed))


def test_hull_certification_matches_axis_extent_lps():
    planar, high = list(_symmetric_candidates()), list(_high_candidates())
    candidates = planar + high
    by_rank = [construction_verdict(V) for V in candidates]
    assert by_rank == [axis_extent_verdict(V) for V in candidates]
    assert by_rank[: len(planar)].count(DegenerateBody) >= 12 and by_rank[: len(planar)].count(True) >= 12
    assert by_rank[len(planar) :].count(DegenerateBody) >= 12 and by_rank[len(planar) :].count(True) >= 12


def test_validate_body_solves_no_lp(monkeypatch):
    vertex_sets = list(_symmetric_candidates()) + list(_high_candidates())
    vertex_sets += [gen_random_body(50 + d, d, d + 2, max_numerator=6, max_denominator=3).vertices for d in range(1, 6)]
    vertex_sets += [lift_body(gen_random_polytope(60 + d, d, d + 3, max_numerator=6, max_denominator=3)).vertices for d in (1, 2, 3)]
    assert {len(V[0]) for V in vertex_sets} == {1, 2, 3, 4, 5}
    solves = []
    solve_min = lp.solve_min
    monkeypatch.setattr(lp, "solve_min", lambda *args: solves.append(args) or solve_min(*args))
    verdicts = [construction_verdict(V) for V in vertex_sets]
    assert solves == []
    assert verdicts.count(True) >= 30 and verdicts.count(DegenerateBody) >= 24
