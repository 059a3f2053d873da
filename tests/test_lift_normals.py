"""Symmetric lifts without a hull against the exact LP path.

A vertex body with no hull whose vertices lie on two levels ``t = +-h`` of
the last coordinate, the lower the negated upper A, takes its facet
normals from the hull of its middle slice ``A - A``
(``SymmetricBody._lift_normals``). Gauges and the diameter pass are
compared with the LP path (``lp_path`` and ``lp.solve_combination``),
and certification with the axis-extent LPs (``axis_extent_verdict``),
on seeded lifts of polytopes in 1D-3D and on
their difference bodies, on lifts rescaled to a rational level with
inner points on it, and on the 4-cube against its facet form. Flat tops
make flat lifts, refused as they are made with ``DegenerateBody``.

A lift's slice is the difference body of its base, shared with
``difference_body``, and the difference body keeps the hull of its
pruned sums. Shared bodies are compared with bodies built afresh from
their vertex tuple on seeded polytopes, pruned, unpruned with inner
points and negation-closed; one doubling check is counted to hull
``K - K`` once, from K's hull and never from its sums, and still to make
LPs on the LP path.

Every lift made by ``lift_body`` reads its normals from its slice, in 2D
and 3D too, where the lifted rows have a hull. On the seeded 1D and 2D
bases above (pruned, with inner points of finer denominators, and
negation-closed) they equal the normals of ``integer_hull`` over the
lifted rows, the path they replace; on all of them the rows a lift hands
on are its vertices over their least common denominator.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from borsuk import bodies, lp
from borsuk.bodies import (
    SymmetricBody,
    difference_body,
    lift_body,
    lift_set,
    point_set,
    vpolytope,
)
from borsuk.errors import DegenerateBody, NotSymmetric
from borsuk.generators import cube_body, gen_random_body, gen_random_polytope
from borsuk.linalg import over_common_denominator, rational_points
from borsuk.metric import _attaining, _extremes, body_contains, gauge
from borsuk.partition import borsuk_number, doubling_check
from oracles import axis_extent_verdict, construction_verdict, lp_path, memo_pairwise_max

F = Fraction


def _rational(rng, top=6, den=4):
    return F(rng.randint(-top, top), rng.randint(1, den))


def _bases():
    """Seeded polytopes in 1D-3D, the 3D ones listed most often, since
    only their lifts lack a hull."""
    bases = []
    for seed in range(12):
        dim = (1, 2, 3, 3)[seed % 4]
        bases.append(gen_random_polytope(900 + seed, dim, dim + 2 + seed % 3, max_numerator=8, max_denominator=4))
    return bases


def _bodies():
    """Lifts, their difference bodies, lifts at a rational level with
    inner points on both levels, and the 4-cube in vertex form."""
    bodies = []
    for K in _bases():
        lifted = lift_body(K)
        bodies += [lifted, difference_body(vpolytope(lifted.vertices, pruned=True))]
        if K.dim == 3:
            r = F(3, 2)
            inner = tuple(sum(c) / len(K.vertices) for c in zip(*K.vertices)) + (F(1),)
            vertices = {tuple(r * c for c in v) for v in (*lifted.vertices, inner, tuple(-c for c in inner))}
            bodies.append(SymmetricBody(4, vertices=tuple(sorted(vertices))))
    bodies.append(cube_body(4, facet_form=False))
    return bodies


def _lp_gauge(C, x):
    return lp.solve_combination(C.vertices, x, cost=[F(1)] * len(C.vertices)).value


def _probes(C, rng):
    """Vertices, midpoints of vertex pairs (on an edge or a facet, or
    inside), the same past the boundary, random points and the origin."""
    probes = list(C.vertices)
    probes += [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in combinations(C.vertices, 2)]
    probes += [tuple(F(98, 97) * c for c in x) for x in probes[:: 3]]
    probes += [tuple(_rational(rng, 12, 6) for _ in range(C.dim)) for _ in range(20)]
    return probes + [(F(0),) * C.dim]


def test_lifts_have_slice_normals():
    tally = Counter()
    for C in _bodies():
        tally[C.dim, C.hull is None, C.normals is not None] += 1
    # every body in 4D is a lift with no hull, and each has normals
    assert tally[4, True, True] >= 10 and not tally[4, True, False]


def test_lift_gauges_and_membership_match_lps():
    rng = random.Random(20261018)
    count = 0
    for C in _bodies():
        for x in _probes(C, rng):
            g = _lp_gauge(C, x) if any(x) else F(0)
            assert gauge(C, x) == g, (C, x)
            assert body_contains(C, x) == (g <= 1)
            count += C.hull is None
    assert count >= 2000


def test_lift_diameter_pass_matches_memoized_lp_gauges(monkeypatch):
    rng = random.Random(5)
    cases = []
    for C in _bodies():
        base = [v[:-1] for v in C.vertices if v[-1] > 0]
        base += [tuple(_rational(rng, 4, 3) for _ in range(C.dim - 1)) for _ in range(4)]
        cases.append((C, lift_set(point_set(sorted(set(base)))).points))
        cases.append((C, C.vertices))
    by_normals = [_attaining(_extremes(C, over_common_denominator(points))) for C, points in cases]
    with monkeypatch.context() as patch:
        lp_path(patch)
        by_lp = [memo_pairwise_max(C, points) for C, points in cases]
    assert by_normals == by_lp
    assert sum(len(w) >= 2 for _, w in by_normals) >= 10


def test_the_4_cube_in_vertex_form_has_the_normals_of_its_facet_form():
    rng = random.Random(3)
    V, Fc = cube_body(4, facet_form=False), cube_body(4)
    assert V.hull is None and sorted(V.normals[1]) == sorted(Fc.normals[1]) and V.normals[0] == Fc.normals[0]
    for x in _probes(V, rng):
        assert gauge(V, x) == gauge(Fc, x)


def _two_levels(top, h=F(1)):
    """Vertices (a, h) for a in top and their negations."""
    up = {tuple(F(c) for c in a) + (h,) for a in top}
    return tuple(sorted(up | {tuple(-c for c in v) for v in up}))


FLAT_TOPS = [
    [(1, 2, 3)],  # one point: the lift is a segment
    [(0, 0, 0), (1, 2, 0), (3, 1, 1)],  # a triangle in space
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (F(1, 2), F(1, 3), 0)],  # coplanar
    [(0, 0, 1), (1, 1, 1), (2, 2, 1), (5, 5, 1)],  # collinear
    [(0, 0), (1, 1), (3, 3)],  # collinear in the plane: a flat body in space
    [(1, 0), (2, 0)],
]


@pytest.mark.parametrize("top", FLAT_TOPS)
@pytest.mark.parametrize("h", [F(1), F(2, 3)])
def test_a_flat_top_ends_on_the_lp_path_or_degenerate(top, h):
    # a flat top makes a flat lift, which is refused as it is made
    V = _two_levels(top, h)
    with pytest.raises(DegenerateBody, match="^origin is not interior"):
        SymmetricBody(len(V[0]), vertices=V)
    assert axis_extent_verdict(V) == DegenerateBody


def test_two_levels_that_are_not_mirrors_are_refused():
    # not closed under negation, so no body is made: a body on two levels
    # always has the lower the negated upper, as a lift's slice needs
    top = list(product((0, 1), repeat=3))
    up = [tuple(F(c) for c in a) + (F(1),) for a in top]
    down = [tuple(F(c) - 2 for c in a) + (F(-1),) for a in top]
    with pytest.raises(NotSymmetric, match=r"^vertex \(0, 0, 0, 1\) has no mirror \(0, 0, 0, -1\)$"):
        SymmetricBody(4, vertices=tuple(up + down))


def test_certification_matches_axis_extent_lps():
    candidates = [C.vertices for C in _bodies()]
    candidates += [_two_levels(t) for t in FLAT_TOPS]
    by_rank = [construction_verdict(V) for V in candidates]
    assert by_rank == [axis_extent_verdict(V) for V in candidates]
    assert by_rank.count(True) >= 20 and by_rank.count(DegenerateBody) == len(FLAT_TOPS)


def test_lift_membership_through_normals_matches_the_lp_path(monkeypatch):
    # body_contains on lifts of seeded 1D-3D polytopes, with points inside,
    # on and outside each: no LP with normals, the same verdicts on the LP
    # path, where every lift's membership is one LP
    rng = random.Random(77)
    cases = []
    for seed in range(12):
        dim = (1, 2, 3, 3)[seed % 4]
        K = gen_random_polytope(300 + seed, dim, dim + 2 + seed % 2, max_numerator=6, max_denominator=3)
        C = lift_body(K)
        probes = list(C.vertices)  # on the boundary
        probes += [tuple(c / 2 for c in v) for v in C.vertices]  # inside
        probes += [tuple(F(101, 100) * c for c in v) for v in C.vertices]  # outside
        probes += [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in combinations(C.vertices, 2)][::2]
        probes += [tuple(_rational(rng, 6, 4) for _ in range(C.dim)) for _ in range(8)]
        cases += [(C, x) for x in probes]
    solves = []
    solve_min = lp.solve_min
    monkeypatch.setattr(lp, "solve_min", lambda *args: solves.append(args) or solve_min(*args))
    by_normals = [body_contains(C, x) for C, x in cases]
    assert solves == []
    # one fresh body per lift, whose slice the LP path prunes by LPs
    fresh = {id(C): SymmetricBody(C.dim, vertices=C.vertices) for C, _ in cases}
    with monkeypatch.context() as patch:
        lp_path(patch)
        by_lp = [body_contains(fresh[id(C)], x) for C, x in cases]
    lifted = sum(C.dim == 4 for C, _ in cases)
    assert len(solves) >= lifted >= 300
    assert by_normals == by_lp
    verdicts = Counter(v for (C, _), v in zip(cases, by_normals) if C.dim == 4)
    assert min(verdicts[True], verdicts[False]) >= 100, verdicts


def _fresh(C):
    """C built again from its vertex tuple alone: no hull handed on, no
    lift base, so its hull, slice and normals are all its own."""
    return SymmetricBody(C.dim, vertices=C.vertices)


# conv{0, 2e1, 2e2, 2e3, (1/2, 1/2, 1/2)}: the sums of K - K have scale 2,
# the vertices of K - K scale 1
FINE_K = vpolytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (F(1, 2), F(1, 2), F(1, 2))])


def _shared_cases():
    """About 150 seeded K in 1D-3D: pruned, unpruned with inner points of
    finer denominators (the centroid, a midpoint), and negation-closed."""
    cases = []
    for seed in range(150):
        dim = 1 + seed % 3
        P = gen_random_polytope(7000 + seed, dim, dim + 2 + seed % 4, max_numerator=8, max_denominator=4)
        kind = seed // 3 % 3
        if kind == 0:
            cases.append(P)
            continue
        points = list(P.vertices)
        if kind == 1:
            points.append(tuple(sum(c) / len(points) for c in zip(*points)))
            points.append(tuple((a + b) / 2 for a, b in zip(points[0], points[1])))
        else:
            points += [tuple(-c for c in v) for v in points]
        cases.append(vpolytope(points))
    return cases + [FINE_K]


def _assert_agree(C, fresh, rng):
    assert (C.hull is None) == (fresh.hull is None)
    if C.hull is not None:
        # the same corners, as points: the two hulls may differ in scale
        corners = [rational_points(h.scale, sorted(h.corners)) for h in (C.hull, fresh.hull)]
        assert corners[0] == corners[1]
    L, N = C.normals
    assert (L, set(N)) == (fresh.normals[0], set(fresh.normals[1]))
    probes = list(C.vertices) + [tuple(F(101, 100) * c for c in v) for v in C.vertices[::2]]
    probes += [tuple(_rational(rng, 8, 5) for _ in range(C.dim)) for _ in range(6)]
    for x in probes:
        assert gauge(C, x) == gauge(fresh, x), (C, x)
        assert body_contains(C, x) == body_contains(fresh, x), (C, x)


def test_shared_bodies_match_bodies_built_fresh_from_their_vertices():
    rng = random.Random(13)
    kinds = Counter()
    for K in _shared_cases():
        D, lifted = difference_body(K), lift_body(K)
        for C in (D, lifted):
            _assert_agree(C, _fresh(C), rng)
        kinds[K.dim, lifted.hull is None, K.pruned] += 1
        S = point_set(sorted(set(K.vertices)))
        b1 = borsuk_number(_fresh(D), S).number
        b2 = borsuk_number(_fresh(lifted), lift_set(S)).number
        assert doubling_check(K, S) == (b1, b2, b2 == 2 * b1)
    for seed in range(30):
        C = gen_random_body(seed, 2 + seed % 2, 3 + seed % 4)
        _assert_agree(C, _fresh(C), rng)
    # every dimension pruned and unpruned, and the 4D lifts among them
    assert min(kinds.values()) >= 15 and len(kinds) == 6


def test_lift_normals_from_the_slice_match_the_hull_of_the_lifted_rows():
    kinds = Counter()
    for K in _shared_cases():
        C = lift_body(K)
        assert C.scaled == over_common_denominator(C.vertices), K
        if C.dim > 3:
            continue
        hull = bodies.integer_hull(*C.scaled)
        by_hull = {tuple(F(k * hull.scale, c) for k in n) for n, c in hull.planes}
        L, normals = C.normals
        assert {tuple(F(c, L) for c in n) for n in normals} == by_hull, K
        assert len(normals) == len(by_hull) and L == lcm(*(c.denominator for a in by_hull for c in a)), K
        rows = set(K.scaled[1])
        kinds[K.dim, K.pruned, all(tuple(-x for x in X) in rows for X in rows)] += 1
    # 1D and 2D bases: pruned, unpruned with inner points, negation-closed
    assert min(kinds[d, True, False] for d in (1, 2)) >= 10
    assert min(kinds[d, False, False] + kinds[d, False, True] for d in (1, 2)) >= 10
    assert kinds[1, False, True] + kinds[2, False, True] >= 10


def test_a_hull_handed_on_at_a_finer_scale_certifies():
    D = difference_body(FINE_K)
    assert D.hull.scale == 2 and all(c.denominator == 1 for v in D.vertices for c in v)
    fresh = _fresh(D)
    assert fresh.hull.scale == 1
    assert (D.normals[0], set(D.normals[1])) == (fresh.normals[0], set(fresh.normals[1]))
    assert lift_body(FINE_K).normals is not None


def _count_hulls(monkeypatch):
    calls = []
    spatial = bodies._spatial_hull
    monkeypatch.setattr(bodies, "_spatial_hull", lambda points: calls.append(len(points)) or spatial(points))
    return calls


def _count_spatial_hull_entries(monkeypatch):
    """The point counts of the integer hull entry's calls in space."""
    calls = []
    hull = bodies.integer_hull

    def counted(m, rows):
        if len(next(iter(rows))) == 3:
            calls.append(len(rows))
        return hull(m, rows)

    monkeypatch.setattr(bodies, "integer_hull", counted)
    return calls


def test_one_doubling_check_hulls_k_minus_k_once(monkeypatch):
    K = gen_random_polytope(31, 3, 6, max_numerator=8, max_denominator=4)
    S = point_set(K.vertices)
    entries = _count_spatial_hull_entries(monkeypatch)
    builds = []
    build = bodies._difference_hull
    monkeypatch.setattr(bodies, "_difference_hull", lambda *args: builds.append(args) or build(*args))
    b1, b2, ok = doubling_check(K, S)
    assert ok
    # K - K is hulled once, from K's own hull: its sums are never hulled
    assert len(builds) == 1 and builds[0][0] is K.hull
    assert entries == []
    # the lift's slice is the difference body, certified once
    assert lift_body(K)._levels[1].difference is difference_body(K)
    assert len(builds) == 1 and entries == []


def test_shared_bodies_on_the_lp_path_make_lps(monkeypatch):
    K = gen_random_polytope(31, 3, 6, max_numerator=8, max_denominator=4)
    S = point_set(K.vertices)
    expected = doubling_check(K, S)  # K now keeps its difference body and hull
    calls = _count_hulls(monkeypatch)
    solves = []
    solve_min = lp.solve_min
    monkeypatch.setattr(lp, "solve_min", lambda *args: solves.append(args) or solve_min(*args))
    lp_path(monkeypatch)
    D, lifted = difference_body(K), lift_body(K)
    assert D.hull is None and D.normals is None
    assert lifted.hull is None and lifted.normals is None
    assert doubling_check(K, S) == expected
    assert calls == [] and len(solves) >= 20
