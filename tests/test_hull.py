"""Exact hulls on the line and in space against the exact LP path.

Pruning, certification, gauges, membership (in a body and in a covering
translate) and the diameter pass answer vertex bodies of dimension 1 and
3 from their hull. Each is compared with the LP answer (``lp_path``,
``contains_point``, ``lp.solve_combination``, the axis-extent LPs) and
each hull's facets with brute force over point triples, on seeded inputs:
lattice clouds in {0,1,2}^3 drawn with repetition (so full of duplicate,
coplanar and collinear points), coplanar and collinear sets (no hull),
the cube, the cross-polytope, the cuboctahedron (the simplex's K - K),
lifts of planar polytopes and random symmetric bodies. Probes sit at
vertices, on edges and facets, just outside and at the origin.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from borsuk import bodies, lp
from borsuk.bodies import (
    SymmetricBody,
    body_from_vertices,
    contains_point,
    convex_hull,
    difference_body,
    lift_body,
    prune_redundant,
    validate_body,
    vpolytope,
)
from borsuk.covering import _translate_membership
from borsuk.errors import DegenerateBody
from borsuk.generators import cross_polytope_body, cube_body, gen_random_body, gen_random_polytope
from borsuk.linalg import affine_rank, matrix_rank, vneg
from borsuk.metric import _pairwise_max, body_contains, gauge
from oracles import facets_by_triples, lp_path, memo_pairwise_max

F = Fraction
LATTICE = list(product(range(3), repeat=3))


def _rational(rng, top=6, den=4):
    return F(rng.randint(-top, top), rng.randint(1, den))


def _clouds():
    """Seeded clouds in space and on the line: lattice clouds, the whole
    lattice, rational clouds, and points on a slanted plane or line."""
    rng = random.Random(20261018)
    clouds = [LATTICE, LATTICE[:9], LATTICE[::3], [(0, 0, 0)] * 3, [(0, 0, 0), (1, 1, 1), (2, 2, 2), (1, 1, 1)]]
    for _ in range(60):
        clouds.append([rng.choice(LATTICE) for _ in range(rng.randint(4, 14))])
    for _ in range(10):
        clouds.append([tuple(_rational(rng) for _ in range(3)) for _ in range(rng.randint(4, 10))])
    for _ in range(6):
        base, u, v = (tuple(_rational(rng, 3, 3) for _ in range(3)) for _ in range(3))
        ts = [(_rational(rng, 3, 2), _rational(rng, 3, 2)) for _ in range(rng.randint(4, 9))]
        clouds.append([tuple(b + s * x + t * y for b, x, y in zip(base, u, v)) for s, t in ts])
        clouds.append([tuple(b + s * x for b, x in zip(base, u)) for s, _ in ts])
    for _ in range(20):
        clouds.append([(_rational(rng, 6, 3),) for _ in range(rng.randint(1, 5))])
    return [vpolytope(cloud) for cloud in clouds]


def test_hull_prune_and_facets_match_lps_and_brute_force(monkeypatch):
    clouds = _clouds()
    by_hull = [prune_redundant(P) for P in clouds]
    with monkeypatch.context() as patch:
        lp_path(patch)
        by_lp = [prune_redundant(P) for P in clouds]
    assert by_hull == by_lp
    tally = Counter()
    for P, pruned in zip(clouds, by_hull):
        hull = convex_hull(P.vertices)
        if P.dim == 1:
            assert hull.vertices == pruned.vertices
            tally["line"] += 1
        elif affine_rank(list(P.vertices)) < 3:
            assert hull is None
            tally["flat"] += 1
        else:
            # one plane per facet, each in lowest terms, and only extreme points
            assert set(hull.planes) == facets_by_triples(P.vertices)
            assert len(hull.planes) == len(set(hull.planes)) and hull.vertices == pruned.vertices
            tally["space"] += 1
    assert tally["flat"] >= 12 and tally["space"] >= 50 and tally["line"] >= 20
    assert max(len(P.vertices) for P in by_hull) >= 8


def _symmetric_candidates():
    """Negation-closed vertex sets in space and on the line: flat ones
    (the origin alone, a segment, a plane section) and full-dimensional
    ones, with inner points, the origin and points on facets."""
    rng = random.Random(6)
    sets = [
        [(0, 0, 0)],
        [(1, 2, 3), (2, 4, 6)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 0)],
        [(1, 0, 0), (0, 1, 0), (0, 0, F(1, 1000))],
        [(1, 1, 1), (1, -1, 1), (1, 0, 0), (0, 0, 1), (0, 1, 0)],
        [(0,)],
        [(F(1, 3),), (0,)],
        [(2,), (1,)],
    ]
    for _ in range(30):
        sets.append([tuple(c - 1 for c in rng.choice(LATTICE)) for _ in range(rng.randint(1, 6))])
    for _ in range(10):
        sets.append([tuple(_rational(rng, 4, 3) for _ in range(3)) for _ in range(rng.randint(1, 4))])
    for pts in sets:
        closed = {tuple(F(c) for c in p) for p in pts}
        closed |= {vneg(p) for p in closed}
        yield SymmetricBody(len(pts[0]), vertices=tuple(sorted(closed)))


def _verdict(C):
    try:
        return validate_body(C) is C
    except DegenerateBody:
        return DegenerateBody


def test_hull_certification_matches_axis_extent_lps(monkeypatch):
    candidates = list(_symmetric_candidates())
    by_hull = [_verdict(C) for C in candidates]
    with monkeypatch.context() as patch:
        lp_path(patch)
        by_lp = [_verdict(C) for C in candidates]
    assert by_hull == by_lp
    assert by_hull.count(DegenerateBody) >= 10 and by_hull.count(True) >= 15


def _bodies():
    """Certified vertex bodies on the line and in space."""
    simplex = vpolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    cube = [tuple(F(c) for c in p) for p in product((-1, 1), repeat=3)]
    # the cube listed with its facet centres and edge midpoints too
    padded = sorted(set(cube) | {tuple(F(c) for c in p) for p in product((-1, 0, 1), repeat=3) if p.count(0) in (1, 2)})
    bodies = [
        cube_body(3, facet_form=False),
        cross_polytope_body(3),
        difference_body(simplex),
        body_from_vertices(padded),
        body_from_vertices([(2,), (-2,)]),
        body_from_vertices([(F(1, 3),), (F(-1, 3),), (F(1, 7),), (F(-1, 7),)]),
    ]
    for seed in range(4):
        K = gen_random_polytope(500 + seed, 2, 4 + seed % 3, max_numerator=6, max_denominator=4)
        bodies.append(lift_body(K).body)
        bodies.append(gen_random_body(600 + seed, 3, 3 + seed, max_numerator=9, max_denominator=5))
    return bodies


def _boundary_probes(C):
    """(kind, x) on the boundary of C: its vertices, points on its edges
    and the centre of each facet."""
    hull = C.hull
    tight = [
        [v for v, X in zip(hull.vertices, hull.corners) if sum(a * b for a, b in zip(n, X)) == c]
        for n, c in hull.planes
    ]
    probes = [("vertex", v) for v in hull.vertices]
    if C.dim == 3:
        for u, v in combinations(hull.vertices, 2):
            if sum(u in on and v in on for on in tight) >= 2:
                probes.append(("edge", tuple((a + b) / 2 for a, b in zip(u, v))))
                probes.append(("edge", tuple((a + 2 * b) / 3 for a, b in zip(u, v))))
        probes += [("facet", tuple(sum(c) / len(on) for c in zip(*on))) for on in tight]
    return probes


def _lp_gauge(C, x):
    return lp.solve_combination(C.vertices, x, cost=[F(1)] * len(C.vertices)).value


def test_hull_gauge_and_membership_match_lps():
    rng = random.Random(20261018)
    tally = Counter()
    for C in _bodies():
        probes = [(kind, x, F(1)) for kind, x in _boundary_probes(C)]
        for kind, x, _ in list(probes):
            r = F(rng.randint(1, 9), rng.randint(1, 5))
            probes.append((kind, tuple(r * c for c in x), r))
            # just outside: past the boundary by 1/97 of the way
            probes.append(("outside", tuple(F(98, 97) * c for c in x), F(98, 97)))
        probes += [("random", tuple(_rational(rng, 12, 6) for _ in range(C.dim)), None) for _ in range(8)]
        probes.append(("origin", (F(0),) * C.dim, F(0)))
        for kind, x, expected in probes:
            g = _lp_gauge(C, x) if any(x) else F(0)
            assert gauge(C, x) == g and expected in (None, g)
            assert body_contains(C, x) == contains_point(C.vertices, x) == (g <= 1)
            tally[kind] += 1
    assert min(tally.values()) >= 1 and tally["facet"] >= 60 and tally["edge"] >= 150


def _point_sets(C, rng):
    yield C.vertices
    yield tuple(sorted({tuple(c / 2 for c in v) for v in C.vertices} | set(C.vertices)))
    yield tuple(sorted({tuple(F(c) for c in rng.choice(LATTICE)[: C.dim]) for _ in range(10)}))
    yield tuple(tuple(_rational(rng, 5, 7) for _ in range(C.dim)) for _ in range(8))


def test_hull_diameter_pass_matches_memoized_lp_gauges(monkeypatch):
    rng = random.Random(7)
    cases = [(C, points) for C in _bodies() for points in _point_sets(C, rng)]
    by_hull = [_pairwise_max(C, points) for C, points in cases]
    with monkeypatch.context() as patch:
        lp_path(patch)
        by_lp = [memo_pairwise_max(C, points) for C, points in cases]
    assert by_hull == by_lp
    assert sum(len(w) >= 2 for _, w in by_hull) >= 10


def _translate_probes(K, rng):
    """(x, kind) around the pruned K: its vertices, midpoints of vertex
    pairs, inner points and points just outside past each vertex."""
    V = prune_redundant(K).vertices
    middle = tuple(sum(c) / len(V) for c in zip(*V))
    probes = [(v, "vertex") for v in V] + [(middle, "middle")]
    probes += [(tuple((a + b) / 2 for a, b in zip(u, v)), "pair") for u, v in combinations(V, 2)]
    probes += [(tuple(c + (c - m) / rng.randint(3, 9) for c, m in zip(v, middle)), "outside") for v in V]
    for _ in range(3):
        w = [F(rng.randint(1, 5)) for _ in V]
        probes.append((tuple(sum(a * v[i] for a, v in zip(w, V)) / sum(w) for i in range(K.dim)), "inner"))
    return probes


def test_hull_translate_membership_matches_lp_membership():
    rng = random.Random(20261018)
    tally = Counter()
    for K in _clouds()[::2]:
        for x, kind in _translate_probes(K, rng):
            lam = F(rng.randint(1, 9), 10)
            center = tuple(_rational(rng, 5, 4) for _ in range(K.dim))
            point = tuple(c + lam * v for c, v in zip(center, x))
            inside = contains_point(K.vertices, x)
            assert _translate_membership(K, lam, [point], [center])(0, 0) == inside
            tally[kind, inside] += 1
    assert tally["vertex", True] >= 150 and tally["outside", False] >= 150 and tally["pair", True] >= 300


@pytest.mark.parametrize("move", ["loosened", "tightened"])
def test_a_wrong_facet_fails_the_normals_certificate(move):
    C = SymmetricBody(3, vertices=cube_body(3, facet_form=False).vertices)
    (n, c), *rest = C.hull.planes
    wrong = (n, 2 * c) if move == "loosened" else (tuple(2 * x for x in n), c)
    C.__dict__["hull"] = C.hull._replace(planes=(wrong, *rest))
    with pytest.raises(ArithmeticError):
        C.normals


@pytest.mark.parametrize("dim", [2, 3])
def test_a_hull_missing_a_facet_fails_the_normals_certificate(dim):
    # every facet left is valid, but they no longer close up: without the
    # facet on x = -1 the gauge of (-2, 0, ...) would read 0, not 2
    C = SymmetricBody(dim, vertices=cube_body(dim, facet_form=False).vertices)
    missing = next(p for p in C.hull.planes if p[0][0] < 0 and not any(p[0][1:]))
    C.__dict__["hull"] = C.hull._replace(planes=tuple(p for p in C.hull.planes if p != missing))
    with pytest.raises(ArithmeticError, match="do not close up"):
        C.normals


def test_a_hull_that_cuts_off_a_point_fails_its_certificate(monkeypatch):
    # every triangle's plane moved inwards by one unit: the points that
    # made the hull's facets are then outside them
    triangle = bodies._triangle

    def inward(P, i, j, k):
        *t, c = triangle(P, i, j, k)
        return (*t, c - 1)

    monkeypatch.setattr(bodies, "_triangle", inward)
    with pytest.raises(ArithmeticError, match="outside"):
        convex_hull([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 2, 2)])


def _det(M):
    """Determinant by expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det([r[:j] + r[j + 1 :] for r in M[1:]]) for j in range(len(M)))


def _rank_by_minors(rows):
    """The order of the largest square submatrix with a nonzero determinant."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rs in combinations(range(m), k):
            if any(_det([[rows[i][j] for j in cols] for i in rs]) for cols in combinations(range(n), k)):
                return k
    return 0


def test_matrix_rank_of_ints_and_rationals_matches_minors():
    # the hull ranks integer rows; affine_rank and facet bodies rational ones
    rng = random.Random(11)
    ranks = Counter()
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        if m > 2:
            rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
        if rng.random() < 0.5:
            rows = [[F(x, rng.randint(1, 4)) for x in row] for row in rows]
        assert matrix_rank(rows) == _rank_by_minors(rows)
        ranks[matrix_rank(rows)] += 1
    assert set(ranks) == {0, 1, 2, 3, 4}
