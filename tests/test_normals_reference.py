"""Facet normals read from certified hulls against normals certified as
they are read.

A hull is certified once, where :func:`borsuk.bodies.integer_hull` makes
it, and ``SymmetricBody.normals`` reads its planes with no second check;
only a symmetric lift's normals, which come from no hull, are certified
one by one. ``certified_normals`` in ``oracles`` makes the same normals
and certifies each against the body's vertices as it is read. The two
are compared on seeded bodies: vertex bodies in 1D-3D that also list
inner points and points inside edges and facets; bodies on a hull handed
on at a finer scale than their vertices (difference bodies whose sums
have a coarser denominator, and generated random bodies); facet bodies
with redundant facets; and lifts, 4D ones among them. A lift normal
corrupted in its slice fails the lift's certificate, which makes no rank
call: a normal outside a vertex fails its ``a . v <= 1``, on either
level, though the certificate reads the upper one alone, and a valid one
off the levels fails its level contacts.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from borsuk import bodies
from borsuk.bodies import body_from_facets, body_from_vertices, difference_body, lift_body, vpolytope
from borsuk.generators import cube_body, gen_random_body, gen_random_polytope
from borsuk.linalg import vneg
from oracles import certified_normals

F = Fraction


def _listed_bodies():
    """Seeded vertex bodies in 1D-3D listing, besides their vertices, an
    inner point, the centre of each facet and, in space, the midpoint of
    each edge, each with its mirror."""
    for seed in range(30):
        dim = 1 + seed % 3
        C = gen_random_body(400 + seed, dim, dim + 1 + seed % 4, max_numerator=7, max_denominator=4)
        s, planes = C.hull.scale, C.hull.planes
        on = [[v for v in C.vertices if sum(a * b for a, b in zip(n, v)) * s == c] for n, c in planes]
        extra = [tuple(x / 3 for x in C.vertices[0])]
        extra += [tuple(sum(c) / len(f) for c in zip(*f)) for f in on]
        if dim == 3:
            extra += [
                tuple((a + b) / 2 for a, b in zip(u, v))
                for u, v in combinations(C.vertices, 2)
                if sum(u in f and v in f for f in on) >= 2
            ]
        points = set(C.vertices) | set(extra) | {vneg(p) for p in extra}
        yield body_from_vertices(sorted(points))


def _seed_hull_bodies():
    """Bodies on a hull handed on by their construction: difference bodies
    and their lifts of seeded K in 1D-3D, whose sums may have a coarser
    denominator than K, the 4D lifts among them, and generated bodies."""
    for seed in range(24):
        dim = 1 + seed % 3
        K = gen_random_polytope(500 + seed, dim, dim + 2 + seed % 3, max_numerator=7, max_denominator=4)
        yield difference_body(K)
        yield lift_body(K)
    # conv{0, 2e1, 2e2, 2e3, (1/2, 1/2, 1/2)}: its sums have scale 2, the
    # vertices of K - K scale 1
    K = vpolytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (F(1, 2), F(1, 2), F(1, 2))])
    yield difference_body(K)
    yield lift_body(K)
    for seed in range(20):
        yield gen_random_body(seed, 1 + seed % 3, 1 + seed % 3 + seed % 4, max_numerator=9, max_denominator=6)


def _facet_bodies():
    """Seeded facet bodies in 1D-3D: each facet of a box given once, twice
    or scaled, and random facets, some redundant."""
    rng = random.Random(29)
    for dim in (1, 2, 3):
        yield cube_body(dim)
    for _ in range(20):
        dim = rng.randint(1, 3)
        facets = [(tuple(F(int(i == j)) for j in range(dim)), F(rng.randint(1, 5), rng.randint(1, 3))) for i in range(dim)]
        for _ in range(rng.randint(0, 4)):
            a = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
            if any(a):
                facets.append((a, F(rng.randint(1, 6), rng.randint(1, 3))))
        facets.append((tuple(2 * x for x in facets[0][0]), 2 * facets[0][1]))
        yield body_from_facets(facets)


def test_normals_match_normals_certified_as_they_are_read():
    kinds = Counter()
    for group, made in (("listed", _listed_bodies()), ("seed hull", _seed_hull_bodies()), ("facet", _facet_bodies())):
        for C in made:
            assert C.normals == certified_normals(C), C
            kinds[group, C.dim, C.hull is not None] += 1
    assert min(kinds[("listed", d, True)] for d in (1, 2, 3)) >= 10
    assert min(kinds[("seed hull", d, True)] for d in (1, 2, 3)) >= 10
    assert kinds[("seed hull", 4, False)] >= 8
    assert min(kinds[("facet", d, False)] for d in (1, 2, 3)) >= 4


def test_normals_of_a_hull_body_make_no_rank_call(monkeypatch):
    bodies_with_hulls = list(_listed_bodies()) + [C for C in _seed_hull_bodies() if C.hull is not None]
    for C in bodies_with_hulls:
        C.hull
    ranked = []
    rank = bodies.matrix_rank
    monkeypatch.setattr(bodies, "matrix_rank", lambda rows: ranked.append(rows) or rank(rows))
    for C in bodies_with_hulls:
        C.normals
    assert ranked == [] and len(bodies_with_hulls) >= 60


def test_normals_of_a_4d_lift_make_no_rank_call(monkeypatch):
    # a lift normal is certified by the levels it touches; only the
    # slice's hull, built first here, is ranked where it is made
    lifts = [C for C in _seed_hull_bodies() if C.dim == 4]
    for C in lifts:
        C._levels[1].difference.normals
    ranked = []
    rank = bodies.matrix_rank
    monkeypatch.setattr(bodies, "matrix_rank", lambda rows: ranked.append(rows) or rank(rows))
    for C in lifts:
        assert C.hull is None and C.normals is not None
    assert ranked == [] and len(lifts) >= 8


def test_a_wrong_lifted_normal_fails_the_lift_certificate():
    # one slice normal doubled doubles the lift's normal made from it, so
    # the lift's vertices on that facet are outside it
    K = gen_random_polytope(31, 3, 6, max_numerator=8, max_denominator=4)
    C = lift_body(K)
    D = C._levels[1].difference
    L, (N, *rest) = D.normals
    D.__dict__["normals"] = (L, (tuple(2 * c for c in N), *rest))
    assert C.hull is None
    with pytest.raises(ArithmeticError, match="outside lifted facet normal"):
        C.normals


def test_a_lifted_normal_off_both_levels_fails_the_lift_certificate():
    # the slice normals halved are still valid, but touch no vertex of the
    # slice, so the lift's normals made from them touch neither level
    K = gen_random_polytope(31, 3, 6, max_numerator=8, max_denominator=4)
    C = lift_body(K)
    D = C._levels[1].difference
    L, normals = D.normals
    D.__dict__["normals"] = (2 * L, normals)
    with pytest.raises(ArithmeticError, match="does not touch both levels"):
        C.normals


@pytest.mark.parametrize("shift, outside", [(1, "lower"), (-1, "upper")])
def test_a_lifted_normal_outside_one_level_only_fails_the_lift_certificate(shift, outside, monkeypatch):
    # each slice normal's column over the base moved by one unit moves the
    # centre that the lifted normal's last entry is made from: its values
    # then rise on one level and fall on the other, so it is outside
    # vertices of one level only. The certificate reads the upper level
    # alone, the lower level's values being the upper one's negated, so a
    # lifted normal outside only the lower level must still fail it
    K = gen_random_polytope(31, 3, 6, max_numerator=8, max_denominator=4)
    C = lift_body(K)
    C._levels[1].difference.normals
    dots, lifted = bodies.dots, []

    def moved(normals, rows):
        table = dots(normals, rows)
        if len(normals[0]) == C.dim - 1:
            return [[t + shift for t in col] for col in table]
        lifted.append(normals)
        return table

    monkeypatch.setattr(bodies, "dots", moved)
    with pytest.raises(ArithmeticError, match="outside lifted facet normal"):
        C.normals
    # the first lifted normal, the one that failed, reaches further on the
    # level it is outside of than on the other
    _, rows = C.scaled
    [(a, *_)] = lifted
    up, down = (max(dots([a], [X for X in rows if (X[-1] > 0) == upper])[0]) for upper in (True, False))
    assert (down > up) == (outside == "lower") and up != down
