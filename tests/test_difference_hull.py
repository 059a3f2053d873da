"""The hull of ``K - K`` read off K's own hull, against the hull of its sums.

In the plane and in space :func:`borsuk.bodies.difference_body` builds the
hull of ``K - K`` from K's corners and planes (``bodies._difference_hull``:
an edge merge in the plane, K's facet normals and the cross products of
its disjoint edges in space) and certifies it through K's projections,
with no table over the n^2 sums. Each body is compared with
:func:`borsuk.bodies.integer_hull` of the explicit sums, over their least
common denominator, and with ``oracles.fraction_difference_body``, which
hulls the sums made as ``Fraction`` points: hulls, vertices and normals
must be identical. The inputs are seeded polytopes in 2D and 3D; lattice
clouds in {0,1,2,3}^2 and {0,1,2}^3, full of parallel edges and coplanar
corners; the square, the cube and the simplex; unpruned polytopes whose
inner point has a finer denominator than their corners, so that the
sums' scale is finer than the corners' differences need; and polytopes
marked pruned that still list an inner point.
"""

import random
from fractions import Fraction
from itertools import product
from operator import sub

from borsuk import bodies
from borsuk.bodies import VPolytope, difference_body, integer_hull, is_full_dimensional, vpolytope
from borsuk.generators import gen_random_polytope
from borsuk.linalg import differences, lowest_terms, vneg
from oracles import fraction_difference_body

F = Fraction


def _centroid(K):
    return tuple(sum(c) / len(K.vertices) for c in zip(*K.vertices))


def _inputs():
    """Full-dimensional polytopes in 2D and 3D, none closed under negation."""
    rng = random.Random(20261021)
    polytopes = [
        vpolytope(list(product(range(2), repeat=2))),
        vpolytope(list(product(range(2), repeat=3))),
        vpolytope([(0, 0), (1, 0), (0, 1)]),
        vpolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ]
    for seed in range(120):
        dim = 2 + seed % 2
        K = gen_random_polytope(3700 + seed, dim, dim + 2 + seed % 5, max_numerator=8, max_denominator=1 + seed % 4)
        polytopes.append(K)
        if seed % 3 == 0:
            # unpruned, with an inner point of finer denominator than K's
            inner = tuple(c * F(1, 7) + F(1, 14) for c in _centroid(K))
            polytopes.append(VPolytope(dim, K.vertices + (inner,)))
        if seed % 3 == 1:
            # marked pruned, yet listing an inner point
            polytopes.append(vpolytope(K.vertices + (_centroid(K),), pruned=True))
    for box in (list(product(range(4), repeat=2)), list(product(range(3), repeat=3))):
        for _ in range(60):
            polytopes.append(vpolytope(rng.sample(box, rng.randint(3, 9))))
    for K in polytopes:
        rows = set(K.scaled[1])
        if is_full_dimensional(K) and not all(vneg(X) in rows for X in rows):
            yield K


def _sums_hull(K):
    m, rows = K.scaled
    return integer_hull(*lowest_terms(m, {tuple(map(sub, a, b)) for a in rows for b in rows}))


def _copy(K):
    return VPolytope(K.dim, K.vertices, pruned=K.pruned, seed_hull=K.seed_hull)


def test_difference_hulls_match_the_hulls_of_their_sums(monkeypatch):
    builds = []
    build = bodies._difference_hull
    monkeypatch.setattr(bodies, "_difference_hull", lambda *args: builds.append(args) or build(*args))
    inputs = list(_inputs())
    merged, coarser, finer = 0, 0, 0
    for K in inputs:
        D = difference_body(_copy(K))
        assert D.hull == _sums_hull(K)
        assert D.scaled == (D.hull.scale, tuple(sorted(D.hull.corners)))
        expected = fraction_difference_body(_copy(K))
        assert D == expected and D.hull == expected.hull and D.normals == expected.normals
        # parallel edges of K and -K merge into one of K - K
        merged += K.dim == 2 and len(D.hull.corners) < 2 * len(K.hull.corners)
        # the sums can be coarser than K, and finer than K's corners' sums
        coarser += D.hull.scale < K.scaled[0]
        corners = K.hull.corners
        finer += D.hull.scale > lowest_terms(K.scaled[0], [tuple(map(sub, a, b)) for a in corners for b in corners])[0]
    assert len(builds) == len(inputs)
    assert merged >= 20 and coarser >= 5 and finer >= 20, (merged, coarser, finer)


def test_the_sums_scale_is_read_from_every_row():
    # the corners of K - K are integers, but the sums through the inner
    # point have denominator 3, so its hull is at scale 3, as the sums' is
    for K in (
        VPolytope(2, ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(1, 3), F(1, 3)))),
        vpolytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (F(1, 3), F(1, 3), F(1, 3))], pruned=True),
    ):
        D = difference_body(K)
        assert D.hull.scale == 3 and all(x % 3 == 0 for X in D.hull.corners for x in X)
        assert D.hull == _sums_hull(K) == fraction_difference_body(_copy(K)).hull


def test_the_sums_scale_is_that_of_every_difference():
    # the differences from one row span the lattice of all n^2, so their
    # gcd with m gives the scale lowest_terms finds over all of them, also
    # over an m that is not the rows' least common denominator
    rng = random.Random(20261022)
    for seed in range(200):
        dim = 2 + seed % 2
        K = gen_random_polytope(seed, dim, dim + 1 + seed % 6, max_numerator=8, max_denominator=1 + seed % 6)
        m, rows = K.scaled
        k = rng.randint(2, 12)
        for K in (K, VPolytope(dim, scaled=(m * k, [tuple([x * k * rng.randint(1, 3) for x in X]) for X in rows]))):
            m, rows = K.scaled
            assert difference_body(K).hull.scale == lowest_terms(m, differences(rows, rows))[0]


def test_no_difference_is_made_for_a_k_with_a_hull(monkeypatch):
    # in the plane and in space the pruned candidates are the seed hull's
    # corners: the n^2 differences are neither made nor hulled
    def refuse(A, B):
        raise AssertionError("the n^2 differences were made")

    def faces_only(A, B):
        # the faces attaining each plane's top are differenced, not K
        return refuse(A, B) if A is B else differences(A, B)

    polytopes = [gen_random_polytope(seed, 2 + seed % 2, 5 + seed % 2, 8, 4) for seed in range(40)]
    for K in polytopes:
        K.hull  # made with the polytope, before the guards are set
    monkeypatch.setattr(bodies, "differences", faces_only)
    monkeypatch.setattr(bodies, "integer_hull", lambda m, rows: refuse(rows, rows))
    pruned = []
    prune = bodies.prune_redundant
    monkeypatch.setattr(bodies, "prune_redundant", lambda P: pruned.append(P) or prune(P))
    for K in polytopes:
        pruned.clear()
        D = difference_body(K)
        (P,) = pruned
        assert sorted(P.scaled[1]) == sorted(D.hull.corners) and P.scaled[0] == D.hull.scale
