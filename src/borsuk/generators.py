"""Seeded random instances and standard fixture bodies.

Instances regenerate bit-identically from (seed, parameters): the only
randomness source is ``random.Random(seed)``, whose ``getrandbits`` is
stable across platforms. Coordinates are kept small (numerators and
denominators bounded) so the exact LPs downstream stay fast; a bound that
is no int, a negative ``max_numerator`` or a ``max_denominator`` below 1
is refused with ``InvalidInput`` before any draw.

Each coordinate draws its numerator and then its denominator, as
``randint`` would, by CPython's rejection rule written out on
``getrandbits``: for ``width`` values, draw ``width.bit_length()`` bits,
and again while the value is ``>= width``. The rule reads the same in
CPython 3.10 to 3.13. Each point goes straight into the integer form
every layer below reads: a row of ints, the point times the lcm of the
denominators drawn (:func:`_draw`).
A positive scale keeps both equality and lexicographic order, so
deduplicating, negating, sorting and the rank test run on the rows and
give the same points, in the same order, as on ``Fraction`` tuples.
Pruning divides the rows by their gcd with the scale, down to the least
common denominator, and hulls them (:func:`borsuk.bodies.prune_redundant`);
a random point set, polytope or body is built from its rows alone,
divided the same way, as its scaled form. ``Fraction``s are made only
when its points are read (in dimension 4, by the LPs that prune a
polytope or body), and the rng stream is that of drawing each
coordinate as a ``Fraction``, so every instance is unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm

from .bodies import PointSet, Scaled, SymmetricBody, VPolytope, body_from_facets, prune_redundant
from .errors import DegenerateBody, GenerationFailed, InvalidInput
from .linalg import affine_rank, common_scale, lowest_terms, vneg

RETRY_BUDGET = 64


def _draw(rng, count: int, dim: int, max_numerator: int, max_denominator: int) -> Scaled:
    """``count`` random points as ``(m, rows)``: each coordinate the
    numerator ``randint(-max_numerator, max_numerator)`` over the
    denominator ``randint(1, max_denominator)``, drawn in that order, and
    each point times m, the lcm of the denominators drawn (not of 1 to
    ``max_denominator``, which has about 0.43 * max_denominator digits),
    as a row of ints.

    Each ``randint(a, b)`` is ``a + r``, ``r`` drawn below the width
    ``b - a + 1`` by the module's rejection rule without ``randint``'s
    three Python frames, so the values and the final state of ``rng`` are
    ``randint``'s: a width of 1 still draws a bit per call, and 3.10's
    guard for a width of 0 never fires, as the bounds are checked first."""
    if dim < 1:
        raise InvalidInput("dimension must be >= 1")
    for name, bound, least in (("max_numerator", max_numerator, 0), ("max_denominator", max_denominator, 1)):
        if type(bound) is not int or bound < least:
            raise InvalidInput(f"{name} must be an int >= {least}, not {bound!r}")
    getrandbits = rng.getrandbits
    wn, wd = 2 * max_numerator + 1, max_denominator
    kn, kd = wn.bit_length(), wd.bit_length()
    drawn = []
    for _ in range(count * dim):
        n = getrandbits(kn)
        while n >= wn:
            n = getrandbits(kn)
        d = getrandbits(kd)
        while d >= wd:
            d = getrandbits(kd)
        drawn.append((n - max_numerator, d + 1))
    m = lcm(*{d for _, d in drawn})
    # dim references to one iterator: zip cuts it into rows of dim entries
    return m, list(zip(*[iter([n * (m // d) for n, d in drawn])] * dim))


def gen_random_body(
    seed: int,
    dim: int,
    n_vertex_pairs: int,
    max_numerator: int = 16,
    max_denominator: int = 16,
) -> SymmetricBody:
    """Random symmetric polytope: sampled points plus their negations.

    The body keeps the hull its points were pruned with. Retries with
    fresh samples until the pruned hull is full-dimensional;
    raises :class:`GenerationFailed` when the retry budget runs out
    (e.g. a single vertex pair in the plane is always a segment).
    """
    if n_vertex_pairs < 1:
        raise InvalidInput("a polytope needs at least one vertex")
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        m, rows = _draw(rng, n_vertex_pairs, dim, max_numerator, max_denominator)
        pruned = prune_redundant(VPolytope(dim, scaled=lowest_terms(m, {*rows, *map(vneg, rows)})))
        try:
            return SymmetricBody(dim, scaled=pruned.scaled, seed_hull=pruned.hull)
        except DegenerateBody:
            continue
    raise GenerationFailed(f"no full-dimensional symmetric body after {RETRY_BUDGET} tries")


def gen_random_polytope(
    seed: int,
    dim: int,
    n_points: int,
    max_numerator: int = 16,
    max_denominator: int = 16,
) -> VPolytope:
    """Random full-dimensional polytope (pruned vertex form)."""
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        m, rows = _draw(rng, n_points, dim, max_numerator, max_denominator)
        if affine_rank(rows) == dim:
            return prune_redundant(VPolytope(dim, scaled=lowest_terms(m, set(rows))))
    raise GenerationFailed(f"no full-dimensional polytope after {RETRY_BUDGET} tries")


def gen_random_points(
    seed: int,
    dim: int,
    count: int,
    max_numerator: int = 16,
    max_denominator: int = 16,
) -> PointSet:
    """Random set of pairwise distinct rational points, in the order drawn.

    The points still missing are drawn together, and drawn again while a
    duplicate leaves some missing; at most ``100 * count`` are drawn.
    The rows kept are held over the lcm of every scale drawn so far, and
    handed on, over the least common denominator, as the set's scaled form.
    """
    rng = random.Random(seed)
    m, kept = 1, {}  # the distinct rows over m, in the order drawn
    budget = 100 * count
    while len(kept) < count:
        # a set completes only on the last point of a batch, so the batch
        # that would pass the budget fails whole
        k = min(count - len(kept), budget + 1)
        mb, batch = _draw(rng, k, dim, max_numerator, max_denominator)
        budget -= k
        if budget < 0:
            raise GenerationFailed("cannot sample enough distinct points")
        m, (kept, batch) = common_scale((m, kept), (mb, batch))
        kept = dict.fromkeys([*kept, *batch])
    return PointSet(dim, scaled=lowest_terms(m, kept))


def cube_body(dim: int, facet_form: bool = True) -> SymmetricBody:
    """The cube [-1, 1]^dim; facet form by default (its gauge is the
    max-coordinate norm, evaluated without an LP)."""
    if facet_form:
        facets = []
        for i in range(dim):
            normal = tuple(Fraction(int(j == i)) for j in range(dim))
            facets.append((normal, Fraction(1)))
        return body_from_facets(facets)
    return SymmetricBody(dim, vertices=tuple(sorted(cube_vertices(dim).points)))


def cube_vertices(dim: int) -> PointSet:
    # a dimension below 1 draws the one empty point, which PointSet refuses
    pts = sorted(product((Fraction(-1), Fraction(1)), repeat=max(dim, 0)))
    return PointSet(dim, tuple(pts))


def cross_polytope_body(dim: int) -> SymmetricBody:
    """Unit ball of the sum-of-absolute-values norm, in vertex form."""
    verts = []
    for i in range(dim):
        e = tuple(Fraction(int(j == i)) for j in range(dim))
        verts.append(e)
        verts.append(tuple(-c for c in e))
    return SymmetricBody(dim, vertices=tuple(sorted(verts)))


def parallelogram_body() -> SymmetricBody:
    """A sheared symmetric parallelogram, vertices (+-1, 0), (+-1, +-1)."""
    return SymmetricBody(
        2,
        vertices=(
            (Fraction(-1), Fraction(-1)),
            (Fraction(-1), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
        ),
    )
