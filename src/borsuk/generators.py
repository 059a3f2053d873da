"""Seeded random instances and standard fixture bodies.

Instances regenerate bit-identically from (seed, parameters): the only
randomness source is ``random.Random(seed)``, whose integer methods are
stable across platforms. Coordinates are kept small (numerators and
denominators bounded) so the exact LPs downstream stay fast.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .bodies import (
    PointSet,
    SymmetricBody,
    VPolytope,
    body_from_facets,
    is_full_dimensional,
    prune_redundant,
)
from .errors import DegenerateBody, GenerationFailed

import random

RETRY_BUDGET = 64


def _rand_coord(rng, max_numerator=16, max_denominator=16) -> Fraction:
    return Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator))


def _rand_point(rng, dim, max_numerator=16, max_denominator=16):
    return tuple(_rand_coord(rng, max_numerator, max_denominator) for _ in range(dim))


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
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        pts = [_rand_point(rng, dim, max_numerator, max_denominator) for _ in range(n_vertex_pairs)]
        sym = set(pts) | {tuple(-c for c in p) for p in pts}
        pruned = prune_redundant(VPolytope(dim, tuple(sorted(sym))))
        try:
            return SymmetricBody(dim, vertices=pruned.vertices, seed_hull=pruned.hull)
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
        pts = {_rand_point(rng, dim, max_numerator, max_denominator) for _ in range(n_points)}
        if len(pts) < dim + 1:
            continue
        cand = VPolytope(dim, tuple(sorted(pts)))
        if is_full_dimensional(cand):
            return prune_redundant(cand)
    raise GenerationFailed(f"no full-dimensional polytope after {RETRY_BUDGET} tries")


def gen_random_points(
    seed: int,
    dim: int,
    count: int,
    max_numerator: int = 16,
    max_denominator: int = 16,
) -> PointSet:
    """Random set of pairwise distinct rational points."""
    rng = random.Random(seed)
    pts: list = []
    seen = set()
    attempts = 0
    while len(pts) < count:
        p = _rand_point(rng, dim, max_numerator, max_denominator)
        attempts += 1
        if attempts > 100 * count:
            raise GenerationFailed("cannot sample enough distinct points")
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return PointSet(dim, tuple(pts))


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
    pts = sorted(product((Fraction(-1), Fraction(1)), repeat=dim))
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
