"""Gauge norms of symmetric bodies, distances, diameters, diameter graphs.

The gauge of a body C at x is the least r >= 0 with x in r*C. For a
facet body it is a maximum of exact ratios. For a planar vertex body it
is ``max_i a_i . x`` over the outer normals of the edges of C's exact
hull, scaled so that ``a_i . v = 1`` on edge i; the normals are integers
over one common denominator, so the maximum is taken over integer dot
products. For a vertex body in any other dimension it is the optimum of
the exact LP

    minimize sum(mu)  subject to  sum(mu_i * v_i) = x,  mu >= 0,

which is valid because C is symmetric with the origin interior (so the
positive hull of the vertices is the whole space and the LP is always
feasible). Membership in C is decided directly: against the facets, by
orientation tests against the exact hull in the plane, or by one exact
LP in other dimensions.
Diameter-graph edges are decided by exact rational equality; there is no
tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .bodies import PointSet, SymmetricBody, VPolytope, contains_point
from .errors import DimensionMismatch, InvalidInput, ZeroDiameter
from .linalg import ONE, ZERO, Vec, canonical_sign, over_common_denominator, vdot, vsub


@dataclass(frozen=True)
class DiameterGraph:
    """Graph on point indices; edges are the pairs attaining the diameter."""

    n_points: int
    diameter: Fraction
    edges: tuple[tuple[int, int], ...]  # pairs (i, j) with i < j


def gauge(C: SymmetricBody, x: Vec) -> Fraction:
    if len(x) != C.dim:
        raise DimensionMismatch(f"point of dim {len(x)} against body of dim {C.dim}")
    if C.facets is not None:
        return max(abs(vdot(a, x)) / b for a, b in C.facets)
    if C.hull is not None:
        # edge normals N_i / L and x = X / m: the gauge is max_i N_i . X / (L * m)
        L, normals = C.edge_normals
        m, (X, Y) = over_common_denominator(x)
        return Fraction(max(a * X + b * Y for a, b in normals), L * m)
    if all(v == 0 for v in x):
        return ZERO
    res = lp.solve_combination(C.vertices, x, cost=[ONE] * len(C.vertices))
    # a validated body keeps this LP feasible for every x
    if res.status != lp.OPTIMAL:
        raise ValueError("gauge LP failed; body was not validated")
    return res.value


def distance(C: SymmetricBody, x: Vec, y: Vec) -> Fraction:
    """Gauge distance; symmetric in x and y since C = -C."""
    if len(x) != len(y):
        raise DimensionMismatch("points of different dimensions")
    return gauge(C, vsub(x, y))


def _pairwise_max(C: SymmetricBody, points) -> tuple[Fraction, list[tuple[int, int]]]:
    # Many index pairs share a difference, and g(-z) = g(z), so the
    # gauges are memoized on the sign-canonical difference vector.
    memo: dict[Vec, Fraction] = {}
    best = ZERO
    witnesses: list[tuple[int, int]] = []
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            key = canonical_sign(vsub(points[i], points[j]))
            d = memo.get(key)
            if d is None:
                d = gauge(C, key)
                memo[key] = d
            if d > best:
                best = d
                witnesses = [(i, j)]
            elif d == best and d > 0:
                witnesses.append((i, j))
    return best, witnesses


def set_diameter(C: SymmetricBody, S: PointSet) -> tuple[Fraction, list[tuple[int, int]]]:
    """Exact maximum pairwise distance and every attaining pair."""
    if S.dim != C.dim:
        raise DimensionMismatch(f"set of dim {S.dim} against body of dim {C.dim}")
    if len(S.points) == 1:
        return ZERO, []
    return _pairwise_max(C, S.points)


def polytope_diameter(C: SymmetricBody, K: VPolytope) -> Fraction:
    """Diameter of the solid polytope K under the gauge of C.

    Reducing to vertex pairs is exact: (x, y) -> gauge(x - y) is convex,
    and a convex function on the product polytope K x K attains its
    maximum at an extreme point, which is a pair of vertices of K.
    """
    if K.dim != C.dim:
        raise DimensionMismatch(f"polytope of dim {K.dim} against body of dim {C.dim}")
    unique = sorted(set(K.vertices))
    if len(unique) == 1:
        return ZERO
    best, _ = _pairwise_max(C, unique)
    return best


def diameter_graph(C: SymmetricBody, S: PointSet) -> DiameterGraph:
    """Edges at exact rational equality with the maximum distance."""
    if len(S.points) < 2:
        raise InvalidInput("diameter graph needs at least two points")
    diam, witnesses = set_diameter(C, S)
    return DiameterGraph(len(S.points), diam, tuple(witnesses))


def normalize_to_unit_diameter(C: SymmetricBody, S: PointSet) -> tuple[PointSet, Fraction]:
    """Scale S so its diameter under C becomes exactly 1.

    Returns the scaled set and the applied factor 1/diameter.
    """
    diam, _ = set_diameter(C, S)
    if diam == 0:
        raise ZeroDiameter("cannot normalize a singleton")
    scale = ONE / diam
    scaled = PointSet(S.dim, tuple(tuple(scale * c for c in p) for p in S.points), S.labels)
    return scaled, scale


def body_contains(C: SymmetricBody, x: Vec) -> bool:
    """Membership x in C checked directly (not via the gauge LP)."""
    if len(x) != C.dim:
        raise DimensionMismatch(f"point of dim {len(x)} against body of dim {C.dim}")
    if C.facets is not None:
        return all(abs(vdot(a, x)) <= b for a, b in C.facets)
    if C.hull is not None:
        return C.hull.contains(x)
    return contains_point(C.vertices, x)
