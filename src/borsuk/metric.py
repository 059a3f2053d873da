"""Gauge norms of symmetric bodies, distances, diameters, diameter graphs.

The gauge of a body C at x is the least r >= 0 with x in r*C. Most
bodies carry it in one integer normal form, ``C.normals = (L, N)``:
the gauge is ``max_k N_k . x / L``. A facet body contributes ``a / b``
and ``-a / b`` for each facet |<a, x>| <= b; a vertex body in dimension
1, 2 or 3 the outer normals of the facets of its exact hull, scaled so
that ``a . v = 1`` on each facet. For a vertex body in dimension 4 and
up the gauge is the optimum of the exact LP

    minimize sum(mu)  subject to  sum(mu_i * v_i) = x,  mu >= 0,

which is valid because C is symmetric with the origin interior (so the
positive hull of the vertices is the whole space and the LP is always
feasible).

The diameter pass, which every diameter graph and every partition check
goes through, takes the same two paths. With normals it scales the
points to integers over their common denominator m, projects each point
onto every normal once, and compares the integers
``max_k (N_k . P_i - N_k . P_j)`` pair by pair; the diameter is one
``Fraction`` of the largest over ``L * m``. On the LP path it takes one
gauge LP per distinct difference up to sign.

Membership in C is decided directly: against the facets, by orientation
tests against the exact hull in dimensions 1 to 3, or by one exact LP
from dimension 4. Diameter-graph edges are decided by exact rational
equality; there is no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from . import lp
from .bodies import PointSet, SymmetricBody, VPolytope, contains_point
from .errors import DimensionMismatch, InvalidInput, ZeroDiameter
from .linalg import ONE, ZERO, Vec, canonical_sign, project, vdot, vsub


@dataclass(frozen=True)
class DiameterGraph:
    """Graph on point indices; edges are the pairs attaining the diameter."""

    n_points: int
    diameter: Fraction
    edges: tuple[tuple[int, int], ...]  # pairs (i, j) with i < j


def gauge(C: SymmetricBody, x: Vec) -> Fraction:
    if len(x) != C.dim:
        raise DimensionMismatch(f"point of dim {len(x)} against body of dim {C.dim}")
    if C.normals is not None:
        # normals N_k / L and x = X / m: the gauge is max_k N_k . X / (L * m)
        L, normals = C.normals
        m, (row,) = project((x,), normals)
        return Fraction(max(row), L * m)
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
    """The largest gauge of p_i - p_j over pairs i < j, and every pair
    attaining it when it is positive, in (i, j) order."""
    if C.normals is None:
        return _pairwise_max_by_lp(C, points)
    # points p_i = P_i / m and normals N_k / L: the gauge of p_i - p_j is
    # max_k (N_k . P_i - N_k . P_j) / (L * m), so each point is projected
    # onto the normals once and each pair compares integers
    L, normals = C.normals
    m, projected = project(points, normals)
    best = 0
    witnesses: list[tuple[int, int]] = []
    for i, P in enumerate(projected):
        for j in range(i + 1, len(projected)):
            g = max(map(sub, P, projected[j]))
            if g > best:
                best = g
                witnesses = [(i, j)]
            elif g == best and g > 0:
                witnesses.append((i, j))
    return Fraction(best, L * m), witnesses


def _pairwise_max_by_lp(C: SymmetricBody, points) -> tuple[Fraction, list[tuple[int, int]]]:
    # Many index pairs share a difference, and g(-z) = g(z), so the
    # gauge LPs are memoized on the sign-canonical difference vector.
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
