"""Exact polytope types and constructions.

Everything is immutable and carried in rational arithmetic: vertices
are tuples of ``Fraction``. Convexity work (redundancy removal, hull
membership, interior certification) is exact and never floating point.
In the plane it is answered by one exact convex hull per body
(:func:`planar_hull`, held by the body's ``hull``); in other dimensions,
where facet counts can be exponential in the vertex count, by the exact
simplex in :mod:`borsuk.lp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import lp
from .errors import DegenerateBody, DimensionMismatch, InvalidInput, NotSymmetric
from .linalg import (
    ONE,
    ZERO,
    Vec,
    affine_rank,
    as_vec,
    matrix_rank,
    over_common_denominator,
    vadd,
    vneg,
)

Facet = tuple[Vec, Fraction]  # normal a and offset b, encoding |<a, x>| <= b
HalfPlane = tuple[tuple[int, int], int]  # integer normal n and offset c, encoding n . X <= c


@dataclass(frozen=True)
class VPolytope:
    """Convex polytope given by (a superset of) its vertices."""

    dim: int
    vertices: tuple[Vec, ...]
    pruned: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("dimension must be >= 1")
        if not self.vertices:
            raise InvalidInput("a polytope needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.dim:
                raise DimensionMismatch(f"vertex {v} does not have dim {self.dim}")

    @cached_property
    def hull(self) -> PlanarHull | None:
        """The exact hull of the vertices in the plane, which answers
        pruning and membership with no LP; None in other dimensions."""
        return planar_hull(self.vertices) if self.dim == 2 else None


@dataclass(frozen=True)
class SymmetricBody:
    """Centrally symmetric convex body with the origin interior.

    Exactly one representation is present: ``vertices`` (closed under
    negation) or ``facets`` (pairs |<a, x>| <= b). Instances produced by
    :func:`validate_body` and the constructions below are certified.
    """

    dim: int
    vertices: tuple[Vec, ...] | None = None
    facets: tuple[Facet, ...] | None = None

    def __post_init__(self):
        if (self.vertices is None) == (self.facets is None):
            raise InvalidInput("exactly one of vertices/facets must be given")
        if self.dim < 1:
            raise InvalidInput("dimension must be >= 1")
        if self.vertices is not None:
            for v in self.vertices:
                if len(v) != self.dim:
                    raise DimensionMismatch(f"vertex {v} does not have dim {self.dim}")
        else:
            for a, _ in self.facets:
                if len(a) != self.dim:
                    raise DimensionMismatch(f"facet normal {a} does not have dim {self.dim}")

    @cached_property
    def hull(self) -> PlanarHull | None:
        """The exact hull of a planar vertex body, which answers
        certification, gauges and membership with no LP; None for a facet
        body or outside the plane."""
        if self.dim != 2 or self.vertices is None:
            return None
        return planar_hull(self.vertices)

    @cached_property
    def normals(self) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
        """``(L, N)``, integers with ``gauge(x) = max_k N_k . x / L``, or
        None for a vertex body outside the plane, whose gauge takes an LP.

        A facet body gives ``a / b`` and ``-a / b`` for each facet; each
        offset ``b`` is checked positive. A planar vertex body gives the
        outer normals of its hull's edges, ``a . v = 1`` on each edge, and
        certifies each as it is made: ``a . v <= 1`` at every vertex, with
        equality at both ends of its edge.
        """
        if self.facets is not None:
            for _, b in self.facets:
                if b <= 0:
                    raise DegenerateBody(f"facet offset {b} is not strictly positive")
            L, flat = over_common_denominator([c / b for a, b in self.facets for c in a])
            d = self.dim
            rows = [tuple(flat[k : k + d]) for k in range(0, len(flat), d)]
            # both signs, though |a . x| would need only one: the pairwise
            # pass then takes a plain max for facet and vertex bodies alike
            return L, tuple(rows + [tuple(-c for c in n) for n in rows])
        hull = self.hull
        if hull is None:
            return None
        if not hull.surrounds_origin():
            raise DegenerateBody("origin is not interior (body not full-dimensional)")
        s = hull.scale
        # edge i joins scaled ends P, Q with n_i . P = n_i . Q = c_i, so
        # a_i = n_i * s / c_i gives a_i . v = 1 at v = P / s and v = Q / s
        L, flat = over_common_denominator([Fraction(k * s, c) for n, c in hull.planes for k in n])
        normals = tuple(zip(flat[::2], flat[1::2]))
        _, flat = over_common_denominator([x for v in self.vertices for x in v])
        points = tuple(zip(flat[::2], flat[1::2]))  # the vertices times s
        one = L * s
        corners = hull.corners
        for i, (a, b) in enumerate(normals):
            ends = (corners[i], corners[(i + 1) % len(corners)])
            on_edge = all(a * x + b * y == one for x, y in ends)
            if not on_edge or any(a * x + b * y > one for x, y in points):
                raise ArithmeticError(f"edge normal ({a}, {b})/{L} fails its certificate")
        return L, normals


@dataclass(frozen=True)
class PointSet:
    """Finite labeled set of rational points, pairwise distinct."""

    dim: int
    points: tuple[Vec, ...]
    labels: tuple | None = None

    def __post_init__(self):
        if not self.points:
            raise InvalidInput("a point set needs at least one point")
        for p in self.points:
            if len(p) != self.dim:
                raise DimensionMismatch(f"point {p} does not have dim {self.dim}")
        if len(set(self.points)) != len(self.points):
            # duplicates would make partition counts bookkeeping artifacts
            raise InvalidInput("points must be pairwise distinct")
        if self.labels is not None and len(self.labels) != len(self.points):
            raise InvalidInput("labels must match points one to one")

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class LiftedBody:
    """Symmetric body one dimension up built from a polytope.

    The vertex set is (K x {1}) united with (-K x {-1}); ``provenance``
    keeps the source polytope so partitions of the lifted point set can
    be traced back to it.
    """

    base_dim: int
    body: SymmetricBody
    provenance: VPolytope

    def as_polytope(self) -> VPolytope:
        return VPolytope(self.body.dim, self.body.vertices, pruned=True)


class PlanarHull(NamedTuple):
    """Exact convex hull of a finite planar point set.

    ``vertices`` are its strict extreme points, counter-clockwise from the
    least. ``corners`` are the same points times ``scale``, the least
    common denominator of the set's coordinates, and the hull is the
    intersection of the integer half-planes ``n . X <= c`` in ``planes``
    over such scaled points. The half-plane of edge (P, Q) has
    ``c = P x Q``, the orientation of the origin against that edge. A hull
    that is one point or a segment gets the half-planes that pin it down.

    A named tuple rather than a frozen dataclass: it is as immutable and
    costs a sixth of the time to define when the package is imported.
    """

    vertices: tuple[Vec, ...]
    scale: int
    corners: tuple[tuple[int, int], ...]
    planes: tuple[HalfPlane, ...]

    def contains(self, x: Vec) -> bool:
        """Whether x lies in the hull, boundary included, by one exact
        orientation test per half-plane."""
        m, (X, Y) = over_common_denominator(x)
        s = self.scale
        return all(s * (a * X + b * Y) <= m * c for (a, b), c in self.planes)

    def surrounds_origin(self) -> bool:
        """Whether the origin is interior: strictly inside every
        half-plane, which only a hull of three or more vertices allows."""
        return all(c > 0 for _, c in self.planes)


def _turn(o, a, b) -> int:
    """Twice the signed area of the triangle (o, a, b): positive when
    o -> a -> b turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(points) -> list:
    """Half of the monotone chain: the strict left turns along the points."""
    chain = []
    for p in points:
        while len(chain) >= 2 and _turn(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _half_planes(corners) -> tuple[HalfPlane, ...]:
    """The half-planes whose intersection is the hull of the corners,
    given counter-clockwise."""
    if len(corners) == 1:
        ((x, y),) = corners
        return ((1, 0), x), ((-1, 0), -x), ((0, 1), y), ((0, -1), -y)
    # X is left of P -> Q (or on it) when n . X <= P x Q
    planes = [
        ((qy - py, px - qx), px * qy - py * qx)
        for (px, py), (qx, qy) in zip(corners, corners[1:] + corners[:1])
    ]
    if len(corners) == 2:
        # a segment: its line from both sides, and a cap at each end
        (px, py), (qx, qy) = corners
        planes.append(((px - qx, py - qy), (px - qx) * px + (py - qy) * py))
        planes.append(((qx - px, qy - py), (qx - px) * qx + (qy - py) * qy))
    return tuple(planes)


def planar_hull(points) -> PlanarHull:
    """Exact convex hull of planar points, by Andrew's monotone chain
    (1979) on the points scaled to integers.

    Only strict left turns are kept, so collinear boundary points are
    dropped: the hull's vertices are the strict extreme points,
    counter-clockwise from the least.
    """
    scale, flat = over_common_denominator([c for p in points for c in p])
    by_corner = dict(zip(zip(flat[::2], flat[1::2]), points))
    corners = sorted(by_corner)
    if len(corners) > 2:
        corners = _chain(corners)[:-1] + _chain(reversed(corners))[:-1]
    return PlanarHull(
        tuple(by_corner[p] for p in corners), scale, tuple(corners), _half_planes(corners)
    )


def vpolytope(points, pruned=False) -> VPolytope:
    """Coercing constructor: accepts ints/strings/Fractions as coords."""
    verts = tuple(as_vec(p) for p in points)
    return VPolytope(len(verts[0]), verts, pruned=pruned)


def point_set(points, labels=None) -> PointSet:
    pts = tuple(as_vec(p) for p in points)
    return PointSet(len(pts[0]), pts, tuple(labels) if labels is not None else None)


def body_from_vertices(points) -> SymmetricBody:
    """Build and certify a symmetric body from its vertex list."""
    verts = tuple(as_vec(p) for p in points)
    return validate_body(SymmetricBody(len(verts[0]), vertices=verts))


def body_from_facets(facets) -> SymmetricBody:
    """Build and certify a symmetric body from facet pairs (a, b)."""
    fs = tuple((as_vec(a), Fraction(b)) for a, b in facets)
    return validate_body(SymmetricBody(len(fs[0][0]), facets=fs))


def contains_point(generators: tuple[Vec, ...], x: Vec) -> bool:
    """Exact test whether x lies in the convex hull of the generators."""
    res = lp.solve_combination(generators, x, groups=[range(len(generators))])
    return res.status == lp.OPTIMAL


def _axis_extent(vertices: tuple[Vec, ...], axis: int) -> Fraction:
    """Largest t with t*e_axis in conv(vertices), by exact LP.

    For a negation-closed vertex set the origin is interior exactly when
    this extent is positive along every axis (the hull then contains a
    small cross-polytope around the origin).
    """
    dim = len(vertices[0])
    n = len(vertices)
    step = tuple(-ONE if k == axis else ZERO for k in range(dim))
    res = lp.solve_combination(
        (*vertices, step), (ZERO,) * dim, cost=[ZERO] * n + [-ONE], groups=[range(n)]
    )
    if res.status != lp.OPTIMAL:
        return ZERO
    return -res.value


def validate_body(candidate: SymmetricBody) -> SymmetricBody:
    """Certify central symmetry and interiority of the origin.

    Vertex form: the vertex set must be closed under negation, and the
    origin must be interior: strictly left of every edge of the exact
    hull in the plane, and checked by one exact LP per axis in other
    dimensions. Facet
    form: offsets must be strictly positive and the normals must span
    the space, otherwise the "body" is unbounded.
    """
    if candidate.vertices is not None:
        vset = set(candidate.vertices)
        for v in candidate.vertices:
            if vneg(v) not in vset:
                raise NotSymmetric(f"vertex {v} has no mirror {vneg(v)}")
        if candidate.hull is not None:
            interior = candidate.hull.surrounds_origin()
        else:
            interior = all(_axis_extent(candidate.vertices, k) > 0 for k in range(candidate.dim))
        if not interior:
            raise DegenerateBody("origin is not interior (body not full-dimensional)")
    else:
        for a, b in candidate.facets:
            if b <= 0:
                raise DegenerateBody(f"facet offset {b} is not strictly positive")
            if all(x == 0 for x in a):
                raise DegenerateBody("zero facet normal")
        if matrix_rank([a for a, _ in candidate.facets]) < candidate.dim:
            raise DegenerateBody("facet normals do not span the space (unbounded)")
    return candidate


def negate(K: VPolytope) -> VPolytope:
    """Reflect a polytope through the origin. Involutive; keeps pruning."""
    return VPolytope(K.dim, tuple(vneg(v) for v in K.vertices), pruned=K.pruned)


def prune_redundant(P: VPolytope) -> VPolytope:
    """Remove every point expressible from the others.

    The survivors are exactly the extreme points of the hull, in sorted
    order. In the plane they are the vertices of the exact hull. In other
    dimensions, candidates are scanned in sorted order by exact LPs; a
    point found inside the hull of the current survivors is dropped
    immediately, which never changes the hull and shrinks the later LPs.
    """
    if P.hull is not None:
        return VPolytope(P.dim, tuple(sorted(P.hull.vertices)), pruned=True)
    unique = sorted(set(P.vertices))
    if len(unique) == 1:
        return VPolytope(P.dim, tuple(unique), pruned=True)
    survivors = list(unique)
    idx = 0
    while idx < len(survivors):
        candidate = survivors[idx]
        rest = survivors[:idx] + survivors[idx + 1 :]
        if contains_point(tuple(rest), candidate):
            del survivors[idx]
        else:
            idx += 1
    return VPolytope(P.dim, tuple(survivors), pruned=True)


def minkowski_sum(A: VPolytope, B: VPolytope) -> VPolytope:
    """Pruned hull of all pairwise vertex sums."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"dims {A.dim} and {B.dim} differ")
    sums = {vadd(a, b) for a in A.vertices for b in B.vertices}
    return prune_redundant(VPolytope(A.dim, tuple(sorted(sums))))


def is_full_dimensional(K: VPolytope) -> bool:
    return affine_rank(list(K.vertices)) == K.dim


def difference_body(K: VPolytope) -> SymmetricBody:
    """The centrally symmetric body K - K, as a certified vertex body.

    When K = -K, K - K = 2K, whose vertices are twice those of K: the
    quadratic set of pairwise sums is then neither built nor pruned.
    """
    if not is_full_dimensional(K):
        raise DegenerateBody("difference body requires a full-dimensional polytope")
    vset = set(K.vertices)
    if all(vneg(v) in vset for v in vset):
        base = K if K.pruned else prune_redundant(K)
        verts = tuple(sorted({tuple(2 * c for c in v) for v in base.vertices}))
    else:
        verts = minkowski_sum(K, negate(K)).vertices
    return validate_body(SymmetricBody(K.dim, vertices=verts))


def lift_body(K: VPolytope) -> LiftedBody:
    """Symmetrize K one dimension up: hull of (K, +1) and (-K, -1).

    A lifted point (v, 1) is a convex combination of the other lifted
    points only if all weight sits at height +1, i.e. only if v was
    already redundant in K; so pruning K first makes the lift pruned.
    """
    if not is_full_dimensional(K):
        raise DegenerateBody("lift requires a full-dimensional polytope")
    base = K if K.pruned else prune_redundant(K)
    up = [v + (ONE,) for v in base.vertices]
    down = [vneg(v) + (-ONE,) for v in base.vertices]
    body = validate_body(SymmetricBody(K.dim + 1, vertices=tuple(sorted(up + down))))
    return LiftedBody(base_dim=K.dim, body=body, provenance=K)


def lift_set(S: PointSet) -> PointSet:
    """Two labeled copies one dimension up: (S, +1) and (-S, -1).

    Labels record (source index, sign) so partitions of the lifted set
    can be mapped back to the original indices.
    """
    up = [p + (ONE,) for p in S.points]
    down = [vneg(p) + (-ONE,) for p in S.points]
    labels = [(i, 1) for i in range(len(S.points))] + [(i, -1) for i in range(len(S.points))]
    return PointSet(S.dim + 1, tuple(up + down), tuple(labels))


def scale_polytope(K: VPolytope, t: Fraction) -> VPolytope:
    if t == 0:
        raise ValueError("scale factor must be nonzero")
    return VPolytope(K.dim, tuple(tuple(t * x for x in v) for v in K.vertices), pruned=K.pruned)
