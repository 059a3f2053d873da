"""Exact polytope types and constructions.

Everything is immutable and exact, never floating point: vertices are
tuples of ``Fraction``, and each polytope, vertex body and point set
also carries one scaled form ``scaled = (m, rows)``, its points times a
common denominator m as rows of ints, made once from the points or given
in their place. Every construction here and in the generators builds its
result from the rows alone, and the ``Fraction`` tuples are made only
when they are read, once, by :func:`borsuk.linalg.rational_points`:
checks run on the rows, and a refused row is made a point only to be
shown. The convexity work reads that form alone. A
symmetric body is certified where it is made, so none exists uncertified:
a vertex body by linear algebra alone, its integer rows closed under
negation and spanning the space, and a facet body by its normals
(:func:`validate_body`, called by the body's constructor).
Redundancy removal is answered in dimensions 1 to 3 by one exact convex
hull per body (:func:`integer_hull` of the scaled form, held by the
body's ``hull``), in integer form and certified once, where it is made,
by one function, :func:`_certified`. The difference body ``K - K`` of a
polytope with a hull in the plane or in space takes a hull read off K's
own instead (:func:`_difference_hull`: K's and -K's edges merged by
angle in the plane, K's facet normals and the cross products of its
disjoint edges in space), certified by that function through K's
projections, so its n^2 differences are never hulled.
Every pruned polytope comes from :func:`prune_redundant`, which returns
one already pruned as it is: Minkowski sums, difference bodies and the
generators build a polytope of their integer rows and prune it there,
so a set is hulled once, and a flat one falls back to the LP. Gauges,
membership and planar outlines all read one integer form, the facet
normals ``SymmetricBody.normals``, read from that hull or made from a
facet body's facets. A symmetric lift, the hull of
``(A, h)`` and ``(-A, -h)``, takes its facets from the hull of its
middle slice ``A - A`` one dimension down, each certified as it is made.
Every lift made by :func:`lift_body` does so in every dimension, so its
lifted points are never hulled; a lift read from its vertices does so
where it has no hull, in dimension 4, which it then answers without an
LP. Constructions hand on what they build:
a pruned polytope keeps the hull it was pruned with, the difference body
is built on the hull of its pruned differences and kept on its polytope, a
lift's slice is that same difference body of the lift's base, so
``K - K`` is hulled and certified once however many of these ask for it,
and pruned polytopes, difference bodies, lifts, lifted point sets and
random point sets are built from the integer rows they were made of, so
no ``Fraction`` is made that nothing reads, nor scaled back to its row.
Other bodies from dimension 4, where facet counts can be exponential in
the vertex count, and flat sets, which have no facets, are answered by
the exact simplex in :mod:`borsuk.lp`: flat sets take the LP in every
dimension. The LPs read the integer rows too: pruning scans a set's
rows, and membership and gauge LPs a body's, so no ``Fraction`` point
is made on the way down to the LP.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import add, sub
from typing import NamedTuple

from . import lp
from ._value import Value
from .errors import DegenerateBody, DimensionMismatch, InvalidInput, NotSymmetric
from .linalg import (
    Vec,
    affine_rank,
    as_vec,
    canonical_sign,
    common_scale,
    differences,
    dots,
    lowest_terms,
    matrix_rank,
    over_common_denominator,
    rational_points,
    show,
    vneg,
)

Facet = tuple[Vec, Fraction]  # normal a and offset b, encoding |<a, x>| <= b
HalfSpace = tuple[tuple[int, ...], int]  # integer normal n and offset c, encoding n . X <= c
Scaled = tuple[int, tuple[tuple[int, ...], ...]]  # a common denominator m and each point times m


def _keep_points(obj, name: str, given, scaled: Scaled | None, empty: str, kind: str) -> None:
    """Keep the points of a point set, polytope or vertex body on ``obj``:
    as the ``Fraction`` tuples given, under ``name``, and as the scaled form
    given, or as that scaled form alone, from which the tuples are made on
    first read. Checks that there is at least one point, each of
    ``obj.dim`` coordinates, on the tuples given or else on the rows; a
    refused row is made a point only to be shown."""
    held = vars(obj)
    if scaled is not None:
        held["scaled"] = scaled
    if given is not None:
        held[name] = points = given
    else:
        points = scaled[1] if scaled is not None else ()
    if not points:
        raise InvalidInput(empty)
    for p in points:
        if len(p) != obj.dim:
            shown = p if given is not None else rational_points(scaled[0], [p])[0]
            raise DimensionMismatch(f"{kind} {show(shown)} does not have dim {obj.dim}")


class _VertexForm:
    """The integer form of a vertex set, shared by polytopes and vertex
    bodies: one scaled form, the vertices made from it when they were not
    given, and the hull made from it."""

    # a polytope has no facets; a body's own field shadows this
    facets = None

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        """The vertices as tuples of ``Fraction``, for a polytope or body
        built from its scaled form alone: made from it on first read, then
        an ordinary attribute."""
        return rational_points(*self.scaled)

    @cached_property
    def scaled(self) -> Scaled:
        """``(m, X)``, each vertex times a common denominator m, in the
        vertices' order, made once unless it was handed on: a seed hull's
        scale and sorted corners when one was handed on (its vertices are
        the hull's, sorted, so its corners are the vertices at that scale,
        which may be finer than theirs), else the least common
        denominator."""
        hull = self.seed_hull
        if hull is not None:
            return hull.scale, tuple(sorted(hull.corners))
        return over_common_denominator(self.vertices)

    @cached_property
    def hull(self) -> Hull | None:
        """The exact hull of the vertices, which answers pruning with no LP
        and from which a body's normals are made: the seed hull when one
        was handed on, else :func:`integer_hull`'s of the scaled form,
        which is None from dimension 4 and for a flat set (flat sets take
        the LP in every dimension); None for a facet body."""
        if self.facets is not None:
            return None
        return self.seed_hull if self.seed_hull is not None else integer_hull(*self.scaled)


# Each class below is a value type (:class:`borsuk._value.Value`) whose
# ``__init__`` can leave its points out: the field ``vertices`` or
# ``points`` is then the cached property that makes them from the scaled
# form, which ``==``, ``hash`` and ``repr`` read like any other field.


class VPolytope(_VertexForm, Value):
    """Convex polytope given by (a superset of) its vertices, as tuples of
    ``Fraction`` or as a scaled form ``scaled=(m, rows)`` alone."""

    _fields = ("dim", "vertices", "pruned")
    dim: int
    vertices: tuple[Vec, ...]
    pruned: bool
    # the hull this polytope was pruned with, read only through ``hull``
    seed_hull: Hull | None

    def __init__(self, dim, vertices=None, pruned=False, *, seed_hull=None, scaled=None):
        vars(self).update(dim=dim, pruned=pruned, seed_hull=seed_hull)
        if dim < 1:
            raise InvalidInput("dimension must be >= 1")
        _keep_points(self, "vertices", vertices, scaled, "a polytope needs at least one vertex", "vertex")

    @cached_property
    def difference(self) -> SymmetricBody:
        """The difference body ``K - K``, built once: see
        :func:`difference_body`."""
        hull = self.hull
        # a polytope with a hull is full-dimensional
        if hull is None and not is_full_dimensional(self):
            raise DegenerateBody("difference body requires a full-dimensional polytope")
        m, rows = self.scaled
        distinct = set(rows)
        if all(vneg(X) in distinct for X in distinct):
            m, rows = prune_redundant(self).scaled
            scaled = lowest_terms(m, [tuple([2 * x for x in X]) for X in sorted(set(rows))])
            hull = None
        else:
            scaled = lowest_terms(m, differences(rows, rows))
            # in the plane and in space the differences' hull is read off K's
            seed = None if hull is None or self.dim == 1 else _difference_hull(hull, rows, m // scaled[0])
            pruned = prune_redundant(VPolytope(self.dim, scaled=scaled, seed_hull=seed))
            scaled, hull = pruned.scaled, pruned.hull
        return SymmetricBody(self.dim, scaled=scaled, seed_hull=hull)


class SymmetricBody(_VertexForm, Value):
    """Centrally symmetric convex body with the origin interior.

    Exactly one representation is present: ``vertices`` (closed under
    negation), given as tuples of ``Fraction`` or as a scaled form
    ``scaled=(m, rows)`` alone, or ``facets`` (pairs |<a, x>| <= b). Every
    instance is certified as it is made: the constructor ends with
    :func:`validate_body`, which raises on a set that is no such body.
    """

    _fields = ("dim", "vertices", "facets")
    dim: int
    vertices: tuple[Vec, ...] | None
    facets: tuple[Facet, ...] | None
    # a hull handed on by the construction, read only through ``hull``, and
    # a symmetric lift's base, whose difference body is its slice
    seed_hull: Hull | None
    lift_base: VPolytope | None

    def __init__(self, dim, vertices=None, facets=None, *, scaled=None, seed_hull=None, lift_base=None):
        vars(self).update(dim=dim, facets=facets, seed_hull=seed_hull, lift_base=lift_base)
        if (vertices is None and scaled is None) == (facets is None):
            raise InvalidInput("exactly one of vertices/facets must be given")
        if dim < 1:
            raise InvalidInput("dimension must be >= 1")
        if facets is None:
            _keep_points(self, "vertices", vertices, scaled, "a body needs at least one vertex", "vertex")
        else:
            vars(self)["vertices"] = None
            for a, _ in facets:
                if len(a) != dim:
                    raise DimensionMismatch(f"facet normal {show(a)} does not have dim {dim}")
        # looked up as a module global at each call, so that a tracer
        # wrapping it sees every body made
        validate_body(self)

    @cached_property
    def normals(self) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
        """``(L, N)``, integers with ``gauge(x) = max_k N_k . x / L``, or
        None for a vertex body with neither a hull nor a slice that has
        one, whose gauge takes an LP.

        A facet body gives ``a / b`` and ``-a / b`` for each facet; each
        offset ``b`` is checked positive and each normal nonzero, in turn,
        and the normals checked to span the space, else the body is
        unbounded: these checks certify a facet body, made once, as the
        body is. A vertex body gives the outer normals of its facets,
        ``a . v = 1`` on each facet: those of its hull in dimensions 1 to 3,
        certified where the hull was made (:func:`integer_hull`), each
        offset positive since the body's own certificate puts the origin
        inside; and those of :meth:`_lift_normals`, read from the slice, for
        every lift made by :func:`lift_body` (it keeps its ``lift_base``),
        whose lifted points are then never hulled, and for a symmetric lift
        read from its vertices without a hull. A lift read from its
        vertices up to 3D keeps its hull's normals.
        """
        if self.facets is not None:
            for a, b in self.facets:
                if b <= 0:
                    raise DegenerateBody(f"facet offset {b} is not strictly positive")
                if not any(a):
                    raise DegenerateBody("zero facet normal")
            L, rows = over_common_denominator([tuple(Fraction(c, b) for c in a) for a, b in self.facets])
            if matrix_rank(rows) < self.dim:
                raise DegenerateBody("facet normals do not span the space (unbounded)")
            # both signs, though |a . x| would need only one: the pairwise
            # pass then takes a plain max for facet and vertex bodies alike
            return L, rows + tuple(tuple(-c for c in n) for n in rows)
        hull = None if self.lift_base is not None else self.hull
        if hull is None:
            return self._lift_normals()
        s = hull.scale
        # facet n . X = c over points X = v * s, so a = n * s / c gives
        # a . v = 1 on the facet; the least common denominator of the
        # entries k * s / c of a is c / gcd(s * gcd(n), c)
        L = lcm(*(c // gcd(s * gcd(*n), c) for n, c in hull.planes))
        return L, tuple(tuple(k * s * L // c for k in n) for n, c in hull.planes)

    @cached_property
    def _levels(self) -> tuple[Fraction, VPolytope] | None:
        """``(h, A)`` for a symmetric lift, a vertex body on the two levels
        ``t = h`` and ``t = -h`` (h > 0) of the last coordinate, the lower
        level the negated upper one, A: the hull of ``(A, h)`` and
        ``(-A, -h)``. The vertices are closed under negation, so any two
        levels are such mirrors. A is the base the lift was built from
        (``lift_base``), or else a polytope of the top level, made once per
        body. None for any other body, and from dimension 5, where the
        slice has no hull."""
        if not 2 <= self.dim <= MAX_HULL_DIM + 1:
            return None
        m, rows = self.scaled
        levels = {X[-1] for X in rows}
        if len(levels) != 2:
            return None
        H = max(levels)
        base = self.lift_base
        if base is None:
            top = sorted(X[:-1] for X in rows if X[-1] == H)
            base = VPolytope(self.dim - 1, scaled=lowest_terms(m, top))
        return Fraction(H, m), base

    def _lift_normals(self) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
        """The facet normals of a symmetric lift (:attr:`_levels`), from its
        middle slice, as ``(L, N)``; None for any other body, or when the
        slice has no normals.

        By the Cayley trick (Huber, Rambau and Santos, 2000) each facet
        of the hull of ``(A, h)`` and ``(-A, -h)`` other than ``t = +-h``
        meets the middle slice ``t = 0`` in a facet of ``(A - A) / 2``,
        and each facet of it comes from one such facet. So the slice is
        the difference body ``D = A - A`` one dimension down, the one
        :func:`difference_body` builds and keeps on A: the lift of K and
        ``K - K`` share one hull and one certificate. A facet normal
        ``n`` of D has ``h_A(n) + h_A(-n) = 1``, where
        ``h_A(n) = max_a n . a``, and the lift's facet normal from it is
        ``(2n, (h_A(-n) - h_A(n)) / h)``: it takes the value 1 on the face
        of A that ``n`` picks out, at ``t = h``, and on the face of -A that
        it picks out, at ``t = -h``. The levels add ``(0, +-1 / h)``.

        These normals come from no hull of the lift, so each is certified
        as it is made, with no rank: ``a . v <= 1`` at every vertex of the
        lift, and each normal made from a slice normal ``n`` takes the
        value 1 at some vertex on each level. That makes it a facet's. The
        slice normal is certified where D's hull was made, so its face
        ``F_A(n) - F_A(-n)`` of D has dimension ``dim - 2``, where
        ``F_A(n)`` is the face of A on which ``n`` is largest. On the level
        ``t = h`` the lifted normal is ``2n . a`` plus a constant, so, tight
        at one vertex there, it is tight on all of ``F_A(n)`` there, and
        likewise on all of ``-F_A(-n)`` at ``t = -h``. Its face holds the
        Cayley polytope of these two faces, whose directions are those of
        the slice's facet and the step between the levels: it has
        dimension ``(dim - 2) + 1``, a facet. The two level normals hold
        all of A at ``t = +-h``, and A is full-dimensional, which D's
        construction checks. Both checks read the upper level alone: the
        body's certificate closes its vertices under negation, and
        :attr:`_levels` puts them on two levels, so the lower level is the
        upper one negated.
        """
        if self._levels is None:
            return None
        h, base = self._levels
        # D reads its hull through the property, so that a body sent down
        # the LP path sends its slice, and so itself, down it too
        D = base.difference
        if D.normals is None:
            return None
        LD, slice_normals = D.normals
        # a slice normal N / LD has a column of N . (a * m) over a in A: its
        # largest is m * h_A(N) and its least -m * h_A(-N). With h = p / q,
        # the lifted normal times L = m * LD * p is (2 * m * p * N,
        # -(largest + least) * q), and the level t = h gives (0, q * m * LD)
        m, points = base.scaled
        p, q = h.numerator, h.denominator
        normals = []
        for N, col in zip(slice_normals, dots(slice_normals, points)):
            normals.append(tuple(2 * m * p * c for c in N) + (-(max(col) + min(col)) * q,))
        level = (0,) * (self.dim - 1) + (q * m * LD,)
        normals += [level, tuple(-c for c in level)]
        g = gcd(m * LD * p, *(c for n in normals for c in n))
        L, normals = m * LD * p // g, tuple(tuple(c // g for c in n) for n in normals)
        s, points = self.scaled
        top = L * s  # the value of a . (v * s) on the facet of a / L
        # each lower vertex is an upper one negated: it is outside where the
        # upper value is below -top, and touches where that value is -top
        upper = [X for X in points if X[-1] > 0]
        for k, (a, values) in enumerate(zip(normals, dots(normals, upper))):
            if max(values) > top or min(values) < -top:
                raise ArithmeticError(f"a vertex times {s} is outside lifted facet normal {a}/{L}")
            if k < len(slice_normals) and not (top in values and -top in values):
                raise ArithmeticError(f"lifted facet normal {a}/{L} does not touch both levels")
        return L, normals


class PointSet(Value):
    """Finite labeled set of rational points, pairwise distinct, given as
    tuples of ``Fraction`` or as the scaled form the diameter pass reads,
    ``scaled=(m, rows)``, alone: least-common-denominator rows in the
    points' order. The diameter pass keeps the extreme sets it read for
    the last body asked on the set (:func:`borsuk.metric._set_extremes`),
    which ``==``, ``hash`` and ``repr`` do not read."""

    _fields = ("dim", "points", "labels")
    dim: int
    points: tuple[Vec, ...]
    labels: tuple | None

    def __init__(self, dim, points=None, labels=None, *, scaled=None):
        vars(self).update(dim=dim, labels=labels)
        if dim < 1:
            raise InvalidInput("dimension must be >= 1")
        _keep_points(self, "points", points, scaled, "a point set needs at least one point", "point")
        n = len(self)
        if len(set(self.scaled[1])) != n:
            # duplicates would make partition counts bookkeeping artifacts
            raise InvalidInput("points must be pairwise distinct")
        if labels is not None and len(labels) != n:
            raise InvalidInput("labels must match points one to one")

    @cached_property
    def points(self) -> tuple[Vec, ...]:
        """The points as tuples of ``Fraction``, for a set built from its
        scaled form alone: made from it on first read, then an ordinary
        attribute."""
        return rational_points(*self.scaled)

    @cached_property
    def scaled(self) -> Scaled:
        """``(m, X)``, each point times the least common denominator m of
        the coordinates, in the points' order, made once from the points
        unless it was handed on."""
        return over_common_denominator(self.points)

    def __len__(self):
        return len(self.scaled[1])


# Up to dimension 3 a polytope has few facets (at most 2n - 4 for n
# vertices in space, by Euler's formula), so one exact hull per body pays
# for itself; from dimension 4 the facet count can be exponential in the
# vertex count (the cross-polytope has 2^d facets), and LPs answer instead.
# A symmetric lift is the exception: its facets are those of its slice,
# of dimension one less, and two more (SymmetricBody._lift_normals).
MAX_HULL_DIM = 3


class Hull(NamedTuple):
    """Exact convex hull of a finite point set on the line, in the plane
    or in space, in integer form only.

    ``corners`` are its strict extreme points times ``scale``, the least
    common denominator of the set's coordinates (or of a superset's, for
    a hull handed on from the points it pruned): the least and the
    greatest on the line, counter-clockwise from the least in the plane,
    sorted in space. The hull is the intersection of the integer
    half-spaces ``n . X <= c`` in ``planes`` over such scaled points, one
    per facet. In the plane the half-plane of edge (P, Q) has
    ``c = P x Q``, the orientation of the origin against that edge. A hull
    is full-dimensional: a flat set has none, and takes the LP in every
    dimension.

    A hull holds data only, certified once by :func:`_certified` as it is
    made, by :func:`integer_hull` or, for a difference body, by
    :func:`_difference_hull`: a body reads its planes as its normals, and
    pruning its corners as the pruned vertices. A named tuple: a hull is
    its three fields and nothing more.
    """

    scale: int
    corners: tuple[tuple[int, ...], ...]
    planes: tuple[HalfSpace, ...]


def integer_hull(m: int, rows) -> Hull | None:
    """Exact convex hull of the points ``X / m``, X an integer row, in
    dimensions 1 to MAX_HULL_DIM, at scale m: the least common
    denominator of the points, as the callers make it. None in higher
    dimensions, and for a flat set, whose affine rank is below its
    dimension: one point, collinear points in the plane, coplanar points
    in space. A flat set has no facets in its space, so flat sets take
    the LP in every dimension.

    The rows are sorted once, and the hull of each dimension is built from
    those sorted points P alone, then certified over all of P by
    :func:`_certified`, fed each plane's largest value over P and the
    points attaining it from one table ``dots(planes, P)``. The hull of a
    difference body ``K - K`` in the plane and in space is built from K's
    own hull instead (:func:`_difference_hull`), and certified by the same
    function through K's projections.
    """
    d = len(next(iter(rows)))
    if d > MAX_HULL_DIM:
        return None
    P = sorted(set(rows))
    made = (_segment_hull, planar_hull, _spatial_hull)[d - 1](P)
    if made is None:
        return None
    corners, planes = made
    tops = []
    for values in dots([n for n, _ in planes], P):
        top = max(values)
        tops.append((top, [X for X, t in zip(P, values) if t == top]))
    return _certified(m, d, corners, planes, tops)


def _certified(m: int, d: int, corners, planes, tops) -> Hull:
    """The hull at scale m with these corners and planes, once it is
    certified, the one place every hull is; ``tops`` gives, per plane, the
    largest value ``n . X`` over the point set and the distinct points
    attaining it. Three checks: (a) every point satisfies ``n . X <= c``
    for every plane; (b) each plane holds d affinely independent points, so
    it is a facet's; and (c) the facets close up: as many as corners on
    the line and in the plane, and Euler's ``V - E + F = 2`` in space,
    where each edge lies on two facets, so that 2E counts the (corner,
    facet) incidences. A plane whose largest value is below its offset
    holds none of the points, and fails (b).
    """
    corner_set, incidences = set(corners), 0
    for (n, c), (top, on) in zip(planes, tops):
        if top != c:
            if top > c:
                raise ArithmeticError(f"point {on[0]} is outside the hull's half-space {n} . X <= {c}")
            on = []
        # on the line and in the plane any d distinct points are independent
        if not (len(on) >= d if d < 3 else _spans(on)):
            raise ArithmeticError(f"the hull's plane {n} . X = {c} holds fewer than {d} affinely independent points")
        incidences += len(corner_set.intersection(on))
    V, F = len(corners), len(planes)
    if (F != V) if d < 3 else (2 * V - incidences + 2 * F != 4):
        raise ArithmeticError(f"the {F} facets of the hull do not close up around its {V} corners")
    return Hull(m, tuple(corners), planes)


def _spans(on) -> bool:
    """Whether the distinct points ``on`` in space hold three affinely
    independent ones: a point off the line through the first two, whose
    step from the first crossed with theirs is not 0."""
    if len(on) < 3:
        return False
    (ax, ay, az), (bx, by, bz) = on[0], on[1]
    ux, uy, uz = bx - ax, by - ay, bz - az
    for x, y, z in on[2:]:
        x, y, z = x - ax, y - ay, z - az
        if uy * z - uz * y or uz * x - ux * z or ux * y - uy * x:
            return True
    return False


def _segment_hull(P) -> tuple | None:
    """The hull of the sorted distinct integer points P on the line: the
    least and the greatest, one half-line at each; None for one point."""
    if len(P) < 2:
        return None
    (lo,), (hi,) = P[0], P[-1]
    return (P[0], P[-1]), (((1,), hi), ((-1,), -lo))


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


def planar_hull(P) -> tuple | None:
    """The corners and half-planes of the hull of the sorted distinct
    integer points P in the plane, by Andrew's monotone chain (1979), for
    :func:`integer_hull` to certify; None below 3 corners, for collinear
    points. Only strict left turns are kept, so collinear boundary points
    are dropped: the corners are the strict extreme points,
    counter-clockwise from the least, and the half-planes those of its
    edges (:func:`_edge_planes`).
    """
    corners = _chain(P)[:-1] + _chain(reversed(P))[:-1]
    if len(corners) < 3:
        return None
    return corners, _edge_planes(corners)


def _edge_planes(corners) -> tuple[HalfSpace, ...]:
    """The half-plane of each edge (P, Q) of a polygon's corners, listed
    counter-clockwise: X is left of P -> Q, or on it, when
    ``n . X <= P x Q``."""
    return tuple(
        ((qy - py, px - qx), px * qy - py * qx)
        for (px, py), (qx, qy) in zip(corners, corners[1:] + corners[:1])
    )


def _triangle(P, i, j, k):
    """Triangle (i, j, k) of the points P with its plane ``n . X = c``,
    ``n = (P_j - P_i) x (P_k - P_i)``: counter-clockwise seen from the
    side n points to."""
    (ax, ay, az), (bx, by, bz), (qx, qy, qz) = P[i], P[j], P[k]
    ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, qx - ax, qy - ay, qz - az
    n = (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
    return i, j, k, n, n[0] * ax + n[1] * ay + n[2] * az


def _first_tetrahedron(P) -> list | None:
    """The triangles of a tetrahedron on four of the points P, each
    facing outwards; None when P is coplanar."""
    i, j = 0, 1
    k = next((k for k in range(2, len(P)) if any(_triangle(P, i, j, k)[3])), None)
    if k is None:
        return None
    _, _, _, n, c = _triangle(P, i, j, k)
    [column] = dots([n], P)
    q = next((q for q in range(k + 1, len(P)) if column[q] != c), None)
    if q is None:
        return None
    # a triangle faces outwards when the point opposite it lies below it,
    # n . X < c. At q, (i, j, k) reads column[q] - c, six times the signed
    # volume of (i, j, k, q); as listed, (i, k, q) reads the same at j, and
    # (i, j, q) at k and (j, k, q) at i read its negative
    up = column[q] > c
    return [
        _triangle(P, a, e, b) if turn else _triangle(P, a, b, e)
        for a, b, e, turn in ((i, j, k, up), (i, j, q, not up), (i, k, q, up), (j, k, q, not up))
    ]


def _spatial_hull(P) -> tuple | None:
    """The corners and planes of the hull of the sorted distinct integer
    points P in space, by the incremental beneath-beyond method (Preparata
    and Hong, 1977); None when the points are coplanar.

    The surface is kept as outward triangles. Each further point replaces
    the triangles that see it strictly (``n . X > c``) by the cone from it
    over their horizon, the edges they share with the triangles that stay.
    The points are taken farthest from the origin first, in decreasing
    ``x^2 + y^2 + z^2`` and by index on a tie, so that the corners tend to
    come early and a later point, in the hull of those before it already,
    sees no triangle and builds none. A point outside that hull sees at
    least one. Coplanar triangles then merge into one facet by dividing
    each ``(n, c)`` by its gcd. The triangles at a point cover the facets
    through it: one for a point inside a facet, two inside an edge, and
    three or more at a vertex, so the corners are the points at which the
    triangles lie on three facets or more. :func:`integer_hull` certifies
    the result.
    """
    triangles = _first_tetrahedron(P)
    if triangles is None:
        return None
    done = {i for t in triangles for i in t[:3]}
    # a stable sort, so equal norms stay in index order
    far = sorted(range(len(P)), key=[x * x + y * y + z * z for x, y, z in P].__getitem__, reverse=True)
    for p in far:
        if p in done:
            continue
        x, y, z = P[p]
        seen, kept = [], []
        for t in triangles:
            a, b, e = t[3]
            (seen if a * x + b * y + e * z > t[4] else kept).append(t)
        if seen:
            edges = {e for i, j, k, _, _ in seen for e in ((i, j), (j, k), (k, i))}
            kept += [_triangle(P, i, j, p) for i, j in edges if (j, i) not in edges]
            triangles = kept
    facets_at: dict = {}  # per point of a triangle, the facets of the triangles at it
    for *ijk, n, c in triangles:
        g = gcd(*n, c)
        facet = (tuple([x // g for x in n]), c // g)
        for p in ijk:
            facets_at.setdefault(p, set()).add(facet)
    corners = tuple(P[p] for p in sorted(facets_at) if len(facets_at[p]) >= 3)
    return corners, tuple(sorted(set().union(*facets_at.values())))


def _difference_hull(hull: Hull, rows, g: int) -> Hull:
    """The hull of ``K - K``, in the plane or in space, from the hull of K:
    K's rows ``rows`` are at the hull's scale m, and the differences of
    every two of them, over their own least common denominator, at scale
    ``m // g``. No table over the n^2 differences is made.

    In the plane K's edges and -K's are merged by angle
    (:func:`_merged_outline`); in space the facets are found among
    candidate normals (:func:`_difference_facets`). Each is certified by
    :func:`_certified`, as every hull is, fed by K's projections on each
    plane's normal (:func:`_difference_tops`).
    """
    if len(rows[0]) == 2:
        corners = _merged_outline(hull.corners)
        if g > 1:
            corners = [tuple([x // g for x in X]) for X in corners]
        planes = _edge_planes(corners)
        tops = _difference_tops(list(dict.fromkeys(canonical_sign(n) for n, _ in planes)), rows, g)
        return _certified(hull.scale // g, 2, corners, planes, [tops[n] for n, _ in planes])
    return _certified(hull.scale // g, 3, *_difference_facets(hull, rows, g))


def _difference_tops(normals, rows, g: int) -> dict:
    """Per normal n, and per -n, the largest value of n over the
    differences ``(a - b) / g`` of the rows a and b of K, and the distinct
    differences attaining it, for :func:`_certified`: the largest is
    ``(max n . V - min n . V) / g`` over K's rows V, attained at
    ``F_K(n) - F_K(-n)``, where ``F_K(n)`` is the face of K on which n is
    largest. The column of -n is that of n negated, so one column is read
    per pair ``n, -n``, the normals given sign-canonical."""
    tops = {}
    for n, col in zip(normals, dots(normals, rows)):
        hi, lo = max(col), min(col)
        # most faces are one corner, found without a scan
        top = [a for a, t in zip(rows, col) if t >= hi] if col.count(hi) > 1 else [rows[col.index(hi)]]
        bottom = [b for b, t in zip(rows, col) if t <= lo] if col.count(lo) > 1 else [rows[col.index(lo)]]
        for u, on in ((n, differences(top, bottom)), (vneg(n), differences(bottom, top))):
            tops[u] = (hi - lo) // g, [tuple([x // g for x in X]) for X in on] if g > 1 else list(on)
    return tops


def _merged_outline(corners) -> list:
    """The corners of ``K - K`` for a polygon K with these corners,
    counter-clockwise from the least, at K's scale: K's edges and -K's,
    each counter-clockwise from its least corner, merged by angle
    (de Berg et al., *Computational Geometry*, 3rd ed., 2008, ch. 13),
    from the least corner of K minus the greatest. Parallel edges of the
    two merge into one, so every corner is strict.

    Along each list the edges turn left through less than a half turn, so
    the next edges of the two lists are less than a half turn apart, and
    the sign of their cross product orders them.
    """
    k, j = len(corners), corners.index(max(corners))
    ring = corners + corners[:1]
    edges = [(qx - px, qy - py) for (px, py), (qx, qy) in zip(ring, ring[1:])]
    mirrored = [(-ex, -ey) for ex, ey in edges[j:] + edges[:j]]
    x, y = corners[0][0] - corners[j][0], corners[0][1] - corners[j][1]
    outline = [(x, y)]
    i = l = 0
    while i < k and l < k:
        (ex, ey), (fx, fy) = edges[i], mirrored[l]
        turn = ex * fy - ey * fx
        if turn >= 0:
            x, y, i = x + ex, y + ey, i + 1
        if turn <= 0:
            x, y, l = x + fx, y + fy, l + 1
        outline.append((x, y))
    for ex, ey in edges[i:] + mirrored[l:]:
        x, y = x + ex, y + ey
        outline.append((x, y))
    outline.pop()  # the last edge closes the outline at its first corner
    return outline


def _difference_facets(hull: Hull, rows, g: int) -> tuple:
    """The corners, planes and feed of :func:`_certified` for the hull of
    ``K - K`` in space, K's rows at its hull's scale.

    A face of a Minkowski sum is a sum of faces of its summands (Fukuda,
    2004), so the face of ``K - K`` on which u is largest is
    ``F_K(u) - F_K(-u)``: a facet exactly when it spans a plane, that is
    when ``F_K(u)`` or ``F_K(-u)`` is a facet of K, or both are edges, not
    parallel, and then u is normal to both. Those two edges share no
    corner, or K would be flat along u. So the facet normals, up to sign,
    are K's and the cross products of two disjoint edges of K, two corners
    of K being an edge's ends when they lie on two common facets; the
    cross product u of such edges is a facet's when K lies between the
    planes through them with normal u. It lies then strictly inside the
    normal cone of the one, spanned by its two facets' normals, and -u
    inside the other's, so each edge's step splits the other's two facet
    normals, one on each side: pairs that fail this are passed over
    unprojected. Each direction that is a facet's gives two, u and -u,
    since ``K - K`` is symmetric; the corners are the points on three
    facets or more, as in :func:`_spatial_hull`.
    """
    corners, normals = hull.corners, [n for n, _ in hull.planes]
    # two corners of K on two common facets are the ends of an edge
    sides: dict = {}
    for n, (_, c), col in zip(normals, hull.planes, dots(normals, corners)):
        for pair in combinations([i for i, t in enumerate(col) if t == c], 2):
            sides.setdefault(pair, []).append(n)
    edges = [
        (i, j, corners[i], tuple(map(sub, corners[j], corners[i])), *facets)
        for (i, j), facets in sides.items()
        if len(facets) == 2
    ]
    directions = dict.fromkeys(map(_direction, normals))
    for first, second in combinations(edges, 2):
        i, j, (ax, ay, az), (ux, uy, uz), (a1, a2, a3), (b1, b2, b3) = first
        p, q, (bx, by, bz), (vx, vy, vz), (c1, c2, c3), (d1, d2, d3) = second
        if i == p or i == q or j == p or j == q:
            continue
        # each step splits the other edge's two facet normals
        if (a1 * vx + a2 * vy + a3 * vz) * (b1 * vx + b2 * vy + b3 * vz) >= 0:
            continue
        if (c1 * ux + c2 * uy + c3 * uz) * (d1 * ux + d2 * uy + d3 * uz) >= 0:
            continue
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        # n is normal to both edges: a facet's when K lies between the
        # planes through them
        s, t = nx * ax + ny * ay + nz * az, nx * bx + ny * by + nz * bz
        col = [nx * x + ny * y + nz * z for x, y, z in rows]
        if min(col) == min(s, t) and max(col) == max(s, t) and s != t:
            directions[_direction((nx, ny, nz))] = None
    tops = _difference_tops(list(directions), rows, g)
    planes = tuple(sorted((n, c) for n, (c, _) in tops.items()))
    # per point on a facet, the number of facets through it
    on_facets = Counter(X for _, on in tops.values() for X in on)
    corners = sorted(X for X, count in on_facets.items() if count >= 3)
    return corners, planes, [tops[n] for n, _ in planes]


def _direction(u) -> tuple[int, ...]:
    """The integer vector u divided by the gcd of its entries, with its
    first nonzero entry positive: one key for the directions of u and
    -u."""
    g = gcd(*u)
    return canonical_sign(tuple([x // g for x in u]))


def _dim(points) -> int:
    """The dimension of the first point, for the coercing constructors
    below; 1 when there is none, so that the constructor refuses the
    empty set with its own message."""
    return len(points[0]) if points else 1


def vpolytope(points, pruned=False) -> VPolytope:
    """Coercing constructor: accepts ints/strings/Fractions as coords."""
    verts = tuple(as_vec(p) for p in points)
    return VPolytope(_dim(verts), verts, pruned=pruned)


def point_set(points, labels=None) -> PointSet:
    pts = tuple(as_vec(p) for p in points)
    return PointSet(_dim(pts), pts, tuple(labels) if labels is not None else None)


def body_from_vertices(points) -> SymmetricBody:
    """Build a symmetric body, certified, from its vertex list."""
    verts = tuple(as_vec(p) for p in points)
    return SymmetricBody(_dim(verts), vertices=verts)


def body_from_facets(facets) -> SymmetricBody:
    """Build a symmetric body, certified, from facet pairs (a, b). With no
    facet there is no dimension to read, which the constructor refuses as
    dimension 0."""
    fs = tuple((as_vec(a), Fraction(b)) for a, b in facets)
    return SymmetricBody(len(fs[0][0]) if fs else 0, facets=fs)


def contains_point(generators, x) -> bool:
    """Exact test whether x lies in the convex hull of the generators: the
    package's callers hand the integer rows of a scaled form, and x at
    that scale."""
    res = lp.solve_combination(generators, x, groups=[range(len(generators))])
    return res.status == lp.OPTIMAL


def validate_body(candidate: SymmetricBody) -> SymmetricBody:
    """Certify central symmetry and interiority of the origin, raising
    :class:`NotSymmetric` or :class:`DegenerateBody` when they fail. The
    constructor of :class:`SymmetricBody` ends with this call, once per
    body, so no body exists uncertified and no caller makes it again.

    Vertex form: the vertex set must be closed under negation and span
    the space, which is exactly an interior origin: a basis ``b`` and
    ``-b`` hold a cross-polytope around it. Both are decided on the body's
    scaled form, with no hull and no LP: closure on its integer rows, and
    one exact rank over them.
    Facet form: offsets must be strictly positive and the normals nonzero
    and spanning the space, otherwise the "body" is unbounded; these are
    the checks :attr:`SymmetricBody.normals` makes as it makes them.
    """
    if candidate.facets is None:
        m, rows = candidate.scaled
        distinct = set(rows)
        for X in rows:
            if vneg(X) not in distinct:
                [v] = rational_points(m, [X])
                raise NotSymmetric(f"vertex {show(v)} has no mirror {show(vneg(v))}")
        if matrix_rank(rows) < candidate.dim:
            raise DegenerateBody("origin is not interior (body not full-dimensional)")
    else:
        candidate.normals
    return candidate


def prune_redundant(P: VPolytope) -> VPolytope:
    """Remove every point expressible from the others: the one function
    that makes a pruned polytope, for every construction in the package.

    A polytope already marked ``pruned`` is returned as the same object.
    Otherwise the survivors are exactly the extreme points of the hull, in
    sorted order, and one construction makes the pruned polytope from
    their integer rows. In dimensions 1 to 3 they are the corners of the
    exact hull, which the pruned polytope keeps as its own, sorted as its
    scaled form. From dimension 4, and for a flat set, which has no hull
    (flat sets take the LP in every dimension), the distinct rows of the
    scaled form are scanned in sorted order by exact LPs on those rows; a
    point found inside the hull of the current survivors is dropped
    immediately, which never changes the hull and shrinks the later LPs.
    The survivors are then put over their own least common denominator.

    Constructions that make their points as integer rows X over a common
    denominator m (pairwise sums of two scaled forms, or the points a
    generator drew) build ``VPolytope(dim, scaled=lowest_terms(m, rows))``
    first, since the points can have a coarser denominator than m (a sum
    ``1/2 + 3/2`` is 2, and a drawn ``2/4`` is ``1/2``): m is then the
    least common denominator of the points, the scale their hull would
    have had from them as ``Fraction``s, which are made only when the
    pruned polytope's vertices are read.
    """
    if P.pruned:
        return P
    hull = P.hull
    if hull is not None:
        scaled = hull.scale, tuple(sorted(hull.corners))
    else:
        m, rows = P.scaled
        survivors = sorted(set(rows))
        # a single point is kept without a test
        for X in list(survivors) if len(survivors) > 1 else ():
            if contains_point([Y for Y in survivors if Y != X], X):
                survivors.remove(X)
        scaled = lowest_terms(m, survivors)
    return VPolytope(P.dim, pruned=True, seed_hull=hull, scaled=scaled)


def minkowski_sum(A: VPolytope, B: VPolytope) -> VPolytope:
    """Pruned hull of all pairwise vertex sums, summed as integer rows of
    the two scaled forms over their least common scale."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"dims {A.dim} and {B.dim} differ")
    m, (XA, XB) = common_scale(A.scaled, B.scaled)
    sums = {tuple(map(add, a, b)) for a in XA for b in XB}
    return prune_redundant(VPolytope(A.dim, scaled=lowest_terms(m, sums)))


def is_full_dimensional(K: VPolytope) -> bool:
    return affine_rank(K.scaled[1]) == K.dim


def difference_body(K: VPolytope) -> SymmetricBody:
    """The centrally symmetric body K - K, as a certified vertex body.

    Built once per polytope and kept on it (``K.difference``), so a
    later request, such as the slice of K's symmetric lift, gets the same
    body with the hull, normals and certificate it already holds. The
    body keeps the hull its pruned differences were taken from. For a K
    with a hull in the plane or in space that hull is read off K's own,
    not built from the n^2 differences: an edge merge in the plane, and
    in space K's facet normals and the cross products of K's disjoint
    edges (:func:`_difference_hull`). It is certified as every hull is,
    by :func:`_certified`, fed from K's projections on each facet normal
    n: the largest value ``max n . V - min n . V`` over K's rows V and
    the differences ``F_K(n) - F_K(-n)`` attaining it. Then
    :func:`prune_redundant` makes the pruned polytope of the differences,
    over their own least common denominator, from that hull. On the line,
    from dimension 4 and on the LP path the differences are pruned as any
    set is. When K = -K, K - K = 2K, whose vertices are twice those of
    K: the quadratic set of differences is then neither built nor pruned.
    """
    return K.difference


def lift_body(K: VPolytope) -> SymmetricBody:
    """Symmetrize K one dimension up: the hull of (K, +1) and (-K, -1), a
    certified body that keeps K pruned as its ``lift_base``.

    A lifted point (v, 1) is a convex combination of the other lifted
    points only if all weight sits at height +1, i.e. only if v was
    already redundant in K; so pruning K first makes the lift pruned.
    """
    if not is_full_dimensional(K):
        raise DegenerateBody("lift requires a full-dimensional polytope")
    base = prune_redundant(K)
    # the lifted points' integer rows sort in the order the points would,
    # and are the lift's scaled form, over the least common denominator (a
    # hull's scale can be finer than its corners need)
    m, rows = base.scaled
    lifted = sorted([X + (m,) for X in rows] + [vneg(X) + (-m,) for X in rows])
    return SymmetricBody(K.dim + 1, scaled=lowest_terms(m, lifted), lift_base=base)


def lift_set(S: PointSet) -> PointSet:
    """Two labeled copies one dimension up: (S, +1) and (-S, -1).

    Labels record (source index, sign) so partitions of the lifted set
    can be mapped back to the original indices. The lifted rows, S's rows
    with m and their negations with -m, keep S's least common denominator
    m and are the lifted set's scaled form.
    """
    n = len(S)
    labels = [(i, 1) for i in range(n)] + [(i, -1) for i in range(n)]
    m, rows = S.scaled
    lifted = tuple([X + (m,) for X in rows] + [vneg(X) + (-m,) for X in rows])
    return PointSet(S.dim + 1, labels=tuple(labels), scaled=(m, lifted))
