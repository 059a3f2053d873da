"""Gauge norms of symmetric bodies, distances, diameters, diameter graphs.

The gauge of a body C at x is the least r >= 0 with x in r*C. Most
bodies carry it in one integer normal form, ``C.normals = (L, N)``:
the gauge is ``max_k N_k . x / L``. A facet body contributes ``a / b``
and ``-a / b`` for each facet |<a, x>| <= b; a vertex body in dimension
1, 2 or 3 the outer normals of the facets of its exact hull, scaled so
that ``a . v = 1`` on each facet, and a symmetric lift in dimension 4
those of the hull of its middle slice, one dimension down, and of its
two levels. For any other vertex body in dimension 4 and up the gauge is
the optimum of the exact LP

    minimize sum(mu)  subject to  sum(mu_i * v_i) = x,  mu >= 0,

which is valid because C is symmetric with the origin interior, as every
body is certified to be where it is made: the positive hull of the
vertices is then the whole space and the LP is always feasible. It is
solved on the body's scaled form ``(s, V)``, ``V_i = s * v_i``, as
``s * min sum(nu)`` subject to ``sum(nu_i * V_i) = x``, with ``nu = mu / s``.

The gauges of many points are one pass, :func:`_gauges`, over their
scaled form ``(m, P)``: with normals one projection table, the gauge of
``P_i / m`` being the largest entry of row i over ``L * m``; without,
one LP per distinct row up to sign, since the gauge is homogeneous and
g(-z) = g(z). That memo is the only one: the pair loop below reads it.

A diameter value is the largest spread of one projection table. Point
sets and polytopes carry a scaled form ``(m, P)`` as bodies do, and
with normals each integer row P_i is projected onto every normal once,
one column per normal, by :func:`borsuk.linalg.dots`, the one integer
dot kernel, which a gauge reads as well.
The gauge of p_i - p_j is then ``max_k (N_k . P_i - N_k . P_j)`` over
``L * m``, so the diameter of any subset T is

    max_k (max_{i in T} N_k . P_i - min_{i in T} N_k . P_i) / (L * m),

its largest width along the normals (the support-function identity;
Schneider, *Convex Bodies*, 2nd ed., 2014). A pair attains it exactly
when some column of largest spread has one end among its maxima and the
other among its minima, so the columns of largest spread give every
diameter question its answer as extreme sets, pairs of index lists
``(A, B)``: a diameter graph's edges are the pairs across some
``(A, B)``, a partition number colours the graph read straight off them
as neighbour masks, with no edge list
(:func:`borsuk.partition.borsuk_number`), and a part lies strictly below
the diameter when it meets no ``(A, B)`` on both sides. No pair is
compared. A body without normals has no table: one pair loop gives its
extreme sets as the attaining pairs ``([i], [j])``, reading the gauges
of the differences ``(P_i - P_j) / m`` from :func:`_gauges`.

A set's extreme sets are made once per body and set: the set keeps them
for the last body asked, keyed by that body's identity, so checking a
partition after computing it for the same body and set (a partition
number, then :func:`borsuk.partition.verify_partition`) reads them again
and builds no second table.

Membership in C is ``gauge(C, x) <= 1`` read from the same normals, or
one exact LP for a body without them, whether ``s * x`` lies in the
hull of the rows V. Diameter-graph edges are decided
by exact rational equality; there is no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from . import lp
from ._value import Value
from .bodies import PointSet, Scaled, SymmetricBody, VPolytope, contains_point
from .errors import DimensionMismatch, IndexOutOfRange, InvalidInput
from .linalg import ZERO, Vec, canonical_sign, dots, over_common_denominator, vsub


class DiameterGraph(Value):
    """Graph on point indices; edges are the pairs attaining the diameter."""

    _fields = ("n_points", "diameter", "edges")
    n_points: int
    diameter: Fraction
    edges: tuple[tuple[int, int], ...]  # pairs (i, j) with i < j

    def __init__(self, n_points, diameter, edges):
        vars(self).update(n_points=n_points, diameter=diameter, edges=edges)
        # the colouring indexes per-vertex tables by these, so a negative
        # index would alias another vertex and a self-loop never colours
        if n_points < 1:
            raise InvalidInput(f"a diameter graph needs at least one point, got {n_points}")
        for i, j in edges:
            if not (0 <= i < n_points and 0 <= j < n_points):
                raise IndexOutOfRange(f"edge ({i}, {j}) outside 0..{n_points - 1}")
            if i == j:
                raise InvalidInput(f"self-loop at vertex {i}")


def gauge(C: SymmetricBody, x: Vec) -> Fraction:
    if len(x) != C.dim:
        raise DimensionMismatch(f"point of dim {len(x)} against body of dim {C.dim}")
    if C.normals is not None:
        return _gauges(C, over_common_denominator((x,)))[0]
    if all(v == 0 for v in x):
        return ZERO
    # on the rows V = s * v the weights are nu = mu / s
    s, V = C.scaled
    res = lp.solve_combination(V, x, cost=[1] * len(V))
    # a certified body keeps this LP feasible for every x
    if res.status != lp.OPTIMAL:
        raise InvalidInput(f"gauge LP failed ({res.status})")
    return s * res.value


def distance(C: SymmetricBody, x: Vec, y: Vec) -> Fraction:
    """Gauge distance; symmetric in x and y since C = -C."""
    if len(x) != len(y):
        raise DimensionMismatch("points of different dimensions")
    return gauge(C, vsub(x, y))


def _gauges(C: SymmetricBody, scaled: Scaled) -> list[Fraction]:
    """The gauge of every point p_i = P_i / m of a scaled form ``(m, P)``,
    in order; each row has C's dimension, which is not checked.

    With normals ``N_k / L`` the gauge of p_i is ``max_k N_k . P_i / (L * m)``,
    the largest entry of row i of one projection table. Without, the gauge
    is homogeneous and g(-z) = g(z), so it takes one :func:`gauge` LP per
    distinct row up to sign, over m.
    """
    m, rows = scaled
    if C.normals is not None:
        L, normals = C.normals
        Lm = L * m
        return [Fraction(max(values), Lm) for values in zip(*dots(normals, rows))]
    memo: dict[tuple[int, ...], Fraction] = {}
    values = []
    for P in rows:
        key = canonical_sign(P)
        g = memo.get(key)
        if g is None:
            g = memo[key] = gauge(C, key) / m
        values.append(g)
    return values


def _extremes(C: SymmetricBody, scaled: Scaled) -> tuple[Fraction, list[tuple[list[int], list[int]]]]:
    """The diameter of the points p_i = P_i / m of a scaled form
    ``(m, P)``, and pairs of index lists ``(A, B)`` such that the pairs
    attaining a positive diameter are exactly those with one end in A and
    the other in B; there are none at diameter 0.

    With normals ``N_k / L``, column k of the table holds ``N_k . P_i``
    for every i, and each column of largest spread gives its maxima and
    its minima. Every body's normals are closed under negation, and the
    column of ``-N_k`` is that of ``N_k`` with its maxima and minima
    swapped, so of the two only the one whose first maximum comes before
    its first minimum is read. Without normals each attaining pair
    (i, j), i < j, gives ``([i], [j])``.
    """
    m, rows = scaled
    if C.normals is not None:
        L, normals = C.normals
        table = dots(normals, rows)
        bounds = [(min(col), max(col)) for col in table]
        best = max([hi - lo for lo, hi in bounds])
        sides = [
            ([i for i, t in enumerate(col) if t == hi], [i for i, t in enumerate(col) if t == lo])
            for col, (lo, hi) in zip(table, bounds)
            if best and hi - lo == best and col.index(hi) < col.index(lo)
        ]
        return Fraction(best, L * m), sides
    # p_i - p_j = (P_i - P_j) / m, one LP per difference up to sign
    pairs = [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))]
    values = _gauges(C, (m, [tuple(map(sub, rows[i], rows[j])) for i, j in pairs]))
    best = max(values, default=ZERO)
    return best, [([i], [j]) for (i, j), g in zip(pairs, values) if best and g == best]


def _set_extremes(C: SymmetricBody, S: PointSet) -> tuple[Fraction, list[tuple[list[int], list[int]]]]:
    """:func:`_extremes` of S's scaled form, made once per body and set: S
    keeps it for the last body asked, which it holds, so the key is that
    body's identity and no vertex is hashed. A partition computed for
    (C, S) is then checked on the table it was coloured from."""
    held = vars(S).get("extremes")
    if held is None or held[0] is not C:
        held = vars(S)["extremes"] = C, _extremes(C, S.scaled)
    return held[1]


def _attaining(extremes) -> tuple[Fraction, list[tuple[int, int]]]:
    """The diameter of :func:`_extremes` and every pair (i, j), i < j,
    attaining it when it is positive, in (i, j) order."""
    diam, sides = extremes
    return diam, sorted({(i, j) if i < j else (j, i) for A, B in sides for i in A for j in B})


def set_diameter(C: SymmetricBody, S: PointSet) -> tuple[Fraction, list[tuple[int, int]]]:
    """Exact maximum pairwise distance and every attaining pair."""
    if S.dim != C.dim:
        raise DimensionMismatch(f"set of dim {S.dim} against body of dim {C.dim}")
    return _attaining(_set_extremes(C, S))


def polytope_diameter(C: SymmetricBody, K: VPolytope) -> Fraction:
    """Diameter of the solid polytope K under the gauge of C.

    Reducing to vertex pairs is exact: (x, y) -> gauge(x - y) is convex,
    and a convex function on the product polytope K x K attains its
    maximum at an extreme point, which is a pair of vertices of K. So it
    is the diameter of K's vertex rows; a vertex listed twice adds only a
    pair at distance 0.
    """
    if K.dim != C.dim:
        raise DimensionMismatch(f"polytope of dim {K.dim} against body of dim {C.dim}")
    return _extremes(C, K.scaled)[0]


def diameter_graph(C: SymmetricBody, S: PointSet) -> DiameterGraph:
    """Edges at exact rational equality with the maximum distance."""
    if len(S) < 2:
        raise InvalidInput("diameter graph needs at least two points")
    diam, witnesses = set_diameter(C, S)
    return DiameterGraph(len(S), diam, tuple(witnesses))


def body_contains(C: SymmetricBody, x: Vec) -> bool:
    """Whether x lies in C: ``gauge(C, x) <= 1`` when C has normals, else
    one exact LP for ``s * x`` in the hull of the rows of C's scaled form
    ``(s, V)``."""
    if len(x) != C.dim:
        raise DimensionMismatch(f"point of dim {len(x)} against body of dim {C.dim}")
    if C.normals is not None:
        return gauge(C, x) <= 1
    s, V = C.scaled
    return contains_point(V, tuple([s * c for c in x]))
