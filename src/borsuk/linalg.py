"""Exact vector and matrix helpers over the rationals.

Vectors are plain tuples of ``fractions.Fraction``; everything here is
pure and allocation-light. No floating point enters any of these
functions. The integer layers read a point set in one scaled form,
``(m, rows)``: a common denominator m and each point times m as a row of
ints (:func:`over_common_denominator`), made once per point set,
polytope or body and handed on, so that ranks, hulls, sums, gauges and
diameters compare plain ints; :func:`rational_points` makes the
``Fraction`` points back from it, for those that are read. Wherever two
scaled forms meet, from Minkowski sums and covers to the vertex lookups
of the doubling check, :func:`common_scale` puts them over one
denominator. Every integer dot product ``n . X`` of those layers, from
hull certificates and lifted normals to projection tables and cover
membership, is taken by the one kernel :func:`dots`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_vec(coords) -> Vec:
    """Coerce a coordinate sequence (ints/strings/Fractions) to a vector;
    a coordinate that is a ``Fraction`` already is kept as it is."""
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple([-x for x in a])


def show(v: Vec) -> str:
    """A point as error messages print it: ``(1, -1/2)``."""
    return f"({', '.join(map(str, v))})"


def over_common_denominator(points) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The scaled form of a sequence of rational points: the least common
    denominator m of their coordinates, and each point times m, a row of
    ints."""
    m = lcm(*{c.denominator for p in points for c in p})
    return m, tuple(tuple([c.numerator * (m // c.denominator) for c in p]) for p in points)


def rational_points(m: int, rows) -> tuple[Vec, ...]:
    """The points ``X / m`` of a scaled form, in their order, as tuples of
    ``Fraction``: the inverse of :func:`over_common_denominator`."""
    return tuple(tuple([Fraction(x, m) for x in X]) for X in rows)


def lowest_terms(m: int, rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The points ``X / m`` of integer rows X over a common denominator m,
    in their order, as a scaled form over their least common denominator:
    m and the rows divided by ``g = gcd(m, every entry)``, since the lcm of
    the entries' denominators ``m / gcd(x, m)`` is ``m / g``. The gcd is
    taken row by row and stops at 1, which most drawn sets reach in their
    first row."""
    g = m
    for X in rows:
        g = gcd(g, *X)
        if g == 1:
            return m, tuple(rows)
    return m // g, tuple(tuple([x // g for x in X]) for X in rows)


def common_scale(*forms) -> tuple[int, list]:
    """Scaled forms ``(k, rows)`` over one common denominator: m, the lcm
    of their denominators k, and each form's rows over m, in their order.
    A form already over m comes back as the same object; the rows of the
    others, times ``m // k``, come back as a list of tuples."""
    m = lcm(*[k for k, _ in forms])
    return m, [rows if k == m else [tuple([m // k * x for x in X]) for X in rows] for k, rows in forms]


def dots(normals, rows) -> list[list[int]]:
    """For each normal n, the list of ``n . X`` over the rows X, each a
    tuple or a list of ints of the normals' length d. Unrolled in
    dimensions 1 to 4, where a product written out is several times
    faster than a ``sum`` over ``map``; the sum from dimension 5."""
    if not normals:
        return []
    d = len(normals[0])
    if d == 1:
        return [[a * x for (x,) in rows] for (a,) in normals]
    if d == 2:
        return [[a * x + b * y for x, y in rows] for a, b in normals]
    if d == 3:
        return [[a * x + b * y + c * z for x, y, z in rows] for a, b, c in normals]
    if d == 4:
        return [[a * x + b * y + c * z + e * w for x, y, z, w in rows] for a, b, c, e in normals]
    return [[sum(map(mul, n, X)) for X in rows] for n in normals]


def differences(A, B) -> set[tuple[int, ...]]:
    """The set of ``a - b`` over the rows a of A and b of B, tuples of
    ints of one length, for difference bodies and their faces. Written
    out in dimensions 2 and 3, where it is several times faster than
    ``tuple(map(sub, a, b))``."""
    d = len(A[0])
    if d == 2:
        return {(ax - bx, ay - by) for ax, ay in A for bx, by in B}
    if d == 3:
        return {(ax - bx, ay - by, az - bz) for ax, ay, az in A for bx, by, bz in B}
    return {tuple(map(sub, a, b)) for a in A for b in B}


def canonical_sign(a: Vec) -> Vec:
    """Flip the vector so its first nonzero coordinate is positive.

    Used to key caches of symmetric functions (a gauge of a symmetric
    body satisfies g(-x) = g(x)).
    """
    for x in a:
        if x > 0:
            return a
        if x < 0:
            return vneg(a)
    return a


def matrix_rank(rows) -> int:
    """Rank of a matrix of ints or rationals, exact: each row is reduced,
    fraction-free, against the independent rows before it, and counts
    when something is left. Fastest on ints. No row is read once the
    rank is the number of columns."""
    basis: list = []  # (pivot column, row), each row zero at the pivots before it
    for row in rows:
        for p, b in basis:
            f = row[p]
            if f:
                row = [b[p] * x - f * y for x, y in zip(row, b)]
        for p, x in enumerate(row):
            if x:
                basis.append((p, row))
                if len(basis) == len(row):
                    return len(basis)  # full column rank: no row can add to it
                break
    return len(basis)


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points, rows of ints or
    rationals; exact, and fastest on a scaled form's integer rows."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return matrix_rank([[x - y for x, y in zip(p, base)] for p in points[1:]])
