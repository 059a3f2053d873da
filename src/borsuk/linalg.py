"""Exact vector and matrix helpers over the rationals.

Vectors are plain tuples of ``fractions.Fraction``; everything here is
pure and allocation-light. No floating point enters any of these
functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_vec(coords) -> Vec:
    """Coerce a coordinate sequence (ints/strings/Fractions) to a vector."""
    return tuple(Fraction(c) for c in coords)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def over_common_denominator(values) -> tuple[int, list[int]]:
    """The least common denominator m of a sequence of rationals, and
    each of them times m."""
    m = lcm(*{v.denominator for v in values})
    return m, [v.numerator * (m // v.denominator) for v in values]


def project(points, normals) -> tuple[int, list[list[int]]]:
    """The least common denominator m of the points' coordinates, and for
    each point p the integers ``n . (p * m)``, one per integer normal n.

    Each point is scaled to integers once, so every later comparison
    against the normals is between plain ints."""
    m = lcm(*{c.denominator for p in points for c in p})
    rows = []
    for p in points:
        P = [c.numerator * (m // c.denominator) for c in p]
        rows.append([sum(map(mul, n, P)) for n in normals])
    return m, rows


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
    when something is left. Fastest on ints."""
    basis: list = []  # (pivot column, row), each row zero at the pivots before it
    for row in rows:
        for p, b in basis:
            f = row[p]
            if f:
                row = [b[p] * x - f * y for x, y in zip(row, b)]
        for p, x in enumerate(row):
            if x:
                basis.append((p, row))
                break
    return len(basis)


def affine_rank(points: list[Vec]) -> int:
    """Dimension of the affine hull of the given points, taken over the
    points scaled to integers."""
    if len(points) <= 1:
        return 0
    d = len(points[0])
    _, flat = over_common_denominator([x for p in points for x in p])
    base = flat[:d]
    return matrix_rank([[x - y for x, y in zip(flat[k : k + d], base)] for k in range(d, len(flat), d)])
