"""Exact vector and matrix helpers over the rationals.

Vectors are plain tuples of ``fractions.Fraction``; everything here is
pure and allocation-light. No floating point enters any of these
functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def matrix_rank(rows: list[Vec]) -> int:
    """Rank of a rational matrix by Gaussian elimination (exact)."""
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot_row = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        piv = work[rank][col]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f != 0:
                ratio = f / piv
                row_i = work[i]
                row_p = work[rank]
                for j in range(col, ncols):
                    row_i[j] -= ratio * row_p[j]
        rank += 1
        col += 1
    return rank


def affine_rank(points: list[Vec]) -> int:
    """Dimension of the affine hull of the given points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return matrix_rank([vsub(p, base) for p in points[1:]])
