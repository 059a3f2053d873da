"""Covering a polytope by smaller homothets, and partition/covering bounds.

The greedy cover is witness-based: it guarantees coverage only of an
explicit finite witness set (vertices plus a rational grid inside the
body), and says so in its certificate level. Turning a covering into a
partition assigns each point to the first translate containing it,
which is the constructive reading of "few homothets force few parts".

Membership of w in c + lam*K takes the two paths of the diameter pass in
:mod:`borsuk.metric`. Where K has an exact hull (dimensions 1 to 3, and
K not a flat set in space), every witness and center is projected once
onto the hull's integer planes, and each pair compares ints. Otherwise
one exact LP decides each distinct difference w - c, which grid
witnesses and grid centers repeat many times.

The closed-form bound evaluators are the only deliberately inexact
computation in the package: they report double-precision values of
asymptotic formulas (with natural logarithms) and are not certificates.
Past the largest n whose value is a finite double they raise
:class:`DomainError` naming that n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, le

from .bodies import PointSet, SymmetricBody, VPolytope, contains_point
from .errors import DomainError, GridTooCoarse, InvalidInput, PointUncovered
from .linalg import ONE, ZERO, Vec, project, vsub
from .partition import Partition

SAMPLE_CERTIFIED = "sample_certified"

FORMULA_COVERING = "rogers_zong"
FORMULA_PARTITION = "partition"
FORMULA_BINOMIAL = "binomial"

# Largest n at which each bound formula is a finite double (below
# sys.float_info.max); every larger n overflows.
COVERING_BOUND_MAX_N = 1010
PARTITION_BOUND_MAX_N = 1010
BINOMIAL_BOUND_MAX_N = 508

# Most lattice points in the witness grid or the candidate grid of one
# cover, which bounds what it lists, and most pairs of the two, which
# bounds its time, since it tests every witness against every candidate.
# A finer grid is refused before any point is built. The tests, the demos
# and the benchmark use at most 1089 points and 245 x 1089 pairs.
MAX_GRID_POINTS = 10**5
MAX_COVER_PAIRS = 10**7


@dataclass(frozen=True)
class Covering:
    """Translate centers for a shrunk copy of a body, with witnesses."""

    ratio: Fraction
    centers: tuple[Vec, ...]
    body: VPolytope
    certificate_level: str
    witnesses: tuple[Vec, ...]


@dataclass(frozen=True)
class BoundValue:
    n: int
    value: float
    formula: str


def _lattice_axes(lo, hi, step: Fraction) -> tuple[list[range], int]:
    """Per axis, the k with k * step in [lo_i, hi_i], and the number of
    points of that lattice box, checked to be at most MAX_GRID_POINTS."""
    axes = [range(math.ceil(a / step), math.floor(b / step) + 1) for a, b in zip(lo, hi)]
    # stop - start, since len() of a range overflows past sys.maxsize
    count = math.prod(max(0, r.stop - r.start) for r in axes)
    if count > MAX_GRID_POINTS:
        raise InvalidInput(
            f"grid step too fine: {count} lattice points, more than {MAX_GRID_POINTS} per grid"
        )
    return axes, count


def _translate_membership(K: VPolytope, lam: Fraction, points, centers):
    """``inside(i, j)``: whether points[i] lies in centers[j] + lam*K.

    With K's exact hull, points and centers are projected once onto the
    hull's planes ``n . X <= c`` over one common denominator m. For
    ``lam = p/q`` and K's scale s, w lies in c + lam*K exactly when
    ``s*q*(n . W - n . C) <= p*m*c`` on every plane, W and C being w and c
    times m; the factor s*q is folded into the normals, so each pair
    compares ints. Without a hull, one exact LP decides each distinct
    difference w - c, memoized for as long as the returned function lives.
    """
    hull = K.hull
    if hull is None:
        memo: dict[Vec, bool] = {}

        def inside(i: int, j: int) -> bool:
            z = vsub(points[i], centers[j])
            if z not in memo:
                memo[z] = contains_point(K.vertices, tuple(x / lam for x in z))
            return memo[z]

        return inside
    f = hull.scale * lam.denominator
    m, rows = project([*points, *centers], [tuple(f * x for x in n) for n, _ in hull.planes])
    offsets = [lam.numerator * m * c for _, c in hull.planes]
    # w is inside when s*q*(n . W) <= s*q*(n . C) + p*m*c, plane by plane
    bounds = [list(map(add, row, offsets)) for row in rows[len(points) :]]
    return lambda i, j: all(map(le, rows[i], bounds[j]))


def greedy_cover(K: VPolytope, lam: Fraction, grid_step: Fraction) -> Covering:
    """Cover the witness points of K by translates of lam*K, greedily.

    Witnesses are K's vertices plus all grid points (spacing
    ``grid_step``, absolute lattice) inside K. Candidate centers are the
    lattice points of the box K - lam*K (one whose translate misses K
    covers nothing). Each round picks the candidate covering the most
    still-uncovered witnesses, breaking ties by lexicographically
    smallest center. Raises :class:`GridTooCoarse` when no candidate can
    cover a remaining witness, and :class:`InvalidInput` when the two
    grids would make more than MAX_COVER_PAIRS witness-center pairs.
    """
    lam, grid_step = Fraction(lam), Fraction(grid_step)
    if not 0 < lam < 1:
        raise InvalidInput(f"shrink ratio must satisfy 0 < ratio < 1, got {lam}")
    if grid_step <= 0:
        raise InvalidInput(f"grid step must be positive, got {grid_step}")

    lo, hi = [min(x) for x in zip(*K.vertices)], [max(x) for x in zip(*K.vertices)]
    inner_axes, inner = _lattice_axes(lo, hi, grid_step)
    outer_axes, outer = _lattice_axes(
        [a - lam * b for a, b in zip(lo, hi)], [b - lam * a for a, b in zip(lo, hi)], grid_step
    )
    if inner * outer > MAX_COVER_PAIRS:
        raise InvalidInput(
            f"grid step too fine: {inner} x {outer} witness-center pairs, more than {MAX_COVER_PAIRS}"
        )
    # the grid points in K are those in the translate 0 + 1*K
    grid = list(product(*([k * grid_step for k in r] for r in inner_axes)))
    in_K = _translate_membership(K, ONE, grid, [(ZERO,) * K.dim])
    witnesses = sorted(set(K.vertices).union(p for i, p in enumerate(grid) if in_K(i, 0)))

    # candidates come in lexicographic order, so the first best is the least
    candidates = list(product(*([k * grid_step for k in r] for r in outer_axes)))
    inside = _translate_membership(K, lam, witnesses, candidates)
    coverage = [
        sum(1 << i for i in range(len(witnesses)) if inside(i, j)) for j in range(len(candidates))
    ]
    uncovered = (1 << len(witnesses)) - 1
    centers: list[Vec] = []
    while uncovered:
        best = max(
            range(len(candidates)), key=lambda j: (coverage[j] & uncovered).bit_count(), default=None
        )
        if best is None or not coverage[best] & uncovered:
            raise GridTooCoarse(f"{uncovered.bit_count()} witnesses cannot be covered from this grid")
        centers.append(candidates[best])
        uncovered &= ~coverage[best]

    return Covering(lam, tuple(centers), K, SAMPLE_CERTIFIED, tuple(witnesses))


def cover_to_partition(S: PointSet, cov: Covering, C: SymmetricBody) -> Partition:
    """Assign each point to the first translate containing it.

    Empty translates are dropped. ``C`` is the ambient norm the caller
    will verify the partition against; the assignment itself only needs
    exact membership in the translates. Raises :class:`PointUncovered`
    if some point of S escapes every translate (the covering is only
    witness-certified, so this can genuinely happen).
    """
    inside = _translate_membership(cov.body, cov.ratio, S.points, cov.centers)
    buckets: dict[int, list[int]] = {}
    for i, p in enumerate(S.points):
        j = next((j for j in range(len(cov.centers)) if inside(i, j)), None)
        if j is None:
            raise PointUncovered(f"point {p} lies in no covering translate")
        buckets.setdefault(j, []).append(i)
    return Partition(len(S.points), tuple(tuple(buckets[j]) for j in sorted(buckets)))


def _inner_term(m: int) -> float:
    # m*ln(m) + m*ln(ln(m)) + 5m; real only for m >= 2
    return m * math.log(m) + m * math.log(math.log(m)) + 5.0 * m


def _check_finite(name: str, n: int, max_n: int):
    if n > max_n:
        raise DomainError(f"{name} overflows a double past n = {max_n}, got n = {n}")


def covering_bound(n: int) -> BoundValue:
    """Upper bound 2^n (n ln n + n ln ln n + 5n) on covering a symmetric
    body by smaller homothets. Defined for n >= 2 (ln ln n must be real;
    it is negative for n = 2, which is returned as-is), and finite up to
    n = COVERING_BOUND_MAX_N; DomainError outside that range."""
    if n <= 1:
        raise DomainError("covering bound needs n >= 2 (ln ln n undefined below)")
    _check_finite("covering bound", n, COVERING_BOUND_MAX_N)
    return BoundValue(n, math.ldexp(_inner_term(n), n), FORMULA_COVERING)


def partition_bound(n: int) -> BoundValue:
    """Upper bound 2^n ((n+1) ln(n+1) + (n+1) ln ln(n+1) + 5n + 5) on
    partition numbers in n-dimensional gauge spaces. Defined for n >= 1,
    and finite up to n = PARTITION_BOUND_MAX_N; DomainError outside that
    range.

    Shares the inner term with :func:`covering_bound`, so the identity
    partition_bound(n) == covering_bound(n+1) / 2 holds to the last bit
    (scaling by powers of two is exact in binary floating point).
    """
    if n < 1:
        raise DomainError("partition bound needs n >= 1")
    _check_finite("partition bound", n, PARTITION_BOUND_MAX_N)
    return BoundValue(n, math.ldexp(_inner_term(n + 1), n), FORMULA_PARTITION)


def binomial_bound(n: int) -> BoundValue:
    """The older binomial-coefficient bound binom(2n, n) (n ln n + n ln ln n + 5n),
    kept for comparison tables. Defined for n >= 2, and finite up to
    n = BINOMIAL_BOUND_MAX_N; DomainError outside that range."""
    if n <= 1:
        raise DomainError("binomial bound needs n >= 2")
    _check_finite("binomial bound", n, BINOMIAL_BOUND_MAX_N)
    return BoundValue(n, math.comb(2 * n, n) * _inner_term(n), FORMULA_BINOMIAL)


def bounds_table(n_min: int = 2, n_max: int = 64):
    """Rows (n, partition_bound, covering_bound, binomial_bound).

    Raises DomainError for n_max past BINOMIAL_BOUND_MAX_N, where the
    first of the three formulas overflows."""
    if n_min < 2:
        raise DomainError("table starts at n = 2")
    return [
        (n, partition_bound(n).value, covering_bound(n).value, binomial_bound(n).value)
        for n in range(n_min, n_max + 1)
    ]
