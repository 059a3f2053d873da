"""Covering a polytope by smaller homothets, and partition/covering bounds.

The greedy cover is witness-based: it guarantees coverage only of an
explicit finite witness set (vertices plus a rational grid inside the
body), and says so in its certificate level. Turning a covering into a
partition assigns each point to the first translate containing it,
which is the constructive reading of "few homothets force few parts".

Every witness and center is an integer vector over one common
denominator m: the grid point ``k * step`` is ``k`` times the integer
spacing ``step * m``, the lattice boxes are read off K's rows over m by
integer floor division, and ``Fraction``s are built only for the
witnesses and centers returned. Membership of w in c + lam*K is decided
per center as one bitmask over the witnesses, on the two paths that
:mod:`borsuk.metric` takes: exact planes, or LPs. Where K has an exact
hull (dimensions 1 to 3, and K not flat: flat sets take the LP in every
dimension), the witnesses are sorted once along each of the hull's
integer planes, and a center's mask is the AND over the planes of the
prefix of that order its translate's plane bounds, found by bisection.
Otherwise one exact LP on integer rows decides each distinct difference
w - c, which grid witnesses and grid centers repeat many times: with W
and C their rows over m, K's scaled form ``(s, Y)`` and ``lam = p/q``,
whether ``q*s*(W - C)`` lies in the hull of the rows ``m*p*Y``. A
partition from a cover tests a point set the same way, on the set's own
scaled form, with the centers' rows, kept on the covering, put over the
same denominator.

The closed-form bound evaluators are the only deliberately inexact
computation in the package: they report double-precision values of
asymptotic formulas (with natural logarithms) and are not certificates.
Past the largest n whose value is a finite double they raise
:class:`DomainError` naming that n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, product
from operator import or_, sub

from ._value import Value
from .bodies import PointSet, Scaled, SymmetricBody, VPolytope, contains_point
from .errors import DimensionMismatch, DomainError, GridTooCoarse, InvalidInput, PointUncovered
from .linalg import ONE, Vec, common_scale, dots, over_common_denominator, show
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
# bounds its time, since the LP path tests every witness against every
# candidate. A finer grid is refused before any point is built. The
# tests, the demos and the benchmark use at most 1089 points and
# 245 x 1089 pairs.
MAX_GRID_POINTS = 10**5
MAX_COVER_PAIRS = 10**7


class Covering(Value):
    """Translate centers for a shrunk copy of a body, with witnesses."""

    _fields = ("ratio", "centers", "body", "certificate_level", "witnesses")
    ratio: Fraction
    centers: tuple[Vec, ...]
    body: VPolytope
    certificate_level: str
    witnesses: tuple[Vec, ...]
    # the centers as the integer rows they were picked as, over a common
    # denominator, which a partition from the cover reads; a covering
    # built by hand from its centers alone has them made from those
    center_rows: Scaled | None

    def __init__(self, ratio, centers, body, certificate_level, witnesses, center_rows=None):
        vars(self).update(
            ratio=ratio,
            centers=centers,
            body=body,
            certificate_level=certificate_level,
            witnesses=witnesses,
            center_rows=center_rows,
        )


class BoundValue(Value):
    _fields = ("n", "value", "formula")
    n: int
    value: float
    formula: str

    def __init__(self, n, value, formula):
        vars(self).update(n=n, value=value, formula=formula)


def _lattice_axes(box, step: int) -> tuple[list[range], int]:
    """Per axis (lo, hi) of the box, the k with k * step in [lo, hi], all
    integers and step positive, found by floor division, and the number of
    points of that lattice box, checked to be at most MAX_GRID_POINTS."""
    axes = [range(-(-lo // step), hi // step + 1) for lo, hi in box]
    # stop - start, since len() of a range overflows past sys.maxsize
    count = math.prod(max(0, r.stop - r.start) for r in axes)
    if count > MAX_GRID_POINTS:
        # the count itself can have more digits than str(int) will write
        raise InvalidInput(f"grid step too fine: more than {MAX_GRID_POINTS} lattice points per grid")
    return axes, count


def _lattice_membership(
    K: VPolytope, lam: Fraction, m: int, points, centers, first: bool = False
) -> list[int]:
    """Per center C, the bitmask of the points W (bit i for points[i]) in
    the translate C + lam*K, points and centers being integer vectors
    over the common denominator m. With ``first``, a center's mask keeps
    only the points in no earlier translate.

    With K's scaled form ``(s, Y)`` and ``lam = p/q``, W lies in
    C + lam*K exactly when ``s*q*(W - C)`` lies in the hull of the rows
    ``p*m*Y``. With K's exact hull ``n . X <= c``, at the same scale s,
    that is ``s*q*(n . W - n . C) <= p*m*c`` on every plane; the factor
    s*q is folded into the normals. Per plane one call of
    :func:`~borsuk.linalg.dots` gives ``n . W`` at every point and
    ``n . C`` at every center, the points are sorted by ``n . W`` once, and
    the points under a bound are a prefix of that order, found by
    bisection, so a center costs one bisection and one AND per plane.
    Without a hull, one exact LP over those integer rows decides each
    distinct difference W - C, and with ``first`` no point is tested past
    its first translate.
    """
    hull = K.hull
    s, Y = K.scaled
    f, g = s * lam.denominator, lam.numerator * m
    if hull is None:
        generators = [tuple([g * y for y in X]) for X in Y]
        memo: dict[tuple[int, ...], bool] = {}
        masks = []
        wanted = (1 << len(points)) - 1
        for C in centers:
            mask = 0
            for i, W in enumerate(points):
                if wanted >> i & 1:
                    z = tuple(map(sub, W, C))
                    if z not in memo:
                        memo[z] = contains_point(generators, tuple([f * x for x in z]))
                    mask |= memo[z] << i
            masks.append(mask)
            if first:
                wanted &= ~mask
        return masks
    k = len(points)
    masks = [(1 << k) - 1] * len(centers)
    rows = [*points, *centers]
    for n, c in hull.planes:
        # the plane's values at the points, then at the centers
        [column] = dots([[f * x for x in n]], rows)
        order = sorted(range(k), key=column.__getitem__)
        values = [column[i] for i in order]
        prefix = [0, *accumulate((1 << i for i in order), or_)]
        offset = g * c
        # a center whose mask is empty already skips the bisection
        masks = [mask and mask & prefix[bisect_right(values, v + offset)] for mask, v in zip(masks, column[k:])]
    if first:
        seen = 0
        for j, mask in enumerate(masks):
            masks[j], seen = mask & ~seen, seen | mask
    return masks


def greedy_cover(K: VPolytope, lam: Fraction, grid_step: Fraction) -> Covering:
    """Cover the witness points of K by translates of lam*K, greedily.

    Witnesses are K's vertices plus all grid points (spacing
    ``grid_step``, absolute lattice) inside K. Candidate centers are the
    lattice points of the box K - lam*K; one that covers no witness is
    never picked. Each round picks the candidate covering the most
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

    # vertices and lattice points as integer vectors over one denominator
    # m, the grid's spacing u; positive scaling keeps their lexicographic
    # order. K's box is (lo, hi) over m, and the box K - lam*K, for
    # lam = p/q, is (q*lo - p*hi, q*hi - p*lo) over q*m
    m, (rows, [(u,)]) = common_scale(K.scaled, (grid_step.denominator, [(grid_step.numerator,)]))
    box = [(min(x), max(x)) for x in zip(*rows)]
    p, q = lam.numerator, lam.denominator
    inner_axes, inner = _lattice_axes(box, u)
    outer_axes, outer = _lattice_axes([(q * lo - p * hi, q * hi - p * lo) for lo, hi in box], q * u)
    if inner * outer > MAX_COVER_PAIRS:
        raise InvalidInput(
            f"grid step too fine: {inner} x {outer} witness-center pairs, more than {MAX_COVER_PAIRS}"
        )
    vertices = set(rows)
    # the grid points in K are those in the translate 0 + 1*K
    grid = list(product(*([k * u for k in r] for r in inner_axes)))
    [in_K] = _lattice_membership(K, ONE, m, grid, [(0,) * K.dim])
    witnesses = sorted(vertices.union(X for i, X in enumerate(grid) if in_K >> i & 1))

    # candidates come in lexicographic order, so the first best is the least
    candidates = list(product(*([k * u for k in r] for r in outer_axes)))
    coverage = _lattice_membership(K, lam, m, witnesses, candidates)
    live = [(mask, c) for mask, c in zip(coverage, candidates) if mask]
    uncovered = (1 << len(witnesses)) - 1
    centers = []
    while uncovered:
        gains = [(mask & uncovered).bit_count() for mask, _ in live]
        best = max(gains, default=0)
        if not best:
            raise GridTooCoarse(f"{uncovered.bit_count()} witnesses cannot be covered from this grid")
        mask, center = live[gains.index(best)]
        centers.append(center)
        uncovered &= ~mask

    # one Fraction per distinct coordinate of what is returned
    frac = {x: Fraction(x, m) for x in {x for X in (*centers, *witnesses) for x in X}}

    def rational(X) -> Vec:
        return tuple(map(frac.__getitem__, X))

    return Covering(
        lam,
        tuple(map(rational, centers)),
        K,
        SAMPLE_CERTIFIED,
        tuple(map(rational, witnesses)),
        (m, tuple(centers)),
    )


def cover_to_partition(S: PointSet, cov: Covering, C: SymmetricBody) -> Partition:
    """Assign each point to the first translate containing it.

    Empty translates are dropped. ``C`` is the ambient norm the caller
    will verify the partition against; the assignment itself only needs
    exact membership in the translates. Raises :class:`DimensionMismatch`
    when S and the covered body differ in dimension, before any point is
    tested, and :class:`PointUncovered` if some point of S escapes every
    translate (the covering is only witness-certified, so this can
    genuinely happen).
    """
    if S.dim != cov.body.dim:
        raise DimensionMismatch(f"set of dim {S.dim} against body of dim {cov.body.dim}")
    n = len(S)
    m, (points, centers) = common_scale(S.scaled, cov.center_rows or over_common_denominator(cov.centers))
    masks = _lattice_membership(cov.body, cov.ratio, m, points, centers, first=True)
    missed = ((1 << n) - 1) & ~sum(masks)  # the masks are disjoint
    if missed:
        p = S.points[(missed & -missed).bit_length() - 1]
        raise PointUncovered(f"point {show(p)} lies in no covering translate")
    classes = (tuple(i for i in range(n) if mask >> i & 1) for mask in masks if mask)
    return Partition(n, tuple(classes))


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
    first of the three formulas overflows, and for an empty range."""
    if n_min < 2:
        raise DomainError("table starts at n = 2")
    if n_max < n_min:
        raise DomainError(f"n_max {n_max} is below n_min {n_min}")
    return [
        (n, partition_bound(n).value, covering_bound(n).value, binomial_bound(n).value)
        for n in range(n_min, n_max + 1)
    ]
