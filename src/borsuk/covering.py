"""Covering a polytope by smaller homothets, and partition/covering bounds.

The greedy cover is witness-based: it guarantees coverage only of an
explicit finite witness set (vertices plus a rational grid inside the
body), and says so in its certificate level. Turning a covering into a
partition assigns each point to the first translate containing it,
which is the constructive reading of "few homothets force few parts".

Whether w lies in c + lam*K depends only on w - c, which grid witnesses
and grid centers repeat many times, so both steps decide membership once
per distinct difference: by orientation tests against K's exact hull in
the plane, and by one exact LP in other dimensions.

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
from operator import getitem

from .bodies import PointSet, SymmetricBody, VPolytope, contains_point
from .errors import DomainError, GridTooCoarse, InvalidInput, PointUncovered
from .linalg import Vec, vsub
from .partition import Partition

SAMPLE_CERTIFIED = "sample_certified"
VERTEX_CERTIFIED = "vertex_certified"

FORMULA_COVERING = "rogers_zong"
FORMULA_PARTITION = "partition"
FORMULA_BINOMIAL = "binomial"

# Largest n at which each bound formula is a finite double (below
# sys.float_info.max); every larger n overflows.
COVERING_BOUND_MAX_N = 1010
PARTITION_BOUND_MAX_N = 1010
BINOMIAL_BOUND_MAX_N = 508


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


def _lattice_axis(lo: Fraction, hi: Fraction, step: Fraction):
    k = math.ceil(lo / step)
    top = math.floor(hi / step)
    return [k0 * step for k0 in range(k, top + 1)]


def _bounding_box(vertices):
    dim = len(vertices[0])
    lo = [min(v[i] for v in vertices) for i in range(dim)]
    hi = [max(v[i] for v in vertices) for i in range(dim)]
    return lo, hi


def _in_body(K: VPolytope, x: Vec) -> bool:
    if K.hull is not None:
        return K.hull.contains(x)
    return contains_point(K.vertices, x)


def _in_translate(K: VPolytope, lam: Fraction, center: Vec, point: Vec) -> bool:
    return _in_body(K, tuple(c / lam for c in vsub(point, center)))


def _translate_membership(K: VPolytope, lam: Fraction, points, centers):
    """``inside(i, j)``: whether points[i] lies in centers[j] + lam*K,
    memoized on their difference. Each distinct coordinate difference
    is numbered once per axis, so keys are small ints whatever the
    denominators; the memo lives as long as the returned function."""
    rows: list[list[list[int]]] = [[] for _ in points]
    cols: list[list[int]] = [[] for _ in centers]
    for k in range(K.dim):
        xs = {x: n for n, x in enumerate({p[k] for p in points})}
        ys = {y: n for n, y in enumerate({c[k] for c in centers})}
        numbers: dict[Fraction, int] = {}
        table = [[numbers.setdefault(x - y, len(numbers)) for y in ys] for x in xs]
        for p, row in zip(points, rows):
            row.append(table[xs[p[k]]])
        for c, col in zip(centers, cols):
            col.append(ys[c[k]])
    memo: dict[tuple[int, ...], bool] = {}

    def inside(i: int, j: int) -> bool:
        key = tuple(map(getitem, rows[i], cols[j]))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _in_translate(K, lam, centers[j], points[i])
        return hit

    return inside


def greedy_cover(K: VPolytope, lam: Fraction, grid_step: Fraction) -> Covering:
    """Cover the witness points of K by translates of lam*K, greedily.

    Witnesses are K's vertices plus all grid points (spacing
    ``grid_step``, absolute lattice) inside K. Candidate centers are the
    lattice points of the box K - lam*K (one whose translate misses K
    covers nothing). Each round picks the candidate covering the most
    still-uncovered witnesses, breaking ties by lexicographically
    smallest center. Raises :class:`GridTooCoarse` when no candidate can
    cover a remaining witness.
    """
    lam = Fraction(lam)
    grid_step = Fraction(grid_step)
    if not 0 < lam < 1:
        raise InvalidInput(f"shrink ratio must satisfy 0 < ratio < 1, got {lam}")
    if grid_step <= 0:
        raise InvalidInput(f"grid step must be positive, got {grid_step}")

    lo, hi = _bounding_box(K.vertices)
    inner_axes = [_lattice_axis(lo[i], hi[i], grid_step) for i in range(K.dim)]
    witnesses = set(K.vertices)
    for p in product(*inner_axes):
        if _in_body(K, p):
            witnesses.add(p)
    witnesses = sorted(witnesses)

    outer_axes = [
        _lattice_axis(lo[i] - lam * hi[i], hi[i] - lam * lo[i], grid_step)
        for i in range(K.dim)
    ]
    candidates = list(product(*outer_axes))
    inside = _translate_membership(K, lam, witnesses, candidates)
    coverage = {
        c: frozenset(i for i in range(len(witnesses)) if inside(i, j))
        for j, c in enumerate(candidates)
    }

    uncovered = set(range(len(witnesses)))
    centers: list[Vec] = []
    while uncovered:
        best_center = None
        best_gain = 0
        for c in candidates:
            gain = len(coverage[c] & uncovered)
            if gain > best_gain or (gain == best_gain and gain > 0 and c < best_center):
                best_gain = gain
                best_center = c
        if best_center is None:
            raise GridTooCoarse(
                f"{len(uncovered)} witnesses cannot be covered from this grid"
            )
        centers.append(best_center)
        uncovered -= coverage[best_center]

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
    for idx, p in enumerate(S.points):
        for c_idx in range(len(cov.centers)):
            if inside(idx, c_idx):
                buckets.setdefault(c_idx, []).append(idx)
                break
        else:
            raise PointUncovered(f"point {p} lies in no covering translate")
    classes = tuple(tuple(buckets[k]) for k in sorted(buckets))
    return Partition(len(S.points), classes)


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
