"""Greedy homothet covers, cover-to-partition, and the bound formulas."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from borsuk import covering
from borsuk.bodies import body_from_vertices, contains_point, planar_hull, point_set, vpolytope
from borsuk.covering import (
    BINOMIAL_BOUND_MAX_N,
    COVERING_BOUND_MAX_N,
    PARTITION_BOUND_MAX_N,
    SAMPLE_CERTIFIED,
    Covering,
    binomial_bound,
    bounds_table,
    cover_to_partition,
    covering_bound,
    greedy_cover,
    partition_bound,
    _translate_membership,
)
from borsuk.errors import DomainError, GridTooCoarse, PointUncovered
from borsuk.partition import borsuk_number, verify_partition
from oracles import _in_translate, lp_path, per_pair_cover_to_partition, per_pair_greedy_cover

F = Fraction


@pytest.fixture
def square_cover(unit_square_poly):
    return greedy_cover(unit_square_poly, F(3, 5), F(1, 4))


def test_square_cover_uses_four_centers(square_cover):
    # frozen greedy output for the unit-square fixture
    assert square_cover.centers == (
        (F(0), F(0)),
        (F(1, 2), F(1, 2)),
        (F(-1, 4), F(1, 2)),
        (F(1, 2), F(-1, 4)),
    )
    assert square_cover.certificate_level == SAMPLE_CERTIFIED


def test_square_cover_witnesses_rechecked(square_cover, unit_square_poly):
    # every witness lies in at least one translate (exact membership)
    inside = _translate_membership(
        unit_square_poly, square_cover.ratio, square_cover.witnesses, square_cover.centers
    )
    for i in range(len(square_cover.witnesses)):
        assert any(inside(i, j) for j in range(len(square_cover.centers)))


def test_segment_cover_two_centers():
    seg = vpolytope([(0,), (1,)])
    cov = greedy_cover(seg, F(1, 2), F(1, 8))
    # frozen greedy output: two aligned half-length segments
    assert cov.centers == ((F(0),), (F(1, 2),))


def test_ratio_preconditions(unit_square_poly):
    with pytest.raises(ValueError):
        greedy_cover(unit_square_poly, F(1), F(1, 4))
    with pytest.raises(ValueError):
        greedy_cover(unit_square_poly, F(3, 2), F(1, 4))
    with pytest.raises(ValueError):
        greedy_cover(unit_square_poly, F(1, 2), F(0))


def test_grid_too_coarse(unit_square_poly):
    with pytest.raises(GridTooCoarse):
        greedy_cover(unit_square_poly, F(1, 16), F(2, 5))


def test_cover_to_partition_square_corners(square_cover, unit_square_poly):
    S = point_set([(0, 0), (1, 0), (0, 1), (1, 1)])
    C = body_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    P = cover_to_partition(S, square_cover, C)
    assert all(len(cls) == 1 for cls in P.classes)
    assert len(P.classes) == 4


def test_cover_to_partition_nine_grid(square_cover, unit_square_poly):
    from borsuk.metric import polytope_diameter, set_diameter

    grid = [(F(i, 2), F(j, 2)) for i in range(3) for j in range(3)]
    S = point_set(grid)
    C = body_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])  # D(unit square)
    P = cover_to_partition(S, square_cover, C)
    assert len(P.classes) <= 4
    assert verify_partition(C, S, P)
    assert len(P.classes) >= borsuk_number(C, S).number
    # each class fits in a translate of ratio*K, so its diameter is at
    # most ratio times the diameter of K
    cap = square_cover.ratio * polytope_diameter(C, unit_square_poly)
    for cls in P.classes:
        if len(cls) > 1:
            sub = point_set([S.points[i] for i in cls])
            assert set_diameter(C, sub)[0] <= cap


def test_cover_to_partition_uncovered_point(square_cover):
    S = point_set([(0, 0), (5, 5)])
    C = body_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    with pytest.raises(PointUncovered):
        cover_to_partition(S, square_cover, C)


def test_covering_bound_values():
    # recomputed directly from the formula, natural logarithms
    assert covering_bound(3).value == 8 * (3 * math.log(3) + 3 * math.log(math.log(3)) + 15)
    assert covering_bound(2).value == pytest.approx(42.613074, abs=1e-5)
    assert math.isclose(covering_bound(3).value, 148.6238427908354)


def test_partition_bound_values():
    assert partition_bound(3).value == 8 * (4 * math.log(4) + 4 * math.log(math.log(4)) + 20)
    assert partition_bound(1).value == 2 * (2 * math.log(2) + 2 * math.log(math.log(2)) + 10)


def test_bound_domains():
    with pytest.raises(DomainError):
        covering_bound(1)
    with pytest.raises(DomainError):
        partition_bound(0)
    with pytest.raises(DomainError):
        binomial_bound(1)


def test_partition_bound_is_half_the_covering_bound_above():
    for n in range(1, 65):
        assert partition_bound(n).value == covering_bound(n + 1).value / 2.0


def test_covering_bound_monotone():
    values = [covering_bound(n).value for n in range(3, 65)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_partition_bound_beats_binomial_bound():
    for n in range(3, 65):
        assert partition_bound(n).value < binomial_bound(n).value
    # and the comparison genuinely needs n >= 3
    assert partition_bound(2).value > binomial_bound(2).value


def test_bounds_table_matches_golden(golden_path):
    rows = bounds_table(2, 64)
    lines = ["n,partition_bound,covering_bound,binomial_bound"]
    for n, part, cov, bino in rows:
        lines.append(f"{n},{part!r},{cov!r},{bino!r}")
    produced = "\n".join(lines) + "\n"
    golden = (golden_path / "bounds_table.csv").read_text()
    assert produced == golden


def _raw_value(formula, n):
    # the formula in plain float arithmetic, inf where it overflows
    inner = lambda m: m * math.log(m) + m * math.log(math.log(m)) + 5.0 * m
    try:
        if formula == "covering":
            return math.ldexp(inner(n), n)
        if formula == "partition":
            return math.ldexp(inner(n + 1), n)
        return math.comb(2 * n, n) * inner(n)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("formula, bound, max_n", [
    ("covering", covering_bound, COVERING_BOUND_MAX_N),
    ("partition", partition_bound, PARTITION_BOUND_MAX_N),
    ("binomial", binomial_bound, BINOMIAL_BOUND_MAX_N),
])
def test_bounds_past_double_range_raise_domain_error(formula, bound, max_n):
    # max_n is exactly the last finite value of the formula
    assert math.isfinite(_raw_value(formula, max_n))
    assert _raw_value(formula, max_n + 1) == math.inf
    assert bound(max_n).value == _raw_value(formula, max_n)
    for n in (max_n + 1, 2000, 10**6):
        with pytest.raises(DomainError, match=f"past n = {max_n}"):
            bound(n)


def test_bounds_table_stops_at_the_first_overflow():
    assert bounds_table(2, BINOMIAL_BOUND_MAX_N)[-1][0] == BINOMIAL_BOUND_MAX_N
    with pytest.raises(DomainError, match=f"past n = {BINOMIAL_BOUND_MAX_N}"):
        bounds_table(2, 2000)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (GridTooCoarse, PointUncovered) as exc:
        return type(exc)


def _cover_cases():
    """(K, ratio, grid step) on seeded inputs: segments, lattice and random
    polygons (vertices in thirds against steps of quarters, triangles that
    are not symmetric, a collinear one), the 3-simplex, the 3-cube, and
    two bodies without a hull: a parallelogram on a slanted plane in space
    and the 4-simplex."""
    rng = random.Random(5)
    cases = [
        (vpolytope([(0,), (1,)]), F(1, 2), F(1, 8)),
        (vpolytope([(F(-1, 3),), (F(5, 7),)]), F(3, 5), F(1, 4)),
        (vpolytope([(0, 0), (1, 0), (0, 1), (1, 1)]), F(3, 5), F(1, 4)),
        (vpolytope([(0, 0), (1, 0), (0, 1), (1, 1)]), F(1, 16), F(2, 5)),
        (vpolytope([(0, 0), (2, 1), (1, 2)]), F(1, 2), F(1, 2)),
        (vpolytope([(0, 0), (F(1, 3), F(2, 3)), (1, 1)]), F(2, 3), F(1, 4)),
        (vpolytope([(0, 0), (F(1, 2), F(1, 2)), (1, 1)]), F(1, 2), F(1, 4)),
        (vpolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), F(3, 5), F(1, 3)),
        (vpolytope(list(product((0, 1), repeat=3))), F(3, 5), F(1, 2)),
        (vpolytope([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)]), F(1, 2), F(1, 2)),
        (vpolytope([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]), F(2, 3), F(1, 2)),
    ]
    ratios = (F(1, 3), F(1, 2), F(3, 5), F(2, 3), F(4, 5))
    steps = (F(1, 4), F(1, 5), F(1, 6), F(1, 3))

    def coord():
        den = rng.choice((2, 3, 5))
        return F(rng.randint(0, den), den)

    for _ in range(10):
        lo, hi = sorted(F(rng.randint(-6, 6), rng.choice((3, 7, 10))) for _ in range(2))
        cases.append((vpolytope([(lo,), (hi + F(1, 5),)]), rng.choice(ratios), F(1, rng.randint(2, 6))))
    for dim, count in ((2, 30), (3, 4)):
        for _ in range(count):
            verts = {tuple(coord() for _ in range(dim)) for _ in range(rng.randint(dim + 1, dim + 3))}
            cases.append((vpolytope(sorted(verts)), rng.choice(ratios), rng.choice(steps)))
    return cases


def test_greedy_cover_and_partition_match_per_pair_reference():
    # the hull's integer planes, and the memo on w - c where K has no hull,
    # must give the same centers, witnesses, partitions and failures as one
    # LP per pair over the centers meeting K
    rng = random.Random(11)
    raised = {GridTooCoarse: 0, PointUncovered: 0}
    for K, lam, step in _cover_cases():
        cov = _outcome(greedy_cover, K, lam, step)
        assert cov == _outcome(per_pair_greedy_cover, K, lam, step)
        if not isinstance(cov, Covering):
            raised[cov] += 1
            continue
        # points of K's bounding box in sixths: some off the witness grid
        # yet covered, some outside every translate
        box = [(min(v[i] for v in K.vertices), max(v[i] for v in K.vertices)) for i in range(K.dim)]
        extra = {tuple(a + (b - a) * F(rng.randint(0, 6), 6) for a, b in box) for _ in range(3)}
        for points in (cov.witnesses, sorted(set(cov.witnesses) | extra)):
            S = point_set(points)
            P = _outcome(cover_to_partition, S, cov, None)
            assert P == _outcome(per_pair_cover_to_partition, S, cov)
            raised[PointUncovered] += P is PointUncovered
    assert min(raised.values()) >= 5


def _count_membership_lps(monkeypatch):
    """The points x of every membership LP covering makes, as a list that
    grows while monkeypatch is active."""
    calls = []
    real = covering.contains_point

    def counted(generators, x):
        calls.append(x)
        return real(generators, x)

    monkeypatch.setattr(covering, "contains_point", counted)
    return calls


def test_greedy_cover_solves_one_lp_per_distinct_difference(unit_square_poly, monkeypatch):
    # the hull path takes no LP; the LP path takes one per grid point to
    # find the witnesses, then one per distinct w - c
    centers = ((F(0), F(0)), (F(1, 2), F(1, 2)), (F(-1, 4), F(1, 2)), (F(1, 2), F(-1, 4)))
    calls = _count_membership_lps(monkeypatch)
    assert greedy_cover(unit_square_poly, F(3, 5), F(1, 4)).centers == centers
    assert calls == []
    lp_path(monkeypatch)
    cov = greedy_cover(unit_square_poly, F(3, 5), F(1, 4))
    assert cov.centers == centers
    grid, differences = calls[:25], calls[25:]
    assert len(set(grid)) == 25
    assert len(differences) == len(set(differences)) == 121


def test_partition_memo_with_coprime_denominators(square_cover, monkeypatch):
    # coordinates over distinct primes have no small common denominator;
    # q and q + (1/2, 1/2) meet the same difference at the centers (0, 0)
    # and (1/2, 1/2), which must share one LP, and no other pair may
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    rng = random.Random(3)
    base = {(F(1, rng.choice(primes)), F(1, rng.choice(primes))) for _ in range(60)}
    S = point_set(sorted(base | {(x + F(1, 2), y + F(1, 2)) for x, y in base}))
    expected = per_pair_cover_to_partition(S, square_cover)
    calls = _count_membership_lps(monkeypatch)
    assert cover_to_partition(S, square_cover, None) == expected
    assert calls == []
    lp_path(monkeypatch)
    assert cover_to_partition(S, square_cover, None) == expected
    first_hits = sum(
        1 + next(j for j, c in enumerate(square_cover.centers) if _in_translate(square_cover.body, square_cover.ratio, c, p))
        for p in S.points
    )
    assert len(calls) == len(set(calls)) < first_hits


def _membership_probes(K, rng):
    """(x, whether x is in K) for K's hull: each vertex, points exactly on
    an edge, inner points, and points just outside (past each vertex, off
    the line of a segment, beside a single point)."""
    hull = planar_hull(K.vertices).vertices
    middle = tuple(sum(c) / len(hull) for c in zip(*hull))
    probes = [(v, True) for v in hull] + [(middle, True)]
    if len(hull) == 1:
        (x, y), = hull
        return probes + [((x + F(1, 97), y), False), ((x, y - F(1, 97)), False)]
    for p, q in zip(hull, hull[1:] + hull[:1]):
        for t in (F(1, 2), F(rng.randint(1, 6), 7)):
            probes.append((tuple(a + t * (b - a) for a, b in zip(p, q)), True))
    for v in hull:
        probes.append((tuple(c + (c - m) / rng.randint(3, 9) for c, m in zip(v, middle)), False))
    if len(hull) == 2:
        (px, py), (qx, qy) = hull
        probes.append(((middle[0] + (py - qy) / 97, middle[1] + (qx - px) / 97), False))
    for _ in range(4):
        weights = [F(rng.randint(1, 5)) for _ in hull]
        inner = tuple(sum(w * v[i] for w, v in zip(weights, hull)) / sum(weights) for i in range(2))
        probes.append((inner, True))
    return probes


def test_hull_membership_matches_lp_membership():
    # K a polygon (with inner and collinear boundary points), a segment
    # given by collinear points, or one point given once or repeated
    rng = random.Random(20261018)
    shapes = [
        [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), 0), (F(1, 2), F(1, 2))],
        [(0, 0), (2, 1), (1, 2)],
        [(0, 0), (1, 1), (2, 2), (F(1, 3), F(1, 3))],
        [(F(-1, 3), 2), (F(-1, 3), F(5, 7)), (F(-1, 3), -1)],
        [(0, 0), (F(3, 4), 0), (F(1, 4), 0)],
        [(F(2, 5), F(-1, 3))],
        [(1, 1), (1, 1), (1, 1)],
    ]
    for _ in range(12):
        shapes.append([(F(rng.randint(0, 6), 3), F(rng.randint(0, 6), 2)) for _ in range(rng.randint(3, 7))])
    for _ in range(6):
        d = (F(rng.randint(-4, 4), 3), F(rng.randint(1, 4), 5))
        shapes.append([tuple(F(rng.randint(-3, 3), 2) * c + 1 for c in d) for _ in range(4)])
    tally = {True: 0, False: 0}
    for vertices in shapes:
        K = vpolytope(vertices)
        for x, expected in _membership_probes(K, rng):
            lam = F(rng.randint(1, 9), 10)
            center = (F(rng.randint(-5, 5), 4), F(rng.randint(-5, 5), 3))
            point = tuple(c + lam * v for c, v in zip(center, x))
            inside = _translate_membership(K, lam, [point], [center])
            assert inside(0, 0) == contains_point(K.vertices, x) == expected
            tally[expected] += 1
    assert tally[True] >= 300 and tally[False] >= 80
