"""Point sets, polytopes and vertex bodies built from their scaled form
alone, against their twins built from ``Fraction`` tuples; and the
extremes pass one body and set share."""

import random
import re
from fractions import Fraction

import pytest

from borsuk import metric, verify
from borsuk.bodies import (
    PointSet,
    SymmetricBody,
    VPolytope,
    difference_body,
    lift_body,
    lift_set,
    point_set,
    prune_redundant,
)
from borsuk.covering import cover_to_partition, greedy_cover
from borsuk.errors import BorsukError, GenerationFailed, GridTooCoarse, PointUncovered
from borsuk.generators import gen_random_body, gen_random_points, gen_random_polytope
from borsuk.linalg import lowest_terms, rational_points, vneg
from borsuk.metric import body_contains, gauge, set_diameter
from borsuk.partition import borsuk_number, partition, verify_partition
from oracles import (
    fraction_difference_body,
    fraction_gen_random_body,
    fraction_gen_random_points,
    fraction_gen_random_polytope,
    gauge_by_support_enumeration,
    lp_min_by_enumeration,
    lp_path,
    per_pair_cover_to_partition,
    per_pair_greedy_cover,
)

F = Fraction
BOUNDS = ((6, 4), (16, 16), (3, 1), (40, 9))


def _made(gen, *args):
    try:
        return gen(*args)
    except GenerationFailed:
        return None


def _lifted_twin(K: VPolytope) -> SymmetricBody:
    """The lift of the pruned K from its ``Fraction`` vertices."""
    up = [v + (F(1),) for v in K.vertices]
    return SymmetricBody(K.dim + 1, vertices=tuple(sorted(up + [vneg(v) for v in up])))


def _lifted_set_twin(S: PointSet) -> PointSet:
    up = [p + (F(1),) for p in S.points]
    labels = [(i, 1) for i in range(len(S))] + [(i, -1) for i in range(len(S))]
    return PointSet(S.dim + 1, tuple(up + [vneg(p) for p in up]), tuple(labels))


def _twins():
    """(kind, row-built, ``Fraction``-built) for seeded sets, polytopes and
    bodies in 1D to 4D, with the lifts and difference bodies of the
    polytopes; each row-built one fresh, none of its points read yet."""
    for seed in range(48):
        dim = 1 + seed % 4
        N, D = BOUNDS[seed % len(BOUNDS)]
        S = _made(gen_random_points, seed, dim, 2 + seed % 6, N, D)
        if S is not None:
            yield "points", S, fraction_gen_random_points(seed, dim, 2 + seed % 6, N, D)
            yield "points", lift_set(S), _lifted_set_twin(fraction_gen_random_points(seed, dim, 2 + seed % 6, N, D))
        C = _made(gen_random_body, seed, dim, 1 + seed % 4, N, D)
        if C is not None:
            yield "vertices", C, fraction_gen_random_body(seed, dim, 1 + seed % 4, N, D)
        K = gen_random_polytope(seed, dim, dim + 1 + seed % 4, N, D)
        Kf = fraction_gen_random_polytope(seed, dim, dim + 1 + seed % 4, N, D)
        yield "vertices", K, Kf
        yield "vertices", lift_body(K), _lifted_twin(Kf)
        yield "vertices", difference_body(K), fraction_difference_body(Kf)


def test_row_built_objects_equal_their_fraction_built_twins():
    kinds = {}
    for kind, row, frac in _twins():
        key = (type(row).__name__, row.dim)
        kinds[key] = kinds.get(key, 0) + 1
        # a 4D polytope and the sums of its difference body are pruned by
        # LPs, which read the rows too
        assert kind not in vars(row), row
        # repr, hash and == read the points on their own
        assert repr(row) == repr(frac)
        assert hash(row) == hash(frac)
        assert row == frac and frac == row
        assert getattr(row, kind) == getattr(frac, kind)
        assert row.scaled == frac.scaled
    # every class in every dimension, the 4D random bodies pruned by LPs
    for name in ("PointSet", "VPolytope", "SymmetricBody"):
        for dim in range(1, 5):
            assert kinds.get((name, dim), 0) >= 3, (name, dim, kinds)


def _refused(make):
    with pytest.raises(BorsukError) as caught:
        make()
    return type(caught.value), str(caught.value)


def _scaled_and_points(m, rows):
    """The rows over 3m, a finer scale than theirs, so that a row shown as
    it is reads as no point, and the points they stand for."""
    return (3 * m, tuple(tuple([3 * x for x in X]) for X in rows)), rational_points(m, rows)


def test_refused_row_built_inputs_name_the_points_as_the_fraction_built_ones():
    rng = random.Random(3)
    seen = set()
    for seed in range(40):
        dim = 1 + seed % 4
        S = _made(gen_random_points, seed, dim, 3 + seed % 4, 6, 4)
        if S is None:
            continue
        m, rows = S.scaled
        k = rng.randrange(len(rows))
        short = rows[:k] + (rows[k][:-1] + (rows[k][-1], rows[k][0]),) + rows[k + 1 :]
        doubled = rows + (rows[k],)
        cases = []
        for bad in (short, doubled, ()):
            scaled, points = _scaled_and_points(m, bad)
            cases.append((lambda s=scaled: PointSet(dim, scaled=s), lambda p=points: PointSet(dim, p)))
        for bad in (short, ()):
            scaled, points = _scaled_and_points(m, bad)
            cases.append((lambda s=scaled: VPolytope(dim, scaled=s), lambda p=points: VPolytope(dim, p)))
        scaled, points = _scaled_and_points(m, rows)
        labels = (0,) * (len(rows) + 1)
        cases.append((lambda s=scaled: PointSet(dim, labels=labels, scaled=s), lambda p=points: PointSet(dim, p, labels)))
        cases.append((lambda s=scaled: VPolytope(0, scaled=s), lambda p=points: VPolytope(0, p)))
        # a body whose vertex k lost its mirror, one of the wrong dim, one
        # that lies in a hyperplane, and one of no vertex
        mirrored = sorted(set(rows) | {vneg(X) for X in rows})
        lost = [X for X in mirrored if X != vneg(rows[k])] if any(rows[k]) else mirrored[:0]
        flat = sorted({X[:-1] + (0,) for X in mirrored}) if dim > 1 else []
        for bad in (lost, flat, short + tuple(vneg(X) for X in short), ()):
            scaled, points = _scaled_and_points(m, bad)
            cases.append(
                (lambda s=scaled: SymmetricBody(dim, scaled=s), lambda p=points: SymmetricBody(dim, vertices=p))
            )
        for by_rows, by_fractions in cases:
            got = _refused(by_rows)
            assert got == _refused(by_fractions)
            seen.add(got[0].__name__ + ": " + re.sub(r" \(.*\)|\d+", "", got[1]))
    assert len(seen) == 10, sorted(seen)
    with pytest.raises(BorsukError, match=r"^vertex \(1, 0\) has no mirror \(-1, 0\)$"):
        SymmetricBody(2, scaled=(2, ((0, 0), (2, 0), (0, 2))))
    with pytest.raises(BorsukError, match=r"^point \(3/4, 1, 2\) does not have dim 2$"):
        PointSet(2, scaled=(4, ((1, 2), (3, 4, 8))))


def test_random_polytopes_and_planar_instances_make_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    if "_from_coprime_ints" in vars(Fraction):  # the arithmetic's own constructor from 3.12
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(lambda cls, n, d: made.append((n, d)) or coprime(n, d)))
    instances = [verify._planar_instance(11 * 1_000_003 + i, i) for i in range(36)]
    polytopes = [gen_random_polytope(seed, 1 + seed % 3, 2 + seed % 6, *BOUNDS[seed % 4]) for seed in range(60)]
    assert made == []
    # the points are made when read, and only then
    assert all(S.points for _, S in instances) and all(K.vertices for K in polytopes)
    assert made


def _seeded_instances(count):
    for i in range(count):
        C, S = verify._planar_instance(5 * 1_000_003 + i, i)
        yield C, S


def test_a_partition_is_checked_on_the_table_its_graph_was_read_from(monkeypatch):
    asked = []
    extremes = metric._extremes

    def counted(C, scaled):
        asked.append(C)
        return extremes(C, scaled)

    monkeypatch.setattr(metric, "_extremes", counted)
    runs = 0
    for C, S in _seeded_instances(24):
        before = len(asked)
        cert = borsuk_number(C, S)
        assert verify_partition(C, S, cert.partition)
        assert asked[before:] == [C]
        runs += 1
    assert runs == 24


def test_each_body_on_one_set_gets_its_own_extremes():
    """Bodies asked of one set in turn get their own extremes, each equal
    to those on an equal set never asked before; keyed by the set alone,
    the second body would read the first's."""
    differ = 0
    for C, S in _seeded_instances(30):
        other = gen_random_body(len(S), 2, 4, 9, 5)
        for first, second in ((C, other), (other, C), (C, other)):
            got = set_diameter(first, S), set_diameter(second, S)
            assert got == (set_diameter(first, PointSet(2, S.points)), set_diameter(second, PointSet(2, S.points)))
            differ += got[0][0] != got[1][0]
            # S holds the extremes of the last body asked
            assert vars(S)["extremes"][0] is second
    assert differ >= 60


def test_an_equal_fresh_set_gives_the_same_verdict():
    verdicts = set()
    for C, S in _seeded_instances(30):
        cert = borsuk_number(C, S)
        n = len(S)
        for P in (cert.partition, partition(n, [range(n)]), partition(n, [[i] for i in range(n)])):
            verdict = verify_partition(C, S, P)
            assert verdict == verify_partition(C, PointSet(2, S.points), P)
            assert verdict == verify_partition(C, PointSet(2, scaled=S.scaled), P)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _extreme_rows(rows):
    """The distinct rows outside the hull of the other distinct rows, in
    sorted order, by basic-solution enumeration: the reference for pruning
    by LPs. A single row is kept without a test."""
    distinct = sorted(set(rows))
    if len(distinct) == 1:
        return distinct

    def inside(X):
        others = [Y for Y in distinct if Y != X]
        A = [list(column) for column in zip(*others)] + [[1] * len(others)]
        return lp_min_by_enumeration([0] * len(others), A, [*X, 1]) is not None

    return [X for X in distinct if not inside(X)]


# flat sets, which take the LP in every dimension, as (dim, m, rows): a
# segment with an inner point, three collinear points in the plane,
# coplanar and collinear points in space, and one point given twice
FLAT_SETS = [
    (2, 3, [(0, 0), (3, 3), (1, 1)]),
    (2, 1, [(0, 0), (2, 1), (4, 2)]),
    (3, 2, [(0, 0, 0), (2, 0, 1), (0, 2, 1), (2, 2, 2), (1, 1, 1)]),
    (3, 5, [(1, 1, 1), (3, 3, 3), (2, 2, 2)]),
    (4, 7, [(1, 2, 3, 4), (1, 2, 3, 4)]),
]


def _lp_pruned_sets():
    """(dim, m, rows): seeded sets in 4D over m = 6, each with its first
    point given twice and the midpoints of two pairs, then the flat sets."""
    rng = random.Random(36)
    for _ in range(3):
        rows = [tuple([2 * rng.randint(-3, 3) for _ in range(4)]) for _ in range(5)]
        midpoints = [tuple([(a + b) // 2 for a, b in zip(rows[i], rows[i + 1])]) for i in (1, 3)]
        yield 4, 6, rows + [rows[0]] + midpoints
    yield from FLAT_SETS


@pytest.mark.parametrize("path", ["hull", "lp"])
def test_lp_pruning_reads_rows_and_keeps_the_extreme_points(path, monkeypatch):
    if path == "lp":
        lp_path(monkeypatch)
    for dim, m, rows in _lp_pruned_sets():
        P = VPolytope(dim, scaled=lowest_terms(m, rows))
        pruned = prune_redundant(P)
        assert "vertices" not in vars(P) and "vertices" not in vars(pruned)
        assert pruned.pruned and pruned.seed_hull is None and prune_redundant(pruned) is pruned
        extreme = _extreme_rows(rows)
        # over the least common denominator of the survivors
        assert pruned.scaled == lowest_terms(m, extreme)
        assert pruned == VPolytope(dim, rational_points(m, extreme), pruned=True)


def _lp_bodies():
    """Row-built 4D bodies: seeded random bodies, which take the LP on
    either path, and symmetric lifts, whose normals come from the hull of
    their slice unless every hull is taken away."""
    for seed in range(3):
        yield gen_random_body(seed, 4, 4, 6, 3)
        yield lift_body(gen_random_polytope(seed, 3, 5, 6, 3))


@pytest.mark.parametrize("path", ["hull", "lp"])
def test_lp_gauges_and_membership_read_rows(path, monkeypatch):
    if path == "lp":
        lp_path(monkeypatch)
    rng = random.Random(7)
    inside = {True: 0, False: 0}
    for C in _lp_bodies():
        vertices = rational_points(*C.scaled)
        points = [(F(0),) * 4, vertices[0], tuple(2 * c for c in vertices[-1])]
        points += [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)) for _ in range(3)]
        for x in points:
            expected = gauge_by_support_enumeration(vertices, x)
            assert gauge(C, x) == expected
            assert body_contains(C, x) == (expected <= 1)
            inside[expected <= 1] += 1
        assert "vertices" not in vars(C)
    assert min(inside.values()) >= 6


def _lp_covers():
    """(K, ratio, grid step) with K row-built: the 4-simplex, seeded 4D
    polytopes, and the flat sets, which take the LP on either path."""
    simplex = [(0,) * 4] + [tuple(int(i == k) for i in range(4)) for k in range(4)]
    yield VPolytope(4, scaled=(1, tuple(simplex))), F(3, 5), F(1, 2)
    for seed in range(3):
        yield gen_random_polytope(seed, 4, 6, 1, 1), F(1, 2), F(1)
    for (dim, m, rows), step in zip(FLAT_SETS[:4], (F(1, 8), F(1, 4), F(1, 2), F(1, 5))):
        yield VPolytope(dim, scaled=lowest_terms(m, rows)), F(3, 5), step


def _outcome(f, *args):
    """f's result, or the class of the error it refused its input with."""
    try:
        return f(*args)
    except (GridTooCoarse, PointUncovered) as refused:
        return type(refused)


@pytest.mark.parametrize("path", ["hull", "lp"])
def test_lp_covers_and_their_partitions_read_rows(path, monkeypatch):
    if path == "lp":
        lp_path(monkeypatch)
    rng = random.Random(5)
    covered = uncovered = 0
    for K, lam, step in _lp_covers():
        twin = VPolytope(K.dim, rational_points(*K.scaled))
        cov = _outcome(greedy_cover, K, lam, step)
        reference = _outcome(per_pair_greedy_cover, twin, lam, step)
        assert "vertices" not in vars(K)
        if cov is GridTooCoarse:
            assert reference is GridTooCoarse
            continue
        assert (cov.centers, cov.witnesses) == (reference.centers, reference.witnesses)
        # points of K's box in fifths: some off the witness grid yet
        # covered, some outside every translate
        box = [(min(c), max(c)) for c in zip(*twin.vertices)]
        extra = {tuple(a + (b - a) * F(rng.randint(0, 5), 5) for a, b in box) for _ in range(3)}
        S = point_set(sorted(set(cov.witnesses) | extra))
        P = _outcome(cover_to_partition, S, cov, None)
        assert "vertices" not in vars(K)
        assert P == _outcome(per_pair_cover_to_partition, S, reference)
        covered += 1
        uncovered += P is PointUncovered
    assert covered >= 6 and uncovered >= 2
