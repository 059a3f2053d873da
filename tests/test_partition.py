"""Chromatic search, partition numbers, lifting, and the doubling law."""

import random
from fractions import Fraction
from itertools import product

import pytest

from borsuk.bodies import (
    PointSet,
    SymmetricBody,
    VPolytope,
    body_from_facets,
    body_from_vertices,
    difference_body,
    lift_body,
    lift_set,
    point_set,
    prune_redundant,
    validate_body,
    vpolytope,
)
from borsuk import lp, metric
from borsuk.covering import cover_to_partition, greedy_cover
from borsuk.errors import DegenerateBody, DimensionMismatch, IndexOutOfRange, InvalidInput
from borsuk.generators import (
    cross_polytope_body,
    cube_body,
    cube_vertices,
    gen_random_body,
    gen_random_points,
    gen_random_polytope,
    parallelogram_body,
)
from borsuk.metric import DiameterGraph, diameter_graph, polytope_diameter, set_diameter
from borsuk.verify import _planar_instance
from borsuk.partition import (
    Partition,
    _dsatur_greedy,
    _exact_chromatic,
    _greedy_clique,
    _ranking,
    borsuk_number,
    chromatic_number,
    doubling_check,
    lift_partition,
    partition,
    verify_partition,
)
from oracles import (
    _recursive_dsatur_greedy,
    _recursive_greedy_clique,
    chromatic_by_bruteforce,
    level_dsatur_greedy,
    level_exact_chromatic,
    linked_list_dsatur_greedy,
    linked_list_exact_chromatic,
    memo_pairwise_max,
    recursive_exact_chromatic,
    undo_dsatur_greedy,
    undo_exact_chromatic,
    verify_partition_by_class,
)

F = Fraction


def _graph(n, edges):
    return DiameterGraph(n, F(1), tuple(sorted(edges)))


def test_chromatic_edgeless():
    cert = chromatic_number(_graph(5, []))
    assert cert.number == 1
    assert cert.optimal


def test_chromatic_complete_graph():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    cert = chromatic_number(_graph(4, edges))
    assert cert.number == 4
    assert len(cert.lower_bound_clique) == 4


def test_chromatic_five_cycle():
    cert = chromatic_number(_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    assert cert.number == 3  # frozen from the brute-force oracle
    assert chromatic_by_bruteforce(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]) == 3
    assert cert.optimal


def test_chromatic_certificate_is_proper():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        cert = chromatic_number(_graph(n, edges))
        coloring = {}
        for k, cls in enumerate(cert.partition.classes):
            for v in cls:
                coloring[v] = k
        assert all(coloring[i] != coloring[j] for i, j in edges)
        assert len(cert.partition.classes) == cert.number
        assert cert.number == chromatic_by_bruteforce(n, edges)
        assert len(cert.lower_bound_clique) <= cert.number


def test_clique_equality_on_perfect_fixtures():
    # complete graph
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    cert = chromatic_number(_graph(6, edges))
    assert len(cert.lower_bound_clique) == cert.number == 6
    # complement of the 4-cycle: two disjoint edges
    cert = chromatic_number(_graph(4, [(0, 2), (1, 3)]))
    assert len(cert.lower_bound_clique) == cert.number == 2


@pytest.mark.parametrize(
    "n, edges, error",
    [
        (3, ((0, 0),), InvalidInput),  # a self-loop: no colour is ever free
        (3, ((0, 5),), IndexOutOfRange),
        (3, ((-1, 0),), IndexOutOfRange),  # would alias vertex 2
        (0, (), InvalidInput),
    ],
    ids=["self-loop", "past-the-end", "negative", "no-points"],
)
def test_malformed_graphs_are_refused(n, edges, error):
    with pytest.raises(error):
        DiameterGraph(n, F(1), edges)


def test_reversed_and_repeated_edges_are_accepted():
    cert = chromatic_number(DiameterGraph(3, F(1), ((1, 0), (0, 1), (2, 1), (1, 2))))
    assert cert.number == 2 and cert.partition.classes == ((0, 2), (1,))


def test_budget_exhaustion_flags_nonoptimal():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    cert = chromatic_number(_graph(5, edges), node_budget=1)
    assert not cert.optimal
    assert cert.number >= 3  # still a valid upper bound


def test_node_budget_env_override(monkeypatch):
    from borsuk.partition import node_budget_default

    monkeypatch.setenv("BORSUK_NODE_BUDGET", "123")
    assert node_budget_default() == 123
    monkeypatch.delenv("BORSUK_NODE_BUDGET")
    assert node_budget_default() == 10_000_000


def test_borsuk_square_vertices(square_v):
    cert = borsuk_number(square_v, point_set([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    assert cert.number == 4
    assert cert.optimal


def test_borsuk_cube_vertices():
    cert = borsuk_number(cube_body(3), cube_vertices(3))
    assert cert.number == 8


def test_borsuk_triangle_under_difference_norm(triangle, hexagon_v):
    cert = borsuk_number(hexagon_v, point_set(triangle.vertices))
    assert cert.number == 3


def test_borsuk_singleton(square_v, monkeypatch):
    # one point has no extreme sets, so the general path certifies one part
    # with no LP and no search node, on the normals and on the LP path
    calls = []
    solve_min = lp.solve_min
    monkeypatch.setattr(lp, "solve_min", lambda *a: calls.append(a) or solve_min(*a))
    cases = [(square_v, (2, 3)), (cube_body(2), (2, 3)), (cross_polytope_body(4), (1, F(1, 2), -3, 0))]
    assert cross_polytope_body(4).normals is None
    for C, x in cases:
        cert = borsuk_number(C, point_set([x]))
        assert (cert.number, cert.partition, cert.lower_bound_clique, cert.optimal, cert.nodes) == (
            1, partition(1, [(0,)]), (0,), True, 0
        )
    assert calls == []


def test_borsuk_refuses_a_set_of_another_dimension(square_v):
    with pytest.raises(DimensionMismatch, match="set of dim 3 against body of dim 2"):
        borsuk_number(square_v, point_set([(0, 0, 0), (1, 0, 0)]))
    with pytest.raises(DimensionMismatch, match="set of dim 3 against body of dim 2"):
        borsuk_number(square_v, point_set([(0, 0, 0)]))
    with pytest.raises(DimensionMismatch, match="set of dim 2 against body of dim 4"):
        borsuk_number(cross_polytope_body(4), point_set([(0, 0), (1, 0)]))


def _colouring_cases():
    """(C, S) pairs on both ways into the extreme sets: planar verify
    instances; doubling sets, base and lifted, some with a midpoint; two
    4D bodies without normals, whose extreme sets are the attaining pairs
    one by one; and the {0, 1/2, 1}^3 grid under both forms of the cube."""
    cases = [_planar_instance(1000 + i, i) for i in range(60)]
    # the sets of the CLI borsuk digests, whose searches run 3 and 31 nodes
    planar = body_from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)])
    cases.append((planar, point_set([(-2, -3), (-2, -1), (1, 2), (2, -2), (2, 0), (3, 0)])))
    polygon = vpolytope(
        [(-4, F(-5, 3)), (-4, F(5, 3)), (F(-7, 3), 4), (F(-3, 2), -4), (F(3, 2), 4), (2, F(-7, 3)), (F(7, 2), F(1, 2))]
    )
    cases.append((lift_body(polygon), lift_set(point_set(polygon.vertices))))
    rng = random.Random(3030)
    for i in range(60):
        dim = 1 + i % 3
        K = gen_random_polytope(rng.randrange(10**6), dim, dim + 3 + i % 3, max_numerator=8, max_denominator=4)
        base = prune_redundant(K)
        points = list(base.vertices)
        if i % 2:
            points.append(tuple((a + b) / 2 for a, b in zip(points[0], points[1])))
        S = point_set(points)
        cases += [(difference_body(base), S), (lift_body(base), lift_set(S))]
    # the 4D vertex body of the CLI gauge and diameter digests
    slanted = (F(1, 2), F(1, 2), F(1, 2), F(1, 3))
    lp_body = body_from_vertices([*cross_polytope_body(4).vertices, slanted, tuple(-c for c in slanted)])
    for C in (lp_body, cross_polytope_body(4)):
        assert C.normals is None
        for seed in range(3):
            cases.append((C, gen_random_points(seed, 4, 7, max_numerator=4, max_denominator=3)))
    grid = point_set(product((0, F(1, 2), 1), repeat=3))
    cases += [(cube_body(3), grid), (cube_body(3, facet_form=False), grid)]
    return cases


def test_borsuk_number_matches_the_chromatic_number_of_the_diameter_graph():
    # borsuk_number builds its neighbour masks from the extreme sets; the
    # reference lists the diameter graph's edges and colours that, on a
    # fresh copy of the set, so that neither reads the other's extreme sets
    searched = cut = lp = 0
    for C, S in _colouring_cases():
        lp += C.normals is None
        for budget in (1, None):
            got = borsuk_number(C, S, budget)
            want = chromatic_number(diameter_graph(C, PointSet(S.dim, scaled=S.scaled)), budget)
            assert (got.number, got.partition, got.lower_bound_clique, got.optimal, got.nodes) == (
                want.number,
                want.partition,
                want.lower_bound_clique,
                want.optimal,
                want.nodes,
            ), (C, S, budget)
            searched += got.nodes > 1
            cut += not got.optimal
    assert lp == 6 and searched >= 3 and cut >= 3, (lp, searched, cut)


def test_borsuk_partition_verifies(square_v):
    S = point_set([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
    cert = borsuk_number(square_v, S)
    assert verify_partition(square_v, S, cert.partition)


def test_verify_rejects_single_class(square_v):
    S = point_set([(0, 0), (2, 0)])
    P = partition(2, [(0, 1)])
    assert not verify_partition(square_v, S, P)


def test_verify_rejects_diagonal_split(square_v):
    S = point_set([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    P = partition(4, [(0, 3), (1, 2)])  # diagonal pairs still attain diameter 2
    assert not verify_partition(square_v, S, P)


def test_verify_index_mismatch(square_v):
    S = point_set([(0, 0), (2, 0)])
    with pytest.raises(IndexOutOfRange):
        verify_partition(square_v, S, partition(3, [(0, 1, 2)]))
    # the count is checked before the dimension, on either path, and a
    # wrong dimension raises what set_diameter raises
    S3 = point_set([(0, 0, 0), (2, 0, 1)])
    for C in (square_v, cross_polytope_body(4)):
        with pytest.raises(IndexOutOfRange):
            verify_partition(C, S3, partition(3, [(0, 1, 2)]))
        with pytest.raises(DimensionMismatch, match=rf"^set of dim 3 against body of dim {C.dim}$"):
            verify_partition(C, S3, partition(2, [(0,), (1,)]))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Partition(3, ((0, 1),))
    with pytest.raises(IndexOutOfRange):
        Partition(2, ((0, 1, 5),))


def test_lift_partition_singleton():
    S = point_set([(0, 0)])
    out = lift_partition(partition(1, [(0,)]), S)
    assert out.classes == ((0,), (1,))


def test_lift_partition_triangle(triangle):
    S = point_set(triangle.vertices)
    out = lift_partition(partition(3, [(0,), (1,), (2,)]), S)
    assert out.n_points == 6
    assert len(out.classes) == 6


def test_lift_partition_verifies_in_lifted_space(square_v):
    K = VPolytope(2, square_v.vertices)
    S = point_set(K.vertices)
    base = borsuk_number(difference_body(K), S)
    lifted_S = lift_set(S)
    lifted_P = lift_partition(base.partition, S)
    D_up = difference_body(vpolytope(lift_body(K).vertices, pruned=True))
    assert len(lifted_P.classes) == 2 * base.number
    assert verify_partition(D_up, lifted_S, lifted_P)


def test_doubling_segment():
    K = vpolytope([(-1,), (1,)])
    assert doubling_check(K, point_set(K.vertices)) == (2, 4, True)


def test_doubling_triangle(triangle):
    assert doubling_check(triangle, point_set(triangle.vertices)) == (3, 6, True)


def test_doubling_square(square_v):
    K = VPolytope(2, square_v.vertices)
    assert doubling_check(K, point_set(K.vertices)) == (4, 8, True)


def test_doubling_needs_finished_searches():
    # the pentagon's diameter graph is a 5-cycle: clique 2 and greedy 3
    # leave a search, which one node cannot finish
    K = vpolytope([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)])
    assert doubling_check(K, point_set(K.vertices)) == (3, 6, True)
    assert doubling_check(K, point_set(K.vertices), node_budget=1) == (3, 6, False)


def test_lifted_body_and_its_difference_body_colour_alike():
    # L is symmetric, so L - L = 2L: every distance halves, and the same
    # pairs attain the diameter, which doubling_check relies on to colour
    # the lifted set under L itself
    for seed in range(9):
        dim = 1 + seed % 3
        K = gen_random_polytope(700 + seed, dim, dim + 3, max_numerator=8, max_denominator=4)
        pts = list(K.vertices) + [tuple((a + b) / 2 for a, b in zip(*K.vertices[:2]))]
        T = lift_set(point_set(sorted(set(pts))))
        lifted = lift_body(K)
        twice = difference_body(vpolytope(lifted.vertices, pruned=True))
        assert twice.vertices == tuple(sorted(tuple(2 * c for c in v) for v in lifted.vertices))
        G, G2 = diameter_graph(lifted, T), diameter_graph(twice, T)
        assert G.edges == G2.edges and G.diameter == 2 * G2.diameter
        assert borsuk_number(lifted, T) == borsuk_number(twice, T)


def test_doubling_requires_vertices_in_set(triangle):
    with pytest.raises(InvalidInput, match=r"missing \(0, 1\)$"):
        doubling_check(triangle, point_set([(0, 0), (1, 0)]))


def test_doubling_refuses_a_set_of_another_dimension(triangle):
    # refused before any vertex is looked up, as set_diameter refuses it
    for S in (point_set([(0, 0, 0), (1, 0, 0), (0, 1, 0)]), point_set([(0,), (1,)])):
        with pytest.raises(DimensionMismatch, match=f"^set of dim {S.dim} against polytope of dim 2$"):
            doubling_check(triangle, S)


def test_doubling_asks_only_for_the_vertices_of_an_unpruned_polytope():
    # (1, 1) is listed but inside the triangle, so S need not hold it
    K = vpolytope([(0, 0), (4, 0), (0, 4), (1, 1)])
    assert doubling_check(K, point_set([(0, 0), (4, 0), (0, 4)])) == (3, 6, True)
    with pytest.raises(InvalidInput, match="missing"):
        doubling_check(K, point_set([(0, 0), (4, 0), (1, 1)]))


def test_doubling_finds_vertices_over_a_scale_finer_than_the_set():
    # the inner point's denominator 3 sets the scale of the hull that the
    # pruned K keeps, while the set's scale is 1
    K = vpolytope([(0, 0), (2, 0), (0, 2), (F(1, 3), F(1, 3))])
    assert prune_redundant(K).scaled[0] == 3
    assert doubling_check(K, point_set([(0, 0), (2, 0), (0, 2)])) == (3, 6, True)
    with pytest.raises(InvalidInput, match=r"missing \(0, 2\)$"):
        doubling_check(K, point_set([(0, 0), (2, 0), (1, 1)]))


def test_cross_copy_distances_are_one(triangle):
    from borsuk.metric import distance

    S = point_set(triangle.vertices)
    D_up = difference_body(vpolytope(lift_body(triangle).vertices, pruned=True))
    lifted = lift_set(S)
    n = len(S.points)
    for i in range(n):
        for j in range(n, 2 * n):
            assert distance(D_up, lifted.points[i], lifted.points[j]) == 1


def test_planar_bound_on_random_instances():
    # every planar instance needs at most 4 parts
    for seed in range(12):
        C = gen_random_body(seed, 2, 4, max_numerator=8, max_denominator=8)
        S = gen_random_points(seed + 1000, 2, 6, max_numerator=8, max_denominator=8)
        cert = borsuk_number(C, S)
        assert cert.number <= 4
        assert verify_partition(C, S, cert.partition)


def test_parallelogram_attains_four():
    C = parallelogram_body()
    S = point_set(C.vertices)
    assert borsuk_number(C, S).number == 4


def test_affine_invariance(square_v, hexagon_v):
    maps = [((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, -1), (1, 0))]
    rng = random.Random(4)
    S = point_set([(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(20)][:6])
    for C in (square_v, hexagon_v):
        base = borsuk_number(C, S)
        for m in maps:
            apply = lambda p: (
                m[0][0] * p[0] + m[0][1] * p[1],
                m[1][0] * p[0] + m[1][1] * p[1],
            )
            C2 = validate_body(SymmetricBody(2, vertices=tuple(sorted(apply(v) for v in C.vertices))))
            S2 = point_set([apply(p) for p in S.points])
            assert diameter_graph(C2, S2).edges == diameter_graph(C, S).edges
            assert borsuk_number(C2, S2).number == base.number


def test_adding_hull_points_cannot_lower_the_number():
    # finite trace of "the completion has the larger partition number":
    # an optimal partition of the enlarged set restricts to a proper
    # partition of the original, so the number can only grow
    for seed in range(6):
        C = gen_random_body(seed, 2, 4, max_numerator=6, max_denominator=4)
        S = gen_random_points(seed + 77, 2, 5, max_numerator=6, max_denominator=4)
        pts = list(S.points)
        extra = []
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                mid = tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
                if mid not in pts and mid not in extra:
                    extra.append(mid)
        enlarged = point_set(pts + extra[:4])
        d1, _ = set_diameter(C, S)
        d2, _ = set_diameter(C, enlarged)
        assert d1 == d2  # convex combinations never extend the diameter
        cert_big = borsuk_number(C, enlarged)
        restricted = [
            tuple(i for i in cls if i < len(pts)) for cls in cert_big.partition.classes
        ]
        restricted = [cls for cls in restricted if cls]
        P = partition(len(pts), restricted)
        assert verify_partition(C, S, P)
        assert borsuk_number(C, S).number <= cert_big.number


def test_pointwise_norm_domination_bound():
    # with the set normalized to unit diameter under C, the partition
    # number under C is at most the one under the difference norm
    for seed in range(8):
        C = gen_random_body(seed, 2, 4, max_numerator=6, max_denominator=4)
        try:
            K = vpolytope(gen_random_points(seed + 31, 2, 5, max_numerator=4, max_denominator=2).points)
            if not K.pruned:
                from borsuk.bodies import prune_redundant

                K = prune_redundant(K)
            from borsuk.metric import polytope_diameter

            diam = polytope_diameter(C, K)
            if diam == 0:
                continue
            K = VPolytope(2, tuple(tuple(c / diam for c in v) for v in K.vertices), pruned=True)
            D = difference_body(K)
        except DegenerateBody:
            continue
        S = point_set(K.vertices)
        assert borsuk_number(C, S).number <= borsuk_number(D, S).number


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-3"])
def test_node_budget_env_rejects_bad_values(monkeypatch, raw):
    from borsuk.errors import BorsukError
    from borsuk.partition import node_budget_default

    monkeypatch.setenv("BORSUK_NODE_BUDGET", raw)
    with pytest.raises(BorsukError, match="BORSUK_NODE_BUDGET"):
        node_budget_default()


@pytest.mark.parametrize("budget", [0, -1, 1.5, True, False, "5", F(3)])
def test_library_node_budgets_are_validated(square_v, budget):
    # the environment variable's rule: an int of at least 1, not a bool
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    with pytest.raises(InvalidInput, match="node budget"):
        chromatic_number(_graph(5, edges), budget)
    with pytest.raises(InvalidInput, match="node budget"):
        borsuk_number(square_v, point_set([(1, 1), (-1, -1)]), budget)
    with pytest.raises(InvalidInput, match="node budget"):
        borsuk_number(square_v, point_set([(1, 1)]), budget)
    K = vpolytope([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)])
    with pytest.raises(InvalidInput, match="node budget"):
        doubling_check(K, point_set(K.vertices), node_budget=budget)


def _random_facet_body(rng, dim):
    while True:
        facets = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(1, 3))
            for _ in range(dim + rng.randint(0, 2))
        ]
        try:
            return body_from_facets(facets)
        except DegenerateBody:
            continue


def _from_labels(labels):
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(labels):
        classes.setdefault(c, []).append(i)
    return partition(len(labels), classes.values())


def _candidate_partitions(rng, C, S):
    """Eleven partitions of S: all singletons, one class, the optimal
    certificate, the certificate on shuffled indices, the certificate
    with one to three points moved, and three uniformly random labelings."""
    n = len(S.points)
    cert = borsuk_number(C, S)
    label = [0] * n
    for k, cls in enumerate(cert.partition.classes):
        for i in cls:
            label[i] = k
    perm = list(range(n))
    rng.shuffle(perm)
    yield partition(n, [(i,) for i in range(n)])
    yield partition(n, [tuple(range(n))])
    yield cert.partition
    yield _from_labels([label[perm[i]] for i in range(n)])
    for moves in (1, 1, 2, 3):
        yield _moved(rng, label, moves, cert.number)
    for k in (2, 3, 4):
        yield _from_labels([rng.randrange(k) for _ in range(n)])


def _moved(rng, label, moves, top):
    """The labeling with ``moves`` random points relabeled in 0..top."""
    moved = list(label)
    for _ in range(moves):
        moved[rng.randrange(len(moved))] = rng.randint(0, top)
    return _from_labels(moved)


def _cover_partitions(rng, vertices, ratio, step):
    """The witnesses S of a polytope's greedy cover, its difference body
    D, the cover's partition of S, and nine moves of that partition."""
    cov = greedy_cover(vpolytope(vertices), ratio, step)
    S = point_set(cov.witnesses)
    D = difference_body(cov.body)
    P = cover_to_partition(S, cov, D)
    return D, S, P, _moves(rng, P)


def _moves(rng, P):
    """Nine moves of a partition: one, two and three random points
    relabeled, three times each."""
    label = [0] * P.n_points
    for k, cls in enumerate(P.classes):
        for i in cls:
            label[i] = k
    return [_moved(rng, label, moves, len(P.classes)) for moves in (1, 2, 3) * 3]


def test_verify_partition_matches_per_class_diameters(monkeypatch):
    # verify_partition (the extreme sets of the columns of largest spread
    # with normals, the attaining pairs without) against measuring every
    # class on its own, on vertex-form and facet-form bodies in 2D and 3D;
    # on the LP path both sides read gauges through one memo per body, so
    # each difference costs one LP and the test compares the decisions,
    # not the gauge code
    exact_gauge = metric.gauge
    memo = {}

    def memo_gauge(C, x):
        if x not in memo:
            memo[x] = exact_gauge(C, x)
        return memo[x]

    monkeypatch.setattr(metric, "gauge", memo_gauge)
    outcomes = {True: 0, False: 0}
    for seed in range(48):
        rng = random.Random(seed)
        for dim in (2, 3):
            vertex_body = gen_random_body(seed, dim, dim + 1, max_numerator=4, max_denominator=2)
            for C in (vertex_body, _random_facet_body(rng, dim)):
                memo.clear()
                S = gen_random_points(seed + 500, dim, 3 + seed % 4, max_numerator=3, max_denominator=2)
                pts = list(S.points)
                if C.vertices is not None and seed % 3 == 0:
                    pts += [v for v in C.vertices[:3] if v not in pts]
                S = point_set(pts)
                for P in _candidate_partitions(rng, C, S):
                    expected = verify_partition_by_class(C, S, P)
                    assert verify_partition(C, S, P) == expected, (C, S, P)
                    outcomes[expected] += 1
    assert sum(outcomes.values()) >= 2000
    assert min(outcomes.values()) >= 200, outcomes

    # cover-scale sets: the witnesses of the benchmark's covers, under
    # their difference bodies, with the cover's partition and moves of it
    rng = random.Random(24)
    unit_cube = [tuple(v) for v in product((0, 1), repeat=3)]
    covers = [
        ([(0, 0), (1, 0), (0, 1), (1, 1)], F(3, 5), F(1, 4)),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], F(3, 5), F(1, 3)),
        (unit_cube, F(3, 5), F(1, 2)),
        ([(0, 0), (2, 0), (2, 1), (0, 2)], F(3, 5), F(1, 2)),
    ]
    tally = {True: 0, False: 0}
    for vertices, ratio, step in covers:
        D, S, own, moved = _cover_partitions(rng, vertices, ratio, step)
        assert len(S.points) >= 19 and verify_partition(D, S, own)
        for P in (own, *moved):
            expected = verify_partition_by_class(D, S, P)
            assert verify_partition(D, S, P) == expected, (vertices, P)
            tally[expected] += 1
    assert tally[True] >= 4 and tally[False] >= 12, tally

    # the {0, 1/2, 1}^3 grid under the cube in both forms, whose 193
    # diameter pairs lie across three axes, with the partitions of greedy
    # covers of the unit cube and moves of them
    grid = point_set(product((0, F(1, 2), 1), repeat=3))
    tally = {True: 0, False: 0}
    for C in (cube_body(3), cube_body(3, facet_form=False)):
        for ratio, step in ((F(1, 2), F(1, 2)), (F(3, 5), F(1, 2)), (F(2, 3), F(1, 4))):
            own = cover_to_partition(grid, greedy_cover(vpolytope(unit_cube), ratio, step), C)
            assert verify_partition(C, grid, own)
            for P in (own, *_moves(rng, own)):
                expected = verify_partition_by_class(C, grid, P)
                assert verify_partition(C, grid, P) == expected, (C, P)
                tally[expected] += 1
    assert tally[True] >= 20 and tally[False] >= 30, tally

    # a body without normals takes the pair loop
    C = cross_polytope_body(4)
    assert C.normals is None
    memo.clear()
    for seed in range(6):
        rng = random.Random(seed)
        S = gen_random_points(seed + 900, 4, 4 + seed % 3, max_numerator=3, max_denominator=2)
        for P in _candidate_partitions(rng, C, S):
            assert verify_partition(C, S, P) == verify_partition_by_class(C, S, P), (S, P)

    # a one-point set has no class to check, on either path
    for C in (body_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)]), cross_polytope_body(4)):
        S, P = point_set([(F(1, 2),) * C.dim]), partition(1, [(0,)])
        assert verify_partition(C, S, P) is verify_partition_by_class(C, S, P) is True

    # polytope_diameter reads the largest spread of the same table: against
    # one gauge per difference of vertices, on seeded bodies in 1D-3D and
    # on 4D lifts, each polytope also with a vertex listed twice
    cases = 0
    for seed in range(30):
        for dim in (1, 2, 3, 4):
            if dim < 4:
                C = gen_random_body(seed, dim, dim + 1, max_numerator=5, max_denominator=3)
            else:
                C = lift_body(gen_random_polytope(seed, 3, 5, max_numerator=4, max_denominator=3))
            assert C.normals is not None
            K = gen_random_polytope(seed + 300, dim, dim + 2, max_numerator=5, max_denominator=4)
            for V in (K.vertices, K.vertices + K.vertices[:1]):
                expected, _ = memo_pairwise_max(C, V)
                assert polytope_diameter(C, vpolytope(V)) == expected, (C, V)
                cases += 1
    assert cases == 240


# 8 vertices, chromatic number 3, on which the DSATUR greedy coloring uses
# 4 colors, so the branch and bound has to run
DSATUR_TRAP = ((0, 2), (0, 3), (0, 4), (0, 7), (1, 3), (1, 5), (1, 6), (2, 3),
               (2, 7), (4, 5), (4, 6), (5, 6))


def _mycielski(k):
    """Mycielski graph M_k (M_2 = K_2): triangle-free, chromatic number k."""
    n, edges = 2, {(0, 1)}
    for _ in range(k - 2):
        grown = set(edges)
        for i, j in edges:
            grown.add((i, n + j))
            grown.add((j, n + i))
        grown.update((n + i, 2 * n) for i in range(n))
        n, edges = 2 * n + 1, {(min(e), max(e)) for e in grown}
    return n, sorted(edges)


def _relabel(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges)


def test_dsatur_trap_needs_the_search():
    adj = [set() for _ in range(8)]
    for i, j in DSATUR_TRAP:
        adj[i].add(j)
        adj[j].add(i)
    assert max(_recursive_dsatur_greedy(8, adj)) + 1 == 4
    assert chromatic_by_bruteforce(8, DSATUR_TRAP) == 3


@pytest.mark.parametrize("isolated", [1124, 2000])
def test_trap_padded_with_isolated_vertices_has_no_depth_limit(isolated):
    # each vertex is one level of the search, far past the recursion limit
    n = 8 + isolated
    cert = chromatic_number(_graph(n, DSATUR_TRAP))
    assert cert.optimal
    assert cert.number == len(cert.partition.classes) == 3
    label = {v: k for k, cls in enumerate(cert.partition.classes) for v in cls}
    assert sorted(label) == list(range(n))
    assert all(label[i] != label[j] for i, j in DSATUR_TRAP)
    assert cert.nodes > n - 8


def test_branch_and_bound_matches_recursive_reference():
    # same (k, colors, clique, optimal, nodes) as the recursive search that
    # recomputes saturations at every node, budgets cut anywhere included
    cases = []
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(1, 30)
        p = rng.choice((0.05, 0.15, 0.3, 0.5, 0.7, 0.9, rng.random()))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        cases.append((n, edges, (1, 2, rng.randint(3, 40), 10**7)))
    for k, count in ((4, 20), (5, 6)):
        n, edges = _mycielski(k)
        for _ in range(count):
            cases.append((n, _relabel(n, edges, rng), (1, 2, rng.randint(3, 300), 10**7)))
    for _ in range(3):
        n = 8 + 480 + rng.randint(0, 20)
        cases.append((n, _relabel(n, DSATUR_TRAP, rng), (rng.randint(1, 400), 10**7)))
    searched = cut = 0
    for n, edges, budgets in cases:
        for budget in budgets:
            got = _exact_chromatic(_masks(n, edges), budget)
            assert got == recursive_exact_chromatic(n, edges, budget), (n, edges, budget)
            assert got == level_exact_chromatic(n, edges, budget), (n, edges, budget)
            searched += got[4] > 1
            cut += not got[3]
    assert searched >= 350 and cut >= 250, (searched, cut)


def _padded(n, edges, rng):
    """The graph on n vertices, n at least its own, with its vertices
    sent to random places and every other vertex isolated."""
    spots = rng.sample(range(n), max(max(e) for e in edges) + 1)
    return sorted((min(spots[i], spots[j]), max(spots[i], spots[j])) for i, j in edges)


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _masks(n, edges):
    """The neighbour masks the search reads: bit j of entry i for each
    edge (i, j), and bit i of entry j."""
    return [sum(1 << u for u in near) for near in _adjacency(n, edges)]


def test_branch_and_bound_matches_linked_list_reference_at_benchmark_scale():
    # the search against the per-vertex, per-colour tables and against the
    # bitmask state colored and uncolored in place, on the coloring
    # benchmark's graphs: M6 under node budgets, G(80, 0.1) under the
    # benchmark's cap, the trap padded to 800-1200 vertices with isolated
    # vertices on both sides of its own, and random graphs with isolated
    # vertices mixed in
    rng = random.Random(1105)
    n6, m6 = _mycielski(6)
    cases = [(n6, _relabel(n6, m6, rng), budget) for budget in (1, rng.randint(2, 13000), 13000)]
    for _ in range(4):
        cases.append((80, [(i, j) for i in range(80) for j in range(i + 1, 80) if rng.random() < 0.1], 2000))
    for _ in range(3):
        n = rng.randint(800, 1200)
        cases.append((n, _padded(n, DSATUR_TRAP, rng), rng.choice((rng.randint(1, 2000), 10**7))))
    for _ in range(100):
        k = rng.randint(8, 40)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, rng.random()))
        edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < p] or [(0, 1)]
        n = k + rng.randint(1, 60)
        cases.append((n, _padded(n, edges, rng), rng.choice((1, rng.randint(2, 500), 10**7))))
    searched = cut = isolated = 0
    for n, edges, budget in cases:
        got = _exact_chromatic(_masks(n, edges), budget)
        assert got == linked_list_exact_chromatic(n, edges, budget), (n, edges, budget)
        assert got == undo_exact_chromatic(n, edges, budget), (n, edges, budget)
        assert got == level_exact_chromatic(n, edges, budget), (n, edges, budget)
        searched += got[4] > 1
        cut += not got[3]
        isolated += not all(_adjacency(n, edges))
    assert searched >= 40 and cut >= 20 and isolated >= 103, (searched, cut, isolated)


def _join(*graphs):
    """Every vertex of each graph joined to every vertex of the others."""
    n, edges = 0, []
    for k, own in graphs:
        edges += [(i + n, j + n) for i, j in own] + [(i, n + j) for i in range(n) for j in range(k)]
        n += k
    return n, sorted(edges)


def _cycle(k):
    return k, [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]


def test_search_saturations_reach_each_new_plane(monkeypatch):
    # the search holds saturations in (best_k - 1).bit_length() binary
    # planes; on these graphs it raises a saturation to exactly 4 with
    # three planes and to exactly 8 with four, the one value that lives in
    # the top plane alone. The level reference's saturations are read off
    # its levels as its search raises them, and the results must agree
    import oracles

    reached, in_greedy = set(), []
    raised, greedy = oracles._raised, oracles._level_dsatur_greedy

    def recorded(lev, x):
        lev = raised(lev, x)
        if not in_greedy:
            reached.update(s for s, m in enumerate(lev) if m)
        return lev

    def unrecorded(ranking):
        in_greedy.append(True)
        try:
            return greedy(ranking)
        finally:
            in_greedy.pop()

    monkeypatch.setattr(oracles, "_raised", recorded)
    monkeypatch.setattr(oracles, "_level_dsatur_greedy", unrecorded)
    rng = random.Random(1919)
    m4, c5, c7 = _mycielski(4), _cycle(5), _cycle(7)
    graphs = [_mycielski(5), _join(m4, m4), _join(c5, c5, c5), _join(c7, c7, c7), _join(c5, c5, c5, c5)]
    tops = set()
    for n, edges in graphs:
        for _ in range(3):
            edges = _relabel(n, edges, rng)
            planes = max(level_dsatur_greedy(n, _adjacency(n, edges))).bit_length()
            for budget in (1, 2, rng.randint(3, 300), 10**7):
                reached.clear()
                want = level_exact_chromatic(n, edges, budget)
                assert _exact_chromatic(_masks(n, edges), budget) == want, (n, edges, budget)
                assert max(reached) < 2**planes
                if 2 ** (planes - 1) in reached:
                    tops.add(planes)
    assert tops == {3, 4}


def test_branch_and_bound_matches_level_reference_at_every_budget():
    # every budget from 1 to one past the unbudgeted node count, so the
    # search is cut after each of its nodes and also ends exactly at its
    # budget; on G(n, p) with n <= 14, M4, two 5-cycles joined, and the
    # trap with isolated vertices on both sides of it
    rng = random.Random(3434)
    graphs = [_mycielski(4), _join(_cycle(5), _cycle(5))]
    for before, after in ((1, 1), (3, 6), (7, 2)):
        graphs.append((before + 8 + after, [(i + before, j + before) for i, j in DSATUR_TRAP]))
    for _ in range(400):
        n = rng.randint(5, 14)
        p = rng.choice((0.3, 0.5, 0.7, rng.random()))
        graphs.append((n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]))
    searched = ends_at_budget = 0
    for n, edges in graphs:
        full = level_exact_chromatic(n, edges, 10**9)[4]
        for budget in range(1, full + 2):
            got = _exact_chromatic(_masks(n, edges), budget)
            assert got == level_exact_chromatic(n, edges, budget), (n, edges, budget)
            if budget == full:
                ends_at_budget += got[0] > len(got[2]) and not got[3]
        searched += full > 1
    assert searched >= 40 and ends_at_budget >= 30, (searched, ends_at_budget)


def test_dsatur_greedy_matches_both_references():
    rng = random.Random(606)
    for _ in range(120):
        k = rng.randint(1, 60)
        edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < rng.random()]
        n = k + rng.choice((0, 0, rng.randint(1, 40)))
        if edges:
            edges = _padded(n, edges, rng)
        adj = _adjacency(n, edges)
        got = _dsatur_greedy(_ranking(_masks(n, edges)))
        assert got == _recursive_dsatur_greedy(n, adj) == linked_list_dsatur_greedy(n, adj) == undo_dsatur_greedy(n, adj)
        assert got == level_dsatur_greedy(n, adj)
    for n in (808, 1200):
        edges = _padded(n, DSATUR_TRAP, rng)
        adj = _adjacency(n, edges)
        got = _dsatur_greedy(_ranking(_masks(n, edges)))
        assert got == linked_list_dsatur_greedy(n, adj) == undo_dsatur_greedy(n, adj) == level_dsatur_greedy(n, adj)


def test_greedy_clique_matches_the_set_reference_at_benchmark_scale():
    # the masked clique against the per-candidate set scan it replaced: M6
    # relabelled, G(80, 0.1), the trap padded to 800-1200 vertices, and
    # random graphs, some with isolated vertices, some with none or no edge
    rng = random.Random(1606)
    n6, m6 = _mycielski(6)
    graphs = [(n6, _relabel(n6, m6, rng)) for _ in range(3)]
    for _ in range(4):
        graphs.append((80, [(i, j) for i in range(80) for j in range(i + 1, 80) if rng.random() < 0.1]))
    for _ in range(3):
        n = rng.randint(800, 1200)
        graphs.append((n, _padded(n, DSATUR_TRAP, rng)))
    for _ in range(300):
        k = rng.randint(1, 40)
        p = rng.choice((0.0, 0.15, 0.3, 0.5, 0.7, 0.9, rng.random()))
        edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < p]
        n = k + rng.choice((0, rng.randint(1, 60)))
        graphs.append((n, _padded(n, edges, rng) if edges else edges))
    sizes = set()
    for n, edges in graphs:
        adj = _adjacency(n, edges)
        clique = _greedy_clique(_masks(n, edges))
        assert clique == _recursive_greedy_clique(n, adj), (n, edges)
        sizes.add(len(clique))
    assert {1, 2, 3, 4, 5} <= sizes
