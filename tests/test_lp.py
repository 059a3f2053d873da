"""Exact simplex: fixed instances plus enumeration cross-checks."""

import random
from fractions import Fraction

import pytest

from borsuk import lp
from oracles import fraction_simplex, lp_min_by_enumeration, lp_path

F = Fraction


def test_simple_bounded_optimum():
    # min -x - y  s.t.  x + y + s = 1  ->  optimum -1 at x + y = 1
    res = lp.solve_min([-1, -1, 0], [[1, 1, 1]], [1])
    assert res.status == lp.OPTIMAL
    assert res.value == F(-1)
    assert sum(res.x[:2]) == F(1)


def test_two_constraints():
    # min x + 2y  s.t.  x + y = 3, x - y = 1  ->  x=2, y=1, value 4
    res = lp.solve_min([1, 2], [[1, 1], [1, -1]], [3, 1])
    assert res.status == lp.OPTIMAL
    assert res.value == F(4)
    assert res.x == [F(2), F(1)]


def test_negative_rhs_is_normalised():
    res = lp.solve_min([1], [[-1]], [-5])
    assert res.status == lp.OPTIMAL
    assert res.x == [F(5)]


def test_infeasible():
    # x + y = 1 and x + y = 2 cannot both hold
    res = lp.solve_min([0, 0], [[1, 1], [1, 1]], [1, 2])
    assert res.status == lp.INFEASIBLE


def test_infeasible_nonnegative():
    # x = -1 with x >= 0
    res = lp.solve_min([0], [[1]], [-1])
    # after sign flip: -x = 1, impossible for x >= 0
    assert res.status == lp.INFEASIBLE


def test_unbounded():
    # min -x with the only constraint vacuous
    res = lp.solve_min([-1], [[0]], [0])
    assert res.status == lp.UNBOUNDED


def test_redundant_rows_are_dropped():
    res = lp.solve_min([1, 1], [[1, 1], [2, 2]], [1, 2])
    assert res.status == lp.OPTIMAL
    assert res.value == F(1)


def test_degenerate_instance_terminates():
    # A classically degenerate vertex: several bases describe the optimum.
    res = lp.solve_min(
        [-3, -2, 0, 0, 0],
        [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 1]],
        [1, 1, 1],
    )
    assert res.status == lp.OPTIMAL
    assert res.value == F(-3)


def test_beale_cycling_example_terminates():
    # Beale's instance makes naive pivoting cycle; Bland's rule must
    # terminate at the optimum -1/20 (x1 = 1/25, x3 = 1, slacks fill in).
    c = [F(-3, 4), F(150), F(-1, 50), F(6), 0, 0, 0]
    A = [
        [F(1, 4), F(-60), F(-1, 25), F(9), 1, 0, 0],
        [F(1, 2), F(-90), F(-1, 50), F(3), 0, 1, 0],
        [F(0), F(0), F(1), F(0), 0, 0, 1],
    ]
    b = [0, 0, 1]
    res = lp.solve_min(c, A, b)
    assert res.status == lp.OPTIMAL
    assert res.value == F(-1, 20)


def test_exact_fractions_survive():
    res = lp.solve_min(
        [F(1, 3), F(1, 7)],
        [[F(2, 5), F(1, 2)]],
        [F(1, 11)],
    )
    assert res.status == lp.OPTIMAL
    # cheapest unit of rhs is via the second variable: (1/11) / (1/2) * (1/7)
    assert res.value == F(2, 77)


def test_matches_enumeration_on_random_instances():
    rng = random.Random(20240901)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        A = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        # force feasibility: b = A . x0 with x0 >= 0
        x0 = [F(rng.randint(0, 3)) for _ in range(n)]
        b = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
        c = [F(rng.randint(0, 5)) for _ in range(n)]  # c >= 0 keeps it bounded
        res = lp.solve_min(c, A, b)
        assert res.status == lp.OPTIMAL
        expected = lp_min_by_enumeration(c, A, b)
        assert expected is not None
        assert res.value == expected
        # the returned point must be feasible and achieve the value
        for i in range(m):
            assert sum(A[i][j] * res.x[j] for j in range(n)) == b[i]
        assert all(v >= 0 for v in res.x)
        assert sum(c[j] * res.x[j] for j in range(n)) == res.value


# --- differential test against the reference Fraction simplex ---------


def _rand_rational(rng):
    if rng.random() < 0.4:
        return rng.randint(-5, 5)  # plain ints mixed with Fractions
    return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 12)))


def _random_lp(rng):
    """Small LP with mixed int/Fraction entries of mixed denominators.

    Roughly half are made feasible through b = A x0; rows are sometimes
    repeated as multiples of other rows (redundant), right-hand sides
    take either sign, and some instances are fully degenerate (b = 0).
    """
    m = rng.randint(1, 4)
    n = rng.randint(1, 6)
    A = [[_rand_rational(rng) for _ in range(n)] for _ in range(m)]
    kind = rng.random()
    if kind < 0.5:
        x0 = [F(rng.randint(0, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0 for _ in range(n)]
        b = [sum((F(a) * x for a, x in zip(row, x0)), F(0)) for row in A]
    elif kind < 0.6:
        b = [0] * m
    else:
        b = [_rand_rational(rng) for _ in range(m)]
    if rng.random() < 0.3:
        src = rng.randrange(m)
        t = F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
        A.append([t * v for v in A[src]])
        b.append(t * b[src])
    c = [_rand_rational(rng) for _ in range(n)]
    if rng.random() < 0.5:
        c = [abs(v) for v in c]  # bounded whenever feasible
    return c, A, b


def _fixed_lps():
    beale = (
        [F(-3, 4), F(150), F(-1, 50), F(6), 0, 0, 0],
        [
            [F(1, 4), F(-60), F(-1, 25), F(9), 1, 0, 0],
            [F(1, 2), F(-90), F(-1, 50), F(3), 0, 1, 0],
            [F(0), F(0), F(1), F(0), 0, 0, 1],
        ],
        [0, 0, 1],
    )
    return [
        beale,
        ([-3, -2, 0, 0, 0], [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 1]], [1, 1, 1]),
        ([1, 1], [[1, 1], [2, 2]], [1, 2]),  # redundant row
        ([0, 0], [[1, 1], [1, 1]], [1, 2]),  # infeasible
        ([0], [[1]], [-1]),  # infeasible after the sign flip
        ([-1], [[0]], [0]),  # unbounded
        ([1], [[-1]], [-5]),  # negative rhs
        ([F(1, 3), F(1, 7)], [[F(2, 5), F(1, 2)]], [F(1, 11)]),
        ([-1, 0, 0], [[1, -1, 0], [0, 1, -1], [1, 0, -1]], [0, 0, 0]),  # degenerate, unbounded
    ]


def _recorded_lps(monkeypatch, suite, count, seed):
    """Every LP a seeded verify suite solves, in call order, with planar
    bodies sent down the LP path too, so the suites keep exercising the
    simplex on the LPs they solved before planar hulls answered them."""
    from borsuk.verify import run_verify_suite

    recorded = []
    solve = lp.solve_min

    def record(c, A, b):
        recorded.append((list(c), [list(row) for row in A], list(b)))
        return solve(c, A, b)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "solve_min", record)
        lp_path(patch)
        run_verify_suite(suite, count, seed)
    return recorded


def _assert_same(instances):
    statuses = set()
    for c, A, b in instances:
        got = lp.solve_min(c, A, b)
        want = fraction_simplex(c, A, b)
        assert got == want, (c, A, b)
        statuses.add(got.status)
    return statuses


def test_integer_simplex_matches_fraction_simplex_on_random_instances():
    rng = random.Random(20261018)
    instances = _fixed_lps() + [_random_lp(rng) for _ in range(400)]
    assert _assert_same(instances) == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


@pytest.mark.parametrize("suite, count, seed", [("doubling", 3, 5), ("grunbaum_plane", 6, 2)])
def test_integer_simplex_matches_fraction_simplex_on_suite_lps(monkeypatch, suite, count, seed):
    instances = _recorded_lps(monkeypatch, suite, count, seed)
    assert len(instances) >= 100
    # every LP, or an even sample of at most 250 of them
    sample = instances[:: max(1, len(instances) // 250)]
    assert _assert_same(sample) >= {lp.OPTIMAL}
    assert sum(fraction_simplex(*inst).pivots for inst in sample) > 0
