"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure). Every geometric comparison is exact rational equality; the
only floating-point assertions are the bound-formula identities, which
hold to the last bit by construction.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from borsuk.bodies import (
    VPolytope,
    body_from_facets,
    body_from_vertices,
    difference_body,
    lift_body,
    lift_set,
    point_set,
    vpolytope,
)
from borsuk.covering import (
    binomial_bound,
    bounds_table,
    cover_to_partition,
    covering_bound,
    greedy_cover,
    partition_bound,
)
from borsuk.generators import (
    cube_body,
    cube_vertices,
    gen_random_body,
    gen_random_polytope,
    parallelogram_body,
)
from borsuk.metric import DiameterGraph, distance, gauge, polytope_diameter, set_diameter
from borsuk.partition import borsuk_number, chromatic_number, verify_partition
from oracles import chromatic_by_bruteforce, fraction_scale_polytope

F = Fraction
BASE_SEED = 20240601


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- criterion 1: the cube needs exactly 2^n parts ----------------------


def test_criterion_1_cube_exactness():
    t0 = time.perf_counter()
    results = []
    for n in (2, 3, 4):
        start = time.perf_counter()
        cert = borsuk_number(cube_body(n), cube_vertices(n))
        per_instance = time.perf_counter() - start
        results.append((n, cert.number, cert.optimal, per_instance))
    ok = all(num == 2**n and opt for n, num, opt, _ in results)
    ok = ok and all(dt < 1.0 for _, _, _, dt in results)
    _report(
        "criterion 1 (cube exactness)",
        ok,
        f"numbers {[(n, num) for n, num, _, _ in results]} in {time.perf_counter() - t0:.2f}s",
    )


# --- criterion 2: difference-norm identities on 50 random pairs ----------


def test_criterion_2_difference_norm_suite():
    t0 = time.perf_counter()
    failures = 0
    for i in range(50):
        seed = BASE_SEED * 1_000_003 + i
        dim = 2 + (i % 2)
        C = gen_random_body(seed, dim, dim + 2, max_numerator=6, max_denominator=4)
        K = gen_random_polytope(seed + 1, dim, dim + 3, max_numerator=6, max_denominator=4)
        K = fraction_scale_polytope(K, F(1) / polytope_diameter(C, K))  # d_C(K) = 1
        D = difference_body(K)
        inside = all(gauge(C, w) <= 1 for w in D.vertices)
        diam_two = polytope_diameter(C, VPolytope(dim, D.vertices, pruned=True)) == 2
        self_one = polytope_diameter(D, K) == 1
        if not (inside and diam_two and self_one):
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (difference-norm identities)",
        failures == 0 and elapsed < 30,
        f"50 instances, {failures} failures, {elapsed:.1f}s",
    )


# --- criteria 3 and 4 share the 50 doubling instances ---------------------


@pytest.fixture(scope="module")
def doubling_instances():
    t0 = time.perf_counter()
    instances = []
    for i in range(50):
        seed = BASE_SEED * 1_000_003 + 1000 + i
        dim = 1 + (i % 3)
        n_points = {1: 4 + (i % 5), 2: 5 + (i % 3), 3: 5 + (i % 2)}[dim]
        K = gen_random_polytope(seed, dim, n_points, max_numerator=8, max_denominator=4)
        pts = list(K.vertices)
        if i % 4 == 0 and len(pts) >= 2 and len(pts) < 10:
            mid = tuple((a + b) / 2 for a, b in zip(pts[0], pts[1]))
            if mid not in pts:
                pts.append(mid)
        S = point_set(pts)
        assert len(S.points) <= 10
        b1 = borsuk_number(difference_body(K), S).number
        D_up = difference_body(vpolytope(lift_body(K).vertices, pruned=True))
        lifted = lift_set(S)
        b2 = borsuk_number(D_up, lifted).number
        instances.append((K, S, D_up, lifted, b1, b2))
    return instances, time.perf_counter() - t0


def test_criterion_3_doubling_law(doubling_instances):
    instances, elapsed = doubling_instances
    bad = [(b1, b2) for _, _, _, _, b1, b2 in instances if b2 != 2 * b1]
    _report(
        "criterion 3 (doubling law)",
        not bad and elapsed < 120,
        f"50 instances in dims 1-3, failures {bad[:3]}, {elapsed:.1f}s",
    )


def test_criterion_4_cross_copy_distances(doubling_instances):
    failures = 0
    for K, S, D_up, lifted, _, _ in doubling_instances[0]:
        n = len(S.points)
        if not all(
            distance(D_up, lifted.points[a], lifted.points[n + b]) == 1
            for a in range(n)
            for b in range(n)
        ):
            failures += 1
            continue
        if n >= 2:
            upper = point_set(lifted.points[:n])
            lower = point_set(lifted.points[n:])
            if set_diameter(D_up, upper)[0] != 1 or set_diameter(D_up, lower)[0] != 1:
                failures += 1
    _report(
        "criterion 4 (cross-copy distances and copy diameters)",
        failures == 0,
        f"all |S|^2 cross distances and within-copy diameters exactly 1; failures {failures}",
    )


# --- criterion 5: planar bound -------------------------------------------


def test_criterion_5_planar_bound():
    from borsuk.verify import _planar_instance

    t0 = time.perf_counter()
    worst = 0
    failures = 0
    for i in range(100):
        seed = BASE_SEED * 1_000_003 + 2000 + i
        C, S = _planar_instance(seed, i)
        number = borsuk_number(C, S).number
        worst = max(worst, number)
        if number > 4:
            failures += 1
    C = parallelogram_body()
    attained = borsuk_number(C, point_set(C.vertices)).number
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5 (planar bound at most 4, parallelogram attains it)",
        failures == 0 and attained == 4 and elapsed < 60,
        f"100 instances, max number {worst}, parallelogram {attained}, {elapsed:.1f}s",
    )


# --- criterion 6: coloring oracle equivalence ------------------------------


def test_criterion_6_coloring_oracle():
    t0 = time.perf_counter()
    rng = random.Random(BASE_SEED)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        edges = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        )
        cert = chromatic_number(DiameterGraph(n, F(1), edges))
        if cert.number != chromatic_by_bruteforce(n, edges) or not cert.optimal:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6 (exact coloring equals brute force)",
        mismatches == 0 and elapsed < 60,
        f"200 graphs up to 9 vertices, {mismatches} mismatches, {elapsed:.1f}s",
    )


# --- criterion 7: bound-formula identities ---------------------------------


def test_criterion_7_formula_identities(golden_path):
    identity_ok = all(
        partition_bound(n).value == covering_bound(n + 1).value / 2.0
        for n in range(2, 65)
    )
    improves = all(
        partition_bound(n).value < binomial_bound(n).value for n in range(3, 65)
    )
    rows = bounds_table(2, 64)
    lines = ["n,partition_bound,covering_bound,binomial_bound"]
    for n, part, cov, bino in rows:
        lines.append(f"{n},{part!r},{cov!r},{bino!r}")
    golden_ok = "\n".join(lines) + "\n" == (golden_path / "bounds_table.csv").read_text()
    # independent recomputation of a spot value, straight from the formula
    spot = 8 * (3 * math.log(3) + 3 * math.log(math.log(3)) + 15)
    spot_ok = covering_bound(3).value == spot
    _report(
        "criterion 7 (formula identities and golden table)",
        identity_ok and improves and golden_ok and spot_ok,
        f"identity exact on 2..64, improvement on 3..64, golden file matches",
    )


# --- criterion 8: covering pipeline ----------------------------------------


def test_criterion_8_covering_pipeline():
    t0 = time.perf_counter()
    K = vpolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    cov = greedy_cover(K, F(3, 5), F(1, 4))
    C = body_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])  # difference body of K
    grid = point_set([(F(i, 2), F(j, 2)) for i in range(3) for j in range(3)])
    P = cover_to_partition(grid, cov, C)
    verified = verify_partition(C, grid, P)
    needed = borsuk_number(C, grid).number
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 (covering pipeline)",
        len(cov.centers) <= 4 and verified and len(P.classes) >= needed and elapsed < 5,
        f"{len(cov.centers)} centers, {len(P.classes)} classes >= number {needed}, {elapsed:.1f}s",
    )


# --- criterion 9: norm axioms, 1000 seeded checks ---------------------------


def test_criterion_9_norm_axiom_suite():
    t0 = time.perf_counter()
    rng = random.Random(BASE_SEED + 9)
    dual_pairs = [
        (
            body_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
            body_from_facets([((1, 0), 1), ((0, 1), 1)]),
        ),
        (
            body_from_vertices([(1, 0), (-1, 0), (0, 1), (0, -1)]),
            body_from_facets([((1, 1), 1), ((1, -1), 1)]),
        ),
        (
            body_from_vertices([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]),
            body_from_facets([((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]),
        ),
    ]
    random_bodies = [
        gen_random_body(BASE_SEED + 90 + k, 2, 4, max_numerator=5, max_denominator=4)
        for k in range(4)
    ]
    failures = 0
    for _ in range(1000):
        pick = rng.randrange(len(dual_pairs) + len(random_bodies))
        if pick < len(dual_pairs):
            C, C_dual = dual_pairs[pick]
        else:
            C, C_dual = random_bodies[pick - len(dual_pairs)], None
        x = (F(rng.randint(-12, 12), rng.randint(1, 6)), F(rng.randint(-12, 12), rng.randint(1, 6)))
        y = (F(rng.randint(-12, 12), rng.randint(1, 6)), F(rng.randint(-12, 12), rng.randint(1, 6)))
        t = F(rng.randint(-8, 8), rng.randint(1, 4))
        gx = gauge(C, x)
        ok = gauge(C, tuple(t * c for c in x)) == abs(t) * gx
        ok = ok and gauge(C, tuple(a + b for a, b in zip(x, y))) <= gx + gauge(C, y)
        ok = ok and gauge(C, tuple(-c for c in x)) == gx
        ok = ok and (gx == 0) == all(c == 0 for c in x)
        if C_dual is not None:
            ok = ok and gauge(C_dual, x) == gx
        if not ok:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 9 (norm axioms, 1000 exact checks)",
        failures == 0,
        f"{failures} failures, {elapsed:.1f}s",
    )
