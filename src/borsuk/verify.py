"""Seeded verification suites for the constructive claims of the method.

Each suite runs ``count`` reproducible instances and records every
failed check together with a payload (child seed plus serialized
inputs) that regenerates the failure, built only when a check fails.
All comparisons are exact except in the bounds table, whose formulas
are floating-point by design.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from operator import add, sub

from . import jsonio
from ._value import Value
from .bodies import PointSet, VPolytope, difference_body, lift_body, lift_set
from .covering import binomial_bound, covering_bound, partition_bound
from .errors import BorsukError, UnknownSuite
from .generators import cube_body, cube_vertices, gen_random_body, gen_random_points, gen_random_polytope
from .linalg import common_scale, lowest_terms
from .metric import _extremes, _gauges, polytope_diameter
from .partition import borsuk_number, doubling_check, verify_partition


class VerificationReport(Value):
    """A suite's counts and failure payloads, filled in as it runs: unlike
    the other value types, it can be assigned to and is not hashable."""

    _fields = ("suite", "count", "seed", "instances_run", "checks_passed", "checks_failed", "failures")
    suite: str
    count: int
    seed: int
    instances_run: int
    checks_passed: int
    checks_failed: int
    failures: list

    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, suite, count, seed, instances_run=0, checks_passed=0, checks_failed=0, failures=None):
        vars(self).update(
            suite=suite,
            count=count,
            seed=seed,
            instances_run=instances_run,
            checks_passed=checks_passed,
            checks_failed=checks_failed,
            failures=[] if failures is None else failures,
        )

    @property
    def passed(self) -> bool:
        return self.checks_failed == 0

    def record(self, ok: bool, payload: Callable[[], dict], check: str):
        """Count the check, and on failure keep the dict ``payload()``
        builds, which passing checks never serialize."""
        if ok:
            self.checks_passed += 1
        else:
            self.checks_failed += 1
            self.failures.append({**payload(), "check": check})

    def to_obj(self) -> dict:
        """The fields as a dict, the failures a deep copy, so that the
        report and the dict change apart."""
        return dict(zip(self._fields, self._values(self)), failures=_copied(self.failures))


def _copied(value):
    """A copy of a JSON value such as a failure payload: its dicts and
    lists are copied at every depth, and the strings, numbers, booleans
    and None in them, which cannot change, are shared. Written out so
    that ``import borsuk`` does not load the ``copy`` module for it."""
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copied(v) for v in value]
    return value


def _child_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _unit_diameter_instance(s: int, i: int):
    """A random body C and polytope K in dimension 2 or 3, K scaled to
    d_C(K) = 1, and its difference body D = K - K: (dim, C, K, D). K's
    rows X / m over its diameter t = p / q are the rows X * q over m * p,
    in lowest terms."""
    dim = 2 + (i % 2)
    C = gen_random_body(s, dim, dim + 2, max_numerator=6, max_denominator=4)
    K = gen_random_polytope(s + 1, dim, dim + 3, max_numerator=6, max_denominator=4)
    t = polytope_diameter(C, K)
    m, rows = K.scaled
    scaled = lowest_terms(m * t.numerator, [tuple([x * t.denominator for x in X]) for X in rows])
    K = VPolytope(dim, scaled=scaled, pruned=K.pruned)
    return dim, C, K, difference_body(K)


def _suite_difference_norm(report, count, seed):
    """Containment and the three exact diameter identities of the
    difference norm, on random (K, C) pairs normalized to d_C(K) = 1."""
    for i in range(count):
        s = _child_seed(seed, i)
        dim, C, K, D = _unit_diameter_instance(s, i)

        def payload():
            return {
                "instance_seed": s,
                "dim": dim,
                "body": jsonio.body_to_obj(C),
                "polytope": jsonio.polytope_to_obj(K),
            }

        report.record(max(_gauges(C, D.scaled)) <= 1, payload, "difference_body_inside_unit_ball")
        report.record(
            polytope_diameter(C, VPolytope(dim, scaled=D.scaled, pruned=True)) == 2,
            payload,
            "difference_body_diameter_two",
        )
        report.record(polytope_diameter(D, K) == 1, payload, "self_difference_diameter_one")
        report.instances_run += 1


def _suite_lifted_cross(report, count, seed):
    """Within-copy diameters of the two lifted copies equal 1 and every
    cross-copy distance equals 1 exactly, under the lifted difference
    norm."""
    for i in range(count):
        s = _child_seed(seed, i)
        dim = 1 + (i % 3)
        K = gen_random_polytope(s, dim, dim + 2, max_numerator=6, max_denominator=4)
        S = PointSet(dim, scaled=lowest_terms(*K.scaled))
        L = lift_body(K)
        D_up = difference_body(VPolytope(L.dim, scaled=L.scaled, pruned=True))
        lifted = lift_set(S)
        n = len(S)

        def payload():
            return {"instance_seed": s, "dim": dim, "polytope": jsonio.polytope_to_obj(K)}

        m, rows = lifted.scaled
        upper, lower = rows[:n], rows[n:]
        report.record(_extremes(D_up, (m, upper))[0] == 1, payload, "upper_copy_diameter_one")
        report.record(_extremes(D_up, (m, lower))[0] == 1, payload, "lower_copy_diameter_one")
        cross = _gauges(D_up, (m, [tuple(map(sub, U, W)) for U in upper for W in lower]))
        report.record(all(g == 1 for g in cross), payload, "cross_copy_distances_one")
        report.instances_run += 1


def _doubling_sizes(i):
    dim = 1 + (i % 3)
    n_points = {1: 4 + (i % 5), 2: 5 + (i % 3), 3: 5 + (i % 2)}[dim]
    return dim, n_points


def _suite_doubling(report, count, seed):
    """Lifting doubles the exact partition number on every instance."""
    for i in range(count):
        s = _child_seed(seed, i)
        dim, n_points = _doubling_sizes(i)
        K = gen_random_polytope(s, dim, n_points, max_numerator=8, max_denominator=4)
        m, rows = K.scaled
        if i % 4 == 0:
            # the midpoint of the first two vertices, over 2m with them; a
            # vertex of a pruned polytope is no midpoint of two others
            mid = tuple(map(add, rows[0], rows[1]))
            m, rows = 2 * m, [tuple([2 * x for x in X]) for X in rows] + [mid]
        S = PointSet(dim, scaled=lowest_terms(m, rows))
        b1, b2, ok = doubling_check(K, S)

        def payload():
            return {
                "instance_seed": s,
                "dim": dim,
                "polytope": jsonio.polytope_to_obj(K),
                "points": jsonio.pointset_to_obj(S),
                "b_base": b1,
                "b_lifted": b2,
            }

        report.record(ok, payload, "lifted_number_is_doubled")
        report.instances_run += 1


def _planar_instance(s: int, i: int):
    """Random polygon plus a point set; every third instance includes the
    polygon's own vertices so the diameter graph has antipodal edges, and
    then the drawn points that are none of them, compared as integer rows
    over one common denominator; the set is built from the rows kept."""
    C = gen_random_body(s, 2, 3 + (i % 4), max_numerator=16, max_denominator=16)
    target = 4 + (i % 9)
    drawn = gen_random_points(s + 1, 2, target, max_numerator=16, max_denominator=16)
    if i % 3:
        return C, drawn
    mC, XC = C.scaled
    m, (rows, XS) = common_scale((mC, list(XC[:target])), drawn.scaled)
    taken = set(rows)
    for Y in XS:
        if len(rows) >= target:
            break
        if Y not in taken:
            rows.append(Y)
    return C, PointSet(2, scaled=lowest_terms(m, rows))


def _suite_grunbaum_plane(report, count, seed):
    """Planar partition numbers never exceed four."""
    for i in range(count):
        s = _child_seed(seed, i)
        C, S = _planar_instance(s, i)
        cert = borsuk_number(C, S)

        def payload():
            return {
                "instance_seed": s,
                "body": jsonio.body_to_obj(C),
                "points": jsonio.pointset_to_obj(S),
                "number": cert.number,
            }

        report.record(cert.number <= 4, payload, "planar_number_at_most_four")
        report.record(verify_partition(C, S, cert.partition), payload, "partition_verifies")
        report.instances_run += 1


def _suite_cube_exact(report, count, seed):
    """The cube needs exactly 2^n parts, realized on its vertex set."""
    for n in (2, 3, 4):
        cert = borsuk_number(cube_body(n), cube_vertices(n))
        report.record(
            cert.number == 2**n and cert.optimal,
            lambda: {"dim": n, "number": cert.number, "expected": 2**n},
            "cube_number_is_2_pow_n",
        )
        report.instances_run += 1


def _suite_norm_domination(report, count, seed):
    """With d_C(S) = 1 the partition number under C is at most the one
    under the difference norm of the hull."""
    for i in range(count):
        s = _child_seed(seed, i)
        dim, C, K, D = _unit_diameter_instance(s, i)
        S = PointSet(dim, scaled=K.scaled)
        ambient = borsuk_number(C, S)
        difference = borsuk_number(D, S)
        b_ambient, b_difference = ambient.number, difference.number

        def payload():
            return {
                "instance_seed": s,
                "dim": dim,
                "body": jsonio.body_to_obj(C),
                "polytope": jsonio.polytope_to_obj(K),
                "b_ambient": b_ambient,
                "b_difference": b_difference,
            }

        # a search cut short by the node budget gives only an upper bound
        finished = ambient.optimal and difference.optimal
        report.record(finished and b_ambient <= b_difference, payload, "ambient_number_dominated")
        report.instances_run += 1


def _suite_bounds_table(report, count, seed):
    """Floating-point identities between the closed-form bounds."""
    for n in range(2, 65):
        report.record(
            partition_bound(n).value == covering_bound(n + 1).value / 2.0,
            lambda: {"n": n},
            "partition_equals_half_covering_up",
        )
        report.instances_run += 1
    for n in range(3, 64):
        report.record(
            covering_bound(n + 1).value > covering_bound(n).value,
            lambda: {"n": n},
            "covering_bound_monotone",
        )
    for n in range(3, 65):
        report.record(
            partition_bound(n).value < binomial_bound(n).value,
            lambda: {"n": n},
            "partition_bound_improves_binomial",
        )
    report.record(
        math.isclose(covering_bound(2).value, 42.613074, rel_tol=1e-6),
        lambda: {"n": 2},
        "covering_bound_spot_value",
    )


_SUITE_FUNCS = {
    "difference_norm": _suite_difference_norm,
    "lifted_cross": _suite_lifted_cross,
    "doubling": _suite_doubling,
    "grunbaum_plane": _suite_grunbaum_plane,
    "cube_exact": _suite_cube_exact,
    "norm_domination": _suite_norm_domination,
    "bounds_table": _suite_bounds_table,
}
SUITES = tuple(_SUITE_FUNCS)


def run_verify_suite(name: str, count: int = 10, seed: int = 0) -> VerificationReport:
    """Run the named suite on ``count`` seeded instances.

    ``cube_exact`` and ``bounds_table`` have fixed instance ranges and
    otherwise ignore ``count``. Unknown names raise :class:`UnknownSuite`;
    a ``count`` below 1 raises :class:`BorsukError` for every suite, since
    a suite that runs nothing must not pass.
    """
    if name not in _SUITE_FUNCS:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if count < 1:
        raise BorsukError(f"count must be at least 1, got {count}")
    report = VerificationReport(name, count, seed)
    _SUITE_FUNCS[name](report, count, seed)
    return report
