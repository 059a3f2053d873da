"""Verification suites: all pass on seeded instances; reports serialize."""

import hashlib
import json
import sys
from fractions import Fraction
from operator import sub

import pytest

from borsuk import jsonio, linalg, verify
from borsuk.bodies import PointSet, VPolytope, difference_body, lift_body, lift_set, point_set
from borsuk.errors import BorsukError, UnknownSuite
from borsuk.generators import cube_body, gen_random_body, gen_random_polytope
from borsuk.linalg import lowest_terms
from borsuk.metric import _gauges, polytope_diameter
from borsuk.partition import borsuk_number, doubling_check
from borsuk.verify import SUITES, run_verify_suite
from oracles import cross_distances, fraction_scale_polytope


@pytest.mark.parametrize("suite", SUITES)
def test_suite_passes(suite):
    report = run_verify_suite(suite, count=4, seed=11)
    assert report.passed, report.failures[:1]
    assert report.instances_run > 0
    assert report.checks_passed > 0


@pytest.mark.parametrize("count", [0, -3])
def test_count_below_one_raises(count):
    # a suite that ran no instance must not report a pass
    for suite in SUITES:
        with pytest.raises(BorsukError, match=f"got {count}"):
            run_verify_suite(suite, count, 1)


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_verify_suite("nope", 1, 0)


def test_report_serializes():
    report = run_verify_suite("cube_exact", 1, 0)
    text = jsonio.dumps(report.to_obj())
    obj = json.loads(text)
    assert obj["suite"] == "cube_exact"
    assert obj["checks_failed"] == 0


def test_reports_are_reproducible():
    a = run_verify_suite("doubling", 3, 5).to_obj()
    b = run_verify_suite("doubling", 3, 5).to_obj()
    assert a == b


def test_failure_payload_replays(monkeypatch):
    # under a budget of one node a search stops short and its check fails;
    # the failure's payload rebuilds the instance, whose searches under the
    # same budget give the numbers the payload recorded
    monkeypatch.setenv("BORSUK_NODE_BUDGET", "1")
    (failure,) = run_verify_suite("doubling", 2, 2).failures
    assert failure["instance_seed"] == 2 * 1_000_003 + 1
    K = jsonio.polytope_from_obj(failure["polytope"])
    S = jsonio.pointset_from_obj(failure["points"])
    assert doubling_check(K, S, 1) == (failure["b_base"], failure["b_lifted"], False) == (3, 6, False)

    (failure,) = run_verify_suite("norm_domination", 6, 0).failures
    assert failure["instance_seed"] == 5
    C = jsonio.body_from_obj(failure["body"])  # certified as it is parsed
    K = jsonio.polytope_from_obj(failure["polytope"])
    S = point_set(K.vertices)
    ambient, difference = borsuk_number(C, S, 1), borsuk_number(difference_body(K), S, 1)
    assert (ambient.number, difference.number) == (failure["b_ambient"], failure["b_difference"]) == (2, 4)
    assert not difference.optimal


@pytest.mark.parametrize("suite, count, seed, failing_seed", [
    ("doubling", 2, 2, 2 * 1_000_003 + 1),
    ("norm_domination", 6, 0, 5),
])
def test_search_cut_short_fails_its_check(suite, count, seed, failing_seed, monkeypatch):
    # under a budget of one node, one search of this instance ends without
    # proving its number, so the check compares an upper bound and must fail
    assert run_verify_suite(suite, count, seed).passed
    monkeypatch.setenv("BORSUK_NODE_BUDGET", "1")
    report = run_verify_suite(suite, count, seed)
    assert [f["instance_seed"] for f in report.failures] == [failing_seed]


def test_a_forced_failure_report_is_pinned(monkeypatch):
    # every partition check fails, so every instance's payload is built:
    # the digest is that of the report when each payload was built eagerly
    monkeypatch.setattr(verify, "verify_partition", lambda C, S, P: False)
    report = run_verify_suite("grunbaum_plane", 3, 4)
    assert (report.checks_passed, report.checks_failed) == (3, 3)
    digest = hashlib.sha256(jsonio.dumps(report.to_obj()).encode()).hexdigest()
    assert digest == "bb26588251788dab460af0732abf13885e48f6dcd0f61d9b39a082d7e58f20af"


def test_report_and_its_obj_change_apart(monkeypatch):
    # every partition check fails, so each failure holds nested dicts and
    # lists; changing them on either side leaves the other as it was
    monkeypatch.setattr(verify, "verify_partition", lambda C, S, P: False)
    report = run_verify_suite("grunbaum_plane", 3, 4)
    shown = jsonio.dumps(report.to_obj())
    obj = report.to_obj()
    obj["failures"][0]["points"]["points"][0][0] = "changed"
    obj["failures"][1]["body"]["changed"] = True
    obj["failures"].append({"check": "changed"})
    assert jsonio.dumps(report.to_obj()) == shown
    obj = report.to_obj()
    kept = jsonio.dumps(obj)
    report.failures[0]["points"]["points"][0][0] = "changed"
    report.failures[2]["polytope"] = None
    report.failures.pop(1)
    assert jsonio.dumps(obj) == kept != jsonio.dumps(report.to_obj())


def test_passing_checks_serialize_nothing(monkeypatch):
    def refuse(obj):
        raise AssertionError(f"a payload was built for a passing check: {obj!r}")

    for name in ("body_to_obj", "polytope_to_obj", "pointset_to_obj"):
        monkeypatch.setattr(jsonio, name, refuse)
    for suite in SUITES:
        assert run_verify_suite(suite, 2, 11).passed


def test_cross_gauges_match_per_pair_distances():
    # the lifted cross check reads the gauges of the row differences of the
    # two copies from one table: on lifted_cross instances, under the
    # lifted difference body (every value 1), the lift itself and the cube
    # (values other than 1), they are one distance per pair
    unequal = 0
    for s in range(30):
        dim = 1 + (s % 3)
        K = gen_random_polytope(s, dim, dim + 2, max_numerator=6, max_denominator=4)
        S = PointSet(dim, scaled=lowest_terms(*K.scaled))
        L = lift_body(K)
        lifted = lift_set(S)
        m, rows = lifted.scaled
        n = len(S)
        differences = [tuple(map(sub, U, W)) for U in rows[:n] for W in rows[n:]]
        for C in (difference_body(VPolytope(L.dim, scaled=L.scaled, pruned=True)), L, cube_body(dim + 1)):
            expected = cross_distances(C, lifted.points[:n], lifted.points[n:])
            assert _gauges(C, (m, differences)) == expected
            unequal += any(g != 1 for g in expected)
    assert unequal >= 30


def test_unit_diameter_polytopes_serialize_as_scaled_fractions():
    # K scaled on its rows to d_C(K) = 1 is the polytope, and the failure
    # payload, of K's Fraction vertices times 1 / d_C(K)
    for s in range(40):
        dim, C, K, D = verify._unit_diameter_instance(s, s)
        K0 = gen_random_polytope(s + 1, dim, dim + 3, max_numerator=6, max_denominator=4)
        expected = fraction_scale_polytope(K0, Fraction(1) / polytope_diameter(C, K0))
        assert C == gen_random_body(s, dim, dim + 2, max_numerator=6, max_denominator=4)
        assert K == expected and K.scaled == expected.scaled
        assert jsonio.polytope_to_obj(K) == jsonio.polytope_to_obj(expected)
        assert polytope_diameter(C, K) == 1


@pytest.mark.parametrize("suite", ["difference_norm", "lifted_cross", "norm_domination"])
def test_row_suites_rescale_no_fraction(suite, monkeypatch):
    # these suites read integer rows throughout: no module scales Fraction
    # points back to rows
    calls = []
    real = linalg.over_common_denominator

    def counted(points):
        calls.append(points)
        return real(points)

    for module in list(sys.modules.values()):
        if module is not None and getattr(module, "over_common_denominator", None) is real:
            monkeypatch.setattr(module, "over_common_denominator", counted)
    assert run_verify_suite(suite, 10, 0).passed
    assert calls == []
