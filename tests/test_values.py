"""The value types: ``==``, ``hash`` and ``repr`` over their fields alone,
immutability, construction, validation, and a report's dict."""

import hashlib
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import borsuk
from borsuk import lp, verify
from borsuk.bodies import (
    PointSet,
    SymmetricBody,
    VPolytope,
    body_from_facets,
    body_from_vertices,
    difference_body,
    lift_body,
    point_set,
    prune_redundant,
    vpolytope,
)
from borsuk.covering import BoundValue, Covering, binomial_bound, greedy_cover
from borsuk.errors import IndexOutOfRange, InvalidInput
from borsuk.generators import cube_body, cube_vertices
from borsuk.metric import DiameterGraph
from borsuk.partition import BorsukCertificate, Partition, partition

F = Fraction
TRIANGLE = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1, 2)))
SEGMENT = VPolytope(1, ((F(0),), (F(1),)))


def _instances():
    """One instance of each frozen value type."""
    return [
        VPolytope(2, TRIANGLE),
        body_from_facets([((1, 0), 1), ((0, 1), F(1, 2))]),
        body_from_vertices([(1, 0), (-1, 0), (0, 1), (0, -1)]),
        PointSet(1, ((F(0),), (F(1, 2),)), ("a", "b")),
        Partition(3, ((0, 2), (1,))),
        DiameterGraph(3, F(1), ((0, 1),)),
        Covering(F(1, 2), ((F(0),),), SEGMENT, "sample_certified", ((F(1),),)),
        binomial_bound(3),
        lp.LPResult("optimal", F(1), [F(1)], 2),
    ]


# the text each instance above showed when the types were dataclasses
REPRS = [
    "VPolytope(dim=2, vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)),"
    " (Fraction(0, 1), Fraction(1, 2))), pruned=False)",
    "SymmetricBody(dim=2, vertices=None, facets=(((Fraction(1, 1), Fraction(0, 1)), Fraction(1, 1)),"
    " ((Fraction(0, 1), Fraction(1, 1)), Fraction(1, 2))))",
    "SymmetricBody(dim=2, vertices=((Fraction(1, 1), Fraction(0, 1)), (Fraction(-1, 1), Fraction(0, 1)),"
    " (Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(-1, 1))), facets=None)",
    "PointSet(dim=1, points=((Fraction(0, 1),), (Fraction(1, 2),)), labels=('a', 'b'))",
    "Partition(n_points=3, classes=((0, 2), (1,)))",
    "DiameterGraph(n_points=3, diameter=Fraction(1, 1), edges=((0, 1),))",
    "Covering(ratio=Fraction(1, 2), centers=((Fraction(0, 1),),), body=VPolytope(dim=1,"
    " vertices=((Fraction(0, 1),), (Fraction(1, 1),)), pruned=False), certificate_level='sample_certified',"
    " witnesses=((Fraction(1, 1),),))",
    "BoundValue(n=3, value=371.5596069770885, formula='binomial')",
    "LPResult(status='optimal', value=Fraction(1, 1), x=[Fraction(1, 1)], pivots=2)",
]


def test_each_value_type_shows_as_its_fields():
    for value, text in zip(_instances(), REPRS, strict=True):
        assert repr(value) == text
    report = verify.VerificationReport("doubling", 1, 0)
    assert repr(report) == (
        "VerificationReport(suite='doubling', count=1, seed=0, instances_run=0, checks_passed=0,"
        " checks_failed=0, failures=[])"
    )


def test_equal_fields_are_equal_only_within_one_class():
    twins = zip(_instances(), _instances(), strict=True)
    for a, b in twins:
        assert a is not b and a == b and not a != b
        if not isinstance(a, lp.LPResult):  # its x is a list
            assert hash(a) == hash(b)
    # the hash of the tuple of the fields, as a frozen dataclass's is
    assert hash(Partition(3, ((0, 2), (1,)))) == hash((3, ((0, 2), (1,))))
    assert hash(DiameterGraph(3, F(1), ((0, 1),))) == hash((3, F(1), ((0, 1),)))
    # one field apart
    assert VPolytope(2, TRIANGLE) != VPolytope(2, TRIANGLE, pruned=True)
    assert Partition(3, ((0, 2), (1,))) != Partition(3, ((0,), (1, 2)))
    assert DiameterGraph(3, F(1), ((0, 1),)) != DiameterGraph(3, F(2), ((0, 1),))
    # equal fields in another class, or a tuple of them, are not equal
    square = ((F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1)))
    P, C = VPolytope(2, square), SymmetricBody(2, square)
    assert (P.dim, P.vertices, P.facets) == (C.dim, C.vertices, C.facets)
    assert P != C and C != P and not P == C
    assert Partition(2, ((0, 1),)) != (2, ((0, 1),))
    G, B = DiameterGraph(3, F(1), ((0, 1),)), BoundValue(3, F(1), ((0, 1),))
    assert G != B and B != G and not G == B
    # a set built from its rows equals its twin built from Fractions
    rows = PointSet(2, scaled=(2, ((1, 0), (0, 1))))
    fractions = PointSet(2, ((F(1, 2), F(0)), (F(0), F(1, 2))))
    assert rows == fractions and hash(rows) == hash(fractions)
    assert "points" in vars(rows)  # read by ==, as a field


def test_handed_on_fields_are_read_by_no_comparison():
    K = vpolytope([(0, 0), (2, 0), (0, 1), (1, 0), (F(1, 2), F(1, 4))])
    pruned = prune_redundant(K)
    D = difference_body(K)
    lift = lift_body(K)
    cover = greedy_cover(K, F(3, 5), F(1, 2))
    cover_fields = ("ratio", "centers", "body", "certificate_level", "witnesses")
    pairs = [
        (pruned, VPolytope(2, pruned.vertices, True), "seed_hull"),
        (D, SymmetricBody(2, D.vertices), "seed_hull"),
        (lift, SymmetricBody(3, lift.vertices), "lift_base"),
        (cover, Covering(*(getattr(cover, name) for name in cover_fields)), "center_rows"),
    ]
    for made, plain, kept in pairs:
        assert vars(made)[kept] is not None and vars(plain)[kept] is None
        assert made == plain and hash(made) == hash(plain) and repr(made) == repr(plain)
        assert kept not in repr(made)


def test_frozen_values_refuse_assignment_and_deletion():
    for value in _instances():
        names = list(vars(value))
        for name in names + ["anything_else"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, names[0])
    # a certificate is still a frozen dataclass
    cert = BorsukCertificate(2, partition(2, [(0,), (1,)]), (0, 1), True, 3)
    with pytest.raises(AttributeError):
        cert.number = 1
    # a report is filled in as it runs, so it is mutable and unhashable
    report = verify.VerificationReport("doubling", 1, 0)
    report.instances_run = 1
    del report.instances_run
    with pytest.raises(TypeError):
        hash(report)


def test_positional_keyword_and_default_construction():
    G = DiameterGraph(4, 1, ((0, 1), (2, 3)))  # as the benchmark builds its graphs
    assert (G.n_points, G.diameter, G.edges) == (4, 1, ((0, 1), (2, 3)))
    assert DiameterGraph(n_points=4, diameter=1, edges=((0, 1), (2, 3))) == G
    assert Partition(n_points=2, classes=((0,), (1,))) == Partition(2, ((0,), (1,)))
    assert VPolytope(2, TRIANGLE, True).pruned and not VPolytope(2, TRIANGLE).pruned
    assert PointSet(1, ((F(0),),)).labels is None
    assert SymmetricBody(1, ((F(1),), (F(-1),))).facets is None
    res = lp.LPResult(lp.INFEASIBLE, pivots=3)
    assert (res.status, res.value, res.x, res.pivots) == (lp.INFEASIBLE, None, None, 3)
    assert lp.LPResult(lp.OPTIMAL).pivots == 0
    bound = BoundValue(n=3, value=1.0, formula="binomial")
    assert (bound.n, bound.value, bound.formula) == (3, 1.0, "binomial")
    cov = Covering(F(1, 2), ((F(0),),), SEGMENT, "sample_certified", ((F(1),),))
    assert cov.center_rows is None
    a, b = verify.VerificationReport("doubling", 1, 0), verify.VerificationReport("doubling", 1, 0)
    assert (a.instances_run, a.checks_passed, a.checks_failed, a.failures) == (0, 0, 0, [])
    a.failures.append({})
    assert b.failures == []  # each report has its own list
    assert verify.VerificationReport("x", 1, 2, 3, 4, 5, [{}]).to_obj() == {
        "suite": "x",
        "count": 1,
        "seed": 2,
        "instances_run": 3,
        "checks_passed": 4,
        "checks_failed": 5,
        "failures": [{}],
    }


@pytest.mark.parametrize(
    "make, error, text",
    [
        (lambda: Partition(2, ((0, 1), ())), InvalidInput, "empty partition class"),
        (lambda: Partition(2, ((0, 2),)), IndexOutOfRange, "index 2 outside 0..1"),
        (lambda: Partition(2, ((-1, 0),)), IndexOutOfRange, "index -1 outside 0..1"),
        (lambda: Partition(3, ((0, 1), (1, 2))), InvalidInput, "index 1 appears in two classes"),
        (lambda: Partition(3, ((0, 1),)), InvalidInput, "classes do not cover all indices"),
        (lambda: DiameterGraph(0, 1, ()), InvalidInput, "a diameter graph needs at least one point, got 0"),
        (lambda: DiameterGraph(3, 1, ((0, 3),)), IndexOutOfRange, "edge (0, 3) outside 0..2"),
        (lambda: DiameterGraph(3, 1, ((1, 1),)), InvalidInput, "self-loop at vertex 1"),
    ],
)
def test_partitions_and_graphs_are_checked_as_they_are_made(make, error, text):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error and str(caught.value) == text


@pytest.mark.parametrize(
    "make, text",
    [
        # an empty list has no first point to read the dimension from
        (lambda: vpolytope([]), "a polytope needs at least one vertex"),
        (lambda: point_set([]), "a point set needs at least one point"),
        (lambda: body_from_vertices([]), "a body needs at least one vertex"),
        (lambda: body_from_facets([]), "dimension must be >= 1"),
        (lambda: cube_body(0), "dimension must be >= 1"),
        (lambda: cube_body(-1), "dimension must be >= 1"),
        # points of no coordinate
        (lambda: point_set([()]), "dimension must be >= 1"),
        (lambda: cube_vertices(0), "dimension must be >= 1"),
        (lambda: cube_vertices(-1), "dimension must be >= 1"),
        (lambda: cube_body(0, facet_form=False), "dimension must be >= 1"),
        (lambda: PointSet(0, scaled=(1, ((),))), "dimension must be >= 1"),
    ],
)
def test_empty_and_zero_dimensional_inputs_are_invalid(make, text):
    with pytest.raises(InvalidInput) as caught:
        make()
    assert str(caught.value) == text


def test_a_failing_report_dict_is_a_copy_of_its_fields(monkeypatch):
    monkeypatch.setenv("BORSUK_NODE_BUDGET", "1")
    report = verify.run_verify_suite("doubling", 20, 3)
    obj = report.to_obj()
    assert report.checks_failed == len(obj["failures"]) == 2
    # the digest of the dict's repr when it was dataclasses.asdict's, which
    # pins its keys, their order and each list, dict and tuple in it
    assert hashlib.sha256(repr(obj).encode()).hexdigest() == (
        "58fc91edc10b38ae2b81cf03d5ef1c7233980acbb08302cd2c09e4ec6d453529"
    )
    kept = repr(report)
    obj["count"] = 0
    obj["failures"][0]["check"] = "changed"
    obj["failures"][0]["instance_seed"] = -1
    obj["failures"].append({})
    assert repr(report) == kept and report.to_obj() != obj


def test_the_only_dataclass_is_the_certificate():
    # perfbench/test_perfbench.py builds wrong certificates with
    # dataclasses.replace, which needs BorsukCertificate to be a dataclass;
    # every other value type derives from borsuk._value.Value, so that
    # importing the package defines no further dataclass
    dataclasses = set()
    for info in pkgutil.iter_modules(borsuk.__path__):
        module = importlib.import_module(f"borsuk.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and hasattr(cls, "__dataclass_fields__"):
                dataclasses.add(cls)
    assert dataclasses == {BorsukCertificate}
