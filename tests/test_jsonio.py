"""Wire formats: bit-exact rational round-trips and deterministic output."""

import json
from fractions import Fraction

import pytest

from borsuk import jsonio
from borsuk.bodies import SymmetricBody, lift_body, lift_set, point_set, vpolytope
from borsuk.covering import greedy_cover
from borsuk.errors import DomainError, InvalidInput
from borsuk.metric import DiameterGraph, diameter_graph
from borsuk.partition import borsuk_number

F = Fraction


def test_polytope_round_trip():
    K = vpolytope([(F(1, 3), F(-2, 7)), (F(0), F(5)), (F(-4), F(1, 2))])
    obj = jsonio.polytope_to_obj(K)
    back = jsonio.polytope_from_obj(obj)
    assert back.vertices == K.vertices
    assert back.dim == K.dim
    # textual fixed point: parse(serialize(parse(x))) emits the same text
    text = jsonio.dumps(obj)
    assert jsonio.dumps(jsonio.polytope_to_obj(back)) == text


def test_body_round_trip_both_forms(square_v, square_h):
    for C in (square_v, square_h):
        obj = jsonio.body_to_obj(C)
        back = jsonio.body_from_obj(obj)
        assert back == C
        assert jsonio.dumps(jsonio.body_to_obj(back)) == jsonio.dumps(obj)


def test_rational_strings_survive_verbatim():
    obj = {"dim": 1, "vertices": [["2/4"], ["-6/3"]]}
    K = jsonio.polytope_from_obj(obj)
    assert K.vertices == ((F(1, 2),), (F(-2),))
    # canonical reserialization is in lowest terms
    assert jsonio.polytope_to_obj(K)["vertices"] == [["1/2"], ["-2"]]


def test_pointset_round_trip_with_labels():
    S = lift_set(point_set([(1, 2), (3, 4)]))
    obj = jsonio.pointset_to_obj(S)
    back = jsonio.pointset_from_obj(obj)
    assert back.points == S.points
    assert back.labels == S.labels
    assert jsonio.dumps(jsonio.pointset_to_obj(back)) == jsonio.dumps(obj)


def test_graph_round_trip(square_v):
    S = point_set([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    G = diameter_graph(square_v, S)
    obj = jsonio.graph_to_obj(G)
    assert obj == {"n_points": 4, "diameter": "2", "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}


def test_certificate_serialization(square_v):
    S = point_set([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    cert = borsuk_number(square_v, S)
    obj = jsonio.certificate_to_obj(cert)
    assert obj["number"] == 4
    assert obj["optimal"] is True
    assert obj["stats"]["nodes"] == cert.nodes
    assert obj["stats"]["time"] is None
    P = jsonio.partition_from_obj(obj)
    assert P.classes == cert.partition.classes


def test_partition_from_bare_object():
    P = jsonio.partition_from_obj({"n_points": 3, "classes": [[0, 2], [1]]})
    assert P.n_points == 3
    assert P.classes == ((0, 2), (1,))


def test_covering_serialization(unit_square_poly):
    cov = greedy_cover(unit_square_poly, F(3, 5), F(1, 4))
    obj = jsonio.covering_to_obj(cov)
    assert obj["ratio"] == "3/5"
    assert obj["certificate_level"] == "sample_certified"
    assert obj["witness_count"] == len(cov.witnesses)
    assert len(obj["centers"]) == 4


def test_lifted_body_serialization(triangle):
    obj = jsonio.lifted_body_to_obj(triangle)
    assert obj["base_dim"] == 2
    assert obj["body"]["dim"] == 3
    assert jsonio.polytope_from_obj(obj["provenance"]) == triangle
    back = jsonio.body_from_obj(obj["body"])
    assert back == lift_body(triangle)


def test_dumps_is_deterministic(square_v):
    obj = jsonio.body_to_obj(square_v)
    assert jsonio.dumps(obj) == jsonio.dumps(json.loads(jsonio.dumps(obj)))
    assert jsonio.dumps(obj).endswith("\n")


@pytest.mark.parametrize(
    "text",
    [
        "1e999999999",
        "1e-999999999",
        "1E+4300",
        "-2.5e-4300",
        "1e" + "9" * 5000,
        "0e99999999",
        # the decimal digits add to the exponent's: 1/10**4300 and a
        # numerator of 4303 digits could not be printed back
        "0.1e-4299",
        "1234.5678e4299",
        "9" * 4301,
    ],
)
def test_huge_decimal_exponent_is_invalid_input(text):
    # Fraction would build 10 to this power before returning, or a value
    # whose numerator or denominator has too many digits to print
    with pytest.raises(InvalidInput, match=f"more than {jsonio.MAX_DECIMAL_DIGITS} digits"):
        jsonio.parse_rational(text)
    with pytest.raises(InvalidInput):
        jsonio.pointset_from_obj({"dim": 1, "points": [[text]]})


def test_decimal_exponents_parse_exactly():
    assert jsonio.parse_rational("2.5e-2") == F(1, 40)
    assert jsonio.parse_rational("1e3") == 1000
    assert jsonio.parse_rational("3E-1") == F(3, 10)
    assert jsonio.parse_rational("1e4299") == 10**4299
    assert jsonio.parse_rational("-1e-4299") == F(-1, 10**4299)
    assert jsonio.parse_rational("12.5e4298") == 125 * 10**4297
    assert jsonio.parse_rational("9" * 4300) == 10**4300 - 1
    for text in ("1e4299", "-1e-4299", "12.5e4298", "0.25e-4297"):
        str(jsonio.parse_rational(text))  # printable


def test_format_rational_writes_what_parse_rational_reads():
    for value in (F(0), F(-3, 7), 10**4300 - 1, F(1, 10**4300 - 1), F(-(10**4299), 10**4300 - 1)):
        assert jsonio.parse_rational(jsonio.format_rational(F(value))) == value


@pytest.mark.parametrize("value, digits", [
    (F(10**4300), 4301),
    (F(-1, 10**4300), 4301),
    (F(7, 10**8000 + 1), 8001),
])
def test_result_too_long_to_write_is_a_domain_error(value, digits):
    with pytest.raises(DomainError, match=f"^result has {digits} digits"):
        jsonio.format_rational(value)
    # every writer goes through the same check
    with pytest.raises(DomainError, match=f"^result has {digits} digits"):
        jsonio.polytope_to_obj(vpolytope([(value, 0), (0, 1)]))
    with pytest.raises(DomainError):
        jsonio.body_to_obj(SymmetricBody(1, facets=(((F(1),), abs(value)),)))
    with pytest.raises(DomainError):
        jsonio.graph_to_obj(DiameterGraph(2, abs(value), ((0, 1),)))


@pytest.mark.parametrize("parse, obj", [
    (jsonio.pointset_from_obj, {"dim": 2, "points": ["10", "01"]}),
    (jsonio.pointset_from_obj, {"dim": 1, "points": [[0], [1]], "labels": "ab"}),
    (jsonio.pointset_from_obj, {"dim": 1, "points": [[0], [1]], "labels": {"a": 1, "b": 2}}),
    (jsonio.polytope_from_obj, {"dim": 2, "vertices": ["10", "01"]}),
    (jsonio.body_from_obj, {"dim": 2, "vertices": ["10", "01"]}),
    (jsonio.body_from_obj, {"dim": 2, "facets": [{"a": "10", "b": "1"}, {"a": ["0", "1"], "b": "1"}]}),
    (jsonio.partition_from_obj, {"classes": ["01"]}),
], ids=["points", "string labels", "object labels", "polytope vertices", "body vertices", "facet normal", "class"])
def test_a_string_is_not_read_as_a_list(parse, obj):
    # each of these was read one character per coordinate, index or label,
    # or one key per label
    with pytest.raises(InvalidInput, match="must be a JSON list"):
        parse(obj)


@pytest.mark.parametrize("parse, obj, field", [
    (jsonio.partition_from_obj, {"n_points": 3, "classes": [[0, 1.5], [2]]}, "a class index"),
    (jsonio.partition_from_obj, {"n_points": 3, "classes": [[0, True], [2]]}, "a class index"),
    (jsonio.partition_from_obj, {"n_points": 3, "classes": [[0, "1"], [2]]}, "a class index"),
    (jsonio.partition_from_obj, {"n_points": 2.9, "classes": [[0, 1], [2]]}, "n_points"),
    (jsonio.partition_from_obj, {"n_points": False, "classes": [[0]]}, "n_points"),
    (jsonio.pointset_from_obj, {"dim": 2.0, "points": [["1", "0"]]}, "dim"),
    (jsonio.polytope_from_obj, {"dim": True, "vertices": [["0"], ["1"]]}, "dim"),
    (jsonio.body_from_obj, {"dim": "2", "vertices": [["1", "0"], ["0", "1"]]}, "dim"),
], ids=[
    "class index float", "class index bool", "class index string", "n_points float", "n_points bool",
    "points dim float", "polytope dim bool", "body dim string",
])
def test_counts_and_indices_must_be_json_integers(parse, obj, field):
    # int() read each of these, truncating 1.5 to 1 and true to 1
    with pytest.raises(InvalidInput, match=f"^{field} must be a JSON integer"):
        parse(obj)


def test_partition_without_n_points_counts_its_indices():
    assert jsonio.partition_from_obj({"classes": [[0, 2], [1]]}).n_points == 3


def test_an_inline_point_must_be_a_list():
    with pytest.raises(InvalidInput, match="must be a JSON list"):
        jsonio.parse_rational_point('"11"')
