"""End-to-end CLI runs: JSON in, JSON/CSV/SVG out, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

from borsuk import jsonio
from borsuk.cli import cli_dispatch
from borsuk.errors import BorsukError
from borsuk.metric import gauge


@pytest.fixture
def cube2(tmp_path):
    body = tmp_path / "cube2.json"
    body.write_text(json.dumps({"dim": 2, "facets": [
        {"a": ["1", "0"], "b": "1"},
        {"a": ["0", "1"], "b": "1"},
    ]}))
    points = tmp_path / "cube2-vertices.json"
    points.write_text(json.dumps({"dim": 2, "points": [
        ["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"],
    ]}))
    return body, points


def run(argv, capsys):
    code = cli_dispatch([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_borsuk_cube(cube2, capsys):
    body, points = cube2
    code, out = run(["borsuk", "--body", body, "--points", points], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["number"] == 4
    assert obj["optimal"] is True
    assert obj["stats"]["time"] is None


def test_borsuk_with_timings(cube2, capsys):
    body, points = cube2
    code, out = run(["borsuk", "--body", body, "--points", points, "--timings"], capsys)
    assert code == 0
    assert json.loads(out)["stats"]["time"] is not None


def test_gauge_inline_point(cube2, capsys):
    body, _ = cube2
    code, out = run(["gauge", "--body", body, "--point", '["2","0"]', "--point", '["1/2","1/3"]'], capsys)
    assert code == 0
    assert json.loads(out)["values"] == ["2", "1/2"]


@pytest.mark.parametrize("body", [
    {"dim": 2, "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, -1]]},
    # no normals: each gauge is an LP
    {"dim": 4, "vertices": [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0],
                            [0, 0, -1, 0], [0, 0, 0, 1], [0, 0, 0, -1],
                            ["1/2", "1/2", "1/2", "1/3"], ["-1/2", "-1/2", "-1/2", "-1/3"]]},
])
def test_gauge_of_file_and_inline_points_matches_gauge_per_point(body, tmp_path, capsys):
    # the file's points and the --point texts are one table over a common
    # denominator; a point of another dimension is refused in order
    d = body["dim"]
    inline = [[str(Fraction(k, 3 + i)) for i in range(d)] for k in (-2, 5)]
    points = [["0"] * d, [str(Fraction(i + 1, 2 * i + 1)) for i in range(d)]] + inline
    C = jsonio.body_from_obj(body)
    body_path, points_path = tmp_path / "body.json", tmp_path / "points.json"
    body_path.write_text(json.dumps(body))
    points_path.write_text(json.dumps({"dim": d, "points": points[:2]}))
    argv = ["gauge", "--body", body_path, "--points", points_path]
    code, out = run([*argv, *(a for p in inline for a in ("--point", json.dumps(p)))], capsys)
    assert code == 0
    expected = [jsonio.format_rational(gauge(C, tuple(map(Fraction, p)))) for p in points]
    assert json.loads(out)["values"] == expected
    code = cli_dispatch([str(a) for a in argv] + ["--point", json.dumps(["1"] * (d + 1)), "--point", '["x"]'])
    assert code == 1 and capsys.readouterr().err == "error: not a rational number: 'x'\n"
    code = cli_dispatch([str(a) for a in argv] + ["--point", json.dumps(["1"] * (d + 1)), "--point", '["1"]'])
    assert code == 1 and capsys.readouterr().err == f"error: point of dim {d + 1} against body of dim {d}\n"


def test_diameter_graph(cube2, capsys):
    body, points = cube2
    code, out = run(["diameter", "--body", body, "--points", points], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["diameter"] == "2"
    assert len(obj["edges"]) == 6


def test_diffbody(tmp_path, capsys):
    poly = tmp_path / "triangle.json"
    poly.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}))
    code, out = run(["diffbody", "--polytope", poly], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 6


def test_lift_polytope_and_points(tmp_path, capsys):
    poly = tmp_path / "seg.json"
    poly.write_text(json.dumps({"dim": 1, "vertices": [["-1"], ["1"]]}))
    code, out = run(["lift", "--polytope", poly], capsys)
    assert code == 0
    assert json.loads(out)["body"]["dim"] == 2

    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"dim": 1, "points": [["0"], ["1"]]}))
    code, out = run(["lift", "--points", pts], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["points"]) == 4
    assert obj["labels"] == [[0, 1], [1, 1], [0, -1], [1, -1]]


def test_cover(tmp_path, capsys):
    poly = tmp_path / "sq.json"
    poly.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}))
    code, out = run(["cover", "--polytope", poly, "--ratio", "3/5", "--grid-step", "1/4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["centers"]) == 4
    assert obj["certificate_level"] == "sample_certified"


def test_bounds_csv_row_count(capsys):
    code, out = run(["bounds", "--n-max", "64", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,partition_bound,covering_bound,binomial_bound"
    assert len(lines) == 64  # header plus n = 2..64


def test_verify_suite_exit_zero(capsys):
    code, out = run(["verify", "--suite", "doubling", "--count", "3", "--seed", "7"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["checks_failed"] == 0


def test_plot2d(cube2, tmp_path, capsys):
    body, points = cube2
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"n_points": 4, "classes": [[0], [1], [2], [3]]}))
    out_file = tmp_path / "fig.svg"
    code, _ = run(["plot2d", "--body", body, "--points", points,
                   "--partition", part, "--out", out_file], capsys)
    assert code == 0
    data = out_file.read_bytes()
    assert data.startswith(b"<svg")
    # byte-identical on rerun
    code, _ = run(["plot2d", "--body", body, "--points", points,
                   "--partition", part, "--out", out_file], capsys)
    assert out_file.read_bytes() == data


def test_identical_invocations_identical_bytes(cube2, capsys):
    body, points = cube2
    _, out1 = run(["borsuk", "--body", body, "--points", points], capsys)
    _, out2 = run(["borsuk", "--body", body, "--points", points], capsys)
    assert out1 == out2
    _, v1 = run(["verify", "--suite", "grunbaum_plane", "--count", "2", "--seed", "3"], capsys)
    _, v2 = run(["verify", "--suite", "grunbaum_plane", "--count", "2", "--seed", "3"], capsys)
    assert v1 == v2


def test_domain_error_exits_one(tmp_path, capsys):
    poly = tmp_path / "sq.json"
    poly.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}))
    code = cli_dispatch(["lift"])  # neither --polytope nor --points
    assert code == 1
    code = cli_dispatch(["gauge", "--body", str(poly)])  # triangle-ish: no point given either
    assert code == 1


def test_missing_file_exits_one(capsys):
    code = cli_dispatch(["diffbody", "--polytope", "/nonexistent.json"])
    assert code == 1


def test_usage_error_exits_two(capsys):
    assert cli_dispatch(["borsuk"]) == 2  # missing required arguments
    assert cli_dispatch(["frobnicate"]) == 2
    assert cli_dispatch(["verify", "--suite", "unknown-name"]) == 2


def test_invalid_body_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}))
    code = cli_dispatch(["gauge", "--body", str(bad), "--point", '["1","1"]'])
    assert code == 1


@pytest.mark.parametrize("count", ["0", "-3", "x"])
def test_verify_count_below_one_is_usage_error(count, capsys):
    assert cli_dispatch(["verify", "--suite", "doubling", "--count", count]) == 2
    assert capsys.readouterr().out == ""


def test_bad_node_budget_env_exits_one(cube2, monkeypatch, capsys):
    body, points = cube2
    monkeypatch.setenv("BORSUK_NODE_BUDGET", "abc")
    assert cli_dispatch(["borsuk", "--body", str(body), "--points", str(points)]) == 1
    assert "BORSUK_NODE_BUDGET" in capsys.readouterr().err


SQUARE = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}
CUBE2_BODY = {"dim": 2, "facets": [{"a": ["1", "0"], "b": "1"}, {"a": ["0", "1"], "b": "1"}]}

# sets that are no symmetric body with the origin interior, and the one
# error line each is refused with, as it is parsed
REFUSED_BODIES = {
    "asymmetric triangle": (
        {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]},
        "vertex (1, 0) has no mirror (-1, 0)",
    ),
    "planar segment": (
        {"dim": 2, "vertices": [[-1, 0], [1, 0]]},
        "origin is not interior (body not full-dimensional)",
    ),
    "strip": (
        {"dim": 2, "facets": [{"a": [1, 0], "b": 1}]},
        "facet normals do not span the space (unbounded)",
    ),
    "4D segment": (
        {"dim": 4, "vertices": [[1, 0, 0, 0], [-1, 0, 0, 0]]},
        "origin is not interior (body not full-dimensional)",
    ),
    "facet offset 0": (
        {"dim": 2, "facets": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 1}]},
        "facet offset 0 is not strictly positive",
    ),
}


def _bad_input_argv(case, tmp_path):
    body = tmp_path / "body.json"
    body.write_text(json.dumps(CUBE2_BODY))
    square = tmp_path / "square.json"
    square.write_text(json.dumps(SQUARE))
    bad = tmp_path / "bad.json"
    points = ["--body", body, "--points", bad]
    if case == "malformed json":
        bad.write_text('{"dim": 2, "points": [["1", "1"],')
        return ["borsuk", *points]
    if case == "json nested too deep":
        bad.write_text("[" * 100000 + "]" * 100000)
        return ["borsuk", *points]
    if case == "infinite dim":
        bad.write_text('{"dim": 1e400, "points": [["1", "1"]]}')
        return ["borsuk", *points]
    if case == "missing dim":
        bad.write_text(json.dumps({"points": [["1", "1"], ["0", "0"]]}))
        return ["borsuk", *points]
    if case == "bad rational":
        bad.write_text(json.dumps({"dim": 2, "points": [["1", "x"], ["0", "0"]]}))
        return ["borsuk", *points]
    if case == "duplicate points":
        bad.write_text(json.dumps({"dim": 2, "points": [["1", "1"], ["0", "0"], ["1", "1"]]}))
        return ["borsuk", *points]
    if case == "one point of another dim":
        bad.write_text(json.dumps({"dim": 3, "points": [[0, 0, 0]]}))
        return ["borsuk", *points]
    if case == "bad inline point":
        return ["gauge", "--body", body, "--point", '["1", "x"]']
    if case == "string points":
        bad.write_text(json.dumps({"dim": 2, "points": ["10", "01"]}))
        return ["borsuk", *points]
    if case in ("string labels", "object labels"):
        # each was read one character or key per label
        labels = "ab" if case == "string labels" else {"a": 1, "b": 2}
        bad.write_text(json.dumps({"dim": 1, "points": [[0], [1]], "labels": labels}))
        return ["lift", "--points", bad]
    if case == "string inline point":
        return ["gauge", "--body", body, "--point", '"11"']
    if case == "string facet normal":
        body.write_text(json.dumps({"dim": 2, "facets": [{"a": "10", "b": "1"}, {"a": ["0", "1"], "b": "1"}]}))
        return ["gauge", "--body", body, "--point", '["1", "1"]']
    if case == "string class":
        bad.write_text(json.dumps({"dim": 2, "points": [["1", "0"], ["0", "1"]]}))
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps({"classes": ["01"]}))
        return ["plot2d", *points, "--partition", partition]
    if case == "fractional class index":
        bad.write_text(json.dumps({"dim": 2, "points": [["1", "0"], ["0", "1"], ["0", "0"]]}))
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps({"n_points": 3, "classes": [[0, 1.5], [2]]}))
        return ["plot2d", *points, "--partition", partition]
    if case == "partition for another set":
        # the partition's own count, not the set's, says which set it is for
        bad.write_text(json.dumps({"dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}))
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps({"n_points": 99, "classes": [[0], [1], [2], [3]]}))
        return ["plot2d", *points, "--partition", partition]
    if case == "ratio abc":
        return ["cover", "--polytope", square, "--ratio", "abc", "--grid-step", "1/4"]
    if case == "ratio 2":
        return ["cover", "--polytope", square, "--ratio", "2", "--grid-step", "1/4"]
    if case == "grid step 0":
        return ["cover", "--polytope", square, "--ratio", "3/5", "--grid-step", "0"]
    if case == "grid step too fine":
        segment = tmp_path / "segment.json"
        segment.write_text(json.dumps({"dim": 1, "vertices": [["0"], ["1"]]}))
        return ["cover", "--polytope", segment, "--ratio", "1/2", "--grid-step", "1e-30"]
    if case == "grid step too fine in the plane":
        # the lattice count has more digits than str(int) will write
        triangle = tmp_path / "triangle.json"
        triangle.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}))
        return ["cover", "--polytope", triangle, "--ratio", "1/2", "--grid-step", "1e-3000"]
    if case == "grid pairs too many":
        # each grid is under MAX_GRID_POINTS, but their 1.3e9 pairs are not
        return ["cover", "--polytope", square, "--ratio", "3/5", "--grid-step", "1/150"]
    if case == "bounds past double range":
        return ["bounds", "--n-max", "2000"]
    if case == "bounds range empty":
        return ["bounds", "--n-min", "5", "--n-max", "3"]
    if case == "body with vertices and facets":
        body.write_text(json.dumps({"dim": 2, "vertices": [[1, 0], [-1, 0], [0, 1], [0, -1]], "facets": []}))
        return ["gauge", "--body", body, "--point", '["1","1"]']
    if case == "body without vertices":
        body.write_text(json.dumps({"dim": 2, "vertices": []}))
        return ["gauge", "--body", body, "--point", '["1","1"]']
    if case == "zero-dimensional points":
        bad.write_text(json.dumps({"dim": 0, "points": [[]]}))
        return ["lift", "--points", bad]
    if case in REFUSED_BODIES:
        obj, _ = REFUSED_BODIES[case]
        body.write_text(json.dumps(obj))
        return ["gauge", "--body", body, "--point", json.dumps(["1"] * obj["dim"])]
    if case == "result too long to write":
        # each input is printable, the gauge 10**8000 is not
        thin = {"dim": 2, "facets": [{"a": ["1", "0"], "b": "1e-4000"}, {"a": ["0", "1"], "b": "1"}]}
        body.write_text(json.dumps(thin))
        return ["gauge", "--body", body, "--point", '["1e4000","0"]']
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "malformed json", "json nested too deep", "infinite dim", "missing dim", "bad rational", "duplicate points",
    "one point of another dim", "bad inline point",
    "string points", "string labels", "object labels", "string inline point", "string facet normal", "string class", "fractional class index",
    "partition for another set",
    "ratio abc", "ratio 2", "grid step 0", "grid step too fine", "grid step too fine in the plane", "grid pairs too many",
    "bounds past double range", "bounds range empty", "body with vertices and facets", "body without vertices",
    "zero-dimensional points",
    "result too long to write", *REFUSED_BODIES,
])
def test_bad_input_is_an_error_line_not_a_traceback(case, tmp_path, capsys):
    # an uncaught exception would escape cli_dispatch and fail the test
    code = cli_dispatch([str(a) for a in _bad_input_argv(case, tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if case in REFUSED_BODIES:
        obj, line = REFUSED_BODIES[case]
        assert captured.err == f"error: {line}\n"
        # the body is certified as it is parsed, before any command reads it
        with pytest.raises(BorsukError) as refused:
            jsonio.body_from_obj(obj)
        assert str(refused.value) == line


@pytest.mark.parametrize("exponent", ["1e999999999", "1e-999999999"])
def test_huge_decimal_exponent_is_an_error_line(exponent, tmp_path, capsys):
    # parsing must refuse these at once, not build 10**999999999
    body = tmp_path / "body.json"
    body.write_text(json.dumps(CUBE2_BODY))
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"dim": 2, "points": [[exponent, "1"], ["0", "0"]]}))
    square = tmp_path / "square.json"
    square.write_text(json.dumps(SQUARE))
    for argv in (
        ["borsuk", "--body", body, "--points", points],
        ["cover", "--polytope", square, "--ratio", exponent, "--grid-step", "1/4"],
        ["cover", "--polytope", square, "--ratio", "3/5", "--grid-step", exponent],
    ):
        code = cli_dispatch([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_repeated_dispatch_keeps_no_state(cube2, capsys):
    # one parser serves every call: neither a usage error nor an appended
    # --point may leave anything behind for the next call
    body, points = cube2
    assert cli_dispatch(["borsuk"]) == 2
    capsys.readouterr()
    first = run(["borsuk", "--body", body, "--points", points], capsys)
    assert first[0] == 0
    gauge_argv = ["gauge", "--body", body, "--point", '["2","0"]', "--point", '["1/2","1/3"]']
    outputs = [run(gauge_argv, capsys) for _ in range(2)]
    assert outputs[0] == outputs[1] == (0, jsonio.dumps({"values": ["2", "1/2"]}))
    assert run(["borsuk", "--body", body, "--points", points], capsys) == first
