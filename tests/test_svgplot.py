"""SVG emission: determinism, golden bytes, coloring, guard rails."""

import pytest

from borsuk.bodies import body_from_facets, body_from_vertices, point_set, vpolytope
from borsuk.errors import DimensionUnsupported
from borsuk.partition import borsuk_number, partition
from borsuk.svgplot import _outline_vertices, plot2d_svg, render_svg


def _square_instance():
    C = body_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    S = point_set([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    return C, S, borsuk_number(C, S).partition


def test_render_is_deterministic():
    C, S, P = _square_instance()
    assert render_svg(C, S, P) == render_svg(C, S, P)


def test_square_matches_golden(tmp_path, golden_path):
    C, S, P = _square_instance()
    out = tmp_path / "square.svg"
    plot2d_svg(C, S, P, str(out))
    assert out.read_bytes() == (golden_path / "square_partition.svg").read_bytes()


def test_hexagon_instance_uses_three_colors(hexagon_v, triangle):
    S = point_set(triangle.vertices)
    cert = borsuk_number(hexagon_v, S)
    assert cert.number == 3
    svg = render_svg(hexagon_v, S, cert.partition)
    fills = {
        line.split('fill="')[1].split('"')[0]
        for line in svg.splitlines()
        if line.startswith("<circle")
    }
    assert len(fills) == 3


def test_facet_body_outline(square_h):
    S = point_set([(0, 0), (1, 0)])
    svg = render_svg(square_h, S, partition(2, [(0,), (1,)]))
    # the four corners of the facet square must appear as the outline
    assert '<polygon points="' in svg
    ring = svg.split('<polygon points="')[1].split('"')[0]
    assert len(ring.split(" ")) == 4


def test_unpruned_vertex_body_draws_its_hull():
    # inner points of the vertex list are no corners of the unit ball, and
    # the outline is the one of the pruned square
    C = body_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1), ("1/2", "0"), ("-1/2", "0")])
    square, S, P = _square_instance()
    assert _outline_vertices(C) == [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    assert render_svg(C, S, P) == render_svg(square, S, P)


def test_rejects_non_planar():
    from borsuk.generators import cube_body, cube_vertices

    C = cube_body(3)
    S = cube_vertices(3)
    with pytest.raises(DimensionUnsupported):
        render_svg(C, S, partition(8, [tuple(range(8))]))


def test_rejects_mismatched_partition():
    C, S, _ = _square_instance()
    with pytest.raises(ValueError):
        render_svg(C, S, partition(3, [(0, 1, 2)]))
