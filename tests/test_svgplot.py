"""SVG emission: determinism, golden bytes, coloring, guard rails."""

import random
from fractions import Fraction as F

import pytest

from borsuk.bodies import SymmetricBody, body_from_facets, body_from_vertices, point_set
from borsuk.errors import DegenerateBody, DimensionUnsupported
from borsuk.generators import gen_random_body
from borsuk.partition import borsuk_number, partition
from borsuk.svgplot import _outline_vertices, plot2d_svg, render_svg
from oracles import counter_clockwise, outline_by_facet_crossings


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


def _random_facet_body(rng):
    # two to five random facets, often with a redundant one: far out, or
    # the sum of two others, which touches the polygon where both do
    while True:
        facets = [
            ((F(rng.randint(-6, 6), rng.randint(1, 4)), F(rng.randint(-6, 6), rng.randint(1, 4))),
             F(rng.randint(1, 8), rng.randint(1, 3)))
            for _ in range(rng.randint(2, 5))
        ]
        if rng.random() < 0.5:
            (a1, b1), (a2, b2) = rng.sample(facets, 2)
            facets.append(((a1[0] + a2[0], a1[1] + a2[1]), b1 + b2 + rng.choice((0, 1))))
        try:
            return body_from_facets(facets)
        except DegenerateBody:
            continue


def _random_vertex_body(rng, seed):
    # a random polygon given with the midpoints of its edges and an inner
    # point, which are no corners
    # the generated body's vertices are those of its pruned points
    hull = counter_clockwise(gen_random_body(seed, 2, 2 + seed % 5, max_numerator=9, max_denominator=6).vertices)
    extra = [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in zip(hull, hull[1:] + hull[:1])]
    extra.append(tuple(c / 3 for c in hull[0]))
    points = set(hull) | set(extra) | {tuple(-c for c in p) for p in extra}
    return body_from_vertices(sorted(points))


def test_outline_matches_facet_crossings():
    # the outline read from the normals is the one of the hull's vertices
    # or of the facet lines' crossings, order included
    square = [((1, 0), 1), ((0, 1), 1)]
    named = [
        body_from_facets(square + [((1, 1), 3)]),  # redundant
        body_from_facets(square + [((1, 1), 2)]),  # touches at (1, 1) only
        body_from_facets([((1, 0), 1), ((2, 0), 2), ((0, 1), 1)]),  # one facet twice
        body_from_facets([((1, 0), 1), ((0, 2), 2), ((1, 1), "3/2"), ((1, -1), 3), ((1, -2), 3)]),
        body_from_vertices([(1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1)]),
        body_from_vertices([(2, 1), (1, 1), (0, 1), (-1, 0), (-2, -1), (-1, -1), (0, -1), (1, 0)]),
    ]
    rng = random.Random(20261019)
    bodies = named + [gen_random_body(seed, 2, 2 + seed % 6) for seed in range(100)]
    bodies += [_random_vertex_body(rng, seed) for seed in range(50)]
    bodies += [_random_facet_body(rng) for _ in range(160)]
    for C in bodies:
        assert _outline_vertices(C) == outline_by_facet_crossings(C), C
    assert sum(C.facets is not None for C in bodies) >= 150 and len(bodies) >= 300


def test_rejects_non_planar():
    from borsuk.generators import cube_body, cube_vertices

    C = cube_body(3)
    S = cube_vertices(3)
    with pytest.raises(DimensionUnsupported):
        render_svg(C, S, partition(8, [tuple(range(8))]))


def test_rejects_unvalidated_bodies():
    # a facet body whose normals do not span, and a segment, are no bodies:
    # each is refused as it is made, so none reaches the plot
    with pytest.raises(DegenerateBody, match="do not span"):
        SymmetricBody(2, facets=(((F(1), F(0)), F(1)),))
    with pytest.raises(DegenerateBody, match="^origin is not interior"):
        SymmetricBody(2, vertices=((F(-1), F(0)), (F(1), F(0))))


def test_rejects_mismatched_partition():
    C, S, _ = _square_instance()
    with pytest.raises(ValueError):
        render_svg(C, S, partition(3, [(0, 1, 2)]))
