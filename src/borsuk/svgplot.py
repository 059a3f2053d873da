"""Deterministic SVG figures for planar instances.

Floating point is confined to coordinate emission; the geometry that
decides what gets drawn (outline vertices, diameter edges, class
membership) is exact. Byte output is reproducible: fixed palette,
fixed decimal formatting, no timestamps. The outline of the unit ball
is read from the body's certified normals, whichever form it was given
in.
"""

from __future__ import annotations

from fractions import Fraction

from .bodies import PointSet, SymmetricBody, integer_hull
from .errors import DimensionUnsupported, InvalidInput
from .metric import diameter_graph
from .partition import Partition

PALETTE = (
    "#e41a1c",
    "#377eb8",
    "#4daf4a",
    "#984ea3",
    "#ff7f00",
    "#a65628",
    "#f781bf",
    "#999999",
    "#66c2a5",
    "#ffd92f",
)

_CANVAS_W = 500
_CANVAS_H = 420
_PLOT = (10.0, 10.0, 400.0, 400.0)  # x, y, w, h


def _outline_vertices(C: SymmetricBody):
    """The corners of the planar unit ball, by increasing angle in
    [0, 2 pi).

    By polar duality (Ziegler, *Lectures on Polytopes*, 1995, ch. 2)
    C = {x : N_k . x <= L} has one corner ``L * n / c`` for each edge
    ``n . Y <= c`` of the hull of its normals N_k; the normals of
    redundant facets fall inside that hull or on an edge, and give none.
    The normals are certified to span the plane (``DegenerateBody``
    otherwise), so the origin is inside their hull and every c is
    positive. The edges run counter-clockwise from the least normal, so
    the first corner lies below the x-axis, and the first one after it
    not below has an angle in [0, pi): the ring is rotated to start there.
    """
    L, normals = C.normals
    planes = integer_hull(1, normals).planes
    ring = [(Fraction(L * a, c), Fraction(L * b, c)) for (a, b), c in planes]
    start = next(i for i, (_, y) in enumerate(ring) if y >= 0)
    return ring[start:] + ring[:start]


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def render_svg(C: SymmetricBody, S: PointSet, P: Partition) -> str:
    """Unit-ball outline, diameter-graph edges, and class-colored points."""
    if C.dim != 2 or S.dim != 2:
        raise DimensionUnsupported("plotting is implemented for dimension 2 only")
    if P.n_points != len(S.points):
        raise InvalidInput("partition does not match the point set")

    outline = _outline_vertices(C)
    xs = [float(v[0]) for v in outline] + [float(p[0]) for p in S.points]
    ys = [float(v[1]) for v in outline] + [float(p[1]) for p in S.points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9) * 1.15
    cx, cy = (lo_x + hi_x) / 2, (lo_y + hi_y) / 2
    px, py, pw, ph = _PLOT
    scale = min(pw, ph) / span

    def to_svg(point):
        x = px + pw / 2 + (float(point[0]) - cx) * scale
        y = py + ph / 2 - (float(point[1]) - cy) * scale
        return x, y

    color_of_point = {}
    for k, cls in enumerate(P.classes):
        for idx in cls:
            color_of_point[idx] = PALETTE[k % len(PALETTE)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W}" '
        f'height="{_CANVAS_H}" viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect x="0" y="0" width="{_CANVAS_W}" height="{_CANVAS_H}" fill="#ffffff"/>',
    ]

    ring = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (to_svg(v) for v in outline))
    parts.append(f'<polygon points="{ring}" fill="none" stroke="#333333" stroke-width="1.5"/>')

    if len(S.points) >= 2:
        graph = diameter_graph(C, S)
        for i, j in graph.edges:
            x1, y1 = to_svg(S.points[i])
            x2, y2 = to_svg(S.points[j])
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="#c8c8c8" stroke-width="1"/>'
            )

    for idx, p in enumerate(S.points):
        x, y = to_svg(p)
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.5" fill="{color_of_point[idx]}" '
            f'stroke="#222222" stroke-width="0.8"/>'
        )

    legend_x = px + pw + 16
    legend_y = 24.0
    for k, cls in enumerate(P.classes):
        color = PALETTE[k % len(PALETTE)]
        parts.append(
            f'<rect x="{_fmt(legend_x)}" y="{_fmt(legend_y - 9)}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + 18)}" y="{_fmt(legend_y + 2)}" '
            f'font-family="monospace" font-size="12">class {k} ({len(cls)} pts)</text>'
        )
        legend_y += 20
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot2d_svg(C: SymmetricBody, S: PointSet, P: Partition, path: str) -> None:
    """Render and write the figure; byte-identical for equal inputs."""
    data = render_svg(C, S, P)
    with open(path, "wb") as fh:
        fh.write(data.encode("utf-8"))
