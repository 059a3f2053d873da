"""Deterministic SVG figures for planar instances.

Floating point is confined to coordinate emission; the geometry that
decides what gets drawn (outline vertices, diameter edges, class
membership) is exact. Byte output is reproducible: fixed palette,
fixed decimal formatting, no timestamps.
"""

from __future__ import annotations

from functools import cmp_to_key

from .bodies import PointSet, SymmetricBody
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


def _half(v) -> int:
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angular_sort(vectors):
    """Counterclockwise order around the origin, exact comparisons only."""

    def compare(a, b):
        ha, hb = _half(a), _half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        # outline points lie on the boundary of a body with the origin
        # interior, so no two share a ray
        cross = a[0] * b[1] - a[1] * b[0]
        return (cross < 0) - (cross > 0)

    return sorted(vectors, key=cmp_to_key(compare))


def _outline_vertices(C: SymmetricBody):
    if C.vertices is not None:
        # the hull drops inner points and collinear boundary points, which
        # would dent the outline or add corners that are none
        return _angular_sort(C.hull.vertices)
    # planar facet body: intersect facet lines pairwise and keep the
    # feasible intersection points (2D only; this is not a general
    # representation converter)
    lines = []
    for a, b in C.facets:
        lines.append((a, b))
        lines.append((a, -b))
    pts = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (a1, b1), (a2, b2) = lines[i], lines[j]
            det = a1[0] * a2[1] - a1[1] * a2[0]
            if det == 0:
                continue
            x = (b1 * a2[1] - b2 * a1[1]) / det
            y = (a1[0] * b2 - a2[0] * b1) / det
            p = (x, y)
            if all(abs(a[0] * x + a[1] * y) <= b for a, b in C.facets):
                pts.add(p)
    return _angular_sort(pts)


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
