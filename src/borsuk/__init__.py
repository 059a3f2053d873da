"""Exact-arithmetic toolkit for partition numbers in polytopal norm spaces.

Core objects: symmetric convex polytopes as unit balls (gauge norms),
finite rational point sets, their exact diameter graphs, and partition
numbers computed as chromatic numbers. Constructions: Minkowski sums,
difference bodies, symmetric dimension lifting, and greedy coverings by
smaller homothets. Everything geometric is exact; floating point only
appears in the closed-form bound formulas and SVG coordinates.
"""

from .bodies import (
    PointSet,
    SymmetricBody,
    VPolytope,
    body_from_facets,
    body_from_vertices,
    difference_body,
    lift_body,
    lift_set,
    minkowski_sum,
    point_set,
    prune_redundant,
    vpolytope,
)
from .covering import (
    BoundValue,
    Covering,
    binomial_bound,
    bounds_table,
    cover_to_partition,
    covering_bound,
    greedy_cover,
    partition_bound,
)
from .errors import (
    BorsukError,
    DegenerateBody,
    DimensionMismatch,
    DimensionUnsupported,
    DomainError,
    GenerationFailed,
    GridTooCoarse,
    IndexOutOfRange,
    InvalidInput,
    NotSymmetric,
    PointUncovered,
    UnknownSuite,
)
from .generators import (
    cross_polytope_body,
    cube_body,
    cube_vertices,
    gen_random_body,
    gen_random_points,
    gen_random_polytope,
    parallelogram_body,
)
from .metric import (
    DiameterGraph,
    body_contains,
    diameter_graph,
    distance,
    gauge,
    polytope_diameter,
    set_diameter,
)
from .partition import (
    BorsukCertificate,
    Partition,
    borsuk_number,
    chromatic_number,
    doubling_check,
    lift_partition,
    verify_partition,
)
from .svgplot import plot2d_svg, render_svg
from .verify import SUITES, VerificationReport, run_verify_suite

__version__ = "0.1.0"

__all__ = [
    # bodies
    "PointSet", "SymmetricBody", "VPolytope", "body_from_facets", "body_from_vertices",
    "difference_body", "lift_body", "lift_set", "minkowski_sum", "point_set", "prune_redundant",
    "vpolytope",
    # covering
    "BoundValue", "Covering", "binomial_bound", "bounds_table", "cover_to_partition",
    "covering_bound", "greedy_cover", "partition_bound",
    # errors
    "BorsukError", "DegenerateBody", "DimensionMismatch", "DimensionUnsupported", "DomainError",
    "GenerationFailed", "GridTooCoarse", "IndexOutOfRange", "InvalidInput", "NotSymmetric",
    "PointUncovered", "UnknownSuite",
    # generators
    "cross_polytope_body", "cube_body", "cube_vertices", "gen_random_body", "gen_random_points",
    "gen_random_polytope", "parallelogram_body",
    # metric
    "DiameterGraph", "body_contains", "diameter_graph", "distance", "gauge", "polytope_diameter",
    "set_diameter",
    # partition
    "BorsukCertificate", "Partition", "borsuk_number", "chromatic_number", "doubling_check",
    "lift_partition", "verify_partition",
    # svgplot
    "plot2d_svg", "render_svg",
    # verify
    "SUITES", "VerificationReport", "run_verify_suite",
]
