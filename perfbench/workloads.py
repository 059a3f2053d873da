"""Seeded inputs for the four benchmark workloads, one runner each, and
the check applied to every output.

The workload seed only picks inputs; borsuk receives the generated
inputs (for the verify suites, their argv, whose ``--seed`` is the
suite's own input). Every call into borsuk goes through a module
attribute, so that the tracing wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import borsuk  # noqa: E402

if Path(borsuk.__file__).resolve().parent != SRC / "borsuk":
    raise ImportError(f"borsuk was imported from {borsuk.__file__}, not from {SRC}")

bodies = importlib.import_module("borsuk.bodies")
cli = importlib.import_module("borsuk.cli")
covering = importlib.import_module("borsuk.covering")
jsonio = importlib.import_module("borsuk.jsonio")
metric = importlib.import_module("borsuk.metric")
partition = importlib.import_module("borsuk.partition")

class CheckFailed(Exception):
    """A request finished but its output is wrong."""


@dataclass(frozen=True)
class Request:
    inputs: dict  # JSON form, written to the input file
    args: tuple = field(repr=False)  # the same inputs as runtime objects


@dataclass(frozen=True)
class KnownDefect:
    """An input that fails at the seed commit. It runs once per run, outside
    the timed requests, so the defect stays visible without counting as a
    failed operation; once fixed, its output gets the workload's check."""

    request: Request
    error: type  # the exception it fails with; any other is unexpected
    why: str


@dataclass(frozen=True)
class Workload:
    make_pool: object  # (rng) -> list[Request]; the run cycles through it
    execute: object  # (Request, out_path) -> raw result; the timed call
    check: object  # (Request, raw result, out_path) -> (units, output bytes)
    trace_requests: int  # fixed prefix used by the traced run and the digest
    round_size: int = 1  # the timed loop ends on a whole round of the pool's mix
    known_defect: object = None  # (rng) -> KnownDefect, for a workload that has one


# --- verify suites through the CLI (doubling, plane) -----------------------

SUITE_POOL = 200


def _suite_pool(suite, count):
    def make(rng):
        pool = []
        for _ in range(SUITE_POOL):
            argv = ("verify", "--suite", suite, "--count", str(count), "--seed", str(rng.randrange(2**31)))
            pool.append(Request({"argv": list(argv)}, argv))
        return pool

    return make


def _execute_suite(req, out_path):
    return cli.cli_dispatch(list(req.args) + ["--out", str(out_path)])


def _check_suite(req, code, out_path):
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    data = Path(out_path).read_bytes()
    report = json.loads(data)
    argv = req.args
    suite, count, seed = argv[2], int(argv[4]), int(argv[6])
    if (report["suite"], report["count"], report["seed"]) != (suite, count, seed):
        raise CheckFailed("report is for another request")
    if report["checks_failed"] or report["failures"]:
        raise CheckFailed(f"{report['checks_failed']} checks failed")
    if report["instances_run"] != count or report["checks_passed"] < count:
        raise CheckFailed(f"{report['instances_run']} of {count} instances ran")
    return count, data


# --- covering pipelines (cover) -------------------------------------------

COVER_ROUNDS = 10
COVER_SQUARES = 5
COVER_RATIO = Fraction(3, 5)
UNIT_SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))
UNIT_SIMPLEX = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
UNIT_CUBE = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))


def _cover_request(vertices, step, diff_cache):
    """K has a vertex at the origin, so each lattice witness w is covered by
    the translate centred at w itself and the greedy cover never fails."""
    K = bodies.vpolytope(vertices)
    key = K.vertices
    if key not in diff_cache:
        diff_cache[key] = bodies.difference_body(K)
    inputs = {
        "polytope": jsonio.polytope_to_obj(K),
        "ratio": str(COVER_RATIO),
        "grid_step": str(step),
    }
    return Request(inputs, (K, COVER_RATIO, step, diff_cache[key]))


GRID = tuple((x, y) for x in range(3) for y in range(3))
SEEDED_POLYGONS = 4


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_convex_position(points):
    """No point of the four lies on a line through two others or inside the
    triangle of the other three."""
    for i, p in enumerate(points):
        a, b, c = (q for j, q in enumerate(points) if j != i)
        crosses = (_cross(a, b, p), _cross(b, c, p), _cross(c, a, p))
        if 0 in crosses or len({x > 0 for x in crosses}) == 1:
            return False
    return True


def _seeded_quadrilaterals(rng):
    """SEEDED_POLYGONS distinct quadrilaterals with vertices in {0..2}^2,
    each shifted so its least vertex is the origin. Every seed gives the
    same number of polygons with the same vertex count, so set-up builds
    the same number of difference bodies of the same candidate count."""
    found = []
    while len(found) < SEEDED_POLYGONS:
        points = rng.sample(GRID, 4)
        if not _in_convex_position(points):
            continue
        v0 = min(points)
        shape = tuple(sorted((x - v0[0], y - v0[1]) for x, y in points))
        if shape not in found:
            found.append(shape)
    return found


def _cover_pool(rng):
    """Rounds of eight pipelines: five unit squares, the simplex, the cube
    and one seeded quadrilateral. The simplex and the cube cost more than
    any planar pipeline, so the median request is a unit square whichever
    quadrilaterals the seed draws. The quadrilaterals' cost varies by up to
    5x with their shape, so they are kept to one pipeline in eight, about
    4% of a round's LP work; the seed then moves a run's throughput by at
    most about 3%."""
    diff_cache = {}
    quads = _seeded_quadrilaterals(rng)
    pool = []
    for r in range(COVER_ROUNDS):
        for _ in range(COVER_SQUARES):
            pool.append(_cover_request(UNIT_SQUARE, Fraction(1, 4), diff_cache))
        pool.append(_cover_request(UNIT_SIMPLEX, Fraction(1, 3), diff_cache))
        pool.append(_cover_request(UNIT_CUBE, Fraction(1, 2), diff_cache))
        pool.append(_cover_request(quads[r % len(quads)], Fraction(1, 2), diff_cache))
    return pool


def _execute_cover(req, out_path):
    K, ratio, step, D = req.args
    cov = covering.greedy_cover(K, ratio, step)
    S = bodies.point_set(cov.witnesses)
    P = covering.cover_to_partition(S, cov, D)
    return cov, S, P, partition.verify_partition(D, S, P)


def _check_cover(req, result, out_path):
    cov, S, P, verified = result
    if not verified:
        raise CheckFailed("covering partition does not verify")
    assigned = sorted(i for cls in P.classes for i in cls)
    if P.n_points != len(S.points) or assigned != list(range(len(S.points))):
        raise CheckFailed("not every witness point is assigned exactly once")
    if not set(req.args[0].vertices) <= set(cov.witnesses):
        raise CheckFailed("witnesses miss a vertex of K")
    obj = {"covering": jsonio.covering_to_obj(cov), "classes": [list(c) for c in P.classes]}
    return 1, jsonio.dumps(obj).encode()


# --- chromatic branch and bound (coloring) ---------------------------------

COLORING_ROUNDS = 8
DEFAULT_BUDGET = 10_000_000
M6_BUDGET = 13_000  # about the time of the trap padded to 800 vertices
# G(80, 0.1) needs a median of about 800 nodes but has a long tail (7300 at
# the 95th percentile, 26000 at most over 120 draws), so one hard draw
# could move a run's throughput by several percent. Under this cap about a
# quarter of the draws return an honest non-optimal certificate, and none
# costs more than the padded trap or M6, so the median request stays one
# of those.
RANDOM_GRAPH_BUDGET = 2_000
# 8 vertices, chromatic number 3, on which the DSATUR greedy colouring
# uses 4 colours, so the branch and bound has to run.
DSATUR_TRAP = ((0, 2), (0, 3), (0, 4), (0, 7), (1, 3), (1, 5), (1, 6), (2, 3), (2, 7), (4, 5), (4, 6), (5, 6))
TRAP_SIZE = 8
RECURSION_DEFECT = (
    "RecursionError: the recursive branch and bound descends once per vertex, "
    "past about 1000 vertices at the seed commit (ROADMAP item 4)"
)


def mycielski(k):
    """Mycielski graph M_k (M_2 = K_2): triangle-free with chromatic number k."""
    n, edges = 2, {(0, 1)}
    for _ in range(k - 2):
        grown = set(edges)
        for i, j in edges:
            grown.add((i, n + j))
            grown.add((j, n + i))
        grown.update((n + i, 2 * n) for i in range(n))
        n, edges = 2 * n + 1, {(min(e), max(e)) for e in grown}
    return n, tuple(sorted(edges))


def join(g, h):
    """Every vertex of g joined to every vertex of h; chi adds up."""
    (ng, eg), (nh, eh) = g, h
    edges = list(eg) + [(i + ng, j + ng) for i, j in eh]
    edges += [(i, ng + j) for i in range(ng) for j in range(nh)]
    return ng + nh, tuple(sorted(edges))


def relabel(graph, rng):
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, tuple(sorted((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges))


def gnp(n, p, rng):
    return n, tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)


def _coloring_request(kind, graph, budget, chi):
    n, edges = graph
    inputs = {"kind": kind, "n": n, "edges": [list(e) for e in edges], "node_budget": budget, "chi": chi}
    return Request(inputs, (n, edges, budget, chi))


def _coloring_pool(rng):
    """Rounds of fourteen graphs. Nine of them, the trap padded to about 800
    vertices and M6 under a node budget, are fixed work of about the same
    cost and fill the middle of a round's latencies, so the median request
    is one of them whichever random graphs the seed draws."""
    m4, m5, m6 = mycielski(4), mycielski(5), mycielski(6)
    pool = []
    for _ in range(COLORING_ROUNDS):
        pool.append(_coloring_request("M4", relabel(m4, rng), DEFAULT_BUDGET, 4))
        pool.append(_coloring_request("M5", relabel(m5, rng), DEFAULT_BUDGET, 5))
        pool.append(_coloring_request("M4+M4", relabel(join(m4, m4), rng), DEFAULT_BUDGET, 8))
        for _ in range(2):
            pool.append(_coloring_request("G(80,0.1)", gnp(80, 0.1, rng), RANDOM_GRAPH_BUDGET, None))
        for _ in range(4):
            size = TRAP_SIZE + 800 + rng.randint(0, 10)
            pool.append(_coloring_request("trap+isolated", (size, DSATUR_TRAP), DEFAULT_BUDGET, 3))
            pool.append(_coloring_request("M6", relabel(m6, rng), M6_BUDGET, 6))
        pool.append(_coloring_request("M6", relabel(m6, rng), M6_BUDGET, 6))
    return pool


def _coloring_defect(rng):
    size = TRAP_SIZE + 1100 + rng.randint(0, 20)
    request = _coloring_request("trap+isolated", (size, DSATUR_TRAP), DEFAULT_BUDGET, 3)
    return KnownDefect(request, RecursionError, RECURSION_DEFECT)


def _execute_coloring(req, out_path):
    n, edges, budget, _ = req.args
    return partition.chromatic_number(metric.DiameterGraph(n, Fraction(1), edges), budget)


def check_coloring(n, edges, cert, chi):
    """Independent check of a colouring certificate against its graph."""
    colour = {}
    for c, cls in enumerate(cert.partition.classes):
        for v in cls:
            if v in colour or not 0 <= v < n:
                raise CheckFailed(f"vertex {v} is out of range or coloured twice")
            colour[v] = c
    if len(colour) != n:
        raise CheckFailed("some vertex is uncoloured")
    if any(colour[i] == colour[j] for i, j in edges):
        raise CheckFailed("the colouring is not proper")
    if cert.number != len(cert.partition.classes):
        raise CheckFailed("the number differs from the class count")
    edge_set = set(edges)
    if any((min(a, b), max(a, b)) not in edge_set for a, b in combinations(cert.lower_bound_clique, 2)):
        raise CheckFailed("the clique is not a clique")
    if len(cert.lower_bound_clique) > cert.number:
        raise CheckFailed("the clique is larger than the number")
    if cert.optimal and chi is not None and cert.number != chi:
        raise CheckFailed(f"claimed optimal {cert.number}, chromatic number is {chi}")


def _check_coloring(req, cert, out_path):
    n, edges, _, chi = req.args
    check_coloring(n, edges, cert, chi)
    return 1, jsonio.dumps(jsonio.certificate_to_obj(cert)).encode()


REGISTRY = {
    "doubling": Workload(_suite_pool("doubling", 3), _execute_suite, _check_suite, 4),
    "plane": Workload(_suite_pool("grunbaum_plane", 12), _execute_suite, _check_suite, 8),
    "cover": Workload(_cover_pool, _execute_cover, _check_cover, 8, 8),
    "coloring": Workload(_coloring_pool, _execute_coloring, _check_coloring, 14, 14, _coloring_defect),
}


WORKLOADS = tuple(REGISTRY)


def make_pool(workload, seed):
    """The request list of one run; the same seed gives the same list."""
    return REGISTRY[workload].make_pool(random.Random(f"{workload}/{seed}"))


def make_known_defect(workload, seed):
    """The workload's known-failing input for this seed, or None."""
    make = REGISTRY[workload].known_defect
    return make(random.Random(f"{workload}/{seed}/defect")) if make else None
