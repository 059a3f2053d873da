"""Exact Borsuk partition numbers of finite sets.

A finite set splits into parts of strictly smaller diameter exactly
when no part spans an edge of the diameter graph, so the partition
number is the chromatic number of that graph. The search below is a
deterministic DSATUR-style branch and bound with a greedy clique lower
bound; outcomes are certified by the returned coloring and, when the
search finished, by exhaustion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .bodies import PointSet, SymmetricBody, VPolytope, difference_body, lift_body, lift_set
from .errors import BorsukError, IndexOutOfRange
from .metric import DiameterGraph, diameter_graph, set_diameter

DEFAULT_NODE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "BORSUK_NODE_BUDGET"


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty index classes covering 0..n_points-1."""

    n_points: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty partition class")
            for i in cls:
                if not 0 <= i < self.n_points:
                    raise IndexOutOfRange(f"index {i} outside 0..{self.n_points - 1}")
                if i in seen:
                    raise ValueError(f"index {i} appears in two classes")
                seen.add(i)
        if len(seen) != self.n_points:
            raise ValueError("classes do not cover all indices")


def partition(n_points: int, classes) -> Partition:
    """Canonicalizing constructor: sorts members and orders classes."""
    cleaned = tuple(sorted(tuple(sorted(cls)) for cls in classes))
    return Partition(n_points, cleaned)


@dataclass(frozen=True)
class BorsukCertificate:
    number: int
    partition: Partition
    lower_bound_clique: tuple[int, ...]
    optimal: bool
    nodes: int


def node_budget_default() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise BorsukError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return budget


def _greedy_clique(n, adj) -> list[int]:
    clique: list[int] = []
    cand = set(range(n))
    while cand:
        v = min(cand, key=lambda u: (-len(adj[u] & cand), u))
        clique.append(v)
        cand &= adj[v]
    return clique


def _dsatur_greedy(n, adj) -> list[int]:
    colors = [-1] * n
    for _ in range(n):
        v = _pick_uncolored(n, adj, colors)
        used = {colors[u] for u in adj[v] if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _pick_uncolored(n, adj, colors):
    # saturation first, then degree, then smallest index: deterministic
    best = None
    best_key = None
    for v in range(n):
        if colors[v] >= 0:
            continue
        sat = len({colors[u] for u in adj[v] if colors[u] >= 0})
        key = (sat, len(adj[v]), -v)
        if best is None or key > best_key:
            best = v
            best_key = key
    return best


def _exact_chromatic(n, edges, budget):
    """Returns (k, colors, clique, optimal, nodes)."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    clique = _greedy_clique(n, adj)
    greedy = _dsatur_greedy(n, adj)
    best_k = max(greedy) + 1
    best = list(greedy)
    lb = len(clique)
    if lb == best_k:
        return best_k, best, clique, True, 0

    # Fixing the clique's colors breaks color-permutation symmetry and
    # is sound: any proper coloring can be relabeled to match.
    colors = [-1] * n
    for rank, v in enumerate(clique):
        colors[v] = rank

    state = {"nodes": 0, "best_k": best_k, "best": best, "exhausted": True}

    def descend(num_colored, used):
        if state["nodes"] >= budget:
            state["exhausted"] = False
            return
        state["nodes"] += 1
        if used >= state["best_k"]:
            return
        if num_colored == n:
            state["best_k"] = used
            state["best"] = colors.copy()
            return
        v = _pick_uncolored(n, adj, colors)
        forbidden = {colors[u] for u in adj[v] if colors[u] >= 0}
        for c in range(used):
            if c in forbidden:
                continue
            colors[v] = c
            descend(num_colored + 1, used)
            colors[v] = -1
            if state["nodes"] >= budget:
                state["exhausted"] = False
                return
        if used + 1 < state["best_k"]:
            colors[v] = used
            descend(num_colored + 1, used + 1)
            colors[v] = -1

    descend(len(clique), len(clique))
    optimal = state["exhausted"] or state["best_k"] == lb
    return state["best_k"], state["best"], clique, optimal, state["nodes"]


def chromatic_number(G: DiameterGraph, node_budget: int | None = None) -> BorsukCertificate:
    """Exact chromatic number with a proper-coloring certificate.

    If the node budget runs out the best coloring found so far is
    returned with ``optimal=False`` (its class count is still an upper
    bound, and the clique size a lower bound).
    """
    budget = node_budget if node_budget is not None else node_budget_default()
    k, colors, clique, optimal, nodes = _exact_chromatic(G.n_points, G.edges, budget)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    part = partition(G.n_points, classes.values())
    return BorsukCertificate(k, part, tuple(sorted(clique)), optimal, nodes)


def borsuk_number(C: SymmetricBody, S: PointSet, node_budget: int | None = None) -> BorsukCertificate:
    """Least number of parts of S with diameter strictly below d_C(S)."""
    if len(S.points) == 1:
        return BorsukCertificate(1, partition(1, [(0,)]), (0,), True, 0)
    return chromatic_number(diameter_graph(C, S), node_budget)


def verify_partition(C: SymmetricBody, S: PointSet, P: Partition) -> bool:
    """True iff every class has diameter strictly below the full one.

    A class has a strictly smaller diameter exactly when it contains no
    pair attaining the full diameter, i.e. no edge of the diameter graph,
    so one pass over S decides every class.
    """
    if P.n_points != len(S.points):
        raise IndexOutOfRange(f"partition of {P.n_points} points against a set of {len(S.points)}")
    _, witnesses = set_diameter(C, S)
    label = {i: k for k, cls in enumerate(P.classes) for i in cls}
    return all(label[i] != label[j] for i, j in witnesses)


def lift_partition(P: Partition, S: PointSet) -> Partition:
    """Duplicate a partition onto the two lifted copies of S.

    Class i becomes the class of its (+1)-copy points; class m+i the
    class of the mirrored (-1)-copy, matching the index layout of
    :func:`borsuk.bodies.lift_set` (originals first, then mirrors).
    """
    if P.n_points != len(S.points):
        raise IndexOutOfRange(f"partition of {P.n_points} points against a set of {len(S.points)}")
    n = len(S.points)
    upper = [tuple(cls) for cls in P.classes]
    lower = [tuple(i + n for i in cls) for cls in P.classes]
    return Partition(2 * n, tuple(upper + lower))


def doubling_check(K: VPolytope, S: PointSet, node_budget: int | None = None):
    """Compare the partition number before and after symmetric lifting.

    Computes b1 for S under the difference body of K, and b2 for the
    lifted set under the difference body of the lifted body; returns
    (b1, b2, b2 == 2*b1). S must contain every vertex of K so that the
    finite diameters agree with the body diameters.
    """
    missing = set(K.vertices) - set(S.points)
    if missing:
        raise ValueError(f"S must contain all vertices of K; missing {sorted(missing)[:3]}")
    b1 = borsuk_number(difference_body(K), S, node_budget)
    lifted = lift_body(K)
    b2 = borsuk_number(difference_body(lifted.as_polytope()), lift_set(S), node_budget)
    return b1.number, b2.number, b2.number == 2 * b1.number
