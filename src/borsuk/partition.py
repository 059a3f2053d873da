"""Exact Borsuk partition numbers of finite sets.

A finite set splits into parts of strictly smaller diameter exactly
when no part spans an edge of the diameter graph, so the partition
number is the chromatic number of that graph. The search below is a
deterministic DSATUR-style branch and bound with a greedy clique lower
bound, run on an explicit stack (no depth limit) with every vertex's
saturation kept up to date as colors are assigned and undone; outcomes
are certified by the returned coloring and, when the search finished,
by exhaustion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .bodies import PointSet, SymmetricBody, VPolytope, difference_body, lift_body, lift_set
from .errors import BorsukError, IndexOutOfRange, InvalidInput
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
                raise InvalidInput("empty partition class")
            for i in cls:
                if not 0 <= i < self.n_points:
                    raise IndexOutOfRange(f"index {i} outside 0..{self.n_points - 1}")
                if i in seen:
                    raise InvalidInput(f"index {i} appears in two classes")
                seen.add(i)
        if len(seen) != self.n_points:
            raise InvalidInput("classes do not cover all indices")


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


class _Saturation:
    """A partial coloring with DSATUR state kept up to date.

    ``counts[v][c]`` is how many neighbours of v hold color c and
    ``sat[v]`` how many of those counts are nonzero, the saturation of v;
    coloring or uncoloring v touches only v's neighbours. The tables
    hold one column per color in use, ``n_colors`` of them.
    Uncolored vertices sit in a doubly linked list in (-degree, index)
    order; colorings are undone last-in first-out, so an uncolored vertex
    relinks where it was unlinked.
    """

    def __init__(self, adj, n_colors):
        n = len(adj)
        self.adj = adj
        self.degree = [len(a) for a in adj]
        order = sorted(range(n), key=lambda v: (-self.degree[v], v))
        # links over vertices; n is the list head, ahead of order[0]
        self.next = [n] * (n + 1)
        self.prev = [n] * (n + 1)
        for a, b in zip([n] + order, order + [n]):
            self.next[a] = b
            self.prev[b] = a
        self.colors = [-1] * n
        self.n_colors = n_colors
        self.counts = [[0] * n_colors for _ in range(n)]
        self.sat = [0] * n

    def add_color(self):
        self.n_colors += 1
        for row in self.counts:
            row.append(0)

    def assign(self, v, c):
        self.colors[v] = c
        nxt, prv = self.next, self.prev
        nxt[prv[v]] = nxt[v]
        prv[nxt[v]] = prv[v]
        counts, sat = self.counts, self.sat
        for u in self.adj[v]:
            row = counts[u]
            if not row[c]:
                sat[u] += 1
            row[c] += 1

    def clear(self, v):
        c = self.colors[v]
        self.colors[v] = -1
        nxt, prv = self.next, self.prev
        nxt[prv[v]] = v
        prv[nxt[v]] = v
        counts, sat = self.counts, self.sat
        for u in self.adj[v]:
            row = counts[u]
            row[c] -= 1
            if not row[c]:
                sat[u] -= 1

    def pick(self):
        """The uncolored vertex of highest (saturation, degree, -index).

        Walks the uncolored list, so on equal saturation the first vertex
        found wins; a saturation never exceeds the degree, so the walk
        stops at the first degree no higher than the best saturation.
        """
        nxt, degree, sat = self.next, self.degree, self.sat
        end = len(self.colors)
        best, best_sat = None, -1
        v = nxt[end]
        while v != end and degree[v] > best_sat:
            if sat[v] > best_sat:
                best, best_sat = v, sat[v]
            v = nxt[v]
        return best

    def first_free(self, v):
        """Smallest color no neighbour of v holds; n_colors if none."""
        row = self.counts[v]
        return row.index(0) if 0 in row else self.n_colors


def _dsatur_greedy(n, adj) -> list[int]:
    state = _Saturation(adj, 0)
    for _ in range(n):
        v = state.pick()
        c = state.first_free(v)
        if c == state.n_colors:
            state.add_color()
        state.assign(v, c)
    return state.colors


def _exact_chromatic(n, edges, budget):
    """Returns (k, colors, clique, optimal, nodes)."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    clique = _greedy_clique(n, adj)
    best = _dsatur_greedy(n, adj)
    best_k = max(best) + 1
    lb = len(clique)
    if lb == best_k:
        return best_k, best, clique, True, 0

    # Fixing the clique's colors breaks color-permutation symmetry and
    # is sound: any proper coloring can be relabeled to match.
    state = _Saturation(adj, best_k)
    for rank, v in enumerate(clique):
        state.assign(v, rank)
    colors, counts = state.colors, state.counts

    # Depth-first search on an explicit stack of frames [v, next color,
    # colors in use], one per colored vertex outside the clique. A node
    # is entered with `used` colors in use; it tries each free color below
    # `used`, then one new color if that could still beat the best. The
    # budget is checked on entering a node and after each child that
    # reused a color.
    nodes = 0
    exhausted = True
    stack: list[list[int]] = []
    used = lb
    entering = True
    while True:
        if entering:
            entering = False
            if nodes >= budget:
                exhausted = False
            else:
                nodes += 1
                if used < best_k:
                    if lb + len(stack) == n:
                        best_k, best = used, colors.copy()
                    else:
                        stack.append([state.pick(), 0, used])
        if not stack:
            break
        frame = stack[-1]
        v, c, frame_used = frame
        if colors[v] >= 0:  # a child of this frame has returned
            reused = colors[v] < frame_used
            state.clear(v)
            if not reused:
                stack.pop()
                continue
            if nodes >= budget:
                exhausted = False
                stack.pop()
                continue
        held = counts[v]
        while c < frame_used and held[c]:
            c += 1
        if c < frame_used:
            frame[1], used = c + 1, frame_used
        elif frame_used + 1 < best_k:  # c == frame_used: open a new color
            frame[1], used = c + 1, frame_used + 1
        else:
            stack.pop()
            continue
        state.assign(v, c)
        entering = True
    optimal = exhausted or best_k == lb
    return best_k, best, clique, optimal, nodes


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
    lifted set under the difference norm of the lifted body L; returns
    (b1, b2, ok) where ok says b2 == 2*b1 and both searches finished: a
    number from a search cut short by ``node_budget`` is only an upper
    bound and shows nothing. S must contain every vertex of K so that the
    finite diameters agree with the body diameters.

    L is symmetric, so its difference body L - L is 2L, whose gauge is
    half that of L: every distance halves, the same pairs attain the
    diameter, and the diameter graph, hence b2, is the same under L
    itself. So the set is coloured under L, and no second 4D body is
    built and certified.
    """
    missing = set(K.vertices) - set(S.points)
    if missing:
        raise ValueError(f"S must contain all vertices of K; missing {sorted(missing)[:3]}")
    b1 = borsuk_number(difference_body(K), S, node_budget)
    b2 = borsuk_number(lift_body(K).body, lift_set(S), node_budget)
    return b1.number, b2.number, b1.optimal and b2.optimal and b2.number == 2 * b1.number
