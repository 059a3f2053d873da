"""Exact Borsuk partition numbers of finite sets.

A finite set splits into parts of strictly smaller diameter exactly
when no part spans an edge of the diameter graph, so the partition
number is the chromatic number of that graph. The search below is a
deterministic DSATUR branch and bound (Brelaz, 1979) with a greedy
clique lower bound, run on an explicit stack (no depth limit). It
colors next the uncolored vertex of highest saturation, the first in
(-degree, index) order on a tie, and tries colors in increasing order.
Its state is held in int bitmasks over the vertices in that order, in
the style of San Segundo (2012): per color, the vertices next to it;
per saturation, the vertices at it. Coloring a vertex is then a few
ANDs and ORs. Outcomes are certified by the returned coloring and,
when the search finished, by exhaustion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .bodies import PointSet, SymmetricBody, VPolytope, difference_body, lift_body, lift_set, prune_redundant
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
    """A clique grown greedily: each step takes the candidate with the most
    neighbours among the candidates, ties to the least index, and keeps
    only its neighbours as candidates.

    While every vertex is a candidate that count is its degree, so the
    first pick is the least vertex of greatest degree. Its neighbours are
    the candidates from then on: they and their neighbourhoods among them
    are int bitmasks, bit u for vertex u, counted by ``int.bit_count``.
    """
    if not n:
        return []
    degrees = list(map(len, adj))
    first = degrees.index(max(degrees))
    near = sorted(adj[first])
    nbr = {u: sum(1 << w for w in adj[u] & adj[first]) for u in near}
    clique, cand = [first], sum(1 << u for u in near)
    while cand:
        v = min((u for u in near if cand >> u & 1), key=lambda u: (-(nbr[u] & cand).bit_count(), u))
        clique.append(v)
        cand &= nbr[v]
    return clique


class _Saturation:
    """A partial coloring with its DSATUR state held in int bitmasks.

    The vertices are ranked once in (-degree, index) order, and bit r of
    every mask stands for the vertex of rank r: ``bit[v]`` is v's own bit,
    ``nbr[v]`` the mask of its neighbours and ``uncolored`` that of the
    vertices not yet colored. ``near[c]`` is the mask of vertices with a
    neighbour of color c, and ``lev[s]`` the mask of vertices, colored or
    not, of saturation s (s distinct colors among their neighbours).
    Coloring v with c ORs ``nbr[v]`` into ``near[c]`` and moves the
    vertices that adds up one level, one AND per level. Colorings are
    undone last-in first-out, each popping the ``near[c]`` it pushed on
    ``undo`` and moving the vertices it had added back down.

    :meth:`pick` takes the uncolored vertex of highest saturation, ties
    going to the lowest rank: the highest degree, then the smallest
    index. Vertices of degree 0 rank last and stay out of the masks, with
    ``bit[v] == 0``: their saturation is always 0, so they are picked
    only once every other vertex is colored, and then in rank order,
    which a count of those colored keeps.
    """

    def __init__(self, adj, n_colors):
        n = len(adj)
        degree = [len(a) for a in adj]
        # a stable sort, so equal degrees stay in index order
        order = sorted(range(n), key=degree.__getitem__, reverse=True)
        ranked = n - degree.count(0)
        self.order = order
        self.isolated = order[ranked:]
        self.isolated_colored = 0
        self.bit = bit = [0] * n
        for r in range(ranked):
            bit[order[r]] = 1 << r
        self.nbr = nbr = [0] * n
        for v in order[:ranked]:
            nbr[v] = sum(bit[u] for u in adj[v])
        self.colors = [-1] * n
        self.uncolored = (1 << ranked) - 1
        self.near = [0] * n_colors
        self.lev = [self.uncolored] + [0] * n_colors
        self.undo: list[int] = []

    def add_color(self):
        self.near.append(0)
        self.lev.append(0)

    def assign(self, v, c):
        self.colors[v] = c
        b = self.bit[v]
        if not b:
            self.isolated_colored += 1
            return
        self.uncolored ^= b
        near = self.near
        old = near[c]
        self.undo.append(old)
        x = self.nbr[v] & ~old
        if x:
            near[c] = old | x
            lev = self.lev
            for s, m in enumerate(lev):  # a vertex moved up leaves x
                y = m & x
                if y:
                    lev[s] = m ^ y
                    lev[s + 1] |= y
                    x ^= y
                    if not x:
                        break

    def clear(self, v):
        c = self.colors[v]
        self.colors[v] = -1
        b = self.bit[v]
        if not b:
            self.isolated_colored -= 1
            return
        self.uncolored |= b
        near = self.near
        old = self.undo.pop()
        x = near[c] ^ old
        if x:
            near[c] = old
            lev = self.lev
            for s, m in enumerate(lev):  # x holds no vertex of level 0
                y = m & x
                if y:
                    lev[s] = m ^ y
                    lev[s - 1] |= y
                    x ^= y
                    if not x:
                        break

    def pick(self):
        """The uncolored vertex of highest saturation, the first in rank
        order on a tie."""
        unc = self.uncolored
        if not unc:
            return self.isolated[self.isolated_colored]
        for m in reversed(self.lev):
            m &= unc
            if m:
                return self.order[(m & -m).bit_length() - 1]

    def first_free(self, v):
        """Smallest color no neighbour of v holds; len(near) if none."""
        near, b = self.near, self.bit[v]
        c = 0
        while c < len(near) and near[c] & b:
            c += 1
        return c


def _dsatur_greedy(n, adj) -> list[int]:
    """DSATUR's own coloring: each picked vertex takes its first free
    color. Vertices of degree 0 come last and all take color 0."""
    state = _Saturation(adj, 0)
    for _ in range(n - len(state.isolated)):
        v = state.pick()
        c = state.first_free(v)
        if c == len(state.near):
            state.add_color()
        state.assign(v, c)
    colors = state.colors
    for v in state.isolated:
        colors[v] = 0
    return colors


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
    colors, near, bit = state.colors, state.near, state.bit

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
        b = bit[v]
        while c < frame_used and near[c] & b:
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
    built and certified. Both bodies are built from K pruned once, so the
    slice of L is the very difference body of the first search, with its
    hull and normals.
    """
    missing = set(K.vertices) - set(S.points)
    if missing:
        raise ValueError(f"S must contain all vertices of K; missing {sorted(missing)[:3]}")
    base = K if K.pruned else prune_redundant(K)
    b1 = borsuk_number(difference_body(base), S, node_budget)
    b2 = borsuk_number(lift_body(base).body, lift_set(S), node_budget)
    return b1.number, b2.number, b1.optimal and b2.optimal and b2.number == 2 * b1.number
