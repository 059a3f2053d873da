"""Exact Borsuk partition numbers of finite sets.

A finite set splits into parts of strictly smaller diameter exactly
when no part spans an edge of the diameter graph, so the partition
number is the chromatic number of that graph. Every step of the
colouring reads one form of the graph, a list of int neighbour masks,
bit j of ``nbr[i]`` set when i and j are adjacent. :func:`borsuk_number`
builds it straight from the set's extreme sets (see :mod:`borsuk.metric`),
whose pairs across are exactly the edges, with no edge list;
:func:`chromatic_number` builds it from a graph's edges. The search is
a deterministic DSATUR branch and bound (Brelaz, 1979) with a greedy
clique lower bound, run on an explicit stack (no depth limit). It
colors next the uncolored vertex of highest saturation, the first in
(-degree, index) order on a tie, and tries colors in increasing order.
Its state is held in int bitmasks over the vertices in that order, in
the style of San Segundo (2012): per color, the vertices next to it;
per bit i of the saturations, a plane of the vertices with it set. The
search never has best_k colors in use, best_k those of the greedy
coloring, so (best_k - 1).bit_length() planes hold every saturation.
The search works on ranks, reading a vertex's index only to write out a
coloring. Each child is entered in the loop step that builds it, and
only a node with a next color to try is pushed, keeping its state: the
lists it holds are copied before they change, so backing out of a child
undoes nothing, and a frame is read back only to try its next color.
Vertices of degree 0 are colored last, one level each, and those levels
are counted, not walked: each of them takes color 0 down to a leaf, and
backing out tries each other color in use, which the leaf rules out.
Outcomes are certified by the returned coloring and, when the search
finished, by exhaustion.

Checking a given partition needs no graph either. A part has a strictly
smaller diameter exactly when it holds no pair attaining the full one,
and those are the pairs across the extreme sets: with normals, the
maxima and minima of each column of largest spread; without, the
attaining pairs themselves. So a partition is checked by its class
labels on the two sides of each.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ._value import Value
from .bodies import PointSet, SymmetricBody, VPolytope, difference_body, lift_body, lift_set, prune_redundant
from .errors import BorsukError, DimensionMismatch, IndexOutOfRange, InvalidInput
from .linalg import common_scale, rational_points, show
from .metric import DiameterGraph, _set_extremes

DEFAULT_NODE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "BORSUK_NODE_BUDGET"


class Partition(Value):
    """Disjoint nonempty index classes covering 0..n_points-1."""

    _fields = ("n_points", "classes")
    n_points: int
    classes: tuple[tuple[int, ...], ...]

    def __init__(self, n_points, classes):
        vars(self).update(n_points=n_points, classes=classes)
        seen: set[int] = set()
        for cls in classes:
            if not cls:
                raise InvalidInput("empty partition class")
            for i in cls:
                if not 0 <= i < n_points:
                    raise IndexOutOfRange(f"index {i} outside 0..{n_points - 1}")
                if i in seen:
                    raise InvalidInput(f"index {i} appears in two classes")
                seen.add(i)
        if len(seen) != n_points:
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


def _checked_budget(node_budget) -> int:
    """``node_budget``, or the default when it is None. Like the
    environment variable, it must be an int of at least 1, and a bool is
    not one."""
    if node_budget is None:
        return node_budget_default()
    if isinstance(node_budget, bool) or not isinstance(node_budget, int) or node_budget < 1:
        raise InvalidInput(f"node budget must be a positive integer, got {node_budget!r}")
    return node_budget


def _greedy_clique(nbr) -> list[int]:
    """A clique grown greedily: each step takes the candidate with the most
    neighbours among the candidates, ties to the least index, and keeps
    only its neighbours as candidates.

    While every vertex is a candidate that count is its degree, so the
    first pick is the least vertex of greatest degree. Its neighbours are
    the candidates from then on, a mask like each vertex's own, and a
    count is ``int.bit_count`` of a neighbour mask and the candidates.
    """
    if not nbr:
        return []
    degrees = [x.bit_count() for x in nbr]
    first = degrees.index(max(degrees))
    clique, cand = [first], nbr[first]
    while cand:
        most, x = -1, cand
        while x:  # the candidates, least first, so a tie keeps the least
            low = x & -x
            u = low.bit_length() - 1
            k = (nbr[u] & cand).bit_count()
            if k > most:
                most, v = k, u
            x ^= low
        clique.append(v)
        cand &= nbr[v]
    return clique


def _ranking(nbr):
    """(order, rnbr): the vertices in (-degree, index) order, and per rank
    r of a vertex with a neighbour the mask of the neighbours of
    ``order[r]``, bit s standing for the vertex of rank s.

    The search and DSATUR work on ranks: the vertex of rank r is bit
    ``1 << r`` of their masks, and ``order`` maps a rank back to its
    vertex. Vertices of degree 0 rank last, past the end of ``rnbr``, and
    stay out of the masks: nothing constrains their colors.
    """
    n = len(nbr)
    degree = [x.bit_count() for x in nbr]
    # a stable sort, so equal degrees stay in index order
    order = sorted(range(n), key=degree.__getitem__, reverse=True)
    ranked = n - degree.count(0)
    bit = [0] * n
    for r in range(ranked):
        bit[order[r]] = 1 << r
    rnbr = [0] * ranked
    for r in range(ranked):
        x, m = nbr[order[r]], 0
        while x:  # each neighbour's index bit, lowest first, for its rank bit
            low = x & -x
            m |= bit[low.bit_length() - 1]
            x ^= low
        rnbr[r] = m
    return order, rnbr


def _count_up(sat, x):
    """Adds one to the saturation of each vertex of x, in place: a ripple
    carry up the planes, a carry out of the top one making a new plane."""
    for i, p in enumerate(sat):
        sat[i] = p ^ x
        x &= p
        if not x:
            return
    sat.append(x)


def _dsatur_greedy(ranking) -> list[int]:
    """DSATUR's own coloring: each picked vertex takes its first free
    color. Vertices of degree 0 all take color 0."""
    order, rnbr = ranking
    colors = [0] * len(order)
    unc = (1 << len(rnbr)) - 1
    near, sat = [], []
    for _ in rnbr:
        m = unc
        for p in reversed(sat):
            m = m & p or m
        b = m & -m
        c = 0
        while c < len(near) and near[c] & b:
            c += 1
        if c == len(near):
            near.append(0)
        r = b.bit_length() - 1
        colors[order[r]] = c
        unc ^= b
        x = rnbr[r] & ~near[c]
        if x:
            near[c] |= x
            _count_up(sat, x)
    return colors


def _exact_chromatic(nbr, budget):
    """Returns (k, colors, clique, optimal, nodes) for the graph whose
    vertex i has the neighbour mask ``nbr[i]``, bit j for vertex j."""
    n = len(nbr)
    clique = _greedy_clique(nbr)
    ranking = order, rnbr = _ranking(nbr)
    best = _dsatur_greedy(ranking)
    best_k = max(best) + 1
    lb = len(clique)
    if lb == best_k:
        return best_k, best, clique, True, 0

    # Fixing the clique's colors breaks color-permutation symmetry and
    # is sound: any proper coloring can be relabeled to match.
    unc = (1 << len(rnbr)) - 1
    near = [0] * best_k
    sat = [0] * (best_k - 1).bit_length()
    for c, v in enumerate(clique):
        r = order.index(v)
        unc ^= 1 << r
        near[c] = rnbr[r]
        _count_up(sat, rnbr[r])

    # Depth-first search over the vertices with a neighbour outside the
    # clique, one colored per level; `path_rank[i]` and `path_color[i]` hold
    # the rank and color of the one at depth i on the current path. The
    # locals hold the node at depth d: `used` colors in use, `unc` masking
    # the uncolored vertices, `near[c]` those with a neighbour of color c
    # and `sat[i]` those, colored or not, whose saturation has bit i set. A
    # node tries each free color below `used`, then one new color if that
    # could still beat the best. It is entered in the loop step that builds
    # it: its vertex is picked, its first color found and its own first
    # child built from the locals. Only a node with a color after that is
    # pushed, as a frame [d, r, next color, used, unc, near, sat] with r its
    # vertex's rank, and a frame is read back only to try that color. The
    # lists a frame holds never change: `owned` says no frame holds the
    # locals' near and sat, which are then changed in place, and otherwise
    # copied first. Each child is charged to the budget as it is built, and the
    # search ends unfinished when it must build a child or back up with the
    # budget spent, without looking for a node left to try. The reference
    # searches of tests/oracles.py stop at the same node: they check the
    # budget before a node whose child reused a color tries its next, and a
    # path backed out of always holds one, since a path of new colors only
    # never ends (each vertex outside the greedy clique, which is maximal,
    # misses one of the clique's colors).
    nodes = 1  # the root, within any budget of at least 1
    stack: list[list] = []
    path_rank = [0] * (len(rnbr) - lb)
    path_color = [0] * (len(rnbr) - lb)
    used, d = lb, 0
    entering = owned = True
    while True:
        if entering:
            if unc:  # the uncolored vertex of highest saturation, the first on a tie
                m = unc
                for p in reversed(sat):
                    m = m & p or m
                b = m & -m
                r = b.bit_length() - 1
                c = 0
                while c < used and near[c] & b:
                    c += 1
                entering = c < used or used + 1 < best_k
            else:
                # A leaf: the t vertices of degree 0 left, one per level in
                # rank order, take color 0, each a node, and the coloring
                # has `used` colors. Backing out, each of them then tries
                # colors 1 to used - 1, each a node that the leaf rules out.
                t = n - lb - d
                if nodes + t > budget:
                    return best_k, best, clique, best_k == lb, budget
                best_k, best = used, [0] * n
                for c, v in enumerate(clique):
                    best[v] = c
                for i in range(d):
                    best[order[path_rank[i]]] = path_color[i]
                nodes = min(budget, nodes + t * used)
                entering = False
        if not entering:  # back up to the last node with a next color
            if nodes >= budget:
                return best_k, best, clique, best_k == lb, nodes
            while True:
                if not stack:
                    return best_k, best, clique, True, nodes
                d, r, c, used, unc, near, sat = stack.pop()
                if c < used or used + 1 < best_k:  # a new color the best has not ruled out since
                    break
            b = 1 << r
            owned = False
        if c < used:  # the node is pushed if it has a color after c
            k = c + 1
            while k < used and near[k] & b:
                k += 1
            if k < used or used + 1 < best_k:
                stack.append([d, r, k, used, unc, near, sat])
                owned = False
        path_rank[d] = r
        path_color[d] = c
        d += 1
        if c == used:
            used += 1
        unc ^= b
        x = rnbr[r] & ~near[c]
        if x:
            if not owned:
                near, sat, owned = near.copy(), sat.copy(), True
            near[c] |= x
            i = 0
            while x:  # a ripple carry; it never runs past the top plane
                p = sat[i]
                sat[i] = p ^ x
                x &= p
                i += 1
        if nodes >= budget:
            return best_k, best, clique, best_k == lb, nodes
        nodes += 1
        entering = used < best_k


def _certificate(nbr, budget) -> BorsukCertificate:
    """The certificate of :func:`_exact_chromatic` on the neighbour masks
    ``nbr``: its coloring as a partition, and its clique sorted."""
    k, colors, clique, optimal, nodes = _exact_chromatic(nbr, budget)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return BorsukCertificate(k, partition(len(nbr), classes.values()), tuple(sorted(clique)), optimal, nodes)


def chromatic_number(G: DiameterGraph, node_budget: int | None = None) -> BorsukCertificate:
    """Exact chromatic number with a proper-coloring certificate.

    If the node budget runs out the best coloring found so far is
    returned with ``optimal=False`` (its class count is still an upper
    bound, and the clique size a lower bound). A budget that is not an int
    of at least 1 raises :class:`InvalidInput`.
    """
    budget = _checked_budget(node_budget)
    nbr = [0] * G.n_points
    for i, j in G.edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return _certificate(nbr, budget)


def borsuk_number(C: SymmetricBody, S: PointSet, node_budget: int | None = None) -> BorsukCertificate:
    """Least number of parts of S with diameter strictly below d_C(S).

    The chromatic number of S's diameter graph, coloured straight from
    S's extreme sets (see :mod:`borsuk.metric`): the pairs attaining the
    diameter are those across some ``(A, B)``, so each vertex of A gets
    B's bits in its neighbour mask and each of B gets A's. No edge is
    listed. A set of one point has no extreme sets, and so one part."""
    budget = _checked_budget(node_budget)
    if S.dim != C.dim:
        raise DimensionMismatch(f"set of dim {S.dim} against body of dim {C.dim}")
    _, sides = _set_extremes(C, S)
    nbr = [0] * len(S)
    for A, B in sides:
        a = sum([1 << i for i in A])
        b = sum([1 << j for j in B])
        for i in A:
            nbr[i] |= b
        for j in B:
            nbr[j] |= a
    return _certificate(nbr, budget)


def verify_partition(C: SymmetricBody, S: PointSet, P: Partition) -> bool:
    """True iff every class has diameter strictly below the full one.

    A class has exactly when it holds no pair attaining the full
    diameter, and the attaining pairs are those across some pair of
    extreme sets ``(A, B)`` of S (see :mod:`borsuk.metric`). So P fails
    exactly when some class has points on both sides of some ``(A, B)``,
    which the class labels of the two sides decide, with no pair listed.
    """
    if P.n_points != len(S):
        raise IndexOutOfRange(f"partition of {P.n_points} points against a set of {len(S)}")
    if S.dim != C.dim:
        raise DimensionMismatch(f"set of dim {S.dim} against body of dim {C.dim}")
    label = {i: k for k, cls in enumerate(P.classes) for i in cls}
    _, sides = _set_extremes(C, S)
    return all({label[i] for i in A}.isdisjoint([label[j] for j in B]) for A, B in sides)


def lift_partition(P: Partition, S: PointSet) -> Partition:
    """Duplicate a partition onto the two lifted copies of S.

    Class i becomes the class of its (+1)-copy points; class m+i the
    class of the mirrored (-1)-copy, matching the index layout of
    :func:`borsuk.bodies.lift_set` (originals first, then mirrors).
    """
    n = len(S)
    if P.n_points != n:
        raise IndexOutOfRange(f"partition of {P.n_points} points against a set of {n}")
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
    finite diameters agree with the body diameters: the rows of the
    pruned K's scaled form are looked up among those of S's, over a
    common scale, and a vertex missing from S raises ``InvalidInput``; S
    of another dimension raises ``DimensionMismatch`` first.

    L is symmetric, so its difference body L - L is 2L, whose gauge is
    half that of L: every distance halves, the same pairs attain the
    diameter, and the diameter graph, hence b2, is the same under L
    itself. So the set is coloured under L, and no second 4D body is
    built and certified. Both bodies are built from K pruned once, so the
    slice of L is the very difference body of the first search, with its
    hull and normals.
    """
    if S.dim != K.dim:
        raise DimensionMismatch(f"set of dim {S.dim} against polytope of dim {K.dim}")
    base = prune_redundant(K)
    m, (XK, XS) = common_scale(base.scaled, S.scaled)
    points = set(XS)
    missing = [X for X in XK if X not in points]
    if missing:
        shown = ", ".join(map(show, rational_points(m, sorted(missing)[:3])))
        raise InvalidInput(f"S must contain all vertices of K; missing {shown}")
    b1 = borsuk_number(difference_body(base), S, node_budget)
    b2 = borsuk_number(lift_body(base), lift_set(S), node_budget)
    return b1.number, b2.number, b1.optimal and b2.optimal and b2.number == 2 * b1.number
