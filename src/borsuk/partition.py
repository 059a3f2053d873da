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
Each frame of the stack keeps the state its vertex was picked in, and a
child's state is built from it on copies of the lists it changes, so
backing out of a child undoes nothing. Outcomes are certified by the
returned coloring and, when the search finished, by exhaustion.

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
    """(order, ranked, bit, rnbr): the vertices in (-degree, index) order,
    how many of them have a neighbour, and per vertex its own bit and the
    mask of its neighbours, bit r standing for the vertex of rank r.

    Vertices of degree 0 rank last and stay out of the masks, with
    ``bit[v] == 0``: their saturation is always 0, so they are picked only
    once every other vertex is colored, and then in rank order.
    """
    n = len(nbr)
    degree = [x.bit_count() for x in nbr]
    # a stable sort, so equal degrees stay in index order
    order = sorted(range(n), key=degree.__getitem__, reverse=True)
    ranked = n - degree.count(0)
    bit = [0] * n
    for r in range(ranked):
        bit[order[r]] = 1 << r
    rnbr = [0] * n
    for v in order[:ranked]:
        x, m = nbr[v], 0
        while x:  # each neighbour's index bit, lowest first, for its rank bit
            low = x & -x
            m |= bit[low.bit_length() - 1]
            x ^= low
        rnbr[v] = m
    return order, ranked, bit, rnbr


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
    color. Vertices of degree 0 come last and all take color 0."""
    order, ranked, bit, rnbr = ranking
    colors = [0] * len(order)
    unc = (1 << ranked) - 1
    near, sat = [], []
    for _ in range(ranked):
        m = unc
        for p in reversed(sat):
            m = m & p or m
        v = order[(m & -m).bit_length() - 1]
        b = bit[v]
        c = 0
        while c < len(near) and near[c] & b:
            c += 1
        if c == len(near):
            near.append(0)
        colors[v] = c
        unc ^= b
        x = rnbr[v] & ~near[c]
        if x:
            near[c] |= x
            _count_up(sat, x)
    return colors


def _exact_chromatic(nbr, budget):
    """Returns (k, colors, clique, optimal, nodes) for the graph whose
    vertex i has the neighbour mask ``nbr[i]``, bit j for vertex j."""
    n = len(nbr)
    clique = _greedy_clique(nbr)
    ranking = order, ranked, bit, rnbr = _ranking(nbr)
    best = _dsatur_greedy(ranking)
    best_k = max(best) + 1
    lb = len(clique)
    if lb == best_k:
        return best_k, best, clique, True, 0

    # Fixing the clique's colors breaks color-permutation symmetry and
    # is sound: any proper coloring can be relabeled to match.
    unc = (1 << ranked) - 1
    near = [0] * best_k
    sat = [0] * (best_k - 1).bit_length()
    for c, v in enumerate(clique):
        unc ^= bit[v]
        near[c] = rnbr[v]
        _count_up(sat, rnbr[v])

    # Depth-first search on an explicit stack of frames [v, next color,
    # colors in use, unc, near, sat], one per colored vertex outside the
    # clique, holding the state before v is colored: `unc` masks the
    # uncolored vertices, `near[c]` those with a neighbour of color c and
    # `sat[i]` those, colored or not, whose saturation has bit i set. The
    # lists a child changes are copies, so backing out of it is just
    # reading its frame again. v is picked on the frame's first visit, and
    # its color is the next color less one. A node with `used` colors in
    # use tries each free color below `used`, then one new color if that
    # could still beat the best. A child is entered where it is built; the
    # budget is checked there and after each child that reused a color.
    nodes = 1  # the root, within any budget of at least 1
    exhausted = True
    stack: list[list] = [[0, 0, lb, unc, near, sat]]
    while stack:
        frame = stack[-1]
        v, c, frame_used, unc, near, sat = frame
        if c:  # a child of this frame has returned
            if c > frame_used:  # it had opened a new color
                stack.pop()
                continue
            if nodes >= budget:
                exhausted = False
                stack.pop()
                continue
        elif unc:  # the uncolored vertex of highest saturation, the first on a tie
            m = unc
            for p in reversed(sat):
                m = m & p or m
            frame[0] = v = order[(m & -m).bit_length() - 1]
        else:  # every ranked vertex is colored: the first isolated one left
            frame[0] = v = order[lb + len(stack) - 1]
        b = bit[v]
        while c < frame_used and near[c] & b:
            c += 1
        if c < frame_used:
            used = frame_used
        elif frame_used + 1 < best_k:  # c == frame_used: open a new color
            used = frame_used + 1
        else:
            stack.pop()
            continue
        frame[1] = c + 1
        unc ^= b
        x = rnbr[v] & ~near[c]
        if x:
            near = near.copy()
            near[c] |= x
            sat = sat.copy()
            i = 0
            while x:  # a ripple carry; it never runs past the top plane
                p = sat[i]
                sat[i] = p ^ x
                x &= p
                i += 1
        if nodes >= budget:
            exhausted = False
            continue
        nodes += 1
        if used < best_k:
            if lb + len(stack) == n:
                best_k, best = used, [-1] * n
                for c, v in enumerate(clique):
                    best[v] = c
                for frame in stack:
                    best[frame[0]] = frame[1] - 1
            else:
                stack.append([0, 0, used, unc, near, sat])
    optimal = exhausted or best_k == lb
    return best_k, best, clique, optimal, nodes


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
    listed. A set of one point needs one part, whatever its dimension."""
    budget = _checked_budget(node_budget)
    if len(S) == 1:
        return BorsukCertificate(1, partition(1, [(0,)]), (0,), True, 0)
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
    base = K if K.pruned else prune_redundant(K)
    m, (XK, XS) = common_scale(base.scaled, S.scaled)
    points = set(XS)
    missing = [X for X in XK if X not in points]
    if missing:
        shown = ", ".join(map(show, rational_points(m, sorted(missing)[:3])))
        raise InvalidInput(f"S must contain all vertices of K; missing {shown}")
    b1 = borsuk_number(difference_body(base), S, node_budget)
    b2 = borsuk_number(lift_body(base), lift_set(S), node_budget)
    return b1.number, b2.number, b1.optimal and b2.optimal and b2.number == 2 * b1.number
