"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's simplex and pruning
code paths: linear systems are solved by plain Gaussian elimination and
optima are found by enumerating candidate supports. The one exception
is :func:`fraction_simplex`, the reference the package's integer
simplex is tested against: the same two-phase Bland's-rule simplex
with every tableau entry a ``Fraction``. :func:`verify_partition_by_class`
is likewise the reference for ``verify_partition``: it measures every
class with its own ``set_diameter`` instead of reading the diameter
graph's edges. :func:`recursive_exact_chromatic` is the reference for
the package's branch and bound: the recursive DSATUR search that
recomputes every saturation at every node, for small graphs, and
:func:`linked_list_exact_chromatic`, the same iterative search with
saturations counted per vertex and per color and the uncolored vertices
in a linked list, for graphs and searches at benchmark scale, and
:func:`undo_exact_chromatic`, the bitmask search that colors and
uncolors one shared state instead of building each child's state anew,
and :func:`level_exact_chromatic`, the search that builds each child's
state anew but holds its saturations as levels, one mask per
saturation, instead of as binary counters.
:func:`per_pair_greedy_cover`
and :func:`per_pair_cover_to_partition` are the references for the
covering layer: one membership LP per (witness, center) pair, and only
centers whose translate meets the body, as an LP of its own; the cover
refuses, before any LP, the grids ``greedy_cover`` refuses, counted
from their bounds alone.
:func:`pairwise_max_by_fractions` and :func:`memo_pairwise_max` are
the references for the diameter pass, which projects integer points onto
integer normals: every pair's gauge of its ``Fraction`` difference, with
no memo and with one memo on the sign-canonical difference.
:func:`lp_path` sends every body down the package's exact LP path, the
reference its exact hulls are tested against, and
:func:`axis_extent_verdict` is the reference for certifying a body: one
exact LP per axis for the origin's extent along it.
:func:`facets_by_triples` is the reference for the facets of a hull in
space: every plane through three of the points with all points on one
side.
:func:`outline_by_facet_crossings` is the reference for the planar
outline drawn from a body's normals: a vertex body's hull vertices, or
every feasible crossing of two facet lines, sorted by angle.
:func:`fraction_minkowski_sum` and :func:`fraction_difference_body` are
the references for sums taken on integer rows: every pairwise sum built
as a ``Fraction`` tuple, hashed into a set and pruned, with :func:`negate`
for ``-K``. :func:`fraction_scale_polytope` is the reference for the verify
suites' polytopes scaled on their rows: every vertex times a ``Fraction``.
:func:`cross_distances` is the reference for the lifted cross check read
from one table: one package ``distance`` per pair of points.
:func:`certified_normals` is the reference for ``SymmetricBody.normals``,
which reads a hull's planes certified where the hull is made, and a
lift's from its slice in every dimension: the same normals, in the same
order, each certified again as it is read, ``a . v <= 1`` at every
vertex of the body with equality on ``dim`` vertices of rank ``dim``,
and a hull's facets checked to close up around its corners.
:func:`fraction_gen_random_body`, :func:`fraction_gen_random_polytope`
and :func:`fraction_gen_random_points` are the references for the seeded
generators, which draw each point into a row of ints: the same draws,
each coordinate a ``Fraction``, hashed, sorted and pruned as ``Fraction``
tuples; :func:`list_scan_planar_instance` is the reference for the planar
verify instance, which scans a list of ``Fraction`` tuples for the body's
vertices.
:func:`dots_by_sum` is the reference for ``linalg.dots``, the integer dot
kernel unrolled in dimensions 1 to 4: every product ``n . X`` as a
``sum`` over ``map(mul, n, X)``, the form it replaces.
"""

import math
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from operator import mul

from borsuk import lp
from borsuk.bodies import (
    PointSet,
    SymmetricBody,
    VPolytope,
    contains_point,
    is_full_dimensional,
    prune_redundant,
)
from borsuk.covering import MAX_COVER_PAIRS, MAX_GRID_POINTS, SAMPLE_CERTIFIED, Covering
from borsuk.errors import (
    DegenerateBody,
    DimensionMismatch,
    GenerationFailed,
    GridTooCoarse,
    IndexOutOfRange,
    InvalidInput,
    NotSymmetric,
    PointUncovered,
)
from borsuk.linalg import Vec, canonical_sign, matrix_rank, over_common_denominator, vneg, vsub
from borsuk.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult
from borsuk.metric import distance, gauge, set_diameter
from borsuk.partition import Partition

ZERO = Fraction(0)
ONE = Fraction(1)


def dots_by_sum(normals, rows):
    """For each normal n, the list of ``n . X`` over the rows X."""
    return [[sum(map(mul, n, X)) for X in rows] for n in normals]


def solve_exact(rows, rhs):
    """Solve M z = rhs for M with independent columns; None otherwise.

    ``rows`` is the m x k matrix as a list of rows. Returns the unique
    solution when the columns are linearly independent and the system is
    consistent, else None (dependent columns or inconsistent).
    """
    m = len(rows)
    k = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            return None  # dependent columns
        aug[r], aug[pivot] = aug[pivot], aug[r]
        piv = aug[r][col]
        aug[r] = [v / piv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [u - f * v for u, v in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == k:
            break
    if r < k:
        return None
    for i in range(r, m):
        if aug[i][k] != 0:
            return None  # inconsistent
    sol = [ZERO] * k
    for idx, col in enumerate(pivots):
        sol[col] = aug[idx][k]
    return sol


def lp_min_by_enumeration(c, A, b):
    """Minimum of c.x over {x >= 0 : Ax = b} by basic-solution enumeration.

    Assumes the problem is feasible and bounded (then an optimal basic
    solution exists). Returns None when no feasible basic solution is
    found, i.e. the system is infeasible.
    """
    m = len(A)
    n = len(c)
    best = None
    for size in range(0, m + 1):
        for cols in combinations(range(n), size):
            sub = [[A[i][j] for j in cols] for i in range(m)]
            sol = solve_exact(sub, b) if cols else ([] if all(Fraction(v) == 0 for v in b) else None)
            if sol is None or any(v < 0 for v in sol):
                continue
            val = sum((Fraction(c[j]) * sol[k] for k, j in enumerate(cols)), ZERO)
            if best is None or val < best:
                best = val
    return best


def gauge_by_support_enumeration(vertices, x):
    """Gauge of conv(vertices) at x via enumeration of small supports.

    The gauge LP (min sum of weights with weighted vertex combination
    equal to x) has an optimal basic solution supported on at most
    dim-many linearly independent vertices, so scanning all supports of
    size <= dim finds the exact optimum.
    """
    dim = len(x)
    if all(v == 0 for v in x):
        return ZERO
    rows = lambda cols: [[vertices[j][i] for j in cols] for i in range(dim)]
    best = None
    for size in range(1, dim + 1):
        for cols in combinations(range(len(vertices)), size):
            sol = solve_exact(rows(cols), x)
            if sol is None or any(v < 0 for v in sol):
                continue
            val = sum(sol, ZERO)
            if best is None or val < best:
                best = val
    return best


def graham_hull_2d(points):
    """Extreme points of a planar set by monotone chain, exact arithmetic.

    Strict turns only, so collinear non-extreme points are excluded;
    this is an independent oracle for LP-based redundancy pruning.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return set(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return set(lower[:-1]) | set(upper[:-1])


def chromatic_by_bruteforce(n, edges):
    """Smallest k admitting a proper coloring, by plain backtracking.

    Colors are canonicalised by first occurrence (vertex i may only open
    color number used_so_far), which enumerates every coloring up to
    color relabeling and nothing else.
    """
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    def extend(colors, v, k):
        if v == n:
            return True
        used = max(colors[:v], default=-1) + 1
        for col in range(min(used + 1, k)):
            if all(colors[u] != col for u in adj[v] if u < v):
                colors[v] = col
                if extend(colors, v + 1, k):
                    return True
        colors[v] = -1
        return False

    for k in range(1, n + 1):
        if extend([-1] * n, 0, k):
            return k
    return n


def verify_partition_by_class(C, S, P) -> bool:
    """True iff every class has diameter strictly below the full one,
    each class measured as a point set of its own."""
    if P.n_points != len(S.points):
        raise IndexOutOfRange(f"partition of {P.n_points} points against a set of {len(S.points)}")
    full, _ = set_diameter(C, S)
    for cls in P.classes:
        if len(cls) == 1:
            continue
        sub = PointSet(S.dim, tuple(S.points[i] for i in cls))
        d, _ = set_diameter(C, sub)
        if d >= full:
            return False
    return True


def fraction_simplex(c, A, b) -> LPResult:
    """Minimize c.x over {x >= 0 : Ax = b} with a Fraction tableau.

    Two phases with artificial variables and Bland's smallest-index rule
    for entering and leaving variables; ``pivots`` counts every pivot,
    including those that drive artificials out after phase 1.
    """
    m = len(A)
    n = len(c)
    cost = [Fraction(v) for v in c]

    # Phase-1 tableau: structural columns, one artificial per row, rhs
    # last; rows are flipped so the rhs is nonnegative.
    tab = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        row.extend(ZERO for _ in range(m))
        row[n + i] = ONE
        row.append(rhs)
        tab.append(row)
    basis = list(range(n, n + m))

    width = n + m
    red = [ZERO] * (width + 1)
    for row in tab:
        for j in range(n):
            red[j] -= row[j]
        red[width] -= row[width]

    pivots = [0]
    status = _fraction_iterate(tab, red, basis, width, pivots)
    if status != OPTIMAL or -red[width] != 0:
        return LPResult(INFEASIBLE, pivots=pivots[0])

    keep = []
    for i in range(len(tab)):
        if basis[i] < n:
            keep.append(i)
            continue
        pivot_col = next((j for j in range(n) if tab[i][j] != 0), None)
        if pivot_col is not None:
            _fraction_pivot(tab, red, basis, i, pivot_col, pivots)
            keep.append(i)
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]

    rhs_col = n
    tab = [row[:n] + [row[width]] for row in tab]
    red = cost + [ZERO]
    for i, row in enumerate(tab):
        f = red[basis[i]]
        if f != 0:
            for j in range(rhs_col + 1):
                red[j] -= f * row[j]

    status = _fraction_iterate(tab, red, basis, n, pivots)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=pivots[0])

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][rhs_col]
    return LPResult(OPTIMAL, value=-red[rhs_col], x=x, pivots=pivots[0])


def _fraction_iterate(tab, red, basis, n_cols, pivots) -> str:
    rhs_col = len(red) - 1
    while True:
        enter = next((j for j in range(n_cols) if red[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best_ratio = None
        best_var = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[rhs_col] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < best_var)
                ):
                    best_ratio = ratio
                    best_var = basis[i]
                    leave = i
        if leave is None:
            return UNBOUNDED
        _fraction_pivot(tab, red, basis, leave, enter, pivots)


def _fraction_pivot(tab, red, basis, i, j, pivots):
    row = tab[i]
    piv = row[j]
    if piv != 1:
        inv = ONE / piv
        tab[i] = row = [v * inv for v in row]
    for k, other in enumerate(tab):
        if k != i:
            f = other[j]
            if f != 0:
                tab[k] = [u - f * v for u, v in zip(other, row)]
    f = red[j]
    if f != 0:
        red[:] = [u - f * v for u, v in zip(red, row)]
    basis[i] = j
    pivots[0] += 1


def _recursive_greedy_clique(n, adj):
    clique = []
    cand = set(range(n))
    while cand:
        v = min(cand, key=lambda u: (-len(adj[u] & cand), u))
        clique.append(v)
        cand &= adj[v]
    return clique


def _recursive_pick_uncolored(n, adj, colors):
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


def _recursive_dsatur_greedy(n, adj):
    colors = [-1] * n
    for _ in range(n):
        v = _recursive_pick_uncolored(n, adj, colors)
        used = {colors[u] for u in adj[v] if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def recursive_exact_chromatic(n, edges, budget):
    """(k, colors, clique, optimal, nodes) by recursive DSATUR branch and
    bound, recomputing saturations from scratch at every node.

    Recursion depth grows with n: keep n well below the interpreter's
    recursion limit.
    """
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    clique = _recursive_greedy_clique(n, adj)
    greedy = _recursive_dsatur_greedy(n, adj)
    best_k = max(greedy) + 1
    best = list(greedy)
    lb = len(clique)
    if lb == best_k:
        return best_k, best, clique, True, 0

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
        v = _recursive_pick_uncolored(n, adj, colors)
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


class LinkedListSaturation:
    """A partial coloring with DSATUR state kept up to date in tables.

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


def linked_list_dsatur_greedy(n, adj):
    state = LinkedListSaturation(adj, 0)
    for _ in range(n):
        v = state.pick()
        c = state.first_free(v)
        if c == state.n_colors:
            state.add_color()
        state.assign(v, c)
    return state.colors


def linked_list_exact_chromatic(n, edges, budget):
    """(k, colors, clique, optimal, nodes) by the iterative DSATUR branch
    and bound on an explicit stack, with saturations kept in
    :class:`LinkedListSaturation`: fast enough for graphs of a thousand
    vertices and for searches of tens of thousands of nodes."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    clique = _recursive_greedy_clique(n, adj)
    best = linked_list_dsatur_greedy(n, adj)
    best_k = max(best) + 1
    lb = len(clique)
    if lb == best_k:
        return best_k, best, clique, True, 0

    state = LinkedListSaturation(adj, best_k)
    for rank, v in enumerate(clique):
        state.assign(v, rank)
    colors, counts = state.colors, state.counts

    # frames [v, next color, colors in use], one per colored vertex
    # outside the clique; the budget is checked on entering a node and
    # after each child that reused a color
    nodes = 0
    exhausted = True
    stack = []
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


class UndoSaturation:
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
        self.undo = []

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


def undo_dsatur_greedy(n, adj):
    """DSATUR's own coloring: each picked vertex takes its first free
    color. Vertices of degree 0 come last and all take color 0."""
    state = UndoSaturation(adj, 0)
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


def undo_exact_chromatic(n, edges, budget):
    """(k, colors, clique, optimal, nodes) by the iterative DSATUR branch
    and bound with its state in :class:`UndoSaturation`, each coloring
    undone when the search backs out of it."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    clique = _recursive_greedy_clique(n, adj)
    best = undo_dsatur_greedy(n, adj)
    best_k = max(best) + 1
    lb = len(clique)
    if lb == best_k:
        return best_k, best, clique, True, 0

    # Fixing the clique's colors breaks color-permutation symmetry and
    # is sound: any proper coloring can be relabeled to match.
    state = UndoSaturation(adj, best_k)
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
    stack = []
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


def _level_ranking(adj):
    """(order, ranked, bit, nbr): the vertices in (-degree, index) order,
    how many of them have a neighbour, and per vertex its own bit and the
    mask of its neighbours, bit r standing for the vertex of rank r.

    Vertices of degree 0 rank last and stay out of the masks, with
    ``bit[v] == 0``: their saturation is always 0, so they are picked only
    once every other vertex is colored, and then in rank order.
    """
    n = len(adj)
    degree = [len(a) for a in adj]
    # a stable sort, so equal degrees stay in index order
    order = sorted(range(n), key=degree.__getitem__, reverse=True)
    ranked = n - degree.count(0)
    bit = [0] * n
    for r in range(ranked):
        bit[order[r]] = 1 << r
    nbr = [0] * n
    for v in order[:ranked]:
        nbr[v] = sum(bit[u] for u in adj[v])
    return order, ranked, bit, nbr


def _pick(order, unc, lev):
    """The vertex of ``unc`` on the highest level, the first in rank order
    on a tie; ``unc`` must be nonzero."""
    for m in reversed(lev):
        m &= unc
        if m:
            return order[(m & -m).bit_length() - 1]


def _raised(lev, x):
    """A copy of the levels with the vertices of x moved up one."""
    lev = lev.copy()
    for s, m in enumerate(lev):  # a vertex moved up leaves x
        y = m & x
        if y:
            lev[s] = m ^ y
            lev[s + 1] |= y
            x ^= y
            if not x:
                break
    return lev


def _level_dsatur_greedy(ranking) -> list[int]:
    """DSATUR's own coloring: each picked vertex takes its first free
    color. Vertices of degree 0 come last and all take color 0."""
    order, ranked, bit, nbr = ranking
    colors = [0] * len(order)
    unc = (1 << ranked) - 1
    near, lev = [], [unc]
    for _ in range(ranked):
        v = _pick(order, unc, lev)
        b = bit[v]
        c = 0
        while c < len(near) and near[c] & b:
            c += 1
        if c == len(near):
            near.append(0)
            lev.append(0)
        colors[v] = c
        unc ^= b
        x = nbr[v] & ~near[c]
        if x:
            near[c] |= x
            lev = _raised(lev, x)
    return colors


def level_exact_chromatic(n, edges, budget):
    """(k, colors, clique, optimal, nodes) by the iterative DSATUR branch
    and bound with its saturations held as levels, ``lev[s]`` the mask of
    the vertices at saturation s, each child building its own copy."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    clique = _recursive_greedy_clique(n, adj)
    ranking = order, ranked, bit, nbr = _level_ranking(adj)
    best = _level_dsatur_greedy(ranking)
    best_k = max(best) + 1
    lb = len(clique)
    if lb == best_k:
        return best_k, best, clique, True, 0

    # Fixing the clique's colors breaks color-permutation symmetry and
    # is sound: any proper coloring can be relabeled to match.
    unc = (1 << ranked) - 1
    near = [0] * best_k
    lev = [unc] + near
    for c, v in enumerate(clique):
        unc ^= bit[v]
        near[c] = nbr[v]
        lev = _raised(lev, nbr[v])

    # Depth-first search on an explicit stack of frames [v, next color,
    # colors in use, unc, near, lev], one per colored vertex outside the
    # clique, holding the state before v is colored: `unc` masks the
    # uncolored vertices, `near[c]` those with a neighbour of color c and
    # `lev[s]` those, colored or not, of saturation s. A child's state is
    # built from its frame's and never undone: the lists a child changes
    # are copies, and the lists it leaves alone are shared, so backing out
    # of a child is just reading its frame again. v's color is the next
    # color less one. A node is entered with `used` colors in use; it
    # tries each free color below `used`, then one new color if that could
    # still beat the best. The budget is checked on entering a node and
    # after each child that reused a color.
    nodes = 0
    exhausted = True
    stack: list[list] = []
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
                    depth = lb + len(stack)
                    if depth == n:
                        best_k, best = used, [-1] * n
                        for c, v in enumerate(clique):
                            best[v] = c
                        for frame in stack:
                            best[frame[0]] = frame[1] - 1
                    else:
                        # with every ranked vertex colored, the next is
                        # isolated and the first of those left in rank order
                        v = _pick(order, unc, lev) if unc else order[depth]
                        stack.append([v, 0, used, unc, near, lev])
        if not stack:
            break
        frame = stack[-1]
        v, c, frame_used, unc, near, lev = frame
        if c:  # a child of this frame has returned
            if c > frame_used:  # it had opened a new color
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
            used = frame_used
        elif frame_used + 1 < best_k:  # c == frame_used: open a new color
            used = frame_used + 1
        else:
            stack.pop()
            continue
        frame[1] = c + 1
        unc ^= b
        x = nbr[v] & ~near[c]
        if x:
            near = near.copy()
            near[c] |= x
            lev = _raised(lev, x)
        entering = True
    optimal = exhausted or best_k == lb
    return best_k, best, clique, optimal, nodes


def level_dsatur_greedy(n, adj):
    """DSATUR's own coloring on the saturation levels."""
    return _level_dsatur_greedy(_level_ranking(adj))


def _lattice_axis(lo, hi, step):
    return [k * step for k in range(math.ceil(lo / step), math.floor(hi / step) + 1)]


def _lattice_count(lo, hi, step):
    return max(0, math.floor(hi / step) - math.ceil(lo / step) + 1)


def _translate_meets_body(K, lam, center):
    # z in K and (z - center)/lam in K: sum(a_i v_i) - lam * sum(b_i v_i)
    # = center with both combinations convex
    n = len(K.vertices)
    shrunk = tuple(tuple(-lam * c for c in v) for v in K.vertices)
    res = lp.solve_combination((*K.vertices, *shrunk), center, groups=[range(n), range(n, 2 * n)])
    return res.status == OPTIMAL


def _in_translate(K, lam, center, point):
    return contains_point(K.vertices, tuple(c / lam for c in vsub(point, center)))


def per_pair_greedy_cover(K, lam, grid_step) -> Covering:
    """Greedy cover with one membership LP per (witness, center) pair,
    over the centers whose translate meets K (valid lam and grid_step).
    Grids past ``MAX_GRID_POINTS`` points, or past ``MAX_COVER_PAIRS``
    witness-center pairs between them, are refused with ``InvalidInput``
    as ``greedy_cover`` refuses them, before any LP."""
    dim = K.dim
    lo = [min(v[i] for v in K.vertices) for i in range(dim)]
    hi = [max(v[i] for v in K.vertices) for i in range(dim)]
    inner = math.prod(_lattice_count(lo[i], hi[i], grid_step) for i in range(dim))
    outer = math.prod(_lattice_count(lo[i] - lam * hi[i], hi[i] - lam * lo[i], grid_step) for i in range(dim))
    if max(inner, outer) > MAX_GRID_POINTS:
        raise InvalidInput(f"grid step too fine: more than {MAX_GRID_POINTS} lattice points per grid")
    if inner * outer > MAX_COVER_PAIRS:
        raise InvalidInput(f"grid step too fine: {inner} x {outer} witness-center pairs, more than {MAX_COVER_PAIRS}")
    witnesses = set(K.vertices)
    for p in product(*(_lattice_axis(lo[i], hi[i], grid_step) for i in range(dim))):
        if contains_point(K.vertices, p):
            witnesses.add(p)
    witnesses = sorted(witnesses)
    outer = [_lattice_axis(lo[i] - lam * hi[i], hi[i] - lam * lo[i], grid_step) for i in range(dim)]
    candidates = [c for c in product(*outer) if _translate_meets_body(K, lam, c)]
    coverage = {
        c: frozenset(i for i, w in enumerate(witnesses) if _in_translate(K, lam, c, w))
        for c in candidates
    }
    uncovered = set(range(len(witnesses)))
    centers = []
    while uncovered:
        best_center, best_gain = None, 0
        for c in candidates:
            gain = len(coverage[c] & uncovered)
            if gain > best_gain or (gain == best_gain and gain > 0 and c < best_center):
                best_center, best_gain = c, gain
        if best_center is None:
            raise GridTooCoarse(f"{len(uncovered)} witnesses cannot be covered from this grid")
        centers.append(best_center)
        uncovered -= coverage[best_center]
    return Covering(lam, tuple(centers), K, SAMPLE_CERTIFIED, tuple(witnesses))


def per_pair_cover_to_partition(S, cov) -> Partition:
    """Each point to the first translate containing it, one LP per test."""
    buckets = {}
    for idx, p in enumerate(S.points):
        for c_idx, center in enumerate(cov.centers):
            if _in_translate(cov.body, cov.ratio, center, p):
                buckets.setdefault(c_idx, []).append(idx)
                break
        else:
            raise PointUncovered(f"point {p} lies in no covering translate")
    return Partition(len(S.points), tuple(tuple(buckets[k]) for k in sorted(buckets)))


def pairwise_max_by_fractions(C, points):
    """Largest gauge of p_i - p_j over pairs i < j, and every pair
    attaining a positive maximum, in (i, j) order; no memo."""
    best, witnesses = ZERO, []
    for i, j in combinations(range(len(points)), 2):
        d = gauge(C, vsub(points[i], points[j]))
        if d > best:
            best, witnesses = d, [(i, j)]
        elif d == best and d > 0:
            witnesses.append((i, j))
    return best, witnesses


def memo_pairwise_max(C, points):
    """Largest gauge of p_i - p_j over pairs i < j, and every pair
    attaining a positive maximum, in (i, j) order; one gauge per distinct
    difference up to sign, since g(-z) = g(z)."""
    memo = {}
    best, witnesses = ZERO, []
    for i, j in combinations(range(len(points)), 2):
        key = canonical_sign(vsub(points[i], points[j]))
        d = memo.get(key)
        if d is None:
            d = memo[key] = gauge(C, key)
        if d > best:
            best, witnesses = d, [(i, j)]
        elif d == best and d > 0:
            witnesses.append((i, j))
    return best, witnesses


def lp_path(patch):
    """While ``patch`` (a pytest monkeypatch) is active no body has an
    exact hull, so pruning, gauges and membership of vertex bodies in
    every dimension are all answered by exact LPs. Certification is a
    rank check on either path; :func:`axis_extent_verdict` is its LP
    reference. Minkowski sums and difference bodies prune their integer
    sums through a polytope's ``hull`` too, so they prune them by LPs."""
    for kind in (VPolytope, SymmetricBody):
        patch.setattr(kind, "hull", property(lambda body: None))
    # read afresh, so normals a body kept from before do not outlive its hull
    patch.setattr(SymmetricBody, "normals", property(SymmetricBody.normals.func))


def _axis_extent(vertices: tuple[Vec, ...], axis: int) -> Fraction:
    """Largest t with t*e_axis in conv(vertices), by exact LP.

    For a negation-closed vertex set the origin is interior exactly when
    this extent is positive along every axis (the hull then contains a
    small cross-polytope around the origin).
    """
    dim = len(vertices[0])
    n = len(vertices)
    step = tuple(-ONE if k == axis else ZERO for k in range(dim))
    res = lp.solve_combination(
        (*vertices, step), (ZERO,) * dim, cost=[ZERO] * n + [-ONE], groups=[range(n)]
    )
    if res.status != lp.OPTIMAL:
        return ZERO
    return -res.value


def axis_extent_verdict(vertices: tuple[Vec, ...]):
    """True when the origin is interior to the hull of the negation-closed
    vertex tuple, ``DegenerateBody`` when it is not: by one exact LP per
    axis, the reference for the rank check that certifies a vertex body
    as it is made."""
    return True if all(_axis_extent(vertices, k) > 0 for k in range(len(vertices[0]))) else DegenerateBody


def construction_verdict(vertices: tuple[Vec, ...]):
    """True when the vertex tuple makes a body, else the class of the
    error its construction raises: the verdict to compare with
    :func:`axis_extent_verdict`."""
    try:
        SymmetricBody(len(vertices[0]), vertices=vertices)
    except (DegenerateBody, NotSymmetric) as exc:
        return type(exc)
    return True


def facets_by_triples(points):
    """The facets ``n . X <= c`` of the hull of full-dimensional points in
    space, over the points times the least common denominator of their
    coordinates, with ``n`` and ``c`` integers free of a common factor: by
    brute force, every plane through three of the points that has all of
    them on one side."""
    m = math.lcm(*(c.denominator for p in points for c in p))
    P = sorted({tuple(int(c * m) for c in p) for p in points})
    facets = set()
    for a, b, q in combinations(P, 3):
        u, v = vsub(b, a), vsub(q, a)
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if n == (0, 0, 0):
            continue
        c = sum(x * y for x, y in zip(n, a))
        dots = [sum(x * y for x, y in zip(n, X)) for X in P]
        for sign in (1, -1):
            if all(sign * t <= sign * c for t in dots):
                g = math.gcd(*n, c)
                facets.add((tuple(sign * x // g for x in n), sign * c // g))
    return facets


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


def counter_clockwise(vertices):
    """The vertices of a convex polygon counter-clockwise from the least,
    by angle about their centroid, for tests that walk its edges."""
    o = tuple(sum(c) / len(vertices) for c in zip(*vertices))
    ring = [tuple(a + b for a, b in zip(v, o)) for v in _angular_sort([vsub(v, o) for v in vertices])]
    i = ring.index(min(ring))
    return ring[i:] + ring[:i]


def outline_by_facet_crossings(C: SymmetricBody):
    """The corners of a planar unit ball by increasing angle in [0, 2 pi):
    a vertex body's hull vertices sorted by angle, and for a facet body
    every crossing of two facet lines that satisfies all the facets."""
    if C.vertices is not None:
        # the hull drops inner points and collinear boundary points, which
        # would dent the outline or add corners that are none
        return _angular_sort(graham_hull_2d(C.vertices))
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


def negate(K: VPolytope) -> VPolytope:
    """Reflect a polytope through the origin. Involutive; keeps pruning."""
    return VPolytope(K.dim, tuple(vneg(v) for v in K.vertices), pruned=K.pruned)


def fraction_scale_polytope(K: VPolytope, t: Fraction) -> VPolytope:
    """K times t, each vertex a ``Fraction`` tuple."""
    return VPolytope(K.dim, tuple(tuple(t * x for x in v) for v in K.vertices), pruned=K.pruned)


def cross_distances(C, xs, ys):
    """``distance(C, x, y)`` for every x in xs and y in ys, x before y."""
    return [distance(C, x, y) for x in xs for y in ys]


def fraction_minkowski_sum(A: VPolytope, B: VPolytope) -> VPolytope:
    """The Minkowski sum with every pairwise vertex sum a ``Fraction``
    tuple, hashed into a set and pruned: the hull of the sums then takes
    their least common denominator as its scale."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"dims {A.dim} and {B.dim} differ")
    sums = {tuple(x + y for x, y in zip(a, b)) for a in A.vertices for b in B.vertices}
    return prune_redundant(VPolytope(A.dim, tuple(sorted(sums))))


def fraction_difference_body(K: VPolytope) -> SymmetricBody:
    """K - K from ``Fraction`` vertices: twice the pruned vertices when K is
    closed under negation, else :func:`fraction_minkowski_sum` of K and -K,
    keeping the hull of its sums."""
    if not is_full_dimensional(K):
        raise DegenerateBody("difference body requires a full-dimensional polytope")
    vset = set(K.vertices)
    if all(vneg(v) in vset for v in vset):
        base = K if K.pruned else prune_redundant(K)
        verts, hull = tuple(sorted({tuple(2 * c for c in v) for v in base.vertices})), None
    else:
        sums = fraction_minkowski_sum(K, negate(K))
        verts, hull = sums.vertices, sums.hull
    return SymmetricBody(K.dim, vertices=verts, seed_hull=hull)


def certified_normals(C: SymmetricBody):
    """``(L, N)`` for C as ``SymmetricBody.normals`` gives it, or None,
    each normal certified against C's vertices at the scale of its scaled
    form, and a hull's facets checked to close up around its corners; a
    lift made by ``lift_body`` (it keeps its ``lift_base``), and a body on
    two levels with no hull, have their normals made from their slice's,
    which are this function's own."""
    d = C.dim
    if C.facets is not None:
        for _, b in C.facets:
            if b <= 0:
                raise DegenerateBody(f"facet offset {b} is not strictly positive")
        L, rows = over_common_denominator([tuple(Fraction(c, b) for c in a) for a, b in C.facets])
        if matrix_rank(rows) < d:
            raise DegenerateBody("facet normals do not span the space (unbounded)")
        return L, rows + tuple(tuple(-c for c in n) for n in rows)
    hull = None if C.lift_base is not None else C.hull
    if hull is None:
        lifted = _lift_normals(C)
        if lifted is None:
            return None
        L, normals = lifted
    else:
        if not all(c > 0 for _, c in hull.planes):
            raise DegenerateBody("origin is not interior (body not full-dimensional)")
        s = hull.scale
        L = math.lcm(*(c // math.gcd(s * math.gcd(*n), c) for n, c in hull.planes))
        normals = tuple(tuple(k * s * L // c for k in n) for n, c in hull.planes)
    s, points = C.scaled
    one = L * s
    corners = set(hull.corners) if hull is not None else set()
    incidences = 0
    for a in normals:
        tight = []
        for X in points:
            t = sum(x * y for x, y in zip(a, X))
            if t >= one:
                if t > one:
                    raise ArithmeticError(f"vertex {X}/{s} is outside facet normal {a}/{L}")
                tight.append(X)
        if matrix_rank(tight) < d:
            raise ArithmeticError(f"facet normal {a}/{L} holds fewer than {d} independent vertices")
        incidences += len(corners.intersection(tight))
    V, F = len(corners), len(normals)
    if hull is not None and ((F != V) if d < 3 else (2 * V - incidences + 2 * F != 4)):
        raise ArithmeticError(f"the {F} facets of the hull do not close up around its {V} corners")
    return L, normals


def _lift_normals(C: SymmetricBody):
    """A symmetric lift's normals from its slice's, uncertified, or None."""
    if C._levels is None:
        return None
    h, base = C._levels
    D = base.difference
    slice_normals = certified_normals(D)
    if slice_normals is None:
        return None
    LD, slice_normals = slice_normals
    m, points = base.scaled
    p, q = h.numerator, h.denominator
    normals = []
    for N in slice_normals:
        col = [sum(x * y for x, y in zip(N, X)) for X in points]
        normals.append(tuple(2 * m * p * c for c in N) + (-(max(col) + min(col)) * q,))
    level = (0,) * (C.dim - 1) + (q * m * LD,)
    normals += [level, tuple(-c for c in level)]
    L = m * LD * p
    g = math.gcd(L, *(c for n in normals for c in n))
    return L // g, tuple(tuple(c // g for c in n) for n in normals)


def _fraction_point(rng, dim, max_numerator, max_denominator):
    return tuple(
        Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator)) for _ in range(dim)
    )


def fraction_gen_random_body(seed, dim, n_vertex_pairs, max_numerator=16, max_denominator=16) -> SymmetricBody:
    """``gen_random_body`` with every point a ``Fraction`` tuple."""
    rng = random.Random(seed)
    for _ in range(64):
        pts = [_fraction_point(rng, dim, max_numerator, max_denominator) for _ in range(n_vertex_pairs)]
        sym = set(pts) | {tuple(-c for c in p) for p in pts}
        pruned = prune_redundant(VPolytope(dim, tuple(sorted(sym))))
        try:
            return SymmetricBody(dim, vertices=pruned.vertices, seed_hull=pruned.hull)
        except DegenerateBody:
            continue
    raise GenerationFailed("no full-dimensional symmetric body after 64 tries")


def fraction_gen_random_polytope(seed, dim, n_points, max_numerator=16, max_denominator=16) -> VPolytope:
    """``gen_random_polytope`` with every point a ``Fraction`` tuple."""
    rng = random.Random(seed)
    for _ in range(64):
        pts = {_fraction_point(rng, dim, max_numerator, max_denominator) for _ in range(n_points)}
        if len(pts) < dim + 1:
            continue
        cand = VPolytope(dim, tuple(sorted(pts)))
        if is_full_dimensional(cand):
            return prune_redundant(cand)
    raise GenerationFailed("no full-dimensional polytope after 64 tries")


def fraction_gen_random_points(seed, dim, count, max_numerator=16, max_denominator=16) -> PointSet:
    """``gen_random_points`` with every point a ``Fraction`` tuple, drawn
    and checked against those kept one at a time."""
    rng = random.Random(seed)
    pts, seen, attempts = [], set(), 0
    while len(pts) < count:
        p = _fraction_point(rng, dim, max_numerator, max_denominator)
        attempts += 1
        if attempts > 100 * count:
            raise GenerationFailed("cannot sample enough distinct points")
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return PointSet(dim, tuple(pts))


def list_scan_planar_instance(s, i):
    """The planar verify instance from the ``Fraction`` generators, each
    drawn point checked by ``not in`` against a list of ``Fraction``
    tuples."""
    C = fraction_gen_random_body(s, 2, 3 + (i % 4), max_numerator=16, max_denominator=16)
    target = 4 + (i % 9)
    pts = []
    if i % 3 == 0:
        pts.extend(C.vertices[: min(len(C.vertices), target)])
    for p in fraction_gen_random_points(s + 1, 2, target, max_numerator=16, max_denominator=16).points:
        if len(pts) >= target and pts:
            break
        if p not in pts:
            pts.append(p)
    return C, PointSet(2, tuple(pts))
