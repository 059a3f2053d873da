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
recomputes every saturation at every node. :func:`per_pair_greedy_cover`
and :func:`per_pair_cover_to_partition` are the references for the
covering layer: one membership LP per (witness, center) pair, and only
centers whose translate meets the body, as an LP of its own.
:func:`pairwise_max_by_fractions` and :func:`memo_pairwise_max` are
the references for the diameter pass, which projects integer points onto
integer normals: every pair's gauge of its ``Fraction`` difference, with
no memo and with one memo on the sign-canonical difference.
:func:`lp_path` sends every body down the package's exact LP path, the
reference its exact hulls are tested against, and
:func:`facets_by_triples` is the reference for the facets of a hull in
space: every plane through three of the points with all points on one
side.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from borsuk import lp
from borsuk.bodies import PointSet, SymmetricBody, VPolytope, contains_point
from borsuk.covering import SAMPLE_CERTIFIED, Covering
from borsuk.errors import GridTooCoarse, IndexOutOfRange, PointUncovered
from borsuk.linalg import canonical_sign, vsub
from borsuk.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult
from borsuk.metric import gauge, set_diameter
from borsuk.partition import Partition

ZERO = Fraction(0)
ONE = Fraction(1)


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


def _lattice_axis(lo, hi, step):
    return [k * step for k in range(math.ceil(lo / step), math.floor(hi / step) + 1)]


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
    over the centers whose translate meets K (valid lam and grid_step)."""
    dim = K.dim
    lo = [min(v[i] for v in K.vertices) for i in range(dim)]
    hi = [max(v[i] for v in K.vertices) for i in range(dim)]
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
    exact hull, so pruning, certification, gauges and membership of
    vertex bodies in every dimension are all answered by exact LPs."""
    for kind in (VPolytope, SymmetricBody):
        patch.setattr(kind, "hull", property(lambda body: None))
    # read afresh, so normals a body kept from before do not outlive its hull
    patch.setattr(SymmetricBody, "normals", property(SymmetricBody.normals.func))


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
