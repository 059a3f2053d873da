"""Exact linear programming over the rationals.

A dense-tableau primal simplex run in two phases, with Bland's
smallest-index rule for both the entering and the leaving variable.
Inputs are exact rationals (ints or ``fractions.Fraction``); the
package's callers hand integer rows, the scaled forms of its polytopes
and bodies, and only a point asked about through the API, by a gauge or
a membership test, can hold ``Fraction``s. The tableau
is fraction-free: the constraint rows are scaled to integers by one
common denominator, and pivoting is done on Python ints over a single
common denominator per tableau, with exact Edmonds-Bareiss division.
Every sign and every ratio Bland's rule compares is the one the
rational tableau would show, so the pivot sequence and the optimum are
those of the rational simplex, and the rule guarantees termination (no
cycling). Results are returned as ``Fraction``.

Problems are stated in equality standard form::

    minimize    c . x
    subject to  A x = b,  x >= 0

which is all the geometry in this package needs from dimension 4:
convex-hull membership and gauge evaluation are each a single small
instance of this form, built by :func:`solve_combination`. Bodies in
dimensions 1 to 3 answer these from their exact hull instead
(:func:`borsuk.bodies.integer_hull`), except for flat point sets, which
take the LP in every dimension, and symmetric lifts in dimension 4
answer gauges from the hull of their slice. Certifying a body, which its
constructor does, needs no LP in any dimension: it is a closure test and
one rank.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._value import Value

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult(Value):
    _fields = ("status", "value", "x", "pivots")
    status: str
    value: Fraction | None
    x: list[Fraction] | None
    pivots: int

    def __init__(self, status, value=None, x=None, pivots=0):
        vars(self).update(status=status, value=value, x=x, pivots=pivots)


class _Tableau:
    """Integer tableau over one common denominator.

    The rational tableau is ``rows / d`` and the reduced-cost row is
    ``red / (d * s)`` for a fixed positive cost scale ``s``; ``d`` stays
    positive, so every sign of the integer entries is the rational sign.
    """

    __slots__ = ("rows", "red", "basis", "d", "pivots")

    def __init__(self, rows, red, basis):
        self.rows = rows
        self.red = red
        self.basis = basis
        self.d = 1
        self.pivots = 0


def _integers(values, scale):
    return [v.numerator * (scale // v.denominator) for v in values]


def solve_min(c, A, b) -> LPResult:
    """Minimize ``c . x`` over ``{x >= 0 : A x = b}``, exactly.

    ``A`` is a list of rows. Entries are ints or Fractions. Returns
    an optimal basic solution, or a result with status
    "infeasible"/"unbounded"; ``pivots`` counts the simplex pivots.
    """
    scale = lcm(*{v.denominator for row in (*A, b) for v in row})
    cost_scale = lcm(*{v.denominator for v in c})
    m = len(A)
    n = len(c)

    # Phase-1 tableau: structural columns 0..n-1, one artificial per row,
    # rhs in the last column, all scaled to ints by one common
    # denominator. Rows are flipped so the rhs is nonnegative. One
    # positive scale for every row leaves the sign of each reduced cost
    # and the order of each ratio-test comparison as they were.
    width = n + m
    rows = []
    for i in range(m):
        row = _integers([*A[i], b[i]], scale)
        if row[n] < 0:
            row = [-v for v in row]
        rhs = row.pop()
        row += [0] * m
        row[n + i] = 1
        row.append(rhs)
        rows.append(row)

    # Reduced costs for phase 1 (artificial basis, unit costs on
    # artificials): r_j = -sum_i a_ij on structural columns, r[-1] holds
    # minus the current objective value.
    red = [-sum(col) for col in zip(*rows)] if rows else [0] * (width + 1)
    red[n:width] = [0] * m
    tab = _Tableau(rows, red, list(range(n, width)))

    status = _iterate(tab, n_cols=width)
    if status != OPTIMAL or tab.red[width] != 0:
        return LPResult(INFEASIBLE, pivots=tab.pivots)

    # Drive leftover artificials out of the basis; a row where that is
    # impossible is a redundant constraint and is dropped.
    keep = []
    for i in range(len(tab.rows)):
        if tab.basis[i] < n:
            keep.append(i)
            continue
        pivot_col = next((j for j in range(n) if tab.rows[i][j] != 0), None)
        if pivot_col is not None:
            _pivot(tab, i, pivot_col)
            keep.append(i)

    # Phase 2: truncate artificial columns and rebuild reduced costs
    # from the real objective, held as ints over cost_scale * d.
    rhs_col = n
    tab.rows = [tab.rows[i][:n] + [tab.rows[i][width]] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]
    cost = _integers(c, cost_scale)
    red = [tab.d * v for v in cost] + [0]
    for i, row in enumerate(tab.rows):
        f = cost[tab.basis[i]]
        if f != 0:
            red = [u - f * v for u, v in zip(red, row)]
    tab.red = red

    status = _iterate(tab, n_cols=n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=tab.pivots)

    d = tab.d
    x = [ZERO] * n
    for i, bi in enumerate(tab.basis):
        x[bi] = Fraction(tab.rows[i][rhs_col], d)
    value = Fraction(-tab.red[rhs_col], cost_scale * d)
    return LPResult(OPTIMAL, value=value, x=x, pivots=tab.pivots)


def _iterate(tab, n_cols) -> str:
    """Run Bland-rule pivots until optimal or unbounded."""
    rhs_col = len(tab.red) - 1
    basis = tab.basis
    while True:
        red = tab.red
        enter = next((j for j in range(n_cols) if red[j] < 0), None)
        if enter is None:
            return OPTIMAL
        # smallest ratio rhs/a over rows with a > 0, compared by
        # cross-multiplying (both denominators are positive)
        leave = None
        for i, row in enumerate(tab.rows):
            a = row[enter]
            if a > 0:
                r = row[rhs_col]
                if leave is None:
                    leave, best_r, best_a = i, r, a
                    continue
                lhs, rhs = r * best_a, best_r * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_r, best_a = i, r, a
        if leave is None:
            return UNBOUNDED
        _pivot(tab, leave, enter)


def _pivot(tab, i, j):
    """Pivot on entry (i, j): row i is kept, every other row ``u`` becomes
    ``(p*u - f*v) // d`` (an exact division), and ``d`` becomes the pivot."""
    rows = tab.rows
    row = rows[i]
    p = row[j]
    if p < 0:  # keep the common denominator positive
        rows[i] = row = [-v for v in row]
        p = -p
    tab.red = _eliminate(tab.red, row, j, p, tab.d)
    for k, other in enumerate(rows):
        if k != i:
            rows[k] = _eliminate(other, row, j, p, tab.d)
    tab.d = p
    tab.basis[i] = j
    tab.pivots += 1


def _eliminate(other, row, j, p, d):
    """``other`` after a pivot p on ``row``, over the new denominator p."""
    f = other[j]
    if f == 0:
        return other if p == d else [p * u // d for u in other]
    return [(p * u - f * v) // d for u, v in zip(other, row)]


def solve_combination(columns, target, cost=None, groups=()) -> LPResult:
    """Minimize ``cost . w`` over weights ``w >= 0`` on the columns with
    ``sum_j w_j * columns[j] == target`` and, for each group (a range of
    column indices), the group's weights summing to one.

    The rows are the coordinate rows in order, then one row per group.
    ``cost`` defaults to zero, which makes the call a feasibility test.
    """
    n = len(columns)
    A = [[col[k] for col in columns] for k in range(len(target))]
    for group in groups:
        A.append([ONE if j in group else ZERO for j in range(n)])
    b = list(target) + [ONE] * len(groups)
    return solve_min([ZERO] * n if cost is None else cost, A, b)
