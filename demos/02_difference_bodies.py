#!/usr/bin/env python3
"""Difference bodies and why their norm self-normalizes diameters.

D(K) = K - K is always centrally symmetric, so it defines a norm. Under
that norm the body K itself has diameter exactly 1, and D(K) has
diameter exactly 2 - no scaling required. Both facts are verified here
with exact arithmetic on a few bodies.
"""

from borsuk import (
    VPolytope,
    difference_body,
    gauge,
    minkowski_sum,
    polytope_diameter,
    vpolytope,
)

triangle = vpolytope([(0, 0), (1, 0), (0, 1)])

# The difference body is computed as a Minkowski sum with the negation,
# followed by exact redundancy pruning of the 9 pairwise differences.
D = difference_body(triangle)
print("triangle difference body vertices:")
for v in D.vertices:
    print("  ", tuple(str(c) for c in v))

# Minkowski sums enumerate all pairwise vertex sums and prune.
sq = minkowski_sum(vpolytope([(0, 0), (1, 0)]), vpolytope([(0, 0), (0, 1)]))
print("\nsegment + segment =", sorted(sq.vertices))

# The self-normalizing identities: d_{D(K)}(K) = 1 and d_{D(K)}(D(K)) = 2.
print("\ndiameter of the triangle in its own difference norm:",
      polytope_diameter(D, triangle))
print("diameter of D(K) in the same norm:",
      polytope_diameter(D, VPolytope(2, D.vertices, pruned=True)))

# For already-symmetric K the difference body is just 2K.
square = vpolytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
print("\nD(square) =", sorted(difference_body(square).vertices))

# Every vertex of D(K) is a difference of two vertices of K, and the
# gauge certifies the boundary: gauge exactly 1 at each vertex.
print("gauges of D(K) vertices under D(K):",
      [str(gauge(D, v)) for v in D.vertices])
