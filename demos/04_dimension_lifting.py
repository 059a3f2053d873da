#!/usr/bin/env python3
"""Symmetric dimension lifting and the doubling of partition numbers.

From a polytope K in dimension n, build the symmetric body one
dimension up whose vertex set is (K x {+1}) united with (-K x {-1}).
Under the difference norm of the lifted body:

  * each copy has diameter exactly 1,
  * every cross-copy distance is exactly 1, so the diameter graph of
    the doubled point set is the join of two copies of the original,
  * and therefore the partition number exactly doubles.

All three facts are verified on exact instances below.
"""

from borsuk import (
    borsuk_number,
    difference_body,
    distance,
    doubling_check,
    lift_body,
    lift_set,
    point_set,
    set_diameter,
    vpolytope,
)

triangle = vpolytope([(0, 0), (1, 0), (0, 1)])
S = point_set(triangle.vertices)

lifted = lift_body(triangle)
print("lifted body vertices (last coordinate is the copy sign):")
for v in lifted.vertices:
    print("  ", tuple(str(c) for c in v))

D_up = difference_body(vpolytope(lifted.vertices, pruned=True))
doubled = lift_set(S)
n = len(S.points)

upper = point_set(doubled.points[:n])
lower = point_set(doubled.points[n:])
print("\nupper copy diameter:", set_diameter(D_up, upper)[0])
print("lower copy diameter:", set_diameter(D_up, lower)[0])

print("cross-copy distances:")
for a in range(n):
    row = [str(distance(D_up, doubled.points[a], doubled.points[n + b])) for b in range(n)]
    print("  ", row)

b1 = borsuk_number(difference_body(triangle), S).number
b2 = borsuk_number(D_up, doubled).number
print(f"\npartition number before lifting: {b1}")
print(f"partition number after lifting : {b2}")

# The packaged check does the same comparison in one call.
print("doubling_check:", doubling_check(triangle, S))

seg = vpolytope([(-1,), (1,)])
print("\nsame story one dimension down:", doubling_check(seg, point_set(seg.vertices)))
