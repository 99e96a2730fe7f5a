"""Cocycles, coboundaries, and extension vanishing.

Shows the one-parameter family of self-extensions of a rank-one cuspidal
module, the vanishing constraint systems for the interior type A and the
long-root type C families, and the rank-two type C spot check where every
window cocycle is a coboundary.
"""
import random

from weightcat.degonemod import build_M, build_N
from weightcat.extcoh import (coboundary_quotient_dim, cocycle_space, ext_solve, is_coboundary,
                              make_sl2_cocycle)

sl2 = build_N(["1/2", "1/3"])
c = make_sl2_cocycle(1, sl2, radius=6)
print("inverse-shift cocycle at the base vector:", c.value(sl2.system.simple_root(1), (0, 0)))
print("is it a coboundary?", is_coboundary(c, 3))
print("self-extension space mod coboundaries, B=3:", coboundary_quotient_dim(sl2, sl2, 3))
print("non-isomorphic pair, B=3:              ",
      coboundary_quotient_dim(sl2, build_N(["1/5", "2/5"]), 3))

print()
na = build_N(["-1", "1/2", "1/3", "0"])
for radius in (3, 4):
    cs = ext_solve(na, na, radius=radius)
    print(f"interior type A self pair, B={radius}: solution dimension {cs.dimension}")
mc = build_M(["-1", "-1", "1/4"])
for radius in (3, 4):
    cs = ext_solve(mc, mc, radius=radius)
    print(f"long-root type C self pair, B={radius}: solution dimension {cs.dimension}")
print("disjoint-support pair:",
      ext_solve(build_M(["-1", "1/4"]), build_M(["-1", "5/4"]), radius=3).status)

print()
rng = random.Random(1)
ma = build_M(["1/4", "1/3"])
space = cocycle_space(ma, ma, 2)
print(f"rank-two type C cuspidal self pair: window cocycle space has dimension {space.dimension}")
witnessed = sum(1 for _ in range(10) if is_coboundary(space.random_cocycle(rng), 2) is not None)
print(f"random cocycles admitting a coboundary witness: {witnessed}/10")
