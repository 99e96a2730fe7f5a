"""Truncated parabolic induction and the simple quotient.

Induces from a rank-one cuspidal module over A2 with a chosen central
character, projects vectors to the simple quotient, and extracts the
lowering ratio that the choice of central branch forces.
"""
from fractions import Fraction as F

from weightcat.degonemod import build_N
from weightcat.inducemod import LeviModule, central_scalars, induce, u0_compare
from weightcat.rootsys import build_root_system

a1, a2 = F(1, 2), F(1, 3)
A = a1 + a2
system = build_root_system("A2")

for branch, c in (("0", F(0)), ("-1-A", -1 - A)):
    C = LeviModule(system, [([1], build_N([a1, a2]))], {2: c + a2})
    V = induce(C, 4)
    print(f"branch c = {c}")
    print("  central scalars:", central_scalars(C, [(0, 0), (1, -1)]))
    alpha, beta = system.simple_root(1), system.simple_root(2)
    ab = tuple(x + y for x, y in zip(alpha, beta))
    for k in (0, 1):
        v = V.monomial_tensor([tuple(-x for x in ab)], (k, -k))
        w = V.monomial_tensor([tuple(-x for x in beta)], (k - 1, -(k - 1)))
        eta = V.proportionality(v, w)
        print(f"  eta({k}) = {eta}   closed form {(c + a1 + k) / (a2 - k + 1)}")

# a wrong central value leaves the two vectors independent in the quotient
Cbad = LeviModule(system, [([1], build_N([a1, a2]))], {2: F(9, 7) + a2})
Vbad = induce(Cbad, 4)
alpha, beta = system.simple_root(1), system.simple_root(2)
ab = tuple(x + y for x, y in zip(alpha, beta))
v = Vbad.monomial_tensor([tuple(-x for x in ab)], (0, 0))
w = Vbad.monomial_tensor([tuple(-x for x in beta)], (-1, 1))
print("off-branch central value: proportionality =", Vbad.proportionality(v, w))

# the quotient with branch 0 is the three-parameter degree-one module
C0 = LeviModule(system, [([1], build_N([a1, a2]))], {2: a2})
V0 = induce(C0, 5)
print("quotient matches N(a1,a2,0):",
      u0_compare(V0, build_N([a1, a2, 0])))
