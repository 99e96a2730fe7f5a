"""The classification oracle and window-scale membership certification.

Sweeps every theta for a few algebras, then cross-checks one nontrivial
verdict by instantiating the family and certifying the three category
conditions, and one trivial verdict by replaying the restriction
obstruction.
"""
from fractions import Fraction as F

from weightcat.categorio import check_membership, classify
from weightcat.degonemod import build_N
from weightcat.inducemod import LeviModule, probe_restriction_failure
from weightcat.rootsys import build_root_system

for name in ("A3", "C3", "B3", "D4", "G2"):
    system = build_root_system(name)
    n = system.rank
    print(name)
    for mask in range(1 << n):
        theta = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        v = classify(system, theta)
        comp = sorted(set(range(1, n + 1)) - theta)
        fam = ""
        if v.family:
            fam = f"  family {v.family.kind}(-1^{v.family.minus_ones}, *^{v.family.free}, 0^{v.family.zeros})"
        print(f"  theta={sorted(theta)!s:12} complement={comp!s:10} -> {v.kind}{fam}")
    print()

v = classify(build_root_system("A4"), frozenset({1, 4}))
module = v.family.instantiate([F(1, 2), F(1, 3), F(1, 5)])
rep = check_membership(module, frozenset({1, 4}), radius=3)
print("A4, complement {e2,e3}: instantiated family passes membership:", rep.passed)

c2 = build_root_system("C2")
C = LeviModule(c2, [([1], build_N([F(1, 4), F(1, 7)]))], {2: F(2, 3)})
probe = probe_restriction_failure(C, depth=3)
print("C2, complement {e1}: restriction impossible:", probe.restriction_impossible,
      " witness roots:", probe.witness)
