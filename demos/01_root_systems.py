"""Root systems, realized brackets, and root-subset predicates.

Builds a handful of root systems, checks the classical root counts, prints
the root monomials of the Weyl-algebra realizations and a few brackets read
from their integer bracket table, and classifies some root subsets.
"""
from fractions import Fraction

from weightcat.rootsys import (RootSubset, add_roots, build_root_system, classify_subset,
                               lattice_disjoint, levi_decomposition)


def show(mono):
    """X_root = num/2 q^qexp p^pexp as text."""
    qexp, pexp, num = mono
    letters = "".join(f"{x}{i + 1}" + (f"^{e}" if e > 1 else "")
                      for x, exps in (("q", qexp), ("p", pexp)) for i, e in enumerate(exps) if e)
    return f"{Fraction(num, 2)}*{letters}"


def coroot_sum(coeffs):
    return " + ".join(f"{c}*H_e{i}" for i, c in enumerate(coeffs, 1) if c)


for name in ("A2", "A4", "B3", "C3", "D4", "F4", "G2", "E6"):
    rs = build_root_system(name)
    print(f"{name}: {len(rs.roots)} roots, simple basis of size {rs.rank}")

print()
for name in ("A2", "C2"):
    rs = build_root_system(name)
    print(f"{name} root monomials:",
          ", ".join(f"X{r} = {show(rs.realization.monomial(r))}" for r in rs.ordered_roots))

a3 = build_root_system("A3")
real = a3.realization
e1, e2 = a3.simple_root(1), a3.simple_root(2)
print("A3:  [X_e1, X_e2] =", real.structure_constant(e1, e2), "* X_(e1+e2)")
print("A3:  [X_e1, X_-e1] =", coroot_sum(real.cartan_coefficients(e1)))
print("A3:  [X_e1+e2, X_-(e1+e2)] =", coroot_sum(real.cartan_coefficients(add_roots(e1, e2))))

c2 = build_root_system("C2")
e1, e2 = c2.simple_root(1), c2.simple_root(2)
short = add_roots(e1, e2)
print("C2:  [X_e1, X_e2] =", c2.realization.structure_constant(e1, e2), "* X_(e1+e2)")
print("C2:  [X_e1, X_e1+e2] =", c2.realization.structure_constant(e1, short), "* X_(2e1+e2)")
print("C2:  [X_e2, X_-e2] =", coroot_sum(c2.realization.cartan_coefficients(e2)))
print("C2:  [X_e1+e2, X_-(e1+e2)] =", coroot_sum(c2.realization.cartan_coefficients(short)))

print()
a2 = build_root_system("A2")
positive = RootSubset.of(a2, [r for r in a2.roots if sum(r) > 0])
flags = classify_subset(positive)
print("A2 positive roots:", flags)
levi = RootSubset.generated_by_simples(a2, [1])
print("A2 span of e1:   ", classify_subset(levi))
print("lattices of {±e1} and {±(e1+e2)} disjoint:",
      lattice_disjoint(levi, RootSubset.of(a2, [(1, 1), (-1, -1)])))

span, nplus, nminus = levi_decomposition(c2, [1])
print("C2 parabolic over {e1}: nilradical roots:", sorted(nplus))
