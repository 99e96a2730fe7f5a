"""The lattice modules over the Weyl algebra.

Shows the two-branch action recipe, the exhaustive defining-relation check
on a window, and the transitivity probe that witnesses simplicity at desk
scale.
"""
from weightcat.weylmod import (WeylParams, check_weyl_relations, lattice_window,
                               transitivity_probe, weyl_act)

params = WeylParams.of(["-1", "1/2"])
print("parameters:", params.a)
print("classes:   ", [params.coordinate_class(i) for i in range(2)])
print("admissible window radius 1:", lattice_window(params, 1))

for gen, k in [(("q", 0), (-2, 0)), (("q", 0), (0, 0)), (("p", 1), (0, 0))]:
    c, t = weyl_act(gen, params, k)
    kind, i = gen
    print(f"{kind}_{i + 1} x{k} -> coeff {c}, target {t}")

print()
for avals in (["1/2", "1/3"], ["-1", "0"], ["-2", "1/5"]):
    p = WeylParams.of(avals)
    bad = check_weyl_relations(p, 3)
    print(f"defining relations for a={avals} on |k|<=3:",
          "all hold" if not bad else bad[:2])
    print(f"window strongly connected:", transitivity_probe(p, 2))
