"""Degree-one weight modules of types A and C.

Builds one module of each kind, prints the simple-root actions on the base
vector, enumerates the highest-weight vectors for the distinguished theta,
and confirms the degree on a window.
"""
from weightcat.degonemod import build_M, build_N

n_mod = build_N(["-1", "1/2", "1/3", "0"])
print("type A module with parameters", n_mod.params.a)
print("cuspidal block:", n_mod.cuspidal_block(), " theta:", sorted(n_mod.theta_a()))
base = n_mod.zero_index()
for i in range(1, n_mod.system.rank + 1):
    root = n_mod.system.simple_root(i)
    up = n_mod.act_root(root, base)
    dn = n_mod.act_root(tuple(-x for x in root), base)
    print(f"  X_e{i} x0 -> {up},   X_-e{i} x0 -> {dn}")
print("weight of x0:", n_mod.weight_of(base))
print("highest-weight vectors, |k| <= 2:", n_mod.enumerate_hw(n_mod.theta_a(), 2))
print("degree on |k| <= 3 window:", n_mod.degree_on_window(3))

print()
m_mod = build_M(["-1", "1/4"])
print("type C module with parameters", m_mod.params.a)
print("cuspidal block:", m_mod.cuspidal_block(), " theta:", sorted(m_mod.theta_a()))
print("  X_e2 x0 ->", m_mod.act_root(m_mod.system.simple_root(2), (0, 0)))
print("  X_-e2 x(0,2) ->", m_mod.act_root((0, -1), (0, 2)))
print("highest-weight vectors, |k| <= 2:", m_mod.enumerate_hw(m_mod.theta_a(), 2))
print("orbit of x0 under the long-root subalgebra:",
      m_mod.levi_orbit((0, 0), radius=2))
