"""Acceptance suite: one test per criterion, exact rational equality throughout.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Windows and depths follow the stated defaults (B = 3, D = 4);
for the induced-module fidelity check the truncation depth is 4 while the
probe vectors are capped at shallower monomial depth so the whole criterion
stays inside its runtime budget.
"""
import random
import time
from fractions import Fraction as F

import pytest

from lab_seeds import seeded_reports
from weightcat.categorio import NONTRIVIAL, TRIVIAL, check_membership, classify
from weightcat.degonemod import DegreeOneModule, build_M, build_N
from weightcat.extcoh import (cocycle_space, coboundary_quotient_dim, ext_solve_typeA,
                              ext_solve_typeC, is_coboundary)
from weightcat.inducemod import (induce, levi_module, levi_module_product,
                                 probe_restriction_failure)
from weightcat.paperlab import (appendix_a3, verify_AC1, verify_AkAn, verify_A1N, verify_CC,
                                verify_lemA12)
from weightcat.rootsys import build_root_system
from weightcat.weylmod import WeylParams, check_weyl_relations


def report(criterion, name, started):
    print(f"ACCEPTANCE {criterion} ({name}): PASS [{time.perf_counter() - started:.1f}s]")


def neg(r):
    return tuple(-x for x in r)


# ---------------------------------------------------------------------------
# criterion 1: bracket fidelity
# ---------------------------------------------------------------------------

MODULES_BY_ALGEBRA = {
    "A1": ("N", ["1/2", "1/3"]),
    "A2": ("N", ["1/2", "1/3", "0"]),
    "A3": ("N", ["-1", "1/2", "1/3", "0"]),
    "A4": ("N", ["-1", "1/2", "1/3", "1/5", "0"]),
    "C2": ("M", ["-1", "1/4"]),
    "C3": ("M", ["-1", "1/4", "1/5"]),
}

VERMA_BY_ALGEBRA = {
    # algebra -> (block, inner params, central values, inner kind)
    "A1": ((), [], {1: F(2, 7)}, None),
    "A2": ((1,), ["1/2", "1/3"], {2: F(1, 3)}, "N"),
    "A3": ((1,), ["1/2", "1/3"], {2: F(1, 3), 3: F(-17, 6)}, "N"),
    "A4": ((2,), ["1/2", "1/3"], {1: F(-3, 2), 3: F(1, 3), 4: F(0)}, "N"),
    "C2": ((2,), ["1/4", "-3/4"], {1: F(-3, 2)}, "N"),
    "C3": ((2, 3), ["1/4", "1/5"], {1: F(-5, 4)}, "M"),
}


def _module_fidelity(module: DegreeOneModule, radius: int) -> int:
    system = module.system
    roots = sorted(system.roots, key=lambda r: (sum(r), r))
    window = module.window(radius)
    checked = 0
    for i, mu in enumerate(roots):
        for nu in roots[i:]:
            s = tuple(a + b for a, b in zip(mu, nu))
            s_root = s in system.roots
            nconst = system.realization.structure_constant(mu, nu) if s_root else None
            cartan = system.realization.cartan_coefficients(mu) if not any(s) else None
            for k in window:
                got = {}
                for x, y, sign in ((mu, nu, 1), (nu, mu, -1)):
                    c1, k1 = module.act_root(y, k)
                    if c1:
                        c2, k2 = module.act_root(x, k1)
                        if c1 * c2:
                            got[k2] = got.get(k2, F(0)) + sign * c1 * c2
                got = {kk: v for kk, v in got.items() if v}
                want = {}
                if s_root and nconst:
                    c3, k3 = module.act_root(s, k)
                    if nconst * c3:
                        want[k3] = nconst * c3
                elif cartan is not None:
                    val = sum((a * b for a, b in zip(cartan, module.weight_of(k))), F(0))
                    if val:
                        want[k] = val
                assert got == want, (mu, nu, k)
                checked += 1
    return checked


def _verma_fidelity(name, max_depth, c_radius) -> int:
    system = build_root_system(name)
    block, inner_params, central, kind = VERMA_BY_ALGEBRA[name]
    if block:
        inner = build_N(inner_params) if kind == "N" else build_M(inner_params)
        C = levi_module(system, list(block), inner, central)
    else:
        C = levi_module_product(system, [], central)
    V = induce(C, 4)
    # probe vectors: shallow monomials over the negative nilradical
    vectors = []
    base_indices = [C.zero_index()]
    if block:
        for t in list(base_indices):
            for b in block:
                c0, t2 = C.act_root(neg(system.simple_root(b)), t)
                if c0 and max(abs(x) for x in t2) <= c_radius:
                    base_indices.append(t2)
    base_indices = base_indices[:3]
    monos = [[]] + [[neg(r)] for r in V.ideal_pos]
    if max_depth >= 2:
        monos += [[neg(a), neg(b)] for a in V.ideal_pos for b in V.ideal_pos]
    for t in base_indices:
        for mono in monos:
            vec = V.monomial_tensor(mono, t)
            if vec:
                vectors.append(vec)
    roots = sorted(system.roots, key=lambda r: (sum(r), r))
    checked = 0
    for i, mu in enumerate(roots):
        for nu in roots[i:]:
            s = tuple(a + b for a, b in zip(mu, nu))
            s_root = s in system.roots
            nconst = system.realization.structure_constant(mu, nu) if s_root else None
            cartan = system.realization.cartan_coefficients(mu) if not any(s) else None
            for vec in vectors:
                got = _vsub(V.act_root(mu, V.act_root(nu, vec)),
                            V.act_root(nu, V.act_root(mu, vec)))
                if s_root and nconst:
                    want = {k: nconst * c for k, c in V.act_root(s, vec).items()}
                elif cartan is not None:
                    # sum_i h_i H_i scales the key (mono, t) by h on its weight:
                    # C's weight of x(t) plus the pairings of mono's roots
                    want = {}
                    for (mono, t), c in vec.items():
                        w = [x + sum(system.pairing(r, i) for r in mono)
                             for i, x in enumerate(C.weight_of(t))]
                        if val := c * sum(h * x for h, x in zip(cartan, w)):
                            want[mono, t] = val
                else:
                    want = {}
                assert _vsub(got, want) == {}, (mu, nu)
                checked += 1
    return checked


def _vsub(a, b):
    out = dict(a)
    for k, v in b.items():
        t = out.get(k, F(0)) - v
        if t:
            out[k] = t
        else:
            out.pop(k, None)
    return out


@pytest.mark.parametrize("name", sorted(MODULES_BY_ALGEBRA))
def test_c1_bracket_fidelity(name):
    started = time.perf_counter()
    kind, params = MODULES_BY_ALGEBRA[name]
    module = build_N(params) if kind == "N" else build_M(params)
    nvars = module.nvars
    # the algebra action on the plain lattice module: defining relations
    assert check_weyl_relations(WeylParams(module.spec.a), 3) == []
    n_mod = _module_fidelity(module, 3)
    depth_cap = 1 if name == "A4" else 2
    c_rad = 1 if name in ("A4", "A3", "C3") else 2
    n_verma = _verma_fidelity(name, depth_cap, c_rad)
    assert time.perf_counter() - started < 60, "runtime budget exceeded"
    report(1, f"bracket fidelity {name}: {n_mod} module + {n_verma} induced checks", started)


# ---------------------------------------------------------------------------
# criterion 2: highest-weight enumeration
# ---------------------------------------------------------------------------

N_SPECS = [["1/2", "1/3", "0"], ["-1", "1/2", "1/3", "0"], ["1/5", "2/5", "0", "0"],
           ["-1", "-1", "3/7", "1/7"], ["1/3", "1/2", "1/7", "0"], ["-1", "2/3", "4/3", "0", "0"]]
M_SPECS = [["-1", "1/4"], ["-1", "-1", "2/7"], ["-1", "1/4", "1/5"], ["-1", "-2"],
           ["-1", "-1"], ["-1", "-1", "1/3", "2/3"]]


def test_c2_hw_enumeration():
    started = time.perf_counter()
    for params in N_SPECS:
        m = build_N(params)
        assert m.enumerate_hw(m.theta_a(), 3) == m.predicted_hw(3), params
    for params in M_SPECS:
        m = build_M(params)
        assert m.enumerate_hw(m.theta_a(), 3) == m.predicted_hw(3), params
    report(2, "hw enumeration, 6 parameter choices per kind", started)


# ---------------------------------------------------------------------------
# criterion 3: degree one
# ---------------------------------------------------------------------------

def test_c3_degree_one():
    started = time.perf_counter()
    for params in N_SPECS:
        m = build_N(params)
        for radius in (2, 4):
            assert m.degree_on_window(radius) == 1
    for params in M_SPECS:
        m = build_M(params)
        for radius in (2, 4):
            assert m.degree_on_window(radius) == 1
    report(3, "degree one on all specs, B <= 4", started)


# ---------------------------------------------------------------------------
# criterion 4: lemma constants
# ---------------------------------------------------------------------------

def test_c4_lemma_constants():
    started = time.perf_counter()
    for lemma in ("lemA12", "A1N", "AkAn", "AC1", "CC", "appendix-a3"):
        for rep in seeded_reports(lemma, seed=5, count=5):
            assert rep.match, (lemma, rep.params)
    assert time.perf_counter() - started < 120
    report(4, "lemma constants, 5 seeded sets per script", started)


# ---------------------------------------------------------------------------
# criterion 5: classification goldens
# ---------------------------------------------------------------------------

def test_c5_classification_goldens():
    started = time.perf_counter()

    def comp_theta(system, comp):
        return frozenset(range(1, system.rank + 1)) - frozenset(comp)

    trivial_rows = {
        "row1": [("B4", {2}), ("B4", {3}), ("B4", {4}), ("B5", {2}), ("B5", {5})],
        "row2": [("B4", {1, 2, 3}), ("B5", {1, 2, 3}), ("B5", {2, 3, 4})],
        "row3": [("C2", {1}), ("C3", {1}), ("C3", {2})],
        "row4": [("C4", {1, 2, 3}), ("C5", {1, 2, 3}), ("C5", {2, 3, 4})],
        "row5": [("F4", {1}), ("F4", {2}), ("F4", {3}), ("F4", {4})],
        "row6": [("F4", {1, 2}), ("F4", {3, 4})],
        "row7": [("D4", {1, 2}), ("D4", {2, 3}), ("D5", {1, 2}), ("D5", {2, 3})],
        "row8": [("D4", {2}), ("D5", {2}), ("D5", {3})],
        "row9": [("E6", {2}), ("E6", {4}), ("E6", {1, 3}), ("E7", {1}), ("E7", {2, 4}),
                 ("E7", {6, 7})],
        "row10": [("G2", {1}), ("G2", {2})],
    }
    for row, cases in trivial_rows.items():
        for name, comp in cases:
            system = build_root_system(name)
            v = classify(system, comp_theta(system, comp))
            assert v.kind == TRIVIAL, (row, name, comp, v.kind)

    excluded_rows = [("B3", {1}), ("B4", {1}),
                     ("D4", {1}), ("D4", {3}), ("D4", {4}), ("D5", {1}), ("D5", {4}), ("D5", {5}),
                     ("E6", {1}), ("E6", {6}),
                     ("E7", {7})]
    for name, comp in excluded_rows:
        system = build_root_system(name)
        assert classify(system, comp_theta(system, comp)).kind == "EXCLUDED", (name, comp)

    # positive cases: every connected type A block, every trailing type C block
    for n in (2, 3, 4):
        system = build_root_system(f"A{n}")
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                if (lo, hi) == (1, n):
                    continue  # theta empty
                comp = set(range(lo, hi + 1))
                v = classify(system, comp_theta(system, comp))
                assert v.kind == NONTRIVIAL, (n, comp)
                assert v.family.minus_ones == lo - 1
                assert v.family.free == hi - lo + 2
                assert v.family.zeros == n + 1 - hi - 1
    for n in (2, 3, 4):
        system = build_root_system(f"C{n}")
        for lo in range(2, n + 1):
            comp = set(range(lo, n + 1))
            v = classify(system, comp_theta(system, comp))
            assert v.kind == NONTRIVIAL and v.family.kind == "M", (n, comp)
            assert v.family.minus_ones == lo - 1 and v.family.free == n - lo + 1
    report(5, "tables row for row plus all positive families", started)


# ---------------------------------------------------------------------------
# criterion 6: cross-validation of verdicts against constructions
# ---------------------------------------------------------------------------

def _sample_nonints(count):
    pool = [F(1, 2), F(1, 3), F(1, 5), F(2, 7), F(3, 11), F(5, 13)]
    return pool[:count]


def test_c6_cross_validation():
    started = time.perf_counter()
    # every nontrivial verdict at rank <= 4 supports a membership-certified instance
    names = ["A1", "A2", "A3", "A4", "C2", "C3", "C4"]
    nontrivial = trivial_ac = 0
    for name in names:
        system = build_root_system(name)
        n = system.rank
        full = frozenset(range(1, n + 1))
        for mask in range(1 << n):
            theta = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            if theta in (frozenset(), full):
                continue
            v = classify(system, theta)
            comp = full - theta
            if v.kind == NONTRIVIAL:
                module = v.family.instantiate(_sample_nonints(v.family.free))
                assert module.theta_a() == theta
                rep = check_membership(module, theta, radius=3)
                assert rep.passed, (name, sorted(theta))
                nontrivial += 1
            elif v.kind == TRIVIAL and n <= 3:
                C = _generic_levi(system, comp)
                assert probe_restriction_failure(C, depth=3).restriction_impossible, \
                    (name, sorted(comp))
                trivial_ac += 1
    assert nontrivial >= 15 and trivial_ac >= 4
    assert time.perf_counter() - started < 30, "runtime budget exceeded"
    report(6, f"{nontrivial} nontrivial memberships, {trivial_ac} trivial probes", started)


def _generic_levi(system, comp):
    comps = system.connected_components(comp)
    pool = iter([F(1, 2), F(1, 3), F(1, 5), F(2, 7), F(3, 11), F(5, 13), F(4, 9), F(6, 11)])
    components = []
    for block in sorted(comps, key=min):
        positions = tuple(sorted(block))
        size = len(positions)
        if system.cartan_type.family == "C" and system.rank in block:
            inner = build_M([next(pool) for _ in range(size)])
        else:
            inner = build_N([next(pool) for _ in range(size + 1)])
        components.append((positions, inner))
    central = {i: next(pool) for i in range(1, system.rank + 1)
               if not any(i in block for block in comps)}
    return levi_module_product(system, components, central)


# ---------------------------------------------------------------------------
# criterion 7: extension certification
# ---------------------------------------------------------------------------

def test_c7_ext_certification():
    started = time.perf_counter()
    dims = {}
    for radius in (3, 4):
        dims[("A", radius)] = ext_solve_typeA(["-1", "1/2", "1/3", "0"],
                                              ["-1", "1/2", "1/3", "0"], radius=radius).dimension
        dims[("C", radius)] = ext_solve_typeC(["-1", "-1", "1/4"],
                                              ["-1", "-1", "1/4"], radius=radius).dimension
    assert dims[("A", 3)] == dims[("A", 4)] == 0
    assert dims[("C", 3)] == dims[("C", 4)] == 0
    assert ext_solve_typeA(["-1", "1/2", "1/3", "0"], ["-1", "1/5", "1/7", "0"],
                           radius=3).dimension == 0
    assert ext_solve_typeC(["-1", "-1", "1/4"], ["-1", "-1", "1/3"], radius=3).dimension == 0
    sl2 = build_N(["1/2", "1/3"])
    assert coboundary_quotient_dim(sl2, sl2, 3) == 1
    assert coboundary_quotient_dim(sl2, sl2, 4) == 1
    report(7, "ext dimensions 0 (stable B=3,4); rank-one line has dimension 1", started)


# ---------------------------------------------------------------------------
# criterion 8: truncation soundness
# ---------------------------------------------------------------------------

def test_c8_truncation_soundness():
    started = time.perf_counter()
    for depth in (4, 5):
        rep = verify_lemA12("1/2", "1/3", k_range=(-1, 0, 1), depth=depth)
        assert rep.computed["eta"] == {-1: F(-3, 14), 0: F(3, 8), 1: F(9, 2)}
        assert rep.computed["c"] == 0
    base = {}
    for depth in (4, 5):
        rep = appendix_a3("1/2", "1/3", branch="0", k_range=(0, 1), depth=depth)
        base.setdefault("eta1", rep.computed["eta1"]) == rep.computed["eta1"]
        assert rep.computed["eta1"] == base["eta1"]
        assert rep.computed["d"] == F(-17, 6)
    for depth in (4, 5):
        assert verify_AC1("1/4", "-3/4", depth=depth).computed["c"] == 0
        assert verify_A1N(["-1", "1/2", "1/3", "0"], depth=depth).match
        assert verify_AkAn(["-1", "1/2", "1/3", "1/5", "0"], depth=depth).match
        assert verify_CC(["-1", "1/4", "1/5"], depth=depth).match
    # quotient images stable under depth growth on a saturated weight space
    from weightcat.inducemod import induce as _induce
    system = build_root_system("A2")
    C = levi_module(system, [1], build_N(["1/2", "1/3"]), {2: F(1, 3)})
    images = []
    for depth in (2, 3):
        V = _induce(C, depth)
        ab = neg(tuple(x + y for x, y in zip(system.simple_root(1), system.simple_root(2))))
        images.append(V.project(V.monomial_tensor([ab], (0, 0))))
    assert images[0] == images[1] and images[0]
    report(8, "extracted scalars identical at depths D and D+1", started)


# ---------------------------------------------------------------------------
# criterion 9: rank-two type C semisimplicity spot check
# ---------------------------------------------------------------------------

def test_c9_sp4_spot_check():
    started = time.perf_counter()
    rng = random.Random(53)
    ma = build_M(["1/4", "1/3"])
    mb = build_M(["2/5", "1/7"])
    for source, target in ((ma, ma), (ma, mb)):
        space = cocycle_space(source, target, 2)
        for _ in range(10):
            c = space.random_cocycle(rng)
            assert is_coboundary(c, 2) is not None
    report(9, "10 random cocycles per pair admit coboundary witnesses", started)
