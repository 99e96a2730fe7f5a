import itertools
import time
from fractions import Fraction as F

import pytest

from weightcat import linalg
from weightcat.degonemod import build_M, build_N
from weightcat.inducemod import (DepthOverflowError, NonScalarActionError, central_scalars,
                                 induce, levi_module, levi_module_product,
                                 probe_restriction_failure, restrict_family, u0_compare,
                                 _weight_and_scalar, _zero_weight_words)
from weightcat.rootsys import build_root_system


def neg(r):
    return tuple(-x for x in r)


@pytest.fixture
def a2_setup():
    rs = build_root_system("A2")
    a1, a2 = F(1, 2), F(1, 3)
    C = levi_module(rs, [1], build_N([a1, a2]), {2: a2})  # branch c = 0
    return rs, a1, a2, C


def test_nilradical_kills_base(a2_setup):
    rs, a1, a2, C = a2_setup
    V = induce(C, 3)
    for root in V.ideal_pos:
        assert V.act_root(root, V.one_tensor()) == {}


def test_levi_acts_through_inner_module(a2_setup):
    rs, a1, a2, C = a2_setup
    V = induce(C, 3)
    e1 = rs.simple_root(1)
    got = V.act_root(neg(e1), V.one_tensor())
    assert got == {((), (-1, 1)): a1}


def test_bracket_through_monomial(a2_setup):
    rs, a1, a2, C = a2_setup
    V = induce(C, 3)
    ab = tuple(x + y for x, y in zip(rs.simple_root(1), rs.simple_root(2)))
    v = V.monomial_tensor([neg(ab)], (0, 0))
    out = V.act_root(ab, v)
    # bracket lands in the Cartan: a scalar multiple of the base vector
    assert list(out) == [((), (0, 0))]


def test_project_nonzero_and_linear(a2_setup):
    rs, a1, a2, C = a2_setup
    V = induce(C, 3)
    one = V.one_tensor()
    assert V.project(one) == one
    beta = rs.simple_root(2)
    w = V.monomial_tensor([neg(beta)], (0, 0))
    pw = V.project(w)
    assert pw
    two = {k: 2 * c for k, c in w.items()}
    assert V.project(two) == {k: 2 * c for k, c in pw.items()}
    assert V.project(V.project(w)) == pw  # idempotent


def test_lemma_eta_ratio_and_kernel_membership(a2_setup):
    rs, a1, a2, C = a2_setup
    V = induce(C, 3)
    alpha, beta = rs.simple_root(1), rs.simple_root(2)
    ab = tuple(x + y for x, y in zip(alpha, beta))
    for k in (-1, 0, 1, 2):
        v = V.monomial_tensor([neg(ab)], (k, -k))
        w = V.monomial_tensor([neg(beta)], (k - 1, -(k - 1)))
        assert V.proportionality(v, w) == (a1 + k) / (a2 - k + 1)
    # X_{e2} image of the first vector hits the lowered base vector, so the
    # projection cannot vanish
    assert V.project(V.monomial_tensor([neg(ab)], (0, 0)))


def test_proportionality_edges(a2_setup):
    rs, a1, a2, C = a2_setup
    V = induce(C, 3)
    beta = rs.simple_root(2)
    w = V.monomial_tensor([neg(beta)], (0, 0))
    v3 = {k: 3 * c for k, c in w.items()}
    assert V.proportionality(v3, w) == 3
    with pytest.raises(ValueError):
        V.proportionality(w, {})
    # independent vectors at different weights
    other = V.monomial_tensor([neg(beta)], (1, -1))
    assert V.proportionality(other, w) is None


def test_depth_overflow_reported(a2_setup):
    rs, a1, a2, C = a2_setup
    V = induce(C, 1)
    beta = rs.simple_root(2)
    v = V.monomial_tensor([neg(beta)], (0, 0))
    with pytest.raises(DepthOverflowError):
        V.act_root(neg(beta), v)


def test_kernel_depth_stability(a2_setup):
    rs, a1, a2, C = a2_setup
    alpha, beta = rs.simple_root(1), rs.simple_root(2)
    ab = tuple(x + y for x, y in zip(alpha, beta))
    mu = None
    for depth in (2, 3):
        V = induce(C, depth)
        v = V.monomial_tensor([neg(ab)], (0, 0))
        mu = V.weight_of(v)
        rows, pivots, basis = V.kernel_data(mu)
        # the weight needs monomials of depth <= 1 only, so both runs agree
        assert len(basis) == 2 and len(rows) == 1


def test_central_scalars(a2_setup):
    rs, a1, a2, C = a2_setup
    scal = central_scalars(C, [(0, 0), (1, -1), (-2, 2)])
    (z, val), = scal.items()
    assert val == z[0] * (a1 - a2) + z[1] * a2  # c = 0 branch
    # values do not depend on the sample set
    assert central_scalars(C, [(5, -5)]) == scal
    assert central_scalars(C, [(-3, 3), (2, -2), (7, -7)]) == scal
    with pytest.raises(ValueError):
        central_scalars(C, [])
    # the non-constant guard trips on a corrupted weight cache
    Cbad = levi_module(rs, [1], build_N([a1, a2]), {2: a2})
    w = list(Cbad.weight_of((1, -1)))
    w[1] += 1
    Cbad._wcache[(1, -1)] = tuple(w)
    with pytest.raises(NonScalarActionError):
        central_scalars(Cbad, [(0, 0), (1, -1)])


def test_u0_compare_cor_isomorphism(a2_setup):
    rs, a1, a2, C = a2_setup
    V = induce(C, 5)
    assert u0_compare(V, V.one_tensor(), build_N([a1, a2, 0]), (0, 0, 0), depth=4)
    # the other branch matches the reflected parameters
    Cm = levi_module(rs, [1], build_N([a1, a2]), {2: -1 - a1 - a2 + a2})
    Vm = induce(Cm, 5)
    assert u0_compare(Vm, Vm.one_tensor(), build_N([-1 - a2, -1 - a1, 0]), (0, 0, 0), depth=4)
    assert not u0_compare(V, V.one_tensor(), build_N([a1, F(1, 5), 0]), (0, 0, 0), depth=4)
    assert u0_compare(V, V.one_tensor(), V, V.one_tensor(), depth=3)


def test_u0_compare_errors(a2_setup):
    rs, a1, a2, C = a2_setup
    V = induce(C, 3)
    N = build_N([a1, a2, 0])
    with pytest.raises(TypeError, match="unsupported handle"):
        u0_compare(C, (0, 0), N, (0, 0, 0))
    with pytest.raises(ValueError, match="zero in the quotient"):
        u0_compare(V, {}, N, (0, 0, 0))
    # a word of nonzero weight moves the base vector, so it has no scalar
    word = (rs.simple_root(1),)
    with pytest.raises(NonScalarActionError, match="did not return to the base vector"):
        _weight_and_scalar(N, (0, 0, 0))[1](word)
    with pytest.raises(NonScalarActionError, match="non-scalarly on the quotient vector"):
        _weight_and_scalar(V, V.one_tensor())[1](word)


def test_restrict_family_roundtrip():
    fam = build_N(["-1", "1/2", "1/3", "0"])
    C = restrict_family(fam)
    assert C.block == (2,)
    V = induce(C, 4)
    assert u0_compare(V, V.one_tensor(), fam, (0, 0, 0, 0), depth=3)
    famc = build_M(["-1", "1/4", "1/5"])
    Cc = restrict_family(famc)
    assert Cc.block == (2, 3)
    Vc = induce(Cc, 3)
    assert u0_compare(Vc, Vc.one_tensor(), famc, (0, 0, 0), depth=3)


def test_probe_restriction_failure_cases():
    c2 = build_root_system("C2")
    short_block = levi_module(c2, [1], build_N([F(1, 4), F(1, 7)]), {2: F(2, 3)})
    rep = probe_restriction_failure(short_block, depth=3)
    assert rep.restriction_impossible and rep.witness is not None

    a2 = build_root_system("A2")
    fine = levi_module(a2, [1], build_N([F(1, 2), F(1, 3)]), {2: F(1, 3)})
    assert probe_restriction_failure(fine, depth=3).restriction_impossible is False

    long_ok = levi_module(c2, [2], build_N([F(1, 4), F(-3, 4)]), {1: 2 * F(-3, 4)})
    assert probe_restriction_failure(long_ok, depth=3).restriction_impossible is False


def test_probe_disconnected_block():
    a3 = build_root_system("A3")
    C = levi_module_product(
        a3,
        [((1,), build_N([F(1, 2), F(1, 3)])), ((3,), build_N([F(1, 5), F(1, 7)]))],
        {2: F(3, 7)})
    rep = probe_restriction_failure(C, depth=3)
    assert rep.restriction_impossible


def test_probe_trivial_c3_cases():
    c3 = build_root_system("C3")
    # single short root blocks and the size-two type A block are all obstructed
    for block, central in ([(1,), {2: F(1, 5), 3: F(1, 7)}],
                           [(2,), {1: F(1, 5), 3: F(1, 7)}]):
        C = levi_module(c3, block, build_N([F(1, 2), F(1, 3)]), central)
        assert probe_restriction_failure(C, depth=3).restriction_impossible, block
    C = levi_module(c3, [1, 2], build_N([F(1, 2), F(1, 3), F(1, 5)]), {3: F(1, 7)})
    assert probe_restriction_failure(C, depth=3).restriction_impossible


def test_levi_component_must_live_on_its_block():
    a3, c3 = build_root_system("A3"), build_root_system("C3")
    with pytest.raises(ValueError):
        levi_module(a3, [1, 2], build_M([F(1, 5), F(2, 5)]), {3: F(1, 3)})
    with pytest.raises(ValueError):
        levi_module(c3, [2, 3], build_N([F(1, 5), F(2, 5), F(-3, 5)]), {1: F(1, 3)})


def test_levi_index_of_displacement():
    a3 = build_root_system("A3")
    C = levi_module_product(a3, [((1,), build_N([F(1, 2), F(1, 3)])),
                                 ((3,), build_N([F(1, 5), F(2, 5)]))], {2: F(1, 7)})
    for t in itertools.product(range(-2, 3), repeat=4):
        if C.in_basis(t):
            x = a3.root_coordinates([w - l for w, l in zip(C.weight_of(t), C.lam0)])
            assert C.index_of_displacement(x) == t
            assert C.index_of_displacement([x[0], x[1] + 1, x[2]]) is None
    assert C.index_of_displacement([F(1, 2), 0, 0]) is None


def _pbw_keys(V, indices):
    """Every PBW monomial up to V's depth tensored with every given Levi index."""
    return [(mono, t) for n in range(V.depth + 1)
            for mono in itertools.combinations_with_replacement(V.nminus, n) for t in indices]


def test_weight_space_matches_enumeration():
    a2, a3, c2, c3 = (build_root_system(t) for t in ("A2", "A3", "C2", "C3"))
    modules = [
        levi_module(a2, [1], build_N([F(1, 2), F(1, 3)]), {2: F(1, 3)}),
        restrict_family(build_N(["-1", "1/2", "1/3", "0"])),
        levi_module_product(a3, [((1,), build_N([F(1, 2), F(1, 3)])),
                                 ((3,), build_N([F(1, 5), F(2, 5)]))], {2: F(1, 7)}),
        restrict_family(build_M(["-1", "1/4"])),
        levi_module(c2, [1], build_N([F(1, 2), F(1, 3)]), {2: F(1, 5)}),
        restrict_family(build_M(["-1", "-1", "1/4"])),
        levi_module(c3, [1, 2], build_N([F(1, 2), F(1, 3), F(1, 5)]), {3: F(1, 7)}),
    ]
    checked = 0
    for C in modules:
        box = [t for t in itertools.product((-1, 0, 1), repeat=len(C.zero_index()))
               if C.in_basis(t)]
        for depth in (2, 3, 4):
            V = induce(C, depth)
            by_weight = {}
            for key in _pbw_keys(V, box):
                by_weight.setdefault(V.weight_of_key(key), set()).add(key)
            for mu, keys in by_weight.items():
                space = V.weight_space(mu)
                assert all(V.weight_of_key(key) == mu for key in space), (C.block, depth, mu)
                assert keys <= set(space), (C.block, depth, mu)
                off = (mu[0] + F(1, 7),) + mu[1:]
                assert V.weight_space(off) == [], (C.block, depth, off)
                checked += len(keys)
    assert checked > 4000


def _brute_kernel(V, mu, index_of_weight):
    """The kernel of kernel_data(mu) from every PBW word over the positive nilradical.

    A positive nilradical root raises the degree outside the Levi block by at
    least one, so a word longer than the largest such degree of a basis
    monomial cannot return to 1 (x) C: the words below are all functionals
    that can be nonzero, with no Levi-shift pruning of their weights.  The
    1 (x) C target of a word is looked up in index_of_weight, a table of C
    weights over a box of indices; a box too small drops functionals, and the
    kernel then comes out too large.
    """
    basis = V.weight_space(mu)
    outside = [i for i in range(V.system.rank) if i + 1 not in V.C.block]
    longest = max(-sum(r[i] for r in mono for i in outside) for mono, _ in basis)
    rows = []
    for n in range(longest + 1):
        for word in itertools.combinations_with_replacement(V.ideal_pos, n):
            nu = [sum(col) for col in zip(*word)] if word else [0] * V.system.rank
            t = index_of_weight.get(
                tuple(m + v for m, v in zip(mu, V.system.coroot_values(tuple(nu)))))
            if t is None:
                continue
            row = []
            for key in basis:
                vec = {key: F(1)}
                for root in reversed(word):
                    vec = V.act_root(root, vec)
                row.append(vec.get(((), t), F(0)))
            rows.append(row)
    return linalg.rref(linalg.nullspace(rows, len(basis)), len(basis))


def test_kernel_data_matches_brute_force():
    a2, a3, c2 = (build_root_system(t) for t in ("A2", "A3", "C2"))
    modules = [
        (levi_module(a2, [1], build_N([F(1, 2), F(1, 3)]), {2: F(1, 3)}), (2, 3)),
        (restrict_family(build_N(["-1", "1/2", "1/3"])), (2, 3)),
        (restrict_family(build_N(["-1", "1/2", "1/3", "0"])), (2, 3)),
        (restrict_family(build_N(["-1", "1/2", "1/3", "1/5"])), (2, 3)),
        (levi_module(a3, [1, 2], build_N([F(1, 2), F(1, 3), F(1, 5)]), {3: F(1, 7)}), (2, 3)),
        (levi_module_product(a3, [((1,), build_N([F(1, 2), F(1, 3)])),
                                  ((3,), build_N([F(1, 5), F(2, 5)]))], {2: F(1, 7)}), (2,)),
        (restrict_family(build_M(["-1", "1/4"])), (2, 3)),
        (levi_module(c2, [1], build_N([F(1, 2), F(1, 3)]), {2: F(1, 5)}), (2, 3)),
        # C3 at depth 3 costs over twice the time gate below
        (restrict_family(build_M(["-1", "-1", "1/4"])), (2,)),
    ]
    started = time.time()
    checked = 0
    for C, depths in modules:
        # targets reach coordinate 7 (C2 at depth 3); radius 8 leaves a margin
        box = [t for t in itertools.product(range(-8, 9), repeat=len(C.zero_index()))
               if C.in_basis(t)]
        index_of_weight = {C.weight_of(t): t for t in box}
        indices = [t for t in box if max(map(abs, t)) <= 1]
        for depth in depths:
            V = induce(C, depth)
            weights = {V.weight_of_key(key) for key in _pbw_keys(V, indices)}
            for mu in sorted(weights):
                rows, pivots, basis = V.kernel_data(mu)
                assert _brute_kernel(V, mu, index_of_weight) == (rows, pivots), (C.block, depth, mu)
                checked += bool(rows)
    assert checked > 100
    assert time.time() - started < 10


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "C2", "C3", "C4"])
def test_zero_weight_words_match_enumeration(name):
    rs = build_root_system(name)
    roots = sorted(rs.roots, key=lambda r: (sum(r), r))
    expected = [word for n in range(1, 5)
                for word in itertools.combinations_with_replacement(roots, n)
                if not any(map(sum, zip(*word)))]
    expected.sort(key=lambda word: [roots.index(r) for r in word])
    assert _zero_weight_words(rs, 4) == expected
