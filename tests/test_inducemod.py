import itertools
import time
from fractions import Fraction as F

import pytest

from weightcat import inducemod, linalg
from weightcat.degonemod import build_M, build_N
from weightcat.inducemod import (DepthOverflowError, NonScalarActionError, central_scalars,
                                 induce, levi_module, levi_module_product,
                                 probe_restriction_failure, restrict_family, u0_compare,
                                 _zero_weight_words)
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


def test_depth_overflow_is_not_memoised(a2_setup):
    # the memo keeps nothing for a product that left the truncation, so a
    # retry raises again instead of reading a partial value
    rs, a1, a2, C = a2_setup
    V = induce(C, 1)
    nbeta = neg(rs.simple_root(2))
    v = V.monomial_tensor([nbeta], (0, 0))
    assert (nbeta, (), (0, 0)) in V._act
    for _ in range(2):
        with pytest.raises(DepthOverflowError):
            V.act_root(nbeta, v)
        assert (nbeta, (nbeta,), (0, 0)) not in V._act


def test_project_rejects_a_vector_of_two_weights(a2_setup):
    # two monomials of different totals, and one monomial on two Levi indices
    rs, a1, a2, C = a2_setup
    V = induce(C, 3)
    w = V.monomial_tensor([neg(rs.simple_root(2))], (0, 0))
    for bad in ({**w, **V.one_tensor()}, {**V.one_tensor(), **V.one_tensor((1, -1))}):
        for call in (lambda: V.project(bad), lambda: V.proportionality(bad, w),
                     lambda: V.proportionality(w, bad)):
            with pytest.raises(ValueError, match="not weight-homogeneous"):
                call()


def test_kernel_depth_stability(a2_setup):
    # the weight space of X_{-alpha-beta} (x) x(0) is spanned by two keys of
    # depth 1 and meets the maximal submodule in a line, so the images at depth
    # 2 and 3 agree and are proportional
    rs, a1, a2, C = a2_setup
    alpha, beta = rs.simple_root(1), rs.simple_root(2)
    ab = tuple(x + y for x, y in zip(alpha, beta))
    images = []
    for depth in (2, 3):
        V = induce(C, depth)
        v, w = V.monomial_tensor([neg(ab)], (0, 0)), V.monomial_tensor([neg(beta)], (-1, 1))
        assert V.weight_of(v) == V.weight_of(w)
        images.append((V.project(v), V.project(w), V.proportionality(v, w)))
    assert images[0] == images[1]
    assert images[0][0] and images[0][2] is not None


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
    # the non-constant guard trips on a weight corrupted in its integers
    Cbad = levi_module(rs, [1], build_N([a1, a2]), {2: a2})
    true_weight = Cbad.weight_num
    Cbad.weight_num = lambda t: tuple(
        w + Cbad.scale * (i == 1 and tuple(t) == (1, -1)) for i, w in enumerate(true_weight(t)))
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


def test_u0_compare_errors(a2_setup, monkeypatch):
    rs, a1, a2, C = a2_setup
    V = induce(C, 3)
    N = build_N([a1, a2, 0])
    with pytest.raises(ValueError, match="zero in the quotient"):
        u0_compare(V, {}, N, (0, 0, 0))
    # a word of nonzero weight moves the base vector, so it has no scalar; the
    # quotient is read before the module
    word = [rs.simple_root(1)]
    monkeypatch.setattr(inducemod, "_zero_weight_words", lambda system, max_len: [word])
    with pytest.raises(NonScalarActionError, match="non-scalarly on the quotient vector"):
        u0_compare(V, V.one_tensor(), N, (0, 0, 0))
    # X_{alpha_2} kills 1 (x) C, so the quotient scalar is 0, and moves x(0) of
    # the cuspidal module of the same base weight
    word[0] = rs.simple_root(2)
    shifted = build_N([a1 + F(1, 7), a2 + F(1, 7), F(1, 7)])
    assert shifted.weight_of((0, 0, 0)) == N.weight_of((0, 0, 0))
    with pytest.raises(NonScalarActionError, match="did not return to the base vector"):
        u0_compare(V, V.one_tensor(), shifted, (0, 0, 0))
    assert u0_compare(V, V.one_tensor(), N, (0, 0, 0))


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


def _proper_blocks(system):
    n = system.rank
    return [b for size in range(1, n) for b in itertools.combinations(range(1, n + 1), size)]


def _oracle_candidates(system, block):
    """The probe's candidate rule written out with every test it ever had: a
    recursive search for a chain of theta-positive roots from alpha to delta
    whose partial sums are roots, delta != alpha, and nu != gamma."""
    roots, n = system.roots, system.rank
    levi = [r for r in system.positive if all(r[i] == 0 for i in range(n) if i + 1 not in block)]
    ideal = [r for r in system.positive if r not in levi]
    theta_pos = [r for r in system.positive if all(r[b - 1] == 0 for b in block)]
    plus = lambda x, y: tuple(a + b for a, b in zip(x, y))
    minus = lambda x, y: tuple(a - b for a, b in zip(x, y))
    below = lambda x, y: all(a <= b for a, b in zip(x, y))

    def chain(alpha, rem):
        return not any(rem) or any(below(beta, rem) and plus(alpha, beta) in roots
                                   and chain(plus(alpha, beta), minus(rem, beta))
                                   for beta in theta_pos)

    out = []
    for delta in ideal:
        for alpha in levi:
            rem = minus(delta, alpha)
            if (min(rem) < 0 or any(rem[b - 1] for b in block) or not any(rem)
                    or not chain(alpha, rem)):
                continue
            for mu in levi:
                nu = plus(delta, mu)
                if nu in roots and all(minus(nu, g) not in roots and any(minus(nu, g))
                                       for g in theta_pos if below(g, rem)):
                    out.append((alpha, rem, delta, nu))
    return out


def _levi_on(system, block, values):
    """A Levi module on the block: a type C component through the last simple
    root carries M, every other component N; values feeds the parameters and
    then the central values."""
    values = iter(values)
    parts = []
    for comp in sorted((tuple(sorted(c)) for c in system.connected_components(block)), key=min):
        if system.cartan_type.family == "C" and system.rank in comp:
            parts.append((comp, build_M([next(values) for _ in comp])))
        else:
            parts.append((comp, build_N([next(values) for _ in range(len(comp) + 1)])))
    central = {i: next(values) for i in range(1, system.rank + 1) if i not in block}
    return levi_module_product(system, parts, central)


def test_probe_candidates_match_the_chain_search_oracle(monkeypatch):
    """The ordered candidate list of the probe, read from the ProbeCandidate
    constructions before the first projection, equals the oracle's on every
    proper block of A2-A5 and C2-C5."""
    made = []

    class Recording(inducemod.ProbeCandidate):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(args)

    class ListBuilt(Exception):
        pass

    def stop(self, vec):
        raise ListBuilt

    monkeypatch.setattr(inducemod, "ProbeCandidate", Recording)
    monkeypatch.setattr(inducemod.TruncatedVerma, "project", stop)
    total = 0
    for name in ("A2", "A3", "A4", "A5", "C2", "C3", "C4", "C5"):
        system = build_root_system(name)
        for block in _proper_blocks(system):
            made.clear()
            C = _levi_on(system, block, [F(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)])
            try:
                assert probe_restriction_failure(C, depth=3).candidates_checked == 0
            except ListBuilt:
                pass
            assert made == _oracle_candidates(system, block), (name, block)
            total += len(made)
    assert total == 252


def test_simple_theta_steps_join_alpha_to_delta():
    """Whenever delta - alpha >= 0 vanishes on the block, greedy steps by theta
    simple roots lead from alpha to delta through roots; so the probe needs no
    chain search, and delta - alpha is never zero."""
    pairs = 0
    for name in ("A5", "B4", "C5", "D5", "E6", "F4", "G2"):
        system = build_root_system(name)
        n = system.rank
        for block in _proper_blocks(system):
            theta = [i for i in range(n) if i + 1 not in block]
            on_levi = lambda r: all(r[i] == 0 for i in theta)
            for delta in (r for r in system.positive if not on_levi(r)):
                for alpha in (r for r in system.positive if on_levi(r)):
                    rem = [d - a for d, a in zip(delta, alpha)]
                    if min(rem) < 0 or any(rem[b - 1] for b in block):
                        continue
                    assert any(rem)
                    pairs += 1
                    cur = list(alpha)
                    while rem != [0] * n:
                        i = next((i for i in theta if rem[i] > 0 and tuple(
                            c + (j == i) for j, c in enumerate(cur)) in system.roots), None)
                        assert i is not None, (name, block, delta, alpha, cur)
                        cur[i] += 1
                        rem[i] -= 1
                    assert tuple(cur) == delta
    assert pairs == 1581


def test_levi_component_must_live_on_its_block():
    a3, c3 = build_root_system("A3"), build_root_system("C3")
    with pytest.raises(ValueError):
        levi_module(a3, [1, 2], build_M([F(1, 5), F(2, 5)]), {3: F(1, 3)})
    with pytest.raises(ValueError):
        levi_module(c3, [2, 3], build_N([F(1, 5), F(2, 5), F(-3, 5)]), {1: F(1, 3)})


def _in_basis(C, t):
    """Whether x(t) is a basis vector of the Levi module C: each component's
    slice of t is an index of that component's module."""
    pieces = iter(t)
    return all(inner.in_basis(tuple(itertools.islice(pieces, inner.nvars)))
               for _, inner in C.components)


def _pbw_keys(V, indices):
    """Every PBW monomial up to V's depth tensored with every given Levi index."""
    return [(mono, t) for n in range(V.depth + 1)
            for mono in itertools.combinations_with_replacement(V.nminus, n) for t in indices]


def _brute_kernel(V, mu, basis, index_of_weight):
    """The maximal submodule in the span of basis, keys of weight mu, from every
    PBW word over the positive nilradical.

    A positive nilradical root raises the degree outside the Levi block by at
    least one, so a word longer than the largest such degree of a basis
    monomial cannot return to 1 (x) C: the words below are all functionals
    that can be nonzero, with no Levi-shift pruning of their weights.  The
    1 (x) C target of a word is looked up in index_of_weight, a table of C
    weights over a box of indices; a box too small drops functionals, and the
    kernel then comes out too large.
    """
    outside = [i for i in range(V.system.rank) if i + 1 not in V.C.block]
    longest = max(-sum(r[i] for r in mono for i in outside) for mono, _ in basis)
    rows = []
    for n in range(longest + 1):
        for word in itertools.combinations_with_replacement(V.ideal_pos, n):
            nu = [sum(col) for col in zip(*word)] if word else [0] * V.system.rank
            t = index_of_weight.get(
                tuple(m + V.system.pairing(nu, i) for i, m in enumerate(mu)))
            if t is None:
                continue
            row = []
            for key in basis:
                vec = {key: F(1)}
                for root in reversed(word):
                    vec = V.act_root(root, vec)
                row.append(vec.get(((), t), F(0)))
            rows.append(row)
    return linalg.nullspace(rows, len(basis))


def test_kernel_data_matches_brute_force():
    """The quotient oracle: on each weight space, enumerated here as PBW keys up
    to the depth on a box of Levi indices, project kills exactly the maximal
    submodule, so every brute-force kernel vector projects to {} and the images
    of the basis have rank dim - dim K."""
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
    started = time.perf_counter()
    checked = 0
    for C, depths in modules:
        # targets reach coordinate 7 (C2 at depth 3); radius 8 leaves a margin
        box = [t for t in itertools.product(range(-8, 9), repeat=len(C.zero_index()))
               if _in_basis(C, t)]
        index_of_weight = {C.weight_of(t): t for t in box}
        indices = [t for t in box if max(map(abs, t)) <= 1]
        for depth in depths:
            V = induce(C, depth)
            spaces = {}
            for key in _pbw_keys(V, box):
                spaces.setdefault(V.weight_of_key(key), []).append(key)
            for mu in sorted({V.weight_of_key(key) for key in _pbw_keys(V, indices)}):
                basis = spaces[mu]
                kernel = _brute_kernel(V, mu, basis, index_of_weight)
                for z in kernel:
                    assert V.project({k: c for k, c in zip(basis, z) if c}) == {}, (C.block, mu)
                images = [V.project({key: F(1)}) for key in basis]
                cols = {k: j for j, k in enumerate({k for im in images for k in im})}
                rows = [{cols[k]: c for k, c in im.items()} for im in images]
                assert linalg.rank(rows, len(cols)) == len(basis) - len(kernel), (C.block, depth, mu)
                checked += bool(kernel)
    assert checked > 100
    assert time.perf_counter() - started < 10


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "C2", "C3", "C4"])
def test_zero_weight_words_match_enumeration(name):
    rs = build_root_system(name)
    roots = sorted(rs.roots, key=lambda r: (sum(r), r))
    expected = [word for n in range(1, 5)
                for word in itertools.combinations_with_replacement(roots, n)
                if not any(map(sum, zip(*word)))]
    expected.sort(key=lambda word: [roots.index(r) for r in word])
    assert _zero_weight_words(rs, 4) == expected


def _oracle_levi(C, root, t):
    """X_root x(t) for a Levi root, from the inner module's own Fraction action."""
    lo = 0
    for pos, inner in C.components:
        piece = t[lo:lo + inner.nvars]
        if all(c == 0 or j + 1 in pos for j, c in enumerate(root)):
            c, piece2 = inner.act_root(tuple(root[b - 1] for b in pos), piece)
            return c, t[:lo] + piece2 + t[lo + inner.nvars:]
        lo += inner.nvars
    raise AssertionError(f"{root} is not a Levi root")


def _oracle_word(V, word, t):
    """word (x) x(t) as {(sorted monomial, index): Fraction}, the word's letters
    applied rightmost first; a letter is a root or ("H", coroot coefficients).

    Plain PBW straightening in Fractions: the rightmost letter that is not a
    negative nilradical root moves right past the negative nilradical letters
    after it, one commutator at a time, until it reaches x(t), where a Levi root
    acts through the inner module, a Cartan element by the weight of x(t), and
    a positive nilradical root by zero; the remaining letters are then sorted
    into PBW order by commutators.
    """
    rs, real = V.system, V.system.realization
    order = {r: i for i, r in enumerate(V.nminus)}
    out = {}

    def add(vec, f):
        for key, c in vec.items():
            out[key] = out.get(key, F(0)) + f * c

    j = len(word)
    while j and word[j - 1] in order:
        j -= 1
    if j == 0:  # only negative nilradical letters: sort them
        i = next((i for i in range(len(word) - 1) if order[word[i]] > order[word[i + 1]]), None)
        if i is None:
            return {(tuple(word), t): F(1)}
        a, b = word[i], word[i + 1]
        add(_oracle_word(V, word[:i] + (b, a) + word[i + 2:], t), F(1))
        s = tuple(x + y for x, y in zip(a, b))
        if s in rs.roots:
            add(_oracle_word(V, word[:i] + (s,) + word[i + 2:], t), real.structure_constant(a, b))
        return {k: c for k, c in out.items() if c}
    y, rest = word[j - 1], word[j:]
    if not rest:  # y acts on x(t)
        if y[0] == "H":
            c = sum(a * w for a, w in zip(y[1], V.C.weight_of(t)))
            return {k: c * v for k, v in _oracle_word(V, word[:-1], t).items() if c * v}
        if y not in V.levi_roots:
            return {}
        c, t2 = _oracle_levi(V.C, y, t)
        return {k: c * v for k, v in _oracle_word(V, word[:-1], t2).items() if c * v} if c else {}
    g = rest[0]
    add(_oracle_word(V, word[:j - 1] + (g, y) + rest[1:], t), F(1))
    if y[0] == "H":  # [H, X_g] = g(H) X_g
        c = sum(a * rs.pairing(g, i) for i, a in enumerate(y[1]))
        add(_oracle_word(V, word[:j - 1] + (g,) + rest[1:], t), c)
    else:
        s = tuple(x + z for x, z in zip(y, g))
        if s in rs.roots:
            add(_oracle_word(V, word[:j - 1] + (s,) + rest[1:], t), real.structure_constant(y, g))
        elif not any(s):
            h = ("H", real.cartan_coefficients(y))
            add(_oracle_word(V, word[:j - 1] + (h,) + rest[1:], t), F(1))
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("case", ["A3{1,2}", "C3{2,3}", "A3{1}x{3}"])
def test_induced_action_matches_fraction_oracle(case):
    """act_root on every PBW key up to depth 3 on a box of Levi indices, for every root,
    against a Fraction PBW straightening that shares no code with it."""
    a3, c3 = build_root_system("A3"), build_root_system("C3")
    C = {"A3{1,2}": lambda: levi_module(a3, [1, 2], build_N([F(1, 2), F(1, 3), F(1, 5)]),
                                        {3: F(2, 3)}),
         "C3{2,3}": lambda: levi_module(c3, [2, 3], build_M([F(1, 3), F(2, 5)]), {1: F(1, 4)}),
         # the central value 1/7 puts a 7 into the scale that no inner module has
         "A3{1}x{3}": lambda: levi_module_product(a3, [((1,), build_N([F(1, 2), F(1, 3)])),
                                                       ((3,), build_N([F(1, 5), F(2, 5)]))],
                                                  {2: F(1, 7)})}[case]()
    V3, V = induce(C, 3), induce(C, 4)
    if case == "A3{1}x{3}":
        assert C.scale % 7 == 0 and V.scale == C.scale
    box = [t for t in itertools.product((-1, 0, 1), repeat=len(C.zero_index())) if _in_basis(C, t)]
    keys = set(_pbw_keys(V3, box))
    roots = sorted(V.system.roots)
    for key in sorted(keys):
        for root in roots:
            assert V.act_root(root, {key: F(1)}) == _oracle_word(V, (root,) + key[0], key[1]), \
                (case, root, key)
    assert len(keys) * len(roots) > 1000
    assert all(type(c) is int for memo in V._act.values() for c in memo.values())


def test_induced_cartan_term_reads_the_integer_weight():
    # X_beta (X_{-beta} (x) x(t)) = h.weight(t) x(t) for a positive nilradical
    # root beta, with [X_beta, X_{-beta}] = sum_i h_i H_{e_i}: the term is read
    # from the key's weight as integers over V.scale, so one unit planted on H_i
    # there moves it by h_i
    a3 = build_root_system("A3")
    C = levi_module(a3, [1, 2], build_N([F(1, 2), F(1, 3), F(1, 5)]), {3: F(2, 3)})
    t = C.zero_index()
    for i in range(a3.rank):
        V = induce(C, 3)
        beta = next(r for r in V.ideal_pos if V.real.cartan_coefficients(r)[i])
        h = V.real.cartan_coefficients(beta)
        vec = {((neg(beta),), t): F(1)}
        assert V.act_root(beta, vec) == _oracle_word(V, (beta, neg(beta)), t)
        want = sum(a * w for a, w in zip(h, C.weight_of(t))) + h[i]
        V = induce(C, 3)
        w = list(V._weight_nums[(), t])
        w[i] += V.scale
        V._weight_nums[(), t] = tuple(w)
        assert V.act_root(beta, vec) == ({((), t): want} if want else {})


def test_act_word_divides_once():
    a3 = build_root_system("A3")
    C = levi_module(a3, [1, 2], build_N([F(1, 2), F(1, 3), F(1, 5)]), {3: F(2, 3)})
    V = induce(C, 4)
    word = [V.ideal_pos[0]] + [neg(r) for r in V.ideal_pos] + [a3.simple_root(1)]
    vec = {((), (0, 0, 0)): F(3, 7), ((), (1, -1, 0)): F(-5, 4)}
    step = vec
    for root in reversed(word):
        step = V.act_root(root, step)
    assert V.act_word(word, vec) == step and step
    assert all(type(c) is F for c in step.values())


def test_non_roots_are_rejected():
    a3 = build_root_system("A3")
    C = levi_module(a3, [1, 2], build_N([F(1, 2), F(1, 3), F(1, 5)]), {3: F(2, 3)})
    V = induce(C, 3)
    deep = V.monomial_tensor([neg(r) for r in V.ideal_pos[:2]], C.zero_index())
    for root in [(1, 0, 1), (0, 0, 0), (1, 1, 1, 1)]:
        for vec in (V.one_tensor(), deep, {}):
            with pytest.raises(ValueError):
                V.act_root(root, vec)
            with pytest.raises(ValueError):
                V.act_word([a3.simple_root(1), root], vec)
    # a root of the algebra that is off the Levi block, or no root at all
    for root in [(0, 0, 1), (0, 1, 1), (1, 0, 1), (0, 0, 0)]:
        with pytest.raises(ValueError):
            C.act_root(root, C.zero_index())
        with pytest.raises(ValueError):
            C.act_root_num(root, C.zero_index())
    num, t = C.act_root_num(neg(a3.simple_root(1)), C.zero_index())
    assert C.act_root(neg(a3.simple_root(1)), C.zero_index()) == (F(num, C.scale), t)
