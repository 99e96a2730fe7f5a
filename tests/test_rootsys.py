import random
from fractions import Fraction
from itertools import product

import pytest

from weightcat.degonemod import build_M, build_N
from weightcat.rootsys import (CartanType, RealizationUnavailableError, RootSubset, add_roots,
                               build_root_system, center_basis, classify_subset,
                               lattice_disjoint, levi_decomposition, neg_root)
from weightcat.weylmod import sparse_add


def test_cartan_type_parse_and_bounds():
    assert CartanType.parse("A3") == CartanType("A", 3)
    assert str(CartanType.parse(" c2 ")) == "C2"
    # D3 is A3, which serves that algebra with its own numbering
    # the classical ranks stop at 100
    assert [CartanType(family, 100).rank for family in "ABCD"] == [100] * 4
    for bad in ("E5", "E9", "F3", "G3", "D2", "D3", "B1", "H4", "A0", "A101", "B101", "C101", "D101"):
        with pytest.raises(ValueError):
            CartanType.parse(bad)


def _classical_roots(family, n):
    """Every root of A_n..D_n, written in the epsilon basis as textbooks list them and
    carried to simple-root coordinates (Bourbaki numbering) by partial sums."""
    dim = n + 1 if family == "A" else n

    def eps(*terms):
        v = [0] * dim
        for c, i in terms:
            v[i] += c
        return v

    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    if family == "A":
        vectors = [eps((1, i), (-1, j)) for i, j in pairs]
    else:
        vectors = [eps((1, i), (s, j)) for i, j in pairs for s in (1, -1)]
        vectors += [eps((1 + (family == "C"), i)) for i in range(n) if family != "D"]
    roots = set()
    for v in vectors:
        s = [sum(v[:k + 1]) for k in range(n)]  # the alpha_k coefficient below the special end
        if family == "C":
            s[-1] //= 2  # alpha_n = 2 eps_n
        elif family == "D":
            s[-2:] = [(s[-2] - v[-1]) // 2, s[-1] // 2]  # alpha_{n-1}, alpha_n = eps_{n-1} -+ eps_n
        roots |= {tuple(s), tuple(-x for x in s)}
    return roots


# the exceptional highest roots and positive-root counts in Bourbaki numbering
_HIGHEST = {"G2": ((3, 2), 6), "F4": ((2, 3, 4, 2), 24), "E6": ((1, 2, 2, 3, 2, 1), 36),
            "E7": ((2, 2, 3, 4, 3, 2, 1), 63), "E8": ((2, 3, 4, 6, 5, 4, 3, 2), 120)}


@pytest.mark.parametrize("name,count,simples", [
    ("A2", 6, 2), ("C2", 8, 2), ("G2", 12, 2), ("A4", 20, 4),
    ("B3", 18, 3), ("D4", 24, 4), ("F4", 48, 4), ("E6", 72, 6),
    ("E7", 126, 7), ("E8", 240, 8),
] + [(f"{fam}{n}", count(n), n) for fam, lo, count in (
    ("A", 1, lambda n: n * (n + 1)), ("B", 2, lambda n: 2 * n * n),
    ("C", 1, lambda n: 2 * n * n), ("D", 4, lambda n: 2 * n * (n - 1)))
    for n in range(lo, 11) if f"{fam}{n}" not in ("A2", "C2", "A4", "B3", "D4")])
def test_root_counts(name, count, simples):
    """The exact root set: the classical ones against their epsilon-basis lists,
    the exceptional ones by their highest root and their count."""
    rs = build_root_system(name)
    assert len(rs.roots) == count
    assert len(rs.simple) == simples
    pos = [r for r in rs.roots if sum(r) > 0]
    assert len(pos) * 2 == count
    neg = {tuple(-x for x in r) for r in pos}
    assert neg | set(pos) == set(rs.roots)
    assert set(rs.positive) == set(pos) == rs.positive_set
    assert all(x >= 0 for r in rs.positive for x in r)
    if name in _HIGHEST:
        highest, npos = _HIGHEST[name]
        assert (rs.positive[-1], len(rs.positive)) == (highest, npos)
        assert all(x <= y for r in rs.positive for x, y in zip(r, highest))
    else:
        assert rs.roots == _classical_roots(name[0], simples)


def test_c2_long_simple_root():
    rs = build_root_system("C2")
    # the long simple root is the second one: twice a short vector in the
    # standard coordinates, detected through the realization
    eps = rs.realization.epsilon_vector(rs.simple_root(2))
    assert sorted(eps) == [0, 2]


def test_every_root_positive_or_negative_combination():
    rs = build_root_system("B3")
    for r in rs.roots:
        assert all(x >= 0 for x in r) or all(x <= 0 for x in r)


def test_bracket_examples_type_A():
    rs = build_root_system("A3")
    real = rs.realization
    e1, e2 = rs.simple_root(1), rs.simple_root(2)
    # [q1 p2, q2 p3] = q1 p3, and [X_e, X_-e] = H_e along the simple roots
    assert real.structure_constant(e1, e2) == 1
    assert real.structure_constant(e2, e1) == -1
    assert real.structure_constant(e1, neg_root(e2)) == 0
    assert real.cartan_coefficients(e1) == (1, 0, 0)
    assert real.cartan_coefficients(add_roots(e1, e2)) == (1, 1, 0)
    assert real.cartan_coefficients(neg_root(e2)) == (0, -1, 0)


def test_bracket_example_type_C_long_root():
    rs = build_root_system("C2")
    real = rs.realization
    e1, e2 = rs.simple_root(1), rs.simple_root(2)
    # X_e2 = q2^2/2 and X_-e2 = -p2^2/2 bracket to q2 p2 + 1/2 = H_e2
    assert real.monomial(e2) == ((0, 2), (0, 0), 1)
    assert real.monomial(neg_root(e2)) == ((0, 0), (0, 2), -1)
    assert real.cartan_coefficients(e2) == (0, 1)
    # the short root eps1 + eps2 and the long root 2 eps1
    s, l = add_roots(e1, e2), add_roots(add_roots(e1, e1), e2)
    assert real.cartan_coefficients(s) == (1, 2)
    assert real.cartan_coefficients(l) == (1, 1)
    assert real.structure_constant(e1, e2) == 1
    assert real.structure_constant(e1, s) == 2


def _cuspidal(name):
    """The cuspidal module N(1/2, 1/3, ...) or M(1/2, 1/3, ...) on a system of
    its own, so that no bracket value is memoised: every parameter is
    non-integer, so every root vector acts injectively."""
    ct = CartanType.parse(name)
    a = [Fraction(1, j + 2) for j in range(ct.rank + (ct.family == "A"))]
    return (build_N if ct.family == "A" else build_M)(a)


def _keys(m):
    """x(0) and each X_{-alpha_i} x(0): rank + 1 vectors whose weights span
    affinely, so a wrong Cartan coefficient shows on one of them."""
    zero = m.zero_index()
    return [zero] + [m.act_root(neg_root(e), zero)[1] for e in m.system.simple]


def _commutator(m, mu, nu, k):
    """X_mu X_nu x(k) - X_nu X_mu x(k) as {key: value}, from the module action."""
    out = {}
    for word, sign in (((mu, nu), 1), ((nu, mu), -1)):
        c, t = m.act_word(word, k)
        sparse_add(out, t, sign * c)
    return out


def _table_failures(m):
    """(mu, nu, k) for every ordered root pair and key of `_keys` where the
    bracket table's [X_mu, X_nu] differs from the commutator of the realized
    action on x(k); written apart from the table's contraction arithmetic."""
    rs, real = m.system, m.realization
    keys = _keys(m)
    for mu, nu in product(rs.ordered_roots, repeat=2):
        s = add_roots(mu, nu)
        for k in keys:
            want = {}
            if not any(s):
                sparse_add(want, k, sum(c * w for c, w in zip(real.cartan_coefficients(mu), m.weight_of(k))))
            elif s in rs.roots:
                c, t = m.act_root(s, k)
                sparse_add(want, t, real.structure_constant(mu, nu) * c)
            if _commutator(m, mu, nu, k) != want:
                yield mu, nu, k


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "C1", "C2", "C3", "C4", "C5"])
def test_bracket_table_matches_weyl_commutators(name):
    # the integer contractions against the commutators of the Weyl-algebra
    # action on a cuspidal module, on every ordered root pair
    m = _cuspidal(name)
    real = m.realization
    assert next(_table_failures(m), None) is None
    for mu, nu in product(m.system.ordered_roots, repeat=2):
        s = add_roots(mu, nu)
        got = real.structure_constant(mu, nu)
        assert type(got) is int and (got != 0) == (s in m.system.roots), (mu, nu)
        if not any(s):
            assert all(type(c) is int for c in real.cartan_coefficients(mu))


@pytest.mark.parametrize("name", ["A3", "C3"])
def test_bracket_table_check_sees_one_perturbed_entry(name):
    m = _cuspidal(name)
    mu, nu = m.system.simple_root(1), m.system.simple_root(2)
    m.realization._nconst[mu, nu] = m.realization.structure_constant(mu, nu) + 1
    assert {f[:2] for f in _table_failures(m)} == {(mu, nu)}
    m = _cuspidal(name)
    e = m.system.simple_root(3)
    c = list(m.realization.cartan_coefficients(e))
    c[0] += 1
    m.realization._cartan_coeffs[e] = tuple(c)
    assert {f[:2] for f in _table_failures(m)} == {(e, neg_root(e))}


@pytest.mark.parametrize("name", ["A3", "C3"])
def test_bracket_nonzero_iff_root_sum(name):
    # read from the module action alone, without the bracket table
    m = _cuspidal(name)
    rs, keys = m.system, _keys(m)
    for a, b in product(rs.roots, repeat=2):
        s = add_roots(a, b)
        nonzero = any(_commutator(m, a, b, k) for k in keys)
        assert nonzero == (s in rs.roots or not any(s)), (a, b)


@pytest.mark.parametrize("name", [f + str(n) for f in "AC" for n in range(2, 8)])
def test_pairs_without_a_mixed_coordinate_commute(name):
    """The bracket check skips a pair with no coordinate where one root has a q
    letter and the other a p letter; every such pair is off the Cartan with
    N = 0 and no single contraction, and every pair with N != 0 or on the
    Cartan has a mixed coordinate.  Letter kinds are read from the monomials."""
    real = build_root_system(name).realization
    for mu, nu, _, n, h in real.root_pairs:
        (qa, pa, _), (qb, pb, _) = real.monomial(mu), real.monomial(nu)
        mixed = any(x and y for x, y in zip(qa + pa, pb + qb))
        if not mixed:
            assert h is None and n == 0 and real._contract(mu, nu) == {}, (mu, nu)
    for r, (q, p) in real.letter_kinds.items():
        qe, pe, _ = real.monomial(r)
        assert (q, p) == tuple({i for i, e in enumerate(x) if e} for x in (qe, pe))
        assert real.supports[r] == q | p


@pytest.mark.parametrize("name", [f + str(n) for f in "AC" for n in range(2, 9)])
def test_a_coroot_does_not_see_coordinates_off_its_support(name):
    """h_mu pairs to 0 with the weight change of a unit step e_j for every
    coordinate j off supp mu, and to a nonzero value on supp mu.  So where the
    weights are affine in k, h_mu . weight is one value on each projection
    class onto supp mu, and a Cartan pair may be tried on one window vector
    per class."""
    m = _cuspidal(name)
    real, zero = m.realization, m.weight_num(m.zero_index())
    for j in range(m.nvars):
        e_j = tuple(int(i == j) for i in range(m.nvars))
        step = [x - y for x, y in zip(m.weight_num(e_j), zero)]
        for mu in m.system.positive_set:
            pairing = sum(c * w for c, w in zip(real.cartan_coefficients(mu), step))
            assert (pairing != 0) == (j in real.supports[mu]), (mu, j, pairing)


def _table_bracket(real, x, y):
    """[x, y] of basis elements ("X", root) and ("H", i) as {element: value},
    read from the bracket table: N(mu, nu), [H_i, X_r] = pairing(r, i - 1) X_r
    and [X_nu, X_-nu] = sum_i cartan_coefficients(nu)_i H_i."""
    (kx, x), (ky, y) = x, y
    if kx == ky == "H":
        return {}
    if kx == "H":
        v = real.system.pairing(y, x - 1)
        return {("X", y): v} if v else {}
    if ky == "H":
        return {z: -v for z, v in _table_bracket(real, ("H", y), ("X", x)).items()}
    s = add_roots(x, y)
    if not any(s):
        return {("H", i): c for i, c in enumerate(real.cartan_coefficients(x), 1) if c}
    n = real.structure_constant(x, y)
    return {("X", s): n} if n else {}


def _lie_failures(real, triples):
    """Ordered pairs of basis elements whose brackets break antisymmetry, then
    triples that break the Jacobi identity, of the table's bracket."""
    rs = real.system
    elems = [("X", r) for r in rs.ordered_roots] + [("H", i) for i in range(1, rs.rank + 1)]
    for x, y in product(elems, repeat=2):
        if _table_bracket(real, x, y) != {z: -v for z, v in _table_bracket(real, y, x).items()}:
            yield x, y
    for x, y, z in triples(elems):
        jacobi = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for w, v in _table_bracket(real, b, c).items():
                for u, t in _table_bracket(real, a, w).items():
                    sparse_add(jacobi, u, v * t)
        if jacobi:
            yield x, y, z


def _triples(elems):
    """All triples at rank <= 2 (at most ten elements), 400 seeded ones above."""
    if len(elems) <= 10:
        return list(product(elems, repeat=3))
    rng = random.Random(3)
    return [tuple(rng.sample(elems, 3)) for _ in range(400)]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "C2", "C3", "C4"])
def test_antisymmetry_and_jacobi(name):
    real = build_root_system(name).realization
    assert next(_lie_failures(real, _triples), None) is None


@pytest.mark.parametrize("name", ["A2", "C2"])
def test_jacobi_sees_one_perturbed_structure_constant(name):
    rs = build_root_system(name)
    real = rs.realization
    mu, nu = rs.simple_root(1), rs.simple_root(2)
    n = real.structure_constant(mu, nu)
    real._nconst[mu, nu] = 2 * n
    # one entry alone breaks antisymmetry
    x, y = ("X", mu), ("X", nu)
    assert {f for f in _lie_failures(real, _triples) if len(f) == 2} == {(x, y), (y, x)}
    # with N(nu, mu) doubled as well, Jacobi over all triples still sees it
    real._nconst[nu, mu] = -2 * n
    failures = list(_lie_failures(real, _triples))
    assert failures and all(len(f) == 3 for f in failures)


def _q_to_p(qe, pe, num):
    # the first q letter of the monomial becomes the p letter of the same index
    i = next(i for i, e in enumerate(qe) if e)
    return (tuple(e - (j == i) for j, e in enumerate(qe)),
            tuple(e + (j == i) for j, e in enumerate(pe)), num)


def _corrupt(name, index, corrupt):
    """A fresh realization whose simple root e_index has a corrupted monomial,
    and a root nu with e_index + nu a root (None in rank one)."""
    rs = build_root_system(name)
    real = rs.realization
    e = rs.simple_root(index)
    real._monomials[e] = corrupt(*real.monomial(e))
    nu = next((r for r in rs.ordered_roots if tuple(x + y for x, y in zip(e, r)) in rs.roots), None)
    return real, e, nu


@pytest.mark.parametrize("name,index", [("A1", 1), ("A3", 1), ("A3", 2), ("C2", 2), ("C3", 1), ("C3", 3)])
def test_swapped_letter_breaks_the_bracket_table(name, index):
    real, e, nu = _corrupt(name, index, _q_to_p)
    if nu is not None:
        with pytest.raises(AssertionError):
            real.structure_constant(e, nu)
    with pytest.raises(AssertionError):
        real.cartan_coefficients(e)


@pytest.mark.parametrize("name,index", [("A1", 1), ("A3", 2), ("C2", 2), ("C3", 3)])
def test_doubled_numerator_breaks_the_bracket_table(name, index):
    # a rescaled root vector keeps every bracket proportional; only the
    # coroot normalisation of [X_e, X_-e] sees it
    real, e, nu = _corrupt(name, index, lambda qe, pe, num: (qe, pe, 2 * num))
    if nu is not None:
        clean = build_root_system(name).realization.structure_constant(e, nu)
        assert real.structure_constant(e, nu) == 2 * clean != 0
    with pytest.raises(AssertionError):
        real.cartan_coefficients(e)


def test_realization_unavailable():
    with pytest.raises(RealizationUnavailableError):
        build_root_system("B3").realization


def test_classify_subset_examples():
    rs = build_root_system("A2")
    rpos = RootSubset.of(rs, [r for r in rs.roots if sum(r) > 0])
    flags = classify_subset(rpos)
    assert flags.parabolic and flags.closed and not flags.symmetric
    assert flags.levi_part == frozenset()
    gen = RootSubset.generated_by_simples(rs, [1])
    flags = classify_subset(gen)
    assert flags.levi and flags.symmetric and flags.closed
    pair = RootSubset.of(rs, [rs.simple_root(1), rs.simple_root(2)])
    assert classify_subset(pair).closed is False


def test_classify_subset_brute_force_agreement():
    rs = build_root_system("C2")
    roots = sorted(rs.roots)
    rng = random.Random(5)
    for _ in range(40):
        members = frozenset(r for r in roots if rng.random() < 0.4)
        sub = RootSubset(rs, members)
        flags = classify_subset(sub)
        closed = all(not (tuple(a + b for a, b in zip(x, y)) in rs.roots
                          and tuple(a + b for a, b in zip(x, y)) not in members)
                     for x in members for y in members)
        assert flags.closed == closed
        assert flags.symmetric == (members == frozenset(tuple(-a for a in r) for r in members))


def _union_find_components(rs, nodes):
    """Oracle for connected_components: merge the classes of every pair of
    nodes joined in the Dynkin diagram, then list the classes by least node."""
    parent = {v: v for v in nodes}

    def root_of(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u in nodes:
        for v in nodes:
            if rs.cartan[u - 1][v - 1]:
                parent[root_of(u)] = root_of(v)
    classes = {}
    for v in nodes:
        classes.setdefault(root_of(v), set()).add(v)
    return sorted(map(frozenset, classes.values()), key=min)


@pytest.mark.parametrize("name", ["A4", "C4", "D5", "E6"])
def test_connected_components_match_union_find_on_every_subset(name):
    rs = build_root_system(name)
    n = rs.rank
    for mask in range(1 << n):
        nodes = [i + 1 for i in range(n) if mask >> i & 1]
        assert rs.connected_components(nodes) == _union_find_components(rs, nodes), nodes


def test_levi_part_of_parabolic_is_levi():
    rs = build_root_system("C3")
    theta = [1, 2]
    span, nplus, _ = levi_decomposition(rs, theta)
    par = RootSubset(rs, frozenset(span) | frozenset(nplus))
    flags = classify_subset(par)
    assert flags.parabolic
    assert classify_subset(RootSubset(rs, flags.levi_part)).levi


def test_lattice_disjoint_examples():
    a3 = build_root_system("A3")
    s = RootSubset.generated_by_simples(a3, [1])
    t = RootSubset.generated_by_simples(a3, [2])
    assert lattice_disjoint(s, t) is True
    a2 = build_root_system("A2")
    s = RootSubset.generated_by_simples(a2, [1])
    t = RootSubset.of(a2, [(1, 1), (-1, -1)])
    assert lattice_disjoint(s, t) is True
    assert lattice_disjoint(s, s) is False


def test_levi_decomposition_examples():
    a2 = build_root_system("A2")
    span, nplus, nminus = levi_decomposition(a2, [2])
    assert nplus == frozenset({(1, 0), (1, 1)})
    span, nplus, _ = levi_decomposition(a2, [])
    assert nplus == frozenset(r for r in a2.roots if sum(r) > 0)
    c2 = build_root_system("C2")
    span, nplus, _ = levi_decomposition(c2, [1])
    assert nplus == frozenset({(0, 1), (1, 1), (2, 1)})


def test_center_basis():
    a2 = build_root_system("A2")
    basis = center_basis(a2, [1])
    assert len(basis) == 1
    z = basis[0]
    # the central element pairs to zero with the block simple root
    assert sum(z[i] * a2.cartan[0][i] for i in range(2)) == 0
    # the full block leaves no central direction
    assert center_basis(a2, [1, 2]) == []
    assert len(center_basis(a2, [])) == 2
