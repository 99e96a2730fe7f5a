from fractions import Fraction
from itertools import product

import pytest

from weightcat import linalg
from weightcat.rootsys import (CartanType, RealizationUnavailableError, RootSubset,
                               build_root_system, center_basis, classify_subset,
                               lattice_disjoint, levi_decomposition, validate_category_data)


def test_cartan_type_parse_and_bounds():
    assert CartanType.parse("A3") == CartanType("A", 3)
    assert str(CartanType.parse(" c2 ")) == "C2"
    for bad in ("E5", "E9", "F3", "G3", "D2", "B1", "H4", "A0"):
        with pytest.raises(ValueError):
            CartanType.parse(bad)


@pytest.mark.parametrize("name,count,simples", [
    ("A2", 6, 2), ("C2", 8, 2), ("G2", 12, 2), ("A4", 20, 4),
    ("B3", 18, 3), ("D4", 24, 4), ("F4", 48, 4), ("E6", 72, 6),
])
def test_root_counts(name, count, simples):
    rs = build_root_system(name)
    assert len(rs.roots) == count
    assert len(rs.simple) == simples
    pos = [r for r in rs.roots if sum(r) > 0]
    assert len(pos) * 2 == count
    neg = {tuple(-x for x in r) for r in pos}
    assert neg | set(pos) == set(rs.roots)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B3", "B4", "B5", "C2", "C3",
                                  "C4", "C5", "D4", "D5", "E6", "E7", "F4", "G2"])
def test_inverse_cartan_is_exact(name):
    # C . inverse == den . I in integers, and the root coordinates of a
    # root's coroot values give the root back
    rs = build_root_system(name)
    inverse, den = rs._inverse_cartan
    n = rs.rank
    assert den > 0 and all(isinstance(x, int) for row in inverse for x in row)
    assert [[sum(rs.cartan[i][l] * inverse[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)] == [[den * (i == j) for j in range(n)] for i in range(n)]
    for r in rs.ordered_roots:
        assert rs.root_coordinates(rs.coroot_values(r)) == list(r)


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
    s = tuple(x + y for x, y in zip(e1, e2))
    assert real.structure_constant(e1, e2) == 1
    got = real.bracket(real.root_vector(e1), real.root_vector(tuple(-x for x in e1)))
    assert got == real.coroot(1)


def test_bracket_example_type_C_long_root():
    rs = build_root_system("C2")
    real = rs.realization
    e2 = rs.simple_root(2)
    got = real.bracket(real.root_vector(e2), real.root_vector(tuple(-x for x in e2)))
    assert got == real.coroot(2)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "C2", "C3", "C4"])
def test_antisymmetry_and_jacobi(name):
    rs = build_root_system(name)
    real = rs.realization
    elems = [real.root_vector(r) for r in sorted(rs.roots)]
    elems += [real.coroot(i) for i in range(1, rs.rank + 1)]
    for x in elems:
        for y in elems:
            assert real.bracket(x, y) == real.bracket(y, x).scale(-1)
    # Jacobi on all triples for small ranks, sampled for rank 4
    import random
    rng = random.Random(3)
    if rs.rank <= 2:
        triples = list(product(elems, repeat=3))
    else:
        triples = [tuple(rng.sample(elems, 3)) for _ in range(400)]
    for x, y, z in triples:
        j = real.bracket(x, real.bracket(y, z)) \
            + real.bracket(y, real.bracket(z, x)) \
            + real.bracket(z, real.bracket(x, y))
        assert j.is_zero()


@pytest.mark.parametrize("name", ["A3", "C3"])
def test_bracket_nonzero_iff_root_sum(name):
    rs = build_root_system(name)
    real = rs.realization
    for a in rs.roots:
        for b in rs.roots:
            br = real.bracket(real.root_vector(a), real.root_vector(b))
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.roots or not any(s):
                assert not br.is_zero(), (a, b)
            else:
                assert br.is_zero(), (a, b)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "C1", "C2", "C3", "C4", "C5"])
def test_bracket_table_matches_weyl_commutators(name):
    # the integer contractions against the Weyl-polynomial commutator on every
    # ordered root pair, on a system of its own so that no value is memoised
    rs = build_root_system(name)
    real = rs.realization
    coroots = [real.coroot(i).terms for i in range(1, rs.rank + 1)]
    for mu, nu in product(rs.ordered_roots, repeat=2):
        s = tuple(x + y for x, y in zip(mu, nu))
        br = real.bracket(real.root_vector(mu), real.root_vector(nu))
        want = br.proportional_to(real.root_vector(s)) if s in rs.roots else 0
        got = real.structure_constant(mu, nu)
        assert type(got) is Fraction and got == want, (mu, nu)
        if not any(s):
            got = real.cartan_coefficients(mu)
            assert all(type(c) is Fraction for c in got)
            assert list(got) == linalg.in_span(br.terms, coroots), mu


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
    import random
    rng = random.Random(5)
    for _ in range(40):
        members = frozenset(r for r in roots if rng.random() < 0.4)
        sub = RootSubset(rs, members)
        flags = classify_subset(sub)
        closed = all(not (rs.is_root(tuple(a + b for a, b in zip(x, y)))
                          and tuple(a + b for a, b in zip(x, y)) not in members)
                     for x in members for y in members)
        assert flags.closed == closed
        assert flags.symmetric == (members == frozenset(tuple(-a for a in r) for r in members))


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


def test_validate_category_data():
    a3 = build_root_system("A3")
    S = RootSubset.generated_by_simples(a3, [1])
    T = RootSubset.generated_by_simples(a3, [3])
    P = RootSubset(a3, frozenset(a3.span_closure([1, 3])) |
                   frozenset(r for r in a3.roots if sum(r) > 0))
    flags = validate_category_data(a3, P, S, T, [a3.simple_root(3)])
    assert all(flags.values()), flags
    bad = validate_category_data(a3, P, S, S, [a3.simple_root(1)])
    assert not bad["lattices_disjoint"]
