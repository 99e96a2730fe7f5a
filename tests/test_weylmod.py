from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightcat.weylmod import (WeylParams, WeylPolynomial, act_monomial, check_weyl_relations,
                               format_rational, k_member, lattice_window, parse_rational,
                               transitivity_probe, weyl_act)


def test_rational_io():
    assert parse_rational("-3/7") == F(-3, 7)
    assert parse_rational("4") == F(4)
    assert format_rational(F(5, 1)) == "5"
    assert format_rational(F(-2, 6)) == "-1/3"


def test_polynomial_defining_relations():
    one = WeylPolynomial.constant(2, 1)
    q1 = WeylPolynomial.monomial(2, (1, 0), (0, 0))
    p1 = WeylPolynomial.monomial(2, (0, 0), (1, 0))
    q2 = WeylPolynomial.monomial(2, (0, 1), (0, 0))
    p2 = WeylPolynomial.monomial(2, (0, 0), (0, 1))
    assert p1.commutator(q1) == one
    assert p1.commutator(q2).is_zero()
    assert q1.commutator(q2).is_zero()
    # the rank-one quadratic pair brackets to a diagonal plus a constant
    half_q2 = q1 * q1
    half_p2 = p1 * p1
    qp = WeylPolynomial.monomial(2, (1, 0), (1, 0))
    got = half_q2.scale(F(1, 2)).commutator(half_p2.scale(F(-1, 2)))
    assert got == qp + WeylPolynomial.constant(2, F(1, 2))


def test_k_member_examples():
    assert k_member(WeylParams.of(["-1"]), (0,)) is True
    assert k_member(WeylParams.of(["-1"]), (1,)) is False
    assert k_member(WeylParams.of(["1/2"]), (-7,)) is True
    assert k_member(WeylParams.of(["0"]), (-1,)) is False


def test_weyl_act_branches():
    neg = WeylParams.of(["-1"])
    t = weyl_act(("q", 0), neg, (-2,))
    assert (t.coeff, t.target) == (F(-2), (-1,))
    half = WeylParams.of(["1/2"])
    t = weyl_act(("p", 0), half, (0,))
    assert (t.coeff, t.target) == (F(1, 2), (-1,))
    # boundary annihilation: the raising coefficient vanishes exactly at the edge
    t = weyl_act(("q", 0), neg, (0,))
    assert t.coeff == 0
    m2 = WeylParams.of(["-2"])
    t = weyl_act(("q", 0), m2, (1,))
    assert t.coeff == 0
    t = weyl_act(("q", 0), m2, (0,))
    assert t.coeff == F(-1) and t.target == (1,)
    with pytest.raises(ValueError):
        weyl_act(("q", 0), neg, (5,))


@pytest.mark.parametrize("avals,radius", [
    (["1/2", "1/3"], 3),
    (["-1", "0"], 3),
    (["-1"], 4),
    (["-2", "1/5", "0"], 2),
])
def test_defining_relations_on_window(avals, radius):
    assert check_weyl_relations(WeylParams.of(avals), radius) == []


def test_monomial_action_composes():
    params = WeylParams.of(["1/2", "1/3"])
    t = act_monomial(params, (1, 0), (0, 1), (0, 0))  # q1 p2
    assert (t.coeff, t.target) == (F(1, 3), (1, -1))


@pytest.mark.parametrize("avals,radius", [
    (["1/2"], 2),
    (["-1"], 2),
    (["1/2", "-1"], 2),
])
def test_transitivity(avals, radius):
    assert transitivity_probe(WeylParams.of(avals), radius) is True


def test_injectivity_for_non_integer_parameters():
    params = WeylParams.of(["1/2", "-3/7"])
    for k in lattice_window(params, 3):
        for i in range(2):
            for kind in ("q", "p"):
                assert weyl_act((kind, i), params, k).coeff != 0


def test_relation_checks_reject_negative_radius():
    # a negative radius gives an empty window, on which nothing would be checked
    with pytest.raises(ValueError):
        check_weyl_relations(WeylParams.of(["1/2", "-1"]), -1)
    with pytest.raises(ValueError):
        transitivity_probe(WeylParams.of(["1/2"]), -1)


# An independent statement of the lattice modules, in Fractions: an integer a_i
# keeps a_i + k_i on the side of 0 where a_i is; on a negative-integer coordinate
# q_i x(k) = (a_i + k_i + 1) x(k + e_i) and p_i x(k) = x(k - e_i), elsewhere
# q_i x(k) = x(k + e_i) and p_i x(k) = (a_i + k_i) x(k - e_i).
def _oracle_admissible(a, k):
    return all(ai.denominator != 1 or (ai < 0) == (ai + ki < 0) for ai, ki in zip(a, k))


def _oracle_act(a, kind, i, k):
    neg = a[i].denominator == 1 and a[i] < 0
    if kind == "q":
        return (a[i] + k[i] + 1 if neg else F(1)), k[:i] + (k[i] + 1,) + k[i + 1:]
    return (F(1) if neg else a[i] + k[i]), k[:i] + (k[i] - 1,) + k[i + 1:]


def _oracle_monomial(a, qexp, pexp, k):
    coeff = F(1)
    for kind, exps in (("p", pexp), ("q", qexp)):
        for i, e in enumerate(exps):
            for _ in range(e):
                c, target = _oracle_act(a, kind, i, k)
                if c == 0:
                    return F(0), k
                assert _oracle_admissible(a, target)
                coeff, k = coeff * c, target
    return coeff, k


_non_integers = st.integers(2, 12).flatmap(
    lambda d: st.builds(lambda m, r: F(d * m + r, d), st.integers(-3, 3), st.integers(1, d - 1)))
_parameters = st.one_of(st.integers(-4, -1).map(F), st.integers(0, 4).map(F), _non_integers)


@st.composite
def _lattice_cases(draw):
    a = tuple(draw(st.lists(_parameters, min_size=1, max_size=4)))
    n = len(a)
    k = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    qexp, pexp = (tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))) for _ in "qp")
    return a, k, qexp, pexp, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(_lattice_cases())
def test_integer_action_matches_fraction_oracle(case):
    a, k, qexp, pexp, radius = case
    params = WeylParams(a)
    cube = product(range(-radius, radius + 1), repeat=len(a))
    assert list(product(*params.window_ranges(radius))) == [x for x in cube if _oracle_admissible(a, x)]
    admissible = _oracle_admissible(a, k)
    assert params.in_lattice(k) is admissible
    if not admissible:
        with pytest.raises(ValueError):
            weyl_act(("q", 0), params, k)
        if any(qexp) or any(pexp):
            with pytest.raises(ValueError):
                act_monomial(params, qexp, pexp, k)
        return
    for i, kind in product(range(len(a)), "qp"):
        t = weyl_act((kind, i), params, k)
        assert (t.coeff, t.target) == _oracle_act(a, kind, i, k)
    t = act_monomial(params, qexp, pexp, k)
    assert (t.coeff, t.target) == _oracle_monomial(a, qexp, pexp, k)
