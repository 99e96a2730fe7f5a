from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightcat.categorio import check_membership
from weightcat.degonemod import build_M, build_N
from weightcat.extcoh import coboundary_quotient_dim, cocycle_space
from weightcat.rootsys import build_root_system
from weightcat.weylmod import (WINDOW_LIMIT, CertificationError, Lookup, WeylAuditError, WeylParams,
                               check_weyl_relations, format_rational, lattice_window, monomial_word,
                               parse_rational, reach, representatives, sparse_add,
                               transitivity_probe, weyl_act)


def test_rational_io():
    assert parse_rational("-3/7") == F(-3, 7)
    assert parse_rational("4") == F(4)
    assert format_rational(F(5, 1)) == "5"
    assert format_rational(F(-2, 6)) == "-1/3"


def test_lookup_fills_each_key_once():
    calls = []
    memo = Lookup(lambda key: calls.append(key) or 2 * key)
    assert [memo[k] for k in (3, 1, 3, 3, 1)] == [6, 2, 6, 6, 2]
    assert calls == [3, 1] and memo == {3: 6, 1: 2}


def test_lookup_stores_nothing_when_fn_raises():
    calls = []

    def fn(key):
        calls.append(key)
        if key < 0:
            raise ValueError(key)
        return key

    memo = Lookup(fn)
    for _ in range(2):
        with pytest.raises(ValueError):
            memo[-1]
    assert memo[2] == 2
    assert calls == [-1, -1, 2] and memo == {2: 2}


def test_k_member_examples():
    assert WeylParams.of(["-1"]).in_lattice((0,)) is True
    assert WeylParams.of(["-1"]).in_lattice((1,)) is False
    assert WeylParams.of(["1/2"]).in_lattice((-7,)) is True
    assert WeylParams.of(["0"]).in_lattice((-1,)) is False


def test_weyl_act_branches():
    neg = WeylParams.of(["-1"])
    assert weyl_act(("q", 0), neg, (-2,)) == (F(-2), (-1,))
    half = WeylParams.of(["1/2"])
    assert weyl_act(("p", 0), half, (0,)) == (F(1, 2), (-1,))
    # boundary annihilation: the raising coefficient vanishes exactly at the edge
    assert weyl_act(("q", 0), neg, (0,)) == (0, (0,))
    m2 = WeylParams.of(["-2"])
    assert weyl_act(("q", 0), m2, (1,))[0] == 0
    assert weyl_act(("q", 0), m2, (0,)) == (F(-1), (1,))
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


def test_relation_check_sees_a_corrupted_step(monkeypatch):
    # a wrong coefficient (p_1 on k_1 = 0) or a wrong move (q_2 from k_2 = 0
    # to 2) breaks [p_i, q_i] at every window vector whose walks use it
    params = WeylParams.of(["-1", "1/3"])
    step = WeylParams._step

    def wrong_coefficient(self, kind, i, ki):
        num, den, ki2 = step(self, kind, i, ki)
        return (num + den, den, ki2) if (kind, i, ki) == ("p", 0, 0) else (num, den, ki2)

    monkeypatch.setattr(WeylParams, "_step", wrong_coefficient)
    assert check_weyl_relations(params, 1) == [
        "[p1,q1] wrong at (-1, -1): {}",
        "[p1,q1] wrong at (-1, 0): {}",
        "[p1,q1] wrong at (-1, 1): {}",
        "[p1,q1] wrong at (0, -1): {(0, -1): Fraction(2, 1)}",
        "[p1,q1] wrong at (0, 0): {(0, 0): Fraction(2, 1)}",
        "[p1,q1] wrong at (0, 1): {(0, 1): Fraction(2, 1)}",
    ]

    def wrong_move(self, kind, i, ki):
        num, den, ki2 = step(self, kind, i, ki)
        return (num, den, ki2 + 1) if (kind, i, ki) == ("q", 1, 0) else (num, den, ki2)

    monkeypatch.setattr(WeylParams, "_step", wrong_move)
    assert check_weyl_relations(params, 1) == [
        "[p2,q2] wrong at (-1, 0): {(-1, 1): Fraction(7, 3), (-1, 0): Fraction(-1, 3)}",
        "[p2,q2] wrong at (-1, 1): {(-1, 1): Fraction(7, 3), (-1, 2): Fraction(-4, 3)}",
        "[p2,q2] wrong at (0, 0): {(0, 1): Fraction(7, 3), (0, 0): Fraction(-1, 3)}",
        "[p2,q2] wrong at (0, 1): {(0, 1): Fraction(7, 3), (0, 2): Fraction(-4, 3)}",
    ]

    # p_2 keeps k_2 everywhere: [p_2, q_2] x(k) is x(k + e_2), the right
    # coefficient at the wrong target
    monkeypatch.setattr(WeylParams, "_step", lambda self, kind, i, ki: (
        step(self, kind, i, ki)[:2] + (ki,) if (kind, i) == ("p", 1) else step(self, kind, i, ki)))
    assert check_weyl_relations(params, 1) == [
        f"[p2,q2] wrong at {k}: {{{(k[0], k[1] + 1)}: Fraction(1, 1)}}"
        for k in lattice_window(params, 1)]


def _oracle_relations(params, a, radius):
    """The relation check as a scan: every admissible k of the cube, in order,
    every relation at k from two walks, in Fractions."""
    n, out = len(a), []

    def bracket(g, h, k):
        got, steps = {}, params.steps()
        for sign, (num, den, t) in ((1, params._walk(steps[g, h], k)), (-1, params._walk(steps[h, g], k))):
            if num:
                got[t] = got.get(t, 0) + sign * F(num, den)
                if not got[t]:
                    del got[t]
        return got

    for k in product(range(-radius, radius + 1), repeat=n):
        if not _oracle_admissible(a, k):
            continue
        for i in range(n):
            for j in range(i + 1, n):
                for kind in "qp":
                    if bracket((kind, i), (kind, j), k):
                        out.append(f"[{kind}{i + 1},{kind}{j + 1}] != 0 at {k}")
            for j in range(n):
                got = bracket(("p", i), ("q", j), k)
                if got != ({k: 1} if i == j else {}):
                    out.append(f"[p{i + 1},q{j + 1}] wrong at {k}: {got}")
    return out


def test_relation_check_lists_every_violation_on_three_and_four_coordinates(monkeypatch):
    # with three or four coordinates a value pair (k_i, k_j) recurs at many
    # window vectors; each of them must be listed, in window order
    step, walk = WeylParams._step, WeylParams._walk
    params = WeylParams.of(["1/3", "-1", "0"])
    monkeypatch.setattr(WeylParams, "_step", lambda self, kind, i, ki: (
        (2, 1, ki - 1) if (kind, i, ki) == ("p", 2, 1) else step(self, kind, i, ki)))
    got = check_weyl_relations(params, 2)
    assert len(got) == 30 and {v[:7] for v in got} == {"[p3,q3]"}
    assert got == _oracle_relations(params, params.a, 2)

    params = WeylParams.of(["-2", "2/5", "1", "-1"])
    monkeypatch.setattr(WeylParams, "_step", lambda self, kind, i, ki: (
        step(self, kind, i, ki)[:2] + (1,) if (kind, i, ki) == ("q", 1, -1) else step(self, kind, i, ki)))
    got = check_weyl_relations(params, 1)
    assert len(got) == 36 and {v[:7] for v in got} == {"[p2,q2]"}
    assert got == _oracle_relations(params, params.a, 1)

    # a pure step corruption cannot break a relation on two coordinates, so
    # skew two two-letter walks, each by the value of one of its coordinates
    # (one steps() per params, so a word's letters are known by identity)
    monkeypatch.setattr(WeylParams, "_step", step)
    made, steps = {}, WeylParams.steps
    monkeypatch.setattr(WeylParams, "steps", lambda self: made.setdefault(self, steps(self)))

    def skewed(self, letters, k):
        num, den, t = walk(self, letters, k)
        if any(letters is self.steps()[word] and k[0] == k0
               for word, k0 in (((("q", 0), ("q", 2)), 0), ((("p", 1), ("q", 0)), -1))):
            num *= 2
        return num, den, t

    monkeypatch.setattr(WeylParams, "_walk", skewed)
    params = WeylParams.of(["1/2", "-1", "1/5"])
    got = check_weyl_relations(params, 1)
    assert {v[:7] for v in got} == {"[q1,q3]", "[p2,q1]"}
    assert got == _oracle_relations(params, params.a, 1)


def test_relation_check_raises_the_audit_error_of_one_corrupted_move():
    # q_2 on a_2 = -1 must vanish at k_2 = 0; with a_2's numerator read as -2
    # it moves x(k) out of the index set there.  The relations are decided
    # one at a time, not one window vector at a time: only with two faulty
    # moves could another one raise first.
    params = WeylParams.of(["1/3", "-1", "0"])
    object.__setattr__(params, "_num", (1, -2, 0))
    for check in (check_weyl_relations, lambda p, r: _oracle_relations(p, p.a, r)):
        with pytest.raises(WeylAuditError) as err:
            check(params, 2)
        assert str(err.value) == "q_2 moves k_2 to 1, outside the index set, with coefficient -1"


def test_monomial_action_composes():
    params = WeylParams.of(["1/2", "1/3"])
    # q1 p2, walked as the root-action store walks it
    assert params._walk(params.steps()[monomial_word((1, 0), (0, 1))], (0, 0)) == (1, 3, (1, -1))


def _strongly_connected(params, radius):
    """Oracle for transitivity_probe: every window vector's reachable set, grown
    by whole rounds of nonzero in-window moves until no round adds a vector."""
    window = lattice_window(params, radius)
    inside = set(window)
    closure = {k: {k} | {t for i in range(params.n) for kind in "qp"
                         for c, t in [weyl_act((kind, i), params, k)] if c and t in inside}
               for k in window}
    grown = True
    while grown:
        grown = False
        for k in window:
            wider = set().union(*(closure[t] for t in closure[k]))
            if wider != closure[k]:
                closure[k], grown = wider, True
    return all(closure[k] == inside for k in window)


@pytest.mark.parametrize("avals,radius", [
    (["1/2"], 2),
    (["-1"], 2),
    (["1/2", "-1"], 2),
    (["2"], 2),
    (["-2", "0"], 2),
])
def test_transitivity(avals, radius):
    params = WeylParams.of(avals)
    assert transitivity_probe(params, radius) is _strongly_connected(params, radius) is True


@pytest.mark.parametrize("ki,connected", [(0, False), (2, True)])
def test_transitivity_sees_a_step_corrupted_to_zero(monkeypatch, ki, connected):
    # q_1 from k_1 = 0 corrupted to zero cuts every edge from k_1 = 0 to k_1 = 1;
    # from k_1 = 2, the edge of the window, its target was outside anyway
    params = WeylParams.of(["1/2", "-1"])
    step = WeylParams._step
    monkeypatch.setattr(WeylParams, "_step", lambda self, kind, i, k: (
        (0, 1, k + 1) if (kind, i, k) == ("q", 0, ki) else step(self, kind, i, k)))
    assert transitivity_probe(params, 2) is _strongly_connected(params, 2) is connected


def test_reach_closes_over_cycles_and_keeps_the_start():
    edges = {0: [1], 1: [2, 0], 2: [1], 3: [0], 4: [4]}
    assert [reach(s, edges.__getitem__) for s in range(5)] == [
        {0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2, 3}, {4}]


def test_injectivity_for_non_integer_parameters():
    params = WeylParams.of(["1/2", "-3/7"])
    for k in lattice_window(params, 3):
        for i in range(2):
            for kind in ("q", "p"):
                assert weyl_act((kind, i), params, k)[0] != 0


_ENTRIES = st.one_of(st.integers(-4, -1), st.integers(0, 4),
                     st.fractions(-4, 4, max_denominator=7).filter(lambda x: x.denominator > 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_ENTRIES, min_size=1, max_size=5))
def test_every_window_at_radius_zero_holds_the_zero_index(a):
    # k = 0 is admissible for negative-integer, non-negative-integer and
    # non-integer entries alike, so a window is empty exactly at radius < 0
    params = WeylParams(tuple(map(F, a)))
    assert all(0 in r for r in params.window_ranges(0))
    with pytest.raises(CertificationError, match="holds no point"):
        params.window_ranges(-1)


@pytest.mark.parametrize("build,params", [
    (build_N, ["-1", "1/2", "1/3", "0"]), (build_N, ["-1", "-1", "1/2", "1/3", "0", "0"]),
    (build_M, ["-1", "1/4"]), (build_M, ["-1", "-1"]), (build_M, ["-1", "-2"]),
])
def test_a_module_window_at_radius_zero_holds_the_zero_index(build, params):
    m = build(params)
    assert m.window(0) == [m.zero_index()]
    assert m.degree_on_window(0) == 1


_N = ["-1", "1/2", "1/3", "0"]


# every check and solver on a window, at radius -1: one that saw no vector
# would certify nothing, and `window_ranges` refuses it for all of them
@pytest.mark.parametrize("check", [
    lambda r: check_weyl_relations(WeylParams.of(["1/2", "-1"]), r),
    lambda r: transitivity_probe(WeylParams.of(["1/2"]), r),
    lambda r: next(build_N(_N).bracket_defects(r)),
    lambda r: build_N(_N).degree_on_window(r),
    lambda r: build_M(["-1", "1/4"]).degree_on_window(r),
    lambda r: check_membership(build_N(_N), build_N(_N).theta_a(), radius=r),
    lambda r: cocycle_space(build_N(["1/2", "1/3"]), build_N(["1/2", "1/3"]), r),
    lambda r: coboundary_quotient_dim(build_N(["1/2", "1/3"]), build_N(["1/2", "1/3"]), r),
], ids=["weyl_relations", "transitivity_probe", "bracket_defects", "degree_on_window-N",
        "degree_on_window-M", "check_membership", "cocycle_space", "coboundary_quotient_dim"])
def test_a_negative_radius_is_refused_by_every_window_check(check):
    with pytest.raises(CertificationError, match="holds no point"):
        check(-1)


def test_window_limit_admits_rank_six_and_refuses_before_enumerating():
    # the largest window in use, A6 N(1/2,..,1/17) at B=2, spans 5**7 points
    a6 = WeylParams.of(["1/2", "1/3", "1/5", "1/7", "1/11", "1/13", "1/17"])
    assert [len(r) for r in a6.window_ranges(2)] == [5] * 7
    # the first radius over the limit is refused; the ranges of a huge window
    # are counted, never built
    free = WeylParams.of(["1/2", "1/3"])
    side = next(r for r in range(1, 1000) if (2 * r + 1) ** 2 > WINDOW_LIMIT)
    assert [len(r) for r in free.window_ranges(side - 1)] == [2 * side - 1] * 2
    for radius in (side, 10**12, 10**40):
        with pytest.raises(ValueError, match="above the limit"):
            free.window_ranges(radius)
    # integer coordinates shorten their ranges, and the product counts that
    assert [len(r) for r in WeylParams.of(["-1", "0"]).window_ranges(side)] == [side + 1] * 2


# An independent statement of the lattice modules, in Fractions: an integer a_i
# keeps a_i + k_i on the side of 0 where a_i is; on a negative-integer coordinate
# q_i x(k) = (a_i + k_i + 1) x(k + e_i) and p_i x(k) = x(k - e_i), elsewhere
# q_i x(k) = x(k + e_i) and p_i x(k) = (a_i + k_i) x(k - e_i).
def _oracle_admissible(a, k):
    return all(ai.denominator != 1 or (ai < 0) == (ai + ki < 0) for ai, ki in zip(a, k))


def _oracle_act(a, kind, i, k):
    """A zero coefficient leaves the walk at k."""
    neg = a[i].denominator == 1 and a[i] < 0
    if kind == "q":
        c, ki = (a[i] + k[i] + 1 if neg else F(1)), k[i] + 1
    else:
        c, ki = (F(1) if neg else a[i] + k[i]), k[i] - 1
    return c, (k[:i] + (ki,) + k[i + 1:] if c else k)


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
        return
    for i, kind in product(range(len(a)), "qp"):
        assert weyl_act((kind, i), params, k) == _oracle_act(a, kind, i, k)
    num, den, target = params._walk(params.steps()[monomial_word(qexp, pexp)], k)
    assert (F(num, den), target) == _oracle_monomial(a, qexp, pexp, k)


def test_sparse_add_keeps_the_value_type():
    ints, fracs = {}, {}
    for key, c in [("a", 2), ("b", 3), ("a", -2), ("b", 4)]:
        sparse_add(ints, key, c)
        sparse_add(fracs, key, F(c, 3))
    assert ints == {"b": 7} and type(ints["b"]) is int
    assert fracs == {"b": F(7, 3)} and type(fracs["b"]) is F


@st.composite
def _index_pairs(draw, a):
    """Two admissible indices k, other for the parameters a, |k_i| <= 3."""
    return [tuple(draw(st.sampled_from([x for x in range(-3, 4) if _oracle_admissible((ai,), (x,))]))
                  for ai in a) for _ in "ko"]


@st.composite
def _two_letter_cases(draw):
    a = tuple(draw(st.lists(_parameters, min_size=2, max_size=4)))
    n = len(a)
    k, other = draw(_index_pairs(a))
    word = tuple((draw(st.sampled_from("qp")), draw(st.integers(0, n - 1))) for _ in "gh")
    return a, word, k, other


def _assert_walk_is_local(a, word, k, other):
    """The walk of word from k and from k with its coordinates off the letters
    taken from other: equal numerator and denominator, equal target on the
    letters, and each start's own coordinates off them."""
    params = WeylParams(a)
    coords = {i for _, i in word}
    mixed = tuple(x if m in coords else y for m, (x, y) in enumerate(zip(k, other)))
    letters = params.steps()[word]
    (num, den, t), (num2, den2, t2) = params._walk(letters, k), params._walk(letters, mixed)
    assert (num, den) == (num2, den2)
    for m in range(len(a)):
        if m in coords:
            assert t[m] == t2[m]
        else:
            assert (t[m], t2[m]) == (k[m], other[m])


def test_representatives_are_the_first_key_of_each_projection():
    keys = lattice_window(WeylParams.of(["-1", "1/2", "0", "1/3"]), 2)
    for coords in ([0], [3], [1, 2], [2, 0, 3], range(4)):
        proj = lambda k: [k[i] for i in sorted(coords)]
        assert representatives(keys, coords) == [
            k for n, k in enumerate(keys) if all(proj(k) != proj(x) for x in keys[:n])]
    assert representatives(keys, range(4)) == keys
    assert representatives([], [0]) == []


@settings(max_examples=300, deadline=None)
@given(_two_letter_cases())
def test_two_letter_walk_reads_and_moves_only_its_coordinates(case):
    # the premise of deciding each relation once per value pair (k_i, k_j)
    _assert_walk_is_local(*case)


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "C2", "C3", "C4", "C5"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_root_vector_walks_read_and_move_only_their_letters(name, data):
    # the premise of checking a bracket pair, or a membership chain, once per
    # projection onto its letters: every root's monomial word, q_i p_j, and in
    # type C also q_i q_j, p_i p_j, q_i^2 and p_i^2, walks only the supports
    real = build_root_system(name).realization
    a = tuple(data.draw(st.lists(_parameters, min_size=real.nvars, max_size=real.nvars)))
    k, other = data.draw(_index_pairs(a))
    for root in real.system.ordered_roots:
        word = monomial_word(*real.monomial(root)[:2])
        assert {i for _, i in word} == real.supports[root]
        _assert_walk_is_local(a, word, k, other)
