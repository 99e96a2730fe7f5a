from fractions import Fraction as F

import pytest

from weightcat import categorio, linalg
from weightcat.categorio import (CUSPIDAL, EXCLUDED, HIGHEST_WEIGHT, NONTRIVIAL, TRIVIAL,
                                 MembershipReport, _step_cap, check_membership, classify)
from weightcat.degonemod import build_M, build_N
from weightcat.rootsys import add_roots, build_root_system, center_basis, neg_root
from weightcat.weylmod import WeylParams


def comp_to_theta(system, comp):
    return frozenset(range(1, system.rank + 1)) - frozenset(comp)


def vclassify(name, comp):
    system = build_root_system(name)
    return classify(system, comp_to_theta(system, comp))


# ---------------------------------------------------------------------------
# classification goldens
# ---------------------------------------------------------------------------

def first_reduction_rows():
    """(type, complement) pairs that must come out trivial, two ranks per row."""
    rows = []
    rows += [("B4", {i}) for i in (2, 3, 4)] + [("B5", {i}) for i in (2, 5)]
    rows += [("B5", {1, 2, 3}), ("B6", {2, 3, 4})]
    rows += [("C2", {1}), ("C3", {1}), ("C3", {2})]
    rows += [("C4", {1, 2, 3}), ("C5", {2, 3, 4})]
    rows += [("F4", {1}), ("F4", {2}), ("F4", {3}), ("F4", {4})]
    rows += [("F4", {1, 2}), ("F4", {3, 4})]
    rows += [("D4", {1, 2}), ("D5", {2, 3})]
    rows += [("D4", {2}), ("D5", {2}), ("D5", {3})]
    rows += [("E6", {2}), ("E6", {3}), ("E6", {1, 3}), ("E7", {1}), ("E7", {2, 4})]
    rows += [("G2", {1}), ("G2", {2})]
    return rows


def excluded_rows():
    return ([("B3", {1}), ("B4", {1})]
            + [("D4", {1}), ("D4", {3}), ("D4", {4}), ("D5", {1}), ("D5", {4}), ("D5", {5})]
            + [("E6", {1}), ("E6", {6})]
            + [("E7", {7})])


@pytest.mark.parametrize("name,comp", first_reduction_rows())
def test_first_reduction_table(name, comp):
    assert vclassify(name, comp).kind == TRIVIAL


@pytest.mark.parametrize("name,comp", excluded_rows())
def test_excluded_table(name, comp):
    v = vclassify(name, comp)
    assert v.kind == EXCLUDED and v.family is None


def test_nontrivial_type_A_families():
    v = vclassify("A4", {2, 3})
    assert v.kind == NONTRIVIAL
    assert (v.family.kind, v.family.minus_ones, v.family.free, v.family.zeros) == ("N", 1, 3, 1)
    assert v.degree1 is True and v.semisimple is True
    v = vclassify("A2", {1})
    assert v.kind == NONTRIVIAL and v.degree1 is True and v.semisimple is True
    v = vclassify("A3", {2})
    assert (v.family.minus_ones, v.family.free, v.family.zeros) == (1, 2, 1)
    # extreme single roots in higher rank: nontrivial but not all of degree one
    v = vclassify("A3", {1})
    assert v.kind == NONTRIVIAL and v.degree1 is False and v.semisimple is None
    v = vclassify("A3", {3})
    assert v.degree1 is False
    # disconnected complement
    assert vclassify("A3", {1, 3}).kind == TRIVIAL


def test_nontrivial_type_C_families():
    v = vclassify("C2", {2})
    assert v.kind == NONTRIVIAL and (v.family.kind, v.family.minus_ones, v.family.free) == ("M", 1, 1)
    v = vclassify("C4", {4})
    assert (v.family.minus_ones, v.family.free) == (3, 1)
    v = vclassify("C4", {3, 4})
    assert v.kind == NONTRIVIAL and (v.family.minus_ones, v.family.free) == (2, 2)
    assert v.degree1 is True and v.semisimple is True
    assert vclassify("C4", {2, 3}).kind == TRIVIAL


def test_degenerate_theta():
    a2 = build_root_system("A2")
    assert classify(a2, {1, 2}).kind == HIGHEST_WEIGHT
    v = classify(a2, set())
    assert v.kind == CUSPIDAL and v.semisimple is False
    c3 = build_root_system("C3")
    assert classify(c3, set()).semisimple is True
    b3 = build_root_system("B3")
    assert classify(b3, set()).kind == CUSPIDAL
    with pytest.raises(ValueError):
        classify(a2, {5})
    # membership needs theta inside S
    m = build_N(["-1", "1/2", "1/3", "0"])
    assert check_membership(m, {3}, S={1, 3}, radius=2).certified
    with pytest.raises(ValueError):
        check_membership(m, {2}, S={1}, radius=2)


@pytest.mark.parametrize("small,same", [("C1", "A1"), ("B2", "C2")])
def test_classify_agrees_across_low_rank_isomorphisms(small, same):
    # C1 is A1, and B2 is C2 with nodes 1 and 2 swapped: every theta gets the
    # verdict of its image under the swap
    a, b = build_root_system(small), build_root_system(same)
    n = a.rank
    swap = {i: n + 1 - i for i in range(1, n + 1)}
    assert a.cartan == tuple(tuple(b.cartan[swap[i] - 1][swap[j] - 1] for j in range(1, n + 1))
                             for i in range(1, n + 1))
    for mask in range(1 << n):
        theta = {i + 1 for i in range(n) if mask >> i & 1}
        assert classify(a, theta) == classify(b, {swap[i] for i in theta}), theta


def test_b2_long_root_block_is_the_c2_family():
    # the complement {1} of B2 is its long root, the complement {2} of C2
    v = vclassify("B2", {1})
    assert v.kind == NONTRIVIAL and (v.family.kind, v.family.minus_ones, v.family.free) == ("M", 1, 1)
    assert vclassify("B2", {2}).kind == TRIVIAL


def test_family_instantiation_roundtrip():
    v = vclassify("A4", {2, 3})
    mod = v.family.instantiate([F(1, 2), F(1, 3), F(1, 5)])
    assert mod.cuspidal_block() == (2, 3)
    v = vclassify("C3", {2, 3})
    mod = v.family.instantiate(["1/4", "1/5"])
    assert mod.cuspidal_block() == (2, 3)


def test_verdict_json_shape():
    v = vclassify("A4", {2, 3})
    js = v.to_json()
    assert js["kind"] == "NONTRIVIAL" and js["degree1"] == "true"
    assert js["family"]["kind"] == "N"
    assert vclassify("D4", {1}).to_json()["family"] is None


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_positive_cases():
    m = build_N(["1/2", "1/3", "0"])
    rep = check_membership(m, m.theta_a(), radius=3)
    assert rep.passed and rep.certified
    mm = build_M(["-1", "1/4"])
    assert check_membership(mm, mm.theta_a(), radius=3).passed


def test_membership_cuspidality_fails_for_empty_theta():
    m = build_N(["1/2", "1/3", "0"])
    rep = check_membership(m, frozenset(), radius=3)
    assert not rep.cuspidality_ok and not rep.passed


@pytest.mark.parametrize("build,a", [
    (build_N, ["1/2", "1/3", "1/5"]), (build_M, ["1/3", "1/5", "1/7"]),
    (build_N, ["-1", "1/2", "1/3", "0"]), (build_M, ["-1", "-1", "1/4"]),
])
def test_membership_reads_no_weight(monkeypatch, build, a):
    # no pair of highest-weight vectors can be dominated (see
    # test_center_separates_theta_span), so the report reads no weight, on
    # cuspidal modules (theta empty) and on their Levi theta alike
    m = build(a)
    theta = m.theta_a()

    def no_weight(k):
        raise AssertionError("weight read by check_membership")

    monkeypatch.setattr(m, "weight_of", no_weight)
    monkeypatch.setattr(m, "weight_num", no_weight)
    rep = check_membership(m, theta, radius=2)
    assert rep.passed
    # with theta empty every window vector is its own highest-weight vector
    assert (rep.details["hw_count"] == len(m.window(2))) == (not theta)


@pytest.mark.parametrize("build,a,theta,S", [
    (build_N, ["1/2", "1/3", "1/5"], None, None), (build_M, ["-1", "-1", "1/4"], None, None),
    (build_N, ["-1", "1/2", "1/3", "0"], None, None), (build_N, ["1/2", "1/3", "0"], {1}, {1, 2}),
    (build_M, ["-1", "1/4", "1/5"], {1}, {1}),
])
def test_membership_reads_no_fraction_action(monkeypatch, build, a, theta, S):
    # the three conditions and the highest-weight scan read numerators and
    # targets from the root-action store, passing or not
    m = build(a)
    theta = m.theta_a() if theta is None else theta
    want_rep, want_hw = check_membership(build(a), theta, S=S, radius=2), build(a).enumerate_hw(theta, 2)

    def no_fraction(*args):
        raise AssertionError("a Fraction action read by check_membership or enumerate_hw")

    monkeypatch.setattr(m, "act_word", no_fraction)
    monkeypatch.setattr(m, "act_root", no_fraction)
    assert check_membership(m, theta, S=S, radius=2) == want_rep
    assert m.enumerate_hw(theta, 2) == want_hw
    assert want_rep.passed == (S is None)


def test_membership_restriction_fails_for_wrong_theta(monkeypatch):
    # declaring the cuspidal direction as part of theta breaks the ascent
    m = build_N(["1/2", "1/3", "0"])
    monkeypatch.setattr(categorio, "_step_cap", lambda radius, rank: 12)
    rep = check_membership(m, frozenset({1}), S=frozenset({1, 2}), radius=2)
    assert not rep.passed


@pytest.mark.parametrize("name", [f"{family}{n}" for family, ranks in (
    ("A", range(1, 8)), ("B", range(2, 8)), ("C", range(1, 8)), ("D", range(4, 8)),
    ("E", range(6, 9)), ("F", [4]), ("G", [2])) for n in ranks])
def test_center_separates_theta_span(name):
    # The center is taken on the complement of theta, and the matrix
    # (z . alpha_j), z in that center, j in theta, has rank |theta|: equal
    # central characters and a difference in the theta span force equal
    # weights, so no highest-weight vector lies in the theta cone of another
    # with its central character, and check_membership compares no weights.
    # A center on the theta-Levi would break this.
    system = build_root_system(name)
    n = system.rank
    for mask in range(1 << n):
        theta = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        center = center_basis(system, [i for i in range(1, n + 1) if i not in theta])
        pairing = [[sum(z[i] * system.cartan[j - 1][i] for i in range(n)) for j in sorted(theta)]
                   for z in center]
        assert linalg.rank(pairing, len(theta)) == len(theta), sorted(theta)


def test_restriction_needs_a_certified_ascent(monkeypatch):
    # with no raising step allowed, a vector below its highest-weight vector
    # leaves the ascent uncertified
    m = build_N(["-1", "1/2", "1/3", "0"])
    assert check_membership(m, m.theta_a(), radius=2).restriction_ok
    monkeypatch.setattr(categorio, "_step_cap", lambda radius, rank: 0)
    rep = check_membership(m, m.theta_a(), radius=2)
    assert not rep.certified and not rep.restriction_ok
    assert not rep.details["broken_descents"]


def test_restriction_needs_every_descent(monkeypatch):
    # q_2 made to vanish at k_2 = 0: the lowering operator X_{-e_1} reads that
    # step, so some raising steps of the ascent are not undone, while every
    # ascent still ends at a vector the positive theta roots kill
    step = WeylParams._step
    monkeypatch.setattr(WeylParams, "_step", lambda self, kind, i, ki: (
        (0, 1, ki) if (kind, i, ki) == ("q", 1, 0) else step(self, kind, i, ki)))
    m = build_N(["-1", "1/2", "1/3", "0"])
    theta = m.theta_a()
    rep = check_membership(m, theta, radius=2)
    assert rep.certified and rep.details["broken_descents"] and not rep.restriction_ok
    # ascents that meet repeat the broken steps above their meeting point, and
    # the report lists each as often as the per-vector walks take it
    broken = rep.details["broken_descents"]
    assert len(set(broken)) < len(broken)
    assert rep == _membership_oracle(m, theta, frozenset(range(1, 4)), 2)


def test_restriction_needs_the_lowering_step_to_return():
    # a store fault makes X_{-e_b} act on one raising target t as a nonzero
    # multiple of x(t): the raising step from k is not undone, and no step is zero
    m = build_N(["-1", "1/2", "1/3", "0"])
    theta = m.theta_a()
    b = min(theta)
    root = m.system.simple_root(b)
    assert check_membership(m, theta, radius=2).restriction_ok
    k = next(k for k in m.window(2) if m.act_root_num(root, k)[0])
    i, j = m._ids[k], m._ids[m.act_root_num(root, k)[1]]
    lower = m._action[neg_root(root)]
    back = lower[j][1]
    assert lower[j] == (i, back) and back
    lower[j] = (j, back)
    rep = check_membership(m, theta, radius=2)
    assert rep.certified and (k, b) in rep.details["broken_descents"] and not rep.restriction_ok
    assert rep == _membership_oracle(m, theta, frozenset(range(1, 4)), 2)


def test_restriction_needs_the_non_simple_theta_roots():
    # theta = {1, 2} on C3: a store fault makes X_{e_1+e_2} act on one reached
    # vector, which the simple theta roots still kill, so the ascent stops
    # there and the vector is not highest weight
    m = build_M(["-1", "-1", "1/4"])
    system, theta = m.system, m.theta_a()
    assert theta == {1, 2}
    rep = check_membership(m, theta, radius=2)
    assert rep.restriction_ok
    hw_count = rep.details["hw_count"]
    k = m.enumerate_hw(theta, 2)[0]
    root = add_roots(system.simple_root(1), system.simple_root(2))
    m._action[root][m._ids[k]] = (m._ids[k], 1)
    assert m.act_root(root, k)[0] and m.is_hw(k, [system.simple_root(1), system.simple_root(2)])
    rep = check_membership(m, theta, radius=2)
    assert rep.certified and not rep.details["broken_descents"]
    assert rep.details["hw_count"] == hw_count - 1 and not rep.restriction_ok
    assert rep == _membership_oracle(m, theta, frozenset(range(1, 4)), 2)


def _chain_steps(m, root, k, cap):
    """How many of cap successive act_root steps of root from x(k) are nonzero."""
    for steps in range(cap):
        c, k = m.act_root(root, k)
        if not c:
            return steps
    return cap


def _first_chains(m, roots, radius, cap, survive):
    """Oracle for the witness scans: {root: first window vector whose chain of
    act_root steps survives cap steps (survive) or dies within them}."""
    out = {}
    for root in roots:
        for k in m.window(radius):
            if (_chain_steps(m, root, k, cap) == cap) == survive:
                out[root] = k
                break
    return out


@pytest.mark.parametrize("extra", [0, 1])
def test_chain_scans_stop_at_the_step_cap(monkeypatch, extra):
    # q_1 corrupted to vanish at k_1 = 0 and at k_1 = cap + extra: X_{e_1} = q_1 p_2
    # and X_{e_1+e_2} = q_1 p_3 kill the window vectors with k_1 = 0, and their
    # longest chain, from k_1 = 1, dies at step cap + extra exactly; so they are
    # undecided, and witnesses of condition 3, only when that chain outlives the cap
    cap = _step_cap(2, 2)
    step = WeylParams._step
    monkeypatch.setattr(WeylParams, "_step", lambda self, kind, i, ki: (
        (0, 1, ki + 1) if (kind, i) == ("q", 0) and ki in (0, cap + extra)
        else step(self, kind, i, ki)))
    m = build_N(["1/2", "1/3", "1/5"])
    system, outlived = m.system, {(1, 0), (1, 1)} if extra else set()
    for root in ((1, 0), (1, 1)):
        assert max(_chain_steps(m, root, k, 2 * cap) for k in m.window(2)) == cap + extra - 1
    rep = check_membership(m, {2}, S={2}, radius=2)
    outside = [r for r in system.positive_set if r not in system.span_closure({2})]
    want = _first_chains(m, outside, 2, cap, True)
    assert set(want) == outlived and rep.finiteness_ok == (not extra)
    assert rep.details["nilpotency_witnesses"] == [(r, want[r]) for r in outside if r in want]


def test_membership_witnesses_match_a_full_scan():
    m = build_N(["1/2", "1/3", "0"])
    system, cap = m.system, _step_cap(2, m.system.rank)
    # condition 1 fails with theta empty: roots through the 0 entry kill a vector
    rep = check_membership(m, frozenset(), radius=2)
    want = _first_chains(m, system.span_closure({1, 2}), 2, 1, False)
    assert want and not rep.cuspidality_ok
    assert rep.details["cuspidality_witnesses"] == [(r, want[r]) for r in system.span_closure({1, 2})
                                                    if r in want]
    # condition 3 fails with theta = S = {2}: X_{e_1} = q_1 p_2 never dies
    rep = check_membership(m, {2}, S={2}, radius=2)
    outside = [r for r in system.positive_set if r not in system.span_closure({2})]
    want = _first_chains(m, outside, 2, cap, True)
    assert list(want) == [system.simple_root(1)] and not rep.finiteness_ok
    assert rep.details["nilpotency_witnesses"] == [(r, want[r]) for r in outside if r in want]


def _scan_witnesses(m, theta, S):
    """Check both witness lists of check_membership at radius 2 against the
    _first_chains oracle; returns the oracle's (killed, outlived)."""
    system, cap = m.system, _step_cap(2, m.system.rank)
    rep = check_membership(m, theta, S=S, radius=2)
    inside = system.span_closure(S - theta)
    outside = [r for r in system.positive_set if r not in system.span_closure(S)]
    killed, outlived = _first_chains(m, inside, 2, 1, False), _first_chains(m, outside, 2, cap, True)
    assert rep.details["cuspidality_witnesses"] == [(r, killed[r]) for r in inside if r in killed]
    assert rep.details["nilpotency_witnesses"] == [(r, outlived[r]) for r in outside if r in outlived]
    return killed, outlived


@pytest.mark.parametrize("build,a,theta,S,fault", [
    # condition 1 fails with theta empty off the cuspidal block, condition 3
    # with theta = S too small to hold the block
    (build_N, ["-1", "1/2", "1/3", "0"], set(), None, None),
    (build_N, ["-1", "1/2", "1/3", "0"], {3}, {3}, None),
    (build_M, ["-1", "1/4", "1/5"], set(), None, None),
    (build_M, ["-1", "1/4", "1/5"], {1}, {1}, None),
    (build_N, ["1/2", "1/3", "1/5", "1/7"], {1}, {1, 2}, None),
    # a Weyl step made to vanish at one value: the cuspidal module kills the
    # window vectors whose chains take it, and chains started above it survive
    (build_N, ["1/2", "1/3", "1/5", "1/7"], set(), None, ("p", 2, 1)),
    (build_N, ["1/2", "1/3", "1/5", "1/7"], {2}, {2, 3}, ("q", 0, 0)),
    (build_M, ["1/3", "1/5", "1/7"], set(), None, ("q", 1, -1)),
    (build_M, ["1/3", "1/5", "1/7"], {3}, {2, 3}, ("q", 0, 1)),
])
def test_membership_witnesses_match_a_full_scan_on_rank_three(monkeypatch, build, a, theta, S, fault):
    if fault is not None:
        step = WeylParams._step
        monkeypatch.setattr(WeylParams, "_step", lambda self, kind, i, ki: (
            (0, 1, ki) if (kind, i, ki) == fault else step(self, kind, i, ki)))
    m = build(a)
    killed, outlived = _scan_witnesses(m, theta, set(range(1, m.system.rank + 1)) if S is None else S)
    assert killed or outlived


@pytest.mark.parametrize("build,a", [
    (build_N, ["1/2", "1/3", "0"]), (build_N, ["-1", "1/2", "1/3", "0"]),
    (build_N, ["1/2", "1/3", "1/5"]), (build_M, ["-1", "1/4"]), (build_M, ["1/3", "1/5"]),
    (build_M, ["-1", "-1", "2/5"]), (build_M, ["-1", "-2"]),
])
def test_partition_matches_per_root_chains(build, a):
    # with theta empty the two scans split the roots by their chains: S every
    # simple root puts condition 1 on every root, S empty condition 3 on every
    # positive root
    m = build(a)
    killed, _ = _scan_witnesses(m, set(), set(range(1, m.system.rank + 1)))
    _, outlived = _scan_witnesses(m, set(), set())
    assert killed or outlived


def _membership_oracle(m, theta, S, radius):
    """check_membership's report rebuilt from act_root and act_word: every
    window vector walks up on its own, and every chain is tried on every window
    vector (`_first_chains`)."""
    system, cap = m.system, _step_cap(radius, m.system.rank)
    raising = [(b, system.simple_root(b)) for b in sorted(theta)]
    certified, broken, reached = True, [], set()
    for k in m.window(radius):
        cur = k
        for _ in range(cap + 1):
            step = next(((b, root, t) for b, root in raising
                         for c, t in [m.act_root(root, cur)] if c), None)
            if step is None:
                reached.add(cur)
                break
            b, root, target = step
            if m.act_word((neg_root(root), root), cur)[1] != cur:
                broken.append((cur, b))
            cur = target
        else:
            certified = False
    theta_raising = system.span_closure(theta) & system.positive_set
    hw_count = sum(not any(m.act_root(r, k)[0] for r in theta_raising) for k in reached)
    inside = system.span_closure(S - theta)
    outside = [r for r in system.positive_set if r not in system.span_closure(S)]
    killed, outlived = _first_chains(m, inside, radius, 1, False), _first_chains(m, outside, radius, cap, True)
    details = {"cuspidality_witnesses": [(r, killed[r]) for r in inside if r in killed],
               "broken_descents": broken, "hw_count": hw_count,
               "nilpotency_witnesses": [(r, outlived[r]) for r in outside if r in outlived]}
    return MembershipReport(not killed, certified and not broken and hw_count == len(reached),
                            not outlived, certified, details)


def _nontrivial_families():
    """(type, theta) of every NONTRIVIAL verdict on types A and C of rank <= 4."""
    out = []
    for name in ("A1", "A2", "A3", "A4", "C1", "C2", "C3", "C4"):
        system = build_root_system(name)
        for mask in range(1 << system.rank):
            theta = frozenset(i + 1 for i in range(system.rank) if mask >> i & 1)
            if classify(system, theta).kind == NONTRIVIAL:
                out.append((name, theta))
    return out


@pytest.mark.parametrize("name,theta", _nontrivial_families())
def test_membership_matches_the_per_vector_oracle(name, theta):
    # the family's own theta passes; all of S as theta leaves the ascent
    # uncertified, theta empty breaks condition 1 and S = theta condition 3
    system = build_root_system(name)
    family = classify(system, theta).family
    m = family.instantiate([F(1, 2), F(1, 3), F(1, 5), F(2, 7), F(3, 11)][:family.free])
    full = frozenset(range(1, system.rank + 1))
    for th, S in ((theta, full), (full, full), (frozenset(), full), (theta, theta)):
        assert check_membership(m, th, S=S, radius=2) == _membership_oracle(m, th, S, 2), (th, S)


def test_classify_total_over_all_types():
    names = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D4", "D5", "E6", "E7", "E8", "F4", "G2"]
    kinds = {TRIVIAL, EXCLUDED, NONTRIVIAL, HIGHEST_WEIGHT, CUSPIDAL}
    for name in names:
        system = build_root_system(name)
        n = system.rank
        for mask in range(1 << n):
            theta = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            v = classify(system, theta)
            assert v.kind in kinds
            if v.kind == NONTRIVIAL:
                # B2 is C2 with its nodes swapped
                assert v.family is not None and (name == "B2" or system.cartan_type.family in "AC")
            else:
                assert v.family is None
