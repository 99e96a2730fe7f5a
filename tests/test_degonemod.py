import contextlib
from collections import Counter
from fractions import Fraction as F
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from weightcat import degonemod
from weightcat.categorio import NONTRIVIAL, check_membership, classify
from weightcat.cli import EXIT_OK, main
from weightcat.degonemod import DegreeOneModule, PartitionError, _pair_defects, build_M, build_N
from weightcat.rootsys import build_root_system, cartan_matrix
from weightcat.weylmod import NON_INT, Lookup, WeylAuditError, WeylParams, representatives, weyl_act


def neg(r):
    return tuple(-x for x in r)


def _qp(m, i, k):
    """The eigenvalue of q_i p_i (i zero-based) on x(k), from two weyl_act steps."""
    c, t = weyl_act(("p", i), m.params, k)
    return c * weyl_act(("q", i), m.params, t)[0]


def _coroots_on(m, k):
    """H_{e_1}..H_{e_n} on x(k) as q_i p_i - q_{i+1} p_{i+1}, or q_n p_n + 1/2 for
    the long root of C_n, read from the Weyl-algebra action."""
    n = m.system.rank
    return tuple(_qp(m, i, k) - _qp(m, i + 1, k) if m.kind == "N" or i < n - 1
                 else _qp(m, i, k) + F(1, 2) for i in range(n))


# ---------------------------------------------------------------------------
# frozen action-table rows
# ---------------------------------------------------------------------------

def test_action_rows_type_A_middle_block():
    m = build_N(["1/2", "1/3", "0"])
    assert _coroots_on(m, (0, 0, 0))[1] == F(1, 3)
    assert all(_coroots_on(m, k) == m.weight_of(k) for k in m.window(2))
    e1 = m.system.simple_root(1)
    assert m.act_root(neg(e1), (0, 0, 0)) == (F(1, 2), (-1, 1, 0))
    # raising with the middle coefficient
    assert m.act_root(e1, (0, 0, 0)) == (F(1, 3), (1, -1, 0))
    # zero-block coefficient vanishes on the base vector
    e2 = m.system.simple_root(2)
    assert m.act_root(e2, (0, 0, 0))[0] == 0
    assert m.act_root(e2, (1, -2, 1)) == (F(1), (1, -1, 0))


def test_action_rows_type_A_minus_one_block():
    m = build_N(["-1", "1/2", "1/3", "0"])
    e1 = m.system.simple_root(1)
    assert m.act_root(neg(e1), (0, 0, 0, 0)) == (F(1), (-1, 1, 0, 0))
    # k_j coefficient on the raising side
    assert m.act_root(e1, (0, 0, 0, 0))[0] == 0
    assert m.act_root(e1, (-1, 1, 0, 0)) == (-F(3, 2), (0, 0, 0, 0))
    # boundary Cartan row: -1 - a_{j+1} + k_j - k_{j+1}
    w = m.weight_of((0, 0, 0, 0))
    assert w[0] == -1 - F(1, 2)
    assert all(_coroots_on(m, k) == m.weight_of(k) for k in m.window(2))


def test_action_rows_type_C():
    m = build_M(["-1", "1/4"])
    assert _coroots_on(m, (0, 0))[1] == F(3, 4)
    assert all(_coroots_on(m, k) == m.weight_of(k) for k in m.window(2))
    e2 = m.system.simple_root(2)
    assert m.act_root(e2, (0, 0)) == (F(1, 2), (0, 2))
    assert m.act_root(neg(e2), (0, 2)) == (-F(45, 32), (0, 0))
    assert m.weight_of((0, 0)) == (-F(5, 4), F(3, 4))
    e1 = m.system.simple_root(1)
    assert m.act_root(neg(e1), (0, 0)) == (F(1), (-1, 1))


def test_partition_validation():
    with pytest.raises(PartitionError):
        build_N(["1", "2", "0"])
    with pytest.raises(PartitionError):
        build_N(["1/2", "0", "1/3"])
    with pytest.raises(PartitionError):
        build_N(["-1", "1/2", "0"])   # middle block too small
    with pytest.raises(PartitionError):
        build_M(["-1", "-3"])
    build_M(["-1", "-2"])             # allowed single integer tail
    build_M(["-1", "-1"])
    build_M(["1/3", "1/4"])           # cuspidal


def test_theta_blocks():
    assert build_N(["1/2", "1/3", "0", "0"]).cuspidal_block() == (1,)
    assert build_N(["1/2", "1/3", "0", "0"]).theta_a() == frozenset({2, 3})
    assert build_N(["-1", "1/2", "1/3", "0"]).cuspidal_block() == (2,)
    assert build_N(["1/2", "1/3", "1/5", "0"]).cuspidal_block() == (1, 2)
    assert build_M(["-1", "1/4"]).theta_a() == frozenset({1})
    assert build_M(["-1", "1/4", "1/5"]).cuspidal_block() == (2, 3)
    assert build_M(["1/4", "1/3"]).theta_a() == frozenset()


def _weight_num_cases():
    """(module, radius): every NONTRIVIAL A/C family of ranks 1-7 on mixed
    denominators, and the integer-tailed M(-1, -2) and M(-1, ..., -1)."""
    free = [F(1, 4), F(-2, 3), F(1, 5), F(5, 7), F(-7, 6), F(3, 11), F(1, 2)]
    cases = {}
    for family in "AC":
        for n in range(1, 8):
            system = build_root_system(f"{family}{n}")
            for mask in range(1, 1 << n):
                v = classify(system, {i + 1 for i in range(n) if mask >> i & 1})
                if v.kind == NONTRIVIAL:
                    m = v.family.instantiate(free[:v.family.free])
                    cases[m.kind, m.params.a] = m, 2 if n <= 3 else 1
    for a in [(-1, -2)] + [(-1,) * n for n in range(1, 8)]:
        m = build_M(a)
        cases["M", m.params.a] = m, 2
    return list(cases.values())


def test_weight_num_is_the_weyl_action_over_scale():
    # scale is the root action's denominator; every weight is an integer over it
    cases = _weight_num_cases()
    assert {m.system.rank for m, _ in cases} == set(range(1, 8))
    for m, radius in cases:
        for k in m.window(radius):
            assert tuple(F(x, m.scale) for x in m.weight_num(k)) == _coroots_on(m, k), (m.params.a, k)
            assert all(type(x) is int for x in m.weight_num(k))


def test_weight_examples_and_injectivity():
    m = build_N(["1/2", "1/3", "0"])
    assert m.weight_of((0, 0, 0)) == (F(1, 6), F(1, 3))
    seen = {}
    for k in m.window(3):
        w = m.weight_of(k)
        assert w not in seen
        seen[w] = k
    for m in (m, build_N(["-1", "1/2", "1/3", "1/5"]), build_M(["-1", "1/4", "1/5"]),
              build_M(["-1", "-2"])):
        w0, n = m.weight_of(m.zero_index()), m.system.rank
        for k in m.window(3):
            x = m.displacement(k)
            w = m.weight_of(k)
            assert w == tuple(w0[i] + sum(x[j] * m.system.cartan[j][i] for j in range(n))
                              for i in range(n))


@pytest.mark.parametrize("build,a,b,shift", [
    (build_N, ["1/2", "1/3"], ["3/2", "-2/3"], (-1, 1)),
    (build_N, ["1/2", "1/3", "0"], ["7/10", "8/15", "1/5"], (0, 0, 0)),
    (build_N, ["-1", "1/2", "1/3", "0"], ["-1", "5/2", "7/3", "0"], (1, -1, -1, 1)),
    (build_N, ["1/2", "1/3"], ["7/10", "1/3"], None),
    (build_M, ["-1", "1/4", "1/5"], ["-1", "5/4", "6/5"], (0, -1, -1)),
    (build_M, ["-1", "1/4"], ["-1", "5/4"], None),
    (build_M, ["-1", "1/4"], ["-1", "1/3"], None),
])
def test_index_shift_matches_weights(build, a, b, shift):
    # every weight of the source window at the shifted index of the target, and
    # no shared weight on a box around both windows when there is no shift
    source, target = build(a), build(b)
    assert source.index_shift(target) == shift
    if shift is None:
        assert not {source.weight_of(k) for k in source.window(3)} & {
            target.weight_of(t) for t in target.window(4)}
        return
    assert target.index_shift(source) == tuple(-x for x in shift)
    for k in source.window(2):
        assert target.weight_of(tuple(x + s for x, s in zip(k, shift))) == source.weight_of(k)


@pytest.mark.parametrize("build,params,expected_count", [
    (build_N, ["1/2", "1/3", "0"], 5),
    (build_M, ["-1", "1/4"], 3),
])
def test_hw_enumeration_matches_prediction(build, params, expected_count):
    m = build(params)
    got = m.enumerate_hw(m.theta_a(), 2)
    assert got == m.predicted_hw(2)
    assert len(got) == expected_count


def test_hw_empty_theta_keeps_everything():
    m = build_N(["1/2", "1/3", "0"])
    assert m.enumerate_hw(frozenset(), 2) == m.window(2)


@pytest.mark.parametrize("build,params", [
    (build_N, ["1/2", "1/3", "0"]),
    (build_N, ["-1", "1/2", "1/3", "0"]),
    (build_N, ["1/2", "1/3", "1/5", "0"]),
    (build_M, ["-1", "1/4"]),
    (build_M, ["-1", "-1", "2/7"]),
    (build_M, ["1/4", "1/3"]),
    (build_M, ["-1", "-2"]),
])
def test_degree_is_one(build, params):
    m = build(params)
    for radius in (0, 2, 4):
        assert m.degree_on_window(radius) == 1


def test_weight_additivity():
    m = build_M(["-1", "1/4", "1/5"])
    for k in m.window(2):
        wk = m.weight_of(k)
        for root in m.system.roots:
            coeff, target = m.act_root(root, k)
            if coeff:
                wt = m.weight_of(target)
                shift = [m.system.pairing(root, i) for i in range(m.system.rank)]
                assert tuple(a + s for a, s in zip(wk, shift)) == wt


def test_local_nilpotency_outside_block():
    m = build_N(["-1", "1/2", "1/3", "0"])
    theta = m.theta_a()
    for b in theta:
        root = m.system.simple_root(b)
        for k in m.window(2):
            cur, alive = k, True
            for _ in range(20):
                c, cur = m.act_root(root, cur)
                if c == 0:
                    alive = False
                    break
            assert not alive


def test_levi_orbit_examples():
    m = build_N(["1/2", "1/3", "0"])
    rep = m.levi_orbit((0, 0, 0), radius=2)
    assert rep.cuspidal_ok and rep.return_paths_ok
    # two table rows composed: lowering after raising returns a nonzero multiple
    e1 = m.system.simple_root(1)
    c1, t1 = m.act_root(e1, (0, 0, 0))
    c2, t2 = m.act_root(neg(e1), t1)
    assert t2 == (0, 0, 0) and c1 * c2 == F(1, 3) * (F(1, 2) + 1)
    mc = build_M(["-1", "1/4"])
    e2 = mc.system.simple_root(2)
    c1, t1 = mc.act_root(e2, (0, 0))
    c2, t2 = mc.act_root(neg(e2), t1)
    assert t2 == (0, 0) and c1 * c2 == F(1, 2) * (-F(1, 2)) * F(9, 4) * F(5, 4)
    # empty levi: orbit is the single vector
    assert m.levi_orbit((0, 0, 0), levi_simples=[], radius=2).orbit == [(0, 0, 0)]


def _levi_orbit_oracle(m, k, levi_simples, radius):
    """(orbit, cuspidal_ok) for levi_orbit: the orbit grown by whole rounds of
    nonzero in-window Levi root steps until a round adds nothing, and whether
    no Levi root vector kills a vector of it."""
    roots = sorted(m.system.span_closure(levi_simples))
    window = set(m.window(radius))
    orbit, frontier = {k}, {k}
    while frontier:
        frontier = {t for v in frontier for c, t in (m.act_root(r, v) for r in roots)
                    if c and t in window} - orbit
        orbit |= frontier
    return sorted(orbit), all(m.act_root(r, v)[0] for v in orbit for r in roots)


@pytest.mark.parametrize("build,a,k,levi", [
    (build_N, ["1/2", "1/3", "0"], (0, 0, 0), None),
    (build_N, ["-1", "1/2", "1/3", "0"], (0, 1, -1, 0), None),
    (build_M, ["-1", "1/4"], (0, 0), None),
    # Levi blocks off the cuspidal block: X_{e_1} = q_1 p_2 kills k_1 = 0 when
    # a_1 = -1, and X_{e_2} = q_2 p_3 kills every k_3 = 0 when a_3 = 0
    (build_N, ["-1", "1/2", "1/3", "0"], (0, 0, 0, 0), [1]),
    (build_N, ["-1", "1/2", "1/3", "0"], (-1, 1, 0, 0), [1, 2]),
    (build_M, ["-1", "1/4"], (-1, 1), [1]),
])
def test_levi_orbit_matches_the_round_oracle(build, a, k, levi):
    m = build(a)
    levi_simples = m.cuspidal_block() if levi is None else levi
    rep = m.levi_orbit(k, levi_simples=levi, radius=2)
    orbit, cuspidal_ok = _levi_orbit_oracle(m, k, levi_simples, 2)
    assert (rep.orbit, rep.cuspidal_ok) == (orbit, cuspidal_ok)
    assert cuspidal_ok is (levi is None)


def _bracket_failures(m, radius):
    """(mu, nu, k, defect) in root-pair order wherever X_mu X_nu - X_nu X_mu
    differs from [X_mu, X_nu] on x(k), defect being the nonzero entries of the
    difference; written apart from the library's bracket check."""
    system = m.system
    roots = sorted(system.roots, key=lambda r: (sum(r), r))
    window = m.window(radius)
    for i, mu in enumerate(roots):
        for nu in roots[i + 1:]:
            s = tuple(a + b for a, b in zip(mu, nu))
            for k in window:
                got = {}
                for x, y, sign in ((mu, nu, 1), (nu, mu, -1)):
                    c1, k1 = m.act_root(y, k)
                    if c1:
                        c2, k2 = m.act_root(x, k1)
                        if c1 * c2:
                            got[k2] = got.get(k2, F(0)) + sign * c1 * c2
                if s in system.roots:
                    n = system.realization.structure_constant(mu, nu)
                    c3, k3 = m.act_root(s, k)
                    got[k3] = got.get(k3, F(0)) - n * c3
                elif not any(s):
                    coeffs = system.realization.cartan_coefficients(mu)
                    val = sum((a * b for a, b in zip(coeffs, m.weight_of(k))), F(0))
                    got[k] = got.get(k, F(0)) - val
                defect = {kk: v for kk, v in got.items() if v}
                if defect:
                    yield mu, nu, k, defect


def _first_bracket_failure(m, radius):
    """The first (mu, nu, k) of _bracket_failures, or None."""
    return next((f[:3] for f in _bracket_failures(m, radius)), None)


@pytest.mark.parametrize("build,params,radius", [
    (build_N, ["1/2", "1/3", "0"], 3),
    (build_N, ["-1", "1/2", "1/3", "0"], 2),
    (build_M, ["-1", "1/4"], 3),
    (build_M, ["-1", "1/4", "1/5"], 2),
])
def test_bracket_fidelity_on_window(build, params, radius):
    assert _first_bracket_failure(build(params), radius) is None


@pytest.mark.parametrize("build,params,radius", [
    (build_N, ["1/2", "1/3"], 3), (build_N, ["-1", "1/2", "1/3", "0"], 2),
    (build_N, ["1/2", "1/3", "1/5", "1/7"], 2), (build_M, ["-1", "1/4"], 3),
    (build_M, ["-1", "-2"], 3), (build_M, ["-1", "1/4", "1/5"], 2),
])
def test_degree_on_window_counts_weights(monkeypatch, build, params, radius):
    # weight_num is weight_of over one scale, so it counts the same multiplicities;
    # a window listing some vectors twice or three times gives a multiplicity
    # above one to count
    m = build(params)
    window = m.window(radius)
    for keys in (window, window + window[:3] + window[1:2]):
        monkeypatch.setattr(m, "window", lambda r: list(keys))
        assert m.degree_on_window(radius) == max(Counter(map(m.weight_of, keys)).values())
        assert (sorted(Counter(map(m.weight_num, keys)).values())
                == sorted(Counter(map(m.weight_of, keys)).values()))


def test_bracket_defects_find_a_corrupted_weight():
    m = build_N(["-1", "1/2", "1/3", "0"])
    key = (-1, 1, 0, 0)
    assert key in m.window(1)
    # one unit on H_1, planted in the integers the bracket check reads
    true_weight = m.weight_num
    bad = (true_weight(key)[0] + m.scale,) + true_weight(key)[1:]
    m.weight_num = lambda k: bad if tuple(k) == key else true_weight(k)
    h = m.realization.cartan_coefficients
    defects = list(m.bracket_defects(1))
    assert defects
    for mu, nu, k, defect in defects:
        assert nu == neg(mu) and k == key and defect == {key: -h(mu)[0]}
    # every pair whose Cartan element involves H_1 sees the corruption
    assert {frozenset((mu, nu)) for mu, nu, _, _ in defects} == {
        frozenset((r, neg(r))) for r in m.system.positive if h(r)[0]}


@pytest.mark.parametrize("build,params", [
    (build_N, ["-1", "1/2", "1/3", "0"]),
    (build_M, ["-1", "1/4", "1/5"]),
])
def test_bracket_defects_find_a_uniformly_shifted_weight(build, params):
    # one unit on H_1 at every key: weight(k) - weight(0) is unchanged, so a check
    # of the weight's differences alone passes, and the full scan must still see
    # every Cartan pair whose element involves H_1 fail on every key
    m = build(params)
    true_weight = m.weight_num
    m.weight_num = lambda k: (true_weight(k)[0] + m.scale,) + true_weight(k)[1:]
    h = m.realization.cartan_coefficients
    defects = list(m.bracket_defects(1))
    for mu, nu, k, defect in defects:
        assert nu == neg(mu) and defect == {k: -h(mu)[0]}
    assert {(frozenset((mu, nu)), k) for mu, nu, k, _ in defects} == {
        (frozenset((r, neg(r))), k) for r in m.system.positive if h(r)[0] for k in m.window(1)}


def _faulty_step(kind, i, value, what, shift=1):
    """WeylParams._step with one fault planted in the fill, at (kind, i, k_i = value):
    the coefficient moved by shift over its denominator, or the target moved by
    shift.  Placed on a non-integer coordinate, every index stays admissible."""
    step = WeylParams._step

    def faulty(self, kind_, i_, ki):
        num, den, t = step(self, kind_, i_, ki)
        if (kind_, i_, ki) != (kind, i, value):
            return num, den, t
        return (num + shift, den, t) if what == "coefficient" else (num, den, t + shift)

    return faulty


@pytest.mark.parametrize("build,params", [
    (build_N, ["-1", "1/2", "1/3", "0"]),
    (build_M, ["-1", "1/4", "1/5"]),
])
def test_bracket_defects_first_witness_of_a_corrupted_action(monkeypatch, build, params):
    # q_2 on k_2 = 0 one too large: the fault is in every walk that takes that
    # step, so the projected check reads it wherever the full scan does
    monkeypatch.setattr(WeylParams, "_step", _faulty_step("q", 1, 0, "coefficient"))
    m = build(params)
    want = _first_bracket_failure(m, 1)
    assert want is not None
    assert next(m.bracket_defects(1))[:3] == want


_PERTURBED = [(build_N, ["-1", "1/2", "1/3", "0"]), (build_M, ["-1", "1/4", "1/5"]),
              (build_M, ["-1", "1/4"])]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(module=st.sampled_from(range(len(_PERTURBED))),
       what=st.sampled_from(["coefficient", "target", "structure constant", "weight"]),
       i=st.integers(0, 10 ** 6), j=st.integers(0, 10 ** 6),
       delta=st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(5, 7)]))
def test_bracket_defects_match_the_oracle_under_perturbation(module, what, i, j, delta):
    """The first defect equals the oracle's after one corruption; a coefficient
    or a target of one Weyl step, or one weight numerator, moves by delta's
    numerator."""
    build, params = _PERTURBED[module]
    m = build(params)
    real = m.realization
    roots = m.system.ordered_roots
    fault = contextlib.nullcontext()
    if what in ("coefficient", "target"):
        free = [c for c in range(m.nvars) if m.params.coordinate_class(c) == NON_INT]
        kind, c = "qp"[i % 2], free[i // 2 % len(free)]
        fault = mock.patch.object(WeylParams, "_step",
                                  _faulty_step(kind, c, j % 5 - 2, what, delta.numerator))
    elif what == "structure constant":
        # root_pairs reads the instance's structure_constant, as the oracle does
        assert "root_pairs" not in vars(real)
        nonzero = [(mu, nu) for a, mu in enumerate(roots) for nu in roots[a + 1:]
                   if tuple(x + y for x, y in zip(mu, nu)) in m.system.roots]
        bad, true_n = nonzero[i % len(nonzero)], real.structure_constant
        real.structure_constant = lambda mu, nu: true_n(mu, nu) + (delta if (mu, nu) == bad else 0)
    else:
        window, true_weight = m.window(1), m.weight_num
        k = window[i % len(window)]
        w = list(true_weight(k))
        w[j % len(w)] += delta.numerator
        m.weight_num = lambda x: tuple(w) if tuple(x) == k else true_weight(x)
    with fault:
        assert next(m.bracket_defects(1), None) == next(_bracket_failures(m, 1), None)


@pytest.mark.parametrize("build,params", [
    (build_N, ["-1", "1/2", "1/3", "0"]),
    (build_M, ["-1", "1/4", "1/5"]),
    # q_3 on k_3 = 1 breaks pairs whose first root, 2 eps_3 or eps_i + eps_3,
    # lacks a letter of the second on the integer coordinates
    (build_M, ["-1", "-1", "1/4"]),
])
@pytest.mark.parametrize("what", ["coefficient", "target"])
def test_bracket_defects_list_the_oracle_under_a_corrupted_action(monkeypatch, build, params, what):
    """Every yielded defect, not only the first, names the oracle's pair, index
    and {index: Fraction} entries, in the oracle's order: a pair that fails on
    a representative of its supports' union is scanned on the whole window,
    and the store runs on index numbers that bracket_defects maps back."""
    m = build(params)
    free = next(c for c in range(m.nvars) if m.params.coordinate_class(c) == NON_INT)
    monkeypatch.setattr(WeylParams, "_step", _faulty_step("q", free, 1, what))
    got, want = list(m.bracket_defects(1)), list(_bracket_failures(m, 1))
    assert len(want) > 1 and got == want
    window = set(m.window(1))
    # a moved target leaves the coordinate-sum condition, not the index set
    admissible = m.in_basis if what == "coefficient" else m.params.in_lattice
    for _, _, key, defect in got:
        assert key in window and all(type(x) is tuple and admissible(x) for x in defect)
        assert all(type(v) is F for v in defect.values())


def _exact_pair_defects(act, weights, den, pair, keys):
    """(key, defect) of one root pair from its {target: value} sum on every key,
    weights[key] being the coroot values as numerators over den, with no integer
    short cut: the reference for `degonemod._pair_defects`."""
    mu, nu, s, n, h = pair
    for key in keys:
        t1, c1 = act[nu][key]
        t2, c2 = act[mu][t1]
        t3, c3 = act[mu][key]
        t4, c4 = act[nu][t3]
        acc = Counter({t2: c1 * c2})
        acc[t4] -= c3 * c4
        if n:
            t5, c5 = act[s][key]
            acc[t5] -= n * den * c5
        elif h is not None:
            acc[key] -= den * sum(map(mul, h, weights[key]))
        defect = {k: F(v, den * den) for k, v in acc.items() if v}
        if defect:
            yield key, defect


def _check_pairs_exactly(m, window):
    """_pair_defects of every root pair on the window, on the store and weights
    bracket_defects reads, equals the exact reference."""
    keys = [m._ids[k] for k in window]
    weights = Lookup(lambda i: m.weight_num(m._keys[i]))
    for pair in m.realization.root_pairs:
        want = list(_exact_pair_defects(m._action, weights, m.scale, pair, keys))
        assert list(_pair_defects(m._action, weights, m.scale, pair, keys)) == want, pair[:2]


@pytest.mark.parametrize("build,params", [
    (build_N, ["1/2", "1/3", "1/5"]), (build_M, ["1/3", "1/5", "1/7"]),
    (build_M, ["-1", "1/4", "1/5"]),
])
@pytest.mark.parametrize("what", ["numerator", "target"])
def test_pair_guards_see_a_corrupted_sum_term(build, params, what):
    # X_{mu+nu} corrupted on one key in its numerator alone or its target alone
    # (made a self-loop): the two products of (mu, nu) still meet on one target
    # there, so only the integer test of the N term can send the key to the
    # exact defect; the first window vector represents every projection
    m = build(params)
    window = m.window(1)
    _check_pairs_exactly(m, window)
    key = m._ids[window[0]]
    mu, nu, s, _, _ = next(p for p in m.realization.root_pairs if p[3] and m._action[p[2]][key][1])
    t5, c5 = m._action[s][key]
    m._action[s][key] = (t5, c5 + 1) if what == "numerator" else (key, c5)
    _check_pairs_exactly(m, window)
    assert (mu, nu, window[0]) in [d[:3] for d in m.bracket_defects(1)]


@pytest.mark.parametrize("build,params", [(build_N, ["1/2", "1/3", "1/5"]), (build_M, ["1/3", "1/5", "1/7"])])
def test_pair_guards_see_a_corrupted_cartan_target(build, params):
    # both second steps of a Cartan pair (mu, -mu) on one key moved to one other
    # index, numerators kept: the products still meet and their sum still equals
    # h.weight there, so only the test that they meet on the key itself can send
    # it to the exact defect; on a cuspidal module no step is zero
    m = build(params)
    window, act = m.window(1), m._action
    key, other = m._ids[window[0]], m._ids[window[1]]
    mu, nu, _, _, _ = next(p for p in m.realization.root_pairs
                           if p[4] is not None and sum(map(mul, p[4], m.weight_of(window[0]))))
    t1, t3 = act[nu][key][0], act[mu][key][0]
    act[mu][t1] = (other, act[mu][t1][1])
    act[nu][t3] = (other, act[nu][t3][1])
    _check_pairs_exactly(m, window)
    assert (mu, nu, window[0]) in [d[:3] for d in m.bracket_defects(1)]


_SWEPT = [(build_N, ["-1", "1/2", "1/3", "0"]), (build_M, ["-1", "1/4", "1/5"]),
          (build_M, ["-1", "-1", "1/4"])]
# one fault per run: every module, fault kind, generator kind, coordinate and k_i
_FAULTS = [(build, params, what, kind, c, value) for build, params in _SWEPT
           for what in ("coefficient", "target") for kind in "qp"
           for c in range(len(params)) for value in range(-2, 3)]


@settings(max_examples=24, deadline=None, derandomize=True)
@given(fault=st.sampled_from(_FAULTS))
def test_pairs_without_a_mixed_coordinate_survive_a_faulty_step(fault):
    """Under one fault of one Weyl step, integer coordinates included, the full
    scan finds no defect on a pair with no coordinate where one root has a q
    letter and the other a p letter, the pairs the bracket check skips, and
    the check yields the full scan's defects."""
    build, params, what, kind, c, value = fault
    with mock.patch.object(WeylParams, "_step", _faulty_step(kind, c, value, what)):
        m = build(params)
        real = m.realization
        try:
            want = list(_bracket_failures(m, 1))
        except WeylAuditError:
            return  # a target moved out of the index set, where no walk may go
        for mu, nu, _, _ in want:
            (qa, pa, _), (qb, pb, _) = real.monomial(mu), real.monomial(nu)
            assert any(x and y for x, y in zip(qa + pa, pb + qb)), (mu, nu)
        assert list(m.bracket_defects(1)) == want


def test_index_numbering_invariants():
    m = build_M(["-1", "1/4", "1/5"])
    theta = m.theta_a()
    assert next(m.bracket_defects(2), None) is None
    m.enumerate_hw(theta, 2)
    assert check_membership(m, theta, radius=2).passed
    keys = m._keys
    assert set(m.window(2)) <= set(keys)
    # each numbered index once, and its number leads back to it
    assert len(set(keys)) == len(keys) == len(m._ids)
    assert all(keys[i] == k for k, i in m._ids.items())
    assert all(m.params.in_lattice(k) for k in keys)
    bad = (1, 1, 0)
    assert not m.params.in_lattice(bad)
    n = len(keys)
    with pytest.raises(ValueError, match="not admissible"):
        m.act_root_num(m.system.simple_root(1), bad)
    assert len(m._keys) == n and bad not in m._ids


_RANK_FIVE = [("M", ["-1", "-1", "1/4", "1/5", "1/7"]), ("N", ["1/2", "1/3", "1/5", "1/7", "1/11"])]


@pytest.mark.parametrize("kind,params", _RANK_FIVE)
def test_cartan_pairs_are_tried_on_their_support_classes(monkeypatch, kind, params):
    # the weight is affine on the window, so each Cartan pair (mu, -mu) reads one
    # window vector per projection onto supp mu, and passes there
    m = build_M(params) if kind == "M" else build_N(params)
    handed = []

    def recording(act, weights, den, pair, keys):
        keys = list(keys)
        handed.append((pair, keys))
        return _pair_defects(act, weights, den, pair, keys)

    monkeypatch.setattr(degonemod, "_pair_defects", recording)
    assert next(m.bracket_defects(2), None) is None
    window, supports = m.window(2), m.realization.supports
    cartan = [(pair, keys) for pair, keys in handed if pair[4] is not None]
    assert [pair for pair, _ in cartan] == [p for p in m.realization.root_pairs if p[4] is not None]
    for (mu, *_), keys in cartan:
        assert keys == [m._ids[k] for k in representatives(window, supports[mu])]
        assert len(keys) < len(window)


@pytest.mark.parametrize("kind,params", _RANK_FIVE)
def test_verify_reads_each_step_weight_and_window_once(monkeypatch, capsys, kind, params):
    # the bracket check, the highest-weight suites, degree_on_window and
    # membership share one window, one weight per key and one step table
    steps, weights, windows = Counter(), Counter(), Counter()
    step, weight_num, window_ranges = WeylParams._step, DegreeOneModule.weight_num, WeylParams.window_ranges

    def counted_step(self, kind_, i, ki):
        steps[kind_, i, ki] += 1
        return step(self, kind_, i, ki)

    def counted_weight(self, k):
        weights[tuple(k)] += 1
        return weight_num(self, k)

    def counted_ranges(self, radius):
        windows[radius] += 1
        return window_ranges(self, radius)

    monkeypatch.setattr(WeylParams, "_step", counted_step)
    monkeypatch.setattr(DegreeOneModule, "weight_num", counted_weight)
    monkeypatch.setattr(WeylParams, "window_ranges", counted_ranges)
    assert main(["verify", "--module", kind, "--a", ",".join(params), "--B", "2"]) == EXIT_OK
    assert '"all_pass": true' in capsys.readouterr().out
    assert steps and max(steps.values()) == 1
    assert weights and max(weights.values()) == 1
    assert windows == {2: 1}


@pytest.mark.parametrize("kind,params,radius", [
    ("M", ["-1", "-1", "-1", "7/5"], 2), ("N", ["-1", "-2/5", "7/5", "3/5", "0"], 2),
    ("M", ["-1", "-2/5", "7/5"], 3), ("N", ["-1", "1/2", "1/3", "0"], 3)])
def test_root_action_store_fills_on_basis_indices_only(kind, params, radius):
    # a product whose first factor is zero reads no second factor: the index
    # where a zero walk of a -1 coordinate stopped is off the basis
    m = build_M(params) if kind == "M" else build_N(params)
    theta = m.theta_a()
    assert next(m.bracket_defects(radius), None) is None
    m.enumerate_hw(theta, radius)
    m.degree_on_window(radius)
    check_membership(m, theta, radius=radius)
    filled = [i for store in m._action.values() for i in store]
    assert filled and all(m.in_basis(m._keys[i]) for i in filled)


def _casimir_values(m, radius):
    """The quadratic Casimir on every x(k) of the window, from the root-action
    store alone: (lam, lam) + sum over roots r of X_r X_-r x(k) / (X_r, X_-r).
    lam(H_i) is [X_e_i, X_-e_i] on x(k), (lam, lam) reads the fundamental
    weights' Gram matrix A^-1 D, and (X_r, X_-r) = 1/2 (r^v, r^v) with r^v the
    coroot sum_i c_i H_i that `cartan_coefficients` gives, (H_i, H_j) = A_ij / D_i,
    for A the Cartan matrix and D = diag((e_i, e_i) / 2) at (e_1, e_1) = 2."""
    system, n = m.system, m.system.rank
    A = cartan_matrix(system.cartan_type)
    D = [F(1)]
    for j in range(1, n):  # the A and C diagrams are chains: A_ij D_j = A_ji D_i
        D.append(D[-1] * A[j][j - 1] / A[j - 1][j])
    inv = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    rows = [[F(x) for x in row] for row in A]
    for c in range(n):  # Gauss-Jordan, rows -> I and inv -> A^-1; A D is positive definite
        p = rows[c][c]
        rows[c], inv[c] = [x / p for x in rows[c]], [x / p for x in inv[c]]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
    gram = [[inv[i][j] * D[j] for j in range(n)] for i in range(n)]

    def form(r):
        c = system.realization.cartan_coefficients(r)
        return sum(c[i] * c[j] * A[i][j] / D[i] for i in range(n) for j in range(n)) / 2

    def up_down(r, k):  # X_r X_-r on x(k), which lands on x(k): one weight, one vector
        c1, t1 = m.act_root(neg(r), k)
        if not c1:
            return 0
        c2, t2 = m.act_root(r, t1)
        assert t2 == k
        return c1 * c2

    simples = [system.simple_root(i) for i in range(1, n + 1)]
    norms = [(r, form(r)) for r in system.ordered_roots]
    for k in m.window(radius):
        lam = [up_down(e, k) - up_down(neg(e), k) for e in simples]
        yield (sum(lam[i] * gram[i][j] * lam[j] for i in range(n) for j in range(n))
               + sum(up_down(r, k) / f for r, f in norms))


@pytest.mark.parametrize("build,params,radius", [
    (build_N, ("1/2", "1/3"), 3),
    (build_N, ("-1", "1/2", "1/3"), 2),
    (build_N, ("1/2", "1/3", "0"), 2),
    (build_N, ("-1", "1/2", "1/3", "0"), 2),
    (build_N, ("1/2", "1/3", "1/5", "1/7"), 2),
    (build_N, ("-1", "1/2", "1/3", "0", "0"), 2),
    (build_N, ("-1", "-1", "1/6", "5/6", "0", "0"), 1),
    (build_M, ("1/3",), 3),
    (build_M, ("-1",), 3),
    (build_M, ("-1", "1/4"), 2),
    (build_M, ("1/3", "1/5"), 2),
    (build_M, ("-1", "-1"), 2),
    (build_M, ("-1", "-1", "1/4"), 2),
    (build_M, ("1/3", "1/5", "1/7"), 2),
    (build_M, ("-1", "-1", "-1", "1/4"), 2),
], ids=["A1", "A2-m", "A2-z", "A3", "A3-cusp", "A4", "A5", "C1", "C1-hw", "C2", "C2-cusp", "C2-hw", "C3",
        "C3-cusp", "C4"])
def test_the_casimir_is_one_scalar_on_the_window(build, params, radius):
    # an oracle of the root-action store that shares no code with bracket_defects:
    # the Casimir is central, so it acts by one scalar on a simple module; for type
    # A it is (n - 1)/n E (E + n), n = nvars and E = sum(a), and for C_r, r >= 2,
    # -r (2r + 1)/4 (the oscillator representation); C1, whose one root is long,
    # is normalised as A1 and reads -3/8
    m = build(params)
    (value,) = set(_casimir_values(m, radius))
    n = m.nvars
    if m.kind == "N":
        E = sum(m.params.a)
        assert value == F(n - 1, n) * E * (E + n)
    elif n > 1:
        assert value == F(-n * (2 * n + 1), 4)
