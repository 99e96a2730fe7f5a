import math
import random
import re
from fractions import Fraction as F
from functools import cache

import pytest
import sympy

from weightcat import extcoh, linalg
from weightcat.degonemod import build_M, build_N
from weightcat.extcoh import (CertificationError, Cocycle, _normal_form_system, _phi_domain,
                              coboundary_quotient_dim, cocycle_space,
                              ext_solve, is_coboundary, make_sl2_cocycle)
from weightcat.rootsys import neg_root
from weightcat.weylmod import WeylParams, monomial_word


@pytest.fixture
def sl2():
    return build_N(["1/2", "1/3"])


def _glued_defects(c, radius, map_radius):
    """Bracket check of the module glued along c, written out from act_root.

    The glued module is target + source: X_r sends a target vector ("n", t) to
    target.act_root(r, t), and a source vector ("m", k) to source.act_root(r, k)
    plus c.value(r, k) on the target side.  A value of c is known, and zero
    where c stores none, only for k in source.window(map_radius); an identity
    that needs another one is skipped.  Every root pair mu <= nu is checked on
    the vectors of both windows of the radius.  Returns the failing
    (side, index, mu, nu) and the number of identities checked.
    """
    source, target = c.source, c.target
    system, sides = source.system, {"m": source, "n": target}
    realization = system.realization
    known = set(source.window(map_radius))

    def act(root, vec):
        # X_root on {(side, index): Fraction}; None once a value of c is unknown
        if vec is None:
            return None
        out = {}
        for (side, k), x in vec.items():
            coeff, k2 = sides[side].act_root(root, k)
            terms = [((side, k2), coeff)]
            if side == "m":
                if k not in known:
                    return None
                value = c.value(root, k)
                if value is not None:
                    terms.append((("n", value[1]), value[0]))
            for key, y in terms:
                out[key] = out.get(key, F(0)) + x * y
        return {key: x for key, x in out.items() if x}

    roots = sorted(system.roots, key=lambda r: (sum(r), r))
    failures, checked = [], 0
    for i, mu in enumerate(roots):
        for nu in roots[i:]:
            s = tuple(a + b for a, b in zip(mu, nu))
            n = realization.structure_constant(mu, nu) if s in system.roots else 0
            for side in "nm":
                for k in sides[side].window(radius):
                    v = {(side, k): F(1)}
                    ab, ba = act(mu, act(nu, v)), act(nu, act(mu, v))
                    if n:
                        want = act(s, v)
                        want = None if want is None else {key: n * x for key, x in want.items()}
                    elif not any(s):
                        h = realization.cartan_coefficients(mu)
                        value = sum((a * b for a, b in zip(h, sides[side].weight_of(k))), F(0))
                        want = {(side, k): value} if value else {}
                    else:
                        want = {}
                    if ab is None or ba is None or want is None:
                        continue
                    checked += 1
                    got = dict(ab)
                    for key, x in ba.items():
                        got[key] = got.get(key, F(0)) - x
                    if {key: x for key, x in got.items() if x} != want:
                        failures.append((side, k, mu, nu))
    return failures, checked


def _assert_glued_module(c, radius, map_radius):
    failures, checked = _glued_defects(c, radius, map_radius)
    assert checked and failures == []


def test_make_sl2_cocycle_values(sl2):
    c = make_sl2_cocycle(1, sl2, radius=5)
    alpha = sl2.system.simple_root(1)
    # c(X^+) x(k) = x(k+1)/(a1+k+1)
    for k in (-2, 0, 3):
        coeff, target = c.value(alpha, (k, -k))
        assert coeff == 1 / (F(1, 2) + k + 1)
        assert target == (k + 1, -(k + 1))
    czero = make_sl2_cocycle(0, sl2)
    assert czero.maps and all(v == 0 for m in czero.maps.values() for v, _ in m.values())


@pytest.mark.parametrize("params", [("1/2", "1/3"), ("2/5", "-7/5"), ("1/4",), ("-3/7",)])
def test_make_sl2_cocycle_is_the_inverse_lowering_map(params):
    # c(X^+) x(k - delta) = b x(k) / coeff and c(X^-) x(k) = 0, with coeff the
    # lowering coefficient X^- x(k) = coeff x(k - delta), for every k of the
    # window one wider than the radius: same keys, order, values and types
    module = (build_N if len(params) == 2 else build_M)(params)
    alpha = module.system.simple_root(1)
    nalpha = neg_root(alpha)
    for radius in range(7):
        for b in (0, 1, "-7/3"):
            plus, minus = {}, {}
            for k in module.window(radius + 1):
                coeff, down = module.act_root(nalpha, k)
                plus[down] = (F(b) / coeff, k)
                minus[k] = (F(0), down)
            got = make_sl2_cocycle(b, module, radius).maps
            assert list(got) == [alpha, nalpha]
            for root, want in ((alpha, plus), (nalpha, minus)):
                assert list(got[root].items()) == list(want.items())
                assert all(type(v) is F for v, _ in got[root].values())


@pytest.mark.parametrize("params", [["-1"], ["-2"]])
def test_make_sl2_cocycle_refuses_a_highest_weight_module(params):
    # M(-1) and M(-2) are not cuspidal: no lowering operator vanishes on them,
    # yet the inverse lowering map is not a cocycle there
    with pytest.raises(ValueError):
        make_sl2_cocycle(1, build_M(params))


def _window_values(c, radius):
    """c as the cval of extcoh._identity: (den, target, {None: numerator}) for
    k in source.window(radius), zero where c stores nothing, None elsewhere."""
    window = set(c.source.window(radius))

    def cval(root, k):
        if k not in window:
            return None
        v = c.value(root, k)
        return (v[0].denominator, v[1], {None: v[0].numerator}) if v is not None and v[0] else (1, None, {})

    return cval


def _identities(source, target, cval, window, pairs):
    """extcoh._identity on every root pair and window vector, the pairs outermost."""
    return [extcoh._identity(source, target, cval, pair, k) for pair in pairs for k in window]


def _identity_rows(c, radius):
    """The cocycle identities of c on every root pair and source.window(radius)."""
    return _identities(c.source, c.target, _window_values(c, radius), c.source.window(radius),
                       c.source.realization.root_pairs)


def test_cocycle_identity_holds(sl2):
    idents = _identity_rows(make_sl2_cocycle(1, sl2, radius=6), 3)
    assert any(ident is not None for ident in idents)
    assert all(ident is None or not ident[2] for ident in idents)


def test_non_cuspidal_module_rejected():
    flat = build_M(["-1", "-1"])
    with pytest.raises(ValueError):
        make_sl2_cocycle(1, flat)


def test_build_extension_and_fidelity(sl2):
    # the inverse-shift cocycle glues a module, and so does the zero cocycle,
    # whose glued module is a direct sum
    for b in (0, 1):
        _assert_glued_module(make_sl2_cocycle(b, sl2, radius=6), 2, 3)


def test_glued_module_oracle_sees_a_corrupted_extension(sl2):
    c = make_sl2_cocycle(1, sl2, radius=6)
    alpha = sl2.system.simple_root(1)
    val, t = c.maps[alpha][(0, 0)]
    c.maps[alpha][(0, 0)] = (val + 1, t)
    failures, _ = _glued_defects(c, 2, 3)
    assert failures and {side for side, *_ in failures} == {"m"}
    # a wrong weight on the target side is seen at that target key only
    other = build_N(["1/2", "1/3"])
    c = Cocycle(sl2, other, make_sl2_cocycle(1, sl2, radius=6).maps)
    _assert_glued_module(c, 2, 3)
    true_weight = other.weight_of
    other.weight_of = lambda k: (true_weight(k)[0] + 1,) if tuple(k) == (0, 0) else true_weight(k)
    assert _glued_defects(c, 2, 3)[0] == [("n", (0, 0), (-1,), (1,))]


def test_non_cocycle_rejected(sl2):
    alpha = sl2.system.simple_root(1)
    bad = Cocycle(sl2, sl2, {alpha: {(0, 0): (F(1), (1, -1))}})
    assert _glued_defects(bad, 2, 2)[0]
    assert any(ident and ident[2] for ident in _identity_rows(bad, 2))
    # at radius 0 every identity leaves the one-point window: nothing was checked,
    # and the cocycle space of such a window is refused
    assert all(ident is None for ident in _identity_rows(bad, 0))
    with pytest.raises(CertificationError, match="every identity left the window"):
        cocycle_space(sl2, sl2, 0)


def test_coboundaries_recovered(sl2):
    rng = random.Random(42)
    other = build_N(["1/2", "1/3"])
    space = cocycle_space(sl2, other, 3)
    pairs_checked = 0
    for _ in range(100):
        # random weight-preserving phi gives a coboundary; its witness must be found
        fvals = {k: F(rng.randint(-6, 6), rng.randint(1, 5)) for k in sl2.window(3)}
        maps = {}
        for root in sl2.system.roots:
            entry = {}
            for k in sl2.window(2):
                cm, k2 = sl2.act_root(root, k)
                target_scale = fvals.get(k2, F(0))
                cn, t2 = other.act_root(root, k)
                val = fvals.get(k, F(0)) * cn - cm * target_scale
                # both paths end on the same shifted basis vector
                entry[k] = (val, t2)
            maps[root] = entry
        c = Cocycle(sl2, other, maps)
        w = is_coboundary(c, 2)
        assert w is not None
        pairs_checked += 1
    assert pairs_checked == 100


def test_inverse_shift_cocycle_is_not_coboundary(sl2):
    c = make_sl2_cocycle(1, sl2, radius=6)
    assert is_coboundary(c, 3) is None
    c2 = make_sl2_cocycle("-7/3", sl2, radius=6)
    assert is_coboundary(c2, 3) is None


def test_quotient_dimension_one_for_self_pairs(sl2):
    assert coboundary_quotient_dim(sl2, sl2, 3) == 1
    assert coboundary_quotient_dim(sl2, sl2, 4) == 1


def test_quotient_dimension_zero_for_distinct_pairs(sl2):
    other = build_N(["1/5", "2/5"])
    assert coboundary_quotient_dim(sl2, other, 3) == 0


def _fraction_coboundary_rows(source, target, pairs, values):
    """d(phi) at each (root, k) -> t of values, as {column of pairs: Fraction}
    rows written out from act_root: X_root phi(x(k)) - phi(X_root x(k)) at x(t)."""
    rows = []
    for (root, k), t in values:
        row = {}
        if k in pairs:
            cn, t2 = target.act_root(root, pairs[k][1])
            if cn and t2 == t:
                row[pairs[k][0]] = cn
        cm, k2 = source.act_root(root, k)
        if cm and k2 in pairs:
            col = pairs[k2][0]
            row[col] = row.get(col, F(0)) - cm
        rows.append({col: x for col, x in row.items() if x})
    return rows


def _quotient_by_basis(source, target, radius):
    """The quotient dimension as the cocycle space's basis length less the rank
    of Fraction coboundary rows."""
    space = cocycle_space(source, target, radius)
    pairs = _phi_domain(source, target, radius)
    rows = _fraction_coboundary_rows(source, target, pairs, space.targets.items())
    return len(space.basis) - linalg.rank(rows, len(pairs))


@pytest.mark.parametrize("build,a,b,radii,dim", [
    (build_N, ("1/5", "3/5"), ("1/5", "3/5"), range(3, 9), 1),
    (build_N, ("-2/5", "4/5"), ("-2/5", "4/5"), range(3, 9), 1),
    (build_M, ("2/5", "-3/5"), ("2/5", "-3/5"), (2,), None),
    (build_M, ("2/5", "-3/5"), ("12/5", "-3/5"), (2,), None),
    (build_M, ("1/5", "4/5"), ("-4/5", "9/5"), (2,), None),
    (build_N, ("-1", "1/2", "1/3", "0"), ("-1", "5/2", "7/3", "0"), (1, 2), 0),
], ids=["bline-1", "bline-2", "C2-self", "C2-cross", "C2-cross-diagonal", "A3-linked"])
def test_quotient_by_ranks_matches_the_basis_construction(build, a, b, radii, dim):
    # rank-nullity over integer coboundary rows gives what the nullspace basis
    # and Fraction rows from act_root give, on the rank-one b-line, the C2
    # pairs of the benchmark's cocycle jobs and a linked A3 pair
    source, target = build(a), build(b)
    for radius in radii:
        got = coboundary_quotient_dim(source, target, radius)
        assert got == _quotient_by_basis(source, target, radius)
        assert dim is None or got == dim


@pytest.mark.parametrize("a,b", [(("2/5", "-3/5"), ("2/5", "-3/5")), (("2/5", "-3/5"), ("12/5", "-3/5")),
                                 (("1/5", "4/5"), ("-4/5", "9/5"))], ids=["self", "cross", "cross-diagonal"])
def test_is_coboundary_witness_matches_fraction_rows(a, b):
    # the witness from integer rows and a right-hand side scaled by the lcm of
    # the module scales is the solution of the Fraction system, on random
    # cocycles and on one that is not a coboundary
    source, target = build_M(a), build_M(b)
    space = cocycle_space(source, target, 2)
    pairs = _phi_domain(source, target, 2)
    rng = random.Random(5)
    cocycles = [space.random_cocycle(rng) for _ in range(4)]
    broken = space.random_cocycle(rng)
    root = next(r for r in broken.maps if (0, 0) in broken.maps[r])
    val, t = broken.maps[root][0, 0]
    broken.maps[root][0, 0] = (val + 1, t)
    witnesses = []
    for c in cocycles + [broken]:
        values = [((r, k), t) for r, cmap in c.maps.items() for k, (_, t) in cmap.items()]
        rows = _fraction_coboundary_rows(source, target, pairs, values)
        rhs = [x for cmap in c.maps.values() for x, _ in cmap.values()]
        sol = linalg.solve(rows, rhs, len(pairs))
        want = None if sol is None else {k: x for k, x in zip(pairs, sol) if x}
        witnesses.append(is_coboundary(c, 2))
        assert witnesses[-1] == want
    assert all(w for w in witnesses[:-1]) and witnesses[-1] is None


def test_normal_form_assembler_free_case(sl2):
    # with no raising chains the same label system leaves exactly the
    # one-parameter inverse-shift family
    cs = _normal_form_system(sl2, 3)
    assert cs.dimension == 1


def _split_values(module, nf, splits):
    """The cval of _fraction_identity that reads c(X_alpha) and the zeros from
    the assembler and computes c(X_r) here for every root r of `splits`, from
    a bracket split [X_sigma, X_tau] = N X_r with tau = r - sigma: minus the
    identity of (sigma, tau) without its N term, over N.  Returns the cval and
    its memo {(r, k): value}."""
    realization, memo = module.realization, {}

    def value(root, k):
        if root not in splits:
            return _over(nf.value(root, k))
        if (root, k) not in memo:
            sigma = splits[root]
            tau = tuple(a - b for a, b in zip(root, sigma))
            n = realization.structure_constant(sigma, tau)
            rest = _fraction_identity(module, module, value, (sigma, tau, root, 0, None), k)
            memo[root, k] = {t: {l: -v / n for l, v in row.items()} for t, row in rest.items()}
        return memo[root, k]

    return value, memo


def _simple_splits(system, roots):
    """{r: sigma} for each root r of `roots`, sigma the first simple root with
    r - sigma a root."""
    simple = [system.simple_root(j) for j in range(1, system.rank + 1)]
    return {r: next(e for e in simple if tuple(a - b for a, b in zip(r, e)) in system.roots) for r in roots}


def _full_normal_form(build, params, radius):
    """The normal-form system read whole: every identity of every root pair on
    every window index, then one nullspace of the integer rows (their common
    denominator dropped).  c(X_alpha) and the zeros are the assembler's; the
    value of every other root with a positive alpha coordinate, which the
    assembler does not compute, comes from its split with a simple root in
    Fractions (`_split_values`).  Returns the labels and the kernel basis."""
    module = build(params)
    nf = extcoh._NormalFormAssembler(module, radius)
    system, i = module.system, nf.alpha.index(1)
    splits = _simple_splits(system, [r for r in system.roots if r[i] > 0 and r != nf.alpha])
    frac, _ = _split_values(module, nf, splits)

    @cache
    def cval(root, k):  # the integer view of a split value, as extcoh._identity reads it
        if root not in splits:
            return nf.value(root, k)
        [(t, row)] = frac(root, k).items() or [(None, {})]
        den = math.lcm(*(v.denominator for v in row.values()))
        return den, t, {l: v.numerator * den // v.denominator for l, v in row.items()}

    labels = sorted(nf.labelset)
    col = {l: j for j, l in enumerate(labels)}
    rows = [{col[l]: v for l, v in row.items()}
            for _, _, row in _identities(module, module, cval, nf.window, module.realization.root_pairs)
            if row and all(l in col for l in row)]
    return labels, linalg.nullspace(rows, len(labels))


@pytest.mark.parametrize("build,params,radius", [
    (build_N, ("-1", "1/2", "1/3", "0"), 3),
    (build_N, ("-1", "1/2", "1/3", "0"), 4),
    (build_M, ("-1", "1/4"), 3),
    (build_M, ("-1", "1/4"), 4),
    (build_M, ("-1", "1/4"), 5),
    (build_M, ("-1", "1/4"), 6),
    (build_M, ("-1", "-1", "1/4"), 3),
    (build_M, ("-1", "-1", "1/4"), 4),
    (build_N, ("-1", "-1", "1/2", "1/3", "0"), 2),
    (build_N, ("-1", "-1", "1/6", "5/6", "0", "0"), 2),
    (build_M, ("-1", "-1", "-1", "1/4"), 3),
    (build_N, ("-1", "1/6", "5/6", "0", "0"), 3),
    (build_N, ("1/2", "1/3"), 3),
    (build_M, ("1/4",), 4),
], ids=["A3-B3", "A3-B4", "C2-B3", "C2-B4", "C2-B5", "C2-B6", "C3-B3", "C3-B4", "A4-B2",
        "A5-B2", "C4-B3", "A4-B3", "A1-free", "C1-free"])
def test_normal_form_system_matches_full_assembly(build, params, radius):
    # the read takes the cheap pairs through alpha alone and stops at full rank;
    # the whole system, split values and all, must give the same kernel, labels
    # and basis
    labels, null = _full_normal_form(build, params, radius)
    if build is build_M:  # the public solver, whose self pairs reach the same read
        module = build(params)
        cs = ext_solve(module, module, radius)
    else:
        cs = _normal_form_system(build(params), radius)
    assert cs.labels == labels
    assert cs.dimension == len(null) == (1 if params in (("1/2", "1/3"), ("1/4",)) else 0)
    assert cs.basis == [{labels[i]: v for i, v in enumerate(b) if v} for b in null]


@pytest.mark.parametrize("build,params,radius", [
    (build_N, ("-1", "1/2", "1/3", "0"), 4),
    (build_M, ("-1", "1/4"), 4),
    (build_M, ("-1", "-1", "1/4"), 3),
], ids=["A3-B4", "C2-B4", "C3-B3"])
def test_normal_form_system_below_full_rank_reads_every_row(monkeypatch, build, params, radius):
    # a label that no identity touches keeps the rank below the label count, so
    # the read goes to the window edge, long after the rank stops growing, and
    # ends one short of full rank: in rank >= 2 that kernel is not certified,
    # and the bracket table the other pairs would need is never built
    labels = _normal_form_system(build(params), radius).labels

    class Padded(extcoh._NormalFormAssembler):
        def __init__(self, *args):
            super().__init__(*args)
            self.labelset = self.labelset | {(99,) * len(next(iter(self.labelset)))}

    monkeypatch.setattr(extcoh, "_NormalFormAssembler", Padded)
    module = build(params)
    with pytest.raises(CertificationError, match=f"reach rank {len(labels)} of {len(labels) + 1} labels"):
        _normal_form_system(module, radius)
    assert "root_pairs" not in module.realization.__dict__


@pytest.mark.parametrize("build,params,radius", [
    (build_N, ("-1", "1/2", "1/3", "0"), 3),
    (build_M, ("-1", "1/4"), 4),
    (build_M, ("-1", "-1", "1/4"), 3),
], ids=["A3-B3", "C2-B4", "C3-B3"])
def test_normal_form_reads_the_other_pairs_when_alpha_leaves_the_rank_short(monkeypatch, build, params,
                                                                            radius):
    # with every row of a pair through alpha emptied, those pairs leave the rank
    # at 0: the other pairs are not read, and neither their split values nor
    # the bracket table are built, so the system refuses as uncertified with
    # the rank and the label count
    identity = extcoh._identity

    def emptied(source, target, cval, pair, k):
        den, t, row = identity(source, target, cval, pair, k)
        through = source.system.simple_root(source.cuspidal_block()[0]) in pair[:2]
        return den, t, {} if through else row

    monkeypatch.setattr(extcoh, "_identity", emptied)
    module = build(params)
    labels = extcoh._NormalFormAssembler(module, radius).labelset
    with pytest.raises(CertificationError, match=f"reach rank 0 of {len(labels)} labels"):
        _normal_form_system(module, radius)
    assert "root_pairs" not in module.realization.__dict__


def _recording(monkeypatch):
    """Patch the normal-form assembler so that every one built is appended to
    the returned list."""
    made = []

    class Recording(extcoh._NormalFormAssembler):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(extcoh, "_NormalFormAssembler", Recording)
    return made


def _cheap_pairs(system, alpha):
    """(mu, nu) of the pairs through alpha, in table order, whose identities read
    c(X_alpha) and zeros only: no root of the pair, nor its sum if that is a
    root, has a positive alpha coordinate unless it is alpha."""
    i, roots = alpha.index(1), system.ordered_roots

    def split(r):
        return r in system.roots and r[i] > 0 and r != alpha

    pairs = [tuple(sorted((r, alpha), key=roots.index)) for r in roots if r != alpha]
    return [(mu, nu) for mu, nu in pairs if not any(map(split, (mu, nu, tuple(map(sum, zip(mu, nu))))))]


def test_normal_form_reads_identities_only_until_full_rank(monkeypatch):
    # the read of C3 M(-1,-1,1/4) at B=4, outward along the alpha orbit, stops
    # at full rank after under an eighth of the cheap identities (76 of 1,130:
    # 10 pairs on 113 window indices), and reads no other pair
    read = []
    identity = extcoh._identity
    monkeypatch.setattr(extcoh, "_identity", lambda *args: read.append(args[3][:2]) or identity(*args))
    module = build_M(["-1", "-1", "1/4"])
    assert ext_solve(module, module, radius=4).dimension == 0
    cheap = _cheap_pairs(module.system, module.system.simple_root(module.cuspidal_block()[0]))
    assert set(read) <= set(cheap)
    assert 0 < len(read) < len(cheap) * len(module.window(4)) / 8


@pytest.mark.parametrize("build,params,radius", [
    (build_M, ("-1", "1/4"), 4),
    (build_M, ("-1", "-1", "1/4"), 4),
    (build_M, ("-1", "-1", "-1", "1/4"), 3),
    (build_M, ("-1", "-1", "-1", "-1", "2/5"), 4),
    (build_N, ("-1", "1/2", "1/3", "0"), 4),
    (build_N, ("-1", "1/6", "5/6", "0", "0"), 3),
    (build_N, ("-1", "-1", "1/6", "5/6", "0", "0"), 2),
    (build_M, ("-1", "1/2"), 3),
    (build_M, ("-1", "-1", "-3/2"), 3),
    (build_N, ("-1", "1/2", "3/2", "0"), 3),
    (build_N, ("-1", "1/3", "-1/3", "0"), 3),
    (build_N, ("-1", "-1", "1/2", "1/2", "0", "0"), 2),
], ids=["C2-B4", "C3-B4", "C4-B3", "C5-B4", "A3-B4", "A4-B3", "A5-B2", "C2-half-B3", "C3-neg3half-B3",
        "A3-half-3half-B3", "A3-third-B3", "A5-halves-B2"])
def test_a_self_pair_at_full_rank_in_the_cheap_pairs_fills_no_split_value(monkeypatch, build, params,
                                                                           radius):
    # the pairs through alpha whose identities read c(X_alpha) and zeros only
    # are the whole read, and on these self pairs, the sweep's special
    # parameters among them, they reach full rank: the memo of cocycle values
    # holds c(X_alpha) alone, and the only structure constants built are those
    # of the cheap pairs whose sum is a root
    made = _recording(monkeypatch)
    module = build(params)
    assert ext_solve(module, module, radius).dimension == 0
    nf, = made
    assert {r for r, _ in nf._values} == {nf.alpha}
    system = module.system
    sums = [(mu, nu) for mu, nu in _cheap_pairs(system, nf.alpha)
            if tuple(map(sum, zip(mu, nu))) in system.roots]
    assert sums and set(module.realization._nconst) == set(sums)


def test_normal_form_reaches_full_rank_in_few_rows_per_label(monkeypatch):
    # read outward along the alpha orbit, every label gets rows from its
    # orbit's centre early: at most 3.5 rows per label reach full rank on
    # these zero-kernel systems, where a centre-out read by max |k| took up
    # to 15.7 (A3 at B=4: 392 rows for 25 labels)
    added = []
    add = linalg.Echelon.add

    def counting_add(self, row):
        added.append(row)
        return add(self, row)

    monkeypatch.setattr(linalg.Echelon, "add", counting_add)
    per_label = {}
    for build, params, radii in [(build_M, ("-1", "1/4"), (3, 4, 5, 6)),
                                 (build_M, ("-1", "-1", "1/4"), (3, 4)),
                                 (build_N, ("-1", "1/2", "1/3", "0"), (3, 4))]:
        for radius in radii:
            added.clear()
            cs = _normal_form_system(build(params), radius)
            assert cs.dimension == 0
            per_label[params, radius] = len(added) / len(cs.labels)
    assert max(per_label.values()) <= 3.5, per_label


def test_lowering_check_covers_the_window_edge(monkeypatch):
    # the read stops before the window edge, yet a lowering operator that
    # vanishes there must still stop the certification; the assembler reads
    # the root action as store numerators, so the corruption goes there.  The
    # edge is the last key of the read order, outward along the alpha orbit
    # and then in the labels, and the lazy read fills no value off alpha there
    made = _recording(monkeypatch)
    module = build_M(["-1", "-1", "1/4"])
    assert _normal_form_system(module, 4).dimension == 0
    nf = made[0]

    def order(k):
        label = nf.label[k]
        return (abs(sum(x * d for x, d in zip(k, nf.delta))), max(map(abs, label)),
                sum(map(abs, label)), k)

    edge = max(nf.window, key=order)
    assert not [root for root, k in nf._values if k == edge and root != nf.alpha]
    nalpha = neg_root(module.system.simple_root(module.cuspidal_block()[0]))
    true_act = module.act_root_num

    def act_root_num(root, k):
        c, t = true_act(root, k)
        return (0, tuple(k)) if root == nalpha and t == edge else (c, t)

    monkeypatch.setattr(module, "act_root_num", act_root_num)
    with pytest.raises(CertificationError, match=re.escape(f"not invertible at {edge}")):
        _normal_form_system(module, 4)


def _first_inverse_shift_failure(module, radius):
    """The text of the first refusal of a full-window scan of the inverse shift,
    written out from act_root_num: X_-alpha x(k + delta) must be a nonzero
    multiple of x(k) at every window key, in window order; None if it is."""
    alpha = module.system.simple_root(module.cuspidal_block()[0])
    nalpha, delta = neg_root(alpha), module.realization.epsilon_vector(alpha)
    for k in module.window(radius):
        up = tuple(a + d for a, d in zip(k, delta))
        try:
            num, back = module.act_root_num(nalpha, up)
        except ValueError as exc:
            return str(exc)
        if num == 0 or back != k:
            return f"lowering operator not invertible at {k}"
    return None


@pytest.mark.parametrize("build,params,radius", [
    (build_M, ("-1", "1/4"), 4),
    (build_M, ("-1", "-1", "1/4"), 3),
    (build_N, ("-1", "1/2", "1/3", "0"), 3),
    (build_N, ("-1", "1/6", "5/6", "0", "0"), 2),
], ids=["C2-B4", "C3-B3", "A3-B3", "A4-B2"])
def test_inverse_shift_check_per_class_refuses_as_a_full_scan(monkeypatch, build, params, radius):
    # a zero step of X_-alpha planted on one value of a moved coordinate, before
    # any table fills, vanishes on whole projection classes: the assembler,
    # which checks one key per class, refuses at the key and with the text of a
    # scan of every window key, or passes where that scan does
    m = build(params)
    alpha = m.system.simple_root(m.cuspidal_block()[0])
    qe, pe, _ = m.realization.monomial(neg_root(alpha))
    step, refusals = WeylParams._step, []
    for kind, i in sorted(set(monomial_word(qe, pe))):
        for value in range(-3, 4):
            def zero(self, kind_, i_, ki, fault=(kind, i, value)):
                num, den, t = step(self, kind_, i_, ki)
                return (0, den, t) if (kind_, i_, ki) == fault else (num, den, t)

            monkeypatch.setattr(WeylParams, "_step", zero)
            want = _first_inverse_shift_failure(build(params), radius)
            module = build(params)
            if want is None:
                extcoh._NormalFormAssembler(module, radius)
            else:
                with pytest.raises(CertificationError) as refused:
                    extcoh._NormalFormAssembler(module, radius)
                assert str(refused.value) == want
                refusals.append(want)
    # some faults first show past the first window key
    assert any(not want.endswith(f"at {m.window(radius)[0]}") for want in refusals)


@pytest.mark.parametrize("build,params,radius", [
    (build_M, ("-1", "1/4"), 4),
    (build_M, ("-1", "-1", "1/4"), 4),
    (build_M, ("-1", "-1", "-1", "1/4"), 3),
    (build_M, ("-1", "-1", "-1", "-1", "2/5"), 4),
    (build_N, ("-1", "1/2", "1/3", "0"), 4),
    (build_N, ("-1", "1/6", "5/6", "0", "0"), 3),
    (build_N, ("-1", "-1", "1/6", "5/6", "0", "0"), 2),
], ids=["C2-B4", "C3-B4", "C4-B3", "C5-B4", "A3-B4", "A4-B3", "A5-B2"])
def test_the_inverse_shift_is_checked_once_per_projection_class(build, params, radius):
    # the set-up fills c(X_alpha) on one key per projection onto the moved
    # coordinates, delta's support, and on no other key
    module = build(params)
    nf = extcoh._NormalFormAssembler(module, radius)
    assert nf.moved == module.realization.supports[nf.alpha]
    reps = module.window_representatives(radius, nf.moved)
    assert len(reps) < len(nf.window)
    assert len(nf._values) == len(reps)
    assert set(nf._values) == {(nf.alpha, k) for k in reps}


def test_normal_form_system_that_keeps_no_row_is_not_certified(monkeypatch):
    # a label set that no identity fits drops every row: the read ends at rank 0,
    # below the label count, which certifies no kernel
    class Unfit(extcoh._NormalFormAssembler):
        def __init__(self, *args):
            super().__init__(*args)
            self.labelset = {("no label",)}

    monkeypatch.setattr(extcoh, "_NormalFormAssembler", Unfit)
    module = build_M(["-1", "1/4"])
    with pytest.raises(CertificationError, match="reach rank 0 of 1 labels"):
        ext_solve(module, module, radius=2)


def _fraction_identity(source, target, cval, pair, k):
    """The cocycle identity of one root pair at x(k), recomputed in Fractions
    from act_root: cval(root, k) is {target index: {column: Fraction}}, read
    for the sum's term only when N != 0, as extcoh._identity does."""
    mu, nu, s, n, _ = pair
    out = {}

    def add(t, form, f):
        row = out.setdefault(t, {})
        for col, v in form.items():
            row[col] = row.get(col, F(0)) + f * v

    for t, form in (cval(s, k) if n else {}).items():
        add(t, form, n)
    for a, b, sign in ((mu, nu, 1), (nu, mu, -1)):
        cm, k2 = source.act_root(b, k)
        if cm:
            for t, form in cval(a, k2).items():
                add(t, form, -sign * cm)
        for t, form in cval(a, k).items():
            cn, t2 = target.act_root(b, t)
            if cn:
                add(t2, form, sign * cn)
    out = {t: {col: v for col, v in row.items() if v} for t, row in out.items()}
    return {t: row for t, row in out.items() if row}


def _over(value):
    """An integer (den, t, row) value as {target index: {column: Fraction}}."""
    den, t, row = value
    return {t: {col: F(v, den) for col, v in row.items()}} if row else {}


_SEEDED_PAIRS = pytest.mark.parametrize("source,target,scales,d", [
    (("N", "1/2", "1/3"), ("N", "1/2", "1/3"), (6, 6), (1, -1)),
    (("M", "1/4", "1/3"), ("M", "2/5", "1/7"), (288, 2450), (1, 1)),
    (("M", "-1", "1/4"), ("M", "1/6", "-3/5"), (32, 1800), (1, 1)),
], ids=["A1-self", "C2-cross", "C2-integer-entry"])


def _seeded_graded_values(source, target, d):
    """Seeded values {(root, k): {t: {column: Fraction}}} on source.window(3),
    each with two columns at its graded target t = k + epsilon_vector(root) + d."""
    eps = source.realization.epsilon_vector
    rng = random.Random(3)
    values = {}
    for root in source.system.ordered_roots:
        for k in source.window(3):
            t = tuple(a + b + c for a, b, c in zip(k, eps(root), d))
            if rng.random() < 0.8 and target.in_basis(t):
                values[root, k] = {t: {col: F(rng.randint(-9, 9), rng.randint(1, 12))
                                       for col in rng.sample(range(4), 2)}}
    return values


def _integer_values(values):
    """Seeded Fraction values as the cval of extcoh._identity."""
    def integer(root, k):
        [(t, row)] = values.get((root, k), {None: {}}).items()
        den = math.lcm(*(v.denominator for v in row.values()))
        return den, t, {col: v.numerator * den // v.denominator for col, v in row.items()}
    return integer


def _build_pair(source, target):
    build = {"N": build_N, "M": build_M}
    return tuple(build[m[0]](m[1:]) for m in (source, target))


@_SEEDED_PAIRS
def test_integer_identity_rows_match_a_fraction_oracle(source, target, scales, d):
    # seeded graded values with several columns: the integer rows over their
    # denominator are the identity computed from act_root Fractions, also when
    # the two module scales differ
    source, target = _build_pair(source, target)
    assert (source.scale, target.scale) == scales
    values = _seeded_graded_values(source, target, d)
    nonzero = []
    for pair in source.realization.root_pairs:
        for k in source.window(1):
            ident = extcoh._identity(source, target, _integer_values(values), pair, k)
            want = _fraction_identity(source, target, lambda r, j: values.get((r, j), {}), pair, k)
            assert _over(ident) == want
            nonzero.append(bool(want))
    assert sum(nonzero) > len(nonzero) / 2


@_SEEDED_PAIRS
def test_a_value_off_its_graded_target_is_refused(source, target, scales, d):
    # every term of an identity lands on one target; a value moved off its
    # graded target must stop the identities, not merge two targets' rows
    source, target = _build_pair(source, target)
    values = _seeded_graded_values(source, target, d)
    pairs = source.realization.root_pairs
    assert _identities(source, target, _integer_values(values), source.window(1), pairs)
    key = next((root, k) for root, k in values if k == (0, 0))
    [(t, row)] = values[key].items()
    moved = next(m for m in ((t[0] + 2, t[1]), (t[0] + 1, t[1] - 1)) if target.in_basis(m))
    values[key] = {moved: row}
    with pytest.raises(ValueError, match="not graded"):
        _identities(source, target, _integer_values(values), source.window(1), pairs)


@pytest.mark.parametrize("build,params,radius", [
    (build_N, ("-1", "1/2", "1/3", "0"), 2),
    (build_M, ("-1", "1/4"), 3),
    (build_M, ("-1", "-1", "1/4"), 2),
], ids=["A3-B2", "C2-B3", "C3-B2"])
def test_normal_form_values_match_a_fraction_oracle(build, params, radius):
    # each memoised value is c(X_alpha), in lowest terms: the inverse shift on
    # the raising direction.  The identities of the cheap pairs through alpha,
    # the rows the system reads, are those recomputed in Fractions; every other
    # identity with a root of positive alpha coordinate needs a value the
    # assembler does not compute and is None, and the rest are zero
    module = build(params)
    nf = extcoh._NormalFormAssembler(module, radius)
    frac = lambda root, k: _over(nf.value(root, k))
    i = nf.alpha.index(1)
    cheap = set(_cheap_pairs(module.system, nf.alpha))
    for pair in module.realization.root_pairs:
        for k in nf.window:
            ident = extcoh._identity(module, module, nf.value, pair, k)
            if pair[:2] in cheap:
                assert _over(ident) == _fraction_identity(module, module, frac, pair, k)
            elif pair[0][i] > 0 or pair[1][i] > 0:
                assert ident is None
            else:
                assert not ident[2]
    assert {root for root, _ in nf._values} == {nf.alpha}
    for (_, k), value in nf._values.items():
        den, t, row = value
        assert den > 0 and math.gcd(den, *row.values()) == 1
        k2 = tuple(a + d for a, d in zip(k, nf.delta))
        coeff, back = module.act_root(nf.nalpha, k2)
        assert back == k and _over(value) == {k2: {nf.label[k]: 1 / coeff}}


def test_ext_solve_typeA_dimensions():
    a = build_N(["-1", "1/2", "1/3", "0"])
    self_pair = ext_solve(a, a, radius=3)
    assert self_pair.dimension == 0 and self_pair.status == "solved"
    bigger = ext_solve(a, a, radius=4)
    assert bigger.dimension == 0
    generic = ext_solve(a, build_N(["-1", "1/5", "1/7", "0"]), radius=3)
    assert generic.dimension == 0 and generic.status == "support-disjoint"
    shifted = ext_solve(a, build_N(["-1", "3/2", "-2/3", "0"]), radius=3)
    assert shifted.dimension == 0 and shifted.status == "solved"
    # supports that meet, at an index shift that moves the -1 and 0 entries: not isomorphic
    moved = ext_solve(a, build_N(["-1", "5/2", "7/3", "0"]), radius=3)
    assert moved.dimension == 0 and moved.status == "support-disjoint"
    free = build_N(["1/2", "1/3", "0"])
    with pytest.raises(ValueError):
        ext_solve(free, free, radius=3)
    with pytest.raises(CertificationError):
        ext_solve(a, a, radius=0)


def test_ext_solve_deeper_interior_position():
    # two leading -1 entries force chains of length two on the lowered side
    module = build_N(["-1", "-1", "1/2", "1/3", "0"])
    cs = ext_solve(module, module, radius=2)
    assert cs.dimension == 0 and cs.status == "solved"


def test_ext_solve_typeC_rank_two():
    module = build_M(["-1", "1/4"])
    for radius in (2, 3, 4):
        assert ext_solve(module, module, radius=radius).dimension == 0


def test_ext_solve_typeC_dimensions():
    c3 = build_M(["-1", "-1", "1/4"])
    for radius in (3, 4):
        cs = ext_solve(c3, c3, radius=radius)
        assert cs.dimension == 0
    c2 = build_M(["-1", "1/4"])
    odd = ext_solve(c2, build_M(["-1", "5/4"]), radius=3)
    assert odd.dimension == 0 and odd.status == "support-disjoint"
    assert odd.reason == "weight supports are disjoint; graded cocycles vanish"
    apart = ext_solve(c3, build_M(["-1", "-1", "1/3"]), radius=3)
    assert apart.status == "support-disjoint" and apart.reason == odd.reason
    even = ext_solve(c2, build_M(["-1", "9/4"]), radius=3)
    assert even.dimension == 0 and even.status == "solved"
    wide = build_M(["-1", "1/4", "1/5"])
    with pytest.raises(ValueError):
        ext_solve(wide, wide, radius=3)


@pytest.mark.parametrize("build,a,b", [
    (build_N, ["-1", "1/2", "1/3", "0"], ["-1", "1/2", "1/3", "0"]),
    (build_N, ["-1", "1/2", "1/3", "0"], ["-1", "3/2", "-2/3", "0"]),
    (build_N, ["-1", "1/2", "1/3", "0"], ["-1", "5/2", "7/3", "0"]),
    (build_N, ["-1", "1/2", "1/3", "0"], ["-1", "1/5", "1/7", "0"]),
    (build_N, ["-1", "-1", "1/2", "1/3", "0"], ["-1", "-1", "3/2", "-2/3", "0"]),
    (build_N, ["-1", "-1", "1/2", "1/3", "0"], ["-1", "-1", "5/2", "10/3", "0"]),
    (build_N, ["-1", "-1", "1/2", "1/3", "0"], ["-1", "-1", "5/2", "7/3", "0"]),
    (build_N, ["-1", "1/6", "5/6", "0", "0"], ["-1", "7/6", "-1/6", "0", "0"]),
    (build_N, ["-1", "1/6", "5/6", "0", "0"], ["-1", "13/6", "23/6", "0", "0"]),
    (build_M, ["1/4"], ["9/4"]),
    (build_M, ["1/4"], ["-7/4"]),
    (build_M, ["1/4"], ["5/4"]),
    (build_M, ["-1", "1/4"], ["-1", "9/4"]),
    (build_M, ["-1", "1/4"], ["-1", "5/4"]),
    (build_M, ["-1", "-1", "1/4"], ["-1", "-1", "-7/4"]),
    (build_M, ["-1", "-1", "1/4"], ["-1", "-1", "1/3"]),
], ids=["A3-self", "A3-iso", "A3-moved", "A3-apart", "A4-iso", "A4-moved", "A4-apart",
        "A4z-iso", "A4z-moved", "C1-up", "C1-down", "C1-odd", "C2-iso", "C2-odd", "C3-iso",
        "C3-apart"])
def test_one_isomorphism_rule_is_each_familys_rule(build, a, b):
    # the one rule, a shift that is 0 on the -1 entries, is the first-entry
    # rule on N, whose shift is constant on the -1 and 0 entries, and "a shift
    # exists" on M, whose -1 entries never shift; C1 has no -1 entry, so a
    # shift that moves its only coordinate is still a self pair
    source, target = build(a), build(b)
    shift = source.index_shift(target)
    j = source.spec.minus_ones
    if build is build_N:
        assert shift is None or len(set(shift[:j] + shift[j + source.spec.free:])) == 1
        disjoint = shift is None or shift[0] != 0
    else:
        assert shift is None or not any(shift[:j])
        disjoint = shift is None
    assert ext_solve(source, target, radius=2).status == ("support-disjoint" if disjoint else "solved")


def test_support_disjoint():
    # disjoint weight supports are exactly the pairs with no index shift
    ma, mb = build_M(["-1", "1/4"]), build_M(["-1", "1/3"])
    assert ma.index_shift(mb) is None
    assert ma.index_shift(ma) is not None
    assert build_M(["-1", "1/4"]).index_shift(build_M(["-1", "9/4"])) is not None
    assert build_M(["-1", "1/4"]).index_shift(build_M(["-1", "5/4"])) is None
    na = build_N(["-1", "1/2", "1/3", "0"])
    nb = build_N(["-1", "1/5", "1/7", "0"])
    assert na.index_shift(nb) is None
    nc = build_N(["-1", "3/2", "-2/3", "0"])
    assert na.index_shift(nc) is not None
    # pairs of different block shape are decided too: the shift (0, 0, 0)
    # meets at k = 0, and no integer shift matches the second pair
    assert build_N(["1/2", "1/3", "0"]).index_shift(build_N(["-1", "-7/6", "-3/2"])) is not None
    assert build_N(["1/2", "1/3", "0"]).index_shift(build_N(["-1", "1/2", "1/3"])) is None
    with pytest.raises(ValueError, match="modules over different algebras"):
        build_N(["1/2", "1/3"]).index_shift(build_M(["1/4", "1/3"]))


def _share_a_window_weight(ma, mb):
    return bool({ma.weight_of(k) for k in ma.window(3)} & {mb.weight_of(k) for k in mb.window(3)})


@pytest.mark.parametrize("a,b", [
    (["1/2", "1/3"], ["7/10", "8/15"]),
    (["1/2", "1/3"], ["7/10", "1/3"]),
    (["1/2", "1/3", "1/5", "-1/30"], ["3/4", "7/12", "9/20", "13/60"]),
    # pairs of different block shape
    (["1/2", "1/3", "0"], ["-1", "-7/6", "-3/2"]),
    (["1/2", "1/3", "0"], ["-1", "1/2", "1/3"]),
    (["-1", "1/3", "1/5", "0"], ["-3/2", "-1/6", "-3/10", "-1/2"]),
])
def test_support_disjoint_matches_window_weights(a, b):
    # a shift of every entry of a by the same t keeps the support of N(a)
    ma, mb = build_N(a), build_N(b)
    assert (ma.index_shift(mb) is None) is not _share_a_window_weight(ma, mb)


@pytest.mark.parametrize("a,b", [
    (["-1", "1/4"], ["-1", "5/4"]),
    (["-1", "1/4"], ["-1", "9/4"]),
    (["1/4", "1/3"], ["5/4", "1/3"]),
    (["-1", "1/4", "1/5"], ["-1", "5/4", "6/5"]),
])
def test_support_disjoint_matches_window_weights_on_M(a, b):
    # M(a) and M(b) share a weight only at indices k, t with a + k == b + t
    ma, mb = build_M(a), build_M(b)
    assert (ma.index_shift(mb) is None) is not _share_a_window_weight(ma, mb)


@pytest.mark.parametrize("build,a,b,radius,shared", [
    (build_N, ["1/2", "1/3"], ["3/2", "-2/3"], 3, True),
    (build_M, ["1/4", "1/3"], ["1/4", "1/3"], 2, True),
    (build_M, ["1/4", "1/3"], ["5/4", "4/3"], 2, True),
    (build_N, ["-1", "1/2", "1/3", "0"], ["-1", "5/2", "7/3", "0"], 2, True),
    (build_M, ["-1", "1/4", "1/5"], ["-1", "5/4", "6/5"], 2, True),
    (build_N, ["1/2", "1/3"], ["7/10", "1/3"], 3, False),
    (build_M, ["-1", "1/4"], ["-1", "5/4"], 2, False),
], ids=["A1-shifted", "C2-self", "C2-shifted", "A3-interior-shifted", "C3-shifted",
        "A1-non-integral", "C2-odd-sum"])
def test_graded_targets_match_weight_table(build, a, b, radius, shared):
    # the target of a graded map on x(k) is the target vector of weight
    # weight(k) + root, read from a table of target weights; modules that share
    # no weight have no graded map and no weight-matched phi
    source, target = build(a), build(b)
    system = source.system
    table = {target.weight_of(t): t for t in target.window(radius + 4)}

    def lookup(k, root):
        shift = [system.pairing(root, i) for i in range(system.rank)]
        return table.get(tuple(w + v for w, v in zip(source.weight_of(k), shift)))

    window = source.window(radius)
    space = cocycle_space(source, target, radius)
    want = {(root, k): lookup(k, root) for root in system.ordered_roots for k in window}
    assert bool(space.targets) is shared
    assert space.targets == {u: t for u, t in want.items() if t is not None}
    # phi lives on the window extended one root step
    domain = set(window) | {source.act_root(root, k)[1] for root in system.roots for k in window}
    zero = (0,) * system.rank
    want = {k: lookup(k, zero) for k in sorted(domain) if source.in_basis(k)}
    pairs = _phi_domain(source, target, radius)
    assert bool(pairs) is shared
    assert {k: t for k, (_, t) in pairs.items()} == {k: t for k, t in want.items() if t is not None}
    assert [col for col, _ in pairs.values()] == list(range(len(pairs)))


def test_c2_cocycle_nullspace_is_cheap_and_matches_sympy(monkeypatch):
    # the C2 self-pair system at radius 2 (140 x 104, rank 68) reduces to 4.5
    # nonzeros per row; an elimination that back-clears kept rows over and over
    # makes 1,565 clears on it.  sympy is an independent oracle with the same
    # one-vector-per-free-column convention.
    systems, nullspace, clear = [], linalg.nullspace, linalg._clear
    monkeypatch.setattr(linalg, "nullspace",
                        lambda rows, ncols: systems.append((rows, ncols)) or nullspace(rows, ncols))
    m = build_M(["2/5", "-3/5"])
    basis = cocycle_space(m, m, 2).basis
    (rows, ncols), = systems
    assert (len(rows), ncols, len(basis)) == (140, 104, 36)
    clears = []
    monkeypatch.setattr(linalg, "_clear", lambda *args: clears.append(1) or clear(*args))
    assert nullspace(rows, ncols) == basis
    assert len(clears) <= 700
    expected = sympy.Matrix(len(rows), ncols, lambda i, j: rows[i].get(j, 0)).nullspace()
    assert basis == [[F(int(x.p), int(x.q)) for x in v] for v in expected]


def test_is_coboundary_needs_one_algebra():
    # weights of modules over different algebras are not compared
    source = build_N(["1/2", "1/3"])
    for target in (build_M(["1/3", "1/5"]), build_N(["1/2", "1/3", "1/5"])):
        c = Cocycle(source, target, {(1,): {(0, 0): (F(1), target.zero_index())}})
        with pytest.raises(ValueError, match="different algebras"):
            is_coboundary(c, 2)
        with pytest.raises(ValueError, match="different algebras"):
            cocycle_space(source, target, 2)


def test_random_cocycles_satisfy_identity():
    rng = random.Random(11)
    ma = build_M(["1/4", "1/3"])
    space = cocycle_space(ma, ma, 2)
    for _ in range(3):
        c = space.random_cocycle(rng)
        _assert_glued_module(c, 2, 2)
    # a value moved at the window centre breaks the glued module
    root = next(r for r in c.maps if (0, 0) in c.maps[r])
    val, t = c.maps[root][0, 0]
    c.maps[root][0, 0] = (val + 1, t)
    assert _glued_defects(c, 2, 2)[0]


def test_sp4_spot_check_seeded():
    rng = random.Random(7)
    ma = build_M(["1/4", "1/3"])
    space = cocycle_space(ma, ma, 2)
    assert space.dimension > 0
    for _ in range(10):
        c = space.random_cocycle(rng)
        assert is_coboundary(c, 2) is not None
    mb = build_M(["2/5", "1/7"])
    cross = cocycle_space(ma, mb, 2)
    for _ in range(10):
        c = cross.random_cocycle(rng)
        assert is_coboundary(c, 2) is not None


@pytest.mark.parametrize("build,params,radius", [
    (build_N, ("-1", "1/2", "1/3", "0"), 3),
    (build_N, ("-1", "-1", "1/2", "1/3", "0"), 2),
    (build_N, ("-1", "-1", "1/6", "5/6", "0", "0"), 2),
    (build_N, ("-1", "-1", "-1", "1/6", "5/6", "0", "0"), 1),
    (build_M, ("-1", "1/4"), 4),
    (build_M, ("-1", "-1", "1/4"), 3),
    (build_M, ("-1", "-1", "-1", "1/4"), 2),
    (build_M, ("-1", "-1", "-1", "-1", "2/5"), 2),
    (build_M, ("-1", "-1", "-1", "-1", "-1", "2/5"), 1),
], ids=["A3-B3", "A4-B2", "A5-B2", "A6-B1", "C2-B4", "C3-B3", "C4-B2", "C5-B2", "C6-B1"])
def test_values_of_the_roots_below_alpha_are_zero(build, params, radius):
    # the normal form takes c(X_r) = 0 for every root r with a negative alpha
    # coordinate and never computes it: computed here through the split
    # r = -e_j + (r + e_j), by induction on height from c(X_-alpha) = 0 and the
    # zeros on the roots with alpha coordinate 0, every such value is zero
    module = build(params)
    nf = extcoh._NormalFormAssembler(module, radius)
    system, i = module.system, nf.alpha.index(1)
    below = [r for r in system.roots if r[i] < 0 and r != nf.nalpha]
    assert below
    # sigma = -e_j for the first simple e_j with r + e_j a root
    splits = {neg_root(r): neg_root(e) for r, e in _simple_splits(system, map(neg_root, below)).items()}
    value, memo = _split_values(module, nf, splits)
    for r in below:
        for k in nf.window:
            assert value(r, k) == {}, (r, k)
            assert nf.value(r, k) is extcoh._ZERO
    assert {r for r, _ in memo} == set(below)
    assert {r for r, _ in nf._values} == {nf.alpha}


def _fraction_rank(rows, size):
    """Rank of {column: Fraction} rows by plain elimination, stopping at size."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row and min(row) in pivots:
            lead = min(row)
            c = row[lead]
            for col, v in pivots[lead].items():
                row[col] = row.get(col, 0) - c * v
                if not row[col]:
                    del row[col]
        if row:
            lead = min(row)
            pivots[lead] = {col: v / row[lead] for col, v in row.items()}
            if len(pivots) == size:
                break
    return len(pivots)


@pytest.mark.parametrize("build,params,radius", [
    (build_N, ("-1", "1/2", "1/3", "0"), 3),
    (build_N, ("-1", "1/2", "1/3", "0"), 4),
    (build_N, ("-1", "1/6", "5/6", "0", "0"), 2),
    (build_N, ("-1", "1/6", "5/6", "0", "0"), 3),
    (build_N, ("-1", "-1", "1/2", "1/3", "0"), 2),
    (build_M, ("-1", "1/4"), 4),
    (build_M, ("-1", "-1", "1/4"), 3),
    (build_M, ("-1", "-1", "-1", "1/4"), 3),
], ids=["A3-B3", "A3-B4", "A4-B2", "A4-B3", "A4m-B2", "C2-B4", "C3-B3", "C4-B3"])
def test_ext_zero_answers_are_full_rank_in_identities_rebuilt_from_the_root_action(build, params, radius):
    # an oracle of the normal form's zero answer from act_root alone: c(X_alpha)
    # x(k) is label(k) over the coefficient of X_-alpha at x(k + delta), at
    # x(k + delta), and c is 0 on every root with alpha coordinate <= 0.  The
    # identity of alpha with such a root r, where r + alpha is no root or has
    # alpha coordinate <= 0 too, is then X_r c(X_alpha) x(k) = c(X_alpha) X_r x(k)
    module = build(params)
    system = module.system
    (b,) = module.cuspidal_block()
    alpha, i = system.simple_root(b), b - 1
    nalpha, zero = neg_root(alpha), module.zero_index()
    c, delta = module.act_root(alpha, zero)  # X_alpha moves x(0) to x(delta)
    assert c

    def label(k):
        return tuple(x for x, d in zip(k, delta) if not d)

    def c_alpha(k):  # (label, coefficient, target) of c(X_alpha) x(k)
        up = tuple(x + d for x, d in zip(k, delta))
        down, back = module.act_root(nalpha, up)
        assert down and back == k, k
        return label(k), 1 / down, up

    window = module.window(radius)
    labels = {label(k) for k in window}
    others = [r for r in system.roots
              if r[i] < 0 or (r[i] == 0 and tuple(x + y for x, y in zip(r, alpha)) not in system.roots)]

    def rows():
        for k in window:
            lab, inv, up = c_alpha(k)
            for r in others:
                row, targets = {}, set()
                c2, t2 = module.act_root(r, up)
                if c2:
                    row[lab] = c2 * inv
                    targets.add(t2)
                c1, k1 = module.act_root(r, k)
                if c1:
                    lab1, inv1, up1 = c_alpha(k1)
                    row[lab1] = row.get(lab1, 0) - c1 * inv1
                    targets.add(up1)
                assert len(targets) <= 1  # c is graded: both terms sit at one vector
                row = {l: v for l, v in row.items() if v}
                if row and all(l in labels for l in row):
                    yield row

    assert _fraction_rank(rows(), len(labels)) == len(labels)
    cs = ext_solve(module, module, radius)
    assert cs.dimension == 0 and cs.labels == sorted(labels)
