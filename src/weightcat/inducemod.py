"""Truncated parabolically induced modules and their simple quotients.

Given a Levi module C on the block Phi\\theta, the induced module is spanned
by PBW monomials in the negative nilradical roots tensored with C basis
vectors, truncated at a fixed monomial depth.  The action and the weights are
kept in integers over one module scale (C's root-action scale and the
denominators of its base weight); only the public act_root / act_word divide,
once per call.  The maximal submodule is the joint kernel of the "coefficient
of 1 (x) C after acting by a positive nilradical monomial" functionals, so a
vector's values under those functionals are its image in the simple quotient;
because positive actions never raise the monomial depth, the images are read
inside the truncation.

The module exposes projection to the simple quotient, proportionality
extraction, central character evaluation, zero-weight monomial comparison
between two modules, and the lemma-style probe that detects when no induced
module can satisfy the highest-weight restriction condition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import linalg
from .degonemod import DegreeOneModule, build_module
from .rootsys import Root, RootSystem, add_roots, center_basis, neg_root
from .weylmod import Lookup, sparse_add

Index = Tuple[int, ...]
Monomial = Tuple[Root, ...]          # negative nilradical roots, sorted
VectorKey = Tuple[Monomial, Index]
InducedVector = Dict[VectorKey, Fraction]


class DepthOverflowError(RuntimeError):
    """A product left the truncation depth of the induced module."""


class NonScalarActionError(RuntimeError):
    """An operator expected to act by a scalar did not."""


class LeviModule:
    """A degree-one module over the Levi subalgebra of a set of simple roots.

    The block may have several connected components; each carries an inner
    type A/C module, and the module is their tensor product (indices are
    concatenated).  Block coroot values come from the inner modules, the
    remaining coroot values at the base vector are the central character
    data.
    """

    def __init__(self, system: RootSystem, components: Sequence[Tuple[Sequence[int], DegreeOneModule]],
                 central: Dict[int, Fraction]):
        self.system = system
        self.components: List[Tuple[Tuple[int, ...], DegreeOneModule]] = \
            [(tuple(sorted(pos)), inner) for pos, inner in components]
        self.block = tuple(sorted(b for pos, _ in self.components for b in pos))
        if len(self.block) != len(set(self.block)):
            raise ValueError("overlapping block components")
        for pos, inner in self.components:
            # then inner displacement coordinates are outer root coordinates
            if inner.system.cartan != tuple(tuple(system.cartan[i - 1][j - 1] for j in pos)
                                            for i in pos):
                raise ValueError(f"inner module does not live on the block {pos}")
        missing = [i for i in range(1, system.rank + 1)
                   if i not in self.block and i not in central]
        if missing:
            raise ValueError(f"central character values missing for coroots {missing}")
        unused = sorted(i for i in central if i in self.block or not 1 <= i <= system.rank)
        if unused:
            raise ValueError(f"central character values given for block or out-of-range coroots {unused}")
        self._offsets: List[int] = []
        off = 0
        # root of one component -> (component number, its coordinates over that component)
        self._inner_root: Dict[Root, Tuple[int, Root]] = {}
        lam0 = {i: Fraction(v) for i, v in central.items()}
        for ci, (pos, inner) in enumerate(self.components):
            self._offsets.append(off)
            off += inner.nvars
            for r in system.span_closure(pos):
                self._inner_root[r] = (ci, tuple(r[b - 1] for b in pos))
            lam0.update(zip(pos, inner.weight_of(inner.zero_index())))
        self._total_vars = off
        self.lam0 = tuple(lam0[i] for i in range(1, system.rank + 1))
        # one scale for the root action and the weights
        self.scale = math.lcm(*(inner.scale for _, inner in self.components),
                              *(x.denominator for x in self.lam0))
        self._lam0_num = tuple(x.numerator * (self.scale // x.denominator) for x in self.lam0)

    # -- index slicing -----------------------------------------------------------
    def _slice(self, t: Index, ci: int) -> Index:
        lo = self._offsets[ci]
        return tuple(t[lo:lo + self.components[ci][1].nvars])

    def _replace(self, t: Index, ci: int, piece: Index) -> Index:
        lo = self._offsets[ci]
        return t[:lo] + tuple(piece) + t[lo + len(piece):]

    def zero_index(self) -> Index:
        return (0,) * self._total_vars

    # -- action ------------------------------------------------------------------
    def act_root_num(self, root: Root, t: Index) -> Tuple[int, Index]:
        """Coefficient numerator over `scale`, and target, of a root vector of one
        block component on x(t), read from that component's root-action store."""
        try:
            ci, inner_root = self._inner_root[tuple(root)]
        except KeyError:
            raise ValueError(f"{root} is not a root of one block component") from None
        inner = self.components[ci][1]
        t = tuple(t)
        num, piece = inner.act_root_num(inner_root, self._slice(t, ci))
        return num * (self.scale // inner.scale), self._replace(t, ci, piece)

    # -- weights ----------------------------------------------------------------
    def weight_num(self, t: Index) -> Tuple[int, ...]:
        """weight_of(t) as integers over `scale`: lam0 plus the coroot values of the
        root-lattice displacement of x(t), which `scale` clears (type C's halves too)."""
        x = [0] * self.system.rank
        for ci, (pos, inner) in enumerate(self.components):
            for b, d in zip(pos, inner.displacement(self._slice(t, ci))):
                x[b - 1] = int(d * self.scale)
        return tuple(l + self.system.pairing(x, i) for i, l in enumerate(self._lam0_num))

    def weight_of(self, t: Index) -> Tuple[Fraction, ...]:
        return tuple(Fraction(w, self.scale) for w in self.weight_num(t))


def levi_module_product(system: RootSystem,
                        components: Sequence[Tuple[Sequence[int], DegreeOneModule]],
                        central: Optional[Dict[int, Fraction]] = None) -> LeviModule:
    """Levi module on several disjoint block components (tensor product)."""
    return LeviModule(system, list(components), central or {})


def restrict_family(module: DegreeOneModule) -> LeviModule:
    """Levi restriction of a degree-one module to its cuspidal block.

    The inner module is the degree-one module of the block's own type built
    from the middle parameters; the central data is read off the weight of
    the base highest-weight vector.
    """
    block = module.cuspidal_block()
    if not block:
        raise ValueError("module has an empty cuspidal block")
    j = module.spec.minus_ones
    free = module.params.a[j:j + module.spec.free]
    inner = build_module(module.kind, free)
    w0 = module.weight_of(module.zero_index())
    central = {i: w0[i - 1] for i in range(1, module.system.rank + 1) if i not in set(block)}
    return LeviModule(module.system, [(block, inner)], central)


# ---------------------------------------------------------------------------
# Truncated induced module
# ---------------------------------------------------------------------------

class TruncatedVerma:
    def __init__(self, C: LeviModule, depth: int):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.C = C
        self.depth = depth
        self.system = C.system
        self.real = self.system.realization
        self.levi_roots: FrozenSet[Root] = self.system.span_closure(C.block)
        self.ideal_pos: Tuple[Root, ...] = tuple(r for r in self.system.positive if r not in self.levi_roots)
        self.nminus: Tuple[Root, ...] = tuple(neg_root(r) for r in self.ideal_pos)
        self._order = {r: i for i, r in enumerate(self.nminus)}
        self.nminus_set = frozenset(self.nminus)
        # one scale for the whole action: every memo value is an integer over it
        self.scale = C.scale
        self._act: Dict[Tuple[Root, Monomial, Index], Dict[VectorKey, int]] = Lookup(self._act_basis)
        self._weight_nums: Dict[VectorKey, Tuple[int, ...]] = Lookup(self._weight_num)
        self._off_block = [j for j in range(self.system.rank) if j + 1 not in C.block]
        self._buckets: Dict[Tuple[int, ...], Dict[Root, List[Monomial]]] = Lookup(self._bucket)

    # -- constructors ------------------------------------------------------------
    def one_tensor(self) -> InducedVector:
        """The base vector 1 (x) x(0)."""
        return {((), self.C.zero_index()): Fraction(1)}

    def monomial_tensor(self, roots: Sequence[Root], t: Index) -> InducedVector:
        """w (x) x(t) for w a word of root vectors.

        The factors are multiplied in the given left-to-right order.
        """
        return self.act_word(roots, {((), tuple(t)): Fraction(1)})

    # -- weights -----------------------------------------------------------------
    def weight_of_key(self, key: VectorKey) -> Tuple[Fraction, ...]:
        return tuple(Fraction(w, self.scale) for w in self._weight_nums[key])

    def _weight_num(self, key: VectorKey) -> Tuple[int, ...]:
        """The weight of a key as integers over `scale`: C's weight of x(t) plus the
        coroot values of the monomial's roots."""
        mono, t = key
        return tuple(w + self.scale * sum(self.system.pairing(r, i) for r in mono)
                     for i, w in enumerate(self.C.weight_num(t)))

    def weight_of(self, vec: InducedVector) -> Tuple[Fraction, ...]:
        weights = {self._weight_nums[key] for key in vec}
        if len(weights) != 1:
            raise ValueError(f"vector is not weight-homogeneous: {len(weights)} weights")
        return self.weight_of_key(next(iter(vec)))

    # -- action ------------------------------------------------------------------
    def act_root(self, root: Root, vec: InducedVector) -> InducedVector:
        return self.act_word((root,), vec)

    def act_coroot_combo(self, coeffs: Sequence[Fraction], vec: InducedVector) -> InducedVector:
        out: InducedVector = {}
        for key, c in vec.items():
            w = self.weight_of_key(key)
            val = sum((Fraction(a) * b for a, b in zip(coeffs, w)), Fraction(0))
            if val:
                sparse_add(out, key, c * val)
        return out

    def act_word(self, word: Sequence[Root], vec: InducedVector) -> InducedVector:
        """Apply a product of root vectors, rightmost first: in integers over
        the lcm of vec's denominators, divided once at the end."""
        word = [tuple(root) for root in word]
        if not self.system.roots.issuperset(word):
            bad = next(root for root in word if root not in self.system.roots)
            raise ValueError(f"{bad} is not a root of {self.system.cartan_type}")
        den = math.lcm(*(c.denominator for c in vec.values()))
        num = {key: c.numerator * (den // c.denominator) for key, c in vec.items()}
        # each root multiplies the integer vector's scale by `scale`
        for root in reversed(word):
            out: Dict[VectorKey, int] = {}
            for (mono, t), c in num.items():
                for key, c2 in self._act[root, mono, t].items():
                    sparse_add(out, key, c * c2)
            if not out:
                return {}
            num = out
        den *= self.scale ** len(word)
        return {key: Fraction(c, den) for key, c in num.items()}

    def _act_basis(self, key: Tuple[Root, Monomial, Index]) -> Dict[VectorKey, int]:
        """X_root (mono (x) x(t)) for key (root, mono, t), as integers over `scale`:
        each term carries at most one Levi or Cartan factor, and structure constants
        and Cartan coefficients are integers, so a product of two memo values
        divides by the scale."""
        root, mono, t = key
        act, scale = self._act, self.scale
        out: Dict[VectorKey, int] = {}
        if not mono:
            if root in self.levi_roots:
                num, t2 = self.C.act_root_num(root, t)
                if num:
                    out[((), t2)] = num
            elif root in self.nminus_set:
                out[((root,), t)] = scale
            # positive nilradical roots annihilate 1 (x) C
        else:
            gamma = mono[0]
            if root in self.nminus_set and self._order[root] <= self._order[gamma]:
                if len(mono) + 1 > self.depth:
                    raise DepthOverflowError(
                        f"monomial depth {len(mono) + 1} exceeds truncation {self.depth}")
                out[((root,) + mono, t)] = scale
            else:
                rest = mono[1:]
                # X_root X_gamma = X_gamma X_root + [X_root, X_gamma]
                for (mono2, t2), c2 in act[root, rest, t].items():
                    for key3, c3 in act[gamma, mono2, t2].items():
                        sparse_add(out, key3, _integral(c2 * c3, scale))
                s = add_roots(root, gamma)
                if s in self.system.roots:
                    n = self.real.structure_constant(root, gamma)
                    for key2, c2 in act[s, rest, t].items():
                        sparse_add(out, key2, n * c2)
                elif not any(s):
                    h = self.real.cartan_coefficients(root)
                    sparse_add(out, (rest, t), sum(a * w for a, w in zip(h, self._weight_nums[rest, t])))
        return out

    # -- quotient ----------------------------------------------------------------
    def _bucket(self, off: Tuple[int, ...]) -> Dict[Root, List[Monomial]]:
        """PBW monomials over the positive nilradical whose total root has the
        coordinates `off` off the Levi block, grouped by total root."""
        roots, out = self.ideal_pos, {}

        def rec(start: int, mono: Monomial, total: Root):
            # each root adds a nonzero, non-negative vector off the block, so
            # totals only grow: stop at the target
            if all(total[j] == o for j, o in zip(self._off_block, off)):
                out.setdefault(total, []).append(mono)
            else:
                for i in range(start, len(roots)):
                    nxt = add_roots(total, roots[i])
                    if all(nxt[j] <= o for j, o in zip(self._off_block, off)):
                        rec(i, mono + (roots[i],), nxt)

        rec(0, (), (0,) * self.system.rank)
        return out

    def project(self, vec: InducedVector) -> InducedVector:
        """The image of vec in the simple quotient: {(word, t): the coefficient of
        1 (x) x(t) in word.vec}.

        The maximal submodule is the set of vectors whose images under positive
        nilradical monomials have no 1 (x) C component (Jantzen, Moduln mit einem
        hoechsten Gewicht, LNM 750, 1979), so these values map the weight space
        of vec modulo that submodule injectively.  A word of total root nu maps
        weight mu to mu + nu, which meets 1 (x) C only if nu has the off-block
        coordinates of vec's monomials negated; its PBW words are every functional
        that can be nonzero.  Raises ValueError unless vec is weight-homogeneous.
        """
        if not vec:
            return {}
        self.weight_of(vec)
        mono = next(iter(vec))[0]
        off = tuple(-sum(r[j] for r in mono) for j in self._off_block)
        out: InducedVector = {}
        for words in self._buckets[off].values():
            for word in words:
                for (m, t), c in self.act_word(word, vec).items():
                    if not m:
                        out[word, t] = c
        return out

    def proportionality(self, v: InducedVector, w: InducedVector) -> Optional[Fraction]:
        """t with v = t*w in the simple quotient, or None."""
        pw = self.project(w)
        if not pw:
            raise ValueError("denominator vector is zero in the quotient")
        return _ratio(self.project(v), pw)


def _integral(n: int, d: int) -> int:
    """n / d, as the int the integer action relies on it being."""
    q, r = divmod(n, d)
    if r:
        raise AssertionError(f"induced action coefficient {Fraction(n, d)} is not an integer")
    return q


def _ratio(pv: InducedVector, pw: InducedVector) -> Optional[Fraction]:
    """t with pv = t*pw for images in the quotient, pw nonzero, or None."""
    if not pv:
        return Fraction(0)
    key, c = min(pw.items())
    t = pv.get(key, Fraction(0)) / c
    return t if {k: t * c for k, c in pw.items()} == pv else None


def induce(C: LeviModule, depth: int) -> TruncatedVerma:
    return TruncatedVerma(C, depth)


# ---------------------------------------------------------------------------
# Central characters
# ---------------------------------------------------------------------------

def central_scalars(C: LeviModule, samples: Sequence[Index]) -> Dict[Tuple[Fraction, ...], Fraction]:
    """Scalars of the center of the Levi subalgebra on the given basis vectors.

    Keys are the central elements as coefficient tuples over the simple
    coroots.  Raises if any central element fails to act by one scalar.
    """
    if not samples:
        raise ValueError("need at least one sample index")
    out: Dict[Tuple[Fraction, ...], Fraction] = {}
    for z in center_basis(C.system, C.block):
        vals = set()
        for t in samples:
            w = C.weight_of(tuple(t))
            vals.add(sum((a * b for a, b in zip(z, w)), Fraction(0)))
        if len(vals) != 1:
            raise NonScalarActionError(f"central element {z} acts non-constantly: {sorted(vals)}")
        out[z] = next(iter(vals))
    return out


# ---------------------------------------------------------------------------
# Zero-weight monomial comparison
# ---------------------------------------------------------------------------

def _zero_weight_words(system: RootSystem) -> List[Tuple[Root, ...]]:
    """Nonempty multisets of at most max_len roots with total zero.

    Roots are indexed in (height, root) order; each word lists its roots by
    index, and the words come in order of their index tuples.
    """
    max_len = 4  # word length of the zero-weight monomial comparison
    roots = system.ordered_roots
    index = {r: i for i, r in enumerate(roots)}
    # negative roots come first: a word is a negative part followed by a
    # positive part of the opposite total, each with fewer than max_len roots
    by_total: Dict[Root, List[Tuple[int, ...]]] = {}
    positive = [i for i, r in enumerate(roots) if sum(r) > 0]
    for n in range(1, max_len):
        for part in combinations_with_replacement(positive, n):
            total = tuple(map(sum, zip(*(roots[i] for i in part))))
            by_total.setdefault(total, []).append(part)
    words = [tuple(sorted(index[neg_root(roots[i])] for i in lower)) + upper
             for parts in by_total.values() for lower in parts for upper in parts
             if len(lower) + len(upper) <= max_len]
    return [tuple(roots[i] for i in word) for word in sorted(words)]


def u0_compare(verma: TruncatedVerma, module: DegreeOneModule) -> bool:
    """Equality of the weights, and of the scalar of every zero-weight word, on
    1 (x) x(0) in the simple quotient of verma and on x(0) in module.  The
    words act on 1 (x) x(0) itself, as the maximal submodule is a submodule,
    and keep it in 1 (x) C, where `project` applies the empty word alone (the
    off-block total is 0): there each image is its own image in the quotient."""
    one, k = verma.one_tensor(), module.zero_index()
    if verma.weight_of(one) != module.weight_of(k):
        return False
    for word in _zero_weight_words(verma.system):
        t = _ratio(verma.act_word(word, one), one)
        if t is None:
            raise NonScalarActionError(f"word {word} acted non-scalarly on the quotient vector")
        coeff, target = module.act_word(word, k)
        if coeff and target != k:
            raise NonScalarActionError(f"word {word} did not return to the base vector")
        if t != coeff:
            return False
    return True


# ---------------------------------------------------------------------------
# Restriction-failure probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeCandidate:
    alpha: Root
    chain_weight: Root
    delta: Root
    witness_root: Root


@dataclass
class ProbeReport:
    restriction_impossible: bool
    witness: Optional[ProbeCandidate]
    candidates_checked: int


def probe_restriction_failure(C: LeviModule, depth: int = 3) -> ProbeReport:
    """Replays the induced-module contradiction pattern for a Levi module.

    Searches for a negative nilradical root -delta with delta = alpha +
    (chain of theta roots) and a positive nilradical root nu = delta + mu
    whose adjoint action kills every theta-negative monomial of the chain
    weight.  For such data, membership of the projected vector
    p(X_{-delta} (x) v) in the span of the theta-lowered images of
    p(1 (x) X_{-alpha} v) is forced whenever the simple quotient satisfies
    the highest-weight restriction condition; its failure certifies that no
    such module lies in the category.
    """
    system = C.system
    verma = TruncatedVerma(C, depth)
    levi_pos = [r for r in system.positive if r in verma.levi_roots]
    theta_pos = [r for r in system.positive if not any(r[b - 1] for b in C.block)]

    candidates: List[ProbeCandidate] = []
    for delta in verma.ideal_pos:
        for alpha in levi_pos:
            # alpha vanishes off the block, so delta - alpha is delta there;
            # zero on the block, it is a nonzero sum of theta simple roots, and
            # simple steps through roots join alpha to delta (by induction on
            # the height: |delta - alpha|^2 > 0 gives a step at one end,
            # Humphreys, GTM 9, 9.4), so a chain of theta roots always exists
            rem = tuple(d - a for d, a in zip(delta, alpha))
            if any(rem[b - 1] for b in C.block):
                continue
            for mu in levi_pos:
                nu = add_roots(delta, mu)
                if nu in system.roots and not any(
                        tuple(n - g for n, g in zip(nu, gamma)) in system.roots
                        for gamma in theta_pos if all(g <= r for g, r in zip(gamma, rem))):
                    candidates.append(ProbeCandidate(alpha, rem, delta, nu))

    base = C.zero_index()
    for cand in candidates:
        lhs = verma.project(verma.monomial_tensor([neg_root(cand.delta)], base))
        off = tuple(cand.chain_weight[j] for j in verma._off_block)
        words = verma._buckets[off][cand.chain_weight]
        # X_{-alpha} is a Levi root vector, so it acts on 1 (x) C through C
        span_vectors = [verma.project(verma.monomial_tensor(
            [neg_root(r) for r in word] + [neg_root(cand.alpha)], base)) for word in words]
        if linalg.in_span(lhs, span_vectors) is None:
            return ProbeReport(True, cand, len(candidates))
    return ProbeReport(False, None, len(candidates))
