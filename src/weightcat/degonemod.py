"""Degree-one simple weight modules for types A and C as exact action oracles.

A module is specified by a rational parameter vector in normal form:

* type A on rank n:  length n+1, shaped (-1,...,-1, z_1..z_r, 0,...,0) with
  the z block non-integer of size >= 2 (a fully non-integer vector is the
  cuspidal case);
* type C on rank n:  length n, shaped (-1,...,-1, z_1..z_m) with the z block
  non-integer (m >= 1); when m = 1 the last entry may instead be -1 or -2.

`build_N` and `build_M` parse that shape into a `FamilyDescriptor`, the record
`categorio.classify` returns for a nontrivial category, and the module carries
it as `spec`; the vector itself is kept once, as `params.a`.

Basis vectors are lattice points with coordinate sum zero (type A) or even
coordinate sum (type C), intersected with the admissibility set of the
parameter vector.  Every root vector of the algebra acts through its Weyl
realization, so non-simple roots need no separate formulas and bracket
fidelity is inherited from the algebra product.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from operator import mul
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .rootsys import Root, RootPair, RootSystem, build_root_system, neg_root
from .weylmod import (Lookup, WeylParams, format_rational, monomial_word, parse_rational, reach,
                      representatives)

Index = Tuple[int, ...]


class PartitionError(ValueError):
    """Parameter vector does not have the required block shape."""


@dataclass(frozen=True)
class FamilyDescriptor:
    """Shape of a degree-one family: kind N/M with block sizes."""

    kind: str          # "N" or "M"
    minus_ones: int    # leading -1 entries
    free: int          # entries of the block the family varies, after the -1s
    zeros: int         # trailing 0 entries (always 0 for kind M)

    def instantiate(self, params: Sequence) -> "DegreeOneModule":
        params = [parse_rational(p) for p in params]
        if len(params) != self.free:
            raise ValueError(f"family needs {self.free} non-integer parameters")
        vec = [Fraction(-1)] * self.minus_ones + params + [Fraction(0)] * self.zeros
        return build_module(self.kind, vec)

    def to_json(self) -> Dict:
        return {"kind": self.kind, "minus_ones": self.minus_ones,
                "free": self.free, "zeros": self.zeros}


def _show(a: Sequence[Fraction]) -> str:
    return "(" + ", ".join(map(format_rational, a)) + ")"


class DegreeOneModule:
    """Action oracle for one degree-one module, indexed by lattice points."""

    def __init__(self, spec: FamilyDescriptor, a: Tuple[Fraction, ...], system: RootSystem):
        self.spec = spec
        self.kind = spec.kind
        self.system = system
        self.params = WeylParams(a)
        self.nvars = len(a)
        self.realization = system.realization
        # every admissible index gets a number on first sight, _keys[_ids[k]] == k
        self._keys: List[Index] = []
        self._ids: Dict[Index, int] = Lookup(self._number)
        # each window, projection class, weight and Weyl step is read once per module
        self._windows: Dict[int, List[Index]] = Lookup(self._window)
        self._classes: Dict[Tuple[int, FrozenSet[int]], List[Index]] = Lookup(
            lambda key: representatives(self.window(key[0]), key[1]))
        self._weights: Dict[int, Tuple[int, ...]] = Lookup(lambda i: self.weight_num(self._keys[i]))
        self._steps = self.params.steps()
        # the one store of the root action: root -> {number: (target number, numerator)}
        self._action: Dict[Root, Dict[int, Tuple[int, int]]] = Lookup(self._root_action)

    @cached_property
    def scale(self) -> int:
        """One denominator for every root-action coefficient: q_i steps are
        integral and p_i steps divide by a_i's denominator (WeylParams._step)."""
        return math.lcm(*(Fraction(c, 2).denominator
                          * math.prod(x.denominator ** e for x, e in zip(self.params.a, pe))
                          for _, pe, c in map(self.realization.monomial, self.system.ordered_roots)))

    # -- basis ---------------------------------------------------------------
    def in_basis(self, k: Sequence[int]) -> bool:
        k = tuple(k)
        if len(k) != self.nvars or not self.params.in_lattice(k):
            return False
        s = sum(k)
        return s == 0 if self.kind == "N" else s % 2 == 0

    def zero_index(self) -> Index:
        return (0,) * self.nvars

    def window(self, radius: int) -> List[Index]:
        """All basis indices with every coordinate in [-radius, radius], listed
        once per module and radius: a shared list that callers must not mutate."""
        return self._windows[radius]

    def window_representatives(self, radius: int, coords: FrozenSet[int]) -> List[Index]:
        """`weylmod.representatives` of window(radius) on coords, once per module,
        radius and coords: a shared list that callers must not mutate."""
        return self._classes[radius, coords]

    def _window(self, radius: int) -> List[Index]:
        *head_ranges, last = self.params.window_ranges(radius)
        out = []
        for head in product(*head_ranges):
            s = sum(head)
            if self.kind == "N":
                if -s in last:
                    out.append(head + (-s,))
            else:
                out.extend(head + (x,) for x in last if (s + x) % 2 == 0)
        return out

    # -- actions ---------------------------------------------------------------
    def _number(self, k: Index) -> int:
        self._keys.append(k)
        return len(self._keys) - 1

    def _root_action(self, root: Root) -> Lookup:
        """{number: (target number, numerator)} of X_root on admissible indices at
        the module's scale, walked on first lookup; a zero numerator keeps the index
        the walk stopped at, and every target is admissible (`WeylParams._step`)."""
        qe, pe, c = self.realization.monomial(root)  # X_root = c/2 q^qe p^pe
        walk, letters, scale = self.params._walk, self._steps[monomial_word(qe, pe)], self.scale
        keys, ids = self._keys, self._ids

        def act(i):
            num, den, target = walk(letters, keys[i])
            return ids[target], num * (c * scale // (2 * den))

        return Lookup(act)

    def act_root_num(self, root: Root, k: Sequence[int]) -> Tuple[int, Index]:
        """Coefficient numerator over `scale`, and target, of the canonical root
        vector on x(k): the root-action store as it is kept.  Only an index
        without a number needs the admissibility check."""
        k = tuple(k)
        i = self._ids.get(k)
        if i is None:
            if not self.params.in_lattice(k):
                raise ValueError(f"index {k} not admissible for parameters {self.params.a}")
            i = self._ids[k]
        target, num = self._action[tuple(root)][i]
        return num, self._keys[target]

    def act_root(self, root: Root, k: Sequence[int]) -> Tuple[Fraction, Index]:
        """Coefficient and target of the canonical root vector on x(k)."""
        num, target = self.act_root_num(root, k)
        return Fraction(num, self.scale), target

    def act_word(self, word: Sequence[Root], k: Sequence[int]) -> Tuple[Fraction, Index]:
        """Coefficient and target of a product of root vectors on x(k), rightmost
        first; a zero coefficient stops the walk at the index it was applied to."""
        num = den = 1
        k = tuple(k)
        for root in reversed(word):
            c, target = self.act_root(root, k)
            if not c:
                return c, k
            num, den, k = num * c.numerator, den * c.denominator, target
        return Fraction(num, den), k

    def bracket_defects(self, radius: int) -> Iterator[Tuple[Root, Root, Index, Dict[Index, Fraction]]]:
        """Root pairs and window vectors where the action breaks a bracket.

        Yields (mu, nu, k, defect) for every pair of `Realization.root_pairs` and
        window vector k on which the nonzero {index: Fraction} defect is
        X_mu X_nu - X_nu X_mu - [X_mu, X_nu] on x(k), decided on index numbers
        over the root-action store and `weight_num` at `scale` (`_pair_defects`);
        an empty iteration certifies bracket fidelity on the window, which holds
        k = 0.  The window is enumerated at the first next(), so a negative radius,
        or a window too large to enumerate, raises there, not at the call.

        A pair off the Cartan with no coordinate where one root has a q letter
        and the other a p letter is skipped, pairs of disjoint supports among
        them: its bracket is 0, having no single contraction, and each lattice
        step reads and writes k_i alone, so both orders run the same steps from
        the same k_i on every coordinate and agree, a zero or corrupted step
        included.  Any other pair off the Cartan is tried on one window vector
        per projection onto its letters' coordinates (`window_representatives`)
        and scanned on the whole window only if one fails, so the yielded
        sequence is the full scan's.

        The Cartan pairs (mu, -mu) are tried the same way on supp mu if the
        weight is affine on the window: checked once, in integers, as weight(k)
        less L(k) being one value on every key, with L the weight's linear part,
        scale (k_i - k_{i+1}) and for M scale k_n last.  Then the two products
        depend only on the projection of k onto supp mu, and so does
        h.weight(k), since a coroot pairs to 0 with L of every unit step off its
        support (pinned by `tests/test_rootsys.py::
        test_a_coroot_does_not_see_coordinates_off_its_support`).  If the check
        fails at any key, every Cartan pair scans the whole window.

        The window, its projection classes, the weights and the Weyl steps are
        read once per module, so a second call reads no step again.
        """
        window = self.window(radius)
        act, den, keys, ids, weights = self._action, self.scale, self._keys, self._ids, self._weights
        numbers = [ids[k] for k in window]
        tail = () if self.kind == "N" else (0,)

        def offset(i):  # weight(k) - L(k)
            k = keys[i] + tail
            return tuple(w - den * (x - y) for w, x, y in zip(weights[i], k, k[1:]))

        base = offset(numbers[0])
        affine = all(offset(i) == base for i in numbers)
        local = Lookup(lambda coords: [ids[k] for k in self.window_representatives(radius, coords)])
        kinds = self.realization.letter_kinds
        for pair in self.realization.root_pairs:
            mu, nu, _, _, h = pair
            (qa, pa), (qb, pb) = kinds[mu], kinds[nu]
            if h is None and qa.isdisjoint(pb) and pa.isdisjoint(qb):
                continue
            if ((h is None or affine)
                    and next(_pair_defects(act, weights, den, pair, local[qa | pa | qb | pb]), None) is None):
                continue
            for i, defect in _pair_defects(act, weights, den, pair, numbers):
                yield mu, nu, keys[i], {keys[j]: v for j, v in defect.items()}

    def weight_num(self, k: Sequence[int]) -> Tuple[int, ...]:
        """weight_of(k) as integers over `scale`, which every a_i's denominator divides
        (some root has a p letter on each coordinate), and 2 for type C (q_n^2 / 2)."""
        scale, n = self.scale, self.system.rank
        s = [x.numerator * (scale // x.denominator) + scale * ki for x, ki in zip(self.params.a, k)]
        if self.kind == "N":
            return tuple(s[i] - s[i + 1] for i in range(n))
        return tuple(s[i] - s[i + 1] for i in range(n - 1)) + (s[n - 1] + scale // 2,)

    def weight_of(self, k: Sequence[int]) -> Tuple[Fraction, ...]:
        """Values of the simple coroots H_{e_1}..H_{e_n} on x(k)."""
        return tuple(Fraction(x, self.scale) for x in self.weight_num(k))

    def displacement(self, k: Sequence[int]) -> Tuple[Fraction, ...]:
        """Simple-root coordinates of weight_of(k) - weight_of(0): the partial
        sums of k, with sum(k)/2 as the last coordinate for type C."""
        x = list(accumulate(k[:self.system.rank]))
        if self.kind == "M":
            x[-1] = Fraction(x[-1], 2)
        return tuple(x)

    def index_shift(self, other: "DegreeOneModule") -> Optional[Index]:
        """The integer vector s with other.weight_of(k + s) == self.weight_of(k), or
        None if there is none.  M weights read a + k and N weights its differences,
        so s is a - b for M, if integral with an even sum, and for N a - b less its
        mean, if integral; a module of another kind or rank raises ValueError."""
        if (other.kind, other.nvars) != (self.kind, self.nvars):
            raise ValueError("modules over different algebras")
        s = [x - y for x, y in zip(self.params.a, other.params.a)]
        if self.kind == "N":
            mean = sum(s) / self.nvars
            s = [x - mean for x in s]
        if any(x.denominator != 1 for x in s) or sum(s) % 2:
            return None
        return tuple(map(int, s))

    # -- structure -------------------------------------------------------------
    def cuspidal_block(self) -> Tuple[int, ...]:
        """Simple roots (1-based) on which every root vector acts injectively."""
        j, free = self.spec.minus_ones, self.spec.free
        # N's free entries span free - 1 simple roots, M's (with the long root) free
        last = j + free if self.kind == "M" else j + free - 1
        return tuple(range(j + 1, last + 1))

    def theta_a(self) -> FrozenSet[int]:
        """The simple roots outside the cuspidal block."""
        block = set(self.cuspidal_block())
        return frozenset(i for i in range(1, self.system.rank + 1) if i not in block)

    def is_hw(self, k: Sequence[int], raising: Iterable[Root]) -> bool:
        """Annihilation by every root vector in raising, the positive roots on theta."""
        return not any(self.act_root_num(root, k)[0] for root in raising)

    def enumerate_hw(self, theta: Iterable[int], radius: int) -> List[Index]:
        raising = self.system.span_closure(theta) & self.system.positive_set
        return [k for k in self.window(radius) if self.is_hw(k, raising)]

    def predicted_hw(self, radius: int) -> List[Index]:
        """Window vectors supported on the free block of the highest-weight family."""
        j = self.spec.minus_ones
        free = range(j, j + self.spec.free)
        return [k for k in self.window(radius) if not any(x for i, x in enumerate(k) if i not in free)]

    def degree_on_window(self, radius: int) -> int:
        """Largest weight multiplicity on the window, which holds k = 0 (`WeylParams.window_ranges`)."""
        ids, weights = self._ids, self._weights
        return max(Counter(weights[ids[k]] for k in self.window(radius)).values())

    def levi_orbit(self, k: Sequence[int], levi_simples: Optional[Iterable[int]] = None,
                   radius: int = 3) -> "OrbitReport":
        """Reachable window vectors under the Levi root vectors, with checks."""
        if levi_simples is None:
            levi_simples = self.cuspidal_block()
        levi_roots = [r for r in self.system.span_closure(levi_simples)]
        window = set(self.window(radius))
        k = tuple(k)
        orbit = reach(k, lambda cur: [t for c, t in (self.act_root(r, cur) for r in levi_roots)
                                      if c and t in window])
        cuspidal_ok = all(self.act_root(r, v)[0] for v in orbit for r in levi_roots)
        # X_{-r} X_r x(k) comes back to x(k) unless X_r kills it: a root
        # vector moves every index it does not kill, so the walk stops at k
        # only when its first step is zero
        return_ok = all(self.act_word((neg_root(r), r), k)[1] == k
                        for r in levi_roots if sum(r) > 0)
        return OrbitReport(sorted(orbit), cuspidal_ok, return_ok)


def _pair_defects(act: Mapping, weights: Mapping, den: int, pair: RootPair,
                  keys: Iterable) -> Iterator[Tuple[object, Dict]]:
    """(key, defect) of one pair of root_pairs, as `bracket_defects` yields
    them, from at most five store reads per key, one term each: X_nu then X_mu
    (reaching t2), X_mu then X_nu (reaching t4), and X_{mu+nu} when N != 0.
    A product's second factor is read only after a nonzero first: a zero
    product adds nothing to the test or the defect wherever it stops, so no
    walk starts from the index a zero walk stopped at.
    When both products land on one target t (a zero one lands nowhere), the key
    passes in integers if their difference is the bracket term, N den c5 on
    X_{mu+nu}'s target or den h.weight(key) on key, and that target is t unless
    the term is 0; only a key that fails builds its {target: Fraction} defect."""
    mu, nu, s, n, h = pair
    amu, anu, tsum, ns, den2 = act[mu], act[nu], act[s] if n else None, n * den, den * den
    for key in keys:
        # den^2 (X_mu X_nu - X_nu X_mu - [X_mu, X_nu]) x(key): p on t2, q on t4, r on t5
        t1, c1 = anu[key]
        t2, c2 = amu[t1] if c1 else (t1, 0)
        t3, c3 = amu[key]
        t4, c4 = anu[t3] if c3 else (t3, 0)
        p, q = c1 * c2, c3 * c4
        t5, r = key, 0
        if n:
            t5, c5 = tsum[key]
            r = ns * c5
        elif h is not None:
            r = den * sum(map(mul, h, weights[key]))
        if (t2 == t4 or not p or not q) and p - q == r and (not r or t5 == (t2 if p else t4)):
            continue
        acc = {t2: p}
        acc[t4] = acc.get(t4, 0) - q
        acc[t5] = acc.get(t5, 0) - r
        if any(acc.values()):
            yield key, {k: Fraction(v, den2) for k, v in acc.items() if v}


@dataclass(frozen=True)
class OrbitReport:
    orbit: List[Index]
    cuspidal_ok: bool
    return_paths_ok: bool


def build_N(values: Iterable) -> DegreeOneModule:
    """Type A degree-one module from a parameter vector of length rank+1."""
    a = tuple(parse_rational(v) for v in values)
    if len(a) < 2:
        raise PartitionError("type A parameter vector needs at least two entries")
    j = 0
    while j < len(a) and a[j] == -1:
        j += 1
    m = j
    while m < len(a) and a[m].denominator != 1:
        m += 1
    for i in range(m, len(a)):
        if a[i] != 0:
            raise PartitionError(
                f"entry {i + 1} of {_show(a)} breaks the (-1.., non-integer.., 0..) shape")
    if m - j < 2:
        raise PartitionError(
            f"{_show(a)}: the non-integer block must have at least two entries")
    system = build_root_system(f"A{len(a) - 1}")
    return DegreeOneModule(FamilyDescriptor("N", j, m - j, len(a) - m), a, system)


def build_M(values: Iterable) -> DegreeOneModule:
    """Type C degree-one module from a parameter vector of length rank."""
    a = tuple(parse_rational(v) for v in values)
    if not a:
        raise PartitionError("type C parameter vector needs at least one entry")
    n = len(a)
    l = 0
    while l < n - 1 and a[l] == -1:
        l += 1
    tail = a[l:]
    if all(x.denominator != 1 for x in tail):
        free = n - l
    elif len(tail) == 1 and tail[0] in (Fraction(-1), Fraction(-2)):
        free = 0  # an integer tail leaves nothing free: the module is highest-weight
    else:
        raise PartitionError(
            f"{_show(a)}: tail block must be non-integer (or a single -1/-2 entry)")
    return DegreeOneModule(FamilyDescriptor("M", l, free, 0), a, build_root_system(f"C{n}"))


def build_module(kind: str, values: Iterable) -> DegreeOneModule:
    """The degree-one module of kind "N" (`build_N`) or "M" (`build_M`) on values."""
    return build_N(values) if kind == "N" else build_M(values)
