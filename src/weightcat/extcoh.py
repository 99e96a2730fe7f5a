"""Cocycles, extensions and the linear systems that certify Ext vanishing.

A cocycle between two weight modules assigns to each root vector a
weight-graded linear map; the Cartan subalgebra is always sent to zero,
which is exactly the condition for the glued extension module to stay a
weight module.  Because both modules here have one-dimensional weight
spaces, a graded map is a single rational coefficient per basis vector,
and the cocycle identity over all pairs of root vectors becomes a sparse
exact linear system.  `_identity` is its one row builder, in integers: the
root actions enter as the modules' store numerators over their scales,
and every cocycle value is integers over one denominator.  The coboundary
rows are integers too, over the lcm of the two scales.

Two solvers are provided.  `cocycle_space` parametrises every graded
cocycle on a window and `coboundary_quotient_dim` measures the quotient by
coboundaries, by rank-nullity with no basis built; `ext_solve` instead
imposes the inverse-shift normal form on the distinguished cuspidal
direction of a degree-one family and reduces self-extension vanishing to a
system in the orbit labels b(k), whose set-up checks the inverse shift
once per projection class of the window.  It calls a pair of modules that
is not isomorphic "support-disjoint", which for type A means disjoint
highest-weight supports, whether or not the weight supports meet.  Its rows
go into one fraction-free `linalg.Echelon`: the identities of the cheap
pairs through the cuspidal root α, those that read c(X_α) and zeros only,
over the whole window, outward along the α orbit and then in the labels
(each orbit step sorted when the read reaches it), until the rank reaches
the label count.  Every row is a constraint the cocycle must satisfy, so
rows of full rank certify a zero kernel, and every label meets its orbit's
centre early, so full rank comes early.  The pairs are built one by one
(`Realization.pair`); no value of a root split into a bracket is computed,
and no bracket table is built.  In rank one the cheap pair of α and −α is
the whole bracket table, so an answer of positive dimension reads every
identity; in higher rank a read left short of full rank is refused as
uncertified.  A self pair is one module, passed as both.  The rank-one
inverse-shift cocycle `make_sl2_cocycle` is the normal form's value at b.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import linalg
from .degonemod import DegreeOneModule
from .rootsys import Root, RootPair, add_roots, neg_root
from .weylmod import CertificationError, Lookup, format_rational, parse_rational, sparse_add

Index = Tuple[int, ...]
# (den, target index, {column: numerator}): a cocycle value or identity row
Value = Tuple[int, Optional[Index], Dict]
_ZERO: Value = (1, None, {})


# ---------------------------------------------------------------------------
# Explicit graded cocycles between two degree-one modules
# ---------------------------------------------------------------------------

@dataclass
class Cocycle:
    """Weight-graded maps c(X_root): source -> target, zero on the Cartan."""

    source: DegreeOneModule
    target: DegreeOneModule
    maps: Dict[Root, Dict[Index, Tuple[Fraction, Index]]] = field(default_factory=dict)

    def value(self, root: Root, k: Index) -> Optional[Tuple[Fraction, Index]]:
        return self.maps.get(tuple(root), {}).get(tuple(k))


def make_sl2_cocycle(b, module: DegreeOneModule, radius: int = 6) -> Cocycle:
    """Inverse-lowering cocycle on a cuspidal rank-one module: c(H) = c(X^-) = 0
    and c(X^+) x(k) = b * (X^-)^{-1} x(k), the normal form's cocycle at b on its
    one orbit label, whose assembler refuses a module that is not cuspidal."""
    b = parse_rational(b)
    if module.system.rank != 1:
        raise ValueError("rank-one module expected")
    nf = _NormalFormAssembler(module, radius + 1)
    plus, minus = {}, {}
    for k in nf.window:
        down = tuple(a - d for a, d in zip(k, nf.delta))
        den, t, row = nf.value(nf.alpha, down)
        plus[down] = (b * Fraction(row[()], den), t)
        minus[k] = (Fraction(0), down)
    return Cocycle(module, module, {nf.alpha: plus, nf.nalpha: minus})


def _identity(source: DegreeOneModule, target: DegreeOneModule, cval: Callable,
              pair: RootPair, k: Index) -> Optional[Value]:
    """The cocycle identity of one root pair at x(k), as one integer row.

    cval(root, k) is c(X_root) x(k) as (den, target, {column: int}), integers
    over one positive denominator at the target index of weight wt(k) + root,
    (1, None, {}) if zero, or None where c is not known; the normal form's
    values on roots with a negative alpha coordinate are zero, never computed.
    For pair = (mu, nu, mu+nu, N, h) this is (den, t, row), row the nonzero
    integer coefficients at x(t) of
        N c(X_{mu+nu}) - c(X_mu) X_nu + X_nu c(X_mu) + c(X_nu) X_mu - X_mu c(X_nu)
    applied to x(k), over den; the root actions enter as the modules' store
    numerators over their scales.  A term off t raises ValueError: c is not
    graded.  None when the identity needs a value cval does not know.
    """
    mu, nu, s, n, _ = pair
    # (value, factor numerator, factor denominator, root then acting on the target)
    terms = [(cval(s, k), n, 1, None)] if n else []
    for a, b, sign in ((mu, nu, 1), (nu, mu, -1)):
        cm, k2 = source.act_root_num(b, k)
        if cm:
            terms.append((cval(a, k2), -sign * cm, source.scale, None))
        terms.append((cval(a, k), sign, target.scale, b))
    if any(value is None for value, _, _, _ in terms):
        return None
    terms = [term for term in terms if term[0][2]]
    den = math.lcm(*(vden * fden for (vden, _, _), _, fden, _ in terms))
    at, row = None, {}
    for (vden, t, form), f, fden, b in terms:
        f *= den // (vden * fden)
        if b is not None:
            cn, t = target.act_root_num(b, t)
            if not cn:
                continue
            f *= cn
        if at not in (None, t):
            raise ValueError(f"identity of {pair[:2]} at {k} lands on {at} and {t}: c is not graded")
        at = t
        for col, v in form.items():
            row[col] = row.get(col, 0) + f * v
    return den, at, {c: v for c, v in row.items() if v}


# ---------------------------------------------------------------------------
# The full graded cocycle space on a window
# ---------------------------------------------------------------------------

@dataclass
class CocycleSpace:
    source: DegreeOneModule
    target: DegreeOneModule
    targets: Dict[Tuple[Root, Index], Index]
    basis: List[List[Fraction]]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def random_cocycle(self, rng: random.Random) -> Cocycle:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in self.basis]
        vec = [Fraction(0)] * len(self.targets)
        for b, c in zip(self.basis, coeffs):
            for i, x in enumerate(b):
                if x:
                    vec[i] += c * x
        maps: Dict[Root, Dict[Index, Tuple[Fraction, Index]]] = {}
        for ((root, k), t), val in zip(self.targets.items(), vec):
            maps.setdefault(root, {})[k] = (val, t)
        return Cocycle(self.source, self.target, maps)


def _cocycle_system(source: DegreeOneModule, target: DegreeOneModule,
                    radius: int) -> Tuple[Dict[Tuple[Root, Index], Index], List[Dict[int, int]]]:
    """The graded unknowns on the window, {(root, k): target index}, numbered in
    order, and the integer rows of the cocycle identities over them, Cartan sent
    to zero."""
    system, eps = source.system, source.realization.epsilon_vector
    shift = source.index_shift(target)
    window = source.window(radius)
    winset = set(window)
    targets: Dict[Tuple[Root, Index], Index] = {}
    # X_root moves an index by its epsilon vector, and the target index has the
    # weight of the source index at `shift` from it; no shift, no shared weight
    for root in system.ordered_roots if shift is not None else ():
        step = [e + s for e, s in zip(eps(root), shift)]
        for k in window:
            t = tuple(a + b for a, b in zip(k, step))
            if target.in_basis(t):
                targets[(root, k)] = t
    # every unknown has value 1, so the rows are integers and their denominator drops
    values = {u: (1, t, {i: 1}) for i, (u, t) in enumerate(targets.items())}

    def cval(root, k):
        return values.get((root, k), _ZERO) if k in winset else None

    idents = [_identity(source, target, cval, pair, k)
              for pair in system.realization.root_pairs for k in window]
    # identities that all needed an unknown value checked nothing, which must not pass
    if not any(idents):
        raise CertificationError("every identity left the window; enlarge it")
    return targets, [ident[2] for ident in idents if ident and ident[2]]


def cocycle_space(source: DegreeOneModule, target: DegreeOneModule, radius: int) -> CocycleSpace:
    """All weight-graded cocycles with data on the window, Cartan sent to zero."""
    targets, rows = _cocycle_system(source, target, radius)
    return CocycleSpace(source, target, targets, linalg.nullspace(rows, len(targets)))


def _phi_domain(source: DegreeOneModule, target: DegreeOneModule, radius: int):
    """Weight-matched pairs k -> (column, t) for phi, on the window extended one
    root step; the columns number the k in sorted order."""
    shift = source.index_shift(target)
    if shift is None:
        return {}
    eps, window = source.realization.epsilon_vector, source.window(radius)
    # X_root x(k) != 0 exactly when k + eps(root) is admissible, as `WeylParams._step`
    # is zero exactly on a step out of the admissible set (it raises on a nonzero
    # one); a zero walk stops at k, or at an index whose coordinate sum is off by one
    extended = set(window) | {tuple(a + e for a, e in zip(k, eps(root)))
                              for root in source.system.roots for k in window}
    pairs = {}
    for k in sorted(extended):
        t = tuple(a + b for a, b in zip(k, shift))
        if source.in_basis(k) and target.in_basis(t):
            pairs[k] = (len(pairs), t)
    return pairs


def _coboundary_row(source: DegreeOneModule, target: DegreeOneModule,
                    pairs: Dict[Index, Tuple[int, Index]], root: Root, k: Index,
                    t: Index) -> Dict[int, int]:
    """d(phi)(X_root) x(k) = X_root phi(x(k)) - phi(X_root x(k)) at x(t), as
    {column of pairs: integer} over the values of phi, scaled by the lcm of the
    two modules' scales: the root actions enter as store numerators."""
    scale = math.lcm(source.scale, target.scale)
    row = {}
    if k in pairs:
        col, tk = pairs[k]
        cn, t2 = target.act_root_num(root, tk)
        if cn and t2 == t:
            row[col] = cn * (scale // target.scale)
    cm, k2 = source.act_root_num(root, k)
    if cm and k2 in pairs:
        sparse_add(row, pairs[k2][0], -cm * (scale // source.scale))
    return row


def coboundary_quotient_dim(source: DegreeOneModule, target: DegreeOneModule, radius: int) -> int:
    """Dimension of window cocycles modulo window coboundaries, by rank-nullity:
    the unknowns less the rank of the identity rows, less the rank of the
    coboundary rows.  No basis is built."""
    targets, rows = _cocycle_system(source, target, radius)
    pairs = _phi_domain(source, target, radius)
    coboundaries = [_coboundary_row(source, target, pairs, root, k, t) for (root, k), t in targets.items()]
    return len(targets) - linalg.rank(rows, len(targets)) - linalg.rank(coboundaries, len(pairs))


def is_coboundary(c: Cocycle, radius: int) -> Optional[Dict[Index, Fraction]]:
    """Solve c = boundary(phi) for a weight-preserving phi; None if infeasible.

    phi lives on the window extended by one root step; equations are taken at
    every stored value of c, both sides scaled as the integer coboundary rows.
    """
    pairs = _phi_domain(c.source, c.target, radius)
    scale = math.lcm(c.source.scale, c.target.scale)
    rows: List[Dict[int, int]] = []
    rhs: List[Fraction] = []
    for root, cmap in c.maps.items():
        for k, (cval, t) in cmap.items():
            rows.append(_coboundary_row(c.source, c.target, pairs, root, k, t))
            rhs.append(cval * scale)
    sol = linalg.solve(rows, rhs, len(pairs))
    if sol is None:
        return None
    return {k: x for k, x in zip(pairs, sol) if x}


# ---------------------------------------------------------------------------
# Normal-form self-extension systems for degree-one families
# ---------------------------------------------------------------------------

@dataclass
class ConstraintSystem:
    basis: List[Dict[Index, Fraction]]
    window: int
    labels: List[Index]
    status: str
    reason: str

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json(self) -> Dict:
        return {
            "dimension": self.dimension,
            "window": self.window,
            "status": self.status,
            "reason": self.reason,
            "labels": [list(l) for l in self.labels],
            "basis": [{str(list(k)): format_rational(v) for k, v in b.items()} for b in self.basis],
        }


class _NormalFormAssembler:
    """Values of the cocycle under the inverse-shift normal form.

    The unknowns are one coefficient per orbit label (the index coordinates
    not moved by the distinguished cuspidal root); the cocycle is zero on the
    Cartan, on every root with alpha coordinate <= 0 (on the lowering
    direction and the Levi roots by the normal form, below them by height:
    r = -e_j + (r + e_j), both alpha parts <= 0) and is the b-weighted inverse
    shift on the raising direction.  Its values on the other roots follow
    from bracket decompositions and are not computed: the Ext read needs none.
    """

    def __init__(self, module: DegreeOneModule, radius: int):
        if radius < 1:
            raise CertificationError("window radius must be at least 1 to see a boundary row")
        block = module.cuspidal_block()
        if len(block) != 1:
            raise ValueError("normal-form system needs a single cuspidal simple root")
        self.module = module
        self.system = module.system
        self.alpha = self.system.simple_root(block[0])
        self._i = block[0] - 1  # alpha is the unit vector e_{block[0]}
        self.nalpha = neg_root(self.alpha)
        self.delta = self.system.realization.epsilon_vector(self.alpha)
        # the coordinates X_alpha and X_-alpha read and move: delta's support
        self.moved = frozenset(j for j, d in enumerate(self.delta) if d)
        # an index's orbit label: the coordinates that alpha does not move
        unmoved = [not d for d in self.delta]
        self.label: Dict[Index, Index] = Lookup(lambda k: tuple(compress(k, unmoved)))
        self._values: Dict[Tuple[Root, Index], Value] = Lookup(self._value)
        self.window = module.window(radius)
        self.labelset = {self.label[k] for k in self.window}
        # the rows may stop before the window edge: check the inverse shift on all
        # of it, once per projection onto the moved coordinates.  X_-alpha's walk
        # reads and moves only those, and admissibility is per coordinate, so
        # whether k + delta is admissible and X_-alpha takes it back to a nonzero
        # multiple of x(k) is decided per class (`weylmod.representatives`): the
        # first key to fail is a representative, and the values the read needs
        # are checked on first use
        for k in module.window_representatives(radius, self.moved):
            self.value(self.alpha, k)

    def value(self, root: Root, k: Index) -> Optional[Value]:
        """c(X_root) x(k) under the normal form, as (den, target index, {label:
        numerator}) in lowest terms over a positive denominator; None on a root
        with a positive alpha coordinate other than alpha, whose value is not
        computed."""
        if root == self.alpha:
            return self._values[root, k]
        return None if root[self._i] > 0 else _ZERO

    def _value(self, key: Tuple[Root, Index]) -> Value:
        _, k = key
        k2 = tuple(a + d for a, d in zip(k, self.delta))
        num, back = self.module.act_root_num(self.nalpha, k2)
        if num == 0 or back != k:
            raise CertificationError(f"lowering operator not invertible at {k}")
        # the inverse of the coefficient num / scale
        return _lowest(num, k2, {self.label[k]: self.module.scale})


def _lowest(den: int, t: Optional[Index], row: Dict) -> Value:
    """row at x(t) over den, with den made positive and the factor common to
    den and every entry divided out; the shared zero if row is empty."""
    g = math.gcd(den, *row.values()) * (1 if den > 0 else -1)
    return (den // g, t, {l: v // g for l, v in row.items()}) if row else _ZERO


def _normal_form_system(module: DegreeOneModule, radius: int) -> ConstraintSystem:
    nf = _NormalFormAssembler(module, radius)
    labels = sorted(nf.labelset)
    col = {l: i for i, l in enumerate(labels)}
    echelon = linalg.Echelon(len(labels))
    # the cheap pairs through alpha: those of alpha with a root r where r_alpha < 0,
    # or r_alpha = 0 and r + alpha is no root, whose identities read c(X_alpha) and
    # zeros only (no root of the pair, nor its sum when N != 0, has a positive
    # alpha coordinate other than alpha's), each built alone in table order
    system, alpha = nf.system, nf.alpha
    roots, i = system.ordered_roots, alpha.index(1)
    at = roots.index(alpha)
    pairs = [system.realization.pair(*((r, alpha) if j < at else (alpha, r))) for j, r in enumerate(roots)
             if r[i] < 0 or (r[i] == 0 and add_roots(r, alpha) not in system.roots)]
    # every row constrains the cocycle, so rows of full rank prove a zero kernel:
    # read outward along the alpha orbit (|<k, delta>|) and then in the labels, and
    # stop at full rank.  The read mostly stops in the first steps, so the window
    # is bucketed by step and each bucket sorted only when reached; k breaks every tie
    steps: Dict[int, List[Index]] = {}
    for k in nf.window:
        steps.setdefault(abs(sum(map(mul, k, nf.delta))), []).append(k)

    def orbit_order() -> Iterator[Index]:
        for step in sorted(steps):
            yield from sorted(steps[step], key=lambda k: (max(map(abs, lab := nf.label[k]), default=0),
                                                          sum(map(abs, lab)), k))

    rows = (_identity(module, module, nf.value, pair, k)[2] for k in orbit_order() for pair in pairs)
    # the check follows the add, so no row is built past full rank
    for row in filter(None, rows):
        if all(l in col for l in row):
            echelon.add({col[l]: v for l, v in row.items()})
            if echelon.full:
                break
    # in rank one the pair of alpha and -alpha is the whole bracket table, so a
    # short rank there is the kernel of every identity; in higher rank the other
    # pairs might still raise it, and a kernel these rows leave is not certified
    if not echelon.full and system.rank > 1:
        raise CertificationError(f"the identities through alpha reach rank {len(echelon.rows)} "
                                 f"of {len(labels)} labels; Ext is not certified on this window")
    basis = [{labels[i]: v for i, v in enumerate(b) if v} for b in echelon.nullspace()]
    return ConstraintSystem(basis, radius, labels, "solved", "self pair")


# per family: the shape test of each module, its refusal, and the reason given to
# a pair that is not isomorphic
_FAMILIES = {
    "N": (lambda m: len(m.cuspidal_block()) == 1 and m.spec.minus_ones >= 1 and m.spec.zeros >= 1,
          "interior family required: shape (-1..,z1,z2,0..)",
          "no shared highest-weight support; graded cocycles vanish"),
    "M": (lambda m: m.spec.free == 1 and m.spec.minus_ones == m.nvars - 1,
          "family of shape (-1,..,-1,a) required",
          "weight supports are disjoint; graded cocycles vanish"),
}


def ext_solve(source: DegreeOneModule, target: DegreeOneModule, radius: int = 3) -> ConstraintSystem:
    """Self-extension system of two degree-one modules of one family; a self
    pair passes one module as both.

    Type A ("N") takes the interior families, of shape (-1..,-1, z1, z2, 0..,0)
    with at least one -1 and one 0; type C ("M") the long-root families, of
    shape (-1,..,-1,a).  The pair is isomorphic exactly when the index shift
    exists and is 0 on the -1 entries (for N it is constant on the -1 and 0
    entries; for M the -1 entries never shift).  Any other pair gives an empty
    system with status "support-disjoint": for type C the weight supports are
    disjoint; for type A it means disjoint highest-weight supports, and so
    includes non-isomorphic pairs whose weight supports meet.
    """
    shaped, refusal, disjoint = _FAMILIES[source.kind]
    for m in (source, target):
        m.params.window_ranges(radius)  # refuses a negative or oversized window, read or not
        if not shaped(m):
            raise ValueError(refusal)
    if (source.nvars, source.spec.minus_ones) != (target.nvars, target.spec.minus_ones):
        raise ValueError("families live in different categories")
    shift = source.index_shift(target)
    if shift is None or any(shift[:source.spec.minus_ones]):
        return ConstraintSystem([], radius, [], "support-disjoint", disjoint)
    return _normal_form_system(source, radius)
