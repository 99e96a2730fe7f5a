"""Cocycles, extensions and the linear systems that certify Ext vanishing.

A cocycle between two weight modules assigns to each root vector a
weight-graded linear map; the Cartan subalgebra is always sent to zero,
which is exactly the condition for the glued extension module to stay a
weight module.  Because both modules here have one-dimensional weight
spaces, a graded map is a single rational coefficient per basis vector,
and the cocycle identity over all pairs of root vectors becomes a sparse
exact linear system.  Its rows are built in integers: the root actions
enter as the modules' store numerators over their scales, and every
cocycle value is integers over one denominator.

Two solvers are provided.  `cocycle_space` parametrises every graded
cocycle on a window and `coboundary_quotient_dim` measures the quotient by
coboundaries; `ext_solve_typeA` / `ext_solve_typeC` instead impose the
inverse-shift normal form on the distinguished cuspidal direction of a
degree-one family and reduce self-extension vanishing to a system in the
orbit labels b(k).  Its rows go into one fraction-free `linalg.Echelon`:
first the identities of the pairs through the cuspidal root α over the
whole window, outward along the α orbit and then in the labels, then those
of the other pairs in the same order, until the rank reaches the label
count.  Every row is a constraint the cocycle must satisfy, so rows of full
rank certify a zero kernel whichever identities they came from; the pairs
through α carry most pivots, and every label meets its orbit's centre
early, so full rank comes early.  The reduced echelon form does not depend
on the order of the rows, so an answer of positive dimension reads every
identity and is that of the whole system.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from . import linalg
from .degonemod import DegreeOneModule, build_M, build_N
from .rootsys import Root, RootPair, add_roots, neg_root
from .weylmod import Lookup, format_rational, parse_rational, sparse_add

Index = Tuple[int, ...]


class CertificationError(RuntimeError):
    """The window is too small to assemble a meaningful constraint system."""


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
    """Inverse-lowering cocycle on a cuspidal rank-one module.

    c(H) = c(X^-) = 0 and c(X^+) x(k) = b * (X^-)^{-1} x(k); requires the
    lowering operator to be invertible (nonzero coefficients) on the window.
    """
    b = parse_rational(b)
    system = module.system
    if system.rank != 1:
        raise ValueError("rank-one module expected")
    alpha = system.simple_root(1)
    nalpha = neg_root(alpha)
    plus: Dict[Index, Tuple[Fraction, Index]] = {}
    minus: Dict[Index, Tuple[Fraction, Index]] = {}
    for k in module.window(radius + 1):
        coeff, down = module.act_root(nalpha, k)
        if coeff == 0:
            raise ValueError(f"lowering operator vanishes at {k}: module is not cuspidal")
        # (X^-)^{-1} x(down) = x(k)/coeff
        plus[down] = (b / coeff, k)
        minus[k] = (Fraction(0), down)
    return Cocycle(module, module, {alpha: plus, nalpha: minus})


def cocycle_identities(source: DegreeOneModule, target: DegreeOneModule, cval: Callable,
                       window: Sequence[Index], pairs: Sequence[RootPair]) -> Iterator:
    """The cocycle identity on every root pair and window vector, as integer rows.

    cval(root, k) is c(X_root) x(k) as (den, {target index: {column: numerator}}),
    integers over one positive denominator, or None where c is not known.  For
    each (mu, nu, mu+nu, N, h) in pairs and each k in window this yields
    (mu, nu, k, (den, rows)), where rows maps each target index to the nonzero
    integer coefficients, over den, of
        N c(X_{mu+nu}) - c(X_mu) X_nu + X_nu c(X_mu) + c(X_nu) X_mu - X_mu c(X_nu)
    applied to x(k); the root actions enter as the modules' store numerators
    over their scales.  The last item is None when the identity needs a value
    cval does not know.  Raises CertificationError once exhausted if identities
    exist but every one was None: a check that checked nothing must not pass.
    """
    checked = skipped = False
    for pair in pairs:
        for k in window:
            ident = _identity(source, target, cval, pair, k)
            skipped |= ident is None
            checked |= ident is not None
            yield pair[0], pair[1], k, ident
    if skipped and not checked:
        raise CertificationError("every identity left the window; enlarge it")


def _identity(source: DegreeOneModule, target: DegreeOneModule, cval: Callable,
              pair: RootPair, k: Index) -> Optional[Tuple[int, Dict[Index, Dict]]]:
    """The (den, rows) of `cocycle_identities` for one root pair at x(k), or None."""
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
    den = math.lcm(*(vden * fden for (vden, value), _, fden, _ in terms if value))
    rows: Dict[Index, Dict] = {}
    for (vden, value), f, fden, b in terms:
        f *= den // (vden * fden)
        for t, form in value.items():
            g = f
            if b is not None:
                cn, t = target.act_root_num(b, t)
                if not cn:
                    continue
                g *= cn
            row = rows.setdefault(t, {})
            for col, v in form.items():
                row[col] = row.get(col, 0) + g * v
    return den, {t: r for t, row in rows.items() if (r := {c: v for c, v in row.items() if v})}


# ---------------------------------------------------------------------------
# The full graded cocycle space on a window
# ---------------------------------------------------------------------------

@dataclass
class CocycleSpace:
    source: DegreeOneModule
    target: DegreeOneModule
    unknowns: List[Tuple[Root, Index]]
    targets: Dict[Tuple[Root, Index], Index]
    basis: List[List[Fraction]]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def materialize(self, coeffs: Sequence[Fraction]) -> Cocycle:
        maps: Dict[Root, Dict[Index, Tuple[Fraction, Index]]] = {}
        vec = [Fraction(0)] * len(self.unknowns)
        for b, c in zip(self.basis, coeffs):
            c = Fraction(c)
            for i, x in enumerate(b):
                if x:
                    vec[i] += c * x
        for (root, k), val in zip(self.unknowns, vec):
            t = self.targets[(root, k)]
            maps.setdefault(root, {})[k] = (val, t)
        return Cocycle(self.source, self.target, maps)

    def random_cocycle(self, rng: random.Random) -> Cocycle:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in self.basis]
        return self.materialize(coeffs)


def cocycle_space(source: DegreeOneModule, target: DegreeOneModule, radius: int) -> CocycleSpace:
    """All weight-graded cocycles with data on the window, Cartan sent to zero."""
    system, eps = source.system, source.realization.epsilon_vector
    shift = source.index_shift(target)
    window = source.window(radius)
    if not window:
        raise CertificationError("the window is empty: no cocycle identity to check")
    winset = set(window)
    unknowns: List[Tuple[Root, Index]] = []
    targets: Dict[Tuple[Root, Index], Index] = {}
    # X_root moves an index by its epsilon vector, and the target index has the
    # weight of the source index at `shift` from it; no shift, no shared weight
    for root in system.ordered_roots if shift is not None else ():
        step = [e + s for e, s in zip(eps(root), shift)]
        for k in window:
            t = tuple(a + b for a, b in zip(k, step))
            if target.in_basis(t):
                unknowns.append((root, k))
                targets[(root, k)] = t
    # every unknown has value 1, so the rows are integers and their denominator drops
    values = {u: (1, {targets[u]: {i: 1}}) for i, u in enumerate(unknowns)}
    zero = (1, {})

    def cval(root, k):
        return values.get((root, k), zero) if k in winset else None

    rows: List[Dict] = []
    for _, _, _, ident in cocycle_identities(source, target, cval, window,
                                             system.realization.root_pairs):
        if ident is not None:
            rows.extend(ident[1].values())
    basis = linalg.nullspace(rows, len(unknowns))
    return CocycleSpace(source, target, unknowns, targets, basis)


def _phi_domain(source: DegreeOneModule, target: DegreeOneModule, radius: int):
    """Weight-matched pairs k -> (column, t) for phi, on the window extended one
    root step; the columns number the k in sorted order."""
    shift = source.index_shift(target)
    if shift is None:
        return {}
    system = source.system
    window = list(source.window(radius))
    extended: Set[Index] = set(window)
    for k in window:
        for root in system.roots:
            _, k2 = source.act_root(root, k)
            extended.add(k2)
    pairs = {}
    for k in sorted(extended):
        t = tuple(a + b for a, b in zip(k, shift))
        if source.in_basis(k) and target.in_basis(t):
            pairs[k] = (len(pairs), t)
    return pairs


def _coboundary_row(source: DegreeOneModule, target: DegreeOneModule,
                    pairs: Dict[Index, Tuple[int, Index]], root: Root, k: Index,
                    t: Index) -> Dict[int, Fraction]:
    """d(phi)(X_root) x(k) = X_root phi(x(k)) - phi(X_root x(k)) at x(t), as
    {column of pairs: coefficient} over the values of phi."""
    row = {}
    if k in pairs:
        col, tk = pairs[k]
        cn, t2 = target.act_root(root, tk)
        if cn and t2 == t:
            row[col] = cn
    cm, k2 = source.act_root(root, k)
    if cm and k2 in pairs:
        sparse_add(row, pairs[k2][0], -cm)
    return row


def coboundary_quotient_dim(source: DegreeOneModule, target: DegreeOneModule, radius: int) -> int:
    """Dimension of window cocycles modulo window coboundaries."""
    space = cocycle_space(source, target, radius)
    pairs = _phi_domain(source, target, radius)
    rows = [_coboundary_row(source, target, pairs, root, k, space.targets[(root, k)])
            for root, k in space.unknowns]
    return space.dimension - linalg.rank(rows, len(pairs))


def is_coboundary(c: Cocycle, radius: int) -> Optional[Dict[Index, Fraction]]:
    """Solve c = boundary(phi) for a weight-preserving phi; None if infeasible.

    phi lives on the window extended by one root step; equations are taken at
    every stored value of c.
    """
    pairs = _phi_domain(c.source, c.target, radius)
    rows: List[Dict[int, Fraction]] = []
    rhs: List[Fraction] = []
    for root, cmap in c.maps.items():
        for k, (cval, t) in cmap.items():
            rows.append(_coboundary_row(c.source, c.target, pairs, root, k, t))
            rhs.append(cval)
    sol = linalg.solve(rows, rhs, len(pairs))
    if sol is None:
        return None
    return {k: x for k, x in zip(pairs, sol) if x}


# ---------------------------------------------------------------------------
# Support comparison
# ---------------------------------------------------------------------------

def support_disjoint(mod_a: DegreeOneModule, mod_b: DegreeOneModule) -> bool:
    """Exact disjointness of the weight supports of two modules of one kind and
    rank: they share a weight exactly when an index shift matches their weights
    (`DegreeOneModule.index_shift`, which raises `ValueError` on any other pair)."""
    return mod_a.index_shift(mod_b) is None


# ---------------------------------------------------------------------------
# Normal-form self-extension systems for degree-one families
# ---------------------------------------------------------------------------

@dataclass
class ConstraintSystem:
    dimension: int
    basis: List[Dict[Index, Fraction]]
    window: int
    labels: List[Index]
    status: str
    reason: str = ""

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
    """Rows of the cocycle identity under the inverse-shift normal form.

    The unknowns are one coefficient per orbit label (the index coordinates
    not moved by the distinguished cuspidal root); the cocycle is zero on the
    Cartan, on the Levi complement and on the lowering direction, is the
    b-weighted inverse shift on the raising direction, and extends to every
    other root vector through bracket decompositions.
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
        i = block[0] - 1  # alpha is the unit vector e_{block[0]}
        self.nalpha = neg_root(self.alpha)
        self.delta = self.system.realization.epsilon_vector(self.alpha)
        self.moved = self.system.realization.supports[self.alpha]
        # c(X_root) for every other root with an alpha component comes from
        # the bracket [X_sigma, X_tau] = N X_root of a simple split
        self._splits = {r: self._split(r) for r in self.system.roots
                        if r[i] and r not in (self.alpha, self.nalpha)}
        self._values: Dict[Tuple[Root, Index], Tuple[int, Dict]] = Lookup(self._value)
        # pairs with no alpha component anywhere give identically zero rows
        self.pairs = [p for p in self.system.realization.root_pairs
                      if p[0][i] or p[1][i] or (p[3] and p[2][i])]
        self.window = module.window(radius)
        self.labelset = {self.label(k) for k in self.window}
        # the rows may stop before the window edge: check the inverse shift on all of it
        for k in self.window:
            self.value(self.alpha, k)

    def label(self, k: Index) -> Index:
        return tuple(x for i, x in enumerate(k) if i not in self.moved)

    def _split(self, root: Root) -> Tuple[Root, Root, int]:
        """(sigma, tau, N): sigma = +-(a simple root), sigma + tau = root."""
        positive = sum(root) > 0
        base = root if positive else neg_root(root)
        i = next(j for j in range(self.system.rank)
                 if self.system.is_root(tuple(
                     (base[t] - (1 if t == j else 0)) for t in range(self.system.rank))))
        e = self.system.simple_root(i + 1)
        if positive:
            sigma, tau = e, tuple(a - b for a, b in zip(root, e))
        else:
            sigma, tau = neg_root(e), add_roots(root, e)
        return sigma, tau, self.system.realization.structure_constant(sigma, tau)

    def value(self, root: Root, k: Index) -> Tuple[int, Dict[Index, Dict[Index, int]]]:
        """c(X_root) x(k) under the normal form, as (den, {target index: {label: numerator}})
        in lowest terms over a positive denominator."""
        if root == self.alpha or root in self._splits:
            return self._values[root, k]
        return 1, {}

    def _value(self, key: Tuple[Root, Index]) -> Tuple[int, Dict[Index, Dict[Index, int]]]:
        root, k = key
        if root == self.alpha:
            k2 = tuple(a + d for a, d in zip(k, self.delta))
            num, back = self.module.act_root_num(self.nalpha, k2)
            if num == 0 or back != k:
                raise CertificationError(f"lowering operator not invertible at {k}")
            # the inverse of the coefficient num / scale
            return _lowest(num, {k2: {self.label(k): self.module.scale}})
        # the cocycle identity on (sigma, tau) without its N c(X_root) term, over -N
        sigma, tau, n = self._splits[root]
        den, rest = _identity(self.module, self.module, self.value, (sigma, tau, root, 0, None), k)
        return _lowest(-den * n, rest)


def _lowest(den: int, rows: Dict[Index, Dict]) -> Tuple[int, Dict[Index, Dict]]:
    """rows over den, with den made positive and the factor common to den and
    every entry divided out."""
    g = math.gcd(den, *(v for row in rows.values() for v in row.values())) * (1 if den > 0 else -1)
    return den // g, {t: {l: v // g for l, v in row.items()} for t, row in rows.items()}


def _normal_form_system(module: DegreeOneModule, radius: int, reason: str) -> ConstraintSystem:
    nf = _NormalFormAssembler(module, radius)
    labels = sorted(nf.labelset)
    col = {l: i for i, l in enumerate(labels)}
    echelon = linalg.Echelon(len(labels))
    dropped = False
    # every row constrains the cocycle, so rows of full rank prove a zero kernel
    # whichever identities they came from: read the pairs through alpha first, as
    # they hold most pivots, then the rest, each outward along the alpha orbit
    # (|<k, delta>|) and then in the labels, and stop at full rank
    window = sorted(nf.window, key=lambda k: (abs(sum(x * d for x, d in zip(k, nf.delta))),
                                              max(map(abs, lab := nf.label(k)), default=0),
                                              sum(map(abs, lab)), k))
    through = [p for p in nf.pairs if nf.alpha in p[:2]]
    rest = [p for p in nf.pairs if nf.alpha not in p[:2]]
    rows = (row for pairs in (through, rest) for k in window for pair in pairs
            for row in _identity(module, module, nf.value, pair, k)[1].values())
    for row in rows:
        if echelon.full:
            break
        if all(l in col for l in row):
            echelon.add({col[l]: v for l, v in row.items()})
        else:
            dropped = True
    if not echelon.rows and dropped:
        raise CertificationError("every identity left the window; enlarge it")
    null = echelon.nullspace()
    basis = [{labels[i]: v for i, v in enumerate(b) if v} for b in null]
    return ConstraintSystem(len(null), basis, radius, labels, "solved", reason)


def ext_solve_typeA(params_a: Sequence, params_b: Sequence, radius: int = 3) -> ConstraintSystem:
    """Self-extension system for interior type A degree-one families.

    Both parameter vectors must have the shape (-1..,-1, z1, z2, 0..,0) with
    at least one -1 and one 0.  Non-isomorphic pairs are dispatched by the
    highest-weight support argument and give an empty system with status
    "support-disjoint", which here means disjoint highest-weight supports: it
    includes non-isomorphic pairs whose weight supports meet.
    """
    mod_a = build_N(params_a)
    mod_b = build_N(params_b)
    for m in (mod_a, mod_b):
        m.params.window_ranges(radius)  # refuses an oversized window, read or not
        if len(m.cuspidal_block()) != 1 or m.spec.minus_ones < 1 or m.spec.zeros < 1:
            raise ValueError("interior family required: shape (-1..,z1,z2,0..)")
    if (mod_a.nvars, mod_a.spec.minus_ones) != (mod_b.nvars, mod_b.spec.minus_ones):
        raise ValueError("families live in different categories")
    # isomorphic exactly when the index shift leaves the -1 and 0 entries, on
    # which it is constant
    shift = mod_a.index_shift(mod_b)
    if shift is None or shift[0]:
        return ConstraintSystem(0, [], radius, [], "support-disjoint",
                                "no shared highest-weight support; graded cocycles vanish")
    return _normal_form_system(mod_a, radius, "self pair")


def ext_solve_typeC(params_a: Sequence, params_b: Sequence, radius: int = 3) -> ConstraintSystem:
    """Self-extension system for the long-root type C degree-one families."""
    mod_a = build_M(params_a)
    mod_b = build_M(params_b)
    for m in (mod_a, mod_b):
        m.params.window_ranges(radius)  # refuses an oversized window, read or not
        if m.spec.free != 1 or m.spec.minus_ones != m.nvars - 1:
            raise ValueError("family of shape (-1,..,-1,a) required")
    if mod_a.nvars != mod_b.nvars:
        raise ValueError("families live in different categories")
    if support_disjoint(mod_a, mod_b):
        return ConstraintSystem(0, [], radius, [], "support-disjoint",
                                "weight supports are disjoint; graded cocycles vanish")
    return _normal_form_system(mod_a, radius, "self pair")
