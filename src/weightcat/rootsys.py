"""Root systems of the simple Lie algebras and concrete Chevalley-type bases.

Roots are stored as integer coordinate vectors over the simple basis
e_1..e_n (Bourbaki numbering).  The full root set is generated from the
Cartan matrix by raising simple reflections on its first read, so no root
table is ever hard-coded and a caller that reads only the rank and the
Cartan matrix never generates it.

For types A and C the root vectors are realized as concrete elements of a
Weyl algebra (type A through the map sending the elementary matrix E_ij to
q_i p_j, type C through the quadratic elements q_i q_j, q_i p_j, p_i p_j),
each one normal-ordered quadratic monomial.  Structure constants come from
the single contractions of two monomials, in integers, and the coroot
coordinates of [X_nu, X_-nu] from the epsilon vectors, checked against the
contraction; nothing is tabulated.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from . import linalg
from .weylmod import Lookup, reach

Root = Tuple[int, ...]
RootPair = Tuple[Root, Root, Root, int, Optional[Tuple[int, ...]]]

# the classical ranks stop at 100: the roots cost about rank^4 to generate (about 5 s
# for B100-D100 on a 2-core Xeon), and a far larger rank exhausts memory on its Cartan matrix
_RANK_BOUNDS = {
    "A": (1, 100),
    "B": (2, 100),
    # rank one is admitted in type C so that a single long simple root can
    # carry its own quadratic realization when a block is restricted
    "C": (1, 100),
    # D3 is A3, which serves that algebra with its own numbering
    "D": (4, 100),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class RealizationUnavailableError(ValueError):
    """No concrete bracket realization exists for this Cartan type."""


@dataclass(frozen=True, order=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[self.family]
        if not lo <= self.rank <= hi:
            raise ValueError(f"rank {self.rank} out of range for family {self.family}")

    @classmethod
    def parse(cls, s: str) -> "CartanType":
        m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", s)
        if not m:
            raise ValueError(f"cannot parse Cartan type from {s!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(ct: CartanType) -> Tuple[Tuple[int, ...], ...]:
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> in Bourbaki numbering."""
    n = ct.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j):
        a[i][j] = a[j][i] = -1

    fam = ct.family
    if fam in ("A", "B", "C", "F"):
        for i in range(n - 1):
            join(i, i + 1)
        if fam == "B":
            a[n - 2][n - 1] = -2  # alpha_{n-1} long, alpha_n short
        elif fam == "C" and n >= 2:
            a[n - 1][n - 2] = -2  # alpha_n long
        elif fam == "F":
            a[1][2] = -2  # alpha_2 long, alpha_3 short
    elif fam == "D":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 3, n - 1)
    elif fam == "E":
        # chain 1-3-4-5-6(-7)(-8) plus the branch 2-4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for u, v in zip(chain, chain[1:]):
            join(u, v)
        join(1, 3)
    elif fam == "G":
        a[0][1] = -1
        a[1][0] = -3
    return tuple(tuple(row) for row in a)


def _expected_root_count(ct: CartanType) -> int:
    n = ct.rank
    if ct.family == "A":
        return n * (n + 1)
    if ct.family in ("B", "C"):
        return 2 * n * n
    if ct.family == "D":
        return 2 * n * (n - 1)
    if ct.family == "E":
        return {6: 72, 7: 126, 8: 240}[n]
    return 48 if ct.family == "F" else 12


def add_roots(x: Root, y: Root) -> Root:
    return tuple(a + b for a, b in zip(x, y))


def neg_root(x: Root) -> Root:
    return tuple(-a for a in x)


class RootSystem:
    """Roots, simple basis, and pairing data for one Cartan type."""

    def __init__(self, ct: CartanType):
        self.cartan_type = ct
        self.rank = ct.rank
        self.cartan = cartan_matrix(ct)
        self.simple: List[Root] = [tuple(1 if j == i else 0 for j in range(ct.rank))
                                   for i in range(ct.rank)]

    @cached_property
    def ordered_roots(self) -> List[Root]:
        """Every root once, in (height, root) order, generated and counted on first read."""
        positive = self._generate_positive()
        roots = sorted(positive | set(map(neg_root, positive)), key=lambda r: (sum(r), r))
        if len(roots) != _expected_root_count(self.cartan_type):
            raise AssertionError(f"root generation for {self.cartan_type} produced {len(roots)} roots")
        return roots

    @cached_property
    def positive(self) -> List[Root]:
        return [r for r in self.ordered_roots if sum(r) > 0]

    @cached_property
    def positive_set(self) -> FrozenSet[Root]:
        return frozenset(self.positive)

    @cached_property
    def roots(self) -> FrozenSet[Root]:
        return frozenset(self.ordered_roots)

    def _generate_positive(self) -> Set[Root]:
        """The positive roots: all that the simple roots reach by raising simple reflections.

        A positive root beta that is not simple has <beta, alpha_i^vee> > 0 for some i,
        and s_i(beta) is then a positive root of lower height that pairs negatively with
        alpha_i^vee (Humphreys, GTM 9, 10.2-10.3).  So by induction on height every
        positive root is reached from a simple root by steps gamma -> s_i(gamma) =
        gamma - <gamma, alpha_i^vee> alpha_i with a negative pairing, and each step stays
        positive, as s_i permutes the positive roots other than alpha_i, whose own
        pairing is 2.  None stands below every simple root.
        """
        def raise_(beta):
            if beta is None:
                return self.simple
            return [beta[:i] + (beta[i] - c,) + beta[i + 1:]
                    for i in range(self.rank) for c in (self.pairing(beta, i),) if c < 0]

        return reach(None, raise_) - {None}

    def pairing(self, root: Root, i: int) -> int:
        """Value of the root on the i-th simple coroot."""
        return sum(c * self.cartan[j][i] for j, c in enumerate(root) if c)

    def simple_root(self, i: int) -> Root:
        """Simple root e_i, 1-based."""
        return self.simple[i - 1]

    def span_closure(self, simple_indices: Iterable[int]) -> FrozenSet[Root]:
        """All roots supported on the given simple roots (1-based indices)."""
        allowed = set(simple_indices)
        out = set()
        for r in self.roots:
            if all(c == 0 or (j + 1) in allowed for j, c in enumerate(r)):
                out.add(r)
        return frozenset(out)

    def connected_components(self, simple_indices: Iterable[int]) -> List[FrozenSet[int]]:
        """Components of the Dynkin diagram restricted to the given 1-based simple indices."""
        nodes = set(simple_indices)
        comps: List[FrozenSet[int]] = []
        for s in sorted(nodes):
            if not any(s in comp for comp in comps):
                comps.append(frozenset(reach(s, lambda u: [v for v in nodes if self.cartan[u - 1][v - 1]])))
        return comps

    @cached_property
    def realization(self) -> "Realization":
        return Realization(self)

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


def build_root_system(name: str) -> RootSystem:
    return RootSystem(CartanType.parse(name))


# ---------------------------------------------------------------------------
# Concrete realizations (types A and C)
# ---------------------------------------------------------------------------

class Realization:
    """Weyl-algebra realization of the root vectors and its integer bracket table.

    Type A_n lives on N = n+1 generator pairs with X_{eps_i - eps_j} = q_i p_j;
    type C_n lives on N = n generator pairs with the symmetric quadratics.
    X_root is kept as (qexp, pexp, num) for num/2 q^qexp p^pexp, and the
    coroot H_{e_i} is q_i p_i - q_{i+1} p_{i+1}, or q_n p_n + 1/2 for the long
    root of C_n; brackets are read from single contractions in integers.
    """

    def __init__(self, system: RootSystem):
        fam = system.cartan_type.family
        if fam not in ("A", "C"):
            raise RealizationUnavailableError(
                f"no bracket realization for type {system.cartan_type}; only A and C are realized")
        self.system = system
        self.family = fam
        self.nvars = system.rank + 1 if fam == "A" else system.rank
        self._monomials: Dict[Root, Tuple[Tuple[int, ...], Tuple[int, ...], int]] = Lookup(self._monomial)
        self._terms: Dict[Root, Tuple[Tuple[int, ...], int]] = Lookup(self._term)
        # 2 H_{e_i} as {letters: integer}: 2 q_i p_i - 2 q_{i+1} p_{i+1}, and
        # 2 q_n p_n + 1 for the long root of C_n
        N, n = self.nvars, system.rank
        self._coroots2 = [{(i, N + i): 2, (i + 1, N + i + 1): -2} if fam == "A" or i < n - 1
                          else {(i, N + i): 2, (): 1} for i in range(n)]
        self._simple_norms = [sum(x * x for x in self.epsilon_vector(e)) for e in system.simple]
        self._nconst: Dict[Tuple[Root, Root], int] = Lookup(self._structure_constant)
        self._cartan_coeffs: Dict[Root, Tuple[int, ...]] = Lookup(self._cartan_coefficients)

    # -- epsilon coordinates -------------------------------------------------
    def epsilon_vector(self, root: Root) -> Tuple[int, ...]:
        v = [0] * self.nvars
        for t, c in enumerate(root):
            if self.family == "A" or t < self.system.rank - 1:  # eps_t - eps_{t+1}
                v[t] += c
                v[t + 1] -= c
            else:  # the long root 2 eps_n of C_n
                v[t] += 2 * c
        return tuple(v)

    # -- realized elements ----------------------------------------------------
    def monomial(self, root: Root) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
        """(qexp, pexp, num) with X_root = num/2 q^qexp p^pexp."""
        return self._monomials[tuple(root)]

    def _monomial(self, root: Root) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
        if root not in self.system.roots:
            raise ValueError(f"{root} is not a root of {self.system.cartan_type}")
        # q_i for +eps_i, p_i for -eps_i: q_i p_j, q_i q_j, q_i^2/2, -p_i p_j, -p_i^2/2
        eps = self.epsilon_vector(root)
        qexp, pexp = tuple(max(v, 0) for v in eps), tuple(max(-v, 0) for v in eps)
        return qexp, pexp, (-1 if sum(eps) < 0 else 1) * (2 // max(qexp + pexp))

    def _term(self, root: Root) -> Tuple[Tuple[int, ...], int]:
        """X_root as (letters, num): the sorted letters of q^qexp p^pexp, q_i coded
        i and p_i coded N + i on N generator pairs, for the contractions."""
        qexp, pexp, num = self.monomial(root)
        return tuple(i for i, e in enumerate(qexp + pexp) for _ in range(e)), num

    @cached_property
    def letter_kinds(self) -> Dict[Root, Tuple[FrozenSet[int], FrozenSet[int]]]:
        """{root: (the generator pairs X_root has q letters on, those it has p letters on)}."""
        return {r: tuple(frozenset(i for i, e in enumerate(exps) if e) for exps in self.monomial(r)[:2])
                for r in self.system.ordered_roots}

    @cached_property
    def supports(self) -> Dict[Root, FrozenSet[int]]:
        """{root: the generator pairs X_root has letters on, all its walk reads and moves}."""
        return {r: q | p for r, (q, p) in self.letter_kinds.items()}

    # -- structure constants ----------------------------------------------------
    def _contract(self, mu: Root, nu: Root) -> Dict[Tuple[int, ...], int]:
        """4 [X_mu, X_nu] as {letters: integer}, from X = num/2 AB for letters A, B:
        [AB, CD] = [B,C] AD + [B,D] AC + [A,C] DB + [A,D] CB, with [p_i, q_i] = 1
        and each product normal-ordered by p_i q_i = q_i p_i + 1 (letters ())."""
        ((a, b), na), ((c, d), nb), N = self._terms[mu], self._terms[nu], self.nvars
        out: Dict[Tuple[int, ...], int] = {}
        for x, y, u, w in ((b, c, a, d), (b, d, a, c), (a, c, d, b), (a, d, c, b)):
            sign = (x - y == N) - (y - x == N)
            if sign:
                sign *= na * nb
                key = (u, w) if u <= w else (w, u)
                out[key] = out.get(key, 0) + sign
                if u - w == N:
                    out[()] = out.get((), 0) + sign
        return {key: v for key, v in out.items() if v}

    def structure_constant(self, mu: Root, nu: Root) -> int:
        """The integer N with [X_mu, X_nu] = N * X_{mu+nu}, nonzero when mu+nu is a
        root and zero when it is not."""
        return self._nconst[tuple(mu), tuple(nu)]

    def _structure_constant(self, pair: Tuple[Root, Root]) -> int:
        mu, nu = pair
        s = add_roots(mu, nu)
        br = self._contract(mu, nu)
        if s in self.system.roots:
            # 4 [X_mu, X_nu] = 4 N X_s = 2 N num q^qexp p^pexp, and N != 0
            letters, num = self._terms[s]
            v = br.pop(letters, 0)
            n, r = divmod(v, 2 * num)
            if br or not v or r:
                raise AssertionError(f"bracket of {mu},{nu} not a nonzero integer multiple of X_{s}")
            return n
        if br and any(s):
            raise AssertionError(f"bracket of {mu},{nu} nonzero but {s} is not a root")
        return 0

    def cartan_coefficients(self, nu: Root) -> Tuple[int, ...]:
        """The integers c with [X_nu, X_{-nu}] = sum_i c_i H_{e_i}."""
        return self._cartan_coeffs[tuple(nu)]

    def _cartan_coefficients(self, nu: Root) -> Tuple[int, ...]:
        # the coroot coordinates c_i = nu_i |alpha_i|^2 / |nu|^2, checked in
        # integers: 4 |nu|^2 [X_nu, X_-nu] == 2 sum_i nu_i |alpha_i|^2 (2 H_{e_i})
        eps = self.epsilon_vector(nu)
        norm = sum(x * x for x in eps)
        want: Dict[Tuple[int, ...], int] = {}
        for x, a2, h in zip(nu, self._simple_norms, self._coroots2):
            for key, v in h.items():
                want[key] = want.get(key, 0) + 2 * x * a2 * v
        got = {key: norm * v for key, v in self._contract(nu, neg_root(nu)).items()}
        if got != {key: v for key, v in want.items() if v}:
            raise AssertionError(f"[X_{nu}, X_{neg_root(nu)}] is not the coroot of {nu}")
        if any(x * a2 % norm for x, a2 in zip(nu, self._simple_norms)):
            raise AssertionError(f"the coroot of {nu} has coordinates that are not integers")
        return tuple(x * a2 // norm for x, a2 in zip(nu, self._simple_norms))

    # -- the bracket table ------------------------------------------------------
    @cached_property
    def root_pairs(self) -> List[RootPair]:
        """Every root pair mu < nu in (height, root) order as (mu, nu, mu+nu, N, h).

        [X_mu, X_nu] = N X_{mu+nu}, with N = 0 when mu+nu is not a root, and
        h is None except for nu = -mu, where [X_mu, X_nu] = sum_i h_i H_{e_i}.
        """
        roots = self.system.ordered_roots
        return [self.pair(mu, nu) for i, mu in enumerate(roots) for nu in roots[i + 1:]]

    def pair(self, mu: Root, nu: Root) -> RootPair:
        """The entry (mu, nu, mu+nu, N, h) of `root_pairs` for two roots."""
        s = add_roots(mu, nu)
        n = self.structure_constant(mu, nu) if s in self.system.roots else 0
        h = None if any(s) else self.cartan_coefficients(mu)
        return mu, nu, s, n, h


# ---------------------------------------------------------------------------
# Root subsets and their predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSubset:
    system: RootSystem
    members: FrozenSet[Root]

    @classmethod
    def of(cls, system: RootSystem, roots: Iterable[Sequence[int]]) -> "RootSubset":
        mem = frozenset(tuple(r) for r in roots)
        bad = mem - system.roots
        if bad:
            raise ValueError(f"not roots of {system.cartan_type}: {sorted(bad)}")
        return cls(system, mem)

    @classmethod
    def generated_by_simples(cls, system: RootSystem, simple_indices: Iterable[int]) -> "RootSubset":
        return cls(system, system.span_closure(simple_indices))

    def lattice_rank(self) -> int:
        # integer vectors generate a lattice of the rank of their rational span
        return linalg.rank(sorted(self.members), self.system.rank)


@dataclass(frozen=True)
class SubsetFlags:
    symmetric: bool
    closed: bool
    parabolic: bool
    levi: bool
    levi_part: FrozenSet[Root]
    unipotent_part: FrozenSet[Root]


def classify_subset(subset: RootSubset) -> SubsetFlags:
    system, S = subset.system, subset.members
    neg = frozenset(neg_root(r) for r in S)
    symmetric = S == neg
    closed = True
    for x in S:
        for y in S:
            s = add_roots(x, y)
            if s in system.roots and s not in S:
                closed = False
                break
        if not closed:
            break
    parabolic = closed and (S | neg) == system.roots
    levi = closed and symmetric
    levi_part = S & neg
    return SubsetFlags(symmetric, closed, parabolic, levi, levi_part, S - levi_part)


def lattice_disjoint(S: RootSubset, T: RootSubset) -> bool:
    """True iff the lattices generated by S and T meet only in 0."""
    if S.system is not T.system and S.system.cartan_type != T.system.cartan_type:
        raise ValueError("subsets of different root systems")
    union = sorted(S.members | T.members)
    return S.lattice_rank() + T.lattice_rank() == linalg.rank(union, S.system.rank)


def levi_decomposition(system: RootSystem, theta: Iterable[int]):
    """Split the root set for the standard parabolic attached to theta (1-based).

    Returns (levi_roots, n_plus, n_minus): the roots of the Levi factor and
    of the positive/negative nilradicals.
    """
    theta = frozenset(theta)
    span = system.span_closure(theta)
    n_plus = frozenset(r for r in system.positive_set if r not in span)
    return span, n_plus, frozenset(neg_root(r) for r in n_plus)


def center_basis(system: RootSystem, block: Iterable[int]) -> List[Tuple[Fraction, ...]]:
    """Rational basis of {H in h : alpha(H) = 0 for all simple alpha in block}.

    Each vector gives coefficients over the simple coroots H_{e_1}..H_{e_n};
    together with h itself this is the center of the Levi subalgebra on the
    block.  Vectors are scaled to primitive integer form.
    """
    block = sorted(set(block))
    n = system.rank
    rows = [[Fraction(system.cartan[b - 1][i]) for i in range(n)] for b in block]
    return [tuple(x * d for x in v) for v in linalg.nullspace(rows, n)
            for d in [math.lcm(*(x.denominator for x in v))]]
