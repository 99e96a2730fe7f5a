"""Category membership checks and the classification oracle.

`classify` decides, for each simple type and each subset theta of the simple
roots, whether the associated category of weight modules is trivial, admits a
nontrivial family of simple objects (returned as an explicit degree-one
family descriptor), or falls in the small list of undecided cases, and
records degree-one / semisimplicity flags.

`check_membership` certifies the three defining conditions for a concrete
degree-one module on a finite window: cuspidality of the Levi block roots,
decomposition into highest-weight families over the complementary Levi, and
local nilpotency of the remaining positive root vectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .degonemod import DegreeOneModule, build_M, build_N
from .rootsys import CartanType, Root, RootSystem, center_basis
from .weylmod import parse_rational

TRIVIAL = "TRIVIAL"
EXCLUDED = "EXCLUDED"
NONTRIVIAL = "NONTRIVIAL"
HIGHEST_WEIGHT = "HIGHEST_WEIGHT"
CUSPIDAL = "CUSPIDAL"


@dataclass(frozen=True)
class FamilyDescriptor:
    """Shape of a degree-one family: kind N/M with block sizes."""

    kind: str          # "N" or "M"
    minus_ones: int
    free: int          # number of non-integer parameters
    zeros: int         # trailing zeros (always 0 for kind M)

    def instantiate(self, params: Sequence) -> DegreeOneModule:
        params = [parse_rational(p) for p in params]
        if len(params) != self.free:
            raise ValueError(f"family needs {self.free} non-integer parameters")
        vec = [Fraction(-1)] * self.minus_ones + list(params) + [Fraction(0)] * self.zeros
        return build_N(vec) if self.kind == "N" else build_M(vec)

    def to_json(self) -> Dict:
        return {"kind": self.kind, "minus_ones": self.minus_ones,
                "free": self.free, "zeros": self.zeros}


@dataclass(frozen=True)
class Verdict:
    kind: str
    family: Optional[FamilyDescriptor]
    degree1: Optional[bool]
    semisimple: Optional[bool]
    reason: str = ""

    def to_json(self) -> Dict:
        tri = {True: "true", False: "false", None: "unknown"}
        return {
            "kind": self.kind,
            "family": self.family.to_json() if self.family else None,
            "degree1": tri[self.degree1],
            "semisimple": tri[self.semisimple],
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ThetaSpec:
    system: RootSystem
    S: FrozenSet[int]
    theta: FrozenSet[int]

    def __post_init__(self):
        full = set(range(1, self.system.rank + 1))
        if not (set(self.theta) <= set(self.S) <= full):
            raise ValueError("need theta inside S inside the simple roots")


def _excluded(ct: CartanType, comp: FrozenSet[int]) -> bool:
    n = ct.rank
    if ct.family == "B":
        return comp == frozenset({1})
    if ct.family == "D":
        return comp in (frozenset({1}), frozenset({n - 1}), frozenset({n}))
    if ct.family == "E" and n == 6:
        return comp in (frozenset({1}), frozenset({6}))
    if ct.family == "E" and n == 7:
        return comp == frozenset({7})
    return False


def classify(system: RootSystem, theta: Iterable[int]) -> Verdict:
    """Decide the category attached to theta (simple-root indices, 1-based)."""
    n = system.rank
    ct = system.cartan_type
    theta = frozenset(theta)
    if not theta <= set(range(1, n + 1)):
        raise ValueError(f"theta {sorted(theta)} is not a subset of the simple roots of {ct}")
    full = frozenset(range(1, n + 1))
    if theta == full:
        return Verdict(HIGHEST_WEIGHT, None, None, True,
                       "direct sums of simple highest-weight modules")
    if not theta:
        if ct.family == "A":
            return Verdict(CUSPIDAL, None, None, False,
                           "cuspidal category; nonsplit self-extensions exist in type A")
        if ct.family == "C":
            return Verdict(CUSPIDAL, None, None, True, "cuspidal category is semisimple in type C")
        return Verdict(CUSPIDAL, None, None, True, "no cuspidal modules outside types A and C")
    comp = full - theta
    if _excluded(ct, comp):
        return Verdict(EXCLUDED, None, None, None, "not decided for this pair")
    comps = system.connected_components(comp)
    connected = len(comps) == 1
    if ct.family == "A" and connected:
        lo, hi = min(comp), max(comp)
        s = hi - lo + 1
        fam = FamilyDescriptor("N", lo - 1, s + 1, n + 1 - lo - s)
        extreme = s == 1 and n > 2 and (lo == 1 or lo == n)
        if extreme:
            return Verdict(NONTRIVIAL, fam, False, None,
                           "extreme single-root block: simples of higher degree exist")
        return Verdict(NONTRIVIAL, fam, True, True, "connected type A block")
    if ct.family == "C" and connected and n in comp:
        lo = min(comp)
        if comp == frozenset(range(lo, n + 1)):
            fam = FamilyDescriptor("M", lo - 1, n - lo + 1, 0)
            return Verdict(NONTRIVIAL, fam, True, True,
                           "long-root block" if lo == n else "trailing type C block")
    return Verdict(TRIVIAL, None, None, True, "only the zero module")


def infinite_dim_criterion(spec: ThetaSpec) -> bool:
    """True iff some simple root of S minus theta plus a theta root is a root."""
    system = spec.system
    for a in spec.S - spec.theta:
        ra = system.simple_root(a)
        for b in spec.theta:
            rb = system.simple_root(b)
            if system.is_root(tuple(x + y for x, y in zip(ra, rb))):
                return True
    return False


# ---------------------------------------------------------------------------
# Window-scale membership certification
# ---------------------------------------------------------------------------

@dataclass
class MembershipReport:
    cuspidality_ok: bool
    restriction_ok: bool
    finiteness_ok: bool
    certified: bool
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.certified and self.cuspidality_ok and self.restriction_ok and self.finiteness_ok


def check_membership(module: DegreeOneModule, theta: Iterable[int],
                     S: Optional[Iterable[int]] = None, radius: int = 3,
                     step_cap: Optional[int] = None) -> MembershipReport:
    """Certify the three category conditions for a module on a window.

    Condition 1: every root vector supported on S minus theta acts with a
    nonzero coefficient on each window vector.  Condition 2: every window
    vector ascends along theta raising operators to a highest-weight vector,
    and no highest-weight vector lies in the cone of another with the same
    central character.  Condition 3: positive root vectors outside the span
    of S act locally nilpotently within the step cap.
    """
    system = module.system
    n = system.rank
    theta = frozenset(theta)
    S = frozenset(S) if S is not None else frozenset(range(1, n + 1))
    if not theta <= S:
        raise ValueError("theta must be contained in S")
    window = module.window(radius)
    if not window:
        raise ValueError("empty window: radius too small for these parameters")
    cap = step_cap if step_cap is not None else 4 * radius * (n + 1) + 8
    details: Dict[str, object] = {}
    certified = True

    cusp_roots = [r for r in system.span_closure(S - theta)]
    cusp_ok = True
    witnesses = []
    for root in cusp_roots:
        for k in window:
            coeff, _ = module.act_root(root, k)
            if coeff == 0:
                cusp_ok = False
                witnesses.append((root, k))
                break
    details["cuspidality_witnesses"] = witnesses

    theta_simples = sorted(theta)
    ascents_failed = []
    broken_descents = []
    hw_reached: Set[Tuple[int, ...]] = set()
    for k in window:
        cur = k
        steps = 0
        while steps <= cap:
            moved = False
            for b in theta_simples:
                root = system.simple_root(b)
                coeff, target = module.act_root(root, cur)
                if coeff != 0:
                    # the certificate needs the downward edge too: the vector
                    # must be recovered from above by the lowering operator
                    dcoeff, back = module.act_root(tuple(-x for x in root), target)
                    if dcoeff == 0 or back != cur:
                        broken_descents.append((cur, b))
                    cur = target
                    moved = True
                    steps += 1
                    break
            if not moved:
                break
        if steps > cap:
            ascents_failed.append(k)
            certified = False
        else:
            hw_reached.add(cur)
    hw_vectors = [k for k in hw_reached if module.is_hw(k, theta)]
    restriction_ok = (not ascents_failed and not broken_descents
                      and len(hw_vectors) == len(hw_reached))
    details["broken_descents"] = broken_descents

    # no highest-weight vector may dominate another with equal central character
    center = center_basis(system, [i for i in range(1, n + 1) if i not in theta])
    # partial order: weight difference a nonnegative combination of theta simples
    theta_idx = [b - 1 for b in sorted(theta)]
    dominated = []
    for v in hw_vectors:
        wv = module.weight_of(v)
        zv = [sum((a * b for a, b in zip(z, wv)), Fraction(0)) for z in center]
        for w in hw_vectors:
            if w == v:
                continue
            ww = module.weight_of(w)
            zw = [sum((a * b for a, b in zip(z, ww)), Fraction(0)) for z in center]
            if zv != zw:
                continue
            diff = [a - b for a, b in zip(wv, ww)]
            coeffs = _theta_cone_coefficients(system, diff, theta_idx)
            if coeffs is not None and all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs):
                dominated.append((v, w))
    if dominated:
        restriction_ok = False
    details["hw_count"] = len(hw_vectors)
    details["dominated_pairs"] = dominated

    fin_roots = [r for r in system.positive_set if r not in system.span_closure(S)]
    fin_ok = True
    fin_witnesses = []
    for root in fin_roots:
        for k in window:
            cur = k
            alive = True
            for _ in range(cap):
                coeff, target = module.act_root(root, cur)
                if coeff == 0:
                    alive = False
                    break
                cur = target
            if alive:
                fin_ok = False
                fin_witnesses.append((root, k))
                break
    details["nilpotency_witnesses"] = fin_witnesses

    return MembershipReport(cusp_ok, restriction_ok, fin_ok, certified, details)


def _theta_cone_coefficients(system: RootSystem, weight_diff: Sequence[Fraction],
                             theta_idx: Sequence[int]) -> Optional[List[Fraction]]:
    """Coefficients of a coroot-values difference over the theta simple roots."""
    from . import linalg
    mat = [[Fraction(system.cartan[j][i]) for j in theta_idx] for i in range(system.rank)]
    return linalg.solve(mat, [Fraction(x) for x in weight_diff])


def cuspidal_nilpotent_partition(module: DegreeOneModule, radius: int = 3):
    """Sort roots into injective / locally nilpotent by window evidence."""
    system = module.system
    window = module.window(radius)
    cap = 4 * radius * (system.rank + 1) + 8
    injective: Set[Root] = set()
    nilpotent: Set[Root] = set()
    undecided: Set[Root] = set()
    if not window:
        return injective, nilpotent, set(system.roots)
    for root in system.roots:
        coeffs = [module.act_root(root, k)[0] for k in window]
        if all(c != 0 for c in coeffs):
            injective.add(root)
            continue
        dies_everywhere = True
        for k in window:
            cur = k
            alive = True
            for _ in range(cap):
                c, cur2 = module.act_root(root, cur)
                if c == 0:
                    alive = False
                    break
                cur = cur2
            if alive:
                dies_everywhere = False
                break
        (nilpotent if dies_everywhere else undecided).add(root)
    return injective, nilpotent, undecided
