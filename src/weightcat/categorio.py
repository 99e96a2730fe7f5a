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

from .degonemod import DegreeOneModule, Index, build_module
from .rootsys import CartanType, Root, RootSystem, build_root_system, neg_root
from .weylmod import Lookup, parse_rational

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
        return build_module(self.kind, vec)

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
    if str(ct) in ("C1", "B2"):
        # C1 is A1, and B2 is C2 with nodes 1 and 2 swapped
        return classify(build_root_system("A1" if n == 1 else "C2"), {n + 1 - i for i in theta})
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


def _step_cap(radius: int, rank: int) -> int:
    """Number of steps a chain walk may take on a window of this radius."""
    return 4 * radius * (rank + 1) + 8


def _witnesses(module: DegreeOneModule, roots: Iterable[Root], radius: int,
               cap: int, survive: bool) -> List[Tuple[Root, Index]]:
    """(root, first window vector k) for every root whose chain from x(k)
    survives cap steps (survive=True) or dies within them (survive=False),
    tried once per projection onto the root's letters, the classes the
    bracket check reads (`DegreeOneModule.window_representatives`)."""
    supports, out = module.realization.supports, []
    for root in roots:
        k = next((k for k in module.window_representatives(radius, supports[root])
                  if _survives(module, root, k, cap) == survive), None)
        if k is not None:
            out.append((root, k))
    return out


def _survives(module: DegreeOneModule, root: Root, k: Index, steps: int) -> bool:
    """Whether steps successive actions of X_root from x(k) are all nonzero."""
    for _ in range(steps):
        num, k = module.act_root_num(root, k)
        if not num:
            return False
    return True


def check_membership(module: DegreeOneModule, theta: Iterable[int],
                     S: Optional[Iterable[int]] = None, radius: int = 3) -> MembershipReport:
    """Certify the three category conditions for a module on a window.

    Condition 1: every root vector supported on S minus theta acts with a
    nonzero coefficient on each window vector.  Condition 2: every window
    vector ascends along theta raising operators to a highest-weight vector,
    each raising step is undone by its lowering operator, and every vector
    reached is killed by the positive theta roots.  No highest-weight vector
    can lie in the theta cone of another with the same central character:
    the centre of the Levi of the complement of theta pairs with the theta
    simple roots in a matrix of rank |theta| (pinned by
    `tests/test_categorio.py::test_center_separates_theta_span`), so equal
    central characters and a difference in the theta span force equal
    weights, and no weight is read.  Condition 3: positive root vectors
    outside the span of S act locally nilpotently within the step cap.
    Every step reads a numerator and a target from the root-action store, and
    each vector's raising step is taken once for all the ascents through it;
    each ascent still lists every broken step it takes.
    """
    system = module.system
    theta = frozenset(theta)
    S = frozenset(S) if S is not None else frozenset(range(1, system.rank + 1))
    if not theta <= S:
        raise ValueError("theta must be contained in S")
    window = module.window(radius)
    if not window:
        raise ValueError("empty window: radius too small for these parameters")
    cap = _step_cap(radius, system.rank)
    # condition 1: a root vector on S minus theta that kills a window vector
    cusp_witnesses = _witnesses(module, system.span_closure(S - theta), radius, 1, False)

    # condition 2: ascend along the first theta raising operator that acts,
    # at most cap + 1 steps, to a highest-weight vector
    raising = [(b, system.simple_root(b)) for b in sorted(theta)]

    def raise_once(cur: Index) -> Optional[Tuple[int, Index, bool]]:
        # (b, target, broken), None at a highest-weight vector: the certificate
        # needs the downward edge too, the lowering step taking target to cur
        for b, root in raising:
            num, target = module.act_root_num(root, cur)
            if num:
                back, source = module.act_root_num(neg_root(root), target)
                return b, target, not back or source != cur

    steps = Lookup(raise_once)
    certified = True
    broken_descents = []
    hw_reached: Set[Index] = set()
    for k in window:
        cur = k
        for _ in range(cap + 1):
            step = steps[cur]
            if step is None:
                hw_reached.add(cur)
                break
            b, target, broken = step
            if broken:
                broken_descents.append((cur, b))
            cur = target
        else:
            certified = False
    theta_raising = system.span_closure(theta) & system.positive_set
    hw_count = sum(module.is_hw(k, theta_raising) for k in hw_reached)
    restriction_ok = certified and not broken_descents and hw_count == len(hw_reached)

    # condition 3: a positive root vector outside the span of S that survives the cap
    span_S = system.span_closure(S)
    nil_witnesses = _witnesses(module, [r for r in system.positive_set if r not in span_S],
                               radius, cap, True)
    details = {"cuspidality_witnesses": cusp_witnesses, "broken_descents": broken_descents,
               "hw_count": hw_count, "nilpotency_witnesses": nil_witnesses}
    return MembershipReport(not cusp_witnesses, restriction_ok, not nil_witnesses,
                            certified, details)
