"""Scripted reproductions of the constant-extraction identities.

Each function builds the relevant truncated induced module over exact
rational parameters, extracts the boundary/central constants and the
proportionality ratios from the quotient by pure linear algebra, and
compares them with the closed forms.  Reports carry both sides so a
mismatch is visible, never silently corrected.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .degonemod import build_M, build_N
from .extcoh import CertificationError
from .inducemod import LeviModule, central_scalars, induce, restrict_family, u0_compare
from .rootsys import add_roots, build_root_system, neg_root
from .weylmod import check_window, format_rational, parse_rational

DEFAULT_DEPTH = 4
AC1_K_RANGE = (-1, 0, 1, 2)
BRANCHES = ("0", "-1-A")


@dataclass
class LemmaReport:
    lemma: str
    params: Dict[str, str]
    computed: Dict[str, object]
    expected: Dict[str, object]
    match: bool
    notes: List[str] = field(default_factory=list)

    def to_json(self) -> Dict:
        def enc(v):
            if isinstance(v, Fraction):
                return format_rational(v)
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            if isinstance(v, dict):
                return {str(k): enc(x) for k, x in v.items()}
            return v
        return {
            "lemma": self.lemma,
            "params": self.params,
            "computed": enc(self.computed),
            "expected": enc(self.expected),
            "match": self.match,
            "notes": self.notes,
        }


def _sl2_index(k: int) -> Tuple[int, int]:
    return (k, -k)


def _one_root_induction(type_name: str, block: int, other: int, a1: Fraction, a2: Fraction,
                        central: Fraction, k_range: Sequence[int], depth: int):
    """N(a1,a2) on the simple root `block` of a rank-two type, with central
    value `central` on the coroot of the simple root `other`, induced to depth.

    Returns the truncated module, the central value read back through the
    center of the Levi subalgebra, and the ratios
    X_{-(alpha+beta)} x(k) : X_{-beta} x(k-1) for k in k_range, where alpha
    and beta are the simple roots `block` and `other`.
    """
    system = build_root_system(type_name)
    C = LeviModule(system, [([block], build_N([a1, a2]))], {other: central})
    V = induce(C, depth)
    (z, zval), = central_scalars(C, [_sl2_index(k) for k in (-1, 0, 1)]).items()
    # the central element sum t_i H_i acts by t_block (a1 - a2) + t_other central
    central_read = (zval - z[block - 1] * (a1 - a2)) / z[other - 1]
    beta = system.simple_root(other)
    ab = add_roots(system.simple_root(block), beta)
    etas = {k: V.proportionality(V.monomial_tensor([neg_root(ab)], _sl2_index(k)),
                                 V.monomial_tensor([neg_root(beta)], _sl2_index(k - 1)))
            for k in k_range}
    return V, central_read, etas


# ---------------------------------------------------------------------------
# Rank 2, single cuspidal simple root at the end of type A
# ---------------------------------------------------------------------------

def verify_lemA12(a1, a2, k_range: Sequence[int] = (-2, -1, 0, 1, 2),
                  branch: str = "0", depth: int = DEFAULT_DEPTH) -> LemmaReport:
    """Ratio of the two lowered generators in the induced quotient over A2.

    Builds the truncated quotient of the module induced from the rank-one
    cuspidal module with central branch c in {0, -1-A}, re-extracts c from
    the center, and compares every ratio against (c+a1+k)/(a2-k+1).
    """
    a1, a2 = parse_rational(a1), parse_rational(a2)
    if a1.denominator == 1 or a2.denominator == 1:
        raise ValueError("parameters must be non-integer rationals")
    A = a1 + a2
    c = Fraction(0) if branch == "0" else -1 - A
    _, central, etas = _one_root_induction("A2", 1, 2, a1, a2, c + a2, k_range, depth)
    c_extracted = central - a2
    expected = {k: (c + a1 + k) / (a2 - k + 1) for k in k_range}
    match = (c_extracted == c and c in (Fraction(0), -1 - A)
             and all(etas[k] == expected[k] for k in k_range))
    return LemmaReport(
        "lemA12",
        {"a1": format_rational(a1), "a2": format_rational(a2), "branch": branch},
        {"c": c_extracted, "eta": etas},
        {"c_branches": [Fraction(0), -1 - A], "eta": expected},
        match,
    )


# ---------------------------------------------------------------------------
# Interior single cuspidal simple root in type A
# ---------------------------------------------------------------------------

def verify_A1N(params: Sequence) -> LemmaReport:
    """Boundary and central constants of an interior rank-one family.

    params is the full family vector (-1,..,-1, z1, z2, 0,..,0).  The
    constants are read off the Levi restriction: the two boundary values must
    satisfy c + c' + A + 1 = 0 and c*c' = 0 and every farther coroot must
    act by zero.
    """
    module = build_N(params)
    if len(module.cuspidal_block()) != 1:
        raise ValueError("family must have exactly one cuspidal simple root")
    l = module.cuspidal_block()[0]
    n = module.system.rank
    if not (1 < l < n):
        raise ValueError("interior position required (1 < l < n)")
    C = restrict_family(module)
    a1 = module.spec.a[module.spec.minus_ones]
    a2 = module.spec.a[module.spec.minus_ones + 1]
    A = a1 + a2

    def h_at(i, k):
        return C.weight_of(_sl2_index(k))[i - 1]

    # normal forms: value(H_{l+1}) = c + a2 - k, value(H_{l-1}) = c' + a2 - k
    c = h_at(l + 1, 0) - a2
    cp = h_at(l - 1, 0) - a2
    shift_ok = all(h_at(l + 1, k) == c + a2 - k and h_at(l - 1, k) == cp + a2 - k
                   for k in (-2, 1, 3))
    ds = {f"d_{i - l}": h_at(i, 0) for i in range(l + 2, n + 1)}
    dps = {f"d'_{l - i}": h_at(i, 0) for i in range(1, l - 1)}
    const_ok = all(h_at(i, 2) == val for i, val in
                   [(i, h_at(i, 0)) for i in list(range(l + 2, n + 1)) + list(range(1, l - 1))])
    scal = central_scalars(C, [_sl2_index(k) for k in (-1, 0, 2)])
    match = (shift_ok and const_ok
             and c + cp + A + 1 == 0 and c * cp == 0
             and all(v == 0 for v in ds.values())
             and all(v == 0 for v in dps.values()))
    return LemmaReport(
        "A1N",
        {"a": ",".join(format_rational(x) for x in module.spec.a), "position": str(l)},
        {"c": c, "c'": cp, **ds, **dps, "center_values": {str(k): v for k, v in scal.items()}},
        {"c+c'+A+1": Fraction(0), "cc'": Fraction(0), "d_i": Fraction(0)},
        match,
    )


# ---------------------------------------------------------------------------
# Interior connected block of size > 1 in type A
# ---------------------------------------------------------------------------

def verify_AkAn(params: Sequence, depth: int = DEFAULT_DEPTH) -> LemmaReport:
    """Constants of an interior type A block family plus the module comparison.

    Right boundary constant 0, left boundary constant -1, all farther coroots
    zero; then the module induced from the block restriction with these
    constants is compared monomial-by-monomial against the family module.
    """
    module = build_N(params)
    block = module.cuspidal_block()
    if len(block) < 2:
        raise ValueError("block of size at least 2 required")
    j, m = module.spec.minus_ones, module.spec.minus_ones + module.spec.free
    n = module.system.rank
    if j < 1 or module.spec.zeros < 1:
        raise ValueError("interior block required (at least one -1 and one 0)")
    mid = module.spec.a[j:m]
    w0 = module.weight_of(module.zero_index())

    c = w0[m - 1] - mid[-1]          # value(H_{e_m}) = c + a_last + k_last
    cp = w0[j - 1] + mid[0]          # value(H_{e_j}) = c' - (a_1 + k_1)
    ds = {f"d_{i - m}": w0[i - 1] for i in range(m + 1, n + 1)}
    dps = {f"d'_{j - i}": w0[i - 1] for i in range(1, j)}
    cmp_ok = u0_compare(induce(restrict_family(module), depth), module)
    match = (c == 0 and cp == -1
             and all(v == 0 for v in ds.values())
             and all(v == 0 for v in dps.values())
             and cmp_ok)
    return LemmaReport(
        "AkAn",
        {"a": ",".join(format_rational(x) for x in module.spec.a)},
        {"c": c, "c'": cp, **ds, **dps, "u0_compare": cmp_ok},
        {"c": Fraction(0), "c'": Fraction(-1), "d_i": Fraction(0), "u0_compare": True},
        match,
    )


# ---------------------------------------------------------------------------
# Long-root block of C2
# ---------------------------------------------------------------------------

def verify_AC1(a1, a2, depth: int = DEFAULT_DEPTH) -> LemmaReport:
    """Long-root induction on C2: branch constraint and target isomorphism.

    The parameter sum must be -1/2 (branch c = 0) or -3/2 (branch
    c = -2 - 2A); then 2c + 2A + 1 = 0 holds, the induced quotient carries
    the closed-form lowering ratios up to one realization unit, and the
    quotient agrees with the rank-two module with parameters
    (-1, a1 - a2 - 1/2).
    """
    a1, a2 = parse_rational(a1), parse_rational(a2)
    A = a1 + a2
    if A not in (Fraction(-1, 2), Fraction(-3, 2)):
        raise ValueError(f"parameter sum must be -1/2 or -3/2, got {A}")
    c = Fraction(0) if A == Fraction(-1, 2) else -2 - 2 * A
    V, central, etas = _one_root_induction("C2", 2, 1, a1, a2, c + 2 * a2, AC1_K_RANGE, depth)
    c_extracted = central - 2 * a2
    units = set()
    for k, eta in etas.items():
        closed = -(c + 2 * a1 + 2 * k) / (2 * a2 - 2 * k + 2)
        units.add(None if (eta is None or closed == 0) else eta / closed)
    target = build_M([Fraction(-1), a1 - a2 - Fraction(1, 2)])
    cmp_ok = u0_compare(V, target)
    unit_ok = len(units) == 1 and None not in units
    match = (c_extracted == c and 2 * c + 2 * A + 1 == 0 and unit_ok and cmp_ok)
    return LemmaReport(
        "AC1",
        {"a1": format_rational(a1), "a2": format_rational(a2)},
        {"c": c_extracted, "2c+2A+1": 2 * c_extracted + 2 * A + 1, "eta": etas,
         "eta_unit": next(iter(units)) if unit_ok else None, "u0_compare": cmp_ok},
        {"c_branches": [Fraction(0), -2 - 2 * A], "2c+2A+1": Fraction(0),
         "target": f"M(-1,{format_rational(a1 - a2 - Fraction(1, 2))})"},
        match,
        notes=["lowering ratios compared against the closed form up to one constant unit"],
    )


# ---------------------------------------------------------------------------
# Trailing type C block of size > 1
# ---------------------------------------------------------------------------

def verify_CC(params: Sequence, depth: int = DEFAULT_DEPTH) -> LemmaReport:
    """Boundary constant -1 and zero interior constants for trailing C blocks."""
    module = build_M(params)
    block = module.cuspidal_block()
    if len(block) < 2:
        raise ValueError("trailing block of size at least 2 required")
    j = module.spec.minus_ones
    if j < 1:
        raise ValueError("at least one -1 entry required")
    a1 = module.spec.a[j]
    w0 = module.weight_of(module.zero_index())
    c = w0[j - 1] + a1               # value(H_{e_j}) = c - a_1 - k_1
    ds = {f"d_{j - i}": w0[i - 1] for i in range(1, j)}
    cmp_ok = u0_compare(induce(restrict_family(module), depth), module)
    match = c == -1 and all(v == 0 for v in ds.values()) and cmp_ok
    return LemmaReport(
        "CC",
        {"a": ",".join(format_rational(x) for x in module.spec.a)},
        {"c": c, **ds, "u0_compare": cmp_ok},
        {"c": Fraction(-1), "d_i": Fraction(0), "u0_compare": True},
        match,
    )


# ---------------------------------------------------------------------------
# The rank 3 appendix family
# ---------------------------------------------------------------------------

def appendix_a3(a1, a2, branch: str = "0", k_range: Sequence[int] = (-1, 0, 1),
                depth: int = DEFAULT_DEPTH) -> LemmaReport:
    """The two-step lowering ratios and the non-degree-one family on A3.

    With the end simple root cuspidal and both others raising, the second
    central value is forced to d = -2 - A - 2c; the module with that value
    carries ratios eta1(k) = -(c+a2-k+2)/(a2-k+1) and
    eta2(k) = (c+a2-k+1)/(a2-k+1), and its highest-weight constituents are
    simple Verma quotients exactly when A is not an integer below -1, with
    the kernel vector appearing at lowering power -A-1 otherwise.
    """
    a1, a2 = parse_rational(a1), parse_rational(a2)
    if a1.denominator == 1 or a2.denominator == 1:
        raise ValueError("parameters must be non-integer rationals")
    A = a1 + a2
    c = Fraction(0) if branch == "0" else -1 - A
    d = -2 - A - 2 * c
    system = build_root_system("A3")
    C = LeviModule(system, [([1], build_N([a1, a2]))], {2: c + a2, 3: d})
    V = induce(C, depth)
    alpha, b1, b2 = (system.simple_root(i) for i in (1, 2, 3))
    full = add_roots(add_roots(alpha, b1), b2)

    etas1: Dict[int, Optional[Fraction]] = {}
    etas2: Dict[int, Optional[Fraction]] = {}
    exp1: Dict[int, Fraction] = {}
    exp2: Dict[int, Fraction] = {}
    solved = True
    for k in k_range:
        v0 = V.project(V.monomial_tensor([neg_root(full)], _sl2_index(k)))
        w1 = V.project(V.monomial_tensor([neg_root(b2), neg_root(b1)], _sl2_index(k - 1)))
        w2 = V.project(V.monomial_tensor([neg_root(b1), neg_root(b2)], _sl2_index(k - 1)))
        sol = linalg.in_span(v0, [w1, w2])
        if sol is None:
            solved = False
            etas1[k] = etas2[k] = None
        else:
            etas1[k], etas2[k] = sol
        exp1[k] = -(c + a2 - k + 2) / (a2 - k + 1)
        exp2[k] = (c + a2 - k + 1) / (a2 - k + 1)

    verma_simple = not (A.denominator == 1 and A < -1)
    kernel_ok = True
    if not verma_simple:
        power = int(-A - 1)
        if power <= depth:
            vkill = V.monomial_tensor([neg_root(b2)] * power, _sl2_index(0))
            kernel_ok = not V.project(vkill)
            if power > 1:
                vlive = V.monomial_tensor([neg_root(b2)] * (power - 1), _sl2_index(0))
                kernel_ok = kernel_ok and bool(V.project(vlive))
    match = (solved and etas1 == exp1 and etas2 == exp2 and kernel_ok)
    return LemmaReport(
        "appendix-a3",
        {"a1": format_rational(a1), "a2": format_rational(a2), "branch": branch},
        {"d": d, "eta1": etas1, "eta2": etas2,
         "verma_simple": verma_simple, "kernel_vector_ok": kernel_ok},
        {"d": -2 - A - 2 * c, "eta1": exp1, "eta2": exp2,
         "criterion": "A not an integer below -1"},
        match,
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

LEMMAS = {
    "lemA12": verify_lemA12,
    "A1N": verify_A1N,
    "AkAn": verify_AkAn,
    "AC1": verify_AC1,
    "CC": verify_CC,
    "appendix-a3": appendix_a3,
}


def run_lemma(lemma: str, params: Sequence, branch: str = "0", radius: int = 3,
              depth: int = DEFAULT_DEPTH) -> LemmaReport:
    """Run one lab script as `weightcat lab` does.

    lemA12, AC1 and appendix-a3 take the two scalars a1,a2 as params, the
    others the family vector.  lemA12 and appendix-a3 run on branch c = 0 or
    c = -1-A and on the window -radius < k < radius; AC1 keeps its own k.
    Every lemma refuses that window above `weylmod.WINDOW_LIMIT` points.
    A1N does not read depth: it induces nothing, reading the Levi restriction.
    """
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma id {lemma!r}; choose from {sorted(LEMMAS)}")
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {list(BRANCHES)}, got {branch!r}")
    k_range = range(1 - radius, radius)
    check_window([k_range])
    run = LEMMAS[lemma]
    if lemma in ("A1N", "AkAn", "CC"):
        return run(params) if lemma == "A1N" else run(params, depth=depth)
    if len(params) != 2:
        raise ValueError(f"{lemma} takes two parameters a1,a2, got {len(params)}")
    a1, a2 = params
    if lemma == "AC1":
        return run(a1, a2, depth=depth)
    if radius < 1:
        raise CertificationError("window radius must be at least 1 to hold k = 0")
    return run(a1, a2, branch=branch, k_range=tuple(k_range), depth=depth)
