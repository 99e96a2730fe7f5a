"""The Weyl algebra on N generator pairs and its lattice-indexed simple modules.

The algebra is generated by q_1..q_N, p_1..p_N with [q_i,q_j] = [p_i,p_j] = 0
and [p_i,q_j] = delta_ij.  Elements are kept in normal order (all q's to the
left of all p's); multiplication re-normalises with the exact contraction
formula, so commutators of realized Lie algebra elements come out exactly.

A parameter vector a of rationals defines a module on basis vectors x(k)
indexed by the integer lattice points admissible for a.  The action of the
generators is a two-branch shift-with-coefficient recipe depending on whether
a_i is a negative integer; all coefficients are exact rationals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

NEG_INT = "NEG_INT"
NONNEG_INT = "NONNEG_INT"
NON_INT = "NON_INT"


def parse_rational(s) -> Fraction:
    """Parse 'p/q' / 'p' strings (or numbers) into an exact Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


_ZERO = Fraction(0)


def sparse_add(acc: Dict, key, c) -> None:
    """acc[key] += c on a sparse vector, dropping the entry when it cancels."""
    tot = acc.get(key, _ZERO) + c
    if tot:
        acc[key] = tot
    else:
        acc.pop(key, None)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class WeylPolynomial:
    """Normal-ordered polynomial in q_1..q_N, p_1..p_N with rational coefficients.

    Terms map (q_exponents, p_exponents) -> coefficient.  The product uses
    p^a q^c = sum_s s! C(a,s) C(c,s) q^(c-s) p^(a-s) per variable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Fraction]] = None):
        self.nvars = nvars
        self.terms: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Fraction] = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[key] = c

    @classmethod
    def monomial(cls, nvars: int, qexp: Sequence[int], pexp: Sequence[int], coeff=1) -> "WeylPolynomial":
        return cls(nvars, {(tuple(qexp), tuple(pexp)): Fraction(coeff)})

    @classmethod
    def constant(cls, nvars: int, c) -> "WeylPolynomial":
        zero = (0,) * nvars
        return cls(nvars, {(zero, zero): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        out = dict(self.terms)
        for key, c in other.terms.items():
            sparse_add(out, key, c)
        return WeylPolynomial(self.nvars, out)

    def __sub__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        return self + -other

    def __neg__(self) -> "WeylPolynomial":
        return WeylPolynomial(self.nvars, {k: -c for k, c in self.terms.items()})

    def scale(self, f) -> "WeylPolynomial":
        f = Fraction(f)
        return WeylPolynomial(self.nvars, {k: f * c for k, c in self.terms.items()})

    def __mul__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Fraction] = {}
        n = self.nvars
        for (qa, pa), ca in self.terms.items():
            for (qb, pb), cb in other.terms.items():
                # contract p^pa against q^qb variable by variable
                ranges = [range(0, min(pa[i], qb[i]) + 1) for i in range(n)]
                for s in product(*ranges):
                    coeff = ca * cb
                    for i in range(n):
                        if s[i]:
                            coeff *= math.comb(pa[i], s[i]) * math.comb(qb[i], s[i]) * math.factorial(s[i])
                    qk = tuple(qa[i] + qb[i] - s[i] for i in range(n))
                    pk = tuple(pa[i] + pb[i] - s[i] for i in range(n))
                    sparse_add(out, (qk, pk), coeff)
        return WeylPolynomial(n, out)

    def commutator(self, other: "WeylPolynomial") -> "WeylPolynomial":
        return self * other - other * self

    def proportional_to(self, other: "WeylPolynomial") -> Optional[Fraction]:
        """Return t with self == t*other, or None."""
        if other.is_zero():
            return Fraction(0) if self.is_zero() else None
        if self.is_zero():
            return Fraction(0)
        key, c = next(iter(other.terms.items()))
        if key not in self.terms:
            return None
        t = self.terms[key] / c
        probe = other.scale(t)
        return t if probe.terms == self.terms else None

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylPolynomial) and self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (qe, pe), c in sorted(self.terms.items()):
            mono = "".join(f"q{i + 1}^{e}" if e > 1 else f"q{i + 1}" for i, e in enumerate(qe) if e)
            mono += "".join(f"p{i + 1}^{e}" if e > 1 else f"p{i + 1}" for i, e in enumerate(pe) if e)
            bits.append(f"{format_rational(c)}*{mono or '1'}")
        return " + ".join(bits)


@dataclass(frozen=True)
class ActionTerm:
    coeff: Fraction
    target: Tuple[int, ...]


class WeylAuditError(RuntimeError):
    """A generator action produced a nonzero coefficient outside the index set."""


@dataclass(frozen=True)
class WeylParams:
    """Parameter vector a in Q^N, kept as ints a_i = num_i/den_i, with the
    admissible k_i in [lo_i, hi_i]: k_i <= -a_i - 1 for a negative integer a_i,
    k_i >= -a_i for a non-negative integer, unbounded (None) otherwise."""

    a: Tuple[Fraction, ...]

    def __post_init__(self):
        num = tuple(x.numerator for x in self.a)
        den = tuple(x.denominator for x in self.a)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_lo", tuple(-m if d == 1 and m >= 0 else None
                                              for m, d in zip(num, den)))
        object.__setattr__(self, "_hi", tuple(-m - 1 if d == 1 and m < 0 else None
                                              for m, d in zip(num, den)))

    @classmethod
    def of(cls, values: Iterable) -> "WeylParams":
        return cls(tuple(parse_rational(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.a)

    def coordinate_class(self, i: int) -> str:
        if self._hi[i] is not None:
            return NEG_INT
        return NON_INT if self._lo[i] is None else NONNEG_INT

    def window_ranges(self, radius: int) -> List[range]:
        """Per-coordinate ranges of the admissible k with |k_i| <= radius."""
        return [range(-radius if lo is None else max(lo, -radius),
                      (radius if hi is None else min(hi, radius)) + 1)
                for lo, hi in zip(self._lo, self._hi)]

    def in_lattice(self, k: Sequence[int]) -> bool:
        """Membership of k in the admissible index set for these parameters."""
        if len(k) != self.n:
            raise ValueError("length mismatch")
        for ki, lo, hi in zip(k, self._lo, self._hi):
            if (lo is not None and ki < lo) or (hi is not None and ki > hi):
                return False
        return True

    def _step(self, kind: str, i: int, ki: int) -> Tuple[int, int, int]:
        """(numerator, denominator, new k_i) of q_i or p_i on an admissible x(k):
        q_i raises k_i with coefficient a_i + k_i + 1 on a negative-integer
        coordinate and 1 elsewhere; p_i lowers it with 1 there, a_i + k_i elsewhere."""
        hi = self._hi[i]
        if kind == "q":
            num, den = (self._num[i] + ki + 1, 1) if hi is not None else (1, 1)
            ki += 1
        elif kind == "p":
            num, den = (1, 1) if hi is not None else (self._num[i] + ki * self._den[i], self._den[i])
            ki -= 1
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        lo = self._lo[i]
        if num and ((lo is not None and ki < lo) or (hi is not None and ki > hi)):
            raise WeylAuditError(f"{kind}_{i + 1} moves k_{i + 1} to {ki}, outside the index set, "
                                 f"with coefficient {Fraction(num, den)}")
        return num, den, ki


def k_member(params: WeylParams, k: Sequence[int]) -> bool:
    return params.in_lattice(k)


def weyl_act(gen: Tuple[str, int], params: WeylParams, k: Sequence[int]) -> ActionTerm:
    """Action of q_i or p_i on x(k).  gen = ("q"|"p", i) with i zero-based."""
    if not params.in_lattice(k):
        raise ValueError(f"index {k} not admissible for parameters {params.a}")
    kind, i = gen
    num, den, ki = params._step(kind, i, k[i])
    k = tuple(k)
    return ActionTerm(Fraction(num, den), k[:i] + (ki,) + k[i + 1:])


def act_monomial(params: WeylParams, qexp: Sequence[int], pexp: Sequence[int],
                 k: Sequence[int]) -> ActionTerm:
    """Action of the normal-ordered monomial q^qexp p^pexp on x(k); a zero
    coefficient stops the walk and returns the index it was applied to."""
    if not params.in_lattice(k):
        raise ValueError(f"index {k} not admissible for parameters {params.a}")
    num = den = 1
    cur = list(k)
    for kind, exps in (("p", pexp), ("q", qexp)):
        for i, e in enumerate(exps):
            for _ in range(e):
                n, d, ki = params._step(kind, i, cur[i])
                if not n:
                    return ActionTerm(_ZERO, tuple(cur))
                num *= n
                den *= d
                cur[i] = ki
    return ActionTerm(Fraction(num, den), tuple(cur))


def act_polynomial(params: WeylParams, poly: WeylPolynomial,
                   k: Sequence[int]) -> Dict[Tuple[int, ...], Fraction]:
    """Action of a normal-ordered polynomial on x(k) as {target: coefficient}."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    for (qe, pe), c in poly.terms.items():
        t = act_monomial(params, qe, pe, k)
        if t.coeff != 0:
            sparse_add(out, t.target, c * t.coeff)
    return out


def lattice_window(params: WeylParams, radius: int) -> List[Tuple[int, ...]]:
    """All admissible k with |k_i| <= radius."""
    return list(product(*params.window_ranges(radius)))


def check_weyl_relations(params: WeylParams, radius: int) -> List[str]:
    """Exhaustively verify the defining relations on the window; returns violations."""
    if radius < 0:  # the window would be empty; for radius >= 0 it holds k = 0
        raise ValueError(f"radius must be >= 0, got {radius}")
    window = lattice_window(params, radius)
    violations: List[str] = []
    n = params.n

    def apply2(g1, g2, k):
        (kind2, i2), (kind1, i1) = g2, g1
        cur = list(k)
        n2, d2, cur[i2] = params._step(kind2, i2, cur[i2])
        if not n2:
            return {}
        n1, d1, cur[i1] = params._step(kind1, i1, cur[i1])
        if not n1:
            return {}
        return {tuple(cur): Fraction(n1 * n2, d1 * d2)}

    def comm(g1, g2, k):
        out = apply2(g1, g2, k)
        for key, c in apply2(g2, g1, k).items():
            sparse_add(out, key, -c)
        return out

    for k in window:
        for i in range(n):
            # [x_i, x_i] = 0 identically and [x_j, x_i] = -[x_i, x_j], so
            # the commuting relations are checked once per pair i < j
            for j in range(i + 1, n):
                if comm(("q", i), ("q", j), k):
                    violations.append(f"[q{i + 1},q{j + 1}] != 0 at {k}")
                if comm(("p", i), ("p", j), k):
                    violations.append(f"[p{i + 1},p{j + 1}] != 0 at {k}")
            for j in range(n):
                got = comm(("p", i), ("q", j), k)
                want = {tuple(k): Fraction(1)} if i == j else {}
                if got != want:
                    violations.append(f"[p{i + 1},q{j + 1}] wrong at {k}: {got}")
    return violations


def transitivity_probe(params: WeylParams, radius: int) -> bool:
    """Strong connectivity of the window under nonzero generator moves.

    Edges k -> target for every q_i/p_i action with nonzero coefficient whose
    target stays inside the window.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    window = lattice_window(params, radius)
    index = {k: i for i, k in enumerate(window)}
    succ: List[List[int]] = [[] for _ in window]
    for k in window:
        for i in range(params.n):
            for kind in ("q", "p"):
                t = weyl_act((kind, i), params, k)
                if t.coeff != 0 and t.target in index:
                    succ[index[k]].append(index[t.target])

    def reach(start: int, edges: List[List[int]]) -> set:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    pred: List[List[int]] = [[] for _ in window]
    for u, outs in enumerate(succ):
        for v in outs:
            pred[v].append(u)
    full = set(range(len(window)))
    return reach(0, succ) == full and reach(0, pred) == full
