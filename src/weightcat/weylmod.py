"""The Weyl algebra on N generator pairs and its lattice-indexed simple modules.

The algebra is generated by q_1..q_N, p_1..p_N with [q_i,q_j] = [p_i,p_j] = 0
and [p_i,q_j] = delta_ij.

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
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

NEG_INT = "NEG_INT"
NONNEG_INT = "NONNEG_INT"
NON_INT = "NON_INT"

# The most points a window may span, counted as the product of its range
# lengths: 13x the largest window in use (A6 N(1/2,..,1/17) at B=2, 5**7),
# and it stops a huge --B before any enumeration exhausts memory.
WINDOW_LIMIT = 10**6


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


def sparse_add(acc: Dict, key, c) -> None:
    """acc[key] += c on a sparse vector, dropping the entry when it cancels;
    int values stay ints and Fractions stay Fractions."""
    tot = acc.get(key, 0) + c
    if tot:
        acc[key] = tot
    else:
        acc.pop(key, None)


class Lookup(dict):
    """{key: fn(key)}, each value computed on the first lookup of its key."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        val = self[key] = self.fn(key)
        return val


def reach(start, neighbours: Callable[[object], Iterable]) -> set:
    """Every node reachable from start (start included) along neighbours(node)."""
    seen, stack = {start}, [start]
    while stack:
        for nxt in neighbours(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def representatives(keys: Iterable[Sequence[int]], coords: Iterable[int]) -> List:
    """The first of keys, in their order, of each projection onto coords (not empty).

    `WeylParams._walk` reads and moves only its letters' coordinates: each
    `_step` reads and writes k_i alone.  So walks of words whose letters lie on
    coords have, at every key of one projection class, the same coefficients
    and targets that agree with the key off coords.  A check made of such walks
    on x(k), compared with k, holds at every key of a class or at none, and the
    first key it fails at is the first failing representative.
    """
    proj, first = itemgetter(*coords), {}
    for k in keys:
        first.setdefault(proj(k), k)
    return list(first.values())


def check_window(ranges: Sequence[range]) -> None:
    """Raise ValueError if the product of the range lengths exceeds WINDOW_LIMIT."""
    points = math.prod(max(0, r.stop - r.start) for r in ranges)
    if points > WINDOW_LIMIT:
        raise ValueError(f"window ranges span {points} points, above the limit of {WINDOW_LIMIT}; "
                         f"lower --B")


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class CertificationError(RuntimeError):
    """A window or read too small to certify anything; the CLI exits 3."""


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
        """Per-coordinate ranges of the admissible k with |k_i| <= radius; `check_window`
        refuses their product above WINDOW_LIMIT.  k = 0 is admissible for every a
        (lo_i <= 0 <= hi_i) and has sum 0, so every window holds it at radius >= 0 and
        is empty exactly at radius < 0, which is refused here, once for every caller."""
        if radius < 0:
            raise CertificationError(f"a window of radius {radius} holds no point to check")
        ranges = [range(-radius if lo is None else max(lo, -radius),
                        (radius if hi is None else min(hi, radius)) + 1)
                  for lo, hi in zip(self._lo, self._hi)]
        check_window(ranges)
        return ranges

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

    def steps(self) -> Lookup:
        """{word: its letters in walk order, rightmost first}, for a word of
        generators (kind, i) as a tuple, each letter (i, table) with table
        {k_i: `_step(kind, i, k_i)`}, one per generator, shared by every word of
        this lookup and filled on first lookup, so a table sees `_step` as it is
        when the table is filled."""
        tables = Lookup(lambda gen: Lookup(lambda ki: self._step(*gen, ki)))
        return Lookup(lambda word: tuple((i, tables[kind, i]) for kind, i in reversed(word)))

    def _walk(self, letters: Sequence[Tuple[int, Mapping[int, Tuple[int, int, int]]]],
              k: Sequence[int]) -> Tuple[int, int, Tuple[int, ...]]:
        """(numerator, denominator, target) of a word on an admissible x(k), from
        its letters as `steps()` gives them; a zero step stops the walk at the
        index that step was applied to."""
        num = den = 1
        cur = list(k)
        for i, table in letters:
            n, d, ki = table[cur[i]]
            if not n:
                return 0, 1, tuple(cur)
            num, den, cur[i] = num * n, den * d, ki
        return num, den, tuple(cur)


def weyl_act(gen: Tuple[str, int], params: WeylParams, k: Sequence[int]) -> Tuple[Fraction, Tuple[int, ...]]:
    """Coefficient and target of q_i or p_i on x(k).  gen = ("q"|"p", i) with i zero-based."""
    if not params.in_lattice(k):
        raise ValueError(f"index {k} not admissible for parameters {params.a}")
    num, den, target = params._walk(params.steps()[gen,], k)
    return Fraction(num, den), target


def monomial_word(qexp: Sequence[int], pexp: Sequence[int]) -> Tuple[Tuple[str, int], ...]:
    """The normal-ordered monomial q^qexp p^pexp as a word of generators for
    `WeylParams.steps()`: the p's act first, each kind with its indices ascending."""
    steps = [(kind, i) for kind, exps in (("p", pexp), ("q", qexp))
             for i, e in enumerate(exps) if e for _ in range(e)]
    return tuple(steps[::-1])


def lattice_window(params: WeylParams, radius: int) -> List[Tuple[int, ...]]:
    """All admissible k with |k_i| <= radius."""
    return list(product(*params.window_ranges(radius)))


def _bracket_is(ab: tuple, ba: tuple, k: Tuple[int, ...], want: int) -> bool:
    """Whether g h x(k) - h g x(k) == want x(k), from the integer walks ab of
    g h and ba of h g on x(k)."""
    (n1, d1, t1), (n2, d2, t2) = ab, ba
    if n1 and n2 and t1 != t2:
        return False
    return n1 * d2 - n2 * d1 == want * d1 * d2 and (not want or (t1 if n1 else t2) == k)


def check_weyl_relations(params: WeylParams, radius: int) -> List[str]:
    """Exhaustively verify the defining relations on the window; returns violations.

    A two-letter walk reads and moves only its letters' coordinates, so each
    relation on coordinates i, j is decided once per pair (k_i, k_j) of the full
    product `window_ranges`, at the window vector that is 0 elsewhere; the window
    is walked only to list violations.  Of two faulty steps, either may raise first.
    """
    n, ranges = params.n, params.window_ranges(radius)
    # in the order listed at each k; [x_j, x_i] = -[x_i, x_j], so commuting i < j
    relations = [rel for i in range(n) for rel in
                 [((kind, i), (kind, j), 0) for j in range(i + 1, n) for kind in "qp"]
                 + [(("p", i), ("q", j), int(i == j)) for j in range(n)]]
    failed, walk, steps = set(), params._walk, params.steps()
    for r, (g, h, want) in enumerate(relations):
        i, j = g[1], h[1]
        gh, hg, cur = steps[g, h], steps[h, g], [0] * n
        for ki, kj in zip(ranges[i], ranges[i]) if i == j else product(ranges[i], ranges[j]):
            cur[i], cur[j] = ki, kj
            k = tuple(cur)
            if not _bracket_is(walk(gh, k), walk(hg, k), k, want):
                failed.add((r, ki, kj))
    if not failed:
        return []
    violations: List[str] = []
    for k in lattice_window(params, radius):
        for r, (g, h, _) in enumerate(relations):
            (kg, i), (kh, j) = g, h
            if (r, k[i], k[j]) in failed:
                got: Dict[Tuple[int, ...], Fraction] = {}
                for sign, (num, den, t) in ((1, walk(steps[g, h], k)), (-1, walk(steps[h, g], k))):
                    sparse_add(got, t, Fraction(sign * num, den))
                violations.append(f"[{kg}{i + 1},{kh}{j + 1}] "
                                  + (f"!= 0 at {k}" if kg == kh else f"wrong at {k}: {got}"))
    return violations


def transitivity_probe(params: WeylParams, radius: int) -> bool:
    """Strong connectivity of the window under nonzero generator moves.

    Edges k -> target for every q_i/p_i action with nonzero coefficient whose
    target stays inside the window.
    """
    window = lattice_window(params, radius)
    inside = set(window)
    succ = {k: [t for i in range(params.n) for kind in "qp"
                for c, t in [weyl_act((kind, i), params, k)] if c and t in inside]
            for k in window}
    pred: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {k: [] for k in window}
    for k, outs in succ.items():
        for t in outs:
            pred[t].append(k)
    return reach(window[0], succ.__getitem__) == inside == reach(window[0], pred.__getitem__)
