"""Exact linear algebra over the rationals.

A row is either a sparse {column: value} dict or a dense sequence, and
every system comes with its column count.  `Echelon` is the one
elimination: it reads rows one at a time and keeps them fraction-free, as
primitive integer rows, and of its methods only `nullspace` divides.
`rank`, `nullspace`, `solve` and `in_span` go through it; the vectors they
return are dense lists of Fraction.  These four reduce bottom-up: they read
every row and hand `Echelon` the nonzero ones by descending leading column,
so a new pivot lands left of the kept ones, where no kept row has an entry,
and is rarely cleared back into them.  The reduced form depends only on the
row space, so the answer is that of any order; they stop reducing, not
reading, at full rank.  No pivoting heuristics, no floating point: results
are exact and deterministic, which the rest of the package relies on for
reproducible canonical representatives.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Union

Vector = List[Fraction]
Row = Union[Dict[Hashable, object], Sequence]

_ZERO = Fraction(0)


def _entries(row: Row) -> Dict:
    """The nonzero entries of a dict or dense row, as a new {key: value} dict."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: x for j, x in items if x}


def _primitive(v: Dict[int, int]) -> Dict[int, int]:
    """v divided by the gcd of its entries, signed so that its first column is positive."""
    g = math.gcd(*v.values()) * (1 if v[min(v)] > 0 else -1)
    return v if g == 1 else {j: x // g for j, x in v.items()}


def _clear(v: Dict[int, int], w: Dict[int, int], c: int) -> Dict[int, int]:
    """a v - b w with the least a > 0 that makes it zero at c, where w[c] > 0."""
    g = math.gcd(w[c], v[c])
    a, b = w[c] // g, v[c] // g
    out = {j: a * x for j, x in v.items()}
    for j, y in w.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return out


class Echelon:
    """Reduced row echelon form over the integers, read one row at a time.

    `rows` maps each pivot column to a primitive integer row that is positive
    there, zero at every other pivot and at every column before its own.  An
    added row is scaled to integers by the lcm of its denominators and
    cleared at the kept pivots among its own columns, touching only nonzero
    entries.  Of its methods only `nullspace` divides, returning
    Fractions.  The rows given to the constructor are added in order until
    the rank reaches the column count; the rows after that are never read.
    """

    def __init__(self, ncols: int, rows: Sequence[Row] = ()):
        self.ncols = ncols
        self.rows: Dict[int, Dict[int, int]] = {}
        for row in rows:
            if self.full:
                break
            self.add(row)

    @property
    def full(self) -> bool:
        """Rank equals the column count: no further row can change the form."""
        return len(self.rows) == self.ncols

    def add(self, row: Row) -> None:
        """Reduce row against the form and keep it if it is independent of the rows kept."""
        v = _entries(row)
        den = math.lcm(*(x.denominator for x in v.values()))
        v = {j: x.numerator * (den // x.denominator) for j, x in v.items()}
        # clearing one pivot scales v but leaves it zero at every other pivot
        for pc in [j for j in v if j in self.rows]:
            v = _clear(v, self.rows[pc], pc)
        if v:
            v = _primitive(v)
            c = min(v)
            for pc, prow in self.rows.items():
                if c in prow:
                    self.rows[pc] = _primitive(_clear(prow, v, c))
            self.rows[c] = v

    def nullspace(self) -> List[Vector]:
        """Basis of the right kernel, one vector per free column."""
        basis = []
        for free in (j for j in range(self.ncols) if j not in self.rows):
            v = [_ZERO] * self.ncols
            v[free] = Fraction(1)
            for pc, row in self.rows.items():
                if row.get(free):
                    v[pc] = Fraction(-row[free], row[pc])
            basis.append(v)
        return basis


def _bottom_up(ncols: int, rows: Sequence[Row]) -> Echelon:
    """The Echelon of the nonzero rows, fed by descending leading column (stable)."""
    return Echelon(ncols, sorted((v for row in rows if (v := _entries(row))), key=min, reverse=True))


def rank(rows: Sequence[Row], ncols: int) -> int:
    return len(_bottom_up(ncols, rows).rows)


def nullspace(rows: Sequence[Row], ncols: int) -> List[Vector]:
    """Basis of the right kernel {x : rows @ x = 0}, one vector per free column."""
    return _bottom_up(ncols, rows).nullspace()


def solve(rows: Sequence[Row], rhs: Sequence, ncols: int) -> Optional[Vector]:
    """One exact solution of rows @ x = rhs (free variables set to 0), or None."""
    aug = _bottom_up(ncols + 1, [{**_entries(row), ncols: b} for row, b in zip(rows, rhs)])
    if ncols in aug.rows:
        return None  # row 0 = 1: inconsistent
    x = [_ZERO] * ncols
    for pc, row in aug.rows.items():
        x[pc] = Fraction(row.get(ncols, 0), row[pc])
    return x


def in_span(vec: Row, basis: Sequence[Row]) -> Optional[Vector]:
    """Coefficients expressing vec over the basis vectors, or None.

    Vectors are {key: value} dicts over any hashable keys, or sequences
    keyed by position; the system has one equation per key.
    """
    eqs: Dict[Hashable, Dict[int, Fraction]] = {}
    for j, b in enumerate(basis):
        for key, x in _entries(b).items():
            eqs.setdefault(key, {})[j] = x
    target = _entries(vec)
    for key in target:
        eqs.setdefault(key, {})
    return solve(list(eqs.values()), [target.get(key, _ZERO) for key in eqs], len(basis))

