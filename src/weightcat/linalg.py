"""Exact linear algebra over the rationals.

A row is either a sparse {column: value} dict or a dense sequence, and
every system comes with its column count.  `rref` is the one elimination;
`rank`, `nullspace`, `solve` and `in_span` go through it and return dense
lists of Fraction.  No pivoting heuristics, no floating point: results are
exact and deterministic, which the rest of the package relies on for
reproducible canonical representatives.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

Vector = List[Fraction]
Matrix = List[List[Fraction]]
Row = Union[Dict[Hashable, object], Sequence]

_ZERO = Fraction(0)


def _entries(row: Row) -> Dict:
    """The nonzero entries of a dict or dense row, as a new {key: value} dict."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: x for j, x in items if x}


def rref(rows: Sequence[Row], ncols: int) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    Rows are read one at a time and reduced against the rows kept so far,
    touching only nonzero entries; reading stops once the rank reaches the
    column count, so the rows after that point are never looked at.
    """
    kept: Dict[int, Dict[int, Fraction]] = {}  # pivot column -> row, zero at every other pivot
    for raw in rows:
        if len(kept) == ncols:
            break
        v = _entries(raw)
        # clearing one pivot leaves v unchanged at every other pivot
        for pc in [j for j in v if j in kept]:
            f = v.pop(pc)
            for j, y in kept[pc].items():
                if j != pc:
                    x = v.get(j, _ZERO) - f * y
                    if x:
                        v[j] = x
                    else:
                        del v[j]
        if not v:
            continue
        c = min(v)
        pv = Fraction(v[c])  # so that integer entries divide exactly
        v = {j: x / pv for j, x in v.items()}
        for prow in kept.values():
            g = prow.pop(c, None)
            if g:
                for j, y in v.items():
                    if j != c:
                        x = prow.get(j, _ZERO) - g * y
                        if x:
                            prow[j] = x
                        else:
                            del prow[j]
        kept[c] = v
    pivots = sorted(kept)
    return [[kept[c].get(j, _ZERO) for j in range(ncols)] for c in pivots], pivots


def rank(rows: Sequence[Row], ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows: Sequence[Row], ncols: int) -> List[Vector]:
    """Basis of the right kernel {x : rows @ x = 0}, one vector per free column."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def solve(rows: Sequence[Row], rhs: Sequence, ncols: int) -> Optional[Vector]:
    """One exact solution of rows @ x = rhs (free variables set to 0), or None."""
    aug = []
    for row, b in zip(rows, rhs):
        row = _entries(row)
        if b:
            row[ncols] = b
        aug.append(row)
    red, pivots = rref(aug, ncols + 1)
    x = [_ZERO] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None  # row 0 = 1: inconsistent
        x[pc] = red[r][ncols]
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


def reduce_mod_rowspace(vec: Sequence, rows: Matrix, pivots: List[int]) -> Vector:
    """Canonical representative of vec modulo the row space given in RREF."""
    v = [Fraction(x) for x in vec]
    for row, pc in zip(rows, pivots):
        f = v[pc]
        if f:
            for j, y in enumerate(row):
                if y:
                    v[j] -= f * y
    return v
