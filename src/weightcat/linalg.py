"""Dense exact linear algebra over the rationals.

Everything here works on small matrices given as lists of lists of
Fraction (or int) entries.  No pivoting heuristics, no floating point:
results are exact and deterministic, which the rest of the package
relies on for reproducible canonical representatives.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Vector = List[Fraction]
Matrix = List[List[Fraction]]


def _as_fracs(row: Sequence) -> Vector:
    return [Fraction(x) for x in row]


def rref(mat: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    Rows are read one at a time and reduced against the rows kept so far,
    touching only nonzero entries; reading stops once the rank reaches the
    column count, so the rows after that point are never looked at.
    """
    ncols = len(mat[0]) if mat else 0
    kept: Dict[int, Tuple[Vector, List[int]]] = {}  # pivot -> (row, nonzero columns)
    for raw in mat:
        if len(kept) == ncols:
            break
        v = _as_fracs(raw)
        for pc, (prow, nz) in kept.items():
            f = v[pc]
            if f:
                for j in nz:
                    v[j] -= f * prow[j]
        nz = [j for j, x in enumerate(v) if x]
        if not nz:
            continue
        c, pv = nz[0], v[nz[0]]
        for j in nz:
            v[j] /= pv
        for prow, pnz in kept.values():
            g = prow[c]
            if g:
                for j in nz:
                    prow[j] -= g * v[j]
                pnz[:] = [j for j, x in enumerate(prow) if x]
        kept[c] = (v, nz)
    pivots = sorted(kept)
    return [kept[c][0] for c in pivots], pivots


def rank(mat: Sequence[Sequence]) -> int:
    return len(rref(mat)[0])


def nullspace(mat: Sequence[Sequence], ncols: int) -> List[Vector]:
    """Basis of the right kernel {x : mat @ x = 0}, one vector per free column."""
    rows, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(v)
    return basis


def solve(mat: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """One exact solution of mat @ x = rhs (free variables set to 0), or None."""
    if not mat:
        return None if any(Fraction(b) != 0 for b in rhs) else []
    ncols = len(mat[0])
    aug = [list(_as_fracs(r)) + [Fraction(b)] for r, b in zip(mat, rhs)]
    rows, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None  # row 0 = 1: inconsistent
        x[pc] = rows[r][ncols]
    return x


def in_span(vec: Sequence, basis: Sequence[Sequence]) -> Optional[Vector]:
    """Coefficients expressing vec over the given basis rows, or None."""
    if not basis:
        return [] if all(Fraction(x) == 0 for x in vec) else None
    ncols = len(basis)
    mat = [[Fraction(basis[j][i]) for j in range(ncols)] for i in range(len(vec))]
    return solve(mat, vec)


def reduce_mod_rowspace(vec: Sequence, rows: Matrix, pivots: List[int]) -> Vector:
    """Canonical representative of vec modulo the row space given in RREF."""
    v = _as_fracs(vec)
    for row, pc in zip(rows, pivots):
        f = v[pc]
        if f:
            for j, y in enumerate(row):
                if y:
                    v[j] -= f * y
    return v


def integer_row_reduce(mat: Sequence[Sequence[int]]) -> List[List[int]]:
    """Row-style Hermite reduction of an integer matrix; returns a lattice basis."""
    rows = [list(map(int, r)) for r in mat if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    done: List[List[int]] = []
    r = 0
    for c in range(ncols):
        live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not live:
            continue
        # gcd elimination within column c
        while True:
            live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(rows[i][c]))
            base = live[0]
            for i in live[1:]:
                q = rows[i][c] // rows[base][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[base])]
        live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not live:
            continue
        rows[r], rows[live[0]] = rows[live[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r] if any(row)]


def lattice_rank(mat: Sequence[Sequence[int]]) -> int:
    return len(integer_row_reduce(mat))
