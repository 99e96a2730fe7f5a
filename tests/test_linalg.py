import math
from fractions import Fraction as F

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightcat import linalg


def _sparse(mat):
    """The rows of mat as {column: value} dicts with the zeros dropped."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def test_pivots_and_rank():
    assert sorted(linalg.Echelon(3, [[1, 2, 3], [2, 4, 6], [0, 1, 1]]).rows) == [0, 1]
    assert linalg.rank([[1, 2], [3, 4]], 2) == 2
    assert linalg.rank([[1, 2], [2, 4]], 2) == 1


def test_nullspace_solves_system():
    mat = [[1, 2, 0], [0, 0, 1]]
    basis = linalg.nullspace(mat, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in mat:
        assert sum(F(a) * b for a, b in zip(row, v)) == 0


def test_solve_consistency():
    assert linalg.solve([[2, 0], [0, 3]], [4, 9], 2) == [F(2), F(3)]
    assert linalg.solve([[1, 1], [1, 1]], [1, 2], 2) is None
    # underdetermined: free variable set to zero
    sol = linalg.solve([[1, 1]], [5], 2)
    assert sol == [F(5), F(0)]


def test_in_span():
    basis = [[1, 0, 1], [0, 1, 1]]
    assert linalg.in_span([2, 3, 5], basis) == [F(2), F(3)]
    assert linalg.in_span([1, 0, 0], basis) is None


def test_integer_row_reduce_rank():
    # integer vectors generate a lattice of the rank of their rational span
    assert linalg.rank([[1, 0], [1, 1]], 2) == 2
    assert linalg.rank([[2, 4], [1, 2]], 2) == 1
    assert linalg.rank([], 2) == 0
    assert linalg.rank([[2, 4], [3, 6], [0, 5]], 2) == 2


def _matrix_and_rhs():
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    shape = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return shape.flatmap(lambda mn: st.tuples(
        st.lists(st.lists(small, min_size=mn[1], max_size=mn[1]), min_size=mn[0], max_size=mn[0]),
        st.lists(small, min_size=mn[0], max_size=mn[0]),
        st.just(mn[1])))


@settings(max_examples=200, deadline=None)
@given(_matrix_and_rhs())
@example(([], [], 0))
@example(([], [], 3))
@example(([[], []], [0, 0], 0))
@example(([[], []], [0, 1], 0))
def test_solve_matches_rank_criterion(system):
    # sympy is an independent oracle: A x = b is solvable iff rank [A|b] == rank A
    mat, rhs, ncols = system
    a = sympy.Matrix(len(mat), ncols, [x for row in mat for x in row])
    aug = a.row_join(sympy.Matrix(len(rhs), 1, rhs))
    sol = linalg.solve(mat, rhs, ncols)
    assert linalg.solve(_sparse(mat), rhs, ncols) == sol
    assert (sol is None) == (aug.rank() > a.rank())
    if sol is not None:
        assert len(sol) == ncols
        assert all(sum((x * y for x, y in zip(row, sol)), F(0)) == b for row, b in zip(mat, rhs))


def _tall_matrix():
    """Mostly tall matrices, up to 8 columns, whose rows repeat, vanish or
    combine earlier rows; entries are often zero and have denominators up to 30."""
    small = st.one_of(st.just(F(0)), st.fractions(min_value=-10, max_value=10, max_denominator=30))

    def rows(ncols):
        row = st.lists(small, min_size=ncols, max_size=ncols)
        return st.lists(row, min_size=1, max_size=4).flatmap(lambda seeds: st.lists(st.one_of(
            st.sampled_from(seeds),
            st.just([F(0)] * ncols),
            st.tuples(st.sampled_from(seeds), st.sampled_from(seeds), small).map(
                lambda t: [x + t[2] * y for x, y in zip(t[0], t[1])]),
            row), max_size=12))

    return st.integers(0, 8).flatmap(lambda n: st.tuples(rows(n), st.just(n)))


@settings(max_examples=200, deadline=None)
@given(_tall_matrix())
@example(([], 0))
@example(([], 3))
@example(([[], [], []], 0))
@example(([[0, 0, 0]] * 4, 3))
def test_echelon_and_nullspace_match_sympy(system):
    # each integer row divided by its pivot entry is a row of the reduced form
    mat, ncols = system
    expected, expected_pivots = sympy.Matrix(len(mat), ncols, [x for row in mat for x in row]).rref()
    for form in (mat, _sparse(mat)):
        rows = linalg.Echelon(ncols, form).rows
        pivots = sorted(rows)
        assert pivots == list(expected_pivots)
        assert [[F(rows[c].get(j, 0), rows[c][c]) for j in range(ncols)] for c in pivots] == \
            [[F(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(len(pivots))]
        basis = linalg.nullspace(form, ncols)
        assert len(basis) == ncols - len(pivots)
        assert all(sum((F(a) * b for a, b in zip(row, v)), F(0)) == 0 for row in mat for v in basis)


@settings(max_examples=100, deadline=None)
@given(_tall_matrix(), st.data())
@example(([], 0), None)
@example(([[1, 2], [2, 4], [0, 3]], 2), None)
def test_echelon_fed_row_by_row_matches_one_batch(system, data):
    # one reducer fed in two runs, read out in between, ends where the
    # elimination of the whole list does
    mat, ncols = system
    split = data.draw(st.integers(0, len(mat))) if data is not None else 1
    echelon = linalg.Echelon(ncols)
    for row in mat[:split]:
        echelon.add(row)
    assert echelon.rows == linalg.Echelon(ncols, mat[:split]).rows
    for row in _sparse(mat[split:]):
        echelon.add(row)
    assert echelon.rows == linalg.Echelon(ncols, mat).rows
    assert echelon.nullspace() == linalg.nullspace(mat, ncols)
    assert echelon.full == (len(echelon.rows) == ncols)
    for pc, row in echelon.rows.items():
        # primitive integer rows, positive at their pivot, zero at the others
        assert row[pc] > 0 and all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1 and not set(row) & (set(echelon.rows) - {pc})


def _keyed_vectors():
    """A target and a few basis vectors as {tuple key: value} dicts with zeros dropped;
    the target is often a combination of the basis."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), small,
                             max_size=6).map(lambda v: {k: x for k, x in v.items() if x})

    def with_target(basis):
        combo = st.lists(small, min_size=len(basis), max_size=len(basis)).map(
            lambda cs: {k: x for k in {k for b in basis for k in b}
                        if (x := sum((c * b.get(k, 0) for c, b in zip(cs, basis)), F(0)))})
        return st.tuples(st.one_of(combo, vector), st.just(basis))

    return st.lists(vector, max_size=4).flatmap(with_target)


@settings(max_examples=200, deadline=None)
@given(_keyed_vectors())
@example(({}, []))
@example(({(0, 0): F(1)}, []))
@example(({(0, 0): F(2)}, [{(0, 0): F(1)}, {(0, 0): F(1)}]))
def test_in_span_matches_sympy(case):
    # sympy solves the transposed dense system: one equation per key
    vec, basis = case
    keys = sorted({k for v in [vec] + basis for k in v})
    a = sympy.Matrix(len(keys), len(basis), [b.get(k, 0) for k in keys for b in basis])
    rhs = sympy.Matrix(len(keys), 1, [vec.get(k, 0) for k in keys])
    sol = linalg.in_span(vec, basis)
    assert (sol is None) == (a.row_join(rhs).rank() > a.rank())
    if sol is not None:
        assert len(sol) == len(basis)
        assert all(sum((c * b.get(k, 0) for c, b in zip(sol, basis)), F(0)) == vec.get(k, 0)
                   for k in keys)


class _Unread:
    def __iter__(self):
        raise AssertionError("Echelon read a row after reaching full column rank")

    def __len__(self):
        raise AssertionError("Echelon read a row after reaching full column rank")


def test_echelon_stops_at_full_column_rank():
    identity = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert linalg.Echelon(3, identity + [_Unread()]).rows == {i: {i: 1} for i in range(3)}
