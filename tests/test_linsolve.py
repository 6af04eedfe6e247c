import random
from fractions import Fraction

import pytest

from clawforge.expr import _num
from clawforge.linsolve import (ColumnSpace, IncrementalSystem,
                                RationalMatrix, nullspace, solve)

from helpers import mul_vector, rank, rref, span_equal


def test_nullspace_examples():
    assert nullspace(RationalMatrix([[1, -1]])).basis == [(1, 1)]
    assert nullspace(RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).basis == []


def test_sparse_rows_out_of_range():
    """Each sparse row's columns must lie in range(ncols); an empty row
    is accepted."""
    for bad in ({0: 1, 3: 2}, {-1: 1}):
        with pytest.raises(ValueError, match="column index out of range"):
            RationalMatrix([{0: 1}, bad], ncols=3)
    assert RationalMatrix([{}, {2: 5}], ncols=3).rows == [[0, 0, 0],
                                                          [0, 0, 5]]


def test_sparse_rows_are_kept_unless_they_hold_a_zero():
    """A dict row with no zero entry is stored as given; one with a zero
    entry is stored without it, and the given dict is left alone."""
    kept, zeroed = {0: 1, 2: Fraction(1, 2)}, {0: 0, 1: 3}
    m = RationalMatrix([kept, zeroed], ncols=3)
    assert m.sparse_rows[0] is kept
    assert m.sparse_rows[1] == {1: 3} and zeroed == {0: 0, 1: 3}


def test_rref_examples():
    assert rref(RationalMatrix([[2, 4], [1, 2]])).rows == [[1, 2], [0, 0]]
    assert rref(RationalMatrix([[0, 0], [0, 0]])).rows == [[0, 0], [0, 0]]
    assert rref(RationalMatrix([[1, 2], [3, 4]])).rows == [[1, 0], [0, 1]]


def test_nullspace_properties_random():
    rng = random.Random(31)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(nc)] for _ in range(nr)]
        M = RationalMatrix(rows)
        space = nullspace(M)
        for v in space.basis:
            assert all(x == 0 for x in mul_vector(M, list(v)))
        assert rank(M) + space.dimension == nc
        if space.basis:
            assert rank(RationalMatrix([list(v) for v in space.basis])) == \
                space.dimension
        permuted = rows[:]
        rng.shuffle(permuted)
        space2 = nullspace(RationalMatrix(permuted))
        assert span_equal(space.basis, space2.basis)


def test_solve_inhomogeneous():
    s = solve(RationalMatrix([[1, 1], [0, 1]]), [3, 2])
    assert s.particular == (1, 2)
    assert s.basis == []
    assert solve(RationalMatrix([[1, 1], [1, 1]]), [1, 2]) is None


def test_solve_underdetermined():
    s = solve(RationalMatrix([[1, 1]]), [2])
    assert s is not None
    got = [s.particular[0] + s.particular[1]]
    assert got == [2]
    assert s.dimension == 1


def test_span_equal_examples():
    assert span_equal([[1, 0], [0, 1]], [[1, 1], [1, -1]])
    assert not span_equal([[1, 0]], [[0, 1]])
    assert span_equal([], [])


def test_incremental_system_matches_solve():
    rng = random.Random(32)
    for _ in range(40):
        nc = rng.randint(1, 5)
        nr = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(nc)]
                for _ in range(nr)]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(nr)]
        inc = IncrementalSystem(nc)
        accepted_rows, accepted_rhs = [], []
        for row, b in zip(rows, rhs):
            if inc.try_add(dict(enumerate(row)), b):
                accepted_rows.append(row)
                accepted_rhs.append(b)
        sol = inc.solution()
        for row, b in zip(accepted_rows, accepted_rhs):
            assert sum(a * s for a, s in zip(row, sol)) == b


def test_column_space_membership():
    cs = ColumnSpace()
    cs.add_column({"a": Fraction(1), "b": Fraction(2)})
    cs.add_column({"b": Fraction(1)})
    combo = cs.member({"a": Fraction(2), "b": Fraction(1)})
    assert combo is not None
    assert combo.get(0, 0) == 2 and combo.get(1, 0) == -3
    assert cs.member({"c": Fraction(1)}) is None


def test_column_space_random_consistency():
    rng = random.Random(33)
    keys = list("pqrst")
    for _ in range(30):
        cs = ColumnSpace()
        cols = []
        for _ in range(rng.randint(1, 4)):
            col = {k: Fraction(rng.randint(-3, 3)) for k in keys
                   if rng.random() < 0.6}
            cols.append(col)
            cs.add_column(col)
        weights = [Fraction(rng.randint(-3, 3)) for _ in cols]
        target = {}
        for w, col in zip(weights, cols):
            for k, v in col.items():
                target[k] = target.get(k, Fraction(0)) + w * v
        combo = cs.member(target)
        assert combo is not None
        recon = {}
        for i, w in combo.items():
            for k, v in cols[i].items():
                recon[k] = recon.get(k, Fraction(0)) + w * v
        recon = {k: v for k, v in recon.items() if v != 0}
        target = {k: v for k, v in target.items() if v != 0}
        assert recon == target


def _random_system(rng):
    """A sparse rational matrix with zero rows, repeated rows and rows that
    combine earlier ones, and a right-hand side that is sometimes
    inconsistent."""
    nc = rng.randint(1, 7)
    rows, rhs = [], []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        if kind < 0.15:
            row, b = [0] * nc, 0
        elif rows and kind < 0.45:
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            row = [_num(x + k * y) for x, y in zip(rows[i], rows[j])]
            b = rhs[i] + k * rhs[j]
        else:
            row = [_num(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                   if rng.random() < 0.4 else 0 for _ in range(nc)]
            b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if rng.random() < 0.2:
            b += 1      # breaks a combination, or a zero row
        rows.append(row)
        rhs.append(_num(b))
    return rows, rhs


def _fractions(vec):
    return [Fraction(x.p, x.q) for x in vec]


def test_linsolve_matches_sympy():
    """`rref`, `rank`, `nullspace` and `solve` against sympy's Matrix on
    random sparse systems; the reduced row-echelon form is unique, so the
    nullspace basis (one vector per free column) and the particular
    solution (zero on the free columns) must agree entry by entry."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(34)
    inconsistent = 0
    for _ in range(150):
        rows, rhs = _random_system(rng)
        M = RationalMatrix(rows)
        S = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
        want_rref, _ = S.rref()
        assert rref(M).rows == [_fractions(want_rref.row(i))
                                for i in range(want_rref.rows)]
        assert rank(M) == S.rank()
        assert nullspace(M).basis == [tuple(_fractions(v))
                                      for v in S.nullspace()]
        got = solve(M, rhs)
        try:
            sol, params = S.gauss_jordan_solve(
                sympy.Matrix([sympy.Rational(b) for b in rhs]))
        except ValueError:
            inconsistent += 1
            assert got is None
            continue
        assert got is not None
        want = sol.subs({p: 0 for p in params})
        assert list(got.particular) == _fractions(want)
        assert got.dimension == len(params)
    assert 10 < inconsistent < 140


def test_repeated_rows_reach_the_echelon_once(monkeypatch):
    """Multiplier systems repeat rows; each distinct (row, rhs) pair is fed
    to `try_add` once, a row repeated with another right-hand side still
    makes the system inconsistent, and repeats change no solution."""
    sympy = pytest.importorskip("sympy")
    fed = []
    try_add = IncrementalSystem.try_add

    def counted(self, row, b, steps=None):
        fed.append((frozenset(row.items()), b))
        return try_add(self, row, b, steps)

    monkeypatch.setattr(IncrementalSystem, "try_add", counted)
    rows = [[1, 2, 0], [0, 1, 1], [Fraction(1), 2, 0], [0, 1, 1], [1, 2, 0]]
    got = solve(RationalMatrix(rows), [1, 2, 1, 2, 1])
    assert len(fed) == len(set(fed)) == 2
    assert got.particular == (-3, 2, 0) and got.basis == [(2, -1, 1)]
    assert solve(RationalMatrix(rows), [1, 2, 1, 2, 3]) is None
    fed.clear()
    assert nullspace(RationalMatrix(rows)).basis == [(2, -1, 1)]
    assert len(fed) == 2

    rng = random.Random(35)
    for _ in range(60):
        rows, rhs = _random_system(rng)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(rows))
            rows.append(rows[i])
            rhs.append(rhs[i] + (rng.random() < 0.3))
        fed.clear()
        got = solve(RationalMatrix(rows), rhs)
        assert len(fed) == len(set(fed))
        S = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
        try:
            sol, params = S.gauss_jordan_solve(
                sympy.Matrix([sympy.Rational(b) for b in rhs]))
        except ValueError:
            assert got is None
            continue
        assert list(got.particular) == \
            _fractions(sol.subs({p: 0 for p in params}))
