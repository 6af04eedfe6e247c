"""The number representation: every coefficient and exponent the engine
stores, and every value linear algebra returns, is an int when it is
integral and a reduced Fraction otherwise, never a float or an integral
Fraction; every division is exact."""

import random
from fractions import Fraction

import pytest

from clawforge.calculus import total_derivative
from clawforge.expr import (ZERO, Expr, FuncSym, SymbolTable, _quot, pdiff)
from clawforge.linsolve import (ColumnSpace, IncrementalSystem,
                                RationalMatrix, nullspace, solve)
from clawforge.parse import parse

from helpers import RADICALS, jet_terms, mul_vector, rref

SPECIALS = RADICALS + ("f(u+t)", "f'(u)*u[x]")


def _numbers(e):
    """Every coefficient and exponent of e, including those inside function
    arguments and opaque bases."""
    for c, factors in e.terms:
        yield c
        for b, k in factors:
            yield k
            if isinstance(b, FuncSym):
                yield from _numbers(b.arg)
            elif isinstance(b, Expr):
                yield from _numbers(b)


def _canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _assert_canonical(e):
    bad = [x for x in _numbers(e) if not _canonical(x)]
    assert not bad, f"{e!r} holds {bad!r}"


def _same(x, y):
    return x == y and type(x) is type(y)


def test_quot_is_exact():
    assert _same(_quot(6, 3), 2)
    assert _same(_quot(6, 4), Fraction(3, 2))
    assert _same(_quot(-6, 3), -2)
    assert _same(_quot(6, -4), Fraction(-3, 2))
    assert _same(_quot(-7, -7), 1)
    assert _same(_quot(0, -5), 0)
    assert _same(_quot(10 ** 40, 10 ** 20), 10 ** 20)
    assert _same(_quot(10 ** 40 + 1, 10 ** 20), Fraction(10 ** 40 + 1, 10 ** 20))
    assert _same(_quot(Fraction(3, 2), 3), Fraction(1, 2))
    assert _same(_quot(Fraction(9, 2), -3), Fraction(-3, 2))
    assert _same(_quot(Fraction(9, 2), 3), Fraction(3, 2))
    assert _same(_quot(Fraction(-3, 2), Fraction(3, 4)), -2)
    assert _same(_quot(4, Fraction(2, 3)), 6)
    with pytest.raises(ZeroDivisionError):
        _quot(1, 0)


def test_floats_are_refused():
    tab = SymbolTable(["t", "x"], ["u"])
    u = parse("u", tab)
    with pytest.raises(TypeError):
        Expr.const(0.5)
    with pytest.raises(TypeError):
        u * 0.5
    with pytest.raises(TypeError):
        u ** 0.5


def test_engine_numbers_stay_canonical(kdv):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = SymbolTable(["t", "x"], ["u"], funcs=["f"])
    t, x = tab.indep
    u = tab.jet("u")

    def sums(specials):
        return st.lists(jet_terms(st, tab, specials), min_size=1,
                        max_size=3).map(lambda parts: sum(parts, ZERO))

    nonzero = st.one_of(st.integers(-6, 6),
                        st.fractions(-4, 4, max_denominator=6)).filter(bool)
    exponents = st.one_of(st.integers(-3, -1),
                          st.fractions(-3, 3, max_denominator=3))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(a=sums(SPECIALS), b=sums(SPECIALS),
               term=jet_terms(st, tab, SPECIALS).filter(lambda e: e.terms),
               poly=sums(()).filter(lambda e: e.terms),
               q=nonzero, k=exponents)
    def check(a, b, term, poly, q, k):
        out = [a + b, a - b, a * b, a / q, (a * b) / q, a / poly,
               term ** k, poly ** k]
        for e in (a, a * b):
            out += [parse(str(e), tab), pdiff(e, u), pdiff(e, x),
                    total_derivative(e, t), total_derivative(e, x),
                    kdv.system.reduce(e)]
        for e in out:
            _assert_canonical(e)

    check()


# rows with non-unit pivots, so every pivot division is inexact
ROWS = ({0: 2, 1: 3, 2: 1}, {1: 4, 2: 6}, {0: 6, 2: 5})
RHS = (1, 2, 3)


def test_incremental_solution_exact_on_integer_input():
    inc = IncrementalSystem(3)
    assert all(inc.try_add(dict(r), b) for r, b in zip(ROWS, RHS))
    assert not inc.try_add({0: 4, 1: 6, 2: 2}, 3)    # twice row 0, rhs 2 != 3
    assert inc.try_add({0: 4, 1: 6, 2: 2}, 2)
    stored = [x for r in inc.rows for x in r.values()] + inc.rhs
    assert all(_canonical(x) for x in stored)
    sol = inc.solution()
    assert all(_canonical(x) for x in sol)
    assert any(type(x) is Fraction for x in sol)
    for r, b in zip(ROWS, RHS):
        assert sum(x * sol[c] for c, x in r.items()) == b


def test_column_space_member_exact_on_integer_input():
    cols = [{"a": 2, "b": 3}, {"b": 4, "c": 6}, {"a": 6, "c": 5}]
    cs = ColumnSpace()
    for col in cols:
        cs.add_column(col)
    for _, vec, combo in cs.basis:
        assert all(_canonical(x) for x in list(vec.values()) + list(combo.values()))
    target = {"a": 1, "b": 2, "c": 3}
    combo = cs.member(target)
    assert combo is not None
    assert all(_canonical(x) for x in combo.values())
    assert any(type(x) is Fraction for x in combo.values())
    recon = {}
    for i, w in combo.items():
        for key, v in cols[i].items():
            recon[key] = recon.get(key, 0) + w * v
    assert {key: v for key, v in recon.items() if v} == target


def test_linear_algebra_values_canonical_random():
    rng = random.Random(61)
    rhs_rng = random.Random(62)
    for _ in range(150):
        nc = rng.randint(2, 4)
        rows = [{c: rng.randint(-4, 4) for c in range(nc) if rng.random() < 0.7}
                for _ in range(rng.randint(1, 5))]
        inc = IncrementalSystem(nc)
        cs = ColumnSpace()
        for r in rows:
            inc.try_add(r, rng.randint(-3, 3))
            cs.add_column(r)
        sol = inc.solution()
        assert all(_canonical(x) for x in sol)
        for r, b in zip(inc.rows, inc.rhs):
            assert sum(x * sol[c] for c, x in r.items()) == b
        target = {}
        for r in rows:
            w = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for c, x in r.items():
                target[c] = target.get(c, 0) + w * x
        combo = cs.member({c: x for c, x in target.items() if x})
        assert combo is not None
        assert all(_canonical(x) for x in combo.values())
        M = RationalMatrix(rows, ncols=nc)
        assert all(_canonical(x) for r in rref(M).sparse_rows
                   for x in r.values())
        space = solve(M, [rhs_rng.randint(-3, 3) for _ in rows])
        if space is not None:
            assert all(_canonical(x) for v in (space.particular, *space.basis)
                       for x in v)


def test_nullspace_exact_on_integer_input():
    M = RationalMatrix([[2, 4, 6, 3], [3, 5, 7, 2]])
    space = nullspace(M)
    assert space.dimension == 2
    for v in space.basis:
        assert all(_canonical(x) for x in v)
        assert mul_vector(M, list(v)) == [0, 0]
    assert any(type(x) is Fraction for v in space.basis for x in v)
