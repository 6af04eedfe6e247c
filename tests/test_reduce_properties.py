"""Property tests for reduction modulo a system in solved form: one
simultaneous substitution equals the chain of single-jet substitutions, and
reducing twice changes nothing."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from clawforge.expr import Expr, Jet, substitute  # noqa: E402

from helpers import jet_pool  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def jet_polys(entry, max_order, with_funcs=False):
    """Short sums of small monomials over the model's independent variables
    and jets up to `max_order`, with rational coefficients; optionally with
    a formal function symbol of a jet as a factor."""
    pool = jet_pool(entry.table, max_order)
    if with_funcs:
        f = entry.table.funcs[0]
        pool += [entry.table.func(f, 0, a) for a in pool[2:6]]
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    factor = st.tuples(st.sampled_from(pool), st.integers(1, 2))
    term = st.tuples(coeff, st.lists(factor, max_size=3))

    def build(terms):
        out = Expr.const(0)
        for c, factors in terms:
            t = Expr.const(Fraction(c))
            for b, k in factors:
                t = t * b ** k
            out = out + t
        return out

    return st.lists(term, min_size=1, max_size=4).map(build)


def reducible(system, e):
    """The reducible jets of e, each with its own reduction."""
    out = {}
    for a in sorted(e.atoms()):
        if isinstance(a, Jet):
            rhs = system.reduce(a.as_expr())
            if rhs != a.as_expr():
                out[a] = rhs
    return out


def chained(system, e):
    """Reduce by substituting one reducible jet at a time."""
    for a, rhs in reducible(system, e).items():
        e = substitute(e, {a: rhs})
    return e


def _check(system, e):
    r = system.reduce(e)
    assert not reducible(system, r)
    assert r == chained(system, e)
    assert system.reduce(r) == r


@SETTINGS
@given(data=st.data())
def test_reduce_equals_chain_kdv(kdv, data):
    _check(kdv.system, data.draw(jet_polys(kdv, 3)))


@SETTINGS
@given(data=st.data())
def test_reduce_equals_chain_gas1d(gas1d, data):
    _check(gas1d.system, data.draw(jet_polys(gas1d, 2, with_funcs=True)))
