"""Property tests for reduction modulo a system in solved form: one
simultaneous substitution equals the chain of single-jet substitutions,
reducing twice changes nothing, reduction is linear, and it commutes with
every total derivative up to a second reduction.  Stripping a law subtracts
the stored reduced curl columns from its reduced components, and the
witness columns differentiate reduced theta entries, which is sound because
of the last three.  `PdeSystem.reduced_derivative` is checked against
`reduce(total_derivative(e, v))`, also under concurrent use."""

import sys
import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from clawforge.calculus import (total_derivative,  # noqa: E402
                                total_derivative_mi)
from clawforge.corpus import GAS1D_TEXT  # noqa: E402
from clawforge.expr import Jet, substitute  # noqa: E402
from clawforge.modelfile import parse_model_text  # noqa: E402
from clawforge.parse import parse  # noqa: E402

from helpers import RADICALS, jet_polys, jet_pool  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def model_polys(entry, max_order, with_funcs=False, max_factors=3, **kw):
    """`jet_polys` over the model's table, up to three factors a term;
    optionally with a formal function symbol of a jet as a factor."""
    extra = []
    if with_funcs:
        f = entry.table.funcs[0]
        pool = jet_pool(entry.table, max_order)
        extra = [entry.table.func(f, 0, a) for a in pool[2:6]]
    return jet_polys(st, entry.table, max_order, max_factors=max_factors,
                     extra=extra, **kw)


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


def naive_reduce(system, e):
    """Reduction without the jet memo: replace one reducible jet at a time
    by the plain total derivative of its equation's right-hand side, until
    none is left (which terminates for a well-posed solved form)."""
    while True:
        for a in sorted(e.atoms()):
            eq = isinstance(a, Jet) and next(
                (eq for eq in system.equations if a.contains(eq.lead)), None)
            if eq:
                rhs = total_derivative_mi(eq.rhs, a.minus(eq.lead))
                e = substitute(e, {a: rhs})
                break
        else:
            return e


def _check(system, e):
    r = system.reduce(e)
    assert not reducible(system, r)
    assert r == chained(system, e)
    assert system.reduce(r) == r


@SETTINGS
@given(data=st.data())
def test_reduce_equals_chain_kdv(kdv, data):
    _check(kdv.system, data.draw(model_polys(kdv, 3)))


@SETTINGS
@given(data=st.data())
def test_reduce_equals_chain_gas1d(gas1d, data):
    _check(gas1d.system, data.draw(model_polys(gas1d, 2, with_funcs=True)))


def _check_linear_and_dx(entry, data, max_order, with_funcs=False):
    system = entry.system
    exprs = model_polys(entry, max_order, with_funcs)
    a, b = data.draw(exprs), data.draw(exprs)
    q = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    assert system.reduce(a + q * b) == system.reduce(a) + q * system.reduce(b)
    x = entry.table.indep_var("x")
    assert system.reduce(total_derivative(a, x)) == \
        system.reduce(total_derivative(system.reduce(a), x))


@SETTINGS
@given(data=st.data())
def test_reduce_linear_and_commutes_with_dx_kdv(kdv, data):
    _check_linear_and_dx(kdv, data, 3)


@SETTINGS
@given(data=st.data())
def test_reduce_linear_and_commutes_with_dx_gas1d(gas1d, data):
    _check_linear_and_dx(gas1d, data, 2, with_funcs=True)


# -- every total derivative, D_t included, on all five built-ins --------------

def _principal(system):
    """The leading jets of the system and their first derivatives."""
    return [j.as_expr() for eq in system.equations
            for j in (eq.lead,) + tuple(eq.lead.shifted(v)
                                        for v in system.table.indep)]


def principal_polys(entry, **kw):
    """Sums of jet monomials that hold at least one principal jet: a
    drawn principal jet times a drawn polynomial, plus another one."""
    system = entry.system
    polys = model_polys(entry, **kw)
    return st.tuples(polys, st.sampled_from(_principal(system)), polys).map(
        lambda abc: abc[0] + abc[1] * abc[2]).filter(
        lambda e: reducible(system, e))


# (model, strategy options, examples); sp draws radicals of non-principal
# jets and gas1d function symbols, and gas3d stays at first order, where
# one t-derivative of a product of principal jets is already large
KERNEL_CASES = [
    ("kdv", {"max_order": 2, "max_factors": 2}, 30),
    ("fw", {"max_order": 2, "max_factors": 2}, 30),
    ("sp", {"max_order": 2, "max_factors": 2, "max_terms": 2}, 30),
    ("gas1d", {"max_order": 2, "max_factors": 2, "with_funcs": True}, 30),
    ("gas3d", {"max_order": 1, "max_factors": 2, "max_terms": 2}, 8),
]


@pytest.mark.parametrize("name,opts,examples", KERNEL_CASES,
                         ids=[c[0] for c in KERNEL_CASES])
def test_reduce_commutes_with_every_total_derivative(models, name, opts,
                                                      examples):
    entry = models[name]
    system = entry.system
    exprs = principal_polys(entry, **opts)
    if name == "sp":
        radicals = st.sampled_from([parse(s, entry.table) for s in RADICALS])
        exprs = st.tuples(exprs, radicals, model_polys(entry, 1)).map(
            lambda abc: abc[0] * abc[1] + abc[2])

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(e=exprs)
    def check(e):
        r = system.reduce(e)
        assert r == naive_reduce(system, e)
        for v in entry.table.indep:
            expected = system.reduce(total_derivative(e, v))
            assert expected == naive_reduce(system, total_derivative(e, v))
            assert system.reduce(total_derivative(r, v)) == expected
            assert system.reduced_derivative(r, v) == expected

    check()


@pytest.mark.parametrize("round_", range(5))
def test_concurrent_reduce_and_derivative_match_serial(round_):
    """Four threads share one fresh system, whose jet memo starts empty;
    each reduces and differentiates the same expressions, two in one order
    and two in the opposite order, and all get what a serial run on another
    fresh system gets.  The thread switches differ from run to run, hence
    several rounds."""
    texts = ["rho[t]*u[t,x] + p[x,x]*u[t]", "u[t,t]*p", "f(u[t])*rho[x,x]",
             "p[t]^2 - rho*u[t,x]", "u[x]*rho[t,t]", "t*p[t,x] + x*u[t]"]

    def fresh():
        return parse_model_text(GAS1D_TEXT).system

    def work(system, order, exprs):
        out = {}
        for i in order:
            r = system.reduce(exprs[i])
            out[i] = (r, [system.reduced_derivative(r, v)
                          for v in system.table.indep])
        return out

    serial_system = fresh()
    exprs = [parse(s, serial_system.table) for s in texts]
    serial = work(serial_system, range(len(exprs)), exprs)
    shared = fresh()
    orders = [list(range(len(exprs))), list(reversed(range(len(exprs))))] * 2
    barrier = threading.Barrier(len(orders))
    results = [None] * len(orders)

    def run(k, order):
        barrier.wait()
        results[k] = work(shared, order, exprs)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        threads = [threading.Thread(target=run, args=(k, order))
                   for k, order in enumerate(orders)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert results == [serial] * len(orders)
