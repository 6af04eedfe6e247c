"""Property tests for reduction modulo a system in solved form: one
simultaneous substitution equals the chain of single-jet substitutions,
reducing twice changes nothing, reduction is linear, and it commutes with
every total derivative up to a second reduction.  Stripping a law subtracts
the stored reduced curl columns from its reduced components, and the
witness columns differentiate reduced theta entries, which is sound because
of the last three.  `PdeSystem.reduced_derivative` is checked against
`reduce(total_derivative(e, v))`, also under concurrent use, and `verify`,
which reduces each component before it differentiates, against
`reduce(divergence(T))`.  The gradient behind the Euler operator is
checked against one `pdiff` pass per jet, on the same components, and
the instantiation of a `collect` form against `substitute`."""

import random
import sys
import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from clawforge.calculus import (_gradient, divergence, euler,  # noqa: E402
                                total_derivative)
from clawforge.corpus import GAS1D_TEXT  # noqa: E402
from clawforge.expr import (ZERO, Jet, NonlinearError, Param,  # noqa: E402
                            Unknown, _sorted_expr, collect, pdiff,
                            substitute)
from clawforge.lawgen import (_euler_residuals, _instantiate,  # noqa: E402
                              formal_lagrangian, symmetry_flux, verify)
from clawforge.modelfile import (ansatz_spaces, laws_from_text,  # noqa: E402
                                 parse_model_text)
from clawforge.parse import parse  # noqa: E402

from helpers import (RADICALS, jet_polys, jet_pool,  # noqa: E402
                     perfbench_workloads, total_derivative_mi)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

# the tests over `components` report the first failing example as drawn:
# shrinking one of those takes minutes and hundreds of MB, and explaining
# needs a shrunk example
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


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


# -- verify: reduce each component, then differentiate ------------------------

def _outcome(f):
    """f()'s value, or the type of the exception it raises."""
    try:
        return "value", f()
    except Exception as exc:
        return "raises", type(exc)


def _check_verify(system, T):
    assert _outcome(lambda: verify(system, T)) == \
        _outcome(lambda: system.reduce(divergence(T, system.table)))


def _opaque(entry):
    """Opaque powers: the radicals of the normal-form tests, the inverse of
    an equation, whose base reduces to zero so that both sides must raise,
    and powers of bases that hold a leading jet."""
    eq = entry.system.equations[0]
    texts = list(RADICALS) + [f"({eq.expr})^(-1)"]
    if entry.table.n == 2:
        lead, dep = eq.lead.as_expr(), entry.table.jet_by_alpha(0).as_expr()
        texts += [f"({lead} + {dep})^(1/2)", f"(1 + {lead}^2)^(-1/2)"]
    return [parse(t, entry.table) for t in texts]


def components(entry, opts):
    """A component: a polynomial that holds a leading jet or one that need
    not, optionally times an opaque power, plus optionally a parameter
    times another polynomial, as in the parametrized T of the mixed route;
    function symbols wherever the model declares them.  gas3d's leading
    jets have images of four to six terms; with derivatives of them, or
    powers of bases that hold them, one example can take most of a minute,
    so with more than two independent variables a component draws only
    jets up to first order (leading jets among them) and only the fixed
    radicals."""
    opts = dict(opts, with_funcs=bool(entry.table.funcs))
    polys = model_polys(entry, **opts)
    head = polys
    if entry.table.n == 2:
        head = st.one_of(principal_polys(entry, **opts), polys)
    opaque = st.one_of(st.none(), st.sampled_from(_opaque(entry)))
    param = st.one_of(st.none(), st.sampled_from(
        [Param("c0").as_expr(), Param("c1").as_expr() / 2]))

    def build(args):
        a, r, c, b = args
        e = a if r is None else a * r
        return e if c is None else e + c * b

    return st.tuples(head, opaque, param, polys).map(build)


# (model, strategy options, examples): n components of principal jets
# differentiate into large unreduced divergences, so fewer and shorter
VERIFY_CASES = [
    ("kdv", {"max_order": 2, "max_factors": 2, "max_terms": 2}, 15),
    ("fw", {"max_order": 2, "max_factors": 2, "max_terms": 2}, 15),
    ("sp", {"max_order": 2, "max_factors": 2, "max_terms": 2}, 15),
    ("gas1d", {"max_order": 1, "max_factors": 2, "max_terms": 2}, 12),
    ("gas3d", {"max_order": 1, "max_factors": 1, "max_terms": 2}, 6),
]


@pytest.mark.parametrize("name,opts,examples", VERIFY_CASES,
                         ids=[c[0] for c in VERIFY_CASES])
def test_verify_equals_reduced_divergence(models, name, opts, examples):
    entry = models[name]
    comps = components(entry, opts)

    @settings(max_examples=examples, deadline=None, derandomize=True,
              phases=NO_SHRINK)
    @given(T=st.tuples(*[comps] * entry.table.n))
    def check(T):
        _check_verify(entry.system, list(T))

    check()


def test_verify_equals_reduced_divergence_on_reference_laws(models):
    for entry in models.values():
        for law in entry.laws.values():
            _check_verify(entry.system, list(law.components))
    assert len(models["gas3d"].laws) == 14


def test_verify_equals_reduced_divergence_on_seeded_candidates(gas3d):
    workloads = perfbench_workloads()
    for seed in range(1, 6):
        for text, expected in workloads.verify_files(random.Random(seed)):
            laws = laws_from_text(text, gas3d.table)
            assert set(laws) == set(expected)
            for law in laws.values():
                _check_verify(gas3d.system, list(law.components))


def test_verify_equals_reduced_divergence_on_mixed_ansatz(models):
    # T = C + H of the mixed route over each model's own ansatz, before its
    # parameters are solved for
    for name in ("kdv", "fw", "sp", "gas1d"):
        entry = models[name]
        spaces = ansatz_spaces(entry)
        L = formal_lagrangian(entry.system, [a.expr for a in spaces["psi"]])
        for g in entry.generators.values():
            C = symmetry_flux(L, g, entry.system)
            _check_verify(entry.system,
                          [c + a.expr for c, a in zip(C, spaces["h"])])


def test_verify_rejects_a_wrong_component_count(kdv):
    T = [parse("u", kdv.table)]
    assert _outcome(lambda: verify(kdv.system, T)) == ("raises", ValueError)
    _check_verify(kdv.system, T)


# -- the gradient: one pass over the terms gives every partial ----------------

def per_jet_partials(e):
    """The reference: one `pdiff` pass over e per jet it holds, as the
    Euler operator took its partials before the gradient."""
    return {a: pdiff(e, a) for a in e.atoms() if isinstance(a, Jet)}


def per_jet_euler(e, alpha):
    """The reference Euler operator: the sum over the jets u^alpha_J of e
    of (-1)^|J| D_J pdiff(e, u^alpha_J), one pdiff pass per jet."""
    out = ZERO
    for a, d in per_jet_partials(e).items():
        if a.alpha == alpha:
            out = out + (-1) ** a.order * total_derivative_mi(d, a.mi)
    return out


# (model, strategy options, examples): the components above, with function
# symbols in gas1d and gas3d, opaque powers everywhere and parameters
GRADIENT_CASES = [
    ("kdv", {"max_order": 3, "max_factors": 2, "max_terms": 3}, 30),
    ("sp", {"max_order": 2, "max_factors": 2, "max_terms": 2}, 30),
    ("gas1d", {"max_order": 2, "max_factors": 2, "max_terms": 2}, 30),
    ("gas3d", {"max_order": 1, "max_factors": 2, "max_terms": 2}, 10),
]


@pytest.mark.parametrize("name,opts,examples", GRADIENT_CASES,
                         ids=[c[0] for c in GRADIENT_CASES])
def test_gradient_matches_per_jet_pdiff(models, name, opts, examples):
    entry = models[name]
    table = entry.table

    @settings(max_examples=examples, deadline=None, derandomize=True,
              phases=NO_SHRINK)
    @given(e=components(entry, opts))
    def check(e):
        grad = _gradient(e.terms)
        partials = per_jet_partials(e)
        assert set(grad) == set(partials)
        for a, d in partials.items():
            assert _sorted_expr(grad[a]) == d
        expected = [per_jet_euler(e, alpha) for alpha in range(table.m)]
        assert [euler(e, alpha, table) for alpha in range(table.m)] == expected
        assert [_sorted_expr(E) for E in _euler_residuals(e.terms, table)] \
            == expected

    check()


def test_gradient_serves_every_formal_lagrangian_partial(models):
    # L = psi^a F_a over each model's own psi ansatz and, for gas3d, five
    # reference densities as psi, one with a rational power of rho
    for name, entry in models.items():
        table, system = entry.table, entry.system
        if name == "gas3d":
            psi = [entry.laws[law].components[0] for law in
                   ("entropy", "energy", "mass", "momentum-x", "angular-z")]
        else:
            psi = [a.expr for a in ansatz_spaces(entry)["psi"]]
        L = formal_lagrangian(system, psi)
        grad = _gradient(L.terms)
        for a, d in per_jet_partials(L).items():
            assert _sorted_expr(grad[a]) == d
        assert [_sorted_expr(E) for E in _euler_residuals(L.terms, table)] \
            == [per_jet_euler(L, alpha) for alpha in range(table.m)]


# -- instantiation: a combination of the collected form -----------------------

# unknowns named like the parameters that `components` draws, which stay
# part of the keys
UNKNOWNS = [Unknown("c0"), Unknown("c1"), Unknown("a2")]


@pytest.mark.parametrize("name,opts,examples", GRADIENT_CASES,
                         ids=[c[0] for c in GRADIENT_CASES])
def test_instantiate_matches_substitute(models, name, opts, examples):
    comps = components(models[name], opts)
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    @settings(max_examples=examples, deadline=None, derandomize=True,
              phases=NO_SHRINK)
    @given(parts=st.lists(comps, min_size=len(UNKNOWNS) + 1,
                          max_size=len(UNKNOWNS) + 1),
           vals=st.lists(st.one_of(st.just(0), values),
                         min_size=len(UNKNOWNS), max_size=len(UNKNOWNS)))
    def check(parts, vals):
        e = parts[0]
        for p, b in zip(UNKNOWNS, parts[1:]):
            e = e + p * b
        column = {p: i for i, p in enumerate(UNKNOWNS)}
        form = collect(e, column)
        assert all(c for coeffs in form.values() for c in coeffs.values())
        (got,), = _instantiate([e], column, [vals])
        assert got == substitute(e, dict(zip(UNKNOWNS, vals)))
        b = parts[1]
        if not b.is_zero:
            c0, c1 = UNKNOWNS[:2]
            with pytest.raises(NonlinearError):
                collect(c0 * c1 * b, set(UNKNOWNS))
            with pytest.raises(NonlinearError):
                collect(c0 ** 2 * b, set(UNKNOWNS))

    check()
