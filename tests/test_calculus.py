import itertools
from fractions import Fraction

import pytest

from clawforge.calculus import (Equation, Generator, PdeSystem, Prolongation,
                                SolvedFormError, divergence, euler,
                                symmetry_residual, total_derivative)
from clawforge.expr import (ZERO, Atom, DomainError, Expr, FuncSym, Jet,
                            SymbolTable, pdiff, substitute)
from clawforge.lawgen import formal_lagrangian
from clawforge.parse import parse

from helpers import (RADICALS, jet_polys, jet_pool, jet_terms, reference_zeta,
                     sym, to_sympy, two_var_table)


@pytest.fixture()
def tab():
    return SymbolTable(["t", "x"], ["u"])


def P(tab, s):
    return parse(s, tab)


def kdv_system(tab):
    return PdeSystem("kdv", tab,
                     [Equation(tab.jet("u", ["t"]), P(tab, "u[x,x,x]+u*u[x]"))])


# -- total derivatives ---------------------------------------------------------

def test_total_derivative_basics(tab):
    t, x = tab.indep
    assert total_derivative(P(tab, "u"), x) == P(tab, "u[x]")
    assert total_derivative(P(tab, "u[x,x] + u^2/2"), x) == \
        P(tab, "u[x,x,x] + u*u[x]")
    assert total_derivative(P(tab, "(1+u[x]^2)^(1/2)"), t) == \
        P(tab, "u[x]*u[t,x]*(1+u[x]^2)^(-1/2)")


def test_total_derivative_explicit_dependence(tab):
    t, x = tab.indep
    assert total_derivative(P(tab, "t*x"), x) == P(tab, "t")


def test_total_derivatives_commute_random():
    hyp = pytest.importorskip("hypothesis")
    tab = two_var_table()
    t, x = tab.indep

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(e=jet_polys(hyp.strategies, tab))
    def check(e):
        assert total_derivative(total_derivative(e, t), x) == \
            total_derivative(total_derivative(e, x), t)

    check()


def test_total_derivative_leibniz_random():
    hyp = pytest.importorskip("hypothesis")
    tab = two_var_table()
    x = tab.indep[1]
    polys = jet_polys(hyp.strategies, tab, max_terms=3)

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(e=polys, f=polys)
    def check(e, f):
        assert total_derivative(e * f, x) == \
            total_derivative(e, x) * f + e * total_derivative(f, x)

    check()


# -- euler operator --------------------------------------------------------------

def test_euler_basics(tab):
    assert euler(P(tab, "u[x]^2/2"), 0, tab) == P(tab, "-u[x,x]")
    assert euler(P(tab, "u*(u[t]-u[x,x,x]-u*u[x])"), 0, tab).is_zero


def test_euler_annihilates_divergences_random():
    hyp = pytest.importorskip("hypothesis")
    tab = two_var_table()
    polys = jet_polys(hyp.strategies, tab, max_terms=3)

    @hyp.settings(max_examples=30, deadline=None, derandomize=True)
    @hyp.given(T=hyp.strategies.lists(polys, min_size=2, max_size=2))
    def check(T):
        assert euler(divergence(T, tab), 0, tab).is_zero

    check()


# -- divergence ------------------------------------------------------------------

def test_divergence_examples(tab):
    assert divergence([P(tab, "u"), P(tab, "-u")], tab) == \
        P(tab, "u[t] - u[x]")
    assert divergence([P(tab, "u^2"), P(tab, "0")], tab) == \
        P(tab, "2*u*u[t]")


def test_divergence_length_mismatch(tab):
    with pytest.raises(ValueError):
        divergence([P(tab, "u")], tab)


def test_divergence_radical_law_reduces_to_zero():
    tab = two_var_table()
    sp = PdeSystem("sp", tab,
                   [Equation(tab.jet("u", ["t", "x"]),
                             parse("u + u^2*u[x,x]/2 + u*u[x]^2", tab))])
    d = divergence([parse("(1+u[x]^2)^(1/2)", tab),
                    parse("-u^2/2*(1+u[x]^2)^(1/2)", tab)], tab)
    assert sp.reduce(d).is_zero


# -- reduction modulo the system --------------------------------------------------

def test_reduce_examples(tab):
    kdv = kdv_system(tab)
    assert kdv.reduce(P(tab, "u[t] - u[x,x,x] - u*u[x]")).is_zero
    assert kdv.reduce(P(tab, "u[t,x]")) == \
        P(tab, "u[x,x,x,x] + u[x]^2 + u*u[x,x]")
    assert kdv.reduce(P(tab, "u^2")) == P(tab, "u^2")


def test_reduce_idempotent_random(tab):
    hyp = pytest.importorskip("hypothesis")
    kdv = kdv_system(tab)

    @hyp.settings(max_examples=25, deadline=None, derandomize=True)
    @hyp.given(e=jet_polys(hyp.strategies, tab))
    def check(e):
        r = kdv.reduce(e)
        assert kdv.reduce(r) == r

    check()


def test_reduce_many_jets_in_one_pass(kdv):
    # 55 distinct reducible jets u[t,x^k], k = 1..55: more than a per-jet
    # pass count would allow, reduced by one simultaneous substitution
    system = kdv.system
    jets = [kdv.table.jet("u", ["t"] + ["x"] * k) for k in range(1, 56)]
    e = P(kdv.table, " + ".join(repr(a) for a in jets))
    r = system.reduce(e)
    assert len(r.terms) == 894
    assert system.reduce(r) == r
    total = P(kdv.table, "0")
    for a in jets:
        total = total + system.reduce(a.as_expr())
    assert r == total


def test_reduce_corpus_equations_vanish(models):
    for entry in models.values():
        for eq in entry.system.equations:
            assert entry.system.reduce(eq.expr).is_zero


def test_solved_form_validation(tab):
    with pytest.raises(SolvedFormError):
        PdeSystem("bad", tab, [
            Equation(tab.jet("u", ["t"]), P(tab, "u[x]")),
            Equation(tab.jet("u", ["t", "x"]), P(tab, "u")),
        ])
    with pytest.raises(SolvedFormError):
        PdeSystem("bad2", tab,
                  [Equation(tab.jet("u", ["t"]), P(tab, "u[t,x]"))])


# -- prolongation and symmetry checks ----------------------------------------------

def test_prolong_translation_is_zero(tab):
    g = Generator((P(tab, "1"), P(tab, "0")), (P(tab, "0"),), label="dt")
    assert Prolongation(g, tab).zeta(0, [tab.indep[1]]).is_zero


def test_prolong_scaling(tab):
    g = Generator((P(tab, "3*t"), P(tab, "x")), (P(tab, "-2*u"),), label="X2")
    assert Prolongation(g, tab).zeta(0, [tab.indep[1]]) == P(tab, "-3*u[x]")


def test_prolong_galilei(tab):
    g = Generator((P(tab, "0"), P(tab, "t")), (P(tab, "-1"),), label="X1")
    pro = Prolongation(g, tab)
    assert pro.zeta(0, [tab.indep[1]]).is_zero
    assert pro.zeta(0, [tab.indep[0]]) == P(tab, "-u[x]")


def test_prolong_matches_reference_recursion(models):
    # zeta = D_J W + xi^k u_{J,k} from the shared memo against the
    # recursion on zeta itself, for every ordering of each J up to order 3
    for model in models.values():
        table = model.table
        for g in model.generators.values():
            assert g.is_point()
            pro = Prolongation(g, table)
            for alpha in range(table.m):
                for k in range(4):
                    for J in itertools.product(table.indep, repeat=k):
                        assert pro.zeta(alpha, J) == \
                            reference_zeta(g, table, alpha, J), (g.label, J)


def test_prolong_rejects_generalized_generators(tab):
    g = Generator((P(tab, "0"), P(tab, "u[x]")), (P(tab, "0"),), label="gen")
    with pytest.raises(ValueError):
        Prolongation(g, tab).zeta(0, [tab.indep[1]])


def test_symmetry_residuals_kdv(tab):
    kdv = kdv_system(tab)
    X2 = Generator((P(tab, "3*t"), P(tab, "x")), (P(tab, "-2*u"),), label="X2")
    X4 = Generator((P(tab, "0"), P(tab, "1")), (P(tab, "0"),), label="X4")
    assert all(r.is_zero for r in symmetry_residual(X2, kdv))
    assert all(r.is_zero for r in symmetry_residual(X4, kdv))
    not_sym = Generator((P(tab, "0"), P(tab, "0")), (P(tab, "u"),), label="u du")
    res = symmetry_residual(not_sym, kdv)
    assert res[0] == P(tab, "-u*u[x]")


def test_generator_validation_rejects_stray_parameters():
    tab = SymbolTable(["t", "x"], ["u"], params=["a1"])
    with pytest.raises(ValueError):
        Generator((parse("a1", tab), parse("0", tab)), (parse("0", tab),))
    g = Generator((parse("a1", tab), parse("0", tab)), (parse("0", tab),),
                  parametrized=True)
    assert g.parametrized


# -- kernel properties (hypothesis) and the sympy oracle ----------------------

# function-symbol factors and rational powers of polynomial bases that the
# kernel strategies multiply into jet monomials
KERNEL_SPECIALS = RADICALS + ("f(u+t)", "f(u[x])", "f'(u)*u[x]")


def _kernel_table():
    return SymbolTable(["t", "x"], ["u"], funcs=["f"])


def _kernel_exprs(st, tab, specials=KERNEL_SPECIALS):
    return st.lists(jet_terms(st, tab, specials), min_size=1,
                    max_size=4).map(lambda parts: sum(parts, ZERO))


def _total_derivative_fold(e, v):
    """The definition: D_v e = de/dv + sum over the jets a of e of
    de/da * a_v, one pdiff pass per jet and one addition per jet."""
    out = pdiff(e, v)
    for a in e.atoms():
        if isinstance(a, Jet):
            out = out + pdiff(e, a) * a.shifted(v)
    return out


def _substitute_per_factor(e, subs):
    """Each term rebuilt as its coefficient times each factor, replaced or
    not, multiplied in one at a time."""
    out = ZERO
    for coeff, factors in e.terms:
        cur = Expr.const(coeff)
        for b, k in factors:
            if b in subs:
                piece = subs[b] ** k
            elif isinstance(b, FuncSym):
                arg = _substitute_per_factor(b.arg, subs)
                piece = FuncSym(b.name, b.order, arg).as_expr() ** k
            elif isinstance(b, Atom):
                piece = b.as_expr() ** k
            else:
                piece = _substitute_per_factor(b, subs) ** k
            cur = cur * piece
        out = out + cur
    return out


def test_total_derivative_single_pass_matches_fold():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = _kernel_table()

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(e=_kernel_exprs(st, tab), v=st.sampled_from(tab.indep))
    def check(e, v):
        assert total_derivative(e, v) == _total_derivative_fold(e, v)

    check()


def test_total_derivatives_commute_with_functions_and_radicals():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = _kernel_table()
    t, x = tab.indep

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(e=_kernel_exprs(st, tab))
    def check(e):
        assert total_derivative(total_derivative(e, t), x) == \
            total_derivative(total_derivative(e, x), t)

    check()


def test_euler_annihilates_divergences_with_functions_and_radicals():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = _kernel_table()

    @hyp.settings(max_examples=30, deadline=None, derandomize=True)
    @hyp.given(T=st.tuples(_kernel_exprs(st, tab), _kernel_exprs(st, tab)))
    def check(T):
        assert euler(divergence(list(T), tab), 0, tab).is_zero

    check()


def test_substitute_matches_per_factor_product():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = _kernel_table()
    keys = [next(iter(p.atoms())) for p in jet_pool(tab, 2)]
    polys = _kernel_exprs(st, tab, specials=())

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(e=_kernel_exprs(st, tab),
               subs=st.dictionaries(st.sampled_from(keys), polys,
                                    min_size=1, max_size=3))
    def check(e, subs):
        try:
            expected = _substitute_per_factor(e, subs)
        except DomainError:
            # a replaced opaque base became zero under a negative power
            with pytest.raises(DomainError):
                substitute(e, subs)
            return
        assert substitute(e, subs) == expected

    check()


def test_pdiff_and_total_derivative_match_sympy():
    """pdiff by every atom and D_v by every variable against sympy, on
    jet monomials that may carry one of the RADICALS opaque powers.  A
    difference that `expand` leaves nonzero (the normal form moves exact
    multiples of a base into its power) must vanish at two points with
    positive rational coordinates, where every base is positive."""
    sympy = pytest.importorskip("sympy")
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = two_var_table()
    atoms = [next(iter(p.atoms())) for p in jet_pool(tab, 2)]

    # a value for every atom that D_v can produce
    points = [{sym(next(iter(p.atoms()))): sympy.Rational(k % 7 + 1 + j,
                                                         k % 5 + 2)
               for k, p in enumerate(jet_pool(tab, 3))} for j in range(2)]

    def same(ours, ref):
        d = sympy.expand(to_sympy(ours) - ref)
        return d == 0 or all(abs(sympy.N(d.subs(p), 50)) < 1e-40
                             for p in points)

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(e=_kernel_exprs(st, tab, specials=RADICALS))
    def check(e):
        E = to_sympy(e)
        for a in atoms:
            assert same(pdiff(e, a), sympy.diff(E, sym(a)))
        jets = [a for a in e.atoms() if isinstance(a, Jet)]
        for v in tab.indep:
            # D_v spelled out: explicit v-dependence plus the chain rule
            # through every jet, each advanced by one v-derivative
            D = sympy.diff(E, sym(v)) + sum(
                (sympy.diff(E, sym(a)) * sym(a.shifted(v)) for a in jets),
                sympy.Integer(0))
            assert same(total_derivative(e, v), D)

    check()


def test_function_symbol_chain_rule():
    """D_v f(g) == f'(g) * D_v g and pdiff(f(g), a) == f'(g) * pdiff(g, a)
    for jet polynomials g, whose derivatives the sympy test above checks;
    the same through a product of function symbols and an opaque power of
    one; and f(u) is itself an atom that pdiff can differentiate by."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = _kernel_table()
    atoms = [next(iter(p.atoms())) for p in jet_pool(tab, 2)]

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(g=_kernel_exprs(st, tab, specials=()))
    def check(g):
        f = tab.func("f", 0, g).as_expr()
        f1, f2 = tab.func("f", 1, g).as_expr(), tab.func("f", 2, g).as_expr()
        for v in tab.indep:
            dg = total_derivative(g, v)
            assert total_derivative(f, v) == f1 * dg
            assert total_derivative(f * f1, v) == (f1 ** 2 + f * f2) * dg
        for a in atoms:
            dg = pdiff(g, a)
            assert pdiff(f, a) == f1 * dg
            # an opaque base that holds a function symbol
            r = (1 + f ** 2) ** Fraction(1, 2)
            assert pdiff(r, a) == f * f1 * dg / r

    check()
    u = tab.jet("u")
    fu = tab.func("f", 0, u.as_expr())
    assert pdiff(fu ** 2, fu) == 2 * fu
    assert pdiff(fu ** 2, u) == 2 * fu * P(tab, "f'(u)")


def test_euler_matches_sympy(models):
    """euler against the Euler operator spelled out in sympy, on formal
    Lagrangians psi^a F_a of kdv, gas1d and gas3d (negative powers of rho
    included) plus a jet polynomial: sum over the jets u^alpha_J of L of
    (-D)^J dL/du^alpha_J, with D_v the explicit v-derivative plus the chain
    rule through every jet."""
    sympy = pytest.importorskip("sympy")
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def D(E, v, jets):
        # jets maps each jet symbol met so far to its Jet
        out = sympy.diff(E, sym(v))
        for s in E.free_symbols:
            if s in jets:
                shifted = jets[s].shifted(v)
                jets[sym(shifted)] = shifted
                out += sympy.diff(E, s) * sym(shifted)
        return out

    def sympy_euler(E, alpha, jets):
        out = sympy.Integer(0)
        for s in E.free_symbols:
            a = jets.get(s)
            if a is not None and a.alpha == alpha:
                d = sympy.diff(E, s)
                for v in a.mi:
                    d = D(d, v, jets)
                out += (-1) ** a.order * d
        return out

    for name, examples in (("kdv", 10), ("gas1d", 6), ("gas3d", 3)):
        entry = models[name]
        table, system = entry.table, entry.system
        polys = jet_polys(st, table, max_order=1, max_terms=2, max_factors=2)
        k = len(system.equations)

        @hyp.settings(max_examples=examples, deadline=None, derandomize=True)
        @hyp.given(psi=st.lists(polys, min_size=k, max_size=k), extra=polys)
        def check(psi, extra):
            e = formal_lagrangian(system, psi) + extra
            jets = {sym(a): a for a in e.atoms() if isinstance(a, Jet)}
            E = to_sympy(e)
            for alpha in range(table.m):
                assert sympy.expand(to_sympy(euler(e, alpha, table))
                                    - sympy_euler(E, alpha, jets)) == 0

        check()
