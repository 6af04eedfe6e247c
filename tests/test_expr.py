import itertools
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from clawforge.expr import (ZERO, Atom, DomainError, Expr, FuncSym, IndepVar,
                            Jet, NonlinearError, Param, SymbolTable, Unknown,
                            _build, _expand_term, _num, _term_product,
                            collect, make_power, pdiff, substitute)
from clawforge.lawgen import make_ansatz
from clawforge.parse import parse

from helpers import RADICALS, jet_polys, jet_pool, jet_terms, two_var_table


@pytest.fixture()
def tab():
    return SymbolTable(["t", "x"], ["u"], params=["c0", "c1"], funcs=["f"])


def P(tab, s):
    return parse(s, tab)


# -- normal forms ------------------------------------------------------------

def test_zero_is_empty(tab):
    assert P(tab, "0").is_zero
    assert (P(tab, "u") - P(tab, "u")).is_zero


def test_like_terms_merge(tab):
    assert P(tab, "u + u") == P(tab, "2*u")
    assert P(tab, "u*u[x] + u[x]*u") == P(tab, "2*u*u[x]")


def test_integer_powers_of_sums_expand(tab):
    assert P(tab, "(1+u)^2") == P(tab, "1 + 2*u + u^2")
    assert P(tab, "(u+u[x])^3").is_polynomial()


def test_radical_bases_merge_by_exponent(tab):
    r = P(tab, "(1+u[x]^2)^(1/2)")
    assert r * r == P(tab, "1+u[x]^2")
    assert (r ** 3) / r == P(tab, "1+u[x]^2")
    assert (P(tab, "(1+u[x]^2)^(-3/2)") * P(tab, "(1+u[x]^2)^2")
            == P(tab, "(1+u[x]^2)^(1/2)"))


def test_radical_cancellation_is_syntactic_zero(tab):
    u, ux = tab.jet("u"), tab.jet("u", ["x"])
    r = P(tab, "(1+u[x]^2)^(1/2)")
    e = u * ux * r - u * ux / r - u * ux ** 3 / r
    assert e.is_zero


def test_fractional_atom_powers():
    tab = SymbolTable(["t", "x"], ["rho", "p"])
    e = parse("rho^(-5/3)*rho^(5/3)", tab)
    assert e == Expr.const(1)
    d = pdiff(parse("p*rho^(-5/3)", tab), tab.jet("rho"))
    assert d == parse("-5/3*p*rho^(-8/3)", tab)


def test_rational_scalar_roots(tab):
    assert P(tab, "(4*u^2)^(1/2)") == P(tab, "2*u")
    assert P(tab, "(4/9)^(1/2)") == Expr.const(Fraction(2, 3))


def test_exact_roots_of_large_integers(tab):
    k = 10**20 + 7
    assert P(tab, f"({k * k})^(1/2) - {k}").is_zero
    assert P(tab, f"({k**3})^(1/3) - {k}").is_zero
    assert P(tab, f"({k**5}*u^5)^(1/5)") == Expr.const(k) * P(tab, "u")
    assert not P(tab, f"({k * k + 1})^(1/2)").is_rational()
    assert not P(tab, f"({k**3 - 1})^(1/3)").is_rational()


def test_root_beyond_float_range(tab):
    assert P(tab, "(10^400)^(1/2)") == Expr.const(10**200)
    assert P(tab, "(10^399)^(1/3)") == Expr.const(10**133)
    assert not P(tab, "(10^400)^(1/3)").is_rational()
    assert not P(tab, "(10^400+1)^(1/2)").is_rational()


def test_radicals_of_perfect_powers_collapse():
    """(q^k * m^k)^(j/k) is q^j * m^j for a positive rational q, large ones
    included, a jet monomial m and any exponent j/k, by make_power and by
    the parser; 2*q^k is never a perfect k-th power."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = two_var_table()
    factor = st.tuples(st.sampled_from(jet_pool(tab, 2)), st.integers(1, 3))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(q=st.builds(Fraction, st.integers(1, 10**30),
                           st.integers(1, 10**6)),
               k=st.integers(2, 7), j=st.integers(-3, 3).filter(bool),
               factors=st.lists(factor, max_size=3))
    def check(q, k, j, factors):
        m = Expr.const(q)
        for a, n in factors:
            m = m * a ** n
        base = m ** k
        assert make_power(base, Fraction(j, k)) == m ** j
        assert parse(f"({base})^({j}/{k})", tab) == m ** j
        assert not make_power(Expr.const(2 * q ** k), Fraction(1, k)).is_rational()

    check()


@pytest.mark.xfail(strict=True, reason="2^(3/2) and 2*2^(1/2) are kept as "
                   "different normal forms of one number")
def test_radicals_of_a_rational_are_canonical(tab):
    assert P(tab, "2^(3/2) - 2*2^(1/2)").is_zero


@pytest.mark.xfail(strict=True, reason="the radical reduction of two opaque "
                   "bases depends on the order of multiplication")
def test_power_of_a_product_of_opaque_bases_is_canonical(tab):
    assert P(tab, "((t+u)^(1/3)*(1+u)^(1/2))^5"
                  " - (t+u)^(5/3)*(1+u)^(5/2)").is_zero


def test_zero_to_negative_power_raises(tab):
    with pytest.raises(DomainError):
        P(tab, "0") ** -1
    with pytest.raises(DomainError):
        substitute(P(tab, "u^(-1)"), {tab.jet("u"): P(tab, "0")})


def test_atom_order_stable_across_builds(tab):
    pieces = ["u*u[x]", "u[t]", "3*t*x", "u[x,x,x]", "c0*u^2"]
    rng = random.Random(11)
    reference = None
    for _ in range(6):
        rng.shuffle(pieces)
        total = P(tab, " + ".join(pieces))
        if reference is None:
            reference = str(total)
        assert str(total) == reference


# -- normal-form soundness properties ----------------------------------------

def test_addition_commutes_random():
    hyp = pytest.importorskip("hypothesis")
    polys = jet_polys(hyp.strategies, two_var_table())

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(a=polys, b=polys)
    def check(a, b):
        assert a + b == b + a

    check()


def test_multiplication_distributes_random():
    hyp = pytest.importorskip("hypothesis")
    polys = jet_polys(hyp.strategies, two_var_table(), max_terms=3)

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(e=polys, f=polys, g=polys)
    def check(e, f, g):
        assert e * (f + g) == e * f + e * g

    check()


def test_self_subtraction_random():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(e=jet_polys(hyp.strategies, two_var_table()))
    def check(e):
        assert (e - e).is_zero

    check()


# -- pdiff -------------------------------------------------------------------

def test_pdiff_basics(tab):
    u = tab.jet("u")
    ux = tab.jet("u", ["x"])
    assert pdiff(P(tab, "u^2/2"), u) == P(tab, "u")
    assert pdiff(P(tab, "u*u[x]"), ux) == P(tab, "u")
    assert pdiff(P(tab, "(1+u[x]^2)^(1/2)"), ux) == \
        P(tab, "u[x]*(1+u[x]^2)^(-1/2)")


def test_pdiff_constant_is_zero(tab):
    assert pdiff(P(tab, "c0 + 7"), tab.jet("u")).is_zero


def test_pdiff_chain_rule_function_symbols(tab):
    u = tab.jet("u")
    d = pdiff(P(tab, "f(u^2)"), u)
    assert d == P(tab, "2*u*f'(u^2)")
    d2 = pdiff(P(tab, "f'(u^2)"), u)
    assert d2 == P(tab, "2*u*f''(u^2)")


def test_pdiff_is_derivation_random():
    hyp = pytest.importorskip("hypothesis")
    tab = two_var_table()
    u = tab.jet("u")
    polys = jet_polys(hyp.strategies, tab, max_terms=3)

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(e=polys, f=polys)
    def check(e, f):
        assert pdiff(e * f, u) == pdiff(e, u) * f + e * pdiff(f, u)

    check()


# -- substitute ----------------------------------------------------------------

def test_substitute_solved_form(tab):
    e = P(tab, "u[t] - u[x,x,x] - u*u[x]")
    out = substitute(e, {tab.jet("u", ["t"]): P(tab, "u[x,x,x] + u*u[x]")})
    assert out.is_zero


def test_substitute_param(tab):
    v = tab.params["c0"]
    assert substitute(P(tab, "c0*u[x]"), {v: P(tab, "u")}) == P(tab, "u*u[x]")


def test_substitute_function_symbol_atom(tab):
    e = P(tab, "f(t)*u")
    atom = FuncSym("f", 0, P(tab, "t"))
    assert substitute(e, {atom: Expr.const(1)}) == P(tab, "u")


def test_substitute_inside_function_argument(tab):
    e = P(tab, "f(u^2)")
    out = substitute(e, {tab.jet("u"): P(tab, "t")})
    assert out == P(tab, "f(t^2)")


def test_substitute_inside_radical(tab):
    e = P(tab, "(1+u[x]^2)^(1/2)")
    out = substitute(e, {tab.jet("u", ["x"]): P(tab, "0")})
    assert out == Expr.const(1)


def test_substitute_simultaneous(tab):
    # keys are replaced at once: a value is not itself substituted into
    t, x = tab.indep
    e = P(tab, "t*u + x^2")
    assert substitute(e, {t: x.as_expr(), x: t.as_expr()}) == P(tab, "x*u + t^2")


def test_substitute_touched_and_untouched_terms_agree(tab):
    # untouched terms pass through as they are; touched ones are rebuilt.
    # Both routes must give the same normal form.
    u, ux = tab.jet("u"), tab.jet("u", ["x"])
    touched = P(tab, "c0*u^2*f(u)*(1+u[x]^2)^(1/2) + 3*t*u*(1+u^2)^(-1)")
    untouched = P(tab, "c1*x*f(t)*u[x]^2*(1+u[x]^2)^(1/2) + 2*u[t]")
    e = touched + untouched
    assert substitute(e, {u: u.as_expr()}) == e
    assert substitute(untouched, {u: P(tab, "t")}) == untouched
    subs = {u: P(tab, "t + u[t]")}
    assert substitute(e, subs) == substitute(touched, subs) + untouched
    # touching every term through an identity key changes nothing either
    assert substitute(e, {u: u.as_expr(), ux: ux.as_expr()}) == e


# -- collect -------------------------------------------------------------------

def test_collect_basic(tab):
    c0, c1 = tab.params["c0"], tab.params["c1"]
    got = collect(P(tab, "c0*u[x] + c1*u*u[x]"), {c0, c1})
    keys = {str(Expr(((1, k),))): form for k, form in got.items()}
    assert keys == {"u[x]": {c0: 1}, "u*u[x]": {c1: 1}}


def test_collect_zero(tab):
    assert collect(P(tab, "0"), {tab.params["c0"]}) == {}


def test_collect_nonlinear_raises(tab):
    c0, c1 = tab.params["c0"], tab.params["c1"]
    with pytest.raises(NonlinearError):
        collect(P(tab, "c0*c1*u"), {c0, c1})
    with pytest.raises(NonlinearError):
        collect(P(tab, "c0^2*u"), {c0, c1})


def test_collect_constant_part(tab):
    c0 = tab.params["c0"]
    got = collect(P(tab, "u + c0*u"), {c0})
    (key, form), = got.items()
    assert str(Expr(((1, key),))) == "u"
    assert form == {None: 1, c0: 1}


def test_unknown_prints_like_a_param_but_never_equals_one(tab):
    c0, u0 = tab.params["c0"], Unknown("c0")
    assert isinstance(u0, Param) and repr(u0) == repr(c0) == "c0"
    assert u0 != c0 and c0 != u0 and len({u0, c0}) == 2
    assert u0 == Unknown("c0")
    # the parameter stays in the key
    (key, form), = collect(c0 * u0 + 2 * c0, {u0}).items()
    assert key == ((c0, 1),) and form == {None: 2, u0: 1}


# -- misc ----------------------------------------------------------------------

def test_make_power_non_polynomial_base_rejected(tab):
    with pytest.raises(DomainError):
        make_power(P(tab, "1 + u^(-1)"), Fraction(1, 2))


def test_division_by_sum_gives_base_adic_form(tab):
    e = P(tab, "u/(1+u)")
    assert e == P(tab, "1 - (1+u)^(-1)")
    assert e * P(tab, "1+u") == P(tab, "u")


def test_pdiff_powers_of_function_symbols(tab):
    u = tab.jet("u")
    assert pdiff(P(tab, "f(u)^2"), u) == P(tab, "2*f(u)*f'(u)")


def test_radical_difference_of_squares_random():
    hyp = pytest.importorskip("hypothesis")
    tab = two_var_table()
    tp = parse("(1+u[x]^2)^(1/2)", tab)
    polys = jet_polys(hyp.strategies, tab, max_terms=2)

    @hyp.settings(max_examples=25, deadline=None, derandomize=True)
    @hyp.given(p=polys, q=polys)
    def check(p, q):
        lhs = (p * tp + q) * (p * tp - q)
        rhs = p * p * parse("1+u[x]^2", tab) - q * q
        assert lhs == rhs

    check()


def test_radical_multiply_divide_roundtrip_random():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = two_var_table()
    base = parse("1+u[x]^2", tab)

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(e=jet_polys(st, tab, max_terms=3),
               exp_num=st.sampled_from((-3, -1, 1, 3)))
    def check(e, exp_num):
        r = make_power(base, Fraction(exp_num, 2))
        assert (e * r) / r == e
        assert (e / r) * r == e

    check()


def test_radical_associativity_random():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = two_var_table()
    r = parse("(1+u[x]^2)^(1/2)", tab)
    q = parse("(1+u[x]^2)^(-1)", tab)
    pool = st.sampled_from(
        [r, q, parse("u", tab), parse("1+u", tab), parse("u[x]", tab)])

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(a=pool, p=jet_polys(st, tab, max_terms=2), b=pool, c=pool)
    def check(a, p, b, c):
        a = a * p
        assert (a * b) * c == a * (b * c)

    check()


def test_power_exponent_addition_random():
    tab = two_var_table()
    rng = random.Random(108)
    base = parse("1 + u*u[x] + u[x]^2", tab)
    exps = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-2),
            Fraction(2), Fraction(1, 3)]
    for _ in range(30):
        e1, e2 = rng.choice(exps), rng.choice(exps)
        lhs = make_power(base, e1) * make_power(base, e2)
        rhs = make_power(base, e1 + e2)
        assert lhs == rhs, (e1, e2)


def test_radical_base_adic_uniqueness(tab):
    # two routes to the same function meet in the same normal form
    r_half = P(tab, "(1+u[x]^2)^(1/2)")
    a = P(tab, "(1 + u[x]^2 + u[x])") * P(tab, "(1+u[x]^2)^(-1/2)")
    b = r_half + P(tab, "u[x]") * P(tab, "(1+u[x]^2)^(-1/2)")
    assert a == b


# -- normal forms do not depend on how the terms arrive ----------------------

def test_build_ignores_term_order_and_grouping():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = two_var_table()

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(parts=st.lists(jet_terms(st, tab, RADICALS), min_size=1,
                              max_size=6),
               data=st.data())
    def check(parts, data):
        raw = [t for p in parts for t in p.terms]
        expected = _build(raw)
        assert expected == sum(parts, ZERO)
        shuffled = data.draw(st.permutations(raw))
        assert _build(shuffled) == expected
        cuts = data.draw(st.lists(st.integers(0, len(raw)), max_size=4))
        bounds = [0] + sorted(cuts) + [len(raw)]
        groups = [_build(shuffled[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert sum(groups, ZERO) == expected

    check()


def test_ansatz_expr_is_built_once_and_equals_the_fold():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = two_var_table()

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(parts=st.lists(jet_terms(st, tab, RADICALS), min_size=1,
                              max_size=6))
    def check(parts):
        basis = [b for b in dict.fromkeys(parts) if not b.is_zero]
        ansatz = make_ansatz(basis, "a")
        fold = ZERO
        for p, b in zip(ansatz.unknowns, ansatz.basis):
            fold = fold + p.as_expr() * b
        assert ansatz.expr == fold
        assert ansatz.expr is ansatz.expr

    check()


def _dict_sort_product(c1, f1, c2, f2):
    """The term product before the one-pass merge: exponents summed in a
    dict, then zero exponents dropped, the factors sorted and opaque bases
    at positive integer exponents expanded by `_expand_term`."""
    merged = dict(f1)
    for b, e in f2:
        cur = merged.get(b)
        merged[b] = e if cur is None else cur + e
    return _expand_term(c1 * c2, merged)


def _raw_terms(st, tab):
    """Hypothesis strategy for canonical terms built directly as factor
    tuples, so that drawing them runs no term product: atoms, function
    symbols and opaque polynomial bases, each at most once, under integer
    or rational exponents, sorted by base key."""
    atoms = [e.terms[0][1][0][0] for e in jet_pool(tab, 2)]
    u, ux = tab.jet("u"), tab.jet("u", ["x"])
    t, x = tab.indep
    funcs = [tab.func("f", 0, u.as_expr()), tab.func("f", 2, u + t)]
    opaque = [_build([(1, ()), (1, ((ux, 2),))]), u + t, ux + x,
              Expr.const(2)]
    atom_factor = st.tuples(st.sampled_from(atoms + funcs),
                            st.sampled_from([1, 2, 3, -1, Fraction(1, 2)]))
    opaque_factor = st.tuples(
        st.sampled_from(opaque),
        st.sampled_from([-1, -2, Fraction(1, 2), Fraction(-1, 2),
                         Fraction(3, 2)]))
    coeff = st.fractions(min_value=-4, max_value=4,
                         max_denominator=3).filter(bool)

    def build(args):
        c, factors = args
        distinct = dict(factors)
        return (_num(c), tuple(sorted(distinct.items(),
                                      key=lambda fe: fe[0]._bkey)))

    factors = st.lists(st.one_of(atom_factor, opaque_factor), max_size=4)
    return st.tuples(coeff, factors).map(build)


def test_term_product_merge_matches_dict_and_sort():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = SymbolTable(["t", "x"], ["u"], funcs=["f"])
    terms = st.lists(_raw_terms(st, tab), min_size=1, max_size=3)

    @hyp.settings(max_examples=100, deadline=None, derandomize=True)
    @hyp.given(left=terms, right=terms)
    def check(left, right):
        pairs = [(t1, t2) for t1 in left for t2 in right]
        pairs += [(t, t) for t in left]
        for (c1, f1), (c2, f2) in pairs:
            got = _term_product(c1, f1, c2, f2)
            want = _dict_sort_product(c1, f1, c2, f2)
            assert got == want
            assert [type(c) for c, _ in got] == [type(c) for c, _ in want]
            assert [type(e) for _, f in got for _, e in f] == \
                [type(e) for _, f in want for _, e in f]

    check()


def test_normal_forms_keep_opaque_bases_last():
    """`_normal` looks only at a term's last factor to decide whether the
    opaque-base reduction runs; that is sound because every normalized term
    keeps its factors sorted by `_bkey`, atoms (function symbols too)
    before opaque bases, and every base that is not an atom is an `Expr`,
    which is what it tests.  Checked on built terms, their products and
    their partial derivatives."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = SymbolTable(["t", "x"], ["u"], funcs=["f"])
    terms = st.lists(_raw_terms(st, tab), min_size=1, max_size=3)
    atoms = [e.terms[0][1][0][0] for e in jet_pool(tab, 2)]

    def check_terms(e):
        for _, f in e.terms:
            keys = [b._bkey for b, _ in f]
            assert keys == sorted(keys)
            opaque = [not isinstance(b, Atom) for b, _ in f]
            assert opaque == sorted(opaque)
            assert opaque == [type(b) is Expr for b, _ in f]

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(left=terms, right=terms, a=st.sampled_from(atoms))
    def check(left, right, a):
        x, y = _build(left), _build(right)
        for e in (x, y, x * y, x + y, pdiff(x * y, a)):
            check_terms(e)

    check()


# -- interned atoms ----------------------------------------------------------

# two numberings of the independent variables that agree on t
_INDEP = (("t", "x"), ("t", "y"))


def _old_key(a):
    """The sort key an atom had before keys held names: the order between
    atoms whose old keys differ must not move."""
    if isinstance(a, IndepVar):
        return (0, a.index)
    if isinstance(a, Jet):
        return (1, a.alpha, len(a.mi), tuple(v.index for v in a.mi))
    if isinstance(a, Unknown):
        return (4, a.name)
    if isinstance(a, Param):
        return (2, a.name)
    return (3, a.name, a.order, a.arg.sort_key())


def _build_atom(spec):
    """A new construction of the atom that `spec` describes."""
    kind, *data = spec
    if kind == "indep":
        names, i = _INDEP[data[0]], data[1]
        return IndepVar(i, names[i])
    if kind == "jet":
        names, alpha, name, mi = _INDEP[data[0]], data[1], data[2], data[3]
        return Jet(alpha, name, [IndepVar(i, names[i]) for i in mi])
    if kind == "func":
        tab = SymbolTable(["t", "x"], ["u"], funcs=["f", "g"])
        return FuncSym(data[0], data[1], parse(data[2], tab))
    return (Param if kind == "param" else Unknown)(data[0])


def _defining_data(spec):
    """What makes an atom: kind, defining data and names; the multi-index
    of a jet as a multiset of (index, name) pairs."""
    kind, *data = spec
    if kind == "indep":
        return kind, data[1], _INDEP[data[0]][data[1]]
    if kind == "jet":
        names = _INDEP[data[0]]
        return (kind, data[1], data[2],
                tuple(sorted((i, names[i]) for i in data[3])))
    return (kind, *data)


def test_atoms_are_interned_by_key():
    """Two constructions with the same kind, defining data and name give
    the one atom, and any other two give distinct atoms; `==` is identity;
    and atoms whose keys differed before names joined them sort as they
    did."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    names = st.sampled_from(("u", "rho", "c0", "th0"))
    spec = st.one_of(
        st.tuples(st.just("indep"), st.integers(0, 1), st.integers(0, 1)),
        st.tuples(st.just("jet"), st.integers(0, 1), st.integers(0, 1),
                  names, st.lists(st.integers(0, 1), max_size=3)),
        st.tuples(st.sampled_from(("param", "unknown")), names),
        st.tuples(st.just("func"), st.sampled_from(("f", "g")),
                  st.integers(0, 2), st.sampled_from(("u", "u[x]+t", "2"))))

    @hyp.settings(max_examples=150, deadline=None, derandomize=True,
                  phases=[hyp.Phase.generate])
    @hyp.given(specs=st.lists(spec, min_size=2, max_size=6))
    def check(specs):
        # each jet and variable also under the other numbering
        specs += [(s[0], 1 - s[1], *s[2:]) for s in specs
                  if s[0] in ("indep", "jet")]
        atoms = [_build_atom(s) for s in specs]
        assert all(a is _build_atom(s) for a, s in zip(atoms, specs))
        for (a, sa), (b, sb) in itertools.product(zip(atoms, specs), repeat=2):
            same = _defining_data(sa) == _defining_data(sb)
            assert (a is b) == same == (a == b)
            assert (a._key == b._key) == same
            if _old_key(a) != _old_key(b):
                assert (a < b) == (_old_key(a) < _old_key(b))

    check()


def test_models_numbered_alike_keep_their_own_atoms(kdv, gas1d):
    """kdv's u and gas1d's rho are both dependent variable 0 of a (t, x)
    model: they are distinct atoms, each printing its own name, and so are
    u[x] of kdv and u[y] of a model that names its space variable y."""
    u, rho = kdv.table.jet("u"), gas1d.table.jet("rho")
    assert u is not rho and u != rho
    assert (repr(u), repr(rho)) == ("u", "rho")
    assert len((u + rho).terms) == 2
    uy = SymbolTable(["t", "y"], ["u"]).jet("u", ["y"])
    assert uy is not kdv.table.jet("u", ["x"])
    assert (repr(uy), repr(kdv.table.jet("u", ["x"]))) == ("u[y]", "u[x]")
    # tables that declare a name alike share its atom
    assert SymbolTable(["t", "x"], ["u"]).jet("u", ["x", "t"]) is \
        kdv.table.jet("u", ["t", "x"])


@pytest.mark.parametrize("round_", range(3))
def test_concurrent_atom_construction_gives_one_atom(round_):
    """Four threads build the same new jets and unknowns, switching as
    often as possible, and all get the very atoms a serial build gets
    afterwards.  The names are new in each round, so every atom is built
    under contention."""
    tag = f"conc{round_}"
    tab = SymbolTable(["t", "x"], [f"{tag}u", f"{tag}v"])

    def work():
        out = [tab.jet_by_alpha(alpha, combo) for alpha in range(tab.m)
               for k in range(4)
               for combo in itertools.combinations_with_replacement(
                   tab.indep, k)]
        return out + [Unknown(f"{tag}c{i}") for i in range(400)]

    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(k):
        barrier.wait()
        results[k] = work()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        threads = [threading.Thread(target=run, args=(k,), daemon=True)
                   for k in range(4)]
        for th in threads:
            th.start()
        deadline = time.monotonic() + 60
        for th in threads:
            th.join(timeout=max(0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    serial = work()
    for got in results:
        assert len(got) == len(serial)
        assert all(a is b for a, b in zip(got, serial))
