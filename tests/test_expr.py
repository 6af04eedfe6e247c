import random
from fractions import Fraction

import pytest

from clawforge.expr import (ZERO, DomainError, Expr, FuncSym, NonlinearError,
                            SymbolTable, _build, _expand_term, _num,
                            _term_product, collect, key_expr, make_power,
                            pdiff, substitute)
from clawforge.lawgen import make_ansatz
from clawforge.parse import parse

from helpers import (RADICALS, jet_pool, jet_terms, random_poly_expr,
                     two_var_table)


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
    tab = two_var_table()
    rng = random.Random(101)
    for _ in range(60):
        a = random_poly_expr(rng, tab)
        b = random_poly_expr(rng, tab)
        assert a + b == b + a


def test_multiplication_distributes_random():
    tab = two_var_table()
    rng = random.Random(102)
    for _ in range(60):
        e = random_poly_expr(rng, tab, max_terms=3)
        f = random_poly_expr(rng, tab, max_terms=3)
        g = random_poly_expr(rng, tab, max_terms=3)
        assert e * (f + g) == e * f + e * g


def test_self_subtraction_random():
    tab = two_var_table()
    rng = random.Random(103)
    for _ in range(60):
        e = random_poly_expr(rng, tab)
        assert (e - e).is_zero


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
    tab = two_var_table()
    rng = random.Random(104)
    u = tab.jet("u")
    for _ in range(40):
        e = random_poly_expr(rng, tab, max_terms=3)
        f = random_poly_expr(rng, tab, max_terms=3)
        assert pdiff(e * f, u) == pdiff(e, u) * f + e * pdiff(f, u)


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
    keys = {str(key_expr(k)): form for k, form in got.items()}
    assert set(keys) == {"u[x]", "u*u[x]"}
    assert keys["u[x]"].coeffs[c0] == 1
    assert keys["u*u[x]"].coeffs[c1] == 1


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
    assert str(key_expr(key)) == "u"
    assert form.const == 1 and form.coeffs[c0] == 1


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
    tab = two_var_table()
    rng = random.Random(105)
    tp = parse("(1+u[x]^2)^(1/2)", tab)
    for _ in range(25):
        p = random_poly_expr(rng, tab, max_terms=2)
        q = random_poly_expr(rng, tab, max_terms=2)
        lhs = (p * tp + q) * (p * tp - q)
        rhs = p * p * parse("1+u[x]^2", tab) - q * q
        assert lhs == rhs


def test_radical_multiply_divide_roundtrip_random():
    tab = two_var_table()
    rng = random.Random(106)
    base = parse("1+u[x]^2", tab)
    for exp_num in (-3, -1, 1, 3):
        r = make_power(base, Fraction(exp_num, 2))
        for _ in range(10):
            e = random_poly_expr(rng, tab, max_terms=3)
            assert (e * r) / r == e
            assert (e / r) * r == e


def test_radical_associativity_random():
    tab = two_var_table()
    rng = random.Random(107)
    r = parse("(1+u[x]^2)^(1/2)", tab)
    q = parse("(1+u[x]^2)^(-1)", tab)
    pool = [r, q, parse("u", tab), parse("1+u", tab), parse("u[x]", tab)]
    for _ in range(40):
        a = rng.choice(pool) * random_poly_expr(rng, tab, max_terms=2)
        b = rng.choice(pool)
        c = rng.choice(pool)
        assert (a * b) * c == a * (b * c)


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
