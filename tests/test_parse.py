import importlib
from fractions import Fraction

import pytest

from clawforge.expr import (ZERO, DomainError, Expr, FuncSym, SymbolTable,
                            _product_terms)
from clawforge.parse import ParseError, parse

from helpers import RADICALS, jet_terms


@pytest.fixture()
def tab():
    return SymbolTable(["t", "x"], ["u"], params=["c0"], funcs=["f"])


def test_kdv_left_hand_side(tab):
    e = parse("u[t] - u[x,x,x] - u*u[x]", tab)
    assert len(e.terms) == 3


def test_zero(tab):
    assert parse("0", tab).is_zero


def test_radical_single_term(tab):
    e = parse("(1+u[x]^2)^(1/2)", tab)
    assert len(e.terms) == 1


def test_jet_indices_are_order_insensitive(tab):
    assert parse("u[t,x]", tab) == parse("u[x,t]", tab)


def test_rationals_and_division(tab):
    assert parse("3/4*u", tab) == parse("u*3/4", tab)
    assert parse("1/2", tab).as_rational() == 0.5


def test_leading_minus_and_signs(tab):
    assert parse("-u", tab) == -parse("u", tab)
    assert parse("-u + u", tab).is_zero


def test_function_symbols_with_primes(tab):
    e = parse("f''(t)*u", tab)
    assert str(e) == "u*f''(t)"
    assert parse(str(e), tab) == e


def test_negative_and_fractional_exponents(tab):
    assert parse("u^(-1)", tab) * parse("u", tab) == parse("1", tab)
    assert parse("u^(-5/3)", tab) == parse("1/u^(5/3)", tab)


def test_syntax_error_reports_position(tab):
    with pytest.raises(ParseError) as err:
        parse("u + ", tab)
    assert "position" in str(err.value)


def test_undeclared_identifier(tab):
    with pytest.raises(ParseError) as err:
        parse("u + q", tab)
    assert "undeclared" in str(err.value)


def test_undeclared_jet_index(tab):
    with pytest.raises(ParseError):
        parse("u[y]", tab)


def test_non_rational_literal(tab):
    with pytest.raises(ParseError) as err:
        parse("1.5*u", tab)
    assert "non-rational" in str(err.value)


def test_trailing_junk(tab):
    with pytest.raises(ParseError):
        parse("u )", tab)


def test_undeclared_function(tab):
    with pytest.raises(ParseError):
        parse("g(u)", tab)


def test_print_parse_roundtrip_simple(tab):
    for text in ("u[t] - u[x,x,x] - u*u[x]",
                 "(1+u[x]^2)^(1/2) - u^2/2",
                 "c0*u^(-5/3) + f(t*u)*u[x]",
                 "-3/2*u^2 + t*x*u[t,x]"):
        e = parse(text, tab)
        assert parse(str(e), tab) == e


def test_print_parse_roundtrip_corpus(models):
    for entry in models.values():
        table = entry.table
        for eq in entry.system.equations:
            for e in (eq.lead.as_expr(), eq.rhs, eq.expr):
                assert parse(str(e), table) == e
        for g in entry.generators.values():
            for e in list(g.xi) + list(g.eta):
                assert parse(str(e), table) == e
        for law in entry.laws.values():
            for comp in law.components:
                assert parse(str(comp), table) == comp


def test_print_parse_roundtrip_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = SymbolTable(["t", "x"], ["u"], params=["c0", "c1"], funcs=["f"])
    # function symbols, rational and negative exponents, opaque constants
    # (2^(1/2) among RADICALS) and parameters
    specials = RADICALS + ("f(u+t)", "f'(u)*u[x]", "f''(c0*x^(-1))", "c0",
                           "c1*u^(-2)", "u[x]^(-3/2)*x^(2/3)")
    exprs = st.lists(jet_terms(st, tab, specials), min_size=1,
                     max_size=4).map(lambda parts: sum(parts, ZERO))

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(a=exprs, b=exprs)
    def check(a, b):
        for e in (a, a * b):
            text = str(e)
            back = parse(text, tab)
            assert back == e
            assert str(back) == text

    check()


def test_non_decimal_digits_are_unexpected_characters(tab):
    # '²' is a digit to str.isdigit but not to int(): it is refused as a
    # character, while identifiers keep the isalpha/isalnum rules
    with pytest.raises(ParseError) as err:
        parse("²*u", tab)
    assert str(err.value) == "unexpected character '²' (at position 0)"
    with pytest.raises(ParseError) as err:
        parse("u²", tab)
    assert str(err.value) == "undeclared identifier 'u²' (at position 0)"
    assert parse("u[x]*٣", tab) == parse("3*u[x]", tab)   # a decimal digit


@pytest.mark.parametrize("text,message", [
    ("1/0", "division by zero (at position 2)"),
    ("u + 1/0", "division by zero (at position 6)"),
    ("u/(x - x)", "division by zero (at position 2)"),
    ("u*f(t)/(0*u)^2", "division by zero (at position 7)"),
    ("(x - x)^(-1)", "zero raised to a negative power (at position 0)"),
    ("u + 0^(-2)", "zero raised to a negative power (at position 4)"),
    ("f(1/(u - u))", "division by zero (at position 4)"),
    ("t*(1 + u^(-1))^(1/2)", "cannot raise a non-polynomial sum to the "
                             "power 1/2: 1 + u^(-1) (at position 2)"),
])
def test_undefined_values_are_positioned_parse_errors(tab, text, message):
    with pytest.raises(ParseError) as err:
        parse(text, tab)
    assert str(err.value) == message


def test_products_of_cancelling_sums_stay_linear(tab, monkeypatch):
    # each sum is normalized before it multiplies another: multiplying the
    # raw sums would make 2^40 and 3^12 terms
    module = importlib.import_module("clawforge.parse")
    made = []

    def counting(terms1, terms2):
        out = _product_terms(terms1, terms2)
        made.append(len(out))
        assert sum(made) <= len(text)
        return out

    monkeypatch.setattr(module, "_product_terms", counting)
    for text, want in (("*".join(["(u - u)"] * 40), ZERO),
                       ("*".join(["(u - u + x)"] * 12), parse("x^12", tab))):
        made.clear()
        assert parse(text, tab) == want
        assert made


def test_atoms_are_shared_per_table(tab):
    assert tab.jet("u", ["x", "t"]) is tab.jet("u", ["t", "x"])
    (_, ((jet, _),)), = parse("u[t,x]", tab).terms
    assert jet is tab.jet("u", ["x", "t"])
    # one atom term per bare name, its factors passed through unchanged
    assert parse("c0", tab).terms[0][1] is parse("c0", tab).terms[0][1]


def test_parse_equals_the_expression_operators():
    """Random syntax trees rendered as text: the parse has the terms of the
    same tree built by the Expr operators, and a tree whose value the
    operators leave undefined (DomainError) is a ParseError."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tab = SymbolTable(["t", "x"], ["u"], params=["c0"], funcs=["f"])
    atoms = {"t": tab.indep_var("t"), "x": tab.indep_var("x"),
             "u": tab.jet("u"), "c0": tab.params["c0"]}
    exponents = [("2", 2), ("3", 3), ("-1", -1), ("(-2)", -2), ("(4/2)", 2),
                 ("(1/2)", Fraction(1, 2)), ("(-3/2)", Fraction(-3, 2))]
    # a sum is [(sign, term)], the first sign "", "+" or "-"; a term is
    # [(op, factor)], the first op ""; a factor is (base, exponent or
    # None); a base is a literal, a name, a jet (its indices in any order),
    # a parenthesized sum, f with primes, or "(a + (b) - (a))"
    leaves = st.one_of(
        st.tuples(st.just("int"), st.sampled_from([1, 2, 3, 5, 1, 2, 0])),
        st.tuples(st.just("name"), st.sampled_from(sorted(atoms))),
        st.tuples(st.just("jet"), st.lists(st.sampled_from("tx"),
                                           min_size=1, max_size=3)))

    def sums(bases):
        factor = st.tuples(bases, st.none() | st.none()
                           | st.sampled_from(exponents))
        term = st.builds(lambda f, rest: [("", f)] + rest, factor, st.lists(
            st.tuples(st.sampled_from("*/"), factor), max_size=2))
        return st.builds(lambda sign, t, rest: [(sign, t)] + rest,
                         st.sampled_from(["", "+", "-"]), term, st.lists(
                             st.tuples(st.sampled_from("+-"), term),
                             max_size=2))

    bases = leaves      # two levels of nesting, built without recursion
    for _depth in range(2):
        inner = sums(bases)
        bases = st.one_of(leaves, st.tuples(st.just("paren"), inner),
                          st.tuples(st.just("f"), st.integers(0, 2), inner),
                          st.tuples(st.just("cancel"), inner, inner))

    def sum_text(s):
        return "".join((f" {sign} " if i else sign) + term_text(t)
                       for i, (sign, t) in enumerate(s))

    def term_text(t):
        return "".join(op + base_text(b) + ("" if e is None else "^" + e[0])
                       for op, (b, e) in t)

    def base_text(b):
        if b[0] in ("int", "name"):
            return str(b[1])
        if b[0] == "jet":
            return f"u[{','.join(b[1])}]"
        if b[0] == "paren":
            return f"({sum_text(b[1])})"
        if b[0] == "f":
            return f"f{chr(39) * b[1]}({sum_text(b[2])})"
        a = sum_text(b[1])
        return f"({a} + ({sum_text(b[2])}) - ({a}))"

    def sum_value(s):
        out = ZERO
        for sign, t in s:
            out = out - term_value(t) if sign == "-" else out + term_value(t)
        return out

    def term_value(t):
        out = None
        for op, (b, e) in t:
            v = base_value(b) if e is None else base_value(b) ** e[1]
            out = v if out is None else out * v if op == "*" else out / v
        return out

    def base_value(b):
        if b[0] == "int":
            return Expr.const(b[1])
        if b[0] == "name":
            return atoms[b[1]].as_expr()
        if b[0] == "jet":
            return tab.jet("u", b[1]).as_expr()
        if b[0] == "paren":
            return sum_value(b[1])
        if b[0] == "f":
            return FuncSym("f", b[1], sum_value(b[2])).as_expr()
        a = sum_value(b[1])
        return a + sum_value(b[2]) - a

    @hyp.settings(max_examples=150, deadline=None, derandomize=True,
                  phases=(hyp.Phase.explicit, hyp.Phase.reuse,
                          hyp.Phase.generate, hyp.Phase.target))
    @hyp.given(tree=sums(bases))
    def check(tree):
        text = sum_text(tree)
        try:
            want = sum_value(tree)
        except DomainError:
            with pytest.raises(ParseError):
                parse(text, tab)
            return
        assert parse(text, tab).terms == want.terms, text

    check()
