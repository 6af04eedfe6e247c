import pytest

from clawforge.expr import ZERO, SymbolTable
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
