"""Shared test utilities: seeded random jet-polynomial generators and the
hypothesis strategy for jet terms."""

from fractions import Fraction
import itertools

from clawforge.expr import Expr, SymbolTable
from clawforge.parse import parse

# rational powers of polynomial bases, for the normal-form properties
RADICALS = ("(1+u[x]^2)^(1/2)", "(1+u[x]^2)^(-1/2)", "(u+t)^(-1)",
            "(u[x]+x)^(3/2)", "2^(1/2)")


def two_var_table():
    return SymbolTable(["t", "x"], ["u"])


def jet_pool(table, max_order):
    pool = [v.as_expr() for v in table.indep]
    for alpha in range(table.m):
        pool.append(table.jet_by_alpha(alpha).as_expr())
        for k in range(1, max_order + 1):
            for combo in itertools.combinations_with_replacement(table.indep, k):
                pool.append(table.jet_by_alpha(alpha, combo).as_expr())
    return pool


def random_poly_expr(rng, table, max_order=3, max_terms=4, max_factors=2):
    """Random polynomial jet expression: a short sum of small monomials
    with rational coefficients."""
    pool = jet_pool(table, max_order)
    out = Expr.const(0)
    for _ in range(rng.randint(1, max_terms)):
        term = Expr.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_factors)):
            term = term * rng.choice(pool) ** rng.randint(1, 2)
        out = out + term
    return out


def jet_terms(st, tab, specials=()):
    """Hypothesis strategy (`st` is `hypothesis.strategies`, passed in so
    this module imports without hypothesis): short products of jets and
    variables, each with a rational coefficient and sometimes one factor
    from `specials` (expression strings parsed against `tab`), as Exprs."""
    pool = jet_pool(tab, 2)
    extra = [parse(s, tab) for s in specials]
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    factors = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)),
                       max_size=3)
    special = st.none()
    if extra:
        special = st.one_of(special, st.sampled_from(extra))

    def build(args):
        c, fs, r = args
        t = Expr.const(c)
        for b, k in fs:
            t = t * b ** k
        return t if r is None else t * r

    return st.tuples(coeff, factors, special).map(build)
