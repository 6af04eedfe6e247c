"""Shared test utilities: the jet pools, the hypothesis strategies for
jet polynomials and jet terms, and a reference prolongation."""

import importlib.util
import itertools
import os

from clawforge.calculus import total_derivative
from clawforge.expr import Expr, SymbolTable
from clawforge.parse import parse

# rational powers of polynomial bases, for the normal-form properties
RADICALS = ("(1+u[x]^2)^(1/2)", "(1+u[x]^2)^(-1/2)", "(u+t)^(-1)",
            "(u[x]+x)^(3/2)", "2^(1/2)")


def perfbench_workloads():
    """perfbench/workloads.py as a module; it is read, never edited, and
    holds the recorded hashes and the seeded verify candidates."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def jet_polys(st, tab, max_order=3, max_terms=4, max_factors=2, extra=()):
    """Hypothesis strategy (`st` is `hypothesis.strategies`): short sums of
    small monomials with rational coefficients over the independent
    variables and the jets of `tab` up to `max_order`, and over the `extra`
    expressions (function symbols, radicals) when given."""
    pool = jet_pool(tab, max_order) + list(extra)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    factor = st.tuples(st.sampled_from(pool), st.integers(1, 2))
    term = st.tuples(coeff, st.lists(factor, max_size=max_factors))

    def build(terms):
        out = Expr.const(0)
        for c, factors in terms:
            t = Expr.const(c)
            for b, k in factors:
                t = t * b ** k
            out = out + t
        return out

    return st.lists(term, min_size=1, max_size=max_terms).map(build)


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


def reference_zeta(g, table, alpha, mi):
    """The prolongation coefficient zeta^alpha_J of a point generator by the
    recursion zeta_{J,v} = D_v zeta_J - u^alpha_{J,k} D_v xi^k with
    zeta_{} = eta^alpha, peeling the first variable of `mi` each step."""
    if not mi:
        return g.eta[alpha]
    v, rest = mi[0], tuple(mi[1:])
    out = total_derivative(reference_zeta(g, table, alpha, rest), v)
    for xk, xi in zip(table.indep, g.xi):
        jet = table.jet_by_alpha(alpha, rest + (xk,)).as_expr()
        out = out - jet * total_derivative(xi, v)
    return out
