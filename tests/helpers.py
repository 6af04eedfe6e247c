"""Shared test utilities: the jet pools, the hypothesis strategies for
jet polynomials and jet terms, a reference prolongation, the exact
linear-algebra checks that only tests use (reduced row-echelon form, rank,
matrix-vector product, span equality), three user models that grade their
witness spaces differently, two whose equations hold opaque bases, and an oracle in sympy that reads printed laws
and model equations without clawforge's parser."""

import importlib.util
import itertools
import os
import re

from clawforge import corpus
from clawforge.calculus import total_derivative
from clawforge.expr import Atom, Expr, SymbolTable, _num
from clawforge.lawgen import _law_rhs_map
from clawforge.linsolve import RationalMatrix, _echelon, _reduced
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


# user models whose witness spaces grade differently: a parameter in the
# equation (no grading, one block), a fractional exponent (scalings only)
# and the heat equation (scalings and signs)
GRADING_MODELS = {
    "kdv-c0": """
[model]
name: kdv-c0

[vars]
independent: t, x
dependent: u
parameters: c0

[equations]
u[t] = u[x,x,x] + c0*u*u[x]

[generators]
X1: x = 1
""",
    "fractional": """
[model]
name: sqrt-advection

[vars]
independent: t, x
dependent: u

[equations]
u[t] = u^(1/2)*u[x]

[generators]
X1: x = 1
""",
    "heat": """
[model]
name: heat

[vars]
independent: t, x
dependent: u

[equations]
u[t] = u[x,x]

[generators]
X1: x = 1
""",
}


# user models whose equations hold opaque bases, for the differential
# tests of the normal forms that intermediates pass from stage to stage
OPAQUE_MODELS = {
    "radical-heat": """
[model]
name: radical-heat

[vars]
independent: t, x
dependent: u

[equations]
u[t] = (1 + u[x]^2)^(-1/2)*u[x,x]

[generators]
X1: x = 1
X2: t = 1
""",
    "radical-advection": """
[model]
name: radical-advection

[vars]
independent: t, x
dependent: u

[equations]
u[t] = (1 + u^2)^(1/2)*u[x] + (u + x)^(-1)*u[x,x]

[generators]
X1: t = 1
""",
}


def two_var_table():
    return SymbolTable(["t", "x"], ["u"])


def total_derivative_mi(e, mi):
    """D_J e for the multi-index J = mi, one total derivative at a time."""
    for v in mi:
        e = total_derivative(e, v)
    return e


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


def rref(matrix):
    """Reduced row-echelon form (exact), padded with zero rows."""
    rows = [row for _, row, _ in _reduced(_echelon(matrix))]
    return RationalMatrix(rows + [{}] * (matrix.nrows - len(rows)),
                          ncols=matrix.ncols)


def rank(matrix):
    return len(_echelon(matrix).rows)


def mul_vector(matrix, v):
    """The product of a RationalMatrix and a dense vector."""
    if len(v) != matrix.ncols:
        raise ValueError("dimension mismatch")
    return [_num(sum(x * v[c] for c, x in r.items()))
            for r in matrix.sparse_rows]


def span_equal(vectors_a, vectors_b):
    """True when the two lists of rational vectors span the same subspace
    (mutual membership via exact elimination)."""
    if not vectors_a and not vectors_b:
        return True
    ncols = len(vectors_a[0]) if vectors_a else len(vectors_b[0])
    if any(len(v) != ncols for v in list(vectors_a) + list(vectors_b)):
        return False
    ra = rank(RationalMatrix(list(vectors_a))) if vectors_a else 0
    rb = rank(RationalMatrix(list(vectors_b))) if vectors_b else 0
    rc = rank(RationalMatrix(list(vectors_a) + list(vectors_b)))
    return ra == rb == rc


def expr_span_equal(exprs_a, exprs_b):
    """Span equality of two lists of expressions, decided by exact
    elimination over their joint monomial coefficient vectors."""
    exprs_a, exprs_b = list(exprs_a), list(exprs_b)
    maps = [_law_rhs_map([e]) for e in exprs_a + exprs_b]
    keys = list(dict.fromkeys(k for m in maps for k in m))
    vecs = [[m.get(k, 0) for k in keys] for m in maps]
    return span_equal(vecs[:len(exprs_a)], vecs[len(exprs_a):])


# -- the sympy oracle ----------------------------------------------------------
# sympy is imported inside these functions, so this module imports without
# it; callers guard with `pytest.importorskip("sympy")`.

def sym(a):
    """The sympy symbol of an atom, named by its printed form."""
    import sympy
    return sympy.Symbol(repr(a))


def to_sympy(e):
    """An Expr as a sympy expression: each atom is `sym(atom)` and each
    opaque base is converted in turn."""
    import sympy
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[
            (sym(b) if isinstance(b, Atom) else to_sympy(b))
            ** sympy.Rational(k.numerator, k.denominator)
            for b, k in f])
        for c, f in e.terms])


_JET_TEXT = re.compile(r"([A-Za-z_]\w*)\[([\w,\s]*)\]")


class SympyModel:
    """A built-in model's equations read from its model text by
    `sympy.parse_expr` alone, with clawforge's declarations for the names.
    A jet u[J] is the positive symbol `u__J`, J in the model's variable
    order; every other name is a positive symbol too."""

    def __init__(self, model):
        table = model.table
        self.indep = [v.name for v in table.indep]
        self.dep = list(table.dep_names)
        self.jets = {}          # jet symbol -> (dependent name, indices)
        self._images = {}       # jet symbol -> its reduced image or None
        text = corpus.TEXTS[model.name]
        lines = text.split("[equations]")[1].split("\n[")[0].strip()
        self.equations = []
        for line in lines.splitlines():
            lead, rhs = (self.read(s) for s in line.split("="))
            self.equations.append((self.jets[lead], rhs))

    def jet(self, name, indices):
        indices = tuple(sorted(indices, key=self.indep.index))
        import sympy
        s = sympy.Symbol("__".join((name,) + indices), positive=True)
        self.jets[s] = (name, indices)
        return s

    def read(self, text):
        """Printed expression text as a sympy expression."""
        import sympy
        names = {}

        def jet(m):
            s = self.jet(m.group(1), [i.strip() for i in m.group(2).split(",")])
            names[s.name] = s
            return s.name

        text = _JET_TEXT.sub(jet, text).replace("^", "**")
        for name in set(re.findall(r"[A-Za-z_]\w*", text)) - set(names):
            names[name] = (self.jet(name, ()) if name in self.dep else
                           sympy.Symbol(name, positive=True))
        return sympy.parse_expr(text, local_dict=names)

    def D(self, E, v):
        """The total derivative of E by the independent variable named v."""
        import sympy
        out = sympy.diff(E, sympy.Symbol(v, positive=True))
        for s in E.free_symbols & self.jets.keys():
            name, indices = self.jets[s]
            out += sympy.diff(E, s) * self.jet(name, indices + (v,))
        return out

    def image(self, s):
        """D_K of the right-hand side for a jet that is the K-th derivative
        of a leading jet, else None."""
        if s not in self._images:
            name, indices = self.jets[s]
            self._images[s] = None
            for (lead, lead_idx), rhs in self.equations:
                rest = list(indices)
                if lead != name or any(rest.count(i) < lead_idx.count(i)
                                       for i in lead_idx):
                    continue
                for i in lead_idx:
                    rest.remove(i)
                for v in rest:
                    rhs = self.D(rhs, v)
                self._images[s] = rhs
                break
        return self._images[s]

    def euler(self, L, name):
        """The Euler operator of L for the dependent variable `name`."""
        import sympy
        out = sympy.Integer(0)
        for s in L.free_symbols & self.jets.keys():
            dep, indices = self.jets[s]
            if dep == name:
                d = sympy.diff(L, s)
                for v in indices:
                    d = -self.D(d, v)
                out += d
        return out


def sympy_reduce(model, E):
    """E with every derivative of a leading jet replaced by its image under
    the equations, repeated until none is left; `model` is a SympyModel."""
    for _ in range(100):
        subs = {s: model.image(s) for s in E.free_symbols & model.jets.keys()}
        subs = {s: r for s, r in subs.items() if r is not None}
        if not subs:
            return E
        E = E.xreplace(subs)
    raise AssertionError("reduction did not reach a fixed point")


def sympy_is_zero(E):
    """True when E is zero: `expand`, then `together`; failing that, E
    must vanish to 40 digits at two points with positive rational
    coordinates."""
    import sympy
    E = sympy.expand(E)
    if E == 0 or sympy.expand(sympy.numer(sympy.together(E))) == 0:
        return True
    symbols = sorted(E.free_symbols, key=lambda s: s.name)
    for j in range(2):
        point = {s: sympy.Rational(k % 7 + 1 + j, k % 5 + 2)
                 for k, s in enumerate(symbols)}
        if abs(sympy.N(E.subs(point), 50)) > 1e-40:
            return False
    return True
