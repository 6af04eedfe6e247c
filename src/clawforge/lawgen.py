"""Conservation-law machinery: formal Lagrangians, the symmetry-based
conserved-vector formula, multiplier determining systems, the mixed
determining pipeline with an auxiliary divergence-completion field H,
triviality tests, and verification.

Everything here is a pure pipeline over immutable inputs; determinism comes
from stable monomial ordering throughout."""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul
from types import SimpleNamespace

from .expr import (Expr, IndepVar, Jet, Param, Unknown, ZERO,
                   _build, _collect, _monokey, _normal, _num, _product_terms,
                   _quot, _sorted_expr, _term_product, _terms, collect)
from .calculus import (Prolongation, _euler, _gradient, apply_generator,
                       divergence, total_derivative)
from .calculus import characteristic  # re-exported
from . import linsolve
from .linsolve import RationalMatrix


class AnsatzError(ValueError):
    """Raised when an ansatz violates its required expression class."""


# ---------------------------------------------------------------------------
# Ansatz spaces
# ---------------------------------------------------------------------------

class Ansatz:
    """A finite-dimensional search space: the represented object is
    sum(unknown_m * basis_m).  Basis entries are pairwise distinct normal
    forms free of the unknowns."""

    def __init__(self, unknowns, basis):
        self.unknowns, self.basis = unknowns, basis
        if len(unknowns) != len(basis):
            raise AnsatzError("unknowns and basis differ in length")
        if len({b.terms for b in basis}) != len(basis):
            raise AnsatzError("ansatz basis entries must be distinct")
        mine = set(unknowns)
        for b in basis:
            if mine & b.atoms():
                raise AnsatzError(f"ansatz basis entry {b!r} contains an unknown")

    @cached_property
    def expr(self):
        return _build([t for p, b in zip(self.unknowns, self.basis)
                       for c, f in b.terms
                       for t in _term_product(c, f, 1, ((p, 1),))])

    def require_polynomial(self, what):
        for b in self.basis:
            if not all(isinstance(a, (IndepVar, Jet, Param)) and type(e) is int
                       and e > 0 for _, f in b.terms for a, e in f):
                raise AnsatzError(
                    f"{what} ansatz must be polynomial in jets and variables; "
                    f"got {b!r}")


def monomial_basis(table, degree, jet_order=0, gens=None):
    """All monomials of total degree <= degree over the given generator
    atoms (default: independent variables and dependent variables, plus all
    jets up to jet_order).  Deterministic order: degree then atom order."""
    if gens is None:
        gens = list(table.indep) + _jets(table, 0, jet_order)
    gens = sorted(set(gens))
    out = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(gens, d):
            # gens are sorted, so the factors come out in canonical order
            out.append(Expr(((1, tuple((a, len(list(run))) for a, run
                                       in itertools.groupby(combo))),)))
    return out


def _jets(table, lo, hi):
    """The jets of orders lo..hi, by dependent variable, then order."""
    return [table.jet_by_alpha(alpha, combo) for alpha in range(table.m)
            for k in range(lo, hi + 1)
            for combo in itertools.combinations_with_replacement(table.indep, k)]


def _columns(ansatz_list):
    """Each unknown of the ansatz spaces -> its column, in first-seen
    order."""
    unknowns = dict.fromkeys(p for a in ansatz_list for p in a.unknowns)
    return {p: i for i, p in enumerate(unknowns)}


def make_ansatz(basis, prefix):
    """The ansatz sum(unknown_m * basis_m) with one new `expr.Unknown`
    named prefix + m per basis entry.  Unknowns are an atom kind of their
    own, so a model parameter of the same name is a different atom."""
    basis = tuple(basis)
    return Ansatz(tuple(Unknown(f"{prefix}{i}") for i in range(len(basis))),
                  basis)


def default_theta_ansatz(table, degree=3, jet_order=2, gens=None):
    """Witness space for the triviality tests: polynomial monomials over
    `gens` (default: independent and dependent variables) plus jet-bearing
    monomials (single jets up to jet_order, and products of two first-order
    jets) with polynomial cofactors.  A low-degree block over the plain
    variables is always included so coordinate curls stay reachable when
    `gens` is restricted.  Each entry is one monomial."""
    def monos(d, gens=gens):
        return [b.terms[0][1] for b in monomial_basis(table, d, gens=gens)]

    def times(ms, fs):
        return [_term_product(1, m, 1, f)[0][1] for m in ms for f in fs]

    basis = monos(degree)
    if gens is not None:
        basis += monos(min(degree, 3), None)
    basis += times(monos(max(degree - 1, 0)),
                   [((j, 1),) for j in _jets(table, 1, jet_order)])
    firsts = [((j, 1),) for j in _jets(table, 1, 1)]
    basis += times(monos(max(degree - 2, 0)),
                   [_term_product(1, a, 1, b)[0][1] for a, b in
                    itertools.combinations_with_replacement(firsts, 2)])
    return make_ansatz([Expr(((1, f),)) for f in dict.fromkeys(basis)], "th")


# ---------------------------------------------------------------------------
# Formal Lagrangians
# ---------------------------------------------------------------------------

def formal_lagrangian(system, psi):
    """sum(psi^a * F_a) over the system's equations."""
    return _sorted_expr(_lagrangian(system, psi))


def _lagrangian(system, psi):
    """`formal_lagrangian` as accumulated terms, unsorted."""
    if len(psi) != len(system.equations):
        raise ValueError(f"expected {len(system.equations)} multipliers, "
                         f"got {len(psi)}")
    return _normal([t for p, eq in zip(psi, system.equations)
                    for t in _product_terms(p.terms, eq.expr.terms)])


def _euler_residuals(terms, table):
    """euler(L, alpha, table) for every alpha, as accumulated terms, from
    one gradient of the L with terms `terms`."""
    grad = _gradient(terms)
    return [_euler(grad, alpha) for alpha in range(table.m)]


# ---------------------------------------------------------------------------
# The conserved-vector formula (symmetry route)
# ---------------------------------------------------------------------------

def _orderings(mi):
    """The number of distinct orderings of the multi-index mi."""
    m = factorial(len(mi))
    for c in Counter(v.index for v in mi).values():
        m //= factorial(c)
    return m


def symmetry_flux(L, g, system, include_xi_l=False, prolongation=None):
    """Flux components C^i built from the formal Lagrangian L and the
    characteristic W of g, at any differential order of L:

        C^i = [xi^i L] + sum over ordered J of D_J(W^a) B^a_{iJ},
        B^a_P = (dL/du^a_P) / #orderings(P) - D_k B^a_{P,k},

    with B = 0 beyond the order of L, so |J| < order(L).  The partial is
    shared by the orderings of P (the symmetric-form convention), so the
    sum over ordered J runs over multisets weighted by their orderings.
    D_J W is read from `prolongation` (default: a new Prolongation of g),
    and every partial of L from one gradient of L."""
    table = system.table
    order = L.max_order()
    pro = prolongation or Prolongation(g, table)
    grad = _gradient(L.terms)
    B = {}

    def bracket(jet):
        """B^a_P for the jet u^a_P."""
        if jet not in B:
            out = []
            if jet in grad:
                k = _orderings(jet.mi)
                out += [(_quot(c, k), f) for f, c in grad[jet].items()]
            if jet.order < order:
                for v in table.indep:
                    out += (-total_derivative(bracket(jet.shifted(v)), v)).terms
            B[jet] = _build(out)
        return B[jet]

    # each B is normalized once before it multiplies D_J W; each component
    # gathers raw terms and is normalized once
    C = []
    for xi, vi in zip(g.xi, table.indep):
        comp = _product_terms(xi.terms, L.terms) if include_xi_l else []
        for alpha in range(table.m):
            for k in range(order):
                for J in itertools.combinations_with_replacement(table.indep, k):
                    b = bracket(table.jet_by_alpha(alpha, J + (vi,)))
                    if not b.is_zero:
                        comp += _product_terms(pro.dW(alpha, J).terms,
                                               (b * _orderings(J)).terms)
        C.append(_build(comp))
    return C


def flux_identity_residual(L, g, system):
    """X(L) + L D_i(xi^i) - W^a dL/du^a - D_i(C^i), which is identically
    zero for any L and any point generator; exercises the whole operator
    stack end to end."""
    table = system.table
    pro = Prolongation(g, table)
    C = symmetry_flux(L, g, system, include_xi_l=True, prolongation=pro)
    out = list(apply_generator(g, L, table, prolongation=pro).terms)
    for i, v in enumerate(table.indep):
        out += _product_terms(L.terms, total_derivative(g.xi[i], v).terms)
    for w, E in zip(pro.W, _euler_residuals(L.terms, table)):
        out += _product_terms(_terms(E), (-w).terms)
    out += (-divergence(C, table)).terms
    return _build(out)


# ---------------------------------------------------------------------------
# Linear-system plumbing
# ---------------------------------------------------------------------------

def _linear_rows(accs, column):
    """Collect each normal form, as accumulated terms (`_normal`), over the
    unknowns, the keys of `column` (unknown -> column); returns (rows,
    rhs), one per key in `_monokey` order: the sparse row from column to
    coefficient, and minus the part free of unknowns."""
    rows, rhs = [], []
    for acc in accs:
        for form in _collect(_terms(acc), column).values():
            rhs.append(-form.pop(None, 0))
            rows.append({column[p]: c for p, c in form.items()})
    return rows, rhs


def _instantiate(exprs, column, vectors):
    """The expressions `exprs`, linear in the unknowns of `column`, at each
    solution vector (indexed like `column`): one tuple of instances per
    vector.  Each expression is collected once and its entries grouped by
    unknown (None for the part free of them); an instance sums the entries
    of the nonzero unknowns.
    The keys of a normal form split by `collect` are canonical, distinct
    and in order, and any subset of them is too, so the nonzero sums are
    the terms of the instance as they are."""
    forms = []
    for e in exprs:
        form, by = collect(e, column), {}
        for i, coeffs in enumerate(form.values()):
            for p, c in coeffs.items():
                by.setdefault(p, {})[i] = c
        forms.append((list(form), by))
    out = []
    for vec in vectors:
        values = {p: x for p, x in zip(column, vec) if x}
        instances = []
        for keys, by in forms:
            acc = dict(by.get(None, {}))
            for p, v in values.items():
                for i, c in by.get(p, {}).items():
                    acc[i] = acc.get(i, 0) + c * v
            instances.append(Expr(tuple((_num(c), keys[i])
                                        for i, c in sorted(acc.items()) if c)))
        out.append(tuple(instances))
    return out


# ---------------------------------------------------------------------------
# Multiplier determining system (direct route)
# ---------------------------------------------------------------------------

def multiplier_determining_system(system, ansatz_list):
    """The full jet-space identity euler(sum v^a F_a) == 0 per dependent
    variable, collected by monomials into a homogeneous linear system for
    the ansatz unknowns, one row per collected monomial coefficient.  No
    reduction modulo the system is applied."""
    table = system.table
    if len(ansatz_list) != len(system.equations):
        raise ValueError("need one multiplier ansatz per equation")
    for a in ansatz_list:
        a.require_polynomial("multiplier")
    column = _columns(ansatz_list)
    L = _lagrangian(system, [a.expr for a in ansatz_list])
    rows, rhs = _linear_rows(_euler_residuals(_terms(L), table), column)
    if any(b != 0 for b in rhs):
        raise AnsatzError("multiplier system is not homogeneous")
    return RationalMatrix(rows, ncols=len(column))


def solve_multipliers(system, ansatz_list):
    """The determining matrix and its nullspace instantiated into
    multiplier tuples, one entry per equation; each tuple satisfies the
    defining identity exactly (checked)."""
    det = multiplier_determining_system(system, ansatz_list)
    space = linsolve.nullspace(det)
    out = []
    for v in _instantiate([a.expr for a in ansatz_list],
                             _columns(ansatz_list), space.basis):
        L = _lagrangian(system, list(v))
        if any(_euler_residuals(_terms(L), system.table)):
            raise RuntimeError("internal error: multiplier fails the "
                               "defining identity after instantiation")
        out.append(v)
    return det, out


# ---------------------------------------------------------------------------
# Verification and triviality
# ---------------------------------------------------------------------------

def verify(system, T):
    """Residual of D_i T^i reduced modulo the system; zero iff conserved.
    Each component is reduced first and then differentiated through the
    reduced-jet memo, which equals reduce(D_i T^i) since reduction commutes
    with total derivatives."""
    if len(T) != system.table.n:
        raise ValueError(f"expected {system.table.n} components, got {len(T)}")
    return _sorted_expr(_reduced_divergence(
        system, [system.reduce(c) for c in T]))


def _reduced_divergence(system, reds):
    """reduce(D_i R^i) for already reduced components R, as accumulated
    terms."""
    return _normal([t for r, v in zip(reds, system.table.indep)
                    for t in system.reduced_derivative_terms(r, v)])


class TrivialityReport:
    def __init__(self, trivial, kind=None, witness=None):
        self.trivial = trivial
        self.kind = kind          # "vanishing" | "curl"
        self.witness = witness    # theta for curl-type triviality

    def __bool__(self):
        return self.trivial


def _exponents(factors, n, dim):
    """The exponent vector of a monomial over (independent variables,
    dependent variables), a jet u^a_J counting -1 per index in J; None
    when a factor is neither an independent variable nor a jet."""
    vec = [0] * dim
    for b, e in factors:
        if isinstance(b, Jet):
            vec[n + b.alpha] += e
            for v in b.mi:
                vec[v.index] -= e
        elif isinstance(b, IndepVar):
            vec[b.index] += e
        else:
            return None
    return vec


def _primitive(v):
    """The primitive integer vector on the line of a rational vector."""
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    return tuple(x // gcd(*ints) for x in ints)


def _new_parities(scales, signs):
    """The signs outside the GF(2) span of the scalings mod 2 and of the
    signs kept before them: a parity under any other is a sum of grades
    mod 2, so it splits no block."""
    span, kept = [], []     # bit masks with distinct leading bits, descending
    for i, v in enumerate(scales + signs):
        bits = sum(1 << c for c, x in enumerate(v) if x % 2)
        for m in span:
            bits = min(bits, bits ^ m)      # clears m's leading bit
        if bits:
            span = sorted(span + [bits], reverse=True)
            if i >= len(scales):
                kept.append(v)
    return kept


class WitnessSpace:
    """The reduced curl images of a theta ansatz, keyed by (component,
    factors), in blocks of one grade, each with one echelon.

    A grade is the dot products of a monomial's exponent vector with the
    primitive integer scalings, and mod 2 with the sign symmetries, that
    make every equation homogeneous: the rational and, if every exponent
    in them is an integer, the GF(2) nullspace of the exponent differences
    of each equation's terms, less the signs that the scalings mod 2 and
    the other signs already fix (`_new_parities`).  sp has the scaling
    (-1, 1, 1) and the sign u -> -u, fw only the sign (t, x) -> (-t, -x),
    and kdv and gas1d no sign beyond their scalings mod 2.  Reduction
    keeps a grade and D_v shifts it by that of v, so a key of the D_v
    component belongs to the block of its monomial times v, and blocks
    share no key and no column: kdv has 20 blocks, fw 2, sp 34 and gas1d
    109.  A key with no grade is in no block; the space is one block when
    an equation or a theta entry has no single grade, or when there is no
    grading.

    A block's key rows are sorted by `priority` and fed once through an
    `IncrementalSystem`, recording each row's eliminations and the echelon
    row it opened, if any.  `fit` runs forward over the key rows from the
    first one a law reaches, subtracting each row's eliminations from the
    law's value there: that leaves each echelon row's right-hand side, and
    a dependent row left nonzero makes the fit inexact.  It then
    back-substitutes, last echelon row first.  Pivots are the smallest live
    column of each row, so the pivot columns are the first independent curl
    columns, and a law's witness is its unique representation on them, as
    `linsolve.ColumnSpace` finds.

    The split changes no result: one echelon over all key rows in priority
    order is, block by block, the echelon of that block's rows, so the
    verdict and the witness decouple by block, and a block that no key of
    a law reaches gives zero coefficients.  So each block is built on first
    use, under a lock, by `fit`, `strip` or `complete`; reading `columns`
    (key -> {basis index: value}) builds them all."""

    def __init__(self, system, theta_ansatz):
        theta_ansatz.require_polynomial("triviality witness")
        self.theta = theta_ansatz
        self.ncols = len(theta_ansatz.basis)
        self._system = system
        self._lock = threading.Lock()
        table = system.table
        self._dims = n, dim = table.n, table.n + table.m
        forms = [[_exponents(f, n, dim) for _, f in eq.expr.terms]
                 for eq in system.equations]
        self._scales = self._signs = ()
        signs = []
        if all(None not in vs for vs in forms):
            rows = [[a - b for a, b in zip(v, vs[0])] for vs in forms
                    for v in vs]
            self._scales = [_primitive(v) for v in linsolve.nullspace(
                RationalMatrix(rows, ncols=dim)).basis]
            if all(type(a) is int for r in rows for a in r):
                signs = linsolve.nullspace_gf2(rows, dim)
                self._signs = _new_parities(self._scales, signs)
        # a fractional exponent has no parity, so no grade under a sign
        # symmetry, redundant or not
        self._integral = bool(signs)
        grades = [{self._grade(f) for _, f in b.terms}
                  for b in theta_ansatz.basis]
        if not all(len(gs) == 1 and None not in gs for gs in grades):
            self._scales = self._signs = ()
        self._graded = bool(self._scales or self._signs)
        self._var = [((v, 1),) for v in reversed(table.indep)]  # D_x, D_t
        self._col_label = [gs.pop() if self._graded else () for gs in grades]
        self._blocks = {}       # grade -> block
        for m, label in enumerate(self._col_label):
            self._blocks.setdefault(label, SimpleNamespace(
                members=[], echelon=None)).members.append(m)

    def _grade(self, factors):
        """The grade of a monomial, or None when it has none."""
        vec = _exponents(factors, *self._dims)
        if vec is None or self._integral and not all(
                type(e) is int for e in vec):
            return None
        return (tuple([sum(map(mul, w, vec)) for w in self._scales])
                + tuple([sum(map(mul, s, vec)) & 1 for s in self._signs]))

    def _label(self, key):
        """The grade of the block that can hold a curl key, or None."""
        return self._grade(key[1] + self._var[key[0]]) if self._graded else ()

    def _block(self, label):
        """The block of a grade, built on first use; None if none."""
        blk = self._blocks.get(label)
        with self._lock:
            if blk is not None and blk.echelon is None:
                self._build(blk)
        return blk

    def _build(self, blk):
        t, x = self._system.table.indep
        blk.columns = {}    # (comp, factors) -> {basis index: nonzero value}
        for m in blk.members:
            # the curl (D_x theta, -D_t theta), reduced, keyed once
            rb = self._system.reduce(self.theta.basis[m])
            for comp, v, sign in ((0, x, 1), (1, t, -1)):
                terms = self._system.reduced_derivative_terms(rb, v)
                for f, c in _normal(terms).items():
                    blk.columns.setdefault((comp, f), {})[m] = sign * c
        keys = sorted(blk.columns, key=self.priority)
        blk.row_of = {key: r for r, key in enumerate(keys)}
        echelon = linsolve.IncrementalSystem(self.ncols)
        blk.steps = []  # key row -> (echelon row it opened or None, steps)
        for key in keys:
            steps, k = [], len(echelon.rows)
            echelon.try_add(blk.columns[key], 0, steps)
            blk.steps.append((k if len(echelon.rows) > k else None, steps))
        blk.echelon = echelon

    @cached_property
    def columns(self):
        return {k: col for blk in map(self._block, self._blocks)
                for k, col in blk.columns.items()}

    @staticmethod
    def priority(key):
        """Sort key of a curl key for stripping: by component, then the
        monomials of highest jet order, jet degree and factor count first,
        so that their coefficients are the first forced to zero."""
        comp, factors = key
        order = weight = 0
        for b, e in factors:
            if isinstance(b, Jet) and b.mi:
                order = max(order, len(b.mi))
                weight += e
        return (comp, -order, -weight, -len(factors), _monokey(factors))

    def fit(self, rhs_map):
        """Fit the curl columns to a law's reduced coefficients `rhs_map`
        ((comp, factors) -> value).  Returns (exact, coeffs): `coeffs` solve
        every key row that the rows before it in priority order leave
        consistent, with the free coordinates zero, and `exact` says that
        they solve them all and that no key of the law lies outside the
        witness columns, i.e. that the law is a curl of the witness.  Only
        the blocks that the law's keys reach are visited; a key whose
        grade has no block is outside every column."""
        parts = {}
        for key, val in rhs_map.items():
            parts.setdefault(self._label(key), {})[key] = val
        exact, coeffs = True, [0] * self.ncols
        for label, part in parts.items():
            blk = self._block(label)
            rows = {} if blk is None else blk.row_of
            acc = {rows[key]: val for key, val in part.items() if key in rows}
            exact = exact and len(acc) == len(part)
            if not acc:
                continue
            echelon = blk.echelon
            # forward: each key row's eliminations, on the law's values
            rhs = [0] * len(echelon.rows)
            for r in range(min(acc), len(blk.steps)):
                k, steps = blk.steps[r]
                b = acc.get(r, 0)
                for i, f in steps:
                    if rhs[i]:
                        b = _num(b - f * rhs[i])
                if k is not None:
                    rhs[k] = _quot(b, echelon.scales[k])
                elif b:
                    exact = False
            # back: substitute into the echelon rows, last row first
            for p, k in reversed(echelon.pivots.items()):
                coeffs[p] = _num(rhs[k] - sum(
                    x * coeffs[c] for c, x in echelon.rows[k].items()
                    if c != p))
        return exact, coeffs

    def complete(self, rhs_map, components=(0, 1), extra_cols=()):
        """Solve extra*s + curl(theta) = rhs; None when infeasible.  Blocks
        no key of rhs or extra reaches are left out (their theta is free)."""
        reached = set(rhs_map).union(*extra_cols)
        columns = {k: col for label in {self._label(k) for k in reached}
                   if label in self._blocks
                   for k, col in self._block(label).columns.items()}
        keys = {k for k in columns if k[0] in components} | reached
        shift = len(extra_cols)
        rows, rhs = [], []
        for key in sorted(keys, key=lambda k: (k[0], _monokey(k[1]))):
            row = {i: col[key] for i, col in enumerate(extra_cols)
                   if key in col}
            for m, val in columns.get(key, {}).items():
                row[shift + m] = val
            rows.append(row)
            rhs.append(rhs_map.get(key, 0))
        return linsolve.solve(
            RationalMatrix(rows, ncols=shift + self.ncols), rhs)

    def witness_expr(self, coeffs):
        return _build([(val * c, f) for val, b in zip(coeffs, self.theta.basis)
                       if val for c, f in b.terms])

    def strip(self, reds, coeffs):
        """The reduced law components `reds` minus the reduced curl of the
        witness `coeffs`, from the curl columns of the blocks it holds."""
        out = [list(r.terms) for r in reds]
        held = {m for m, val in enumerate(coeffs) if val}
        for label in {self._col_label[m] for m in held}:
            for key, col in self._block(label).columns.items():
                if ms := col.keys() & held:
                    val = sum(coeffs[m] * col[m] for m in ms)
                    out[key[0]].append((-val, key[1]))
        return tuple(_build(terms) for terms in out)


def _law_rhs_map(reds):
    """Coefficients of reduced law components keyed like the witness
    columns, by (component, factors)."""
    return {(comp, f): c for comp, r in enumerate(reds) for c, f in r.terms}


def _witness_space(system, witness_space, theta_ansatz):
    """The given witness space, else one over the given theta ansatz, else
    one over the default theta ansatz."""
    if witness_space is not None:
        return witness_space
    if theta_ansatz is None:
        theta_ansatz = default_theta_ansatz(system.table)
    return WitnessSpace(system, theta_ansatz)


def _triviality(reds, ws):
    """The triviality verdict on a law with reduced components `reds`, and
    the witness coefficients that `ws.fit` gives it (None without a
    witness space)."""
    if all(r.is_zero for r in reds):
        return TrivialityReport(True, "vanishing"), None
    if ws is None:
        return TrivialityReport(False), None
    exact, coeffs = ws.fit(_law_rhs_map(reds))
    if exact:
        return TrivialityReport(True, "curl", ws.witness_expr(coeffs)), coeffs
    return TrivialityReport(False), coeffs


def is_trivial(system, T, theta_ansatz=None, witness_space=None):
    """A law is flagged trivial when its components vanish on solutions
    (first kind) or, for two independent variables, when it differs from a
    curl (D_x theta, -D_t theta) with theta in the witness ansatz by a
    vector vanishing on solutions (second kind)."""
    reds = [system.reduce(c) for c in T]
    ws = None
    if system.table.n == 2 and not all(r.is_zero for r in reds):
        ws = _witness_space(system, witness_space, theta_ansatz)
    return _triviality(reds, ws)[0]


def _equivalent(ws, a_map, b_map, components, allow_scale):
    """Is a - s*b a reduced curl of the witness ansatz over `components`,
    for some s != 0 when scaling is allowed, else for s = 1?"""
    if not allow_scale:
        shifted = dict(a_map)
        for key, val in b_map.items():
            shifted[key] = shifted.get(key, 0) - val
        return ws.complete(shifted, components) is not None
    sol = ws.complete(a_map, components, (b_map,))
    return sol is not None and (sol.particular[0] != 0
                                or any(v[0] != 0 for v in sol.basis))


def vectors_equivalent_mod_trivial(system, A, B, theta_ansatz=None,
                                   allow_scale=True, witness_space=None):
    """True when A - s*B is a trivial law for some scale s (s != 0 when
    scaling is allowed, s = 1 otherwise)."""
    if system.table.n != 2:
        raise ValueError("equivalence test implemented for two independent "
                         "variables")
    ws = _witness_space(system, witness_space, theta_ansatz)
    return _equivalent(ws, _law_rhs_map([system.reduce(c) for c in A]),
                       _law_rhs_map([system.reduce(c) for c in B]), (0, 1),
                       allow_scale)


def density_equivalent_mod_trivial(system, a, b, theta_ansatz=None,
                                   allow_scale=True, witness_space=None):
    """True when density a matches density b up to scaling, total
    x-derivatives, and terms vanishing on solutions (two independent
    variables): reduce(a - s*b - D_x theta) == 0 is solvable."""
    if system.table.n != 2:
        raise ValueError("density test implemented for two independent "
                         "variables")
    ws = _witness_space(system, witness_space, theta_ansatz)
    return _equivalent(ws, _law_rhs_map([system.reduce(a)]),
                       _law_rhs_map([system.reduce(b)]), (0,), allow_scale)


# ---------------------------------------------------------------------------
# Presentation stripping
# ---------------------------------------------------------------------------

def strip_trivial(system, T, theta_ansatz=None, witness_space=None):
    """Deterministic greedy removal of trivial content for presentation:
    reduce each component (drops the on-solution-vanishing part), then force
    to zero as many jet-heavy monomial coefficients as remain consistent
    using a curl witness from the ansatz (`WitnessSpace.fit`).  The result
    is a conserved vector equivalent to T modulo trivial laws."""
    base = tuple(system.reduce(c) for c in T)
    if system.table.n != 2:
        return base
    ws = _witness_space(system, witness_space, theta_ansatz)
    _, coeffs = ws.fit(_law_rhs_map(base))
    return ws.strip(base, coeffs)


# ---------------------------------------------------------------------------
# The mixed determining pipeline
# ---------------------------------------------------------------------------

class ConservedVector:
    """A verified conservation-law vector with full provenance: which
    generator was used and the solved psi and H (H == 0 flags the pure
    symmetry-route subcase)."""

    def __init__(self, components, psi, h, generator="", residual=ZERO,
                 stripped=None, triviality=None):
        self.components, self.psi, self.h = components, psi, h
        self.generator, self.residual = generator, residual
        self.stripped, self.triviality = stripped, triviality

    @property
    def h_is_zero(self):
        return all(h.is_zero for h in self.h)

    @property
    def display_components(self):
        return self.stripped if self.stripped is not None else self.components


class MixedResult:
    def __init__(self, laws, trivial, determining, solution_dimension):
        self.laws, self.trivial = laws, trivial
        self.determining = determining
        self.solution_dimension = solution_dimension


def mixed_method(system, g, psi_ansatz, h_ansatz, *, include_xi_l=False,
                 theta_ansatz=None):
    """Solve D_i(C^i + H^i) = 0 on solutions of the system for the formal
    multipliers psi and the completion field H simultaneously.

    C is built from the generator g (numeric coefficients only) and the
    formal Lagrangian over the psi ansatz; the reduced divergence of
    T = C + H is collected by monomials and the homogeneous nullspace gives
    the law space.  Every instantiated vector is re-verified independently
    and filtered through the triviality test."""
    table = system.table
    if g.parametrized:
        raise ValueError("mixed_method needs numeric generator coefficients; "
                         "run parametrized families one combination at a time")
    if len(psi_ansatz) != len(system.equations):
        raise ValueError("need one psi ansatz per equation")
    if len(h_ansatz) != table.n:
        raise ValueError("need one H ansatz per independent variable")
    for a in psi_ansatz:
        a.require_polynomial("psi")
    for a in h_ansatz:
        a.require_polynomial("H")

    ansatz = list(psi_ansatz) + list(h_ansatz)
    column = _columns(ansatz)

    L = formal_lagrangian(system, [a.expr for a in psi_ansatz])
    C = symmetry_flux(L, g, system, include_xi_l=include_xi_l)
    T = [c + a.expr for c, a in zip(C, h_ansatz)]

    rows, rhs = _linear_rows(
        [_reduced_divergence(system, [system.reduce(c) for c in T])], column)
    if any(b != 0 for b in rhs):
        raise RuntimeError("internal error: mixed determining system is "
                           "not homogeneous")
    det = RationalMatrix(rows, ncols=len(column))
    space = linsolve.nullspace(det)

    ws = _witness_space(system, None, theta_ansatz) if table.n == 2 else None

    n = table.n
    laws, trivia = [], []
    for inst in _instantiate(T + [a.expr for a in ansatz], column,
                                space.basis):
        comps, psi, h = inst[:n], inst[n:-n], inst[-n:]
        reds = tuple(system.reduce(c) for c in comps)
        if _reduced_divergence(system, reds):
            raise RuntimeError("internal error: mixed-method law failed "
                               "re-verification")
        law = ConservedVector(comps, psi, h, generator=g.label)
        law.triviality, coeffs = _triviality(reds, ws)
        if law.triviality.trivial:
            trivia.append(law)
        else:
            law.stripped = reds if ws is None else ws.strip(reds, coeffs)
            if _reduced_divergence(system, law.stripped):
                raise RuntimeError("internal error: stripped law failed "
                                   "re-verification")
            laws.append(law)
    return MixedResult(laws=laws, trivial=trivia, determining=det,
                       solution_dimension=space.dimension)


def fluxes_from_multipliers(system, multipliers, h_ansatz):
    """Flux vector phi with sum(v^a F_a) = D_i(phi^i) as a full jet-space
    identity, solved for phi over the completion ansatz.  Returns the flux
    tuple, or None when the ansatz cannot express it.  This reconstructs
    the divergence form certified by the multiplier identity; it solves
    only for the completion field and needs no symmetry."""
    table = system.table
    if len(multipliers) != len(system.equations):
        raise ValueError("need one multiplier per equation")
    for a in h_ansatz:
        a.require_polynomial("flux")
    column = _columns(h_ansatz)
    target = formal_lagrangian(system, list(multipliers))
    div = divergence([a.expr for a in h_ansatz], table)
    residual = _normal(list(target.terms) + [(-c, f) for c, f in div.terms])
    rows, rhs = _linear_rows([residual], column)
    sol = linsolve.solve(RationalMatrix(rows, ncols=len(column)), rhs)
    if sol is None:
        return None
    phi, = _instantiate([a.expr for a in h_ansatz], column,
                        [sol.particular])
    if not (target - divergence(list(phi), table)).is_zero:
        raise RuntimeError("internal error: reconstructed flux fails the "
                           "divergence identity")
    return phi


# ---------------------------------------------------------------------------
# Nonlinear self-adjointness (derived check)
# ---------------------------------------------------------------------------

class SelfAdjointnessReport:
    def __init__(self, psi, residuals):
        self.psi, self.residuals = psi, residuals

    @property
    def holds(self):
        return all(r.is_zero for r in self.residuals)


def self_adjointness_check(system, psi):
    """Substitute v = psi into the adjoint equations: the reduced residuals
    of euler(sum psi^a F_a) per dependent variable are zero exactly when
    the adjoint system holds on solutions."""
    table = system.table
    for p in psi:
        if any(isinstance(a, Param) for a in p.atoms()):
            raise ValueError("psi must be free of unknown parameters")
    L = _lagrangian(system, list(psi))
    residuals = tuple(system.reduce(_sorted_expr(E))
                      for E in _euler_residuals(_terms(L), table))
    return SelfAdjointnessReport(psi=tuple(psi), residuals=residuals)
