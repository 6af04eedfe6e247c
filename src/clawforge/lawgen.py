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
from math import factorial
from types import SimpleNamespace

from .expr import (Expr, IndepVar, Jet, Param, Unknown, ZERO,
                   _build, _collect, _monokey, _normal, _num, _product_terms,
                   _quot, _sorted_expr, _term_product, _terms, collect)
from .calculus import (Prolongation, _check_components, _euler, _gradient,
                       apply_generator, divergence, total_derivative)
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
    _check_components(T, system.table)
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


def _lattice(rows, dim):
    """The Hermite normal form of the lattice that the rational rows span
    over the integers: (pivot column, row) pairs in echelon order, each
    pivot positive and each entry above it in [0, pivot).  Euclid's
    algorithm clears each column below its pivot by floor division, which
    works on rationals as on integers."""
    hnf = []
    for c in range(dim):
        live = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[c]))
            rest = [[a - r[c] // p[c] * b for a, b in zip(r, p)]
                    for r in live if r is not p]
            rows += [r for r in rest if not r[c]]
            live = [p] + [r for r in rest if r[c]]
        if live:
            p = live[0] if live[0][c] > 0 else [-a for a in live[0]]
            hnf = [(q, [a - h[c] // p[c] * b for a, b in zip(h, p)])
                   for q, h in hnf]
            hnf.append((c, p))
    return hnf


def _coset(vec, hnf):
    """The representative of vec modulo the lattice: each pivot entry
    reduced into [0, pivot), which is the same for two vectors exactly
    when their difference is in the lattice."""
    for c, row in hnf:
        if q := vec[c] // row[c]:
            vec = [a - q * b for a, b in zip(vec, row)]
    return tuple(vec)


class WitnessSpace:
    """The reduced curl images of a theta ansatz over two independent
    variables, keyed by (component, factors), in blocks of one grade, each
    with one echelon.

    A monomial's grade is its exponent vector (`_exponents`) modulo the
    lattice that the exponent differences of each equation's terms span
    over the integers (`_lattice`).  Reduction replaces a term by terms
    whose vectors differ from it by a lattice vector, and D_v subtracts
    the unit vector of v, so a key of the D_v component belongs to the
    block of its monomial times v, and blocks share no key and no column:
    kdv has 20 blocks, fw 2, sp 34 and gas1d 109.  The grade fixes the
    weight under every scaling and the parity under every sign change
    that makes each equation homogeneous.  A key whose grade no theta
    entry has, as a fractional exponent gives over an integral lattice,
    is in no block.  The space is one block when an equation holds a
    factor that is neither a variable nor a jet, or a theta entry has no
    single grade.

    A block's key rows are sorted by `priority` and fed once through an
    `IncrementalSystem`, recording each row's eliminations and the echelon
    row it opened, if any.  The forward pass (`_forward`) runs over the key
    rows from the first one a law reaches, subtracting each row's
    eliminations from the law's value there: that leaves each echelon
    row's right-hand side, and the leftover, the values of the dependent
    rows left nonzero and of the law's keys outside every column.  The
    leftover is linear in the law and empty exactly when the law is a curl
    of the witness, which decides the equivalence tests.  `fit` then
    back-substitutes, last echelon row first.  Pivots are the smallest live
    column of each row, so the pivot columns are the first independent
    curl columns, and a law's witness is its unique representation on
    them, as `linsolve.ColumnSpace` finds.

    The split changes no result: one echelon over all key rows in priority
    order is, block by block, the echelon of that block's rows, so the
    verdict and the witness decouple by block, and a block that no key of
    a law reaches gives zero coefficients.  So each block is built on first
    use, under a lock, by `fit` or `strip`; reading `columns` (key ->
    {basis index: value}) builds them all."""

    def __init__(self, system, theta_ansatz):
        table = system.table
        if table.n != 2:
            raise ValueError("a witness space needs two independent "
                             f"variables, not {table.n}")
        theta_ansatz.require_polynomial("triviality witness")
        self.theta = theta_ansatz
        self.ncols = len(theta_ansatz.basis)
        self._system = system
        self._lock = threading.Lock()
        self._dims = n, dim = table.n, table.n + table.m
        forms = [[_exponents(f, n, dim) for _, f in eq.expr.terms]
                 for eq in system.equations]
        self._lattice = None
        if all(None not in vs for vs in forms):
            self._lattice = _lattice([[a - b for a, b in zip(v, vs[0])]
                                      for vs in forms for v in vs], dim)
        grades = [{self._grade(f) for _, f in b.terms}
                  for b in theta_ansatz.basis]
        self._col_label = [gs.pop() if len(gs) == 1 else None
                           for gs in grades]
        if None in self._col_label:
            self._lattice, self._col_label = None, [()] * self.ncols
        self._var = [((v, 1),) for v in reversed(table.indep)]  # D_x, D_t
        self._blocks = {}       # grade -> block
        for m, label in enumerate(self._col_label):
            self._blocks.setdefault(label, SimpleNamespace(
                members=[], echelon=None)).members.append(m)

    def _grade(self, factors):
        """The grade of a monomial: () when the space is one block, None
        when the monomial has no exponent vector."""
        if self._lattice is None:
            return ()
        vec = _exponents(factors, *self._dims)
        return None if vec is None else _coset(vec, self._lattice)

    def _label(self, key):
        """The grade of the block that can hold a curl key."""
        return self._grade(key[1] + self._var[key[0]])

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
        blk.keys = sorted(blk.columns, key=self.priority)
        blk.row_of = {key: r for r, key in enumerate(blk.keys)}
        # the component-0 rows come first: where a density fit stops
        blk.ends = (sum(comp == 0 for comp, _ in blk.keys), len(blk.keys))
        echelon = linsolve.IncrementalSystem(self.ncols)
        blk.steps = []  # key row -> (echelon row it opened or None, steps)
        for key in blk.keys:
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

    def _forward(self, rhs_map, ncomp=2):
        """The forward pass of a fit of `rhs_map` ((comp, factors) ->
        value) over the key rows of the first `ncomp` components: the
        (echelon, right-hand sides) of each block the law reaches, and the
        leftover, key -> nonzero value, of the dependent key rows and the
        keys outside every column.  Only the blocks that the law's keys
        reach are visited; a key whose grade has no block is outside every
        column."""
        parts = {}
        for key, val in rhs_map.items():
            parts.setdefault(self._label(key), {})[key] = val
        solved, left = [], {}
        for label, part in parts.items():
            blk = self._block(label)
            rows = {} if blk is None else blk.row_of
            acc = {}
            for key, val in part.items():
                if key in rows:
                    acc[rows[key]] = val
                elif val:
                    left[key] = val
            if not acc:
                continue
            echelon = blk.echelon
            # each key row's eliminations, on the law's values
            rhs = [0] * len(echelon.rows)
            for r in range(min(acc), blk.ends[ncomp - 1]):
                k, steps = blk.steps[r]
                b = acc.get(r, 0)
                for i, f in steps:
                    if rhs[i]:
                        b = _num(b - f * rhs[i])
                if k is not None:
                    rhs[k] = _quot(b, echelon.scales[k])
                elif b:
                    left[blk.keys[r]] = b
            solved.append((echelon, rhs))
        return solved, left

    def fit(self, rhs_map):
        """Fit the curl columns to a law's reduced coefficients `rhs_map`
        ((comp, factors) -> value).  Returns (exact, coeffs): `coeffs` solve
        every key row that the rows before it in priority order leave
        consistent, with the free coordinates zero, and `exact` says that
        they solve them all and that no key of the law lies outside the
        witness columns, i.e. that the law is a curl of the witness."""
        solved, left = self._forward(rhs_map)
        coeffs = [0] * self.ncols
        for echelon, rhs in solved:
            # substitute into the echelon rows, last row first
            for p, k in reversed(echelon.pivots.items()):
                coeffs[p] = _num(rhs[k] - sum(
                    x * coeffs[c] for c, x in echelon.rows[k].items()
                    if c != p))
        return not left, coeffs

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
    """None for a system without two independent variables; else the
    given witness space, else one over the given theta ansatz, else one
    over the default theta ansatz."""
    if system.table.n != 2:
        return None
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
    _check_components(T, system.table)
    reds = [system.reduce(c) for c in T]
    ws = (None if all(r.is_zero for r in reds)
          else _witness_space(system, witness_space, theta_ansatz))
    return _triviality(reds, ws)[0]


def _equivalent(system, witness_space, theta_ansatz, a, b, ncomp,
                allow_scale):
    """Is a - s*b a reduced curl of the witness ansatz over the first
    `ncomp` components, for some s != 0 when scaling is allowed, else for
    s = 1?  The leftover of a forward pass is linear in the law and empty
    exactly on curls, so this asks whether leftover(a) is s times
    leftover(b)."""
    ws = _witness_space(system, witness_space, theta_ansatz)
    if ws is None:
        raise ValueError("equivalence tests need two independent variables")
    la, lb = (ws._forward(_law_rhs_map([system.reduce(c) for c in law]),
                          ncomp)[1] for law in (a, b))
    if not (allow_scale and lb):
        return la == lb
    key = next(iter(lb))
    s = _quot(la.get(key, 0), lb[key])
    return s != 0 and la == {k: s * v for k, v in lb.items()}


def vectors_equivalent_mod_trivial(system, A, B, theta_ansatz=None,
                                   allow_scale=True, witness_space=None):
    """True when A - s*B is a trivial law for some scale s (s != 0 when
    scaling is allowed, s = 1 otherwise)."""
    _check_components(A, system.table)
    _check_components(B, system.table)
    return _equivalent(system, witness_space, theta_ansatz, A, B, 2,
                       allow_scale)


def density_equivalent_mod_trivial(system, a, b, theta_ansatz=None,
                                   allow_scale=True, witness_space=None):
    """True when density a matches density b up to scaling, total
    x-derivatives, and terms vanishing on solutions (two independent
    variables): reduce(a - s*b - D_x theta) == 0 is solvable."""
    return _equivalent(system, witness_space, theta_ansatz, [a], [b], 1,
                       allow_scale)


# ---------------------------------------------------------------------------
# Presentation stripping
# ---------------------------------------------------------------------------

def strip_trivial(system, T, theta_ansatz=None, witness_space=None):
    """Deterministic greedy removal of trivial content for presentation:
    reduce each component (drops the on-solution-vanishing part), then force
    to zero as many jet-heavy monomial coefficients as remain consistent
    using a curl witness from the ansatz (`WitnessSpace.fit`).  The result
    is a conserved vector equivalent to T modulo trivial laws."""
    _check_components(T, system.table)
    base = tuple(system.reduce(c) for c in T)
    ws = _witness_space(system, witness_space, theta_ansatz)
    if ws is None:
        return base
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

    ws = _witness_space(system, None, theta_ansatz)

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
