"""Conservation-law machinery: formal Lagrangians, characteristics, the
symmetry-based conserved-vector formula, multiplier determining systems,
the mixed determining pipeline with an auxiliary divergence-completion
field H, triviality tests, and verification.

Everything here is a pure pipeline over immutable inputs; determinism comes
from stable monomial ordering throughout."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

from .expr import (Expr, FuncSym, Jet, Param, ZERO, _build, _monokey, _num,
                   _product_terms, _quot, _term_product, collect, pdiff)
from .calculus import (apply_generator, divergence, euler, total_derivative)
from . import linsolve
from .linsolve import RationalMatrix


class AnsatzError(ValueError):
    """Raised when an ansatz violates its required expression class."""


# ---------------------------------------------------------------------------
# Ansatz spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ansatz:
    """A finite-dimensional search space: the represented object is
    sum(unknown_m * basis_m).  Basis entries are pairwise distinct normal
    forms free of the unknowns."""

    unknowns: tuple
    basis: tuple

    def __post_init__(self):
        if len(self.unknowns) != len(self.basis):
            raise AnsatzError("unknowns and basis differ in length")
        if len({b.sort_key() for b in self.basis}) != len(self.basis):
            raise AnsatzError("ansatz basis entries must be distinct")
        mine = set(self.unknowns)
        for b in self.basis:
            if mine & b.atoms():
                raise AnsatzError(f"ansatz basis entry {b!r} contains an unknown")

    @cached_property
    def expr(self):
        return _build([t for p, b in zip(self.unknowns, self.basis)
                       for c, f in b.terms
                       for t in _term_product(c, f, 1, ((p, 1),))])

    def require_polynomial(self, what):
        for b in self.basis:
            if not b.is_polynomial() or any(isinstance(a, FuncSym) for a in b.atoms()):
                raise AnsatzError(
                    f"{what} ansatz must be polynomial in jets and variables; "
                    f"got {b!r}")


def monomial_basis(table, degree, jet_order=0, gens=None):
    """All monomials of total degree <= degree over the given generator
    atoms (default: independent variables and dependent variables, plus all
    jets up to jet_order).  Deterministic order: degree then atom order."""
    if gens is None:
        gens = list(table.indep)
        for alpha in range(table.m):
            gens.append(table.jet_by_alpha(alpha))
        if jet_order:
            for alpha in range(table.m):
                for k in range(1, jet_order + 1):
                    for combo in itertools.combinations_with_replacement(
                            table.indep, k):
                        gens.append(table.jet_by_alpha(alpha, combo))
    gens = sorted(set(gens))
    out = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(gens, d):
            # gens are sorted, so the factors come out in canonical order
            out.append(Expr(((1, tuple((a, len(list(run))) for a, run
                                       in itertools.groupby(combo))),)))
    return out


def _fresh_params(prefix, count, forbidden):
    while any(f"{prefix}{i}" in forbidden for i in range(count)):
        prefix += "_"
    return tuple(Param(f"{prefix}{i}") for i in range(count))


def _param_names(exprs):
    return {a.name for e in exprs for a in e.atoms() if isinstance(a, Param)}


def _unknowns(ansatz_list):
    """The unknowns of all the ansatz spaces, each once, in first-seen
    order."""
    return list(dict.fromkeys(p for a in ansatz_list for p in a.unknowns))


def make_ansatz(basis, prefix, forbidden=()):
    basis = tuple(basis)
    return Ansatz(_fresh_params(prefix, len(basis), set(forbidden)), basis)


def default_theta_ansatz(table, degree=3, jet_order=2, gens=None, forbidden=()):
    """Witness space for the triviality tests: polynomial monomials over
    `gens` (default: independent and dependent variables) plus jet-bearing
    monomials (single jets up to jet_order, and products of two first-order
    jets) with polynomial cofactors.  A low-degree block over the plain
    variables is always included so coordinate curls stay reachable when
    `gens` is restricted."""
    basis = list(monomial_basis(table, degree, gens=gens))
    if gens is not None:
        basis += monomial_basis(table, min(degree, 3))
    polys = monomial_basis(table, max(degree - 1, 0), gens=gens)
    jets = []
    for alpha in range(table.m):
        for k in range(1, jet_order + 1):
            for combo in itertools.combinations_with_replacement(table.indep, k):
                jets.append(table.jet_by_alpha(alpha, combo).as_expr())
    for m in polys:
        for j in jets:
            basis.append(_build(_product_terms(m.terms, j.terms)))
    firsts = [table.jet_by_alpha(alpha, (v,)).as_expr()
              for alpha in range(table.m) for v in table.indep]
    lows = monomial_basis(table, max(degree - 2, 0), gens=gens)
    for m in lows:
        for j1, j2 in itertools.combinations_with_replacement(firsts, 2):
            basis.append(_build(_product_terms(
                m.terms, _product_terms(j1.terms, j2.terms))))
    return make_ansatz(dict.fromkeys(basis), "th", forbidden)


# ---------------------------------------------------------------------------
# Characteristics and formal Lagrangians
# ---------------------------------------------------------------------------

def characteristic(g, table):
    """Evolutionary form W^a = eta^a - xi^j u^a_j of a generator."""
    out = []
    for alpha in range(table.m):
        w = list(g.eta[alpha].terms)
        for j, v in enumerate(table.indep):
            w += _product_terms((-g.xi[j]).terms,
                                table.jet_by_alpha(alpha, (v,)).as_expr().terms)
        out.append(_build(w))
    return out


def formal_lagrangian(system, psi):
    """sum(psi^a * F_a) over the system's equations."""
    if len(psi) != len(system.equations):
        raise ValueError(f"expected {len(system.equations)} multipliers, "
                         f"got {len(psi)}")
    return _build([t for p, eq in zip(psi, system.equations)
                   for t in _product_terms(p.terms, eq.expr.terms)])


# ---------------------------------------------------------------------------
# The conserved-vector formula (symmetry route)
# ---------------------------------------------------------------------------

def _orderings(tup):
    counts = {}
    for v in tup:
        counts[v.index] = counts.get(v.index, 0) + 1
    m = factorial(len(tup))
    for c in counts.values():
        m //= factorial(c)
    return m


class _OrderedPartials:
    """Partials of L with respect to ordered derivative tuples, under the
    symmetric-form convention: the partial for an ordered tuple is
    pdiff(L, u_J) divided by the number of distinct orderings of J."""

    def __init__(self, L, table):
        self.L = L
        self.table = table
        self._cache = {}

    def get(self, alpha, tup):
        mi = tuple(sorted(tup, key=lambda v: v.index))
        key = (alpha, tuple(v.index for v in mi))
        val = self._cache.get(key)
        if val is None:
            jet = Jet(alpha, self.table.dep_names[alpha], mi)
            d = pdiff(self.L, jet)
            val = d if d.is_zero else d / _orderings(mi)
            self._cache[key] = val
        return val


def symmetry_flux(L, g, system, include_xi_l=False):
    """Flux components C^i built from the formal Lagrangian L and the
    characteristic of g:

        C^i = [xi^i L] + W^a [dL/du_i - D_j dL/du_ij + D_j D_k dL/du_ijk]
              + D_j(W^a) [dL/du_ij - D_k dL/du_ijk]
              + D_j D_k(W^a) dL/du_ijk

    with ordered sums over full index tuples and the symmetric-form
    convention for mixed derivatives.  Supports L of differential order at
    most three (covers every model in the corpus)."""
    table = system.table
    if L.max_order() > 3:
        raise ValueError(f"differential order of L exceeds 3: {L.max_order()}")
    W = characteristic(g, table)
    parts = _OrderedPartials(L, table)
    indep = table.indep

    dW = {}
    ddW = {}
    for alpha in range(table.m):
        for j, vj in enumerate(indep):
            dW[(alpha, j)] = total_derivative(W[alpha], vj)
        for j, vj in enumerate(indep):
            for k, vk in enumerate(indep):
                ddW[(alpha, j, k)] = total_derivative(dW[(alpha, j)], vk)

    # each bracket is normalized once before it multiplies W or its
    # derivatives; each component gathers raw terms and is normalized once
    C = []
    for i, vi in enumerate(indep):
        comp = _product_terms(g.xi[i].terms, L.terms) if include_xi_l else []
        for alpha in range(table.m):
            bracket = list(parts.get(alpha, (vi,)).terms)
            for j, vj in enumerate(indep):
                p2 = parts.get(alpha, (vi, vj))
                if not p2.is_zero:
                    bracket += (-total_derivative(p2, vj)).terms
                for k, vk in enumerate(indep):
                    p3 = parts.get(alpha, (vi, vj, vk))
                    if not p3.is_zero:
                        bracket += total_derivative(
                            total_derivative(p3, vj), vk).terms
            comp += _product_terms(W[alpha].terms, _build(bracket).terms)
            for j, vj in enumerate(indep):
                b2 = list(parts.get(alpha, (vi, vj)).terms)
                for k, vk in enumerate(indep):
                    p3 = parts.get(alpha, (vi, vj, vk))
                    if not p3.is_zero:
                        b2 += (-total_derivative(p3, vk)).terms
                comp += _product_terms(dW[(alpha, j)].terms, _build(b2).terms)
            for j in range(len(indep)):
                for k in range(len(indep)):
                    p3 = parts.get(alpha, (vi, indep[j], indep[k]))
                    comp += _product_terms(ddW[(alpha, j, k)].terms, p3.terms)
        C.append(_build(comp))
    return C


def flux_identity_residual(L, g, system):
    """X(L) + L D_i(xi^i) - W^a dL/du^a - D_i(C^i), which is identically
    zero for any L of order <= 3 and any point generator; exercises the
    whole operator stack end to end."""
    table = system.table
    C = symmetry_flux(L, g, system, include_xi_l=True)
    W = characteristic(g, table)
    out = list(apply_generator(g, L, table).terms)
    for i, v in enumerate(table.indep):
        out += _product_terms(L.terms, total_derivative(g.xi[i], v).terms)
    for alpha in range(table.m):
        out += _product_terms((-W[alpha]).terms, euler(L, alpha, table).terms)
    out += (-divergence(C, table)).terms
    return _build(out)


# ---------------------------------------------------------------------------
# Linear-system plumbing
# ---------------------------------------------------------------------------

@dataclass
class DeterminingSystem:
    """One homogeneous linear equation per collected monomial coefficient."""

    matrix: RationalMatrix
    origin: str

    @property
    def shape(self):
        return (self.matrix.nrows, self.matrix.ncols)


def _linear_rows(exprs, unknowns):
    """Collect each expr over the unknowns; returns (rows, rhs) where rows
    are sparse dicts from unknown position to coefficient and rhs =
    -constant part."""
    column = {p: i for i, p in enumerate(unknowns)}
    rows, rhs = [], []
    for e in exprs:
        for form in collect(e, unknowns).values():
            rows.append({column[p]: c for p, c in form.coeffs.items()})
            rhs.append(-form.const)
    return rows, rhs


def _instantiate(e, mapping):
    """Substitute rational values for unknown Params of an expression that
    is linear in them, in a single pass over the terms."""
    out = []
    for coeff, factors in e.terms:
        c = coeff
        rest = factors
        hit = False
        for i, (b, k) in enumerate(factors):
            if isinstance(b, Param) and b in mapping:
                if hit or k != 1:
                    raise ValueError("expression is not linear in the unknowns")
                hit = True
                c = c * mapping[b]
                rest = factors[:i] + factors[i + 1:]
        if c != 0:
            out.append((c, rest))
    return _build(out)


# ---------------------------------------------------------------------------
# Multiplier determining system (direct route)
# ---------------------------------------------------------------------------

def multiplier_determining_system(system, ansatz_list):
    """The full jet-space identity euler(sum v^a F_a) == 0 per dependent
    variable, collected by monomials into a homogeneous linear system for
    the ansatz unknowns.  No reduction modulo the system is applied."""
    table = system.table
    if len(ansatz_list) != len(system.equations):
        raise ValueError("need one multiplier ansatz per equation")
    for a in ansatz_list:
        a.require_polynomial("multiplier")
    unknowns = _unknowns(ansatz_list)
    L = formal_lagrangian(system, [a.expr for a in ansatz_list])
    residuals = [euler(L, alpha, table) for alpha in range(table.m)]
    rows, rhs = _linear_rows(residuals, unknowns)
    if any(b != 0 for b in rhs):
        raise AnsatzError("multiplier system is not homogeneous")
    matrix = RationalMatrix(rows, ncols=len(unknowns))
    return DeterminingSystem(matrix, origin="multiplier")


@dataclass
class MultiplierSet:
    v: tuple

    def __iter__(self):
        return iter(self.v)


def solve_multipliers(system, ansatz_list):
    """Nullspace of the multiplier determining system, instantiated into
    multiplier sets; each returned set satisfies the defining identity
    exactly (checked)."""
    det = multiplier_determining_system(system, ansatz_list)
    space = linsolve.nullspace(det.matrix)
    unknowns = _unknowns(ansatz_list)
    table = system.table
    out = []
    for vec in space.basis:
        mapping = dict(zip(unknowns, vec))
        v = tuple(_instantiate(a.expr, mapping) for a in ansatz_list)
        L = formal_lagrangian(system, list(v))
        for alpha in range(table.m):
            if not euler(L, alpha, table).is_zero:
                raise RuntimeError("internal error: multiplier fails the "
                                   "defining identity after instantiation")
        out.append(MultiplierSet(v))
    return det, out


# ---------------------------------------------------------------------------
# Verification and triviality
# ---------------------------------------------------------------------------

def verify(system, T):
    """Residual of D_i T^i reduced modulo the system; zero iff conserved."""
    return system.reduce(divergence(T, system.table))


def _curl_pair(theta, table):
    """(D_x theta, -D_t theta) for two independent variables (t, x); a
    divergence-free completion for the second-kind triviality test."""
    t, x = table.indep
    return (total_derivative(theta, x), -total_derivative(theta, t))


@dataclass
class TrivialityReport:
    trivial: bool
    kind: str | None = None       # "vanishing" | "curl"
    witness: Expr | None = None   # theta for curl-type triviality

    def __bool__(self):
        return self.trivial


def _coeff_map(e, comp, factors_out=None):
    """Reduced-expression coefficients keyed by (component, monomial key)."""
    out = {}
    for c, f in e.terms:
        mk = (comp, _monokey(f))
        out[mk] = c
        if factors_out is not None:
            factors_out[mk] = f
    return out


class WitnessSpace:
    """The reduced curl images of a theta ansatz, indexed by monomial key,
    and one echelon of them.

    The key rows are sorted by `priority` and fed once through an
    `IncrementalSystem`; each row's eliminations and pivot are recorded.
    `fit` replays them on a law's right-hand side, so every triviality and
    stripping query over the same system is a sparse triangular solve.
    Pivots are the smallest live column of each row, so the pivot columns
    are the first independent curl columns, and a law's witness is its
    unique representation on them.  (`linsolve.ColumnSpace` gives the same
    witness with combination tracking; it is kept only for its tests and
    for the benchmark tracer.)"""

    def __init__(self, system, theta_ansatz):
        theta_ansatz.require_polynomial("triviality witness")
        self.theta = theta_ansatz
        self.ncols = len(theta_ansatz.basis)
        self.columns = {}   # (comp, monokey) -> {basis index: nonzero value}
        self.factors = {}   # (comp, monokey) -> factor tuple
        self.curls = []     # basis index -> {(comp, monokey): nonzero value}
        for m, b in enumerate(theta_ansatz.basis):
            c1, c2 = _curl_pair(b, system.table)
            col = _coeff_map(system.reduce(c1), 0, self.factors)
            col.update(_coeff_map(system.reduce(c2), 1, self.factors))
            for key, val in col.items():
                self.columns.setdefault(key, {})[m] = val
            self.curls.append(col)
        keys = sorted(self.columns, key=self.priority)
        self._row_of = {key: r for r, key in enumerate(keys)}
        echelon = linsolve.IncrementalSystem(self.ncols)
        self._pivot_of = []     # key row -> echelon row, None if dependent
        self._users = []        # echelon row -> [(key row, factor)]
        for r, key in enumerate(keys):
            steps = []
            echelon.try_add(self.columns[key], 0, steps)
            if len(echelon.rows) > len(self._users):
                self._pivot_of.append(len(self._users))
                self._users.append([])
            else:
                self._pivot_of.append(None)
            for i, f in steps:
                self._users[i].append((r, f))
        self._rows = echelon.rows
        self._scales = echelon.scales
        self._pivot_cols = list(echelon.pivots)
        self._above = [[] for _ in self._rows]  # rows holding each pivot
        for i, row in enumerate(self._rows):
            for c in row:
                k = echelon.pivots.get(c, i)
                if k != i:
                    self._above[k].append(i)

    def priority(self, key):
        """Sort key of a curl key for stripping: by component, then the
        monomials of highest jet order, jet degree and factor count first,
        so that their coefficients are the first forced to zero."""
        comp, mk = key
        factors = self.factors[key]
        jets = [(b, e) for b, e in factors if isinstance(b, Jet) and b.order > 0]
        order = max((b.order for b, _ in jets), default=0)
        weight = sum(e for _, e in jets)
        return (comp, -order, -weight, -len(factors), mk)

    def fit(self, rhs_map):
        """Fit the curl columns to a law's reduced coefficients `rhs_map`
        ((comp, monokey) -> value).  Returns (exact, coeffs): `coeffs` solve
        every key row that the rows before it in priority order leave
        consistent, with the free coordinates zero, and `exact` says that
        they solve them all and that no key of the law lies outside the
        witness columns, i.e. that the law is a curl of the witness.  Only
        the rows the law's keys reach are visited."""
        exact = True
        acc = {}
        for key, val in rhs_map.items():
            r = self._row_of.get(key)
            if r is None:
                exact = False
            else:
                acc[r] = val
        # forward: replay the recorded eliminations in key-row order
        todo = list(acc)
        heapq.heapify(todo)
        rhs = {}
        while todo:
            r = heapq.heappop(todo)
            b = _num(acc.pop(r))
            if not b:
                continue
            k = self._pivot_of[r]
            if k is None:
                exact = False
                continue
            b = rhs[k] = _quot(b, self._scales[k])
            for r2, f in self._users[k]:
                cur = acc.get(r2)
                if cur is None:
                    acc[r2] = -f * b
                    heapq.heappush(todo, r2)
                else:
                    acc[r2] = cur - f * b
        # backward: substitute into the echelon rows, last row first
        coeffs = [0] * self.ncols
        todo = [-k for k in rhs]
        heapq.heapify(todo)
        queued = set(rhs)
        while todo:
            k = -heapq.heappop(todo)
            p = self._pivot_cols[k]
            val = _num(rhs.get(k, 0) - sum(x * coeffs[c] for c, x
                                           in self._rows[k].items() if c != p))
            if val:
                coeffs[p] = val
                for i in self._above[k]:
                    if i not in queued:
                        queued.add(i)
                        heapq.heappush(todo, -i)
        return exact, coeffs

    def complete(self, rhs_map, components=(0, 1), extra_cols=()):
        """Solve extra*s + curl(theta) = rhs; None when infeasible."""
        keys = {k for k in self.columns if k[0] in components}
        keys |= set(rhs_map)
        for col in extra_cols:
            keys |= set(col)
        shift = len(extra_cols)
        rows, rhs = [], []
        for key in sorted(keys):
            row = {i: col[key] for i, col in enumerate(extra_cols)
                   if key in col}
            for m, val in self.columns.get(key, {}).items():
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
        witness `coeffs`, from the stored curl columns."""
        out = [list(r.terms) for r in reds]
        for val, col in zip(coeffs, self.curls):
            if val:
                for key, x in col.items():
                    out[key[0]].append((-val * x, self.factors[key]))
        return tuple(_build(terms) for terms in out)


def _law_rhs_map(reds):
    """Coefficients of reduced law components keyed like the witness
    columns."""
    out = {}
    for comp, r in enumerate(reds):
        out.update(_coeff_map(r, comp))
    return out


def _witness_space(system, witness_space, theta_ansatz, exprs):
    """The given witness space, else one over the given theta ansatz, else
    one over the default theta ansatz with unknowns that avoid the
    parameter names in `exprs` (iterated only in that last case)."""
    if witness_space is not None:
        return witness_space
    if theta_ansatz is None:
        theta_ansatz = default_theta_ansatz(system.table,
                                            forbidden=_param_names(exprs))
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
        ws = _witness_space(system, witness_space, theta_ansatz, T)
    return _triviality(reds, ws)[0]


def _solutions_with_nonzero(space, index):
    """Does the affine solution space contain a point whose coordinate at
    `index` is nonzero?"""
    if space is None:
        return False
    if space.particular[index] != 0:
        return True
    return any(v[index] != 0 for v in space.basis)


def vectors_equivalent_mod_trivial(system, A, B, theta_ansatz=None,
                                   allow_scale=True, witness_space=None):
    """True when A - s*B is a trivial law for some scale s (s != 0 when
    scaling is allowed, s = 1 otherwise)."""
    table = system.table
    if table.n != 2:
        raise ValueError("equivalence test implemented for two independent "
                         "variables")
    ws = _witness_space(system, witness_space, theta_ansatz,
                        list(A) + list(B))
    rhs_map = _law_rhs_map([system.reduce(c) for c in A])
    b_col = _law_rhs_map([system.reduce(c) for c in B])
    if not allow_scale:
        shifted = dict(rhs_map)
        for key, val in b_col.items():
            shifted[key] = shifted.get(key, 0) - val
        return ws.complete(shifted) is not None
    sol = ws.complete(rhs_map, extra_cols=(b_col,))
    return _solutions_with_nonzero(sol, 0)


def density_equivalent_mod_trivial(system, a, b, theta_ansatz=None,
                                   allow_scale=True, witness_space=None):
    """True when density a matches density b up to scaling, total
    x-derivatives, and terms vanishing on solutions (two independent
    variables): reduce(a - s*b - D_x theta) == 0 is solvable."""
    table = system.table
    if table.n != 2:
        raise ValueError("density test implemented for two independent "
                         "variables")
    ws = _witness_space(system, witness_space, theta_ansatz, [a, b])
    rhs_map = _coeff_map(system.reduce(a), 0)
    b_col = _coeff_map(system.reduce(b), 0)
    if not allow_scale:
        shifted = dict(rhs_map)
        for key, val in b_col.items():
            shifted[key] = shifted.get(key, 0) - val
        return ws.complete(shifted, components=(0,)) is not None
    sol = ws.complete(rhs_map, components=(0,), extra_cols=(b_col,))
    return _solutions_with_nonzero(sol, 0)


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
    ws = _witness_space(system, witness_space, theta_ansatz, T)
    _, coeffs = ws.fit(_law_rhs_map(base))
    return ws.strip(base, coeffs)


# ---------------------------------------------------------------------------
# The mixed determining pipeline
# ---------------------------------------------------------------------------

@dataclass
class ConservedVector:
    """A verified conservation-law vector with full provenance: which
    generator was used, the solved psi and H (H == 0 flags the pure
    symmetry-route subcase), and the solved ansatz coefficients."""

    components: tuple
    psi: tuple
    h: tuple
    generator: str = ""
    coefficients: dict = field(default_factory=dict)
    residual: Expr = ZERO
    stripped: tuple | None = None
    triviality: TrivialityReport | None = None

    @property
    def verified(self):
        return self.residual.is_zero

    @property
    def h_is_zero(self):
        return all(h.is_zero for h in self.h)

    @property
    def display_components(self):
        return self.stripped if self.stripped is not None else self.components


@dataclass
class MixedResult:
    laws: list
    trivial: list
    determining: DeterminingSystem
    solution_dimension: int


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

    unknowns = _unknowns(list(psi_ansatz) + list(h_ansatz))

    L = formal_lagrangian(system, [a.expr for a in psi_ansatz])
    C = symmetry_flux(L, g, system, include_xi_l=include_xi_l)
    T = [c + a.expr for c, a in zip(C, h_ansatz)]
    R = system.reduce(divergence(T, table))

    rows, rhs = _linear_rows([R], unknowns)
    if any(b != 0 for b in rhs):
        raise RuntimeError("internal error: mixed determining system is "
                           "not homogeneous")
    matrix = RationalMatrix(rows, ncols=len(unknowns))
    det = DeterminingSystem(matrix, origin="mixed")
    space = linsolve.nullspace(matrix)

    ws = None
    if table.n == 2:
        ws = _witness_space(system, None, theta_ansatz,
                            (a.expr for a in list(psi_ansatz) + list(h_ansatz)))

    laws, trivia = [], []
    for vec in space.basis:
        mapping = dict(zip(unknowns, vec))
        comps = tuple(_instantiate(c, mapping) for c in T)
        psi = tuple(_instantiate(a.expr, mapping) for a in psi_ansatz)
        h = tuple(_instantiate(a.expr, mapping) for a in h_ansatz)
        residual = verify(system, comps)
        if not residual.is_zero:
            raise RuntimeError("internal error: mixed-method law failed "
                               "re-verification")
        law = ConservedVector(
            components=comps, psi=psi, h=h, generator=g.label,
            coefficients={p.name: v for p, v in mapping.items() if v != 0},
            residual=residual)
        reds = tuple(system.reduce(c) for c in comps)
        law.triviality, coeffs = _triviality(reds, ws)
        if law.triviality.trivial:
            trivia.append(law)
        else:
            law.stripped = reds if ws is None else ws.strip(reds, coeffs)
            check = verify(system, law.stripped)
            if not check.is_zero:
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
    unknowns = _unknowns(h_ansatz)
    target = formal_lagrangian(system, list(multipliers))
    residual = target - divergence([a.expr for a in h_ansatz], table)
    rows, rhs = _linear_rows([residual], unknowns)
    sol = linsolve.solve(RationalMatrix(rows, ncols=len(unknowns)), rhs)
    if sol is None:
        return None
    mapping = dict(zip(unknowns, sol.particular))
    phi = tuple(_instantiate(a.expr, mapping) for a in h_ansatz)
    if not (target - divergence(list(phi), table)).is_zero:
        raise RuntimeError("internal error: reconstructed flux fails the "
                           "divergence identity")
    return phi


# ---------------------------------------------------------------------------
# Nonlinear self-adjointness (derived check)
# ---------------------------------------------------------------------------

@dataclass
class SelfAdjointnessReport:
    psi: tuple
    residuals: tuple

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
    L = formal_lagrangian(system, list(psi))
    residuals = tuple(system.reduce(euler(L, alpha, table))
                      for alpha in range(table.m))
    return SelfAdjointnessReport(psi=tuple(psi), residuals=residuals)


def expr_span_equal(exprs_a, exprs_b):
    """Span equality of two lists of expressions, decided by exact
    elimination over their joint monomial coefficient vectors."""
    exprs_a, exprs_b = list(exprs_a), list(exprs_b)
    keys = set()
    collected = []
    for e in exprs_a + exprs_b:
        c = collect(e, frozenset())
        collected.append(c)
        keys |= set(c.keys())
    keys = sorted(keys, key=_monokey)

    def vec(c):
        return [c[k].const if k in c else 0 for k in keys]

    va = [vec(c) for c in collected[:len(exprs_a)]]
    vb = [vec(c) for c in collected[len(exprs_a):]]
    return linsolve.span_equal(va, vb)
