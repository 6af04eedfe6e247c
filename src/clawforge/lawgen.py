"""Conservation-law machinery: formal Lagrangians, characteristics, the
symmetry-based conserved-vector formula, multiplier determining systems,
the mixed determining pipeline with an auxiliary divergence-completion
field H, triviality tests, and verification.

Everything here is a pure pipeline over immutable inputs; determinism comes
from stable monomial ordering throughout."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .expr import (Expr, FuncSym, Jet, Param, ZERO, _build, _monokey,
                   collect, pdiff)
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

    @property
    def expr(self):
        out = ZERO
        for p, b in zip(self.unknowns, self.basis):
            out = out + p.as_expr() * b
        return out

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
    out = [Expr.const(1)]
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(gens, d):
            m = Expr.const(1)
            for a in combo:
                m = m * a.as_expr()
            out.append(m)
    return out


def _fresh_params(prefix, count, forbidden):
    while any(f"{prefix}{i}" in forbidden for i in range(count)):
        prefix += "_"
    return tuple(Param(f"{prefix}{i}") for i in range(count))


def _param_names(exprs):
    names = set()
    for e in exprs:
        for a in e.atoms():
            if isinstance(a, Param):
                names.add(a.name)
    return names


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
            basis.append(m * j)
    firsts = [table.jet_by_alpha(alpha, (v,)).as_expr()
              for alpha in range(table.m) for v in table.indep]
    lows = monomial_basis(table, max(degree - 2, 0), gens=gens)
    for m in lows:
        for j1, j2 in itertools.combinations_with_replacement(firsts, 2):
            basis.append(m * j1 * j2)
    seen, uniq = set(), []
    for b in basis:
        if b.sort_key() not in seen:
            seen.add(b.sort_key())
            uniq.append(b)
    return make_ansatz(uniq, "th", forbidden)


# ---------------------------------------------------------------------------
# Characteristics and formal Lagrangians
# ---------------------------------------------------------------------------

def characteristic(g, table):
    """Evolutionary form W^a = eta^a - xi^j u^a_j of a generator."""
    out = []
    for alpha in range(table.m):
        w = g.eta[alpha]
        for j, v in enumerate(table.indep):
            if not g.xi[j].is_zero:
                w = w - g.xi[j] * table.jet_by_alpha(alpha, (v,))
        out.append(w)
    return out


def formal_lagrangian(system, psi):
    """sum(psi^a * F_a) over the system's equations."""
    if len(psi) != len(system.equations):
        raise ValueError(f"expected {len(system.equations)} multipliers, "
                         f"got {len(psi)}")
    out = ZERO
    for p, eq in zip(psi, system.equations):
        out = out + p * eq.expr
    return out


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

    C = []
    for i, vi in enumerate(indep):
        comp = g.xi[i] * L if include_xi_l else ZERO
        for alpha in range(table.m):
            bracket = parts.get(alpha, (vi,))
            for j, vj in enumerate(indep):
                p2 = parts.get(alpha, (vi, vj))
                if not p2.is_zero:
                    bracket = bracket - total_derivative(p2, vj)
                for k, vk in enumerate(indep):
                    p3 = parts.get(alpha, (vi, vj, vk))
                    if not p3.is_zero:
                        bracket = bracket + total_derivative(
                            total_derivative(p3, vj), vk)
            if not bracket.is_zero:
                comp = comp + W[alpha] * bracket
            for j, vj in enumerate(indep):
                b2 = parts.get(alpha, (vi, vj))
                for k, vk in enumerate(indep):
                    p3 = parts.get(alpha, (vi, vj, vk))
                    if not p3.is_zero:
                        b2 = b2 - total_derivative(p3, vk)
                if not b2.is_zero:
                    comp = comp + dW[(alpha, j)] * b2
            for j in range(len(indep)):
                for k in range(len(indep)):
                    p3 = parts.get(alpha, (vi, indep[j], indep[k]))
                    if not p3.is_zero:
                        comp = comp + ddW[(alpha, j, k)] * p3
        C.append(comp)
    return C


def flux_identity_residual(L, g, system):
    """X(L) + L D_i(xi^i) - W^a dL/du^a - D_i(C^i), which is identically
    zero for any L of order <= 3 and any point generator; exercises the
    whole operator stack end to end."""
    table = system.table
    C = symmetry_flux(L, g, system, include_xi_l=True)
    W = characteristic(g, table)
    res = apply_generator(g, L, table)
    for i, v in enumerate(table.indep):
        res = res + L * total_derivative(g.xi[i], v)
    for alpha in range(table.m):
        res = res - W[alpha] * euler(L, alpha, table)
    return res - divergence(C, table)


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
    hold the unknown coefficients and rhs = -constant part."""
    rows, rhs = [], []
    for e in exprs:
        for form in collect(e, unknowns).values():
            rows.append([form.coeffs.get(p, Fraction(0)) for p in unknowns])
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
    for key, form in collect(e, frozenset()).items():
        mk = (comp, _monokey(key))
        out[mk] = form.const
        if factors_out is not None:
            factors_out[mk] = key
    return out


class WitnessSpace:
    """The reduced curl images of a theta ansatz, indexed by monomial key.

    Building the images (and their echelon column space) once turns every
    triviality, equivalence, and stripping query over the same system into
    plain rational linear algebra."""

    def __init__(self, system, theta_ansatz):
        theta_ansatz.require_polynomial("triviality witness")
        self.system = system
        self.theta = theta_ansatz
        self.ncols = len(theta_ansatz.basis)
        self.columns = {}   # (comp, monokey) -> coefficient per basis element
        self.factors = {}   # (comp, monokey) -> factor tuple, for reporting
        self.colspace = linsolve.ColumnSpace()
        for m, b in enumerate(theta_ansatz.basis):
            c1, c2 = _curl_pair(b, system.table)
            col = {}
            for comp, e in ((0, system.reduce(c1)), (1, system.reduce(c2))):
                for key, val in _coeff_map(e, comp, self.factors).items():
                    col[key] = col.get(key, Fraction(0)) + val
            for key, val in col.items():
                full = self.columns.get(key)
                if full is None:
                    full = self.columns[key] = [Fraction(0)] * self.ncols
                full[m] = val
            self.colspace.add_column(col)

    def _system_rows(self, rhs_map, components, extra_cols=()):
        """Rows of [extra | curl-columns] c = rhs over the union of keys."""
        keys = {k for k in self.columns if k[0] in components}
        keys |= set(rhs_map)
        for col in extra_cols:
            keys |= set(col)
        rows, rhs = [], []
        zero = [Fraction(0)] * self.ncols
        for key in sorted(keys):
            row = [col.get(key, Fraction(0)) for col in extra_cols]
            row += self.columns.get(key, zero)
            rows.append(row)
            rhs.append(rhs_map.get(key, Fraction(0)))
        return rows, rhs

    def complete(self, rhs_map, components=(0, 1), extra_cols=()):
        """Solve extra*s + curl(theta) = rhs; None when infeasible."""
        rows, rhs = self._system_rows(rhs_map, components, extra_cols)
        return linsolve.solve(
            RationalMatrix(rows, ncols=len(extra_cols) + self.ncols), rhs)

    def witness_coefficients(self, rhs_map):
        """Coefficients of a curl completion matching rhs_map exactly, or
        None; restricted to full two-component maps."""
        combo = self.colspace.member(rhs_map)
        if combo is None:
            return None
        coeffs = [Fraction(0)] * self.ncols
        for i, x in combo.items():
            coeffs[i] = x
        return coeffs

    def witness_expr(self, coeffs):
        out = ZERO
        for val, b in zip(coeffs, self.theta.basis):
            if val:
                out = out + Expr.const(val) * b
        return out

    def curl_expr(self, coeffs):
        c1, c2 = ZERO, ZERO
        for val, b in zip(coeffs, self.theta.basis):
            if val:
                p1, p2 = _curl_pair(b, self.system.table)
                c1 = c1 + Expr.const(val) * p1
                c2 = c2 + Expr.const(val) * p2
        return c1, c2


def _law_rhs_map(system, T):
    out = {}
    for comp, c in enumerate(T):
        out.update(_coeff_map(system.reduce(c), comp))
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


def is_trivial(system, T, theta_ansatz=None, witness_space=None):
    """A law is flagged trivial when its components vanish on solutions
    (first kind) or, for two independent variables, when it differs from a
    curl (D_x theta, -D_t theta) with theta in the witness ansatz by a
    vector vanishing on solutions (second kind)."""
    table = system.table
    reds = [system.reduce(c) for c in T]
    if all(r.is_zero for r in reds):
        return TrivialityReport(True, "vanishing")
    if table.n != 2:
        return TrivialityReport(False)
    ws = _witness_space(system, witness_space, theta_ansatz, T)
    rhs_map = {}
    for comp, r in enumerate(reds):
        rhs_map.update(_coeff_map(r, comp))
    coeffs = ws.witness_coefficients(rhs_map)
    if coeffs is None:
        return TrivialityReport(False)
    return TrivialityReport(True, "curl", ws.witness_expr(coeffs))


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
    rhs_map = _law_rhs_map(system, A)
    b_col = _law_rhs_map(system, B)
    if not allow_scale:
        shifted = dict(rhs_map)
        for key, val in b_col.items():
            shifted[key] = shifted.get(key, Fraction(0)) - val
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
            shifted[key] = shifted.get(key, Fraction(0)) - val
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
    using a curl witness from the ansatz.  The result is a conserved vector
    equivalent to T modulo trivial laws."""
    table = system.table
    base = [system.reduce(c) for c in T]
    if table.n != 2:
        return tuple(base)
    ws = _witness_space(system, witness_space, theta_ansatz, T)
    if not ws.ncols:
        return tuple(base)
    factors = dict(ws.factors)
    rhs_map = {}
    for comp, r in enumerate(base):
        rhs_map.update(_coeff_map(r, comp, factors))
    keys = set(ws.columns) | set(rhs_map)

    def priority(full_key):
        comp, mk = full_key
        key = factors.get(full_key, ())
        jets = [(b, e) for b, e in key if isinstance(b, Jet) and b.order > 0]
        order = max((b.order for b, _ in jets), default=0)
        weight = sum((e for _, e in jets), Fraction(0))
        return (comp, -order, -weight, -len(key), mk)

    inc = linsolve.IncrementalSystem(ws.ncols)
    for full_key in sorted(keys, key=priority):
        col = ws.columns.get(full_key)
        row = {m: v for m, v in enumerate(col) if v} if col else {}
        inc.try_add(row, rhs_map.get(full_key, Fraction(0)))
    coeffs = inc.solution()
    c1, c2 = ws.curl_expr(coeffs)
    return (system.reduce(base[0] - c1), system.reduce(base[1] - c2))


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
        law.triviality = is_trivial(system, comps, witness_space=ws)
        if law.triviality.trivial:
            trivia.append(law)
        else:
            law.stripped = strip_trivial(system, comps, witness_space=ws)
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
        return [c[k].const if k in c else Fraction(0) for k in keys]

    va = [vec(c) for c in collected[:len(exprs_a)]]
    vb = [vec(c) for c in collected[len(exprs_a):]]
    return linsolve.span_equal(va, vb)
