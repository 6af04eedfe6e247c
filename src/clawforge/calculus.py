"""Variational calculus over jet space: total derivatives, the
Euler-Lagrange operator, divergences, reduction modulo a PDE system in
solved form, and Lie point-symmetry prolongation."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .expr import Expr, Jet, Param, ZERO, pdiff, substitute


class SolvedFormError(ValueError):
    """Raised when a system violates the solved-form contract or its
    prolongation is cyclic."""


# ---------------------------------------------------------------------------
# Total derivatives, Euler operator, divergence
# ---------------------------------------------------------------------------

def total_derivative(e, v):
    """D_v e: differentiate explicit dependence on the independent variable v
    and advance every jet coordinate by one v-derivative."""
    out = pdiff(e, v)
    for a in e.atoms():
        if isinstance(a, Jet):
            d = pdiff(e, a)
            if not d.is_zero:
                out = out + d * a.shifted(v)
    return out


def total_derivative_mi(e, mi):
    for v in mi:
        e = total_derivative(e, v)
    return e


def euler(e, alpha, table):
    """Variational derivative of e with respect to dependent variable
    `alpha`: sum over the unordered multi-indices J present in e of
    (-1)^|J| D_J (de/du_J).  Annihilates total divergences."""
    out = ZERO
    for a in e.jets(alpha):
        d = pdiff(e, a)
        if d.is_zero:
            continue
        sign = -1 if a.order % 2 else 1
        out = out + sign * total_derivative_mi(d, a.mi)
    return out


def divergence(T, table):
    """D_i T^i over the table's independent variables."""
    if len(T) != table.n:
        raise ValueError(f"expected {table.n} components, got {len(T)}")
    out = ZERO
    for comp, v in zip(T, table.indep):
        out = out + total_derivative(comp, v)
    return out


# ---------------------------------------------------------------------------
# PDE systems in solved form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Equation:
    lead: Jet
    rhs: Expr

    @property
    def expr(self):
        """F = lead - rhs, the equation as an expression that vanishes on
        solutions."""
        return self.lead.as_expr() - self.rhs


class PdeSystem:
    """Equations lead_a = rhs_a with declared leading jet coordinates.

    The solved form must be well-posed: each leading coordinate appears in
    exactly one equation, no leading coordinate is a derivative of another,
    and no right-hand side contains a leading coordinate or a derivative of
    one.  Reduction modulo the system then terminates and is canonical.
    """

    def __init__(self, name, table, equations):
        self.name = name
        self.table = table
        self.equations = tuple(equations)
        self._memo = {}
        self._in_progress = set()
        # the prolongation memo is shared across reduce() calls; the lock
        # keeps the observable contract (purity, determinism) under
        # concurrent use
        self._lock = threading.RLock()
        self._validate()

    def _validate(self):
        leads = [eq.lead for eq in self.equations]
        if len({l.sort_key() for l in leads}) != len(leads):
            raise SolvedFormError(f"{self.name}: duplicate leading coordinate")
        for i, a in enumerate(leads):
            for j, b in enumerate(leads):
                if i != j and a.contains(b):
                    raise SolvedFormError(
                        f"{self.name}: leading {a!r} is a derivative of leading {b!r}")
        for eq in self.equations:
            for atom in eq.rhs.atoms():
                if isinstance(atom, Jet) and self._reducing_equation(atom) is not None:
                    raise SolvedFormError(
                        f"{self.name}: right-hand side of {eq.lead!r} contains "
                        f"reducible jet {atom!r}")

    @property
    def order(self):
        k = 0
        for eq in self.equations:
            k = max(k, eq.lead.order, eq.rhs.max_order())
        return k

    def _reducing_equation(self, jet):
        for idx, eq in enumerate(self.equations):
            if jet.contains(eq.lead):
                return idx
        return None

    def _prolonged_rhs(self, idx, mi_key):
        """rhs of equation idx differentiated by the multi-index `mi_key`
        (tuple of variable indices, sorted), kept fully reduced."""
        key = (idx, mi_key)
        val = self._memo.get(key)
        if val is not None:
            return val
        if key in self._in_progress:
            raise SolvedFormError(
                f"{self.name}: cyclic prolongation while reducing "
                f"{self.equations[idx].lead!r} by {mi_key}")
        self._in_progress.add(key)
        try:
            if not mi_key:
                val = self.reduce(self.equations[idx].rhs)
            else:
                prev = self._prolonged_rhs(idx, mi_key[1:])
                v = self.table.indep[mi_key[0]]
                val = self.reduce(total_derivative(prev, v))
        finally:
            self._in_progress.discard(key)
        self._memo[key] = val
        return val

    def reduce(self, e):
        """Substitute away every jet that is a leading coordinate or a
        derivative of one; the result is zero iff e vanishes on all
        solutions (within the engine's expression class)."""
        with self._lock:
            return self._reduce(e)

    def _reduce(self, e):
        # the prolonged right-hand sides are already reduced, so one
        # simultaneous substitution leaves no reducible jet behind
        subs = {}
        for a in sorted(e.atoms()):
            if isinstance(a, Jet):
                idx = self._reducing_equation(a)
                if idx is not None:
                    mi_key = tuple(sorted(
                        v.index for v in a.minus(self.equations[idx].lead)))
                    subs[a] = self._prolonged_rhs(idx, mi_key)
        if not subs:
            return e
        return substitute(e, subs)


# ---------------------------------------------------------------------------
# Generators and prolongation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    """Infinitesimal generator xi^i d/dx^i + eta^a d/du^a.  Coefficients may
    depend on the independent and dependent variables (point symmetry) or on
    jets (generalized; accepted by characteristic and flux operations only).
    Parameters are allowed only in flagged parametrized families."""

    xi: tuple
    eta: tuple
    label: str = ""
    parametrized: bool = False

    def __post_init__(self):
        if not self.parametrized:
            for c in list(self.xi) + list(self.eta):
                bad = [a for a in c.atoms() if isinstance(a, Param)]
                if bad:
                    raise ValueError(
                        f"generator coefficient {c!r} contains parameters {bad}; "
                        "flag the generator as a parametrized family")

    def is_point(self):
        for c in list(self.xi) + list(self.eta):
            if any(isinstance(a, Jet) and a.order > 0 for a in c.atoms()):
                return False
        return True

    def scaled(self, q):
        q = Fraction(q)
        return Generator(tuple(c * q for c in self.xi),
                         tuple(c * q for c in self.eta),
                         label=self.label, parametrized=self.parametrized)

    def plus(self, other, label=""):
        return Generator(tuple(a + b for a, b in zip(self.xi, other.xi)),
                         tuple(a + b for a, b in zip(self.eta, other.eta)),
                         label=label or f"{self.label}+{other.label}",
                         parametrized=self.parametrized or other.parametrized)


class Prolongation:
    """Coefficients zeta^a_J of the prolonged generator, via the recursion
    zeta_{J+i} = D_i zeta_J - u^a_{J+k} D_i xi^k with zeta_{} = eta^a.
    Point symmetries only; the result is independent of how J is split."""

    def __init__(self, generator, table):
        if not generator.is_point():
            raise ValueError("prolongation requires a point symmetry "
                             "(coefficients free of jets)")
        self.g = generator
        self.table = table
        self._memo = {}

    def zeta(self, alpha, mi):
        mi = tuple(sorted(mi, key=lambda v: v.index))
        key = (alpha, tuple(v.index for v in mi))
        val = self._memo.get(key)
        if val is not None:
            return val
        if not mi:
            val = self.g.eta[alpha]
        else:
            v, rest = mi[0], mi[1:]
            prev = self.zeta(alpha, rest)
            val = total_derivative(prev, v)
            for k, xk in enumerate(self.table.indep):
                dxi = total_derivative(self.g.xi[k], v)
                if not dxi.is_zero:
                    val = val - Jet(alpha, self.table.dep_names[alpha],
                                    rest + (xk,)).as_expr() * dxi
        self._memo[key] = val
        return val


def prolong(generator, table, alpha, mi):
    """Prolongation coefficient zeta^alpha_J for the multi-index mi."""
    return Prolongation(generator, table).zeta(alpha, tuple(mi))


def apply_generator(generator, e, table, prolongation=None):
    """Action of the (prolonged) generator on e: xi^i de/dx^i plus
    zeta^a_J de/du^a_J over every jet present in e."""
    pro = prolongation or Prolongation(generator, table)
    out = ZERO
    for v, xi in zip(table.indep, generator.xi):
        if not xi.is_zero:
            out = out + xi * pdiff(e, v)
    for a in e.atoms():
        if isinstance(a, Jet):
            d = pdiff(e, a)
            if not d.is_zero:
                out = out + pro.zeta(a.alpha, a.mi) * d
    return out


def symmetry_residual(generator, system):
    """Prolonged action of the generator on each equation, reduced modulo
    the system; the zero list means the generator is admitted."""
    pro = Prolongation(generator, system.table)
    out = []
    for eq in system.equations:
        r = apply_generator(generator, eq.expr, system.table, prolongation=pro)
        out.append(system.reduce(r))
    return out
