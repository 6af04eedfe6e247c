"""Variational calculus over jet space: total derivatives, the gradient
(every partial by a jet from one pass over the terms) and the
Euler-Lagrange operator built on it, divergences, reduction modulo a PDE
system in solved form, generators with their characteristics, and one memo
of the total derivatives of a characteristic that serves both the
prolongation of a point symmetry and the symmetry flux.

Each derivative below only says what it does to a single atom (a jet, an
independent variable); `expr._derive_all` carries it through products,
powers, function symbols and opaque bases.

The gradient's partials, each step of a D_J chain and the Euler operator's
sum pass on as accumulated terms (`expr._normal`), unsorted; the public
operators sort what they return (`expr._sorted_expr`)."""

from __future__ import annotations

import threading
from functools import cached_property

from .expr import (Jet, ONE, Param, _build, _derive_all, _normal,
                   _product_terms, _sorted_expr, _terms, pdiff, substitute)


class SolvedFormError(ValueError):
    """Raised when a system violates the solved-form contract or its
    prolongation is cyclic."""


# ---------------------------------------------------------------------------
# Total derivatives, Euler operator, divergence
# ---------------------------------------------------------------------------

def _dv_terms(terms, v):
    """The raw terms of D_v of `terms`, (coefficient, factors) pairs:
    explicit dependence on the independent variable v differentiated and
    every jet coordinate advanced by one v-derivative, in one pass over
    the terms (`_derive_all`)."""

    def rule(a):
        if isinstance(a, Jet):
            return ((0, a.shifted(v).as_expr().terms),)
        return ((0, ONE.terms),) if a == v else None

    return _derive_all(terms, rule).get(0, ())


def total_derivative(e, v):
    """D_v e (see `_dv_terms`)."""
    return _build(_dv_terms(e.terms, v))


def _gradient(terms):
    """{jet: d/djet} of the expression with terms `terms`, for every jet
    it holds, including those inside function arguments and opaque bases,
    from one pass over the terms (`_derive_all`).  Each partial is
    normalized once, at the end of the pass, so the raw terms are gone
    before a caller works on the partials; a partial is accumulated terms
    (`_normal`), left unsorted."""
    one = ONE.terms
    return {a: _normal(t) for a, t in _derive_all(
        terms, lambda a: ((a, one),) if isinstance(a, Jet) else None).items()}


def _euler(grad, alpha):
    """The variational derivative with respect to `alpha` of the expression
    whose gradient is `grad`, as accumulated terms.  The partials by the
    jets of `alpha` are taken out of `grad` as they are used, so each is
    freed as soon as its total derivative is taken; each step of D_J is
    normalized and none is sorted."""
    out = []
    for a in [a for a in grad if a.alpha == alpha]:
        acc = grad.pop(a)
        for v in a.mi:
            acc = _normal(_dv_terms(_terms(acc), v))
        sign = -1 if a.order % 2 else 1
        out.extend((sign * c, f) for f, c in acc.items())
    return _normal(out)


def euler(e, alpha, table):
    """Variational derivative of e with respect to dependent variable
    `alpha`: sum over the unordered multi-indices J of the jets e holds of
    (-1)^|J| D_J (de/du_J), every partial read from one gradient of e.
    Annihilates total divergences."""
    return _sorted_expr(_euler(_gradient(e.terms), alpha))


def divergence(T, table):
    """D_i T^i over the table's independent variables."""
    if len(T) != table.n:
        raise ValueError(f"expected {table.n} components, got {len(T)}")
    out = []
    for comp, v in zip(T, table.indep):
        out.extend(total_derivative(comp, v).terms)
    return _build(out)


# ---------------------------------------------------------------------------
# PDE systems in solved form
# ---------------------------------------------------------------------------

class Equation:
    def __init__(self, lead, rhs):
        self.lead, self.rhs = lead, rhs

    @cached_property
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
    Reduction also commutes with total derivatives, reduce(D_v e) ==
    reduce(D_v reduce(e)); stripping and the witness columns rely on it.

    One memo maps each jet met so far to its reduced image, or to None if
    no equation reduces it.  `reduced_derivative` differentiates a reduced
    expression with each jet mapped to the image of its derivative (memoized
    by jet and variable), so it builds no unreduced intermediate and shares
    its jets; prolonged images are made that way.
    """

    def __init__(self, name, table, equations):
        self.name = name
        self.table = table
        self.equations = tuple(equations)
        self._images = {}
        self._dterms = {}   # (jet, v) -> terms of the image of D_v jet
        self._in_progress = set()
        # the jet memo is shared across calls; the lock keeps the
        # observable contract (purity, determinism) under concurrent use
        self._lock = threading.RLock()
        self._validate()

    def _validate(self):
        leads = [eq.lead for eq in self.equations]
        if len(set(leads)) != len(leads):
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
        return max((max(eq.lead.order, eq.rhs.max_order())
                    for eq in self.equations), default=0)

    def _reducing_equation(self, jet):
        return next((idx for idx, eq in enumerate(self.equations)
                     if jet.contains(eq.lead)), None)

    def _image(self, jet):
        """The memoized reduced image of a jet (None if it is not reduced):
        the right-hand side for a leading jet, else the reduced derivative,
        by its lowest-index variable over the lead, of the image below."""
        if jet in self._images:
            return self._images[jet]
        idx = self._reducing_equation(jet)
        val = None
        if idx is not None:
            if jet in self._in_progress:
                raise SolvedFormError(
                    f"{self.name}: cyclic prolongation while reducing {jet!r}")
            eq = self.equations[idx]
            rest = jet.minus(eq.lead)
            self._in_progress.add(jet)
            try:
                val = eq.rhs if not rest else self.reduced_derivative(self._image(
                    Jet(jet.alpha, jet.name, eq.lead.mi + rest[1:])), rest[0])
            finally:
                self._in_progress.discard(jet)
        self._images[jet] = val
        return val

    def reduce(self, e):
        """Substitute away every jet that is a leading coordinate or a
        derivative of one; the result is zero iff e vanishes on all
        solutions (within the engine's expression class)."""
        # the images are already reduced, so one simultaneous substitution
        # leaves no reducible jet behind
        subs = {}
        with self._lock:
            for a in e.atoms():
                if isinstance(a, Jet):
                    img = self._image(a)
                    if img is not None:
                        subs[a] = img
        return substitute(e, subs) if subs else e

    def reduced_derivative(self, e, v):
        """reduce(D_v e) for a reduced e (see the class docstring)."""
        return _build(self.reduced_derivative_terms(e, v))

    def reduced_derivative_terms(self, e, v):
        """The raw terms of `reduced_derivative(e, v)`, not yet normalized:
        each jet maps to the image of its v-derivative, memoized by jet and
        variable (`_derive_all` takes function symbols and opaque bases)."""

        def rule(a):
            if not isinstance(a, Jet):
                return ((0, ONE.terms),) if a == v else None
            terms = self._dterms.get((a, v))
            if terms is None:
                d = a.shifted(v)
                img = self._image(d)
                terms = self._dterms[a, v] = (
                    d.as_expr() if img is None else img).terms
            return ((0, terms),)

        with self._lock:
            return _derive_all(e.terms, rule).get(0, ())


# ---------------------------------------------------------------------------
# Generators and prolongation
# ---------------------------------------------------------------------------

class Generator:
    """Infinitesimal generator xi^i d/dx^i + eta^a d/du^a.  Coefficients may
    depend on the independent and dependent variables (point symmetry) or on
    jets (generalized; accepted by characteristic and flux operations only).
    Parameters are allowed only in flagged parametrized families."""

    def __init__(self, xi, eta, label="", parametrized=False):
        self.xi, self.eta = xi, eta
        self.label, self.parametrized = label, parametrized
        if not parametrized:
            for c in list(xi) + list(eta):
                bad = [a for a in c.atoms() if isinstance(a, Param)]
                if bad:
                    raise ValueError(
                        f"generator coefficient {c!r} contains parameters {bad}; "
                        "flag the generator as a parametrized family")

    def is_point(self):
        return not any(isinstance(a, Jet) and a.order > 0
                       for c in self.xi + self.eta for a in c.atoms())


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


class Prolongation:
    """The total derivatives D_J W^a of a generator's characteristic W,
    memoized by (a, J as a multiset), each one D_v of the entry below it.
    The symmetry flux reads them for any generator; `zeta` gives those of
    a point symmetry's prolongation, D_J W^a + xi^k u^a_{J,k} (Olver,
    Thm 2.36)."""

    def __init__(self, generator, table):
        self.g = generator
        self.table = table
        self.W = characteristic(generator, table)
        self._memo = {table.jet_by_alpha(a): w for a, w in enumerate(self.W)}
        self._zeta = {}

    def dW(self, alpha, mi):
        jet = self.table.jet_by_alpha(alpha, mi)   # sorts mi: the memo key
        if jet not in self._memo:
            self._memo[jet] = total_derivative(self.dW(alpha, jet.mi[1:]),
                                               jet.mi[0])
        return self._memo[jet]

    def zeta(self, alpha, mi):
        jet = self.table.jet_by_alpha(alpha, mi)
        if jet not in self._zeta:
            if not self.g.is_point():
                raise ValueError("prolongation requires a point symmetry "
                                 "(coefficients free of jets)")
            out = list(self.dW(alpha, mi).terms)
            for xi, v in zip(self.g.xi, self.table.indep):
                out += _product_terms(xi.terms, jet.shifted(v).as_expr().terms)
            self._zeta[jet] = _build(out)
        return self._zeta[jet]


def apply_generator(generator, e, table, prolongation=None):
    """Action of the (prolonged) generator on e: xi^i de/dx^i plus
    zeta^a_J de/du^a_J over every jet present in e."""
    pro = prolongation or Prolongation(generator, table)
    out = []
    for v, xi in zip(table.indep, generator.xi):
        if not xi.is_zero:
            out.extend(_product_terms(xi.terms, pdiff(e, v).terms))
    for a, d in _gradient(e.terms).items():
        if d:
            zeta = pro.zeta(a.alpha, a.mi)
            out.extend(_product_terms(_terms(d), zeta.terms))
    return _build(out)


def symmetry_residual(generator, system):
    """Prolonged action of the generator on each equation, reduced modulo
    the system; the zero list means the generator is admitted."""
    pro = Prolongation(generator, system.table)
    return [system.reduce(apply_generator(generator, eq.expr, system.table,
                                          prolongation=pro))
            for eq in system.equations]
