"""Exact symbolic expressions over jet space.

An expression is a normalized sum of terms.  Each term is an exact rational
coefficient times a multiset of (base, exponent) factors, where a base is an
atom (independent variable, jet coordinate, unknown constant, or formal
function symbol) or a polynomial sub-expression carried opaquely under a
negative-integer or fractional rational exponent.

Normal forms are canonical: syntactic equality of normal forms decides
zero-equivalence for this expression class (polynomials in jets and
parameters, times rational powers of distinct polynomial bases, times formal
function symbols).  No algebraic relations are assumed between distinct
opaque bases; this is a stated limitation, not an oversight.

Numbers are exact: a coefficient or exponent is stored as a plain `int`
when it is integral and as a reduced `Fraction` when it is not, never as a
float or an integral `Fraction`.  Every division goes through `_quot`.
Both kinds have `.numerator` and `.denominator`, which is all that keys and
printing read, so the choice never changes a normal form or its text.

Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction


class DomainError(ArithmeticError):
    """Raised when normalization hits an undefined value (zero to a negative power)."""


class NonlinearError(ValueError):
    """Raised by collect() when an expression is not linear in the unknowns."""

    def __init__(self, message, term=None):
        super().__init__(message)
        self.term = term


def _num(x):
    """An exact rational as an int when it is integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _quot(a, b):
    """Exact a / b for rationals a and b != 0: an int when the quotient is
    integral, else a reduced Fraction, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _num(a / b)


def _exact(x):
    """x in the stored form of an exact rational; floats are refused."""
    if isinstance(x, (int, Fraction)):
        return _num(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

class Atom:
    """Base class for the leaves of the expression tree.

    Every atom carries a precomputed sort key; the key order is total and
    stable across runs (kind, then index/name, then multi-index, then the
    normal form of a function argument).
    """

    __slots__ = ("_key", "_bkey", "_hash")

    def _set_key(self, key):
        self._key = key
        self._bkey = (0,) + key     # the key as a factor base, see Expr._bkey
        self._hash = hash(key)

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, Atom) and self._key == other._key)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __lt__(self, other):
        return self._key < other._key

    def __hash__(self):
        return self._hash

    def as_expr(self):
        return Expr(((1, ((self, 1),)),))

    # arithmetic delegates to the expression layer
    def __add__(self, other):
        return self.as_expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.as_expr() - other

    def __rsub__(self, other):
        return (-self.as_expr()) + other

    def __neg__(self):
        return -self.as_expr()

    def __mul__(self, other):
        return self.as_expr() * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.as_expr() / other

    def __rtruediv__(self, other):
        return other / self.as_expr()

    def __pow__(self, e):
        return self.as_expr() ** e


class IndepVar(Atom):
    """Independent variable x^i."""

    __slots__ = ("index", "name")

    def __init__(self, index, name):
        self.index = index
        self.name = name
        self._set_key((0, index))

    def __repr__(self):
        return self.name


class Jet(Atom):
    """Jet coordinate u^a_J: dependent variable `alpha` differentiated by the
    multi-index `mi`, a tuple of IndepVar atoms sorted by index (so u[x,t]
    and u[t,x] are the same atom).  An empty multi-index is the dependent
    variable itself."""

    __slots__ = ("alpha", "name", "mi")

    def __init__(self, alpha, name, mi=()):
        self.alpha = alpha
        self.name = name
        self.mi = tuple(sorted(mi, key=lambda v: v.index))
        self._set_key((1, alpha, len(self.mi), tuple(v.index for v in self.mi)))

    @property
    def order(self):
        return len(self.mi)

    def shifted(self, v):
        """The jet with one more differentiation by the independent variable v."""
        return Jet(self.alpha, self.name, self.mi + (v,))

    def counts(self):
        c = {}
        for v in self.mi:
            c[v.index] = c.get(v.index, 0) + 1
        return c

    def contains(self, other):
        """True if this jet is `other` or a derivative of it (same variable,
        multi-index a superset as multisets)."""
        if self.alpha != other.alpha or len(self.mi) < len(other.mi):
            return False
        mine, theirs = self.counts(), other.counts()
        return all(mine.get(i, 0) >= k for i, k in theirs.items())

    def minus(self, other):
        """Multi-index difference self.mi - other.mi as a tuple of IndepVars."""
        rest = list(self.mi)
        for v in other.mi:
            rest.remove(v)
        return tuple(rest)

    def __repr__(self):
        if not self.mi:
            return self.name
        return f"{self.name}[{','.join(v.name for v in self.mi)}]"


class Param(Atom):
    """Unknown constant (ansatz coefficient, arbitrary constant)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._set_key((2, name))

    def __repr__(self):
        return self.name


class FuncSym(Atom):
    """Formal univariate function symbol f, differentiated `order` times,
    applied to an expression argument."""

    __slots__ = ("name", "order", "arg")

    def __init__(self, name, order, arg):
        self.name = name
        self.order = order
        self.arg = arg
        self._set_key((3, name, order, arg.sort_key()))

    def raised(self):
        return FuncSym(self.name, self.order + 1, self.arg)

    def __repr__(self):
        return f"{self.name}{self.order * chr(39)}({self.arg!r})"


# ---------------------------------------------------------------------------
# Expr
# ---------------------------------------------------------------------------

def _monokey(factors):
    return tuple((b._bkey, e.numerator, e.denominator) for b, e in factors)


class Expr:
    """Canonical sum of terms; construct through the arithmetic operators,
    `Atom.as_expr`, or `Expr.const` rather than directly."""

    __slots__ = ("terms", "_hash", "_skey", "_atoms")

    def __init__(self, terms=()):
        self.terms = tuple(terms)
        self._hash = None
        self._skey = None
        self._atoms = None

    # -- construction helpers --

    @staticmethod
    def const(c):
        c = _exact(c)
        if c == 0:
            return ZERO
        return Expr(((c, ()),))

    # -- canonical keys --

    def sort_key(self):
        if self._skey is None:
            self._skey = tuple(
                (_monokey(f), c.numerator, c.denominator) for c, f in self.terms
            )
        return self._skey

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.sort_key())
        return self._hash

    @property
    def _bkey(self):
        """The key of this expression as an opaque factor base; atoms keep
        theirs in a slot, and every atom's key sorts first."""
        return (1, self.sort_key())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                return self == Expr.const(other)
            return NotImplemented
        return self.terms == other.terms

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    # -- predicates --

    @property
    def is_zero(self):
        return not self.terms

    def is_rational(self):
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][1])

    def as_rational(self):
        if self.is_zero:
            return 0
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self!r}")
        return self.terms[0][0]

    def atoms(self):
        """All atoms appearing anywhere, including inside function-symbol
        arguments and opaque bases."""
        if self._atoms is None:
            found = set()
            for _, factors in self.terms:
                for b, _e in factors:
                    if isinstance(b, Atom):
                        found.add(b)
                        if isinstance(b, FuncSym):
                            found |= b.arg.atoms()
                    else:
                        found |= b.atoms()
            self._atoms = frozenset(found)
        return self._atoms

    def jets(self, alpha=None):
        return [a for a in sorted(self.atoms())
                if isinstance(a, Jet) and (alpha is None or a.alpha == alpha)]

    def max_order(self):
        return max((a.order for a in self.atoms() if isinstance(a, Jet)), default=0)

    def is_polynomial(self):
        """True if every factor is an atom raised to a positive integer power."""
        return all(
            isinstance(b, Atom) and e.denominator == 1 and e > 0
            for _, factors in self.terms for b, e in factors
        )

    # -- arithmetic --

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _build(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple((-c, f) for c, f in self.terms))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _build(_product_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DomainError("division by zero")
            # the terms stay canonical: same monomials, none cancels
            return Expr(tuple((_quot(c, other), f) for c, f in self.terms))
        if isinstance(other, Expr):
            return self * make_power(other, -1)
        return NotImplemented

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * make_power(self, -1)

    def __pow__(self, e):
        if isinstance(e, Expr):
            e = e.as_rational()
        return make_power(self, e)

    def __repr__(self):
        return to_string(self)

    __str__ = __repr__


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.const(x)
    if isinstance(x, Atom):
        return x.as_expr()
    return NotImplemented


ZERO = Expr()
ONE = Expr(((1, ()),))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _term_product(c1, f1, c2, f2):
    """Multiply two canonical terms; returns a list of terms.  The factor
    tuples are merged in one pass by base key, so the product is canonical
    as it comes out, unless an opaque base reaches a positive integer
    exponent: that term is expanded, which may produce several."""
    c = c1 * c2
    if not c:
        return []
    merged = []
    expand = False
    i = j = 0
    n1, n2 = len(f1), len(f2)
    while i < n1 and j < n2:
        b, e = f1[i]
        k1, k2 = b._bkey, f2[j][0]._bkey
        if k1 < k2:
            merged.append(f1[i])
            i += 1
        elif k2 < k1:
            merged.append(f2[j])
            j += 1
        else:
            e = _num(e + f2[j][1])
            if e:
                merged.append((b, e))
                if type(e) is int and e > 0 and not isinstance(b, Atom):
                    expand = True
            i += 1
            j += 1
    merged += f1[i:] or f2[j:]
    if expand:
        return _expand_term(c, dict(merged))
    return [(c, tuple(merged))]


def _product_terms(terms1, terms2):
    """Raw terms of the product of two term sequences, not yet merged."""
    out = []
    for c1, f1 in terms1:
        for c2, f2 in terms2:
            out.extend(_term_product(c1, f1, c2, f2))
    return out


def _expand_term(coeff, fdict):
    """Build canonical terms from a coefficient and a base->exponent mapping.

    Opaque bases whose exponent is a nonnegative integer are expanded into
    the polynomial part; everything else stays a factor."""
    if coeff == 0:
        return []
    plain = []
    expansions = []
    for b, e in fdict.items():
        if e == 0:
            continue
        if e.denominator == 1:
            e = e.numerator
            if e > 0 and not isinstance(b, Atom):
                expansions.append((b, e))
                continue
        plain.append((b, e))
    plain.sort(key=lambda fe: fe[0]._bkey)
    if not expansions:
        return [(coeff, tuple(plain))]
    prod = Expr(((coeff, tuple(plain)),))
    for b, k in expansions:
        prod = prod * _int_power(b, k)
    return list(prod.terms)


def _int_power(e, k):
    result = ONE
    square = e
    while k:
        if k & 1:
            result = result * square
        k >>= 1
        if k:
            square = square * square
    return result


def _build(raw_terms):
    """Accumulate like terms, then run opaque-base reduction to a fixpoint;
    the terms are ordered by the monomial keys the accumulation computed."""
    acc = _accumulate(raw_terms)
    if any(not isinstance(b, Atom) for _, f in acc.values() for b, _ in f):
        acc = _radical_reduce(acc.values())
    return Expr(tuple(tuple(acc[key]) for key in sorted(acc)))


def _split_radical(factors):
    plain, rad = [], []
    for b, e in factors:
        if isinstance(b, Atom):
            plain.append((b, e))
        else:
            rad.append((b, e))
    return tuple(plain), tuple(rad)


def _lm_key(factors):
    return (sum(e for _, e in factors), _monokey(factors))


def _divides(lm, mono):
    need = dict(lm)
    have = {b: e for b, e in mono}
    return all(have.get(b, 0) >= k for b, k in need.items())


def _mono_quot(mono, lm):
    out = dict(mono)
    for b, k in lm:
        out[b] -= k
        if out[b] == 0:
            del out[b]
    return tuple(sorted(out.items(), key=lambda fe: fe[0]._bkey))


def _radical_reduce(terms):
    """Keep opaque-base powers canonical: for each group of terms sharing a
    radical signature, divide the polynomial part by each (non-constant)
    base and move exact multiples up one power.  The resulting base-adic
    form is unique, which is what makes syntactic zero-testing sound.
    Returns the accumulated terms, keyed like `_accumulate`."""
    while True:
        groups = {}
        for c, f in terms:
            plain, rad = _split_radical(f)
            groups.setdefault(rad, []).append((c, plain))
        changed = False
        out = []
        for rad, polyterms in groups.items():
            if not rad:
                out.extend((c, p) for c, p in polyterms)
                continue
            moved = _reduce_group(rad, polyterms)
            if moved is None:
                out.extend((c, tuple(sorted(dict(p + rad).items(),
                                            key=lambda fe: fe[0]._bkey)))
                           for c, p in polyterms)
            else:
                changed = True
                out.extend(moved)
        # re-accumulate (moved terms can collide with existing ones)
        acc = _accumulate(out)
        if not changed:
            return acc
        terms = acc.values()


def _reduce_group(rad, polyterms):
    """Try to extract one exact multiple of one base from the group's
    polynomial part.  Returns replacement raw terms, or None if stable."""
    for b, e in rad:
        if b.is_rational():
            continue  # opaque constants like 2^(1/2) are inert
        lm_c, lm_f = max(b.terms, key=lambda t: _lm_key(t[1]))
        # polynomial division of the group content by b
        poly = {f: c for c, f in _accumulate(polyterms).values()}
        quot = {}
        progress = True
        while progress:
            progress = False
            for mono in sorted(poly, key=_lm_key, reverse=True):
                if _divides(lm_f, mono):
                    q = _mono_quot(mono, lm_f)
                    ratio = _quot(poly[mono], lm_c)
                    quot[q] = quot.get(q, 0) + ratio
                    for bc, bf in b.terms:
                        prods = _term_product(-ratio * bc, q, 1, bf)
                        for pc, pf in prods:
                            # products stay polynomial here: q and bf are atom factors
                            poly[pf] = poly.get(pf, 0) + pc
                            if poly[pf] == 0:
                                del poly[pf]
                    progress = True
                    break
        if not quot:
            continue
        rest = tuple(fe for fe in rad if fe[0] is not b and fe != (b, e))
        up = [(b, e + 1)] if e + 1 != 0 else []
        moved = []
        for q, c in quot.items():
            if c == 0:
                continue
            moved.extend(_expand_term(c, dict(q + rest + tuple(up))))
        for mono, c in poly.items():
            moved.extend(_expand_term(c, dict(mono + rad)))
        return moved
    return None


def _accumulate(terms):
    """Like terms merged: monomial key -> [coefficient, factors], without
    the keys whose coefficients cancel; integral coefficients become ints."""
    acc = {}
    for c, f in terms:
        key = _monokey(f)
        cur = acc.get(key)
        if cur is None:
            acc[key] = [c, f]
        else:
            cur[0] += c
    out = {}
    for key, cf in acc.items():
        if cf[0]:
            cf[0] = _num(cf[0])
            out[key] = cf
    return out


def _nth_root(n, k):
    """Exact integer k-th root of n >= 0, or None."""
    if n in (0, 1):
        return n
    if n.bit_length() <= k:
        return None  # 1 < n^(1/k) < 2
    if k == 2:
        r = math.isqrt(n)
    else:
        # integer Newton from above converges to floor(n^(1/k))
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == n else None


def _rational_pow(c, e):
    """c**e as an exact rational, or None when the result is irrational."""
    if c == 0 and e < 0:
        raise DomainError("zero raised to a negative power")
    pn, pd = c.numerator, c.denominator
    if e.denominator != 1:
        if c < 0:
            return None
        pn = _nth_root(pn, e.denominator)
        pd = _nth_root(pd, e.denominator)
        if pn is None or pd is None:
            return None
    k = e.numerator
    return _quot(pn ** k, pd ** k) if k >= 0 else _quot(pd ** -k, pn ** -k)


def make_power(base, e):
    """Canonical `base ** e` for an Expr base and rational exponent.

    Nonnegative integer powers of sums expand; single terms distribute over
    their factors; everything else becomes an opaque factor whose base must
    be polynomial."""
    e = _exact(e)
    if e == 0:
        return ONE
    if e == 1:
        return base
    if base.is_zero:
        if e < 0:
            raise DomainError("zero raised to a negative power")
        return ZERO
    if e.denominator == 1 and e > 0:
        return _int_power(base, e)
    if len(base.terms) == 1:
        c, factors = base.terms[0]
        scalar = _rational_pow(c, e)
        fdict = {b: k * e for b, k in factors}
        if scalar is None:
            fdict[Expr.const(c)] = e
            scalar = 1
        return _build(_expand_term(scalar, fdict))
    if not base.is_polynomial():
        raise DomainError(
            f"cannot raise a non-polynomial sum to the power {e}: {base!r}")
    return Expr(((1, ((base, e),)),))


# ---------------------------------------------------------------------------
# Calculus on atoms
# ---------------------------------------------------------------------------

def _derive(e, base_derivative):
    """The derivation that maps each factor base b to the raw terms
    `base_derivative(b)`, applied to e by the product and power rules:
    every factor b^k of a term gives k * b^(k-1) * d(b) times the other
    factors.  `base_derivative` is called once per distinct base; the
    result is normalized once."""
    dbases = {}
    out = []
    for coeff, factors in e.terms:
        for i, (b, k) in enumerate(factors):
            db = dbases.get(b)
            if db is None:
                db = dbases[b] = base_derivative(b)
            if not db:
                continue
            if k == 1:
                rest = factors[:i] + factors[i + 1:]
            else:
                rest = factors[:i] + ((b, k - 1),) + factors[i + 1:]
            ck = coeff * k
            for dc, df in db:
                out.extend(_term_product(ck, rest, dc, df))
    return _build(out)


def _chain_terms(f, darg):
    """Raw terms of f'(arg) * darg, for a function symbol f applied to arg
    and darg a derivative of arg."""
    return _product_terms(darg.terms, f.raised().as_expr().terms)


def pdiff(e, a):
    """Partial derivative of e with respect to the atom a, treating all other
    atoms as constants.  Function symbols differentiate through their
    argument by the chain rule; opaque powers by the power rule."""

    def base_derivative(b):
        if isinstance(b, Atom):
            if b == a:
                return ONE.terms
            if isinstance(b, FuncSym):
                return _chain_terms(b, pdiff(b.arg, a))
            return ()
        return pdiff(b, a).terms

    return _derive(e, base_derivative)


def _touches(b, keys):
    """True if the factor base b is a key atom or holds one inside a
    function argument or an opaque base."""
    if isinstance(b, FuncSym):
        return b in keys or not keys.isdisjoint(b.arg.atoms())
    if isinstance(b, Atom):
        return b in keys
    return not keys.isdisjoint(b.atoms())


def substitute(e, subs):
    """Replace every occurrence of each atom key of the dict `subs`
    (including inside function arguments and opaque bases) by its value,
    all at once, renormalizing.  Terms that touch no key pass through
    unchanged.  In a touched term the untouched factors stay one monomial
    and only the replaced factors are multiplied out; each replaced
    (base, exponent) factor is computed once per call."""
    subs = {a: _coerce(r) for a, r in subs.items()}
    keys = subs.keys()
    pieces = {}
    out = []
    for coeff, factors in e.terms:
        kept = []
        prod = None     # raw terms of the product of the replaced factors
        for fe in factors:
            if not _touches(fe[0], keys):
                kept.append(fe)
                continue
            piece = pieces.get(fe)
            if piece is None:
                piece = pieces[fe] = _replaced(fe[0], fe[1], subs).terms
            prod = piece if prod is None else _product_terms(prod, piece)
        if prod is None:
            out.append((coeff, factors))
        else:
            out.extend(_product_terms(((coeff, tuple(kept)),), prod))
    return _build(out)


def _replaced(b, k, subs):
    """b^k with the substitution applied to a touched base b."""
    if b in subs:
        return make_power(subs[b], k)
    if isinstance(b, FuncSym):
        newf = FuncSym(b.name, b.order, substitute(b.arg, subs))
        return Expr(((1, ((newf, k),)),))
    return make_power(substitute(b, subs), k)


# ---------------------------------------------------------------------------
# Collection by monomials
# ---------------------------------------------------------------------------

class LinearForm:
    """Affine form  const + sum(coeffs[p] * p)  over Param unknowns."""

    __slots__ = ("const", "coeffs")

    def __init__(self):
        self.const = 0
        self.coeffs = {}

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self):
        parts = [str(self.const)] if self.const else []
        parts += [f"{c}*{p!r}" for p, c in self.items()]
        return " + ".join(parts) if parts else "0"


def collect(e, unknowns):
    """Partition e as sum over monomial keys of key * (affine form in the
    unknown parameters).  Keys are canonical factor tuples free of unknowns,
    in deterministic order.  Raises NonlinearError if any term has joint
    degree > 1 in the unknowns."""
    unknowns = frozenset(unknowns)
    found = {}
    for coeff, factors in e.terms:
        present = [(b, k) for b, k in factors if b in unknowns]
        if len(present) > 1 or (present and present[0][1] != 1):
            raise NonlinearError(
                f"term is nonlinear in the unknowns: {Expr(((coeff, factors),))!r}",
                term=(coeff, factors))
        if present:
            key = tuple(fe for fe in factors if fe[0] not in unknowns)
        else:
            key = factors
        form = found.get(key)
        if form is None:
            form = found[key] = LinearForm()
        if present:
            p = present[0][0]
            form.coeffs[p] = form.coeffs.get(p, 0) + coeff
        else:
            form.const += coeff
    return {key: found[key] for key in sorted(found, key=_monokey)}


def key_expr(key):
    """The monomial Expr corresponding to a collect() key."""
    return Expr(((1, key),))


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------

class SymbolTable:
    """Declared names for one model: ordered independent and dependent
    variables, unknown constants, and formal function symbols.  Tables are
    passed explicitly; there is no global state."""

    def __init__(self, indep, dep, params=(), funcs=()):
        self.indep = tuple(IndepVar(i, n) for i, n in enumerate(indep))
        self.dep_names = tuple(dep)
        self.params = {n: Param(n) for n in params}
        self.funcs = tuple(funcs)
        names = [v.name for v in self.indep] + list(dep) + list(params) + list(funcs)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate declaration among {names}")
        self._by_name = {v.name: v for v in self.indep}

    @property
    def n(self):
        return len(self.indep)

    @property
    def m(self):
        return len(self.dep_names)

    def indep_var(self, name):
        v = self._by_name.get(name)
        if v is None:
            raise KeyError(f"not an independent variable: {name}")
        return v

    def jet(self, name, mi_names=()):
        alpha = self.dep_names.index(name)
        mi = tuple(self.indep_var(v) for v in mi_names)
        return Jet(alpha, name, mi)

    def jet_by_alpha(self, alpha, mi=()):
        return Jet(alpha, self.dep_names[alpha], mi)

    def func(self, name, order, arg):
        if name not in self.funcs:
            raise KeyError(f"not a declared function symbol: {name}")
        return FuncSym(name, order, arg)


# ---------------------------------------------------------------------------
# Printing (the output re-parses under the input grammar)
# ---------------------------------------------------------------------------

def _exp_str(e):
    if e.denominator == 1:
        return str(e.numerator) if e > 0 else f"({e.numerator})"
    return f"({e.numerator}/{e.denominator})"


def _base_str(b):
    if isinstance(b, IndepVar) or isinstance(b, Param):
        return b.name
    if isinstance(b, Jet):
        if not b.mi:
            return b.name
        return f"{b.name}[{','.join(v.name for v in b.mi)}]"
    if isinstance(b, FuncSym):
        return f"{b.name}{b.order * chr(39)}({to_string(b.arg)})"
    return f"({to_string(b)})"


def _term_str(coeff, factors):
    pieces = []
    for b, e in factors:
        s = _base_str(b)
        if e != 1:
            s += f"^{_exp_str(e)}"
        pieces.append(s)
    mag = abs(coeff)
    if not pieces:
        num = str(mag)
    elif mag == 1:
        num = "*".join(pieces)
    elif mag.denominator == 1:
        num = "*".join([str(mag.numerator)] + pieces)
    else:
        num = "*".join([f"{mag.numerator}/{mag.denominator}"] + pieces)
    return num


def to_string(e):
    if e.is_zero:
        return "0"
    parts = []
    for i, (coeff, factors) in enumerate(e.terms):
        body = _term_str(coeff, factors)
        if i == 0:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts)
