"""Exact symbolic expressions over jet space.

An expression is a normalized sum of terms.  Each term is an exact rational
coefficient times a multiset of (base, exponent) factors, where a base is an
atom (independent variable, jet coordinate, model parameter, ansatz
unknown, or formal function symbol) or a polynomial sub-expression carried
opaquely under a negative-integer or fractional rational exponent.

Normal forms are canonical: syntactic equality of normal forms decides
zero-equivalence for this expression class (polynomials in jets and
parameters, times rational powers of distinct polynomial bases, times formal
function symbols).  No algebraic relations are assumed between distinct
opaque bases; this is a stated limitation, not an oversight.  Every base is
taken on the positive real branch, so `(u^2)^(1/2)` is `u`.

Powers of one opaque base are kept in a base-adic form (`_radical_reduce`):
the terms that share a signature, the opaque factors after a term's atoms,
form a group; each round divides each group's polynomial part once, by the
first non-constant base whose leading monomial divides a term, taking the
largest divisible term by `_lm_key` (total degree, then `_monokey`) at each
step, and moves each exact multiple up one power of that base.

Numbers are exact: a coefficient or exponent is stored as a plain `int`
when it is integral and as a reduced `Fraction` when it is not, never as a
float or an integral `Fraction`.  Every division goes through `_quot`.
Both kinds have `.numerator` and `.denominator`, which is all that keys and
printing read, so the choice never changes a normal form or its text.

One chain rule serves every derivative: `_derive_all` carries a rule for
single atoms through products, powers, function symbols and opaque bases.

An `Expr` holds its terms sorted by `_monokey`.  Inside a computation the
stages pass accumulated terms instead (`_normal`: factors -> coefficient,
like terms merged, in no order), and a normal form is sorted only where its
order is read: printing, `Expr` equality and hashing, and `collect`'s keys.
`_sorted_expr` is where accumulated terms are sorted into an `Expr`.

Atoms are interned for the life of the process (`Atom`): equality is
identity, and a key includes the name.  So like terms are merged by their
factor tuples, which hash and compare in C, and the sort key of a
monomial (`_monokey`) is read from a cache of (base, exponent) parts.
The atom table and that cache keep every distinct atom and factor part
the process has built, with no eviction and no setting.

Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter


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

_ATOMS = {}     # key -> the one atom with that key
_index, _name = attrgetter("index"), attrgetter("name")


class Atom:
    """Base class for the leaves of the expression tree.  Constructing an
    atom returns the one already built with the same key, if any.  The key
    is the kind, then the defining data (index, multi-index, the normal
    form of a function argument) and the name; its order is total and
    stable across runs."""

    __slots__ = ("_key", "_bkey")

    @classmethod
    def _intern(cls, key, **fields):
        """A new atom with `key`, fully built before it is published; or the
        one a racing thread published first, so no key has two atoms."""
        atom = object.__new__(cls)
        for name, value in fields.items():
            setattr(atom, name, value)
        atom._key = key
        atom._bkey = (0,) + key     # the key as a factor base, see Expr._bkey
        return _ATOMS.setdefault(key, atom)

    def __lt__(self, other):
        return self._key < other._key

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

    def __new__(cls, index, name):
        key = (0, index, name)
        return _ATOMS.get(key) or cls._intern(key, index=index, name=name)

    def __repr__(self):
        return self.name


class Jet(Atom):
    """Jet coordinate u^a_J: dependent variable `alpha` differentiated by the
    multi-index `mi`, a tuple of IndepVar atoms sorted by index (so u[x,t]
    and u[t,x] are the same atom).  An empty multi-index is the dependent
    variable itself.  Its key ends with its names and those of `mi`, so
    models that number their variables alike keep distinct jets."""

    __slots__ = ("alpha", "name", "mi")

    def __new__(cls, alpha, name, mi=()):
        mi = tuple(sorted(mi, key=_index))
        key = (1, alpha, len(mi), tuple(map(_index, mi)), name,
               tuple(map(_name, mi)))
        return _ATOMS.get(key) or cls._intern(key, alpha=alpha, name=name,
                                              mi=mi)

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
    """Constant parameter declared by a model."""

    __slots__ = ("name",)

    def __new__(cls, name):
        return _ATOMS.get((2, name)) or cls._intern((2, name), name=name)

    def __repr__(self):
        return self.name


class Unknown(Param):
    """Ansatz unknown (see `lawgen.make_ansatz`): a Param that prints like
    one, but whose own sort key keeps it unequal to every model parameter,
    whatever the names."""

    __slots__ = ()

    def __new__(cls, name):
        return _ATOMS.get((4, name)) or cls._intern((4, name), name=name)


class FuncSym(Atom):
    """Formal univariate function symbol f, differentiated `order` times,
    applied to an expression argument."""

    __slots__ = ("name", "order", "arg")

    def __new__(cls, name, order, arg):
        key = (3, name, order, arg.sort_key())
        return _ATOMS.get(key) or cls._intern(key, name=name, order=order,
                                              arg=arg)

    def raised(self):
        return FuncSym(self.name, self.order + 1, self.arg)

    def __repr__(self):
        return f"{self.name}{self.order * chr(39)}({self.arg!r})"


# ---------------------------------------------------------------------------
# Expr
# ---------------------------------------------------------------------------

class _PartKeys(dict):
    """(base, exponent) factor part -> its part of a monomial key, made
    once per distinct part and kept for the life of the process."""

    def __missing__(self, part):
        b, e = part
        key = self[part] = (b._bkey, e.numerator, e.denominator)
        return key


_part_key = _PartKeys().__getitem__


def _monokey(factors):
    """The sort key of a monomial's factor tuple."""
    return tuple(map(_part_key, factors))


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


def _normal(raw_terms):
    """Raw terms normalized and keyed like `_accumulate`: like terms
    merged, then opaque-base reduction run to a fixpoint.  Intermediates
    pass on in this form, sorted only where their order is read
    (`_sorted_expr`).  Factors sort by `_bkey`, atoms first, so only a
    term's last factor need be tested, and an opaque base is an `Expr`
    (`type(b) is Expr` is the cheapest test; a chain of `map`, `filter`
    and `itemgetter` is no faster)."""
    acc = _accumulate(raw_terms)
    if any(f and type(f[-1][0]) is Expr for f in acc):
        acc = _radical_reduce(acc)
    return acc


def _terms(acc):
    """The (coefficient, factors) pairs of accumulated terms, in no
    order; an iterator, read once."""
    return zip(acc.values(), acc)


def _sorted_expr(acc):
    """The Expr of accumulated terms, ordered by `_monokey`, for what reads
    the order of a normal form: printing, `Expr` equality and hashing."""
    return Expr(tuple((acc[f], f) for f in sorted(acc, key=_monokey)))


def _build(raw_terms):
    """The Expr of `_normal(raw_terms)`, sorted by `_sorted_expr`."""
    return _sorted_expr(_normal(raw_terms))


def _lm_key(factors):
    return (sum(e for _, e in factors), _monokey(factors))


def _radical_reduce(acc):
    """Keep opaque-base powers canonical by the rule in the module
    docstring: a term's signature is the suffix of opaque factors after its
    atoms (factors sort atoms first); each round divides each group once
    (`_reduce_group`) and re-emits a stable group as it stands, until no
    group changes.  The base-adic form is unique, which is what makes
    syntactic zero-testing sound.  Takes and returns accumulated terms,
    keyed like `_accumulate`, each group's terms together, the groups in
    the order they first appear."""
    while True:
        groups = {}
        for f, c in acc.items():
            i = len(f)
            while i and type(f[i - 1][0]) is Expr:
                i -= 1
            groups.setdefault(f[i:], {})[f[:i]] = c
        changed = False
        out = []
        for rad, poly in groups.items():
            moved = _reduce_group(rad, poly) if rad else None
            if moved is None:
                out.extend((c, p + rad) for p, c in poly.items())
            else:
                changed = True
                out.extend(moved)
        # re-accumulate (moved terms can collide with existing ones)
        acc = _accumulate(out)
        if not changed:
            return acc


def _reduce_group(rad, poly):
    """Divide a group's polynomial part `poly` (monomial -> coefficient,
    changed in place) by the first non-constant base of its signature `rad`
    whose leading monomial (the largest by `_lm_key`) divides a term, and
    move the quotient up one power of that base.  Each step divides the
    largest divisible term, chosen afresh: `_lm_key` is not a monomial
    order (t < x but t*t > t*x), so a step can bring in a larger term than
    the one it removed.  Returns the replacement raw terms, or None if no
    base divides a term (the group is stable)."""
    for i, (b, e) in enumerate(rad):
        if b.is_rational():
            continue  # opaque constants like 2^(1/2) are inert
        lm_c, lm = max(b.terms, key=lambda t: _lm_key(t[1]))

        def divides(mono):
            have = dict(mono)
            return all(have.get(a, 0) >= k for a, k in lm)

        todo = {m: _lm_key(m) for m in poly if divides(m)}
        if todo:
            break
    else:
        return None
    need, quot = dict(lm), {}
    while todo:
        mono = max(todo, key=todo.get)
        q = tuple((a, k - need.get(a, 0)) for a, k in mono if k != need.get(a))
        ratio = _quot(poly[mono], lm_c)
        quot[q] = quot.get(q, 0) + ratio
        for bc, bf in b.terms:
            # products stay polynomial here: q and bf are atom factors
            for pc, pf in _term_product(-ratio * bc, q, 1, bf):
                c = poly.get(pf, 0) + pc
                if c:
                    poly[pf] = c
                    if pf not in todo and divides(pf):
                        todo[pf] = _lm_key(pf)
                else:
                    del poly[pf]
                    todo.pop(pf, None)
    sig = rad[:i] + (((b, e + 1),) if e + 1 else ()) + rad[i + 1:]
    return ([(c, q + sig) for q, c in quot.items() if c]
            + [(c, m + rad) for m, c in poly.items()])


def _accumulate(terms):
    """Like terms merged: factors -> coefficient, without the factors
    whose coefficients cancel; integral coefficients become ints.  Atoms
    are interned, so equal factor tuples are the same monomial."""
    acc = {}
    get = acc.get
    for c, f in terms:
        cur = get(f)
        acc[f] = c if cur is None else cur + c
    return {f: _num(c) for f, c in acc.items() if c}


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
            f"cannot raise a non-polynomial sum to the power {_rat_str(e)}: "
            f"{base!r}")
    return Expr(((1, ((base, e),)),))


# ---------------------------------------------------------------------------
# Calculus on atoms
# ---------------------------------------------------------------------------

def _derive_all(terms, rule):
    """Derivations of `terms`, (coefficient, factors) pairs read once, all
    in one pass, by the product, power and chain rules.  `rule(a)` gives
    for an atom a the pairs (key, raw terms of the derivative of a along
    key), or None: then a function symbol f(arg) goes by the chain rule,
    f'(arg) times the derivatives of arg, and any other atom is constant.  An opaque base goes by its own derivatives.
    A factor b^k of a term adds k * b^(k-1) * db times the other factors
    to each key's raw terms, each distinct base differentiated once.
    Returns {key: raw terms}, for the caller to normalize; a single
    derivation keys its terms by 0, which hashes without a Python call."""
    dbases = {}
    out = {}
    for coeff, factors in terms:
        for i, (b, k) in enumerate(factors):
            db = dbases.get(b)
            if db is None:
                db = dbases[b] = _derive_base(b, rule)
            if not db:
                continue
            if k == 1:
                rest = factors[:i] + factors[i + 1:]
            else:
                rest = factors[:i] + ((b, k - 1),) + factors[i + 1:]
            ck = coeff * k
            for key, terms in db:
                bucket = out.setdefault(key, [])
                for dc, df in terms:
                    bucket.extend(_term_product(ck, rest, dc, df))
    return out


def _derive_base(b, rule):
    """The (key, raw terms) pairs of the derivatives of one factor base b
    under `rule` (see `_derive_all`); those of a function argument or an
    opaque base are normalized before they are used."""
    if isinstance(b, Atom):
        db = rule(b)
        if db is not None or not isinstance(b, FuncSym):
            return db or ()
        df = b.raised().as_expr().terms
        return [(key, _product_terms(_build(t).terms, df))
                for key, t in _derive_all(b.arg.terms, rule).items()]
    return [(key, _build(t).terms)
            for key, t in _derive_all(b.terms, rule).items()]


def pdiff(e, a):
    """Partial derivative of e with respect to the atom a, treating all other
    atoms as constants.  Function symbols differentiate through their
    argument by the chain rule; opaque powers by the power rule."""
    one = ((0, ONE.terms),)
    return _build(_derive_all(e.terms, lambda b: one if b == a else None)
                  .get(0, ()))


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

def collect(e, unknowns):
    """Split the normal form e, linear in `unknowns` (a set or dict of
    atoms), by monomial: {key: {unknown: coefficient}}, with the part free
    of unknowns under None.  A key is the factor tuple of a term of e
    without its unknown, so it is canonical; keys come in `_monokey` order.
    Each (key, unknown) pair is one term of e, so no coefficient is zero.
    Raises NonlinearError on a term with a product or a power of unknowns."""
    return _collect(e.terms, unknowns)


def _collect(terms, unknowns):
    """`collect` on the (coefficient, factors) pairs of a normal form in
    any order, such as `_terms` of accumulated terms: the keys are sorted
    once, here."""
    found = {}
    for coeff, factors in terms:
        hits = [i for i, (b, _) in enumerate(factors) if b in unknowns]
        if len(hits) > 1 or (hits and factors[hits[0]][1] != 1):
            raise NonlinearError(
                f"term is nonlinear in the unknowns: {Expr(((coeff, factors),))!r}",
                term=(coeff, factors))
        if hits:
            i = hits[0]
            p, key = factors[i][0], factors[:i] + factors[i + 1:]
        else:
            p, key = None, factors
        form = found.get(key)
        if form is None:
            found[key] = {p: coeff}
        else:
            form[p] = coeff
    return {key: found[key] for key in sorted(found, key=_monokey)}


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------

class SymbolTable:
    """Declared names for one model: ordered independent and dependent
    variables, unknown constants, and formal function symbols.  Tables are
    passed explicitly, but the atoms they hand out are interned process-wide
    (see `Atom`): two tables that declare a name alike share its atom, and
    a jet's key holds its names, so kdv's `u` and gas1d's `rho` differ."""

    def __init__(self, indep, dep, params=(), funcs=()):
        self.indep = tuple(IndepVar(i, n) for i, n in enumerate(indep))
        self.dep_names = tuple(dep)
        self.params = {n: Param(n) for n in params}
        self.funcs = tuple(funcs)
        names = [v.name for v in self.indep] + list(dep) + list(params) + list(funcs)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate declaration among {names}")
        self._by_name = {v.name: v for v in self.indep}
        self._atom_terms = {}   # the parser's terms of each name and jet

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
        return Jet(self.dep_names.index(name), name,
                   [self.indep_var(v) for v in mi_names])

    def jet_by_alpha(self, alpha, mi=()):
        return Jet(alpha, self.dep_names[alpha], mi)

    def func(self, name, order, arg):
        if name not in self.funcs:
            raise KeyError(f"not a declared function symbol: {name}")
        return FuncSym(name, order, arg)


# ---------------------------------------------------------------------------
# Printing (the output re-parses under the input grammar)
# ---------------------------------------------------------------------------

_DIGITS = 4000   # decimal digits per conversion, under the interpreter's cap
_CHUNK = 10 ** _DIGITS


def _int_str(n):
    """str(n) for an int of any size, converted 4,000 digits at a time:
    the interpreter refuses more than 4,300 in one conversion."""
    sign, n = "-" if n < 0 else "", abs(n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(str(r).zfill(_DIGITS))
    return sign + str(n) + "".join(reversed(chunks))


def _rat_str(x):
    """str(x) for an exact rational of any size."""
    s = _int_str(x.numerator)
    return s if x.denominator == 1 else f"{s}/{_int_str(x.denominator)}"


def _exp_str(e):
    return _rat_str(e) if e.denominator == 1 and e > 0 else f"({_rat_str(e)})"


def _base_str(b):
    return repr(b) if isinstance(b, Atom) else f"({to_string(b)})"


def _term_str(coeff, factors):
    pieces = []
    for b, e in factors:
        s = _base_str(b)
        if e != 1:
            s += f"^{_exp_str(e)}"
        pieces.append(s)
    mag = abs(coeff)
    if pieces and mag == 1:
        return "*".join(pieces)
    return "*".join([_rat_str(mag)] + pieces)


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
