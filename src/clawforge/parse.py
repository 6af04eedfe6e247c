"""Recursive-descent parser for the expression grammar.

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' exponent)?
    exponent := ['-'] INT | '(' ['-'] INT ['/' INT] ')'
    base     := INT | ident | ident '[' ident (',' ident)* ']'
              | ident '\\''* '(' expr ')' | '(' expr ')'

`u[x,x,t]` is a jet coordinate (index order does not matter), `f(expr)` a
declared function symbol (primes mark derivative order), and bare
identifiers are declared independent variables, dependent variables, or
parameters.  Numeric literals are nonnegative integers of decimal digits;
rationals are formed with '/'.  Printing an expression yields text that
parses back to the same normal form.

The rules pass raw terms, (coefficient, factors) pairs not yet merged, and
normalize only where a normal form is read: both operands of a product of
two sums (no sum multiplies a sum before it cancels), a power's base, a
divisor, a function argument, and the result.  A zero divisor, or any other
power that normalization leaves undefined, is a ParseError at its factor.

Parentheses and function arguments nest at most `MAX_DEPTH` levels; a
deeper '(' is a ParseError at its position, before the recursion of the
rules (or of the derivatives of nested function symbols) runs out of stack.
"""

from __future__ import annotations

from .expr import (_DIGITS, DomainError, SymbolTable, _build, _int_str,
                   _normal, _product_terms, _quot, make_power)


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_SYMBOLS = set("+-*/^()[],'")
MAX_DEPTH = 64     # nesting of parentheses and function arguments


def _read_int(digits):
    """int(digits) for a literal of any length (see `expr._int_str`)."""
    n = int(digits[:_DIGITS])
    for i in range(_DIGITS, len(digits), _DIGITS):
        chunk = digits[i:i + _DIGITS]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        j = i + 1
        if c.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("non-rational literal (decimals are not supported)", i)
            tokens.append(("int", _read_int(text[i:j]), i))
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
        elif c in _SYMBOLS:
            tokens.append((c, c, i))
        elif c == ".":
            raise ParseError("non-rational literal (decimals are not supported)", i)
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", i)
        i = j
    tokens.append(("end", None, n))
    return tokens


def _shown(tok):
    if tok[0] == "int":
        return _int_str(tok[1])
    return "end of input" if tok[0] == "end" else repr(tok[1])


class _Parser:
    def __init__(self, text, table):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.table = table

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, *kinds):
        """The next token's kind, consumed, if it is one of `kinds`."""
        kind = self.tokens[self.pos][0]
        if kind in kinds:
            self.pos += 1
            return kind

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_shown(tok)}", tok[2])
        return tok

    def parse(self):
        raw = self.expr()
        tok = self.next()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {_shown(tok)}", tok[2])
        return _build(raw)

    def power(self, base, e, pos):
        """The terms of base ** e; an undefined one is an error at `pos`."""
        try:
            return make_power(base, e).terms
        except DomainError as exc:
            raise ParseError(str(exc), pos) from None

    def expr(self):
        """The signed terms' raw terms, gathered."""
        raw = []
        op = self.accept("+", "-") or "+"
        while op:
            t = self.term()
            raw += t if op == "+" else [(-c, f) for c, f in t]
            op = self.accept("+", "-")
        return raw

    def term(self):
        """The factors' raw terms multiplied out; the operands of a product
        of two sums are normalized first, so their terms that cancel are
        never multiplied out."""
        raw = self.factor()
        while op := self.accept("*", "/"):
            pos = self.tokens[self.pos][2]
            f = self.factor()
            if op == "/":
                d = _build(f)
                if d.is_zero:
                    raise ParseError("division by zero", pos)
                if d.is_rational():
                    raw = [(_quot(c, d.terms[0][0]), m) for c, m in raw]
                    continue
                f = self.power(d, -1, pos)
            if len(raw) > 1 and len(f) > 1:
                raw, f = ([(c, m) for m, c in _normal(t).items()]
                          for t in (raw, f))
            raw = _product_terms(raw, f)
        return raw

    def factor(self):
        pos = self.tokens[self.pos][2]
        b = self.base()
        if self.accept("^"):
            return self.power(_build(b), self.exponent(), pos)
        return b

    def exponent(self):
        """['-'] INT, or '(' ['-'] INT ['/' INT] ')'."""
        paren = self.accept("(")
        e = -self.expect("int")[1] if self.accept("-") else self.expect("int")[1]
        if paren and self.accept("/"):
            _, den, pos = self.expect("int")
            if den == 0:
                raise ParseError("zero denominator", pos)
            e = _quot(e, den)
        if paren:
            self.expect(")")
        return e

    def group(self, pos):
        """The raw terms of the expr after the '(' at `pos`, up to its ')';
        one level deeper than `MAX_DEPTH` is an error at `pos`."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", pos)
        self.depth += 1
        raw = self.expr()
        self.expect(")")
        self.depth -= 1
        return raw

    def base(self):
        """The raw terms of one base; those of a name or a jet are shared."""
        kind, name, pos = self.next()
        if kind == "int":
            return ((name, ()),) if name else ()
        if kind == "(":
            return self.group(pos)
        if kind != "ident":
            raise ParseError(f"unexpected token {_shown((kind, name))}", pos)
        table = self.table
        nxt = self.tokens[self.pos][0]
        if nxt == "[":
            if name not in table.dep_names:
                raise ParseError(f"undeclared dependent variable {name!r}", pos)
            self.next()
            indices = [self.expect("ident")]
            while self.accept(","):
                indices.append(self.expect("ident"))
            self.expect("]")
            key = (name, *(i[1] for i in indices))
            terms = table._atom_terms.get(key)
            if terms is None:
                for _ikind, iname, ipos in indices:
                    if iname not in table._by_name:
                        raise ParseError(f"undeclared independent variable {iname!r}", ipos)
                terms = table._atom_terms[key] = (
                    (1, ((table.jet(name, key[1:]), 1),)),)
            return terms
        if nxt == "'" or (nxt == "(" and name in table.funcs):
            order = 0
            while self.accept("'"):
                order += 1
            if name not in table.funcs:
                raise ParseError(f"undeclared function symbol {name!r}", pos)
            arg = _build(self.group(self.expect("(")[2]))
            return ((1, ((table.func(name, order, arg), 1),)),)
        terms = table._atom_terms.get(name)
        if terms is None:
            atom = (table.jet(name) if name in table.dep_names else
                    table._by_name.get(name) or table.params.get(name))
            if atom is None:
                raise ParseError(f"undeclared identifier {name!r}", pos)
            terms = table._atom_terms[name] = ((1, ((atom, 1),)),)
        return terms


def parse(text, table):
    """Parse `text` against the declared symbols in `table`."""
    if not isinstance(table, SymbolTable):
        raise TypeError("parse() needs a SymbolTable context")
    return _Parser(text, table).parse()
