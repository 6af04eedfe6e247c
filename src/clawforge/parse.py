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
parameters.  Numeric literals are nonnegative integers; rationals are formed
with '/'.  Printing an expression yields text that parses back to the same
normal form.
"""

from __future__ import annotations

from .expr import Expr, SymbolTable, _build, _quot, make_power


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_SYMBOLS = set("+-*/^()[],'")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("non-rational literal (decimals are not supported)", i)
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif c in _SYMBOLS:
            tokens.append((c, c, i))
            i += 1
        elif c == ".":
            raise ParseError("non-rational literal (decimals are not supported)", i)
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, table):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.table = table

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self):
        """The signed terms' raw terms gathered and normalized once."""
        op = self.next()[0] if self.peek()[0] in ("+", "-") else "+"
        e = self.term()
        if op == "+" and self.peek()[0] not in ("+", "-"):
            return e
        raw = []
        while True:
            raw += e.terms if op == "+" else [(-c, f) for c, f in e.terms]
            if self.peek()[0] not in ("+", "-"):
                return _build(raw)
            op = self.next()[0]
            e = self.term()

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            f = self.factor()
            e = e * f if op == "*" else e / f
        return e

    def factor(self):
        b = self.base()
        if self.peek()[0] == "^":
            self.next()
            return make_power(b, self.exponent())
        return b

    def exponent(self):
        if self.peek()[0] == "(":
            self.next()
            q = self.signed_rational()
            self.expect(")")
            return q
        return self.signed_rational(allow_fraction=False)

    def signed_rational(self, allow_fraction=True):
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        num = self.expect("int")[1]
        if allow_fraction and self.peek()[0] == "/":
            self.next()
            den = self.expect("int")[1]
            if den == 0:
                raise ParseError("zero denominator", self.tokens[self.pos - 1][2])
            return _quot(sign * num, den)
        return sign * num

    def base(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return Expr.const(value)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind != "ident":
            raise ParseError(f"unexpected token {value!r}", pos)
        name = value
        nxt = self.peek()
        if nxt[0] == "[":
            if name not in self.table.dep_names:
                raise ParseError(f"undeclared dependent variable {name!r}", pos)
            self.next()
            indices = [self.expect("ident")]
            while self.peek()[0] == ",":
                self.next()
                indices.append(self.expect("ident"))
            self.expect("]")
            mi = []
            for _ikind, iname, ipos in indices:
                try:
                    self.table.indep_var(iname)
                except KeyError:
                    raise ParseError(f"undeclared independent variable {iname!r}", ipos)
                mi.append(iname)
            return self.table.jet(name, mi).as_expr()
        if nxt[0] == "'" or (nxt[0] == "(" and name in self.table.funcs):
            order = 0
            while self.peek()[0] == "'":
                self.next()
                order += 1
            if name not in self.table.funcs:
                raise ParseError(f"undeclared function symbol {name!r}", pos)
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return self.table.func(name, order, arg).as_expr()
        if name in self.table.dep_names:
            return self.table.jet(name).as_expr()
        try:
            return self.table.indep_var(name).as_expr()
        except KeyError:
            pass
        if name in self.table.params:
            return self.table.params[name].as_expr()
        raise ParseError(f"undeclared identifier {name!r}", pos)


def parse(text, table):
    """Parse `text` against the declared symbols in `table`."""
    if not isinstance(table, SymbolTable):
        raise TypeError("parse() needs a SymbolTable context")
    return _Parser(text, table).parse()
