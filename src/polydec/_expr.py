"""Recursive-descent parser for polynomial expressions over a field.

Grammar (whitespace ignored)::

    expr  := term (('+' | '-') term)*
    term  := unary ('*' unary)*
    unary := '-' unary | atom ['^' natural]
    atom  := natural | name | '(' expr ')'

``name`` is the polynomial variable or one of the field tower's generator
names (g1, g2, ...).  Evaluation happens directly in the polynomial ring
over the field, so printed canonical forms round-trip exactly even when
extension-field coefficients carry their own '+' and '*'.
"""

from __future__ import annotations

import re

from . import _polyops as po
from .errors import ParseError

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|\-|\(|\)|/)")


def tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_int_list(text):
    """Comma-separated integers, e.g. ``2,0,2,1``."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ParseError(f"expected comma-separated integers: {text!r}") from None


class _Parser:
    """Evaluates token streams to little-endian coefficient lists."""

    def __init__(self, field, tokens, var):
        self.K = field
        self.toks = tokens
        self.i = 0
        self.var = var

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return t

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens at {self.toks[self.i:]!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = po.add(self.K, value, rhs) if op == "+" else po.sub(self.K, value, rhs)
        return value

    def term(self):
        value = self.unary()
        while self.peek() == "*":
            self.take()
            value = po.mul(self.K, value, self.unary())
        return value

    def unary(self):
        if self.peek() == "-":
            self.take()
            return po.neg(self.K, self.unary())
        value = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if not e.isdigit():
                raise ParseError(f"exponent must be a natural number, got {e!r}")
            K = self.K
            value = po._power(lambda a, b: po.mul(K, a, b), [K.one()], value, int(e))
        return value

    def atom(self):
        t = self.take()
        if t == "(":
            value = self.expr()
            if self.take() != ")":
                raise ParseError("expected ')'")
            return value
        if t.isdigit():
            c = self.K.from_int(int(t))
            return po.trim(self.K, [c])
        if t == self.var:
            return [self.K.zero(), self.K.one()]
        rep = self.K.generator_by_name(t)
        return po.trim(self.K, [rep])


def eval_poly_text(field, text, var):
    """Parse ``text`` as a polynomial in ``var`` over ``field`` (rep list)."""
    toks = tokenize(text)
    if not toks:
        raise ParseError("empty polynomial expression")
    if "/" in toks:
        raise ParseError("'/' is not valid inside a polynomial")
    return _Parser(field, toks, var).parse()


def split_rational_text(text):
    """Split ``num/den`` at the single top-level '/'; den may be absent."""
    toks = tokenize(text)
    depth = 0
    cut = None
    for i, t in enumerate(toks):
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
        elif t == "/" and depth == 0:
            if cut is not None:
                raise ParseError("more than one top-level '/' in rational function")
            cut = i
    if cut is None:
        return toks, None
    return toks[:cut], toks[cut + 1 :]


def eval_rational_text(field, text, var):
    """Parse ``num/den`` (or plain ``num``) into two rep lists."""
    num_toks, den_toks = split_rational_text(text)
    num = _Parser(field, num_toks, var).parse()
    if den_toks is None:
        return num, [field.one()]
    if not den_toks:
        raise ParseError("empty denominator")
    den = _Parser(field, den_toks, var).parse()
    return num, den
