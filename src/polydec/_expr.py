"""Recursive-descent parser for polynomial expressions over a field.

Grammar (whitespace ignored)::

    ratfun := expr ['/' expr]
    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | atom ['^' natural]
    atom   := natural | name | '(' expr ')'

``natural`` is Unicode decimal digits, at most sys.get_int_max_str_digits()
of them (0: no limit); ``name`` is the variable or a generator name (g1, ...).
Rational-function text is a ``ratfun``, read in one pass; other text an
``expr``.  Evaluation happens directly in the polynomial ring over the field,
on sparse ``{exponent: rep}`` maps, so printed canonical forms round-trip
exactly even when extension-field coefficients carry their own '+' and '*'.

Costs: the text is tokenized by one regular-expression scan.  A term such as
``3*g1*x^5`` costs one map product per ``*``, each a single pass over the
other operand, and one field addition where it joins a sum.  A power of a
single term (``x^16384``, ``(2*x)^9``, ``g1^3``) is one field power whatever
the exponent.  A power of a many-term map takes binary powering, and a
product of two many-term maps costs len(a) * len(b) field products; above
_SPARSE_MAX_PRODUCT it is a DegreeError before any is formed.  So a text
costs at most a small multiple of its length times that cap: a power takes
at most two products per bit of its exponent.
"""

from __future__ import annotations

import re
import sys

from . import _polyops as po
from .errors import DegreeError, ParseError

# Dense coefficient lists (Poly, rational and modulus text) hold at most this
# degree; additive text stays sparse and has no degree limit.
_DENSE_MAX_DEGREE = 1 << 24
# A product of two many-term sparse maps forms at most this many coefficient
# products (operands of 256 terms each), for text of every kind.  The largest
# product in the tests, README and selftest forms 529.
_SPARSE_MAX_PRODUCT = 1 << 16

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|\-|\(|\)|/)")
# a character that starts no token and is not whitespace
_BAD = re.compile(r"[^\s\dA-Za-z_^*+\-()/]")


def tokenize(text):
    bad = _BAD.search(text)
    if bad:
        pos = len(text[: bad.start()].rstrip())
        raise ParseError(f"bad character at {text[pos:]!r}")
    return _TOKEN.findall(text)


def _natural(token):
    """The one reader of numbers in text: the value of a ``natural``, else a
    ParseError.  The leading underscore keeps this per-token call out of the
    per-layer tracer."""
    if not token.isdecimal():
        raise ParseError(f"expected a natural number, got {token!r}")
    try:
        return int(token)
    except ValueError:  # the only one int() raises on decimal digits
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"a number of {len(token)} digits is above the limit {limit}") from None


def parse_int_list(text):
    """Comma-separated integers, e.g. ``2,0,2,1``."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ParseError(f"expected comma-separated integers: {text!r}") from None


def _add_into(K, a, b, op):
    """Replace a by a op b, for op K.add or K.sub; a is the parser's own."""
    z = K.zero()
    for e, c in b.items():
        s = op(a.get(e, z), c)
        if s == z:
            a.pop(e, None)
        else:
            a[e] = s


def _mul(K, a, b):
    """The product of two sparse maps.  A one-term operand scales the other
    in one pass; two many-term operands cost len(a) * len(b) products, a
    DegreeError above _SPARSE_MAX_PRODUCT before any is formed."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        (f, d), = b.items()
        mul = K.mul
        return {e + f: mul(c, d) for e, c in a.items()}
    if len(a) * len(b) > _SPARSE_MAX_PRODUCT:
        raise DegreeError(
            f"a product of {len(a)} and {len(b)} terms is above the sparse limit"
            f" {_SPARSE_MAX_PRODUCT}")
    z = K.zero()
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = K.add(out.get(e + f, z), K.mul(c, d))
    return {e: c for e, c in out.items() if c != z}


def _constant(K, rep):
    return {} if rep == K.zero() else {0: rep}


class _Parser:
    """Evaluates token streams to sparse ``{exponent: rep}`` maps with no
    zero terms, so ``x^N`` costs one term whatever ``N`` is.

    The token list ends in a ``None`` sentinel, which the evaluator reads in
    place of calling :meth:`peek`; subclasses may still call peek and take.
    """

    def __init__(self, field, tokens, var):
        self.K = field
        self.toks = [*tokens, None]
        self.i = 0
        self.var = var

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        if t is None:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return t

    def parse(self):
        return self.end(self.expr())

    def end(self, value):
        """value, when every token has been read."""
        if self.toks[self.i] is not None:
            raise ParseError(f"trailing tokens at {self.toks[self.i:-1]!r}")
        return value

    def expr(self):
        K = self.K
        toks = self.toks
        value = self.term()
        while toks[self.i] in ("+", "-"):
            op = K.add if toks[self.i] == "+" else K.sub
            self.i += 1
            _add_into(K, value, self.term(), op)
        return value

    def term(self):
        toks = self.toks
        value = self.unary()
        while toks[self.i] == "*":
            self.i += 1
            value = _mul(self.K, value, self.unary())
        return value

    def unary(self):
        K = self.K
        toks = self.toks
        if toks[self.i] == "-":
            self.i += 1
            return {e: K.neg(c) for e, c in self.unary().items()}
        value = self.atom()
        if toks[self.i] == "^":
            self.i += 1
            e = self.take()
            if not e[0].isdecimal():
                raise ParseError(f"exponent must be a natural number, got {e!r}")
            n = _natural(e)
            if len(value) == 1:
                (f, c), = value.items()
                return {f * n: K.pow_(c, n)}
            value = po._power(lambda a, b: _mul(K, a, b), {0: K.one()}, value, n)
        return value

    def atom(self):
        K = self.K
        t = self.take()
        if t == "(":
            value = self.expr()
            if self.take() != ")":
                raise ParseError("expected ')'")
            return value
        if t == self.var:
            return {1: K.one()}
        if t[0].isdecimal():
            return _constant(K, K.from_int(_natural(t)))
        if not t.isidentifier():
            raise ParseError(f"expected a number, the variable, a generator or '(', got {t!r}")
        return _constant(K, K.generator_by_name(t))


def dense(field, terms):
    """The little-endian coefficient list of a sparse ``{exponent: rep}`` map;
    DegreeError above _DENSE_MAX_DEGREE, before anything is allocated."""
    n = max(terms, default=-1)
    if n > _DENSE_MAX_DEGREE:
        raise DegreeError(f"degree {n} is above the dense limit {_DENSE_MAX_DEGREE}")
    out = [field.zero()] * (n + 1)
    for e, c in terms.items():
        out[e] = c
    return out


def eval_poly_text(field, text, var):
    """Parse ``text`` as a polynomial in ``var`` over ``field`` (sparse map)."""
    toks = tokenize(text)
    if not toks:
        raise ParseError("empty polynomial expression")
    if "/" in toks:
        raise ParseError("'/' is not valid inside a polynomial")
    return _Parser(field, toks, var).parse()


def eval_rational_text(field, text, var):
    """Parse ``num/den`` (or plain ``num``) into two sparse maps, in one pass."""
    parser = _Parser(field, tokenize(text), var)
    num = parser.expr()
    if parser.toks[parser.i] != "/":
        return parser.end(num), {0: field.one()}
    parser.i += 1
    if parser.toks[parser.i] is None:
        raise ParseError("empty denominator")
    den = parser.expr()
    if parser.toks[parser.i] == "/":
        raise ParseError("more than one top-level '/' in rational function")
    return num, parser.end(den)
