"""Dense univariate polynomials over a Field: arithmetic, factorisation,
composition right-division, and Chebyshev polynomials.

The zero polynomial has the distinguished degree ``NEG_INF``, which
compares below every integer.  ``factor`` draws its random splits from a
fixed internal seed (keyed by field order and degree), so identical calls
give identical factor splits; the returned factor list is also sorted into
a canonical order, so no caller needs a seed.
"""

from __future__ import annotations

import functools
import operator

from . import _polyops as po
from ._expr import _DENSE_MAX_DEGREE, dense, eval_poly_text
from .errors import (
    BothZero,
    DegreeError,
    DegreeMismatch,
    ExponentBoundExceeded,
    FieldMismatch,
    NotMonic,
    ZeroInput,
)
from .field import Felt, build_prime_field

NEG_INF = float("-inf")


class CoeffVector:
    """Canonical coefficient vector over a field, low index first.

    ``coeffs`` is a tuple of field representations without trailing zeros.
    Holds what :class:`Poly` and :class:`polydec.additive.AdditivePoly`
    share: coercion, accessors, equality, hashing, the sort key, scaling
    and the additive group, each result of the caller's own class.  Values
    of different subclasses never compare equal.
    """

    __slots__ = ("field", "coeffs")

    def __init_subclass__(cls):
        # each subclass holds the shared operations in its own namespace, so
        # a profiler can wrap one class's without the other's (as
        # perfbench/tracer.py does)
        for name in ("monic", "scale", "__add__", "__sub__", "__neg__"):
            setattr(cls, name, vars(cls).get(name, vars(CoeffVector)[name]))

    def __init__(self, field, coeffs):
        """Build from an iterable of Felt / int / raw representations."""
        self.field = field
        self.coeffs = tuple(po.trim(field, [field.rep(c) for c in coeffs]))

    @classmethod
    def _raw(cls, field, reps):
        self = object.__new__(cls)
        self.field = field
        self.coeffs = tuple(po.trim(field, list(reps)))
        return self

    @classmethod
    def zero(cls, field):
        return cls._raw(field, [])

    @classmethod
    def monomial(cls, field, i, c=1):
        """c times the i-th basis element: c * x**i for a Poly, c * x**(p**i)
        for an AdditivePoly."""
        return cls._raw(field, [field.zero()] * i + [field.rep(c)])

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def lc(self):
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return Felt(self.field, self.coeffs[-1])

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return Felt(self.field, self.coeffs[i])
        return Felt(self.field, self.field.zero())

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected a {type(self).__name__}")
        if other.field != self.field:
            raise FieldMismatch("polynomials over different fields")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other.field == self.field and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def key(self):
        """Canonical sort key: (length, coefficient keys low-to-high)."""
        return po._key(self.field, self.coeffs)

    def monic(self):
        return type(self)._raw(self.field, po.monic(self.field, self.coeffs))

    def scale(self, c):
        K = self.field
        return type(self)._raw(K, po.scale(K, self.coeffs, K.rep(c)))

    def __add__(self, other):
        self._check(other)
        return type(self)._raw(self.field, po.add(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return type(self)._raw(self.field, po.sub(self.field, self.coeffs, other.coeffs))

    def __neg__(self):
        return type(self)._raw(self.field, po.neg(self.field, self.coeffs))

    def __repr__(self):
        return str(self)


class Poly(CoeffVector):
    """Dense univariate polynomial, coefficients low-to-high, canonical."""

    __slots__ = ()

    @classmethod
    def one(cls, field):
        return cls._raw(field, [field.one()])

    @classmethod
    def x(cls, field):
        return cls._raw(field, [field.zero(), field.one()])

    @classmethod
    def parse(cls, field, text, var="x"):
        return cls._raw(field, dense(field, eval_poly_text(field, text, var)))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def derivative(self):
        return Poly._raw(self.field, po.derivative(self.field, self.coeffs))

    def evaluate(self, x):
        K = self.field
        return Felt(K, po.evaluate(K, self.coeffs, K.rep(x)))

    def shift_constant(self, c):
        """self + c for a scalar c."""
        reps = list(self.coeffs) or [self.field.zero()]
        reps[0] = self.field.add(reps[0], self.field.rep(c))
        return Poly._raw(self.field, reps)

    def __mul__(self, other):
        self._check(other)
        return Poly._raw(self.field, po.mul(self.field, self.coeffs, other.coeffs))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        return po._power(operator.mul, Poly.one(self.field), self, n)

    def __divmod__(self, other):
        self._check(other)
        q, r = po.divmod_(self.field, list(self.coeffs), other.coeffs)
        return Poly._raw(self.field, q), Poly._raw(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __str__(self):
        return po.poly_str(self.field, enumerate(self.coeffs), "x")


def gcd(f, g):
    """Monic greatest common divisor; BothZero if both arguments vanish."""
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    return Poly._raw(f.field, po.gcd(f.field, list(f.coeffs), list(g.coeffs)))


def compose(g, h):
    """g(h), by Horner's rule on the nonzero coefficients of g, on
    coefficient lists: a run of zero coefficients costs one product by a
    power of h, and each distinct power is built once.  DegreeError when
    deg g * deg h is above the dense limit, before any work."""
    g._check(h)
    K = g.field
    n = 0 if g.is_zero() or h.is_zero() else g.degree * h.degree
    if n > _DENSE_MAX_DEGREE:
        raise DegreeError(f"degree {n} of g(h) is above the dense limit {_DENSE_MAX_DEGREE}")
    z = K.zero()
    terms = [(i, c) for i, c in enumerate(g.coeffs) if c != z]
    if not terms:
        return g

    @functools.cache
    def power(gap):
        return po._power(lambda a, b: po.mul(K, a, b), [K.one()], h.coeffs, gap)

    prev, c = terms.pop()
    acc = [c]
    for i, c in reversed(terms):
        # a constant h leaves acc constant, and zero once h = 0
        acc = po.mul(K, acc, power(prev - i)) or [z]
        acc[0] = K.add(acc[0], c)
        prev = i
    return Poly._raw(K, po.mul(K, acc, power(prev)) if prev else acc)


def right_divide(f, h):
    """The unique g with f = g(h), or None if no such g exists.

    Reads g off the h-adic expansion f = sum_i c_i h**i, deg c_i < deg h
    (Kozen-Landau 1989): f = g(h) exactly when every digit c_i is a
    constant, and then g = sum_i c_i x**i.  The digits come from repeated
    division by h on coefficient lists, lowest first, so a non-constant
    digit stops the loop early.  Requires deg h >= 1 and deg h | deg f.
    """
    if h.degree is NEG_INF or h.degree < 1:
        raise DegreeMismatch("inner polynomial must have degree >= 1")
    if not f.is_zero() and f.degree % h.degree != 0:
        raise DegreeMismatch("deg h does not divide deg f")
    K, rest, digits = f.field, list(f.coeffs), []
    while len(rest) >= len(h.coeffs):
        rest, r = po.divmod_(K, rest, h.coeffs)
        if len(r) > 1:
            return None
        digits.append(r[0] if r else K.zero())
    return Poly._raw(K, digits + rest)


def is_irreducible(f):
    return po.is_irreducible(f.field, list(f.coeffs))


def factor(f):
    """Factor f into monic irreducibles.

    Returns ``(parts, lc)`` where parts is a list of (irreducible Poly,
    multiplicity) sorted by (degree, coefficient order) and lc is the
    leading coefficient, so that lc * prod(g**m) == f.  The squarefree,
    distinct-degree and equal-degree stages run in ``_polyops``: on raw
    coefficient lists, and over GF(2) on bit strings.
    """
    if f.is_zero():
        raise ZeroInput("cannot factor the zero polynomial")
    K = f.field
    seed = f"factor:{K.order}:{f.degree}:0"
    parts = [(Poly._raw(K, irr), mult) for irr, mult in po._factor(K, list(f.coeffs), seed)]
    parts.sort(key=lambda pm: pm[0].key())
    return parts, f.lc()


# _divisors_of_factors raises before it forms more products than this.
# The wild search (gendecomp._sep_pairs) right-divides by each one: over
# GF(2) a candidate took 1.1-2.0 ms at degrees 720-1024 and 4.2-5.9 ms at
# degree 4096 (one core of a 2-core VM), so a search at the bound takes a
# few seconds at degree 1024 and about 10 s at 4096.  The complete
# decomposition of x^1024+x^7+1 over GF(2) has 446,880 at its first
# shape; the largest count in the tests and benchmark is about 150.
_MAX_DIVISORS = 1 << 11


def monic_divisors(f, d):
    """All monic divisors of degree d of a nonzero f, sorted by key."""
    return _divisors_of_factors(f.field, factor(f)[0], d)


def _divisors_of_factors(K, parts, d):
    """The monic products of degree d of the factor list ``parts`` of
    ``factor``, each irreducible taken up to its multiplicity, sorted by key.

    More than _MAX_DIVISORS of them, counted by ``_reach`` first, is an
    ExponentBoundExceeded.  A branch is taken only when the parts left can
    make up exactly the degree it still lacks, and no product is formed
    past the highest exponent that leaves such a branch.
    """
    out = []
    reach = _reach([irr.degree for irr, _ in parts], [mult for _, mult in parts], d)
    count = reach[0].get(d, 0)
    if count > _MAX_DIVISORS:
        raise ExponentBoundExceeded(
            f"{count} monic divisors of degree {d} are above the limit of {_MAX_DIVISORS}")

    def rec(idx, cur, deg):
        if deg == d:
            out.append(Poly._raw(K, cur))
            return
        irr, mult = parts[idx]
        n, after = irr.degree, reach[idx + 1]
        top = max(e for e in range(min(mult, (d - deg) // n) + 1) if d - deg - e * n in after)
        for e in range(top + 1):
            if d - deg - e * n in after:
                rec(idx + 1, cur, deg + e * n)
            if e < top:
                cur = po.mul(K, cur, irr.coeffs)

    if count:
        rec(0, [K.one()], 0)
    out.sort(key=lambda g: g.key())
    return out


def _reach(degrees, mults, d):
    """reach[i]: each sum s <= d of e_k * degrees[k] over k >= i, each
    0 <= e_k <= mults[k], mapped to the number of such (e_k) (a knapsack
    over the multiplicities; the degrees are positive)."""
    reach = [{0: 1}]
    for n, mult in zip(reversed(degrees), reversed(mults)):
        ways = {}
        for s, w in reach[-1].items():
            for t in range(s, min(s + mult * n, d) + 1, n):
                ways[t] = ways.get(t, 0) + w
        reach.append(ways)
    return reach[::-1]


def _block_splits(degrees, mults, sizes, max_steps):
    """The ways to give out a multiset among blocks of given degrees.

    Part i has degree degrees[i] and mults[i] copies, and the degrees add
    up to sum(sizes).  A way gives block j e[i][j] copies of part i, every
    copy once, so that the degrees in block j add up to sizes[j].  Returns
    (count, ways): the number of ways, found before any is built, and a
    generator of them, each a tuple of rows, one per block, of exponents
    per part.

    The count is a dynamic program over the parts.  Its state is the
    sorted tuple of the degrees the blocks but the last still lack (the
    last takes what they leave): the number of ways to fill them does not
    depend on which block lacks which.  A part is given out one block at
    a time, each block's lack kept in reach of the parts after it (the
    knapsack of ``_reach``).  Each number of copies a block takes from a
    (copies left, lacks so far) is a step, and more than max_steps steps
    is an ExponentBoundExceeded: with many blocks of one degree the states
    can be too many to count.
    """
    reach = _reach(degrees, mults, max(sizes[:-1], default=0))
    start = tuple(sorted(sizes[:-1]))
    # moves[i][state]: the (copies left, lacks) that part i can leave
    # from state, with the ways to each
    moves, states, steps = [], [start], 0
    for i, (n, m) in enumerate(zip(degrees, mults)):
        after, out = reach[i + 1], {}
        for state in states:
            front = {(m, ()): 1}
            for c in state:
                nxt = {}
                for (left, lack), w in front.items():
                    for e in range(min(left, c // n) + 1):
                        if c - e * n in after:
                            key = (left - e, tuple(sorted(lack + (c - e * n,))))
                            nxt[key] = nxt.get(key, 0) + w
                            steps += 1
                front = nxt
                if steps > max_steps:
                    raise ExponentBoundExceeded(
                        f"counting the ways to fill {len(sizes)} blocks takes more than"
                        f" {max_steps} steps"
                    )
            out[state] = front
        moves.append(out)
        states = {lack for front in out.values() for _left, lack in front}
    # ways[i][state]: the ways to give out parts i.. from state
    ways = [{(0,) * len(start): 1}]
    for out in reversed(moves):
        below = ways[-1]
        ways.append({state: sum(w * below.get(lack, 0) for (_left, lack), w in front.items())
                     for state, front in out.items()})
    ways.reverse()

    def walk():
        done = [((), tuple(sizes[:-1]))]
        for i, n in enumerate(degrees):
            after, alive, nxt = reach[i + 1], ways[i + 1], []
            for cols, needs in done:
                paths = [((), mults[i])]
                for c in needs:
                    paths = [(col + (e,), left - e) for col, left in paths
                             for e in range(min(left, c // n) + 1) if c - e * n in after]
                for col, left in paths:
                    lack = tuple(c - e * n for c, e in zip(needs, col))
                    if alive.get(tuple(sorted(lack))):
                        nxt.append((cols + (col + (left,),), lack))
            done = nxt
        for cols, _lack in done:
            yield tuple(zip(*cols))

    return ways[0][start], walk()


# Chebyshev indices above this are a DegreeError: at this index T_n took
# 0.14-0.20 s over GF(7) and 2.9-4.1 s over the largest certifiable prime,
# 3.3e24, whose packed products are wider (one core of a 2-core Xeon VM).
_CHEBYSHEV_MAX_INDEX = 1 << 16


def chebyshev(i, field):
    """The i-th Chebyshev polynomial over ``field``.

    Built from the binary digits of i by T_2k = 2 T_k^2 - 1 and
    T_2k+1 = 2 T_k T_k+1 - x, identities over the integers that hold in
    every characteristic.  The coefficients are integers, so T_i is built
    on int lists over the prime field, each step one product of 2a by b
    less one coefficient, and mapped into ``field`` once.  An index above
    _CHEBYSHEV_MAX_INDEX is a DegreeError.
    """
    if i < 0:
        raise DegreeError("Chebyshev index must be nonnegative")
    if i > _CHEBYSHEV_MAX_INDEX:
        raise DegreeError(f"Chebyshev index {i} is above the limit {_CHEBYSHEV_MAX_INDEX}")
    K = build_prime_field(field.p)
    p = K.p

    def twice_minus(a, b, k):
        """2ab - x**k, on int lists over GF(p)."""
        out = po.mul(K, [2 * c % p for c in a], b) or [0] * (k + 1)  # [] over GF(2)
        out[k] = (out[k] - 1) % p
        return out

    t, u = [1], [0, 1]  # (T_k, T_k+1), k running over the leading digits of i // 2
    for digit in bin(i >> 1)[2:]:
        if digit == "1":
            t, u = twice_minus(t, u, 1), twice_minus(u, u, 0)
        else:
            t, u = twice_minus(t, t, 0), twice_minus(t, u, 1)
    t = twice_minus(t, u, 1) if i & 1 else twice_minus(t, t, 0)
    return Poly._raw(field, [field.from_int(c) for c in t])


def require_monic(f, what="input"):
    if not f.is_monic():
        raise NotMonic(f"{what} must be monic")
    return f
