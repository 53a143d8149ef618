"""Rational function decomposition over finite fields.

Rational functions are reduced numerator/denominator pairs with monic
denominator.  Normalisation by a fractional linear transformation brings
any nonconstant function to a monic one whose numerator degree exceeds its
denominator degree; normal decompositions (monic parts, inner part
vanishing at 0, positive degree gaps) are then found by enumerating
denominator and numerator divisors, and a general instance reduces to
normal ones through shifts of the variable and a middle fractional linear
map between the two factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import upoly
from ._expr import dense, eval_rational_text
from .errors import (
    ConstantInput,
    Degenerate,
    DegreeInfeasible,
    FieldMismatch,
    NotMonic,
    ZeroDenominator,
)
from .field import Felt
from .upoly import Poly


@dataclass(frozen=True)
class RationalFunction:
    """Reduced fraction num/den with monic den; build via rat_reduce."""

    num: Poly
    den: Poly

    @property
    def field(self):
        return self.num.field

    @property
    def degree_pair(self):
        n_n = self.num.degree
        n_d = self.den.degree
        return (int(n_n) if self.num.coeffs else 0, int(n_d))

    @property
    def delta(self):
        a, b = self.degree_pair
        return a - b

    @property
    def degree(self):
        a, b = self.degree_pair
        return a + b

    def is_monic(self):
        return self.num.is_monic()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

    def vanishes_at_zero(self):
        return self.num.coeff(0).is_zero()

    def key(self):
        return (self.num.key(), self.den.key())

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if "+" in num or "-" in num:
            num = f"({num})"
        if "+" in den or "-" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return str(self)


def rat_reduce(num, den):
    """Canonical reduced form with monic denominator."""
    if isinstance(num, Poly) and isinstance(den, Poly) and num.field != den.field:
        raise FieldMismatch("numerator and denominator over different fields")
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if num.is_zero():
        return RationalFunction(num, Poly.one(den.field))
    g = upoly.gcd(num, den)
    if g.degree > 0:
        num = num // g
        den = den // g
    lc = den.lc()
    if not den.is_monic():
        num = num.scale(lc.inv())
        den = den.scale(lc.inv())
    return RationalFunction(num, den)


def from_poly(f):
    return RationalFunction(f, Poly.one(f.field))


def parse_rational(field, text, var="x"):
    num, den = eval_rational_text(field, text, var)
    return rat_reduce(Poly._raw(field, dense(field, num)), Poly._raw(field, dense(field, den)))


@dataclass(frozen=True)
class FracLinear:
    """Invertible map x -> (t1 x + t2)/(t3 x + t4), stored as Felt entries."""

    t1: Felt
    t2: Felt
    t3: Felt
    t4: Felt

    def __post_init__(self):
        det = self.t1 * self.t4 - self.t2 * self.t3
        if det.is_zero():
            raise Degenerate("fractional linear transformation needs det != 0")

    @property
    def field(self):
        return self.t1.field

    @classmethod
    def identity(cls, field):
        one, zero = field.felt(1), field.felt(0)
        return cls(one, zero, zero, one)

    @classmethod
    def of_ints(cls, field, t1, t2, t3, t4):
        return cls(field.felt(t1), field.felt(t2), field.felt(t3), field.felt(t4))

    def inverse(self):
        det = self.t1 * self.t4 - self.t2 * self.t3
        idet = det.inv()
        return FracLinear(self.t4 * idet, -self.t2 * idet, -self.t3 * idet, self.t1 * idet)

    def as_rational(self):
        K = self.field
        num = Poly(K, [self.t2, self.t1])
        den = Poly(K, [self.t4, self.t3])
        return rat_reduce(num, den)

    def __str__(self):
        return str(self.as_rational())


def flt_apply(t, f):
    """t composed on the left of f: (t1 fN + t2 fD)/(t3 fN + t4 fD)."""
    K = f.field
    num = f.num.scale(t.t1) + f.den.scale(t.t2)
    den = f.num.scale(t.t3) + f.den.scale(t.t4)
    if den.is_zero():
        raise Degenerate("transformation collapses this function")
    return rat_reduce(num, den)


def normalize(f):
    """A fractional linear L with L o f monic of positive degree gap.

    Three cases on the degree gap: scale by the inverse leading
    coefficient, send the leading-value fixed point away, or invert.
    Returns (L, L o f).
    """
    if f.is_constant():
        raise ConstantInput("cannot normalise a constant function")
    K = f.field
    a_n = f.num.lc()
    if f.delta > 0:
        lam = FracLinear(K.felt(1), K.felt(0), K.felt(0), a_n)
    elif f.delta < 0:
        lam = FracLinear(K.felt(0), a_n, K.felt(1), K.felt(0))
    else:
        diff = f.num - f.den.scale(a_n)
        gamma = diff.lc()
        alpha = a_n - 1
        lam = FracLinear(gamma, -gamma * alpha, K.felt(1), -a_n)
    return lam, flt_apply(lam, f)


def rat_compose(g, h):
    """Reduced g(h) for rational g and h over the same field."""
    if g.field != h.field:
        raise FieldMismatch("composition over different fields")
    hN, hD = h.num, h.den
    rN, rD = g.degree_pair

    def cleared(poly, r):
        acc = Poly.zero(g.field)
        for i in range(r, -1, -1):
            c = poly.coeff(i)
            acc = acc * hN
            if not c.is_zero():
                acc = acc + hD ** (r - i) * Poly.monomial(g.field, 0, c)
        return acc

    A = cleared(g.num, rN)
    B = cleared(g.den, rD)
    if rN >= rD:
        num = A
        den = B * hD ** (rN - rD)
    else:
        num = A * hD ** (rD - rN)
        den = B
    return rat_reduce(num, den)


def poly_in_h(u, h, r):
    """The monic v of degree r with u = v(h) * hD**r, or None.

    Reads v off the hN-adic digits of u, like upoly.right_divide: u is
    sum_i v_i hN**i hD**(r-i), so modulo hN only v_0 hD**r survives, and
    (u - v_0 hD**r) / hN has the same form with r - 1 and the digits v_1...
    Each remainder must be a constant multiple of hD**k mod hN, which is
    nonzero because h is reduced.  As deg hD < deg hN, each step leaves a
    monic u of degree k deg hN, so the last digit is 1.
    """
    if not u.is_monic():
        raise NotMonic("target polynomial must be monic")
    hN, hD = h.num, h.den
    if not (h.is_monic() and h.vanishes_at_zero() and h.delta > 0):
        raise DegreeInfeasible("inner function must be monic, vanish at 0, delta > 0")
    if u.degree != r * hN.degree:
        return None
    powers = [Poly.one(u.field)]
    for _ in range(r):
        powers.append(powers[-1] * hD)
    digits = []
    for k in range(r, 0, -1):
        q, rem = divmod(u, hN)
        qk, w = divmod(powers[k], hN)
        c = rem.coeff(w.degree) / w.lc()
        if rem != w.scale(c):
            return None
        digits.append(c)
        u = q - qk.scale(c)
    return Poly(u.field, digits + [u.coeff(0)])


def rat_right_divide(f, h):
    """The unique monic normal g with f = g(h), or None.

    The outer degree pair is forced by the degree law rN = nN/sN,
    rD = (nD sN - nN sD)/(sN(sN - sD)); both parts then come from
    hN-adic digits (poly_in_h).  DegreeInfeasible when the law has no
    nonnegative integral solution.

    No check by composition is needed: fD = q hD**(rN-rD), fN = gN(h)
    hD**rN and q = gD(h) hD**rD give fN/fD = gN(h)/gD(h) = g(h).
    """
    if not (f.is_monic() and h.is_monic()):
        raise NotMonic("right division requires monic inputs")
    if f.delta <= 0 or h.delta <= 0 or not h.vanishes_at_zero():
        raise DegreeInfeasible("inputs must be normal (delta > 0, h(0) = 0)")
    pair = _outer_pair(*f.degree_pair, *h.degree_pair)
    if pair is None:
        raise DegreeInfeasible("degree law has no nonnegative integral solution")
    rN, rD = pair
    q, rem = divmod(f.den, h.den ** (rN - rD))
    if not rem.is_zero():
        return None
    gN = poly_in_h(f.num, h, rN)
    if gN is None:
        return None
    gD = poly_in_h(q, h, rD)  # q is monic: quotient of monic by monic
    if gD is None:
        return None
    return rat_reduce(gN, gD)


def _outer_pair(nN, nD, sN, sD):
    """The outer pair (rN, rD) that the degree law gives for f of pair
    (nN, nD) over an inner pair (sN, sD) with sN > sD, or None."""
    if sN <= sD or nN % sN:
        return None
    rD, rem = divmod(nD * sN - nN * sD, sN * (sN - sD))
    if rem or rD < 0 or nN // sN <= rD:
        return None
    return nN // sN, rD


def norm_rat_dec(f, quad):
    """All normal decompositions of f with the degree quadruple
    (rN, rD, sN, sD).

    Denominator candidates hD are the monic degree-sD divisors of fD not
    vanishing at 0 whose (rN - rD) power still divides fD; numerator
    candidates divide the nonzero B - b0 hD**rD (or fN - f(0) fD when
    rD = 0, where that bound degenerates to zero); each pair is settled
    by right division.
    """
    if not f.is_monic():
        raise NotMonic("input must be monic")
    if f.delta <= 0:
        raise DegreeInfeasible("input must have positive degree gap")
    rN, rD, sN, sD = (int(v) for v in quad)
    if sD < 0 or _outer_pair(*f.degree_pair, sN, sD) != (rN, rD):
        raise DegreeInfeasible("degree quadruple does not match the input")
    found = []
    for hD in upoly.monic_divisors(f.den, sD):
        if hD.coeff(0).is_zero():
            continue
        power = hD ** (rN - rD)
        B, rem = divmod(f.den, power)
        if not rem.is_zero():
            continue
        if rD == 0:
            b0 = f.num.coeff(0) / f.den.coeff(0)
            bound = f.num - f.den.scale(b0)
        else:
            b0bar = f.den.coeff(0) / hD.coeff(0) ** rN
            bound = B - (hD**rD).scale(b0bar)
        for hN in upoly.monic_divisors(bound, sN):
            if not hN.coeff(0).is_zero() or upoly.gcd(hN, hD).degree > 0:
                continue
            h = RationalFunction(hN, hD)
            g = rat_right_divide(f, h)
            if g is not None:
                found.append((g, h))
    found.sort(key=lambda gh: (gh[1].den.key(), gh[1].num.key()))
    return found


def general_rat_dec(f, quad):
    """Decompositions f = g(h) of a nonconstant f with pair(g) = (rN, rD)
    and pair(h) = (sN, sD), one per class, sorted.

    A class is the set of pairs (g o mu^-1, mu o h) over fractional linear
    maps mu.  For each shift a in K, in element order, f o (x+a) is
    normalised and its normal classes are listed for each inner
    denominator degree aD that a class with the requested h pair can have:
    sD when sN > sD, sN when sN < sD, and each of 0..s-1 when sN = sD = s.

    The pair of mu o hbar depends only on mu(inf), so the middle maps mu
    of _middle_maps suffice; the first that gives both requested pairs is
    kept.

    A class appears at every shift a with h(a) != h(inf) and is kept only
    at the first.  h(b) = h(inf) forces f(b) = f(inf), so every class has
    appeared by the first a with f(a) != f(inf), where the scan stops.  The
    search is complete when |K| > max(sN, sD), since h takes the value
    h(inf) at fewer than max(sN, sD) points of K.
    """
    if f.is_constant():
        raise ConstantInput("cannot decompose a constant function")
    rN, rD, sN, sD = (int(v) for v in quad)
    if min(rN, rD, sN, sD) < 0 or max(rN, rD) < 1 or max(sN, sD) < 1:
        raise DegreeInfeasible("degree quadruple must be nonnegative with g and h nonconstant")
    K = f.field
    s = max(sN, sD)
    inner_dens = [sD] if sN > sD else [sN] if sN < sD else range(s)
    x = Poly.x(K)
    out = []
    earlier = []
    for a in K.felts():
        lam, fbar = normalize(rat_compose(f, from_poly(x.shift_constant(a))))
        lam_inv = lam.inverse()
        for aD in inner_dens:
            pair = _outer_pair(*fbar.degree_pair, s, aD)
            if pair is None:
                continue
            for gb, hb in norm_rat_dec(fbar, (*pair, s, aD)):
                if any(not hb.den.evaluate(b - a).is_zero() for b in earlier):
                    continue
                g = flt_apply(lam_inv, gb)
                h = rat_compose(hb, from_poly(x.shift_constant(-a)))
                for mu in _middle_maps(g, sN, sD):
                    g2, h2 = rat_compose(g, mu.inverse().as_rational()), flt_apply(mu, h)
                    if g2.degree_pair == (rN, rD) and h2.degree_pair == (sN, sD):
                        out.append((g2, h2))
                        break
        if not fbar.den.coeff(0).is_zero():
            break
        earlier.append(a)
    out.sort(key=lambda gh: (gh[0].key(), gh[1].key()))
    return out


def _middle_maps(g, sN, sD):
    """Middle maps mu for outer part g: the identity if sN > sD, else
    1/(y-w) if sN < sD and (y-w+1)/(y-w) if sN = sD, in the element order
    of w = mu^-1(inf).  The pair of g o mu^-1 depends only on how often w
    is a root of g.num and g.den, so w runs over those roots and one other."""
    K = g.field
    if sN > sD:
        return [FracLinear.identity(K)]
    ws = [-q.coeff(0) for q, _ in upoly.factor(g.num * g.den)[0] if q.degree == 1]
    ws += [w for w in islice(K.felts(), len(ws) + 1) if w not in ws][:1]
    c = K.felt(int(sN == sD))
    return [FracLinear(c, 1 - c * w, K.felt(1), -w) for w in sorted(ws, key=Felt.key)]
