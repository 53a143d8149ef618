"""Rational function decomposition over finite fields.

Rational functions are reduced numerator/denominator pairs with monic
denominator.  Normalisation by a fractional linear transformation brings
any nonconstant function to a monic one whose numerator degree exceeds its
denominator degree; normal decompositions (monic parts, inner part
vanishing at 0, positive degree gaps) are then found by enumerating
denominator and numerator divisors, and a general instance reduces to
normal ones through at most deg f conjugations.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import upoly
from ._expr import eval_rational_text
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
    return rat_reduce(Poly(field, num), Poly(field, den))


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
                acc = acc + hD ** (r - i) * Poly.constant(g.field, c)
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

    The coefficients satisfy a triangular recurrence along the x-adic
    valuation d of hN; the candidate is verified by full expansion since
    the system is overconstrained.
    """
    K = u.field
    if not u.is_monic():
        raise NotMonic("target polynomial must be monic")
    hN, hD = h.num, h.den
    sN = int(hN.degree)
    if not (h.is_monic() and h.vanishes_at_zero() and h.delta > 0):
        raise DegreeInfeasible("inner function must be monic, vanish at 0, delta > 0")
    if u.degree != r * sN:
        return None
    d = 0
    while u.field.zero() == hN.coeffs[d]:
        d += 1
    c_hn = hN.coeff(d)
    c_hd = hD.coeff(0)
    coeffs = []
    acc = Poly.zero(K)
    for ell in range(r + 1):
        denom = c_hn**ell * c_hd ** (r - ell)
        b = (u.coeff(ell * d) - acc.coeff(ell * d)) / denom
        coeffs.append(b)
        if not b.is_zero():
            acc = acc + (hN**ell * hD ** (r - ell)).scale(b)
    if acc == u:
        return Poly(K, coeffs)
    return None


def rat_right_divide(f, h):
    """The unique monic normal g with f = g(h), or None.

    The outer degree pair is forced by the degree law rN = nN/sN,
    rD = (nD sN - nN sD)/(sN(sN - sD)); both parts then come from
    single-variable recurrences.  DegreeInfeasible when the law has no
    nonnegative integral solution.
    """
    if not (f.is_monic() and h.is_monic()):
        raise NotMonic("right division requires monic inputs")
    if f.delta <= 0 or h.delta <= 0 or not h.vanishes_at_zero():
        raise DegreeInfeasible("inputs must be normal (delta > 0, h(0) = 0)")
    nN, nD = f.degree_pair
    sN, sD = h.degree_pair
    rN, rD = _outer_pair(nN, nD, sN, sD, strict=True)
    q, rem = divmod(f.den, h.den ** (rN - rD))
    if not rem.is_zero():
        return None
    gN = poly_in_h(f.num, h, rN)
    if gN is None:
        return None
    if q.degree != rD * sN:
        return None
    gD = poly_in_h(q, h, rD)  # q is monic: quotient of monic by monic
    if gD is None:
        return None
    g = rat_reduce(gN, gD)
    if rat_compose(g, h) != f:
        return None
    return g


def _outer_pair(nN, nD, sN, sD, strict):
    if sN <= sD:
        if strict:
            raise DegreeInfeasible("inner degree pair must have sN > sD")
        return None
    if nN % sN:
        if strict:
            raise DegreeInfeasible("sN must divide nN")
        return None
    rN = nN // sN
    num = nD * sN - nN * sD
    den = sN * (sN - sD)
    if num % den:
        if strict:
            raise DegreeInfeasible("degree law has no integral solution")
        return None
    rD = num // den
    if rD < 0 or rN <= rD:
        if strict:
            raise DegreeInfeasible("degree law gives a negative or inverted pair")
        return None
    return rN, rD


def norm_rat_dec(f, quad):
    """All normal decompositions of f with the degree quadruple
    (rN, rD, sN, sD).

    Denominator candidates hD are the monic degree-sD divisors of fD not
    vanishing at 0 whose (rN - rD) power still divides fD; numerator
    candidates divide B - b0 hD**rD (or fN - f(0) fD when rD = 0, where
    that bound degenerates to zero); each pair is settled by right
    division.
    """
    if not f.is_monic():
        raise NotMonic("input must be monic")
    if f.delta <= 0:
        raise DegreeInfeasible("input must have positive degree gap")
    rN, rD, sN, sD = (int(v) for v in quad)
    if min(rN, sN) < 1 or min(rD, sD) < 0 or sN <= sD or rN <= rD:
        raise DegreeInfeasible("degree quadruple out of range")
    nN, nD = f.degree_pair
    if nN != rN * sN or nD != rN * sD - rD * sD + rD * sN:
        raise DegreeInfeasible("degree quadruple does not match the input")
    K = f.field
    found = []
    for hD in upoly.monic_divisors(f.den, sD):
        if hD.coeff(0).is_zero():
            continue
        power = hD ** (rN - rD)
        B, rem = divmod(f.den, power)
        if not rem.is_zero():
            continue
        if rD == 0:
            if B != Poly.one(K):
                continue
            b0 = f.num.coeff(0) / f.den.coeff(0)
            bound = f.num - f.den.scale(b0)
        else:
            b0bar = f.den.coeff(0) / hD.coeff(0) ** rN
            bound = B - (hD**rD).scale(b0bar)
        if bound.is_zero():
            continue
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
    """Decompositions of an arbitrary nonconstant f with the requested
    degree quadruple, up to the normalisation conventions.

    Reduces to the normal problem behind one conjugation: the identity
    when sN > sD, 1/x when sN < sD, and (x+1)/x when sN = sD, where smaller
    denominator degrees are scanned until one gives results.  Results
    recompose to f exactly.
    """
    if f.is_constant():
        raise ConstantInput("cannot decompose a constant function")
    rN, rD, sN, sD = (int(v) for v in quad)
    if min(rN, rD, sN, sD) < 0 or max(rN, rD) < 1 or max(sN, sD) < 1:
        raise DegreeInfeasible("degree quadruple must be nonnegative with g and h nonconstant")
    K = f.field
    lam, fbar = normalize(f)
    lam_inv = lam.inverse()
    nN, nD = fbar.degree_pair
    out = []

    def push(g2, h2):
        if rat_compose(g2, h2) != f:
            return
        if g2.degree_pair != (rN, rD) or h2.degree_pair != (sN, sD):
            return
        out.append((g2, h2))

    # conjugation t and the normal inner degree pairs to try, in order
    if sN > sD:
        t, inner_pairs = FracLinear.identity(K), [(sN, sD)]
    elif sN < sD:
        t, inner_pairs = FracLinear.of_ints(K, 0, 1, 1, 0), [(sD, sN)]  # 1/x
    else:
        t = FracLinear.of_ints(K, 1, 1, 1, 0)  # (x+1)/x, inverse 1/(x-1)
        inner_pairs = [(sN, sDbar) for sDbar in range(sN - 1, -1, -1)]
    t_inv_rat = t.inverse().as_rational()
    for aN, aD in inner_pairs:
        pair = _outer_pair(nN, nD, aN, aD, strict=False)
        if pair is None:
            continue
        for gb, hb in norm_rat_dec(fbar, (*pair, aN, aD)):
            push(rat_compose(flt_apply(lam_inv, gb), t_inv_rat), flt_apply(t, hb))
        if out:
            break
    seen = {}
    for g2, h2 in out:
        seen.setdefault((g2.key(), h2.key()), (g2, h2))
    return [seen[k] for k in sorted(seen)]
