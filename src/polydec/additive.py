"""The composition ring of additive polynomials over a finite field.

An additive polynomial has nonzero terms only at p-power exponents and is
stored as the coefficient vector ``a[i]`` of ``x**(p**i)``.  Under addition
and composition these form a left-Euclidean ring: right division always
exists, the meet (greatest common right composition factor) coincides with
the ordinary multiplicative gcd, and the join (least common left
composition multiple) comes out of the extended Euclidean scheme.  It is
the skew polynomial ring F_q[t; s], s the p-th power map (Ore 1933): its
product, right division and Euclidean scheme are those of ``_polyops``
twisted by Frobenius.
"""

from __future__ import annotations

import math
import random

from . import _polyops as po
from . import upoly
from ._expr import eval_poly_text
from .errors import (
    BothZero,
    DegreeError,
    DependentBasis,
    DivideByZero,
    FieldMismatch,
    NotAdditive,
    NotCoprime,
    NotMonic,
    ZeroInput,
)
from .field import Felt, build_prime_field
from .upoly import CoeffVector, Poly


class AdditivePoly(CoeffVector):
    """Additive polynomial sum(a[i] * x**(p**i)); a[-1] != 0 unless zero."""

    __slots__ = ()

    @classmethod
    def x(cls, field):
        return cls._raw(field, [field.one()])

    @classmethod
    def p_linear(cls, a):
        """x**p - a*x for a Felt a."""
        return cls(a.field, [-a, 1])

    @classmethod
    def from_poly(cls, f):
        """Convert a Poly; rejects nonzero coefficients off p-power exponents."""
        return cls._from_terms(f.field, enumerate(f.coeffs))

    @classmethod
    def parse(cls, field, text, var="x"):
        return cls._from_terms(field, sorted(eval_poly_text(field, text, var).items()))

    @classmethod
    def _from_terms(cls, K, terms):
        """From (exponent, rep) pairs in rising exponent order; NotAdditive
        names the lowest nonzero term off a p-power exponent."""
        p = K.p
        z = K.zero()
        out = []
        power, idx = 1, 0
        for e, c in terms:
            if c == z:
                continue
            while power < e:
                power *= p
                idx += 1
            if power != e:
                raise NotAdditive(f"term of exponent {e} is not a p-power")
            while len(out) <= idx:
                out.append(z)
            out[idx] = c
        return cls._raw(K, out)

    def to_poly(self):
        K = self.field
        p = K.p
        z = K.zero()
        if not self.coeffs:
            return Poly.zero(K)
        out = [z] * (p ** (len(self.coeffs) - 1) + 1)
        power = 1
        for c in self.coeffs:
            out[power] = c
            power *= p
        return Poly._raw(K, out)

    @property
    def expn(self):
        """Exponent: degree is p**expn; the zero polynomial gets -1."""
        return len(self.coeffs) - 1

    @property
    def degree(self):
        if not self.coeffs:
            return upoly.NEG_INF
        return self.field.p ** self.expn

    def is_simple(self):
        """Monic with nonzero linear coefficient (squarefree kernel)."""
        return self.is_monic() and self.coeffs[0] != self.field.zero()

    def evaluate(self, x):
        K = self.field
        rep = K.rep(x)
        acc = K.zero()
        power = rep
        for i, a in enumerate(self.coeffs):
            if i:
                power = K.pow_(power, K.p)
            if a != K.zero():
                acc = K.add(acc, K.mul(a, power))
        return Felt(K, acc)

    def __str__(self):
        p = self.field.p
        return po.poly_str(self.field, ((p**i, c) for i, c in enumerate(self.coeffs)), "x")


def add_compose(f, g):
    """f(g); exponents add.  Coefficients: c[i+j] += a[i] * b[j]**(p**i),
    the product of the skew ring, done by ``_polyops.mul``."""
    f._check(g)
    K = f.field
    return AdditivePoly._raw(K, po.mul(K, f.coeffs, g.coeffs, frobenius=True))


def add_rdivrem(f, g):
    """Q, R with f = Q(g) + R and expn R < expn g (right division).

    The quotient term c at x**(p**t) is lc(rem) * (1/lc g)**(p**t), and
    c * b_j**(p**t) comes off the remainder at x**(p**(t+j)): the right
    division of the skew ring, done by ``_polyops.divmod_``.
    """
    f._check(g)
    if g.is_zero():
        raise DivideByZero("right division by the zero additive polynomial")
    K = f.field
    q, r = po.divmod_(K, list(f.coeffs), g.coeffs, frobenius=True)
    return AdditivePoly._raw(K, q), AdditivePoly._raw(K, r)


def right_quotient(f, g):
    """f with g divided off on the right, or None if g does not divide."""
    q, r = add_rdivrem(f, g)
    return q if r.is_zero() else None


def meet(f, g):
    """Greatest common right composition factor, monic.

    The twisted ``_polyops.gcd``, so it stays in exponent space on vectors
    of length expn + 1.  It coincides with the ordinary multiplicative gcd
    because compositional and multiplicative remainders agree for additive
    polynomials.
    """
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise BothZero("meet(0, 0) is undefined")
    return AdditivePoly._raw(f.field, po.gcd(f.field, f.coeffs, g.coeffs, frobenius=True))


def _last_cofactor(f, g):
    """The cofactor s of f at the zero remainder of the Euclidean scheme on
    (f, g), the twisted ``_polyops.extgcd``: s o f is the least common left
    multiple of f and g (Ore 1933)."""
    return AdditivePoly._raw(f.field, po.extgcd(f.field, f.coeffs, g.coeffs, frobenius=True)[2])


def join(f, g):
    """Least common left composition multiple, monic: s o f for the last
    cofactor s of f in the Euclidean scheme."""
    f._check(g)
    if f.is_zero() or g.is_zero():
        raise ZeroInput("join requires nonzero inputs")
    return add_compose(_last_cofactor(f, g), f).monic()


def transform(g, f):
    """The transformation of f by g: join(g, f) right-divided by g.

    That quotient is the last cofactor of g, made monic, since
    join(g, f) = monic(s o g) and g is monic.
    """
    g._check(f)
    if not (g.is_monic() and f.is_monic()):
        raise NotMonic("transformation requires monic inputs")
    return _last_cofactor(g, f).monic()


def _prime_coords(K, a):
    """Coordinates of a representation over GF(p), on the tower monomials."""
    return [a] if K.height == 0 else [c for b in a for c in _prime_coords(K.base, b)]


def _prime_basis(K):
    """The tower generator monomials: an F_p-basis of K, in coordinate order."""
    if K.height == 0:
        return [1]
    z = (K.base.zero(),)
    return [z * i + (b,) + z * (K.deg - 1 - i) for i in range(K.deg) for b in _prime_basis(K.base)]


def _vector(f, n):
    """The GF(p) coordinates of the coefficients of f, padded with 0 to length n."""
    col = [c for a in f.coeffs for c in _prime_coords(f.field, a)]
    return col + [0] * (n - len(col))


def _hom_basis(f, g):
    """An F_p-basis of Hom(f, g) = {u : expn u < expn g, g right-divides f o u}.

    u -> (f o u mod g) is F_p-linear; its columns on the F_p-basis
    b * x**(p**i) of the domain are eliminated over GF(p), and each
    dependence among them is a kernel vector.
    """
    K = f.field
    Fp = build_prime_field(K.p)
    domain = [AdditivePoly.monomial(K, i, b) for i in range(g.expn) for b in _prime_basis(K)]
    n = len(domain)
    rows, kernel = [], []
    for k, u in enumerate(domain):
        r = add_rdivrem(add_compose(f, u), g)[1]
        dep = _eliminate(Fp, rows, _vector(r, n), [int(j == k) for j in range(n)])
        if dep is not None:
            kernel.append(_combine(dep, domain))
    return kernel


def _combine(coeffs, polys):
    """sum c_i u_i for c_i in GF(p) and at least one u_i, all over one field."""
    K = polys[0].field
    out = []
    for c, u in zip(coeffs, polys):
        if c:
            out = po.add(K, out, po.scale(K, u.coeffs, K.from_int(c)))
    return AdditivePoly._raw(K, out)


def is_similar(f, g):
    """Similarity test with witness: ``(flag, u)``, u monic with
    meet(u, g) = x and transform(u, g) = f.

    f and g are similar exactly when 2 dim Hom(f, g) equals
    dim Hom(f, f) + dim Hom(g, g).  Hom(f, g) holds the module maps
    R/Rf -> R/Rg over the composition ring R; these modules are sums of
    uniserial pieces, and on their partitions the difference of the two
    sides is minus a sum of squares, zero only for isomorphic modules.  The
    witness is the first pseudorandom draw u from Hom(f, g) (as g + u when u is
    not monic) with meet(u, g) = x: transform(u, g) right-divides f and has
    its exponent, so it equals f.
    """
    f._check(g)
    if not (f.is_monic() and g.is_monic()):
        raise NotMonic("similarity requires monic inputs")
    if f.expn != g.expn:
        return False, None
    K = f.field
    xpoly = AdditivePoly.x(K)
    if f == g:
        return True, xpoly
    homs = _hom_basis(f, g)
    if 2 * len(homs) != len(_hom_basis(f, f)) + len(_hom_basis(g, g)):
        return False, None
    rng = random.Random(f"similar:{K.order}:{f.expn}")
    while True:
        u = _combine([rng.randrange(K.p) for _ in homs], homs)
        w = u if u.is_monic() else g + u
        if meet(w, g) == xpoly:
            return True, w


def transmutable(f, g):
    """All transmutations of f by g: pairs (gbar, fbar) with
    fbar similar to f, f = transform(g, fbar), gbar = transform(fbar, g),
    hence f(g) = gbar(fbar).  f must be monic indecomposable, g monic."""
    from . import addecomp
    from .errors import NotIndecomposable

    f._check(g)
    if not (f.is_monic() and g.is_monic()):
        raise NotMonic("transmutation requires monic inputs")
    if not addecomp.is_indecomposable(f):
        raise NotIndecomposable("first argument must be indecomposable")
    fg = add_compose(f, g)
    out = []
    for fbar in addecomp.indec_right_factors(fg):
        if fbar.expn != f.expn:
            continue
        gbar = right_quotient(fg, fbar)
        if gbar is not None and gbar == transform(fbar, g):
            out.append((gbar, fbar))
    out.sort(key=lambda pair: pair[1].key())
    return out


def transform_composition(h, dec):
    """Transform a complete decomposition of g into one of transform(h, g).

    h must be monic, indecomposable, and composition-coprime with g; the
    i-th new factor is transform(h_i, g_i) with h_1 = h and
    h_i = transform(g_(i-1) o ... o g_1, h).
    """
    from .addecomp import Decomposition

    g = dec.target
    h._check(g)
    if not h.is_monic():
        raise NotMonic("transformation requires a monic input")
    if not dec.complete:
        raise ValueError("decomposition must be complete")
    if meet(h, g) != AdditivePoly.x(h.field):
        raise NotCoprime("h must be composition-coprime with the target")
    inner_first = list(reversed(dec.factors))
    new_inner_first = []
    comp = AdditivePoly.x(h.field)
    for i, gi in enumerate(inner_first):
        hi = h if i == 0 else transform(comp, h)
        new_inner_first.append(transform(hi, gi))
        comp = add_compose(gi, comp)
    return Decomposition(
        transform(h, g), tuple(reversed(new_inner_first)), complete=True
    )


class KernelBasis:
    """Field elements linearly independent over the prime subfield.

    Runs psi -> (x**p - v**(p-1) x) o psi with v = psi(theta) from psi = x.
    The roots of psi are exactly the Z_p-span of the elements seen so far,
    so theta is independent of them exactly when v != 0; the final psi is
    kept for from_kernel_basis.
    """

    __slots__ = ("field", "elements", "psi")

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise DependentBasis("kernel basis must be nonempty")
        field = elements[0].field
        for e in elements:
            if e.field != field:
                raise FieldMismatch("basis elements from different fields")
        psi = AdditivePoly.x(field)
        for theta in elements:
            v = psi.evaluate(theta)
            if v.is_zero():
                raise DependentBasis("basis elements are Z_p-dependent")
            psi = add_compose(AdditivePoly.p_linear(v ** (field.p - 1)), psi)
        self.field = field
        self.elements = elements
        self.psi = psi

    def __len__(self):
        return len(self.elements)


def from_kernel_basis(basis):
    """The monic simple additive polynomial whose roots are exactly the
    Z_p-span of the basis (see KernelBasis)."""
    if not isinstance(basis, KernelBasis):
        basis = KernelBasis(basis)
    return basis.psi


def peel_frobenius(f):
    """Write monic f as x**(p**l) o g with g monic simple; returns (l, g)."""
    if f.is_zero():
        raise ZeroInput("cannot peel the zero polynomial")
    if not f.is_monic():
        raise NotMonic("peeling requires a monic input")
    K = f.field
    z = K.zero()
    ell = 0
    while f.coeffs[ell] == z:
        ell += 1
    if ell == 0:
        return 0, f
    # the p**ell-th root is the Frobenius power p**(ell*(e-1)) on GF(p**e)
    times = ell * (K.degree_over_prime - 1)
    return ell, AdditivePoly._raw(K, [K.frobenius_rep(a, times) for a in f.coeffs[ell:]])


def _eliminate(K, rows, vec, combo):
    """Reduce vec against the echelon rows (pivot, row, combo), doing the
    same to combo (row combos may be shorter).  Returns combo, a linear
    dependence among the vectors inserted so far, when vec reduces to 0;
    else appends the reduced row, scaled to pivot 1, and returns None.
    """
    z = K.zero()
    for pivot, bvec, bcombo in rows:
        c = vec[pivot]
        if c != z:
            vec = [K.sub(x, K.mul(c, y)) for x, y in zip(vec, bvec)]
            combo = [
                K.sub(x, K.mul(c, y))
                for x, y in zip(combo, bcombo + [z] * (len(combo) - len(bcombo)))
            ]
    nonzero = [i for i, x in enumerate(vec) if x != z]
    if not nonzero:
        return combo
    pivot = nonzero[-1]
    inv = K.inv(vec[pivot])
    rows.append((pivot, [K.mul(x, inv) for x in vec], [K.mul(x, inv) for x in combo]))
    return None


def min_add_mult(f):
    """Minimal additive multiple of a monic polynomial f.

    Scans h_i = x**(p**i) mod f for the first linear dependence over the
    coefficient field; the dependence coefficients assemble the answer.
    Every monic additive multiple of f is right-divisible by it.
    """
    if f.is_zero():
        raise ZeroInput("zero polynomial has no minimal additive multiple")
    if not f.is_monic():
        raise NotMonic("minimal additive multiple requires a monic input")
    K, z = f.field, f.field.zero()
    fc = list(f.coeffs)
    # h_k + sum(dep[j] h_j, j<k) == 0 with dep[k] = 1, so
    # x**(p**k) + sum dep[j] x**(p**j) is the additive multiple.
    dep, _ = _first_dependence(K, po.mod(K, [z, K.one()], fc), lambda h: po.powmod(K, h, K.p, fc),
                               lambda h: list(h) + [z] * (f.degree - len(h)))
    return AdditivePoly._raw(K, dep)


def _first_dependence(K, start, step, coords):
    """The first linear dependence over K among the coordinates coords(r_i)
    of r_0 = start, r_(i+1) = step(r_i): returns it, with coefficient 1 at
    its last r_k, and r_0, ..., r_k."""
    rows, powers, r = [], [], start
    while True:
        powers.append(r)
        dep = _eliminate(K, rows, coords(r), [K.zero()] * (len(powers) - 1) + [K.one()])
        if dep is not None:
            return dep, powers
        r = step(r)


def counts(p, nu, sigma):
    """Exact subspace and flag counts over Z_p.

    Returns (S, T, F): S = number of sigma-dimensional subspaces of a
    nu-dimensional space; T = number of sigma-dimensional subspaces
    containing a fixed (sigma-1)-dimensional one; F = number of maximal
    flags = prod_{1<=i<=nu} T(nu, i).  T is 1 by convention at sigma = 0.
    """
    if p < 2 or not (0 <= sigma <= nu):
        raise DegreeError("need p >= 2 and 0 <= sigma <= nu")

    def extensions(i):
        # Gaussian binomial [nu - i + 1, 1]_p: exact for every 1 <= i <= nu
        return (p**nu - p ** (i - 1)) // (p**i - p ** (i - 1))

    num = 1
    den = 1
    for i in range(sigma):
        num *= p**nu - p**i
        den *= p**sigma - p**i
    s = num // den
    t = extensions(sigma) if sigma else 1
    flags = math.prod(extensions(i) for i in range(1, nu + 1))
    return s, t, flags
