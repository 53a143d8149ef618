"""General univariate decomposition over finite fields.

Four bidecomposition engines sit behind one dispatcher, which every
entry point and every level of the recursion calls: the tame r-th root
(characteristic not dividing the outer degree), subset search
over the factors of f - f(0) (any characteristic), the finite-field block
construction for irreducible inputs, and the additive machinery for
additive inputs.  What a level reads of f (F[z]/(f), the additive part of
f - f(0), the factors of (f - f(0))/x) is computed once for every shape
tried.  In every entry point a tame shape (p not
dividing the outer degree) is answered by the root, with no
factorisation, since its normal decomposition is unique; the subset
search serves only wild shapes.  Whenever f - f(0) is additive, the
additive machinery alone also answers the wild shapes of the subset
search: over GF(p) from one factorisation, over GF(p**e) from a walk of
the quotient graph no deeper than the inner factor's exponent.  Every
decomposition returned is normal: all factors monic, inner factors with
zero constant term.
"""

from __future__ import annotations

import enum
import functools
import math

from . import _polyops as po, addecomp, additive, upoly
from .addecomp import Decomposition, _checked_shape
from .errors import DegreeError, NotAdditive, NotIrreducible, NotTame, Reducible
from .field import Felt, build_extension
from .upoly import Poly, require_monic

_INPUTS = "decomposition inputs"


class Strategy(enum.Enum):
    TAME = "tame"
    SEPARATED = "sep"
    IRREDUCIBLE_FF = "irred"
    ADDITIVE = "additive"


def tame_bidecomp(f, shape):
    """The unique normal (g, h) with f = g(h) and the given (r, s) shape,
    or None.  Requires p not dividing r.

    The top s coefficients of f are those of h**r, so the reversal H of h
    is the r-th root with H(0) = 1 of the reversal F of f modulo y**s (von
    zur Gathen 1990).  Newton's iteration G <- G + G(1 - F G**r)/r on
    coefficient lists doubles the precision of G = F**(-1/r) at each
    step, and H = F G**(r-1).  The outer factor is then a right division.
    """
    require_monic(f, _INPUTS)
    r, s = _checked_shape(shape, f.degree, DegreeError)
    K = f.field
    if r % K.p == 0:
        raise NotTame("outer degree divisible by the characteristic")
    one, inv_r = K.one(), K.inv(K.from_int(r))

    def power(a, e, m):
        """a**e mod y**m."""
        return po._power(lambda u, v: po.mul(K, u, v)[:m], [one], a, e)

    F, G, m = f.coeffs[::-1][:s], [one], 1
    while m < s:
        m = min(2 * m, s)
        err = po.sub(K, [one], po.mul(K, F[:m], power(G, r, m))[:m])
        G = po.add(K, G, po.scale(K, po.mul(K, G, err)[:m], inv_r))
    H = po.mul(K, F, power(G, r - 1, s))[:s]
    h = Poly._raw(K, [K.zero()] * (s + 1 - len(H)) + H[::-1])
    g = upoly.right_divide(f, h)
    return None if g is None else (g, h)


def sep_bidecomp(f, shape):
    """All normal (g, h) with f = g(h) for the given (r, s) shape, sorted.

    Where p does not divide r the normal decomposition is unique (von zur
    Gathen 1990), so the pair, or none, comes from tame_bidecomp with no
    factorisation.  At a wild shape, when f - f(0) is additive the pairs
    are read off its decompositions in the composition ring, in exponent
    space; for every other input the candidate inner factors are x times
    the monic degree-(s - 1) divisors of (f - f(0))/x, each checked by
    right division.
    """
    require_monic(f, _INPUTS)
    return _bidecompositions(f, shape, Strategy.SEPARATED, _Level(f))


def _tail_factors(f):
    """The factor list of (f - f(0))/x."""
    return upoly.factor(f.shift_constant(-f.coeff(0)) // Poly.x(f.field))[0]


class _Level:
    """What the shapes of one level read of f, each computed at most once
    for every shape tried: ``additive``, f - f(0) as an AdditivePoly or
    None (_additive_part), and ``tail_parts``, the factor list of
    (f - f(0))/x, for the wild shapes; ``ext``, F[z]/(f) or None when f
    is reducible, for the block method."""

    def __init__(self, f):
        self.f = f

    @functools.cached_property
    def additive(self):
        return _additive_part(self.f)

    @functools.cached_property
    def ext(self):
        try:
            return build_extension(self.f.field, self.f)
        except Reducible:
            return None

    @functools.cached_property
    def tail_parts(self):
        return _tail_factors(self.f)


def _wild_pairs(f, r, s, level):
    """The pairs of sep_bidecomp with shape (r, s), sorted by (h, g) key,
    reading f's ``level``.

    A normal decomposition of an additive polynomial has additive factors
    (Dorey and Whaples 1974), and with c = f(0), f = g(h) with h(0) = 0
    exactly when f - c = (g - c)(h).  So when f - c is additive the pairs
    come from addecomp.decompose_ordered on it, and its bounds are theirs.
    Otherwise they come from the subset search over ``level.tail_parts``.
    """
    a = level.additive
    if a is None:
        return _sep_pairs(f, s, level.tail_parts)
    c = f.coeff(0)
    pairs = (dec.as_poly_factors() for dec in addecomp.decompose_ordered(a, (r, s)))
    return sorted(((g.shift_constant(c), h) for g, h in pairs), key=_pair_key)


def _additive_part(f):
    """f - f(0) as an AdditivePoly when it is additive, else None."""
    try:
        return additive.AdditivePoly._from_terms(f.field, enumerate(f.coeffs[1:], 1))
    except NotAdditive:
        return None


def _pair_key(gh):
    return gh[1].key(), gh[0].key()


def _sep_pairs(f, s, tail_parts):
    """The pairs of sep_bidecomp with inner degree s, from the factor list
    ``tail_parts`` of (f - f(0))/x, sorted."""
    x = Poly.x(f.field)
    found = []
    for u in upoly._divisors_of_factors(f.field, tail_parts, s - 1):
        h = x * u
        g = upoly.right_divide(f, h)
        if g is not None:
            found.append((g, h))
    found.sort(key=_pair_key)
    return found


def irred_ff_bidecomp(f, shape):
    """Normal (g, h) for an irreducible f over a finite field, or None.

    In K = F[z]/(f) the only candidate block system is the orbit
    {alpha**(q**(j*r))}; its vanishing polynomial must have all
    positive-degree coefficients down in F.
    """
    require_monic(f, _INPUTS)
    entries = tuple(shape)
    if len(entries) == 2 and min(entries) < 2:
        raise DegreeError("normal bidecomposition factors need degree >= 2")
    pairs = _bidecompositions(f, shape, Strategy.IRREDUCIBLE_FF, _Level(f))
    return pairs[0] if pairs else None


def _block_pair(f, r, ext):
    """irred_ff_bidecomp's pair of outer degree r, given ext = F[z]/(f).

    The coefficient of X**(s-1) in the vanishing polynomial is minus the
    sum of the s conjugates, the trace from F_(q**n) to F_(q**r), and it
    is checked before the product: it lies in F for few irreducible f.
    """
    K = f.field
    s = f.degree // r
    e_step = K.degree_over_prime * r
    roots = [ext.gen()]
    for _ in range(s - 1):
        roots.append(Felt(ext, ext.frobenius_rep(roots[-1].rep, e_step)))
    if any(x != K.zero() for x in sum(roots[1:], roots[0]).rep[1:]):
        return None
    prod = Poly.one(ext)
    for root in roots:
        prod = prod * Poly(ext, [-root, ext.felt(1)])
    down = []
    for i in range(1, s + 1):
        c = prod.coeff(i).rep
        if any(x != K.zero() for x in c[1:]):
            return None
        down.append(c[0])
    h = Poly(K, [K.zero()] + down)
    g = upoly.right_divide(f, h)
    if g is None:
        return None
    return g, h


def _bidecompositions(f, shape, strategy, level):
    """All normal pairs for one level of the recursion, sorted: the one
    dispatcher of the tame, subset-search and block engines.

    Under IRREDUCIBLE_FF the pair comes from the block method in
    ``level.ext``, and a reducible f raises NotIrreducible.  Under
    SEPARATED the tame root answers whenever p does not divide the
    outer degree: the normal decomposition is then unique (von zur Gathen
    1990), so the subset search could find no other pair.  Wild shapes go
    to _wild_pairs, which reads f's ``level``.
    """
    r, s = _checked_shape(shape, f.degree, DegreeError)
    tame = r % f.field.p != 0
    if strategy is Strategy.TAME and not tame:
        raise NotTame("tame strategy with p | outer degree")
    if strategy is Strategy.IRREDUCIBLE_FF:
        if level.ext is None:
            raise NotIrreducible("input must be irreducible over its field")
        got = _block_pair(f, r, level.ext)
    elif tame:
        got = tame_bidecomp(f, shape)
    else:
        return _wild_pairs(f, r, s, level)
    return [got] if got is not None else []


def ord_fact_decomp(f, shape, strategy=Strategy.SEPARATED):
    """All decompositions of f matching the ordered factorisation that are
    reachable by recursive bidecomposition under the chosen strategy.

    Under ADDITIVE f may be an AdditivePoly, whose decompositions keep
    additive factors."""
    require_monic(f, _INPUTS)
    shape = _checked_shape(shape, f.degree)
    if strategy is Strategy.ADDITIVE:
        if isinstance(f, additive.AdditivePoly):
            return addecomp.decompose_ordered(f, shape)
        decs = addecomp.decompose_ordered(additive.AdditivePoly.from_poly(f), shape)
        return [Decomposition(f, d.as_poly_factors(), complete=d.complete) for d in decs]
    decs = [Decomposition(f, factors) for factors in _ordered_factors(f, shape, strategy)]
    return sorted(decs, key=lambda d: d.key())


def _ordered_factors(f, shape, strategy):
    """The factor tuples of ord_fact_decomp, unchecked: each level's pairs
    compose to it, so only the top level checks the composition."""
    if len(shape) == 1:
        return [(f,)]
    inner = shape[-1]
    return [
        outer + (h,)
        for g, h in _bidecompositions(f, (f.degree // inner, inner), strategy, _Level(f))
        for outer in _ordered_factors(g, shape[:-1], strategy)
    ]


def first_complete(f, strategy=Strategy.SEPARATED):
    """The first complete decomposition under an increasing divisor scan.

    Scans outer degrees d = smallest nontrivial divisor upward; the first
    split certifies an indecomposable outer factor, and the inner factor
    is decomposed recursively.  Under ADDITIVE f may be an AdditivePoly,
    whose decomposition keeps additive factors.
    """
    require_monic(f, _INPUTS)
    if strategy is Strategy.ADDITIVE:
        if isinstance(f, additive.AdditivePoly):
            return addecomp.complete_decomposition(f)
        dec = addecomp.complete_decomposition(additive.AdditivePoly.from_poly(f))
        return Decomposition(f, dec.as_poly_factors(), complete=True)
    if f.degree < 2:
        raise DegreeError("complete decomposition needs degree >= 2")
    return Decomposition(f, _first_complete_factors(f, strategy), complete=True)


def _first_complete_factors(f, strategy):
    """The factors of first_complete, unchecked: each level's pair composes
    to it, so only the top level checks the composition."""
    n = f.degree
    divisors = sorted({e for d in range(2, math.isqrt(n) + 1) if n % d == 0 for e in (d, n // d)})
    level = _Level(f)
    # a reducible f goes to the separated search
    if strategy is Strategy.IRREDUCIBLE_FF and divisors and level.ext is None:
        strategy = Strategy.SEPARATED
    for d in divisors:
        shape = (d, n // d)
        if strategy is Strategy.TAME and d % f.field.p == 0:
            continue
        pairs = _bidecompositions(f, shape, strategy, level)
        if pairs:
            g, h = pairs[0]
            # a normal inner factor has x | h, so the block method cannot
            # apply below the top level
            if strategy is Strategy.IRREDUCIBLE_FF:
                strategy = Strategy.SEPARATED
            return (g,) + _first_complete_factors(h, strategy)
    return (f,)
