"""Decomposition algorithms for additive polynomials.

Covers indecomposable right factors, one/all complete decompositions,
ordered-factorisation targeting, the completely-reducible and
similarity-free fast paths, and absolute decomposition over field towers.
Indecomposable right factors come from one route over every field, by
linear algebra over GF(p) on coefficient vectors: the bound (least central
multiple) of the input, its isotypic parts, and their eigenrings.  Over
GF(p) the ring is commutative and the complete decompositions are the
orderings of the irreducible factors of the linearized associate, read off
one factorisation.  Everywhere a factor has to be chosen, the smallest by
(degree, coefficient order) wins, so identical inputs give identical
outputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

from . import upoly
from ._expr import parse_int_list
from .additive import (
    AdditivePoly,
    _combine,
    _eliminate,
    _first_dependence,
    _hom_basis,
    _last_cofactor,
    _vector,
    add_compose,
    add_rdivrem,
    is_similar,
    join,
    meet,
    peel_frobenius,
    right_quotient,
    transform_composition,
    transmutable,
)
from .errors import (
    BadLength,
    ExponentBoundExceeded,
    NotCompletelyReducible,
    NotCoprime,
    NotMonic,
    NotSimilarityFree,
    NotSimple,
    ProductMismatch,
    ZeroInput,
)
from .field import Felt, build_extension, build_prime_field, lift
from .upoly import Poly


class OrderedFactorisation(tuple):
    """Tuple (r_m, ..., r_1) of integers >= 2, outermost factor first."""

    def __new__(cls, entries):
        entries = tuple(int(e) for e in entries)
        if not entries:
            raise BadLength("ordered factorisation must be nonempty")
        if any(e < 2 for e in entries):
            raise BadLength("ordered factorisation entries must be >= 2")
        return super().__new__(cls, entries)

    @classmethod
    def parse(cls, text):
        return cls(parse_int_list(text))


def _checked_shape(shape, degree, pair_error=None):
    """The OrderedFactorisation of shape, which must multiply to degree;
    with pair_error, a shape of other than two entries raises it."""
    shape = OrderedFactorisation(shape)
    if pair_error and len(shape) != 2:
        raise pair_error("bidecomposition shape must have two entries")
    if math.prod(shape) != degree:
        raise ProductMismatch("shape does not multiply to deg f")
    return shape


class UnorderedFactorisation(tuple):
    """Multiset of factors; canonical form is the descending sorted tuple."""

    def __new__(cls, entries):
        return super().__new__(cls, sorted((int(e) for e in entries), reverse=True))


def _compose_chain(factors):
    compose = add_compose if isinstance(factors[0], AdditivePoly) else upoly.compose
    return functools.reduce(compose, factors)


@dataclass(frozen=True)
class Decomposition:
    """A target polynomial with an ordered factor tuple, outermost first.

    The composition of the factors is checked against the target at
    construction.  ``complete`` marks decompositions whose factors are all
    indecomposable of degree >= p.
    """

    target: object
    factors: tuple
    complete: bool = dc_field(default=False)

    def __post_init__(self):
        if not self.factors:
            raise ZeroInput("decomposition needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        if _compose_chain(self.factors) != self.target:
            raise ValueError("factors do not compose to the target")

    @property
    def shape(self):
        """Ordered factorisation of the target degree, outermost first."""
        return OrderedFactorisation(int(f.degree) for f in self.factors)

    def key(self):
        return tuple(f.key() for f in self.factors)

    def as_poly_factors(self):
        """Factors as plain Poly values (converting additive ones)."""
        return tuple(f.to_poly() if isinstance(f, AdditivePoly) else f for f in self.factors)

    def to_json_dict(self):
        return {
            "target": str(self.target),
            "field": self.target.field.describe(),
            "factors": [str(f) for f in self.factors],
            "complete": self.complete,
        }

    def __str__(self):
        return " o ".join(f"({f})" for f in self.factors)


def _require_monic_additive(f):
    if not isinstance(f, AdditivePoly):
        raise TypeError("expected an AdditivePoly")
    if not f.is_monic():
        raise NotMonic("input must be monic")
    if f.expn < 1:
        raise ZeroInput("input must have exponent >= 1")


def indec_right_factors(f):
    """All monic indecomposable right composition factors of f, sorted by key.

    Under composition, additive polynomials over F_q, q = p**e, form a
    skew polynomial ring in x**p whose centre is F_p[x**q]: x**q commutes
    with every additive polynomial.  One route serves every field, by
    linear algebra over GF(p) on vectors of length e*expn.  The factor x**p
    is listed exactly when f is not simple; the others are the
    indecomposable right factors of the simple part g of f = x**(p**l) o g.
    The kernel V of g is an F_p-space of dimension expn g on which
    F: v -> v**q acts.  The right factors of g are the polynomials whose
    kernels are F-stable subspaces of V, and the indecomposable ones have
    minimal nonzero kernels.

    1. Bound: the minimal polynomial g* of F on V, of degree at most
       expn g, is the first GF(p)-dependence among r_0 = x mod g and
       r_(i+1) = (x**q o r_i) mod g; g*(x**q) is the least central
       multiple of g.
    2. Isotypic parts: for each irreducible factor phi of g*, of degree
       d, s = meet(g, sum phi_j r_j) has the kernel of phi(F) on V: a
       space of dimension k over E = F_p[F]/(phi) = GF(p**d), so
       expn s = d*k, holding every minimal subspace of type phi.  At
       k = 1 s is the only factor for phi.
    3. Eigenring: at k >= 2 the factors for phi are the E-lines of that
       space, the points of P^(k-1)(E).  See :func:`_isotypic_factors`.

    Over GF(p) the ring is commutative, every k is 1 and the bound is the
    linearized associate sum a_i y**i of f itself, so the factors are read
    straight off its monic irreducible factors, coefficient for coefficient
    (the factor y is x**p).
    """
    _require_monic_additive(f)
    K = f.field
    if K.degree_over_prime == 1:
        factors = [irr for irr, _mult in _associate_factors(f)]
    else:
        ell, g = peel_frobenius(f)
        factors = []
        bound, powers = _min_poly(AdditivePoly.monomial(K, K.degree_over_prime), g)
        for phi, _mult in upoly.factor(bound)[0]:
            s = meet(g, _combine(phi.coeffs, powers))
            factors += _isotypic_factors(s, phi.degree)
        if ell:
            factors.append(AdditivePoly.monomial(K, 1))
    return sorted(factors, key=lambda g: g.key())


def _associate_factors(f):
    """Over GF(p): the monic irreducible factors of the linearized associate
    of f, as additive polynomials with their multiplicities, sorted by key.

    There composition is the product of associates, so these are the
    indecomposable right factors of f, and its complete decompositions are
    the distinct orderings of this multiset.
    """
    parts, _ = upoly.factor(Poly._raw(f.field, f.coeffs))
    return [(AdditivePoly._raw(f.field, irr.coeffs), mult) for irr, mult in parts]


def _min_poly(u, g):
    """The least monic m over GF(p) with m(u) = 0 in the eigenring of g.

    Powers act by composition modulo g: r_0 = x mod g and
    r_(i+1) = (u o r_i) mod g; m is the first GF(p)-dependence among them.
    Returns m and r_0, ..., r_(deg m).
    """
    K = g.field
    Fp = build_prime_field(K.p)
    n = K.degree_over_prime * g.expn
    dep, powers = _first_dependence(Fp, add_rdivrem(AdditivePoly.x(K), g)[1],
                                    lambda r: add_rdivrem(add_compose(u, r), g)[1],
                                    lambda r: _vector(r, n))
    return Poly._raw(Fp, dep), powers


def _isotypic_factors(s, d):
    """The indecomposable right factors of an isotypic s.

    They all have exponent d, and ker s is a space of dimension
    k = expn s / d over their common endomorphism field E = GF(p**d).

    At k >= 2 a zero divisor m(u) of the eigenring gives the proper right
    factor meet(s, m(u)): u is a seeded draw from Hom(s, s), the algebra of
    k x k matrices over E, and m is a proper factor of its minimal
    polynomial.  About half of all draws have one whatever the field size,
    and splitting again down to exponent d gives one simple factor g0.
    Hom(s, g0) is then E**k, with E acting by u -> (x**q o u) mod g0.  A
    nonzero u in it maps ker g0 onto an E-line of ker s, the kernel of its
    last Euclidean cofactor against g0.  Lines of Hom(s, g0) and of ker s
    correspond one to one, so one u per line, normalised on an E-basis,
    gives every factor once.  A scalar c*u in K is not an E-multiple and
    has another image, so u is not scaled.
    """
    k = s.expn // d
    if k == 1:
        return [s]
    K = s.field
    rng = random.Random(f"eigenring:{K.order}:{s.expn}")
    g0 = s
    while g0.expn > d:
        g0 = _split(g0, rng)
    Fp = build_prime_field(K.p)
    xq = AdditivePoly.monomial(K, K.degree_over_prime)
    n = K.degree_over_prime * d
    rows, orbits = [], []
    for h in _hom_basis(s, g0):
        if len(orbits) == k:
            break
        if _eliminate(Fp, rows, _vector(h, n), []) is not None:
            continue
        orbit = [h]
        for _ in range(d - 1):
            orbit.append(add_rdivrem(add_compose(xq, orbit[-1]), g0)[1])
            _eliminate(Fp, rows, _vector(orbit[-1], n), [])
        orbits.append(orbit)
    out = []
    for lead in range(k):
        tail = [w for orbit in orbits[lead + 1 :] for w in orbit]
        for coords in itertools.product(range(K.p), repeat=len(tail)):
            u = _combine((1,) + coords, [orbits[lead][0]] + tail)
            out.append(_last_cofactor(u, g0).monic())
    return out


def _split(s, rng):
    """A proper right factor of an isotypic s that is not simple: meet(s,
    m(u)) for the first drawn u of Hom(s, s) whose minimal polynomial has a
    proper factor m."""
    K = s.field
    ends = _hom_basis(s, s)
    while True:
        u = _combine([rng.randrange(K.p) for _ in ends], ends)
        mu, powers = _min_poly(u, s)
        m = upoly.factor(mu)[0][0][0]
        if m != mu:
            return meet(s, _combine(m.coeffs, powers))


def is_indecomposable(f):
    """True when f has no decomposition into factors of degree >= p."""
    return f.expn == 1 or f.expn > 1 and indec_right_factors(f) == [f]


def complete_decomposition(f):
    """One complete decomposition: the one that peels the smallest
    indecomposable right factor at every stage.

    Over GF(p) that is the factors of the associate, each as often as its
    multiplicity, in descending key order, read off one factorisation.
    """
    _require_monic_additive(f)
    if f.field.degree_over_prime == 1:
        factors = [irr for irr, mult in reversed(_associate_factors(f)) for _ in range(mult)]
        return Decomposition(f, tuple(factors), complete=True)
    factors_inner_first = []
    cur = f
    while cur is not None:
        h1 = indec_right_factors(cur)[0]
        factors_inner_first.append(h1)
        # cur is indecomposable exactly when it is its own first factor
        cur = None if h1 == cur else right_quotient(cur, h1)
    return Decomposition(f, tuple(reversed(factors_inner_first)), complete=True)


# all_complete_decompositions and decompose_ordered raise before building
# more factors than this, summed over their decompositions.  Each
# decomposition is checked by composing its factors: 34,650 decompositions
# of 12 factors took 2.1 s, and 1,000 of 256 factors 2.4 s.  The worst
# case measured is decompose_ordered over GF(2) of x^(2^128)+x^2 at shape
# (2^64, 2^64): 97,240 decompositions of 2 factors, under the bound, in
# 15.8-18.0 s (one core of a 2-core Xeon VM).
_ALL_COMPLETE_MAX_FACTORS = 1 << 19

# decompose_ordered over GF(p) raises before its count takes more steps
# than this (see upoly._block_splits): a step took about 2.6 us, and
# x^(2^256)+x^(2^192)+x^(2^128) over GF(2) at 16 blocks of 2^16 reached
# it in 1.4 s (one core of a 2-core Xeon VM).
_ORDERED_MAX_STEPS = 1 << 19

# the walk of the quotient graph over GF(p**e) raises before it calls
# indec_right_factors on more quotients than this.  x^256+x has 1,982 over
# GF(2^4) and over the tower GF(16), walked in about 2 s; a quotient of
# x^4096+x over GF(2^4) took about 2.3 ms, so decompose_ordered at shape
# (2, 2048) reached the bound in 9.4 s (one core of a 2-core Xeon VM).
_WALK_MAX_NODES = 1 << 12


def _check_output_size(count, length, what="complete decompositions"):
    """ExponentBoundExceeded when count decompositions of length factors
    are above _ALL_COMPLETE_MAX_FACTORS factors in all."""
    if count * length > _ALL_COMPLETE_MAX_FACTORS:
        raise ExponentBoundExceeded(
            f"{count} {what} of {length} factors are above"
            f" the limit of {_ALL_COMPLETE_MAX_FACTORS} factors"
        )


class _QuotientGraph(dict):
    """The quotient graph over GF(p**e), e > 1, walked on demand: maps a
    quotient g to its edges (h, g/h), one per indecomposable right factor
    h and none when g is indecomposable.  Each new quotient costs one
    indec_right_factors call, and past _WALK_MAX_NODES of them it raises
    ExponentBoundExceeded."""

    def __missing__(self, g):
        if len(self) == _WALK_MAX_NODES:
            raise ExponentBoundExceeded(
                f"the quotient graph has more than {_WALK_MAX_NODES} quotients to walk")
        rf = indec_right_factors(g)
        self[g] = [] if rf == [g] else [(h, right_quotient(g, h)) for h in rf]
        return self[g]


def all_complete_decompositions(f, limit=None):
    """All complete decompositions (the first ``limit`` of them), sorted
    by key.  Their count is known before any is built: an output of more
    than _ALL_COMPLETE_MAX_FACTORS factors in all is an
    ExponentBoundExceeded.

    Over GF(p) they are the distinct orderings of the associate's
    irreducible factors (see :func:`_associate_factors`), enumerated in
    lexicographic order of the key-sorted factors, which is their key
    order, and their count is a multinomial coefficient, at most ``limit``.
    Over GF(p**e), e > 1, the whole quotient graph is walked (see
    :class:`_QuotientGraph`), and each quotient's count of complete
    decompositions is the sum over its edges; all of them have one length
    (Jordan-Hoelder).  The decompositions are then built from the same
    edges, every one before the sort, so ``limit`` does not lower the
    count checked.
    """
    _require_monic_additive(f)
    if limit is not None and limit < 0:
        raise BadLength("limit must be >= 0")
    if f.field.degree_over_prime == 1:
        parts = _associate_factors(f)
        mults = [mult for _irr, mult in parts]
        length = sum(mults)
        count = math.factorial(length) // math.prod(map(math.factorial, mults))
        if limit is not None:
            count = min(count, limit)
        _check_output_size(count, length)
        return [
            Decomposition(f, tuple(parts[i][0] for i in order), complete=True)
            for order in itertools.islice(_orderings(mults), count)
        ]
    edges = _QuotientGraph()

    @functools.cache
    def size(g):
        """The count and the length of the complete decompositions of g."""
        below = [size(q) for _h, q in edges[g]]
        return (sum(c for c, _ in below), below[0][1] + 1) if below else (1, 1)

    _check_output_size(*size(f))

    @functools.cache
    def build(g):
        return [tail + (h,) for h, q in edges[g] for tail in build(q)] or [(g,)]

    decs = sorted((Decomposition(f, factors, complete=True) for factors in build(f)),
                  key=lambda d: d.key())
    return decs if limit is None else decs[:limit]


def _orderings(mults):
    """The distinct sequences holding each index i mults[i] times, in
    lexicographic order (by next permutation); one list, updated in place
    after each yield."""
    seq = [i for i, m in enumerate(mults) for _ in range(m)]
    while True:
        yield seq
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


def is_refinement(kappa, rho):
    """True when kappa splits into contiguous blocks with products rho;
    both tuples are outermost-first."""
    kappa = OrderedFactorisation(kappa)
    rho = OrderedFactorisation(rho)
    if math.prod(kappa) != math.prod(rho):
        raise ProductMismatch("factorisations have different products")
    return _blocks(kappa, rho) is not None


def _blocks(kappa, rho):
    """The ends of the contiguous blocks of kappa whose products are the
    entries of rho, or None when kappa does not refine rho; both multiply
    to the same product.

    Greedy matching is exact because all entries are >= 2, so partial
    products grow strictly; the equal products keep it inside kappa and
    end the last block at its end.
    """
    ends, i = [], 0
    for target in rho:
        acc = 1
        while acc < target:
            acc *= kappa[i]
            i += 1
        if acc != target:
            return None
        ends.append(i)
    return ends


def decompose_ordered(f, shape):
    """All decompositions of f matching the ordered factorisation, sorted
    by key.  They are counted before any is built: more than
    _ALL_COMPLETE_MAX_FACTORS factors in all is an ExponentBoundExceeded.
    All complete decompositions of f have one length (Jordan-Hoelder), so
    these are complete exactly when the shape has that length.
    """
    _require_monic_additive(f)
    shape = _checked_shape(shape, f.degree)
    # the exponents of the entries, innermost first: the entries multiply
    # to deg f = p**expn, so each is a power of p
    sizes = [round(math.log(entry, f.field.p)) for entry in reversed(shape)]
    by = _decompose_by_blocks if f.field.degree_over_prime == 1 else _decompose_by_walk
    found, complete = by(f, sizes)
    decs = [Decomposition(f, factors, complete=complete) for factors in found]
    return sorted(decs, key=lambda d: d.key())


def _decompose_by_blocks(f, sizes):
    """decompose_ordered over GF(p), given the entries' exponents
    ``sizes``, innermost first: the factor tuples, and whether they are
    complete.

    Composition is the product of associates, so a decomposition is a
    sequence of blocks of the associate's irreducible factors (see
    :func:`_associate_factors`), each factor the product of its block, of
    degree its entry's exponent.  The sequences are counted by
    :func:`polydec.upoly._block_splits` in at most _ORDERED_MAX_STEPS steps.
    """
    parts = _associate_factors(f)
    mults = [mult for _irr, mult in parts]
    count, splits = upoly._block_splits([irr.expn for irr, _ in parts], mults, sizes,
                                        _ORDERED_MAX_STEPS)
    _check_output_size(count, len(sizes), "decompositions")

    @functools.cache
    def product(block):
        return _compose_chain([irr for (irr, _), e in zip(parts, block) for _ in range(e)])

    return [tuple(map(product, reversed(blocks))) for blocks in splits], len(sizes) == sum(mults)


def _decompose_by_walk(f, sizes):
    """decompose_ordered over GF(p**e), e > 1, as _decompose_by_blocks.

    An innermost factor of exponent s is the composition along a path of
    the quotient graph (see :class:`_QuotientGraph`) whose exponents sum to
    s, and the outer factors decompose the quotient it reaches, so the
    walk goes no deeper than the entries need.
    """
    edges = _QuotientGraph()

    @functools.cache
    def reach(g, s):
        """The quotients of g by its right factors of exponent s, each with
        the factors of one path there, outermost first."""
        if not s:
            return {g: ()}
        out = {}
        for h, q in edges[g]:
            for q2, path in (reach(q, s - h.expn) if h.expn <= s else {}).items():
                out.setdefault(q2, path + (h,))
        return out

    @functools.cache
    def count(g, i):
        """The number of decompositions of g by the entries from the i-th on."""
        return 1 if i == len(sizes) - 1 else sum(count(q, i + 1) for q in reach(g, sizes[i]))

    def length(g):
        """The length of the complete decompositions of g."""
        return 1 + length(edges[g][0][1]) if edges[g] else 1

    _check_output_size(count(f, 0), len(sizes), "decompositions")
    complete = len(sizes) == length(f)

    @functools.cache
    def build(g, i):
        """The factor tuples of those decompositions."""
        if i == len(sizes) - 1:
            return [(g,)]
        out = []
        for q, path in reach(g, sizes[i]).items():
            h = _compose_chain(path)
            out += [outer + (h,) for outer in build(q, i + 1)]
        return out

    return build(f, 0), complete


def indec_basis(f):
    """An indecomposable basis when f is completely reducible, else None.

    Folds the indecomposable right factors into a running join; f is
    completely reducible exactly when the final join reaches f.
    """
    _require_monic_additive(f)
    xp = AdditivePoly.x(f.field)
    basis = []
    g = xp
    for v in indec_right_factors(f):
        if meet(v, g) == xp:
            g = v if g == xp else join(g, v)
            basis.append(v)
        if g == f:
            return basis
    return None


def unordered_refinements(mu, m):
    """All length-m unordered factorisations refinable from mu, with one
    grouping witness each.

    Dynamic programming over the entries of mu: each new entry either
    opens a fresh group or multiplies an existing one.  Returns a dict
    mapping UnorderedFactorisation -> witness tuple, where witness[i] is
    the group index assigned to mu[i].
    """
    mu = OrderedFactorisation(mu)
    d = len(mu)
    if not 1 <= m <= d:
        raise BadLength("group count must be between 1 and len(mu)")
    # states: canonical key -> (groups tuple, assignment tuple)
    states = {(): ((), ())}
    for i, entry in enumerate(mu):
        nxt = {}

        def put(groups, assign):
            key_groups = tuple(sorted(groups, reverse=True))
            key = (len(groups), key_groups)
            if key not in nxt:
                nxt[key] = (groups, assign)

        for groups, assign in states.values():
            if len(groups) < m:
                put(groups + (entry,), assign + (len(groups),))
            remaining = d - i - 1
            for gi in range(len(groups)):
                # must still be able to open the groups not yet created
                if len(groups) + remaining >= m:
                    grown = groups[:gi] + (groups[gi] * entry,) + groups[gi + 1 :]
                    put(grown, assign + (gi,))
        states = nxt
    out = {}
    for groups, assign in states.values():
        if len(groups) == m:
            out.setdefault(UnorderedFactorisation(groups), assign)
    return out


def basis_to_dec(parts):
    """Decomposition from pairwise composition-coprime parts.

    ``parts[0]`` becomes the innermost factor; factor i is the quotient of
    consecutive joins, so deg factor_i = deg parts_i.
    """
    parts = list(parts)
    if not parts:
        raise ZeroInput("need at least one part")
    K = parts[0].field
    xp = AdditivePoly.x(K)
    if any(meet(a, b) != xp for a, b in itertools.combinations(parts, 2)):
        raise NotCoprime("parts must be pairwise composition-coprime")
    factors_inner_first = []
    g_prev = xp
    for h in parts:
        g_new = h if g_prev == xp else join(g_prev, h)
        factors_inner_first.append(right_quotient(g_new, g_prev))
        g_prev = g_new
    return Decomposition(g_prev, tuple(reversed(factors_inner_first)))


def cr_decompose(f, shape):
    """Decomposition of a completely reducible f matching the shape, or None.

    Builds an indecomposable basis, groups it by a matching unordered
    refinement, and recovers the factors through successive joins.
    """
    _require_monic_additive(f)
    shape = _checked_shape(shape, f.degree)
    basis = indec_basis(f)
    if basis is None:
        raise NotCompletelyReducible("input is not a join of indecomposables")
    m = len(shape)
    if m > len(basis):
        return None
    mu = OrderedFactorisation(int(u.degree) for u in basis)
    table = unordered_refinements(mu, m)
    target = UnorderedFactorisation(shape)
    if target not in table:
        return None
    assign = table[target]
    groups = {}
    for i, gi in enumerate(assign):
        groups.setdefault(gi, []).append(basis[i])
    joined = [functools.reduce(join, groups[gi]) for gi in sorted(groups)]
    # place one group of the right degree into each shape slot, innermost first
    remaining = sorted(joined, key=lambda g: g.key())
    ordered_parts = []
    for want in reversed(shape):
        pick = next(g for g in remaining if g.degree == want)
        remaining.remove(pick)
        ordered_parts.append(pick)
    dec = basis_to_dec(ordered_parts)
    assert dec.target == f
    return dec


def _assert_similarity_free(factors):
    for fi, fj in itertools.combinations(factors, 2):
        if fi.expn == fj.expn and is_similar(fi, fj)[0]:
            raise NotSimilarityFree(
                f"factors {fi} and {fj} of the complete decomposition are similar"
            )


def factors_to_right(dec, indices):
    """Move the factors at the given original positions to the right.

    ``indices`` refers to positions in ``dec`` counted from the innermost
    factor (position 1).  Returns a decomposition of the same target whose
    rightmost len(indices) factors are similar in pairs to the selected
    ones.  The target must be similarity free.

    The selected factors move in increasing original position, each past
    the block g between it and its slot by a transmutation of f o g, which
    always exists.  Over the composition ring R, R/Rf is simple and lies
    over one irreducible central element; a factor not similar to f lies
    over another, so the bound of g is coprime to that of f.  The extension
    0 -> R/Rf -> R/R(f o g) -> R/Rg -> 0 then splits, and the summand
    isomorphic to R/Rg is R fbar / R(f o g) for a right factor fbar similar
    to f, with f o g = transform(fbar, g) o fbar.
    """
    if not dec.complete:
        raise ValueError("decomposition must be complete")
    _assert_similarity_free(dec.factors)
    m = len(dec.factors)
    if not all(1 <= i <= m for i in indices):
        raise BadLength("factor index out of range")
    pos = list(reversed(dec.factors))  # pos[k] = factor at position k+1
    origin = list(range(1, m + 1))  # origin[k] = original position of pos[k]
    for ell, i in enumerate(sorted(set(indices))):
        k = origin.index(i)  # current slot of original factor i (0-based)
        if k == ell:
            continue
        comp = _compose_chain(list(reversed(pos[ell:k])))
        _gbar, fbar = transmutable(pos[k], comp)[0]
        block = Decomposition(comp, tuple(reversed(pos[ell:k])), complete=True)
        moved = transform_composition(fbar, block)
        pos[ell + 1 : k + 1] = list(reversed(moved.factors))
        pos[ell] = fbar
        origin[ell + 1 : k + 1] = origin[ell:k]
        origin[ell] = i
    return Decomposition(dec.target, tuple(reversed(pos)), complete=True)


def simfree_bidecomp(f, shape):
    """Two-factor decomposition of a similarity-free f with the given
    (p**rho, p**sigma) shape, or None.

    Scans subsets of a complete decomposition whose exponents sum to
    sigma, pushes them to the right, and regroups.
    """
    _require_monic_additive(f)
    shape = _checked_shape(shape, f.degree, BadLength)
    dec = complete_decomposition(f)
    m = len(dec.factors)
    if m == 1:
        return None
    _assert_similarity_free(dec.factors)
    inner_first = list(reversed(dec.factors))
    for mask in range(1, 1 << m):
        chosen = [k + 1 for k in range(m) if mask >> k & 1]
        if math.prod(inner_first[k - 1].degree for k in chosen) != shape[1]:
            continue
        moved = factors_to_right(dec, set(chosen)).factors
        cut = m - len(chosen)
        return Decomposition(f, (_compose_chain(moved[:cut]), _compose_chain(moved[cut:])))
    return None


def _lift_additive(f, tower):
    K = f.field
    return AdditivePoly(tower, [lift(Felt(K, c), tower) for c in f.coeffs])


# abs_decompose factors dense polynomials of degree (p**expn - 1)/(p - 1)
_ABS_EXPN_BOUND = 3


def abs_decompose(f):
    """Complete decomposition into p-linear factors over a field tower.

    Each stage adjoins a root a of the substituted polynomial
    (f/x)(x**(1/(p-1))) when none is rational yet, peels x**p - a*x, and
    recurses on the quotient.  The substituted polynomial is read off the
    coefficient vector: coefficient i sits at exponent (p**i - 1)/(p - 1).
    Returns (tower, decomposition over it).
    """
    _require_monic_additive(f)
    if not f.is_simple():
        raise NotSimple("absolute decomposition requires a simple input")
    if f.expn > _ABS_EXPN_BOUND:
        raise ExponentBoundExceeded(f"absolute decomposition bounded to expn <= {_ABS_EXPN_BOUND}")
    K = f.field
    p = K.p
    peeled = []  # (factor, owning field), innermost first
    cur = f
    curK = K
    while cur.expn > 1:
        hp = [curK.zero()] * ((p**cur.expn - 1) // (p - 1) + 1)
        for i, c in enumerate(cur.coeffs):
            hp[(p**i - 1) // (p - 1)] = c
        parts, _ = upoly.factor(Poly._raw(curK, hp))
        u1 = parts[0][0]
        if u1.degree == 1:
            a = -u1.coeff(0)
        else:
            newK = build_extension(curK, u1)
            cur = _lift_additive(cur, newK)
            peeled = [(_lift_additive(g, newK), newK) for g, _ in peeled]
            curK = newK
            a = newK.gen()
        h = AdditivePoly.p_linear(a)
        q = right_quotient(cur, h)
        assert q is not None, "chosen root must give a right factor"
        peeled.append((h, curK))
        cur = q
    peeled.append((cur, curK))
    factors = tuple(g for g, _ in reversed(peeled))
    target = _lift_additive(f, curK) if curK != K else f
    return curK, Decomposition(target, factors, complete=True)
