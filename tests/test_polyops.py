"""The packed prime-field kernels, the q-power matrix and the raw-list
factoring stages of _polyops against the code they replaced, on sizes on
both sides of every cutoff and slot width."""

import functools
import itertools
import math
import random

import pytest

from polydec import Poly, build_prime_field, compose, factor, find_irreducible, is_irreducible
from polydec import _polyops as po

from conftest import (
    TOWER,
    distinct_degree_by_powmod,
    divmod_by_element_ops,
    equal_degree_split_by_poly,
    factor_by_poly_stages,
    field_of,
    is_irreducible_by_scan,
    is_irreducible_rabin,
    mul_prime_loop,
    per_term_kernels,
    rand_poly,
    seeded_rng,
    squarefree_parts_by_poly,
)

# 3000000000000000000000007 needs product slots wider than 8 bytes
PRIMES = [2, 3, 13, 65521, 2**61 - 1, 10**18 + 3, 3000000000000000000000007]
CUT = po._PACK_MIN
# 70 and 300 move GF(2) and GF(3) to wider slots
LENGTHS = [0, 1, 2, CUT - 1, CUT, CUT + 1, 20, 70, 300]


def coeffs(K, rng, n, sparse=False, lead=None):
    """n random coefficients, most of them zero when sparse; the last one
    is ``lead`` when given."""
    c = [rng.randrange(K.p) if not sparse or rng.random() < 0.1 else 0 for _ in range(n)]
    if n and lead is not None:
        c[-1] = lead
    return c


def nonzero(K, rng):
    return rng.randrange(1, K.p)


@pytest.mark.parametrize("p", PRIMES)
def test_mul_matches_per_term_loop(p):
    K = build_prime_field(p)
    rng = seeded_rng(("packed mul", p))
    for la in LENGTHS:
        for lb in LENGTHS:
            for sparse in (False, True):
                a = coeffs(K, rng, la, sparse, nonzero(K, rng))
                b = coeffs(K, rng, lb, sparse, nonzero(K, rng))
                assert po.mul(K, a, b) == mul_prime_loop(K, a, b), (la, lb, sparse)
    # untrimmed tuples, as extension fields pass their coordinates
    a = tuple(coeffs(K, rng, 12)) + (0, 0)
    assert po.mul(K, a, a) == mul_prime_loop(K, a, a)
    assert po.mul(K, (0,) * 20, a) == []
    # a short factor with zero and trailing zero coefficients
    a, b = [0, nonzero(K, rng), 0, 0], coeffs(K, rng, 30) + [0]
    assert po.mul(K, a, b) == mul_prime_loop(K, a, b)
    assert po.mul(K, b, a) == mul_prime_loop(K, b, a)


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_matches_element_loop(p):
    K = build_prime_field(p)
    rng = seeded_rng(("packed divmod", p))
    for lb in [1, 2, CUT - 1, CUT, CUT + 1, 40]:
        # quotients on both sides of 2 * CUT, and over one and several
        # windows of 4 * (lb - 1) quotient terms
        for nq in [-3, 0, 1, 2, CUT - 1, CUT, CUT + 1, 2 * CUT - 1, 2 * CUT, 2 * CUT + 1,
                   4 * CUT + 1, 100, 200]:
            for lead in (1, nonzero(K, rng)):
                for sparse in (False, True):
                    b = coeffs(K, rng, lb, sparse, lead)
                    a = coeffs(K, rng, max(lb - 1 + nq, 0), sparse)
                    got = po.divmod_(K, a, b)
                    assert got == divmod_by_element_ops(K, a, b), (lb, nq, lead, sparse)
                    assert po.mod(K, a, b) == got[1]
    # a dividend with trailing zeros
    b = coeffs(K, rng, 10, lead=nonzero(K, rng))
    a = coeffs(K, rng, 30) + [0, 0, 0]
    assert po.divmod_(K, a, b) == divmod_by_element_ops(K, a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_extgcd_powmod_match_per_term_loops(p):
    K = build_prime_field(p)
    rng = seeded_rng(("packed euclid", p))
    cases = []
    for la, lb in [(1, 1), (3, 2), (CUT, CUT - 1), (30, 12), (60, 59), (90, 3)]:
        g = coeffs(K, rng, rng.randrange(1, 6), lead=1)
        a = po.mul(K, g, coeffs(K, rng, la, lead=nonzero(K, rng)))
        b = po.mul(K, g, coeffs(K, rng, lb, rng.random() < 0.5, nonzero(K, rng)))
        cases.append((a, b, rng.randrange(2, 10**6)))
    cases.append(([], coeffs(K, rng, 5, lead=1), 3))

    def run():
        out = []
        for a, b, n in cases:
            out.append(po.gcd(K, a, b))
            out.append(po.extgcd(K, a, b))
            if b:
                out.append(po.powmod(K, a, n, b))
        return out

    got = run()
    with per_term_kernels():
        assert run() == got
    # extgcd is (r, s, t): r a gcd, s * a = r mod b, t * a the lcm
    for a, b, _ in cases:
        r, s, t = po.extgcd(K, a, b)
        assert po.monic(K, r) == po.gcd(K, a, b)
        assert po.mod(K, po.sub(K, po.mul(K, s, a), r), b) == []
        lcm = po.mul(K, t, a)
        assert po.mod(K, lcm, b) == [] and po.deg(lcm) == po.deg(a) + po.deg(b) - po.deg(r)
        assert po.extgcd(K, a, b, frobenius=True) == (r, s, t)


def _irreducible_on_lists(K, c):
    """is_irreducible by the list stage of the distinct-degree scan."""
    n = po.deg(c)
    return n > 0 and next(po.distinct_degree(K, c))[1] == n


@pytest.mark.parametrize("p", [2, 3, 13, 65521])
def test_factor_and_irreducibles_unchanged_on_packed_kernels(p):
    """factor, is_irreducible and find_irreducible give the same answers on
    the per-term kernels.  Over GF(2) they run on bit strings, which those
    kernels do not reach, so there the answers are compared with the list
    stages (factor_by_poly_stages and the list scan) on the per-term
    kernels."""
    K = build_prime_field(p)
    rng = seeded_rng(("packed factor", p))
    polys = [rand_poly(K, rng, rng.randrange(1, 25)) for _ in range(8)]
    g = rand_poly(K, rng, 3, monic=True)
    polys += [g * g * rand_poly(K, rng, 10)]
    degrees = [(n, seed) for n in (1, 2, 9, 20) for seed in (0, 1)]

    def run():
        out = [factor(f) for f in polys]
        out += [is_irreducible(f) for f in polys]
        out += [find_irreducible(K, n, seed) for n, seed in degrees]
        return out

    def run_on_lists():
        out = [factor_by_poly_stages(f) for f in polys]
        out += [_irreducible_on_lists(K, list(f.coeffs)) for f in polys]
        out += [next(c for c in po._monic_candidates(K, n, seed) if _irreducible_on_lists(K, c))
                for n, seed in degrees]
        return out

    got = run()
    with per_term_kernels():
        assert (run_on_lists() if p == 2 else run()) == got
    assert all(is_irreducible(Poly(K, f)) for f in got[2 * len(polys):])


def test_power_starts_from_its_first_factor():
    # on the monoid (int, +) with one = 0, a**n is n * a
    products = []

    def add(a, b):
        products.append((a, b))
        return a + b

    assert po._power(add, 0, 5, 0) == 0 and not products
    for n in range(1, 300):
        products.clear()
        assert po._power(add, 0, 5, n) == 5 * n
        assert len(products) == n.bit_length() + n.bit_count() - 2
        assert all(a and b for a, b in products)


FROB = po._FROBENIUS_MIN_DEGREE
# degrees 1-64, each side of the degree cutoff and of q = n, where the
# matrix rows switch from shifts to products by x**q mod v
SCAN_DEGREES = {
    2: [1, 2, 3, FROB - 1, FROB, FROB + 1, 16, 33, 64],
    3: [1, 2, 3, FROB - 1, FROB, FROB + 1, 16, 33, 64],
    7: [1, 2, 6, FROB - 1, FROB, FROB + 1, 16, 33, 64],
    13: [1, 2, FROB - 1, FROB, FROB + 1, 12, 13, 14, 40],
    "GF(2^2)": [1, 3, 4, 5, FROB - 1, FROB, FROB + 1, 20],
    "GF(3^2)": [1, 2, FROB - 1, FROB, FROB + 1, 10, 16],
    TOWER: [1, 2, FROB - 1, FROB, FROB + 1, 16, 17],
    10**18 + 3: [1, 2, FROB - 1, FROB, FROB + 1, 12],
}


def _squarefree_inputs(K, n, rng):
    """A random squarefree monic of degree n, a product of distinct
    irreducibles of degrees 1, 2 and n - 3 (or of degree n), so that the
    scan divides v by some factors and goes on with the rest, and that
    product times a random nonzero constant, so that v is not monic."""
    while True:
        f = po.random_monic(K, n, rng)
        if po.deg(po.gcd(K, f, po.derivative(K, f))) == 0:
            break
    degrees = [1, 2, n - 3] if n > 5 else [n]
    g = [K.one()]
    for d in degrees:
        g = po.mul(K, g, find_irreducible(K, d, rng.randrange(100)))
    c = K.zero()
    while c == K.zero():
        c = K.rand_rep(rng)
    return [f, g, po.scale(K, g, c)]


@pytest.mark.parametrize("spec", list(SCAN_DEGREES), ids=str)
def test_distinct_degree_matches_the_powmod_scan(spec):
    K = field_of(spec)
    rng = seeded_rng(("distinct degree", spec))
    for n in SCAN_DEGREES[spec]:
        for f in _squarefree_inputs(K, n, rng):
            assert list(po.distinct_degree(K, f)) == list(distinct_degree_by_powmod(K, f)), n


@pytest.mark.parametrize("spec, n, powmods", [
    (3, 20, 1),    # the first step; q < n, so every matrix row is a shifted row
    (13, 10, 2),   # the first step and x**q mod v, from which q >= n builds the rows
    (7, 64, 4),    # over GF(p) until 4 * 48 * bits(7) >= 64 * (7 + 1)
    ("GF(3^2)", 64, 1),   # over an extension field, the first step only
    (3, FROB - 1, None),  # below the degree cutoff: a power per degree
    (2, 20, None),        # GF(2): a squaring per degree
])
def test_distinct_degree_steps_by_the_matrix(spec, n, powmods, monkeypatch):
    """A q >= 3 scan takes binary powers until the matrix pays, and none
    after it."""
    K = field_of(spec)
    f = find_irreducible(K, n, 0)  # the scan runs to d = n // 2
    calls = []
    real = po.powmod
    monkeypatch.setattr(po, "powmod", lambda *args: calls.append(args) or real(*args))
    assert list(po.distinct_degree(K, f)) == [(f, n)]
    assert len(calls) == (n // 2 if powmods is None else powmods)


def test_distinct_degree_that_stops_early_builds_no_matrix(monkeypatch):
    """The GF(5) scan of (x^125 + x^25 + x^5 + x)/x, the inner factor
    search of the README decomposition, stops at d = 4, before its binary
    powers cost half as much as a degree-124 matrix."""
    K = build_prime_field(5)
    f = [1, 0, 0, 0, 1] + [0] * 19 + [1] + [0] * 99 + [1]
    built = []
    real = po._frobenius_matrix
    monkeypatch.setattr(po, "_frobenius_matrix", lambda *args: built.append(args) or real(*args))
    got = list(po.distinct_degree(K, f))
    assert [(po.deg(g), d) for g, d in got] == [(4, 2), (120, 4)]
    assert got == list(distinct_degree_by_powmod(K, f)) and not built


# every degree to 16, then primes, prime powers and products of two and
# three primes up to 64; fewer where Rabin's oracle costs most
_ALL_DEGREES = [*range(1, 17), 18, 24, 25, 27, 30, 31, 36, 45, 48, 64]
RABIN_DEGREES = {3: _ALL_DEGREES, 5: _ALL_DEGREES, 7: _ALL_DEGREES, 13: _ALL_DEGREES,
                 "GF(2^2)": [*range(1, 17), 18, 24], "GF(3^2)": [*range(1, 17), 18, 24],
                 18446744073709551557: [*range(1, 13)]}


@pytest.mark.parametrize("spec", list(RABIN_DEGREES), ids=str)
def test_is_irreducible_matches_the_scan_and_rabin(spec):
    """is_irreducible against the distinct-degree scan and Rabin's
    criterion on random monics, non-monic scalings of irreducibles,
    find_irreducible's outputs and products of two irreducibles of degrees
    a, n - a for a = 2, n/3, n/2.  Over GF(p) some of those pass the scan
    up to the q-power matrix and fail only at x**(q**n) = x, others only at
    a Rabin gcd.  ``kept`` gets the matrix exactly when f is irreducible of
    degree 8 or more, and it is the scan's."""
    K = field_of(spec)
    x = [K.zero(), K.one()]
    rng = seeded_rng(("irreducible by rabin", str(spec)))
    irreducible = functools.cache(lambda n, seed: find_irreducible(K, n, seed))
    cases = []
    for n in RABIN_DEGREES[spec]:
        c = K.zero()
        while c == K.zero():
            c = K.rand_rep(rng)
        cases += [po.random_monic(K, n, rng), irreducible(n, 0), po.scale(K, irreducible(n, 0), c)]
        cases += [po.mul(K, irreducible(a, 0), irreducible(n - a, 1))
                  for a in sorted({2, n // 3, n // 2}) if 0 < a < n]
    exits = []
    for f in cases:
        n, kept, scan_kept = po.deg(f), [], []
        got = po.is_irreducible(K, f, kept)
        assert got == is_irreducible_by_scan(K, f, scan_kept) == is_irreducible_rabin(K, f), f
        assert kept == ([po._frobenius_matrix(K, f)] if got and n >= FROB else []), f
        if got:
            assert kept == scan_kept
        elif scan_kept:
            # past the scan: does f fail at x**(q**n) = x or at a gcd?
            h = x
            for _ in range(n):
                h = po._frobenius_apply(K, scan_kept[0], h)
            exits.append(h == x)
    if K.kind == "prime":
        assert exits.count(False) >= 3 and exits.count(True) >= 3


def _factor_inputs(K, rng):
    """Random monics and non-monics, a constant, a product of distinct
    linear factors, repeated factors, and for small p multiplicities p and
    p**2 and an f with f' = 0, so that the squarefree stage takes its
    p-th-root recursion."""
    p = K.p
    x = Poly.x(K)
    linear = [x - Poly.constant(K, c) for c in itertools.islice(K.elements(), 5)]
    cases = [rand_poly(K, rng, 0), math.prod(linear, start=Poly.one(K))]
    cases += [rand_poly(K, rng, rng.randrange(1, 13), monic=i % 2 == 0) for i in range(8)]
    for _ in range(3):
        g = rand_poly(K, rng, rng.randrange(1, 4), monic=True)
        cases.append(g * g * rand_poly(K, rng, rng.randrange(0, 6)))
    if p < 5:
        g, h = rand_poly(K, rng, 2, monic=True), rand_poly(K, rng, 1, monic=True)
        cases += [g**p * h * h * rand_poly(K, rng, 3), h ** (p * p) * g,
                  compose(rand_poly(K, rng, 3), Poly.monomial(K, p))]
    elif p == 5:
        g = rand_poly(K, rng, 1, monic=True)
        cases += [g**p * rand_poly(K, rng, 4), (g * g) ** (p * p)]
    return cases


@pytest.mark.parametrize("spec", [2, 3, 5, "GF(2^2)", "GF(3^2)", TOWER, 65521], ids=str)
def test_factor_matches_the_poly_stages(spec):
    """Each raw-list stage against its Poly oracle, the equal-degree stage
    on one generator seed for both, and factor end to end."""
    K = field_of(spec)
    rng = seeded_rng(("raw stages", spec))
    for f in _factor_inputs(K, rng):
        fm = f.monic()
        parts = po.squarefree(K, list(fm.coeffs))
        assert [(Poly._raw(K, g), m) for g, m in parts] == squarefree_parts_by_poly(fm), f
        for sq, _mult in parts:
            for prod, d in po.distinct_degree(K, sq):
                seed = rng.random()
                got = po.equal_degree(K, prod, d, random.Random(seed))
                want = equal_degree_split_by_poly(Poly._raw(K, prod), d, random.Random(seed))
                assert [Poly._raw(K, g) for g in got] == want, f
        assert factor(f) == factor_by_poly_stages(f), f


def test_squarefree_input_takes_one_gcd_and_no_division(monkeypatch):
    K = build_prime_field(5)
    g, h = find_irreducible(K, 2, 0), find_irreducible(K, 3, 0)
    calls, inside_gcd = [], []
    real_gcd, real_divmod = po.gcd, po.divmod_

    def gcd(*args):
        calls.append("gcd")
        inside_gcd.append(True)
        try:
            return real_gcd(*args)
        finally:
            inside_gcd.pop()

    def divmod_(*args):
        if not inside_gcd:
            calls.append("div")
        return real_divmod(*args)

    monkeypatch.setattr(po, "gcd", gcd)
    monkeypatch.setattr(po, "divmod_", divmod_)
    gh = po.mul(K, g, h)
    assert po.squarefree(K, gh) == [(gh, 1)]
    assert calls == ["gcd"]
    # g**2 * h: t = g, then one pass of the loop per multiplicity
    calls.clear()
    assert po.squarefree(K, po.mul(K, g, gh)) == [(g, 2), (h, 1)]
    assert calls == ["gcd", "div"] + ["gcd", "div", "div"] * 2


def _gf2_inputs(rng):
    """Coefficient lists over GF(2): dense monics of degree 1-512, sparse
    trinomials, squares and 2**k-th powers (the square-root branch of
    squarefree), repeated factors, products of many linear and quadratic
    factors, x**(2**k) + x (every irreducible of degree dividing k), and
    degrees 0 and 1."""
    K = field_of(2)

    def power(g, n):
        return po._power(lambda a, b: po.mul(K, a, b), [1], g, n)

    def prod(*gs):
        return functools.reduce(lambda a, b: po.mul(K, a, b), gs, [1])

    small = [po.random_monic(K, rng.randrange(1, 6), rng) for _ in range(6)]
    cases = [po.random_monic(K, n, rng) for n in (1, 2, 3, 7, 8, 9, 31, 64, 100, 255, 512)]
    cases += [[1] + [0] * (k - 1) + [1] + [0] * (n - k - 1) + [1]
              for n, k in ((7, 3), (63, 1), (127, 1), (200, 7))]
    cases += [power(small[0], 2), prod(power(small[1], 4), small[2]), power(small[3], 8),
              prod(power(small[4], 3), power(small[5], 2), small[0])]
    cases += [prod(power([0, 1], a), power([1, 1], b), power([1, 1, 1], c))
              for a, b, c in ((5, 0, 3), (0, 7, 6), (3, 4, 5))]
    cases += [[0, 1] + [0] * (2**k - 2) + [1] for k in range(1, 8)]
    return cases + [[1], [0, 1], [1, 1]]


def test_gf2_stages_match_the_list_stages():
    """The GF(2) stages on bit strings against the list stages over GF(2):
    squarefree parts, every (product, d) of the distinct-degree scan,
    equal-degree splits from one seed (the generator left in one state, so
    the draws are the same), factor end to end and irreducibility."""
    K = field_of(2)
    rng = seeded_rng("gf2 stages")
    for f in _gf2_inputs(rng):
        assert list(po._coeffs(po._bits(f))) == f
        parts = po.squarefree(K, f)
        assert [(list(po._coeffs(g)), m) for g, m in po._squarefree2(K, po._bits(f))] == parts, f
        for sq, _mult in parts:
            scan = list(po.distinct_degree(K, sq))
            assert [(list(po._coeffs(g)), d)
                    for g, d in po._distinct_degree2(K, po._bits(sq))] == scan
            for prod, d in scan:
                seed = rng.random()
                split, split2 = random.Random(seed), random.Random(seed)
                got = po._equal_degree2(K, po._bits(prod), d, split2)
                assert [list(po._coeffs(g)) for g in got] == po.equal_degree(K, prod, d, split)
                assert split2.getstate() == split.getstate()
        assert factor(Poly(K, f)) == factor_by_poly_stages(Poly(K, f))
        assert is_irreducible(Poly(K, f)) == _irreducible_on_lists(K, f)
