"""The packed prime-field kernels of _polyops against the per-term loops they
replaced, on lengths on both sides of every size cutoff and slot width."""

import pytest

from polydec import Poly, build_prime_field, factor, find_irreducible, is_irreducible
from polydec import _polyops as po

from conftest import (
    divmod_by_element_ops,
    mul_prime_loop,
    per_term_kernels,
    rand_poly,
    seeded_rng,
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


@pytest.mark.parametrize("p", [2, 3, 13, 65521])
def test_factor_and_irreducibles_unchanged_on_packed_kernels(p):
    K = build_prime_field(p)
    rng = seeded_rng(("packed factor", p))
    polys = [rand_poly(K, rng, rng.randrange(1, 25)) for _ in range(8)]
    g = rand_poly(K, rng, 3, monic=True)
    polys += [g * g * rand_poly(K, rng, 10)]

    def run():
        out = [factor(f) for f in polys]
        out += [is_irreducible(f) for f in polys]
        out += [find_irreducible(K, n, seed) for n in (1, 2, 9, 20) for seed in (0, 1)]
        return out

    got = run()
    with per_term_kernels():
        assert run() == got
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
