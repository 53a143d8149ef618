import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from polydec import NEG_INF, Poly, chebyshev, compose, factor, gcd, right_divide
from polydec import find_irreducible, is_irreducible
from polydec.errors import (
    BothZero,
    DegreeError,
    DegreeMismatch,
    DivideByZero,
    ExponentBoundExceeded,
    ZeroInput,
)
from polydec import upoly
from polydec.upoly import monic_divisors

from conftest import (
    TOWER,
    chebyshev_by_recurrence,
    compose_by_horner,
    field_of,
    is_irreducible_rabin,
    rand_poly,
    right_divide_by_h_powers,
    seeded_rng,
)


def test_divmod_examples(F2, F3):
    f = Poly.parse(F3, "x^3+2*x")
    q, r = divmod(f, Poly.x(F3))
    assert (str(q), str(r)) == ("x^2+2", "0")
    q, r = divmod(f, f)
    assert q == Poly.one(F3) and r.is_zero()
    q, r = divmod(Poly.parse(F2, "x^2+1"), Poly.parse(F2, "x+1"))
    assert str(q) == "x+1" and r.is_zero()


def test_divide_by_zero(F3):
    with pytest.raises(DivideByZero):
        divmod(Poly.x(F3), Poly.zero(F3))


def test_zero_degree_sentinel(F3):
    assert Poly.zero(F3).degree == NEG_INF
    assert NEG_INF < -(10**9)


def test_gcd_examples(F3, F5):
    f = Poly.parse(F3, "x^27+2*x^9+x^3+2*x")
    g = Poly.parse(F3, "x^9+x^3+x")
    assert str(gcd(f, g)) == "x^3+2*x"
    h = Poly.parse(F5, "2*x^2+1")
    assert gcd(h, Poly.zero(F5)) == h.monic()
    assert gcd(Poly.parse(F5, "x+1"), Poly.parse(F5, "x+2")) == Poly.one(F5)
    with pytest.raises(BothZero):
        gcd(Poly.zero(F5), Poly.zero(F5))


@pytest.mark.parametrize("spec", [2, 7, "GF(3^2)", TOWER])
def test_compose_matches_horner_on_every_coefficient(spec):
    K = field_of(spec)
    rng = seeded_rng(("compose", spec))
    zero = Poly.zero(K)
    for k in range(40):
        # sparse g puts runs of zero coefficients between its terms
        density = rng.choice([0.1, 0.5, 1.0])
        n = rng.randrange(0, 40)
        g = Poly(K, [K.rand_rep(rng) if rng.random() < density else K.zero() for _ in range(n)]
                 + [K.one()])
        h = zero if k % 10 == 0 else rand_poly(K, rng, rng.randrange(0, 4))
        assert compose(g, h) == compose_by_horner(g, h)
        assert compose(zero, h) == zero


def test_compose_examples(F5, F7):
    g = Poly.parse(F7, "x^2")
    h = Poly.parse(F7, "x^3+x")
    # oracle: (x^3+x)^2 expanded by plain multiplication
    assert compose(g, h) == h * h == Poly.parse(F7, "x^6+2*x^4+x^2")
    f = Poly.parse(F5, "x^7+3*x^2+1")
    assert compose(f, Poly.x(F5)) == f
    assert compose(Poly.parse(F5, "x^25+x"), Poly.parse(F5, "x^5+x")) == Poly.parse(
        F5, "x^125+x^25+x^5+x"
    )


def test_right_divide_examples(F5, F7):
    f = Poly.parse(F7, "x^6+2*x^4+x^2")
    assert right_divide(f, Poly.parse(F7, "x^3+x")) == Poly.parse(F7, "x^2")
    assert right_divide(f, Poly.x(F7)) == f
    # oracle: no g of degree 2 satisfies g(x^2) = x^4+x^3, by exhaustion
    target = Poly.parse(F5, "x^4+x^3")
    sq = Poly.parse(F5, "x^2")
    all_g = (
        Poly(F5, [c0, c1, c2])
        for c0, c1, c2 in itertools.product(range(5), repeat=3)
    )
    assert all(compose(g, sq) != target for g in all_g)
    assert right_divide(target, sq) is None


@pytest.mark.parametrize("spec", [2, 3, 5, "GF(2^2)", TOWER])
def test_right_divide_matches_h_power_recursion(spec):
    # compositions g(h), the same with one coefficient changed, and random
    # f of a degree deg h divides; h is monic only every third time
    K = field_of(spec)
    rng = seeded_rng(("rdiv-oracle", spec))
    hits = 0
    for i in range(60):
        r, s = rng.randrange(0, 6), rng.randrange(1, 5)
        h = rand_poly(K, rng, s, monic=i % 3 == 0)
        f = compose(rand_poly(K, rng, r), h)
        if i % 3 == 1:
            f = f + Poly.monomial(K, rng.randrange(max(1, r * s)), 1)
        elif i % 3 == 2:
            f = rand_poly(K, rng, r * s)
        got = right_divide(f, h)
        assert got == right_divide_by_h_powers(f, h)
        if got is not None:
            hits += 1
            assert compose(got, h) == f
    assert 20 <= hits < 60


def test_right_divide_degree_mismatch(F5):
    with pytest.raises(DegreeMismatch):
        right_divide(Poly.parse(F5, "x^3"), Poly.parse(F5, "x^2"))


def test_factor_examples(F2, F5):
    parts, lc = factor(Poly.parse(F2, "x^2+1"))
    assert lc == 1 and parts == [(Poly.parse(F2, "x+1"), 2)]
    parts, _ = factor(Poly.parse(F2, "x^4+x"))
    assert parts == [
        (Poly.x(F2), 1),
        (Poly.parse(F2, "x+1"), 1),
        (Poly.parse(F2, "x^2+x+1"), 1),
    ]
    # the quadratic above is the unique irreducible quadratic over GF(2)
    quads = [
        Poly(F2, [c0, c1, 1])
        for c0, c1 in itertools.product(range(2), repeat=2)
        if all(not Poly(F2, [c0, c1, 1]).evaluate(a).is_zero() for a in F2.felts())
    ]
    assert quads == [Poly.parse(F2, "x^2+x+1")]
    # certificate for the nonrational wild example: no roots in GF(5)
    phi = Poly.parse(F5, "x^6-x+1")
    assert all(not phi.evaluate(a).is_zero() for a in F5.felts())
    parts, _ = factor(phi)
    assert all(g.degree > 1 for g, _m in parts)


def test_factor_zero_rejected(F2):
    with pytest.raises(ZeroInput):
        factor(Poly.zero(F2))


def test_is_irreducible_matches_exhaustive_small_cases(F2, F3):
    for K, deg in [(F2, 2), (F2, 3), (F3, 2)]:
        for coeffs in itertools.product(range(K.p), repeat=deg):
            f = Poly(K, list(coeffs) + [1])
            # brute force: a monic quadratic/cubic is irreducible iff it has no root
            brute = all(not f.evaluate(a).is_zero() for a in K.felts())
            assert is_irreducible(f) == brute


@pytest.mark.parametrize("spec", [2, 3, 5, 7, 13, "GF(2^2)", "GF(3^2)", TOWER])
def test_is_irreducible_matches_rabin_oracle(spec):
    """Random monics, non-monics and constants, squares and cubes of
    irreducibles, products of random monics, and non-monics of degree 8-20,
    irreducible and with an irreducible quadratic factor, which the
    distinct-degree scan steps by its q-power matrix."""
    K = field_of(spec)
    rng = seeded_rng(("irreducible", str(spec)))
    cases = [Poly.zero(K), Poly.one(K), Poly.monomial(K, 0, K.rand_rep(rng))]
    cases += [rand_poly(K, rng, rng.randrange(1, 9), monic=True) for _ in range(40)]
    cases += [rand_poly(K, rng, rng.randrange(1, 7)) for _ in range(10)]
    for n in (1, 2, 3):
        irr = Poly(K, find_irreducible(K, n))
        cases += [irr * irr, irr**3, irr * Poly.parse(K, "x+1")]
    for _ in range(15):
        g = rand_poly(K, rng, rng.randrange(1, 5), monic=True)
        h = rand_poly(K, rng, rng.randrange(1, 5), monic=True)
        cases += [g * g, g * h, g * g * h]
    for n in (8, 13, 20):
        c = rand_poly(K, rng, 0)
        quad = Poly(K, find_irreducible(K, 2, n))
        cases += [c * Poly(K, find_irreducible(K, n, n)), rand_poly(K, rng, n),
                  c * quad * Poly(K, find_irreducible(K, n - 2, n))]
    verdicts = [is_irreducible_rabin(K, list(f.coeffs)) for f in cases]
    assert [is_irreducible(f) for f in cases] == verdicts
    assert 0 < sum(verdicts) < len(cases)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_divmod_roundtrip_randomized(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    rng = seeded_rng(("divmod", p))
    for _ in range(60):
        f = rand_poly(K, rng, rng.randrange(0, 65))
        g = rand_poly(K, rng, rng.randrange(0, 33))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


@pytest.mark.parametrize("p", [2, 3, 5])
def test_right_divide_compose_roundtrip_randomized(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    rng = seeded_rng(("rdc", p))
    for _ in range(40):
        g = rand_poly(K, rng, rng.randrange(1, 7), monic=True)
        h = rand_poly(K, rng, rng.randrange(1, 7), monic=True)
        assert right_divide(compose(g, h), h) == g


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_reassembly_randomized(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    rng = seeded_rng(("factor", p))
    for _ in range(25):
        f = rand_poly(K, rng, rng.randrange(1, 41))
        parts, lc = factor(f)
        prod = Poly.one(K)
        for g, m in parts:
            assert g.is_monic() and is_irreducible(g)
            prod = prod * g**m
        assert prod.scale(lc) == f


def test_factor_is_seed_reproducible(F5):
    f = Poly.parse(F5, "x^12+x^9+2*x^3+x+1")
    assert factor(f) == factor(f)


def test_factor_seeds_its_generator_at_the_first_split(F4, F5, monkeypatch):
    seeds = []
    real = upoly.po.random.Random
    monkeypatch.setattr(upoly.po.random, "Random", lambda seed: seeds.append(seed) or real(seed))
    # one irreducible factor of each degree: no split draws
    assert factor(Poly.parse(F5, "(x+1)*(x^2+2)*(x^3+x+1)"))[0] == [
        (Poly.parse(F5, "x+1"), 1), (Poly.parse(F5, "x^2+2"), 1), (Poly.parse(F5, "x^3+x+1"), 1)]
    assert seeds == []
    # four linear factors over GF(4), one generator seeded as before
    assert len(factor(Poly.parse(F4, "x^4+x"))[0]) == 4
    assert seeds == ["factor:4:4:0"]


def test_factor_over_extension(F4):
    f = Poly.parse(F4, "x^4+x")
    parts, lc = factor(f)
    assert lc == 1
    prod = Poly.one(F4)
    for g, m in parts:
        prod = prod * g**m
    assert prod == f
    assert all(g.degree == 1 for g, _ in parts)  # x^4+x splits over GF(4)


CHEB_INT = {2: [-1, 0, 2], 3: [0, -3, 0, 4], 4: [1, 0, -8, 0, 8]}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chebyshev_small_values_mod_p(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    for i, coeffs in CHEB_INT.items():
        assert chebyshev(i, K) == Poly(K, coeffs)
    assert chebyshev(p, K) == Poly.monomial(K, p)


def test_chebyshev_char2_degeneration(F2):
    for i in range(0, 9):
        expected = Poly.one(F2) if i % 2 == 0 else Poly.x(F2)
        assert chebyshev(i, F2) == expected


@pytest.mark.parametrize("spec", ["GF(2)", "GF(7)", "GF(3^2)", TOWER, "GF(1000000000000000003)"])
def test_chebyshev_by_doubling_matches_recurrence(spec):
    K = field_of(spec)
    want = chebyshev_by_recurrence(300, K)
    assert [str(chebyshev(i, K)) for i in range(301)] == [str(t) for t in want]


@pytest.mark.parametrize("spec", ["GF(7)", "GF(7^2)"])
def test_chebyshev_at_the_index_limit(spec):
    # the doubling takes under a second; the loose gate only catches a
    # return to the quadratic recurrence, which would take minutes
    K = field_of(spec)
    n = upoly._CHEBYSHEV_MAX_INDEX
    start = time.perf_counter()
    t = chebyshev(n, K)
    assert time.perf_counter() - start < 60
    assert t.degree == n and t.coeffs[-1] == K.from_int(pow(2, n - 1, 7))


def test_chebyshev_index_above_the_limit_is_a_degree_error(F7):
    with pytest.raises(DegreeError):
        chebyshev(upoly._CHEBYSHEV_MAX_INDEX + 1, F7)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chebyshev_composition_law(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    ts = [chebyshev(i, K) for i in range(37)]
    for i in range(7):
        for j in range(7):
            assert compose(ts[i], ts[j]) == ts[i * j]
            assert compose(ts[j], ts[i]) == ts[i * j]


def test_chebyshev_negative_index_rejected(F5):
    with pytest.raises(DegreeError):
        chebyshev(-1, F5)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monic_divisors_match_exhaustive_search(p):
    """Random f, and g**m * h with multiplicities m up to 3, where the
    enumeration prunes branches that cannot reach degree d."""
    from polydec import build_prime_field

    K = build_prime_field(p)
    rng = seeded_rng(("divisors", p))
    cases = [rand_poly(K, rng, rng.randrange(1, 6)) for _ in range(6)]
    for dg, m, dh in [(1, 2, 1), (1, 3, 1), (2, 2, 1), (1, 3, 2), (2, 1, 3)]:
        cases.append(rand_poly(K, rng, dg, monic=True) ** m * rand_poly(K, rng, dh))
    for f in cases:
        for d in range(f.degree + 1):
            want = [
                g
                for coeffs in itertools.product(range(p), repeat=d)
                for g in [Poly(K, list(coeffs) + [1])]
                if (f % g).is_zero()
            ]
            assert monic_divisors(f, d) == sorted(want, key=lambda g: g.key())


@pytest.mark.parametrize("d, want, products", [
    # x^2+x+1, x+1, x^2+1, x, x^2+x: none above degree 2
    (2, ["x^2+x", "x^2+1", "x^2+x+1"], 5),
    # no branch that skips both x and x+1, which cannot reach degree 5, and
    # no x*(x+1)^3, which only the quadratic follows
    (5, ["x^5+x^4+x^2+x", "x^5+x^3+x^2+1"], 8),
])
def test_divisor_enumeration_prunes_products(F2, monkeypatch, d, want, products):
    """The degree-d divisors of x * (x+1)**3 * (x^2+x+1), and the products
    the enumeration forms on the way, at a bound equal to their count; one
    below it raises before any product."""
    parts = factor(Poly.parse(F2, "x*(x+1)^3*(x^2+x+1)"))[0]
    degrees = []
    real = upoly.po.mul
    monkeypatch.setattr(upoly.po, "mul", lambda K, a, b: degrees.append(len(a) + len(b) - 2)
                        or real(K, a, b))
    monkeypatch.setattr(upoly, "_MAX_DIVISORS", len(want))
    assert [str(g) for g in upoly._divisors_of_factors(F2, parts, d)] == want
    assert max(degrees) <= d and len(degrees) == products
    degrees.clear()
    monkeypatch.setattr(upoly, "_MAX_DIVISORS", len(want) - 1)
    message = f"^{len(want)} monic divisors of degree {d} are above the limit of {len(want) - 1}$"
    with pytest.raises(ExponentBoundExceeded, match=message):
        upoly._divisors_of_factors(F2, parts, d)
    assert degrees == []


def test_parse_print_roundtrip(F3, F4):
    for text in ["x^27+2*x^9+x^3+2*x", "x^9+x^3+x", "2*x+1", "x", "0", "1"]:
        f = Poly.parse(F3, text)
        assert Poly.parse(F3, str(f)) == f
    for text in ["x^2+g1*x+1", "(g1+1)*x^4+g1*x", "g1"]:
        f = Poly.parse(F4, text)
        assert Poly.parse(F4, str(f)) == f
        assert str(Poly.parse(F4, str(f))) == str(f)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
@settings(max_examples=36, deadline=None)
def test_chebyshev_commutes_hypothesis(i, j):
    from polydec import build_prime_field

    K = build_prime_field(5)
    assert compose(chebyshev(i, K), chebyshev(j, K)) == chebyshev(i * j, K)


def test_right_divide_roundtrip_over_extensions(F4, F9):
    for K in (F4, F9):
        rng = seeded_rng(("rdext", K.order))
        for _ in range(10):
            g = rand_poly(K, rng, rng.randrange(1, 5), monic=True)
            h = rand_poly(K, rng, rng.randrange(1, 5), monic=True)
            assert right_divide(compose(g, h), h) == g


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=40),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=20),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_divmod_roundtrip_hypothesis(fc, gc):
    from polydec import build_prime_field

    K = build_prime_field(5)
    f = Poly(K, fc)
    g = Poly(K, gc)
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree
