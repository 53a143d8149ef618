import itertools
import random

import pytest

from polydec import (
    Poly,
    build_extension,
    build_prime_field,
    find_irreducible,
    frobenius,
    parse_field_spec,
    pth_root,
)
from polydec import _polyops as po
from polydec.errors import (
    DegreeError,
    DivideByZero,
    FieldMismatch,
    NotPrime,
    ParseError,
    Reducible,
)
from polydec.field import _TABLE_MAX_ORDER, ExtensionField, _is_prime

from conftest import TOWER, field_of, is_irreducible_rabin, mul_schoolbook, seeded_rng


def test_prime_field_inverse(F5):
    a = F5.felt(3)
    assert a * a.inv() == 1
    assert 1 / a == a.inv() and 2 - a == F5.felt(4)


def test_char_two_addition(F2):
    assert F2.felt(1) + F2.felt(1) == 0


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrime):
        build_prime_field(6)


def test_primality_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if trial_division(n)
    ]


def test_primality_of_large_characteristics():
    assert _is_prime(1000000000000000003)
    assert not _is_prime(1000000000000000001)
    # strong pseudoprime to bases 2..37: the smallest input the test refuses
    with pytest.raises(NotPrime):
        build_prime_field(3317044064679887385961981)
    with pytest.raises(NotPrime):
        build_prime_field(2**89 - 1)


def test_gf4_generator_is_cube_root_of_unity(F4):
    w = F4.gen()
    assert w**2 == w + 1
    assert w**3 == 1


def test_extension_of_gf5_by_quadratic(F5):
    # x^2+2 has no root in GF(5): exhaustive check, then the extension works
    m = Poly.parse(F5, "x^2+2")
    assert all(not m.evaluate(a).is_zero() for a in F5.felts())
    K = build_extension(F5, m)
    z = K.gen()
    assert z * z == K.felt(3)  # z^2 = -2 = 3
    assert K.order == 25


def test_reducible_modulus_rejected(F2):
    with pytest.raises(Reducible):
        build_extension(F2, Poly.parse(F2, "x^2+1"))  # (x+1)^2 in char 2


def test_frobenius_examples(F4, F5):
    w = F4.gen()
    assert frobenius(w, 1) == w + 1  # w^2 reduced by the modulus
    assert frobenius(w, 0) == w
    a = F5.felt(2)
    assert frobenius(a, 1) == a  # Fermat


def test_pth_root_examples(F4, F5):
    assert pth_root(F4.felt(1)) == 1
    a = F5.felt(4)
    assert pth_root(a) ** 5 == a
    w = F4.gen()
    # exhaustive: the unique square root of w+1 in GF(4) is w
    roots = [b for b in F4.felts() if b * b == w + 1]
    assert roots == [w]
    assert pth_root(w + 1) == w


@pytest.mark.parametrize(
    "spec",
    ["GF(2)", "GF(3)", "GF(5)", "GF(2)[g1]/(g1^2+g1+1)", "GF(2^3)", "GF(3^2)",
     "GF(5^2)", "GF(3^3)", "GF(7^2)", "GF(2)[g1]/(g1^2+g1+1)[g2]/(g2^2+g2+g1)",
     "GF(2^6)"],
)
def test_field_axioms_exhaustive(spec):
    K = parse_field_spec(spec)
    assert K.order <= 64
    elems = list(K.elements())
    one, zero = K.one(), K.zero()
    for a in elems:
        assert K.add(a, zero) == a
        assert K.mul(a, one) == a
        assert K.add(a, K.neg(a)) == zero
        if a != zero:
            assert K.mul(a, K.inv(a)) == one
    # add and mul tables built once from K.add / K.mul, as element indices
    # (an index lookup also checks that each result is a canonical element)
    index = {a: i for i, a in enumerate(elems)}
    add = [[index[K.add(a, b)] for b in elems] for a in elems]
    mul = [[index[K.mul(a, b)] for b in elems] for a in elems]
    for a, b, c in itertools.product(range(len(elems)), repeat=3):
        assert mul[a][mul[b][c]] == mul[mul[a][b]][c]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("spec", ["GF(2)", "GF(5)", "GF(2^3)", "GF(3^2)", "GF(2^6)"])
def test_frobenius_and_pth_root_roundtrip(spec):
    K = parse_field_spec(spec)
    e = K.degree_over_prime
    for a in K.elements():
        assert K.frobenius_rep(a, e) == a
        assert K.pth_root_rep(K.frobenius_rep(a, 1)) == a
        assert K.frobenius_rep(K.pth_root_rep(a), 1) == a


def test_frobenius_is_additive(F8):
    elems = list(F8.felts())
    for a in elems:
        for b in elems:
            assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)


def test_field_equality_is_structural(F2):
    m = Poly.parse(F2, "x^2+x+1")
    k1 = build_extension(F2, m)
    k2 = build_extension(F2, m)
    assert k1 == k2 and hash(k1) == hash(k2)
    other = build_extension(F2, Poly.parse(F2, "x^3+x+1"))
    assert k1 != other


def test_field_spec_roundtrip():
    for spec in ["GF(7)", "GF(2)[g1]/(g1^3+g1+1)", "GF(2^4)",
                 "GF(2)[g1]/(g1^2+g1+1)[g2]/(g2^2+g2+g1)"]:
        K = parse_field_spec(spec)
        assert parse_field_spec(K.describe()) == K


def test_auto_modulus_is_seed_deterministic():
    assert parse_field_spec("GF(3^2)", seed=0) == parse_field_spec("GF(3^2)", seed=0)
    k1 = parse_field_spec("GF(5^3)", seed=1)
    assert k1 == parse_field_spec("GF(5^3)", seed=1)


def test_cross_field_arithmetic_rejected(F2, F3):
    with pytest.raises(FieldMismatch):
        F2.felt(1) + F3.felt(1)


def test_element_printing_roundtrips(F8):
    for a in F8.felts():
        parsed = Poly.parse(F8, str(a))
        assert parsed.degree <= 0
        value = parsed.coeff(0)
        assert value == a


def test_random_elements_are_seed_stable(F9):
    r1 = [F9.rand_rep(seeded_rng("felt")) for _ in range(1)]
    r2 = [F9.rand_rep(seeded_rng("felt")) for _ in range(1)]
    assert r1 == r2


def test_non_monic_modulus_rejected():
    from polydec.errors import NotMonic

    f3 = build_prime_field(3)
    with pytest.raises(NotMonic):
        build_extension(f3, Poly.parse(f3, "2*x^2+1"))


def test_order_is_p_to_total_tower_degree():
    K = parse_field_spec("GF(2)[g1]/(g1^2+g1+1)[g2]/(g2^2+g2+g1)")
    assert K.p == 2 and K.degree_over_prime == 4 and K.order == 16
    K2 = parse_field_spec("GF(2^6)")
    assert K2.order == 64 and K2.degree_over_prime == 6


def test_prime_power_exponent_zero_rejected(F2):
    with pytest.raises(ParseError):
        parse_field_spec("GF(2^0)")
    with pytest.raises(DegreeError):
        find_irreducible(F2, 0)


def _check_tables_against_schoolbook(K, pairs):
    """Table lookups give the schoolbook product, the Euclidean inverse and
    coordinatewise sums, differences and negations."""
    base, zero = K.base, K.zero()
    for a, b in pairs:
        assert K.mul(a, b) == mul_schoolbook(K, a, b)
        assert K.add(a, b) == tuple(base.add(x, y) for x, y in zip(a, b))
        assert K.sub(a, b) == tuple(base.sub(x, y) for x, y in zip(a, b))
        assert K.neg(a) == tuple(base.neg(x) for x in a)
        if a != zero:
            assert K.inv(a) == K._inv_euclid(a)
    with pytest.raises(DivideByZero, match="^inverse of zero$"):
        K.inv(zero)


@pytest.mark.parametrize("spec", ["GF(2^2)", "GF(2^3)", "GF(3^2)", "GF(2^4)", "GF(5^2)", TOWER])
def test_tables_match_schoolbook_on_every_pair(spec):
    K = parse_field_spec(spec)
    elems = list(K.elements())
    _check_tables_against_schoolbook(K, itertools.product(elems, repeat=2))
    # g is primitive: its powers are every nonzero element once; zero logs to 2n
    assert sorted(K._log.values()) == [*range(K.order - 1), 2 * K.order - 2]


@pytest.mark.parametrize(
    "spec, tabulated",
    [("GF(2^10)", True), ("GF(31^2)", True), ("GF(11^3)", False), ("GF(37^2)", False)],
)
def test_tables_at_the_order_bound(spec, tabulated):
    K = parse_field_spec(spec)
    assert (K.order <= _TABLE_MAX_ORDER) == tabulated
    rng = seeded_rng(f"tables:{spec}")
    pairs = [(K.rand_rep(rng), K.rand_rep(rng)) for _ in range(500)]
    pairs += [(K.zero(), b) for _, b in pairs[:5]] + [(a, K.zero()) for a, _ in pairs[:5]]
    _check_tables_against_schoolbook(K, pairs)
    assert (K._log is not None) == tabulated
    for a, b in pairs:
        ab = K.mul(a, b)
        assert K.mul(ab, K.add(a, b)) == K.add(K.mul(ab, a), K.mul(ab, b))
        if b != K.zero():
            assert K.mul(K.mul(a, K.inv(b)), b) == a


@pytest.mark.parametrize(
    "base, n", [("GF(2^2)", 2), ("GF(2^2)", 4), ("GF(2^2)", 5), ("GF(3^2)", 3), ("GF(2^4)", 2),
                ("GF(5^2)", 2)])
def test_tables_on_base_codes_match_the_element_walk(base, n):
    """Over a tabulated base the powers of g are walked on base codes; the
    walk by _mul_mod from the first primitive element gives the same tables."""
    F = field_of(base)
    K = build_extension(F, find_irreducible(F, n))
    assert F._log is not None and K._log is not None
    N, zero, one = K.order - 1, K.zero(), K.one()
    tests = [N // r for r in po._prime_divisors(N)]
    g = next(c for c in K.elements()
             if c != zero and all(po._power(K._mul_mod, one, c, t) != one for t in tests))
    powers = [one]
    while len(powers) < N:
        powers.append(K._mul_mod(powers[-1], g))
    assert K._exp == powers * 2 + [zero] * (2 * N + 1)
    assert K._log == {zero: 2 * N, **{x: k for k, x in enumerate(powers)}}
    assert K._zech == [K._log[(F.add(x[0], F.one()),) + x[1:]] for x in powers] * 2
    assert K._norm == [j % N if j < 2 * N else 2 * N for j in range(4 * N + 1)]


@pytest.mark.parametrize("spec", [2, 3, 5, 13, "GF(2^2)", "GF(3^2)", TOWER])
def test_find_irreducible_matches_a_search_with_the_rabin_oracle(spec):
    K = field_of(spec)
    for n in range(1, 7):
        for seed in range(3):
            rng = random.Random(f"irreducible:{K.order}:{n}:{seed}")
            want = po.random_monic(K, n, rng)
            while not is_irreducible_rabin(K, want):
                want = po.random_monic(K, n, rng)
            assert find_irreducible(K, n, seed) == want


def test_untabulated_tower_matches_the_schoolbook_oracle(F4):
    """Order 4096 over GF(2^2): products run the generic po.mul path."""
    K = build_extension(F4, find_irreducible(F4, 6))
    assert K.order == 4096 > _TABLE_MAX_ORDER
    rng = seeded_rng("untabulated tower")
    for _ in range(200):
        a, b = K.rand_rep(rng), K.rand_rep(rng)
        assert K.mul(a, b) == mul_schoolbook(K, a, b)
        if a != K.zero():
            assert mul_schoolbook(K, a, K.inv(a)) == K.one()
    assert K._log is None
    with pytest.raises(DivideByZero, match="^inverse of zero$"):
        K.inv(K.zero())


@pytest.mark.parametrize("spec", ["GF(2^4)", "GF(3^2)", "GF(5^3)", TOWER])
def test_tabulated_frobenius_matches_repeated_pth_powers(spec):
    """A tabulated field raises to p**times by one multiple of a log."""
    K = field_of(spec)
    e = K.degree_over_prime
    for a in K.elements():
        want = a
        for times in range(2 * e + 1):
            assert K.frobenius_rep(a, times) == want, (a, times)
            want = K.pow_(want, K.p)


@pytest.mark.parametrize("base, n", [("GF(2^2)", 6), ("GF(2^2)", 8), (13, 18), (2, 11)])
def test_untabulated_frobenius_matches_repeated_pth_powers(base, n, monkeypatch):
    """Order 4096 (GF(2^2), degree 6) and up: frobenius_rep raises to the
    base order by the field's q-power matrix and to p by binary powers."""
    F = field_of(base)
    K = build_extension(F, find_irreducible(F, n))
    assert K.order > _TABLE_MAX_ORDER
    e, step = K.degree_over_prime, F.degree_over_prime
    rng = seeded_rng(("untabulated frobenius", base, n))
    elements = [K.zero(), K.one(), K.gen().rep] + [K.rand_rep(rng) for _ in range(3)]
    for a in elements:
        want = a
        for times in range(2 * e + 1):
            assert K.frobenius_rep(a, times) == want, times
            want = K.pow_(want, K.p)
    powers = []
    real_pow = ExtensionField.pow_
    monkeypatch.setattr(ExtensionField, "pow_", lambda *args: powers.append(args) or real_pow(*args))
    for times in range(2 * e + 1):
        K.frobenius_rep(elements[-1], times)
    assert len(powers) == sum(times % e % step for times in range(2 * e + 1))


@pytest.mark.parametrize("base, n", [("GF(2^2)", 8), (13, 18), ("GF(2^2)", 6), (2, 11)])
def test_extension_builds_its_q_power_matrix_once(base, n, monkeypatch):
    """The matrix that the irreducibility scan of the modulus builds (degree
    8 and up, base order 3 and up) is the one frobenius_rep uses."""
    F = field_of(base)
    modulus = find_irreducible(F, n)
    matrices = []
    real = po._frobenius_matrix
    monkeypatch.setattr(po, "_frobenius_matrix", lambda *args: matrices.append(args) or real(*args))
    K = build_extension(F, modulus)
    assert len(matrices) == (F.order >= 3 and n >= 8)
    a = K.rand_rep(seeded_rng(("one matrix", base, n)))
    want = a
    for _ in range(F.degree_over_prime):
        want = K.pow_(want, K.p)
    assert K.frobenius_rep(a, F.degree_over_prime) == want
    assert len(matrices) == 1
    assert K._frobenius == real(F, list(modulus))


@pytest.mark.parametrize("p, e", [(3, 12), (2, 16), (5, 9)])
def test_prime_power_spec_scans_each_candidate_once(p, e, monkeypatch):
    """The extension's own irreducibility test picks find_irreducible's
    modulus: one test per candidate tried, the modulus included."""
    scans = []
    real = po.is_irreducible
    monkeypatch.setattr(
        po, "is_irreducible", lambda K, f, *rest: scans.append(list(f)) or real(K, f, *rest)
    )
    K = parse_field_spec(f"GF({p}^{e})")
    modulus = list(K.modulus)
    tried = list(itertools.takewhile(
        lambda f: f != modulus, po._monic_candidates(build_prime_field(p), e, 0)
    ))
    assert scans == tried + [modulus]


def test_raw_reps_are_coerced_to_canonical_tuples(F4):
    from_lists = Poly(F4, [[0, 1], [1, 0], [0, 0]])
    assert from_lists.degree == 1
    assert from_lists == Poly(F4, [(0, 1), (1, 0)])
    assert F4.rep([3, 2]) == (1, 0)
    for bad in [(0, 1, 1), (0,), [], (0, (1, 0)), "ab", 1.5, None]:
        with pytest.raises(FieldMismatch):
            F4.rep(bad)
    T = parse_field_spec(TOWER)
    assert T.rep([[0, 1], 1]) == ((0, 1), (1, 0))
    with pytest.raises(FieldMismatch):
        T.rep(((0, 1), (1, 0, 0)))
