import itertools

import pytest

from polydec import (
    AdditivePoly,
    KernelBasis,
    Poly,
    add_compose,
    add_rdivrem,
    counts,
    from_kernel_basis,
    is_similar,
    join,
    meet,
    min_add_mult,
    transform,
    transform_composition,
    transmutable,
    upoly,
)
from polydec import gcd as poly_gcd
from polydec.addecomp import Decomposition
from polydec.additive import peel_frobenius, right_quotient
from polydec.errors import (
    BothZero,
    DegreeError,
    DependentBasis,
    DivideByZero,
    FieldMismatch,
    NotAdditive,
    NotIndecomposable,
    NotMonic,
    ZeroInput,
)
from polydec.field import ExtensionField, Field, build_extension, find_irreducible, frobenius

from conftest import (
    TOWER,
    add_compose_by_frobenius_loop,
    add_rdivrem_by_composition,
    add_rdivrem_by_frobenius_loop,
    count_maximal_flags,
    euclid_scheme,
    field_of,
    join_by_alternation,
    monic_additive_polys,
    seeded_rng,
    similarity_class_by_enumeration,
    subspaces_of_dim,
    subspaces_of_dim_exhaustive,
    transform_by_alternation,
)


def ring_field(spec):
    """field_of(spec), or for "untabulated" a field of order 4096 >
    _TABLE_MAX_ORDER, where every inverse runs the extended Euclidean loop."""
    if spec != "untabulated":
        return field_of(spec)
    F4 = field_of("GF(2^2)")
    return build_extension(F4, find_irreducible(F4, 6))


def rand_additive(field, rng, expn, monic=True):
    coeffs = [field.rand_rep(rng) for _ in range(expn)]
    lead = field.one()
    if not monic:
        while True:
            lead = field.rand_rep(rng)
            if lead != field.zero():
                break
    return AdditivePoly(field, coeffs + [lead])


def test_conversion_rejects_non_p_power_terms(F3):
    with pytest.raises(NotAdditive):
        AdditivePoly.from_poly(Poly.parse(F3, "x^2+x"))
    with pytest.raises(NotAdditive):
        AdditivePoly.from_poly(Poly.parse(F3, "x+1"))


def test_conversion_roundtrip(F3):
    f = AdditivePoly.parse(F3, "x^27+2*x^9+x^3+2*x")
    assert AdditivePoly.from_poly(f.to_poly()) == f
    assert f.expn == 3 and f.is_monic() and f.is_simple()


def test_add_compose_worked_example(F3):
    g = AdditivePoly.parse(F3, "x^9+x^3+x")
    outer = AdditivePoly.parse(F3, "x^3+x")
    rem = AdditivePoly.parse(F3, "2*x^3+x")
    assert add_compose(outer, g) + rem == AdditivePoly.parse(F3, "x^27+2*x^9+x^3+2*x")


def test_add_compose_trivial_cases(F2, F5):
    f = AdditivePoly.parse(F5, "x^25+3*x")
    assert add_compose(f, AdditivePoly.x(F5)) == f
    xp = AdditivePoly.parse(F2, "x^2")
    assert add_compose(xp, xp) == AdditivePoly.parse(F2, "x^4")


def test_add_rdivrem_worked_examples(F3):
    f = AdditivePoly.parse(F3, "x^27+2*x^9+x^3+2*x")
    g = AdditivePoly.parse(F3, "x^9+x^3+x")
    q, r = add_rdivrem(f, g)
    assert str(q) == "x^3+x" and str(r) == "2*x^3+x"
    q, r = add_rdivrem(f, f)
    assert q == AdditivePoly.x(F3) and r.is_zero()
    q, r = add_rdivrem(g, AdditivePoly.parse(F3, "2*x^3+x"))
    assert str(q) == "2*x^3+x" and r.is_zero()
    with pytest.raises(DivideByZero):
        add_rdivrem(f, AdditivePoly.zero(F3))


def test_meet_examples(F3):
    f = AdditivePoly.parse(F3, "x^27+2*x^9+x^3+2*x")
    g = AdditivePoly.parse(F3, "x^9+x^3+x")
    assert str(meet(f, g)) == "x^3+2*x"
    assert meet(f, AdditivePoly.x(F3)) == AdditivePoly.x(F3)
    two_f = f.scale(2)
    assert meet(two_f, two_f) == f
    with pytest.raises(BothZero):
        meet(AdditivePoly.zero(F3), AdditivePoly.zero(F3))


def test_join_examples(F3):
    f = AdditivePoly.parse(F3, "x^27+2*x^9+x^3+2*x")
    g = AdditivePoly.parse(F3, "x^9+x^3+x")
    j = join(f, g)
    assert str(j) == "x^81+x^27+2*x^9+x^3+x"
    assert add_compose(AdditivePoly.parse(F3, "x^9+x"), g) == j
    assert add_compose(AdditivePoly.parse(F3, "x^3+2*x"), f) == j
    assert join(f, f) == f
    assert join(f, AdditivePoly.x(F3)) == f
    with pytest.raises(ZeroInput):
        join(f, AdditivePoly.zero(F3))


@pytest.mark.parametrize("spec", [2, 3, 5, "GF(2^2)", "GF(3^2)", TOWER, "untabulated"])
def test_meet_is_multiplicative_gcd_randomized(spec):
    K = ring_field(spec)
    rng = seeded_rng(("meet", spec))
    for _ in range(30):
        f = rand_additive(K, rng, rng.randrange(1, 5), monic=False)
        g = rand_additive(K, rng, rng.randrange(1, 5), monic=False)
        assert meet(f, g).to_poly() == poly_gcd(f.to_poly(), g.to_poly())


@pytest.mark.parametrize("spec", [2, 3, "GF(2^2)", "GF(3^2)", TOWER, "untabulated"])
def test_add_rdivrem_matches_the_composition_oracle(spec, monkeypatch):
    K = ring_field(spec)
    inverses = []
    real_inv = ExtensionField.inv

    def counting_inv(self, a):
        if self is K:
            inverses.append(a)
        return real_inv(self, a)

    monkeypatch.setattr(ExtensionField, "inv", counting_inv)
    rng = seeded_rng(("rdivrem", spec))
    zero = AdditivePoly.zero(K)
    for k in range(40):
        f = zero if k == 0 else rand_additive(K, rng, rng.randrange(0, 7), monic=False)
        g = rand_additive(K, rng, rng.randrange(0, 5), monic=rng.random() < 0.3)
        inverses.clear()
        got = add_rdivrem(f, g)
        assert len(inverses) <= 1
        assert got == add_rdivrem_by_composition(f, g)
        if not f.is_zero():
            assert meet(f, g) == euclid_scheme(f, g)[-1].monic()


@pytest.mark.parametrize("spec", [2, 3, "GF(2^2)", "GF(3^2)", TOWER, "untabulated"])
def test_composition_ring_takes_frobenius_powers_from_one_table(spec, monkeypatch):
    """add_compose matches the dense composition and add_rdivrem its
    oracle.  No frobenius_rep call is made over GF(p), nor over a tabulated
    field, whose kernels raise codes to p**k by a product; otherwise one
    power of each nonzero coefficient of g per residue mod e of the
    exponents read."""
    K = ring_field(spec)
    calls = []
    real = Field.frobenius_rep
    monkeypatch.setattr(Field, "frobenius_rep", lambda *args: calls.append(args) or real(*args))
    e, z = K.degree_over_prime, K.zero()
    assert (K._log is not None) == (spec not in (2, 3, "untabulated"))

    def powers(exponents, row):
        if K._log is not None:
            return 0
        return len({t % e for t in exponents} - {0}) * sum(c != z for c in row)

    rng = seeded_rng(("frobenius table", spec))
    for _ in range(12):
        f = rand_additive(K, rng, rng.randrange(0, 4), monic=False)
        g = rand_additive(K, rng, rng.randrange(0, 4), monic=rng.random() < 0.5)
        calls.clear()
        got = add_compose(f, g)
        if not g.is_zero():
            assert len(calls) == powers([i for i, a in enumerate(f.coeffs) if a != z], g.coeffs)
        assert got.to_poly() == upoly.compose(f.to_poly(), g.to_poly())
        if g.is_zero():
            continue
        calls.clear()
        q, r = add_rdivrem(f, g)
        row = g.coeffs[:-1] + (() if g.is_monic() else g.coeffs[-1:])
        assert len(calls) == powers([t for t, c in enumerate(q.coeffs) if c != z], row)
        assert (q, r) == add_rdivrem_by_composition(f, g)


@pytest.mark.parametrize("spec", [2, 3, 5, 7, "GF(2^2)", "GF(3^2)", "GF(2^4)", "GF(5^3)", TOWER])
def test_ring_ops_match_the_frobenius_loop(spec):
    """add_compose and add_rdivrem, the _polyops product and division
    twisted by Frobenius, agree with the twisted loops: on zero operands,
    non-monic divisors and divisors c*x with c != 1, where over GF(p^e)
    quotient term t is a_t * (1/c)**(p**t), not a_t / c.  Over GF(p) the
    lengths reach the packed kernels."""
    K = field_of(spec)
    rng = seeded_rng(("ring ops", spec))
    zero = AdditivePoly.zero(K)
    f_len, g_len = (40, 20) if K.kind == "prime" else (12, 8)
    for k in range(60):
        f = zero if k % 15 == 0 else rand_additive(K, rng, rng.randrange(0, f_len), monic=False)
        if k % 15 == 1:
            g = zero
        elif k % 5 == 2:
            c = K.rand_rep(rng)
            while c == K.zero() or (c == K.one() and K.order > 2):
                c = K.rand_rep(rng)
            g = AdditivePoly._raw(K, [c])
        else:
            g = rand_additive(K, rng, rng.randrange(0, g_len), rng.random() < 0.5)
        assert add_compose(f, g) == add_compose_by_frobenius_loop(f, g)
        assert add_compose(g, f) == add_compose_by_frobenius_loop(g, f)
        if g.is_zero():
            for divide in (add_rdivrem, add_rdivrem_by_frobenius_loop):
                with pytest.raises(DivideByZero, match="^right division by the zero additive"):
                    divide(f, g)
        else:
            assert add_rdivrem(f, g) == add_rdivrem_by_frobenius_loop(f, g)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_join_laws_randomized(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    rng = seeded_rng(("join", p))
    for _ in range(25):
        f = rand_additive(K, rng, rng.randrange(1, 4))
        g = rand_additive(K, rng, rng.randrange(1, 4))
        j = join(f, g)
        assert j.expn == f.expn + g.expn - meet(f, g).expn
        assert add_rdivrem(j, f)[1].is_zero()
        assert add_rdivrem(j, g)[1].is_zero()
        # sampled common left multiples are right-divisible by the join
        u = rand_additive(K, rng, rng.randrange(0, 3))
        m = add_compose(u, f)
        if add_rdivrem(m, g)[1].is_zero() and not m.is_zero():
            assert add_rdivrem(m, j)[1].is_zero()


@pytest.mark.parametrize("spec", [2, 3, "GF(2^4)", TOWER, "untabulated"])
def test_join_and_transform_match_alternation_oracle(spec):
    K = ring_field(spec)
    rng = seeded_rng(("join-oracle", spec))
    for trial in range(30):
        monic = trial % 2 == 0
        f = rand_additive(K, rng, rng.randrange(1, 4), monic=monic)
        g = rand_additive(K, rng, rng.randrange(1, 4), monic=monic)
        if trial % 3 == 0:  # plant a common right factor
            c = rand_additive(K, rng, rng.randrange(1, 3), monic=False)
            f, g = add_compose(f, c), add_compose(g, c)
        assert join(f, g) == join_by_alternation(f, g), (str(f), str(g))
        fm, gm = f.monic(), g.monic()
        assert transform(gm, fm) == transform_by_alternation(gm, fm), (str(fm), str(gm))
        assert transform(fm, gm) == transform_by_alternation(fm, gm), (str(fm), str(gm))


def test_transform_trivial_cases(F3):
    f = AdditivePoly.parse(F3, "x^27+2*x^9+x^3+2*x")
    x = AdditivePoly.x(F3)
    assert transform(x, f) == f
    g = AdditivePoly.parse(F3, "x^9+x^3+x")
    assert transform(g, g) == x
    with pytest.raises(NotMonic):
        transform(g.scale(2), f)


def test_transform_worked_example(F3):
    g = AdditivePoly.parse(F3, "x^9+x^3+x")
    f = AdditivePoly.parse(F3, "x^27+2*x^9+x^3+2*x")
    t = transform(g, f)
    assert t.expn == f.expn - meet(g, f).expn == 2
    assert add_compose(t, g) == join(f, g)


@pytest.mark.parametrize("p", [2, 3])
def test_transform_distributes_over_join(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    rng = seeded_rng(("tjoin", p))
    for _ in range(15):
        f = rand_additive(K, rng, rng.randrange(1, 3))
        g = rand_additive(K, rng, rng.randrange(1, 3))
        h = rand_additive(K, rng, rng.randrange(1, 3))
        assert transform(h, join(f, g)) == join(transform(h, f), transform(h, g))


@pytest.mark.parametrize("p", [2, 3])
def test_transform_on_composition(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    rng = seeded_rng(("tcomp", p))
    xa = AdditivePoly.x(K)
    hits = 0
    while hits < 12:
        f = rand_additive(K, rng, rng.randrange(1, 3))
        g = rand_additive(K, rng, rng.randrange(1, 3))
        h = rand_additive(K, rng, rng.randrange(1, 3))
        if meet(h, add_compose(f, g)) != xa:
            continue
        hits += 1
        lhs = transform(h, add_compose(f, g))
        rhs = add_compose(transform(transform(g, h), f), transform(h, g))
        assert lhs == rhs


def test_similarity_trivial_and_frobenius_cases(F2, F5):
    f = AdditivePoly.parse(F5, "x^25+x^5+x")
    flag, witness = is_similar(f, f)
    assert flag and witness == AdditivePoly.x(F5)
    xp = AdditivePoly.parse(F2, "x^2")
    assert is_similar(xp, xp)[0]
    assert not is_similar(xp, AdditivePoly.parse(F2, "x^2+x"))[0]
    # over GF(5), distinct simple p-linear polynomials are not similar
    assert not is_similar(
        AdditivePoly.parse(F5, "x^5+3*x"), AdditivePoly.parse(F5, "x^5+2*x")
    )[0]
    # exhaustive witness search oracle for the same pair
    g = AdditivePoly.parse(F5, "x^5+2*x")
    found = []
    for coeffs in itertools.product(range(5), repeat=1):
        u = AdditivePoly(F5, list(coeffs) + [1])
        if meet(u, g).expn == 0 and u != g:
            found.append(transform(u, g))
    assert AdditivePoly.parse(F5, "x^5+3*x") not in found


def test_similarity_witness_is_valid(F8):
    a = AdditivePoly.parse(F8, "x^2+x")
    b = AdditivePoly.parse(F8, "x^2+g1*x")
    flag, witness = is_similar(a, b)
    assert flag
    assert witness.is_monic()
    assert meet(witness, b).expn == 0
    assert transform(witness, b) == a


def test_similarity_past_old_bound_returns_x(F3):
    f = AdditivePoly(F3, [1, 0, 0, 0, 1])  # expn 4
    assert is_similar(f, f.scale(1)) == (True, AdditivePoly.x(F3))


def assert_similarity_witness(f, g, witness):
    assert witness.is_monic()
    assert meet(witness, g) == AdditivePoly.x(g.field)
    assert transform(witness, g) == f


def planted_similar_pair(K, rng, expn):
    """(transform(u, g), g) for random monic g and u with meet(u, g) = x;
    over an extension field, redrawn until the two differ."""
    while True:
        g = rand_additive(K, rng, expn)
        u = rand_additive(K, rng, rng.randrange(expn))
        if meet(u, g) != AdditivePoly.x(K):
            continue
        f = transform(u, g)
        if f != g or K.degree_over_prime == 1:
            return f, g


def check_similarity_against_enumeration(pairs):
    classes = {}
    for f, g in pairs:
        if g not in classes:
            classes[g] = similarity_class_by_enumeration(g)
        flag, witness = is_similar(f, g)
        assert flag == (f in classes[g]), (str(f), str(g))
        if flag:
            assert_similarity_witness(f, g, witness)
        else:
            assert witness is None


@pytest.mark.parametrize("spec, expns", [("GF(2^2)", (1, 2)), (TOWER, (1,))])
def test_similarity_matches_enumeration_exhaustive(spec, expns):
    K = field_of(spec)
    for expn in expns:
        polys = list(monic_additive_polys(K, expn))
        check_similarity_against_enumeration(itertools.product(polys, repeat=2))


@pytest.mark.parametrize("spec", ["GF(2^3)", "GF(3^2)"])
def test_similarity_matches_enumeration_sampled(spec):
    K = field_of(spec)
    rng = seeded_rng(f"similar-sampled:{spec}")
    pairs = []
    for _ in range(15):
        f, g = planted_similar_pair(K, rng, 2)
        pairs += [(f, g), (rand_additive(K, rng, 2), g), (rand_additive(K, rng, 2), g)]
    check_similarity_against_enumeration(pairs)


@pytest.mark.parametrize("spec, expn", [("GF(3)", 4), ("GF(2^6)", 4), ("GF(7^2)", 3)])
def test_similarity_past_old_bounds_gives_valid_witness(spec, expn):
    K = field_of(spec)
    rng = seeded_rng(f"similar-large:{spec}")
    f, g = planted_similar_pair(K, rng, expn)
    flag, witness = is_similar(f, g)
    assert flag
    assert_similarity_witness(f, g, witness)
    h = rand_additive(K, rng, expn)
    flag, witness = is_similar(h, g)
    if flag:
        assert_similarity_witness(h, g, witness)
    if K.degree_over_prime == 1:
        # the ring is commutative over GF(p): similar means equal
        assert not flag and h != g


@pytest.mark.parametrize("p", [2, 3])
def test_similarity_is_equivalence_relation_exhaustive(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    for expn in (1, 2):
        polys = list(monic_additive_polys(K, expn))
        rel = {}
        for f in polys:
            for g in polys:
                rel[(f, g)] = is_similar(f, g)[0]
        for f in polys:
            assert rel[(f, f)]
            for g in polys:
                assert rel[(f, g)] == rel[(g, f)]
                for h in polys:
                    if rel[(f, g)] and rel[(g, h)]:
                        assert rel[(f, h)]


def test_transmutable_trivial_and_rigid_cases(F2, F5):
    f = AdditivePoly.parse(F5, "x^5+3*x")
    pairs = transmutable(f, AdditivePoly.x(F5))
    assert pairs == [(AdditivePoly.x(F5), f)]
    xp = AdditivePoly.parse(F2, "x^2")
    assert transmutable(xp, xp) == []
    with pytest.raises(NotIndecomposable):
        transmutable(AdditivePoly.parse(F5, "x^25+x"), AdditivePoly.x(F5))


def test_transmutable_p_linear_pair_matches_root_oracle(F5):
    # f = x^5 + a x, g = x^5 + b x: transmutations correspond to the roots
    # of a - y(b-y)^4 in GF(5), plus the plain swap when it happens to work.
    a, b = F5.felt(3), F5.felt(2)
    f = AdditivePoly(F5, [a, 1])
    g = AdditivePoly(F5, [b, 1])
    fg = add_compose(f, g)
    expected = []
    for abar_int in range(5):
        abar = F5.felt(abar_int)
        fbar = AdditivePoly(F5, [abar, 1])
        q = right_quotient(fg, fbar)
        if q is None:
            continue
        if add_compose(q, fbar) == fg and transform(g, fbar) == f:
            expected.append((q, fbar))
    got = transmutable(f, g)
    assert got == sorted(expected, key=lambda pr: pr[1].key())
    # over the prime field the only transmutation keeps the right factor
    assert all(fbar == f for _q, fbar in got)


def test_transform_composition_trivial_and_checked(F3):
    g1 = AdditivePoly.parse(F3, "x^3+x")
    g2 = AdditivePoly.parse(F3, "x^3+2*x")
    g = add_compose(g2, g1)
    dec = Decomposition(g, (g2, g1), complete=True)
    # h = x leaves the decomposition unchanged
    out = transform_composition(AdditivePoly.x(F3), dec)
    assert out.factors == dec.factors
    # a p-linear h coprime with g transforms the decomposition consistently
    # (both simple p-linear kernels already sit inside ker g, so h = x^3)
    h = AdditivePoly.parse(F3, "x^3")
    assert meet(h, g).expn == 0
    out = transform_composition(h, dec)
    assert out.target == transform(h, g)
    assert len(out.factors) == 2
    assert add_compose(out.factors[0], out.factors[1]) == out.target


def test_kernel_basis_independence_check(F4):
    w = F4.gen()
    with pytest.raises(DependentBasis):
        KernelBasis([w, w])
    with pytest.raises(DependentBasis):
        from_kernel_basis([F4.felt(1), F4.felt(1)])


def test_kernel_basis_accepts_eight_elements():
    K = field_of("GF(2^8)")
    g = K.gen()
    basis = KernelBasis([g**i for i in range(8)])
    assert from_kernel_basis(basis) == AdditivePoly.parse(K, "x^256+x")
    with pytest.raises(DependentBasis):
        KernelBasis([g**i for i in range(6)] + [g + g**5])


def test_kernel_basis_matches_brute_force_independence(F8):
    elts = list(F8.felts())
    for size in range(1, len(elts) + 1):
        for subset in itertools.combinations(elts, size):
            dependent = any(
                sum((e for c, e in zip(combo, subset) if c), F8.felt(0)).is_zero()
                for combo in itertools.product(range(2), repeat=size)
                if any(combo)
            )
            if dependent:
                with pytest.raises(DependentBasis):
                    KernelBasis(subset)
            else:
                assert KernelBasis(subset).psi.expn == size


def test_from_kernel_basis_examples(F3, F4):
    assert from_kernel_basis([F3.felt(1)]) == AdditivePoly.parse(F3, "x^3+2*x")
    w = F4.gen()
    psi = from_kernel_basis([F4.felt(1), w])
    assert psi == AdditivePoly.parse(F4, "x^4+x")
    # all four elements of GF(4) are roots
    assert all(psi.evaluate(a).is_zero() for a in F4.felts())


def test_from_kernel_basis_roots_are_exactly_the_span(F8):
    g1 = F8.gen()
    basis = [F8.felt(1), g1]
    psi = from_kernel_basis(basis)
    span = set()
    for c1 in range(2):
        for c2 in range(2):
            span.add((basis[0] * c1 + basis[1] * c2).rep)
    roots = {a.rep for a in F8.felts() if psi.evaluate(a).is_zero()}
    assert roots == span


def test_frobenius_stable_span_gives_rational_coefficients(F2, F4):
    # span {0,1,w,w+1} = GF(4) is stable under x -> x^2, so the kernel
    # polynomial has GF(2) coefficients even though the basis lives in GF(4)
    w = F4.gen()
    psi = from_kernel_basis([F4.felt(1), w])
    for c in psi.coeffs:
        assert F4.elt_str(c) in ("0", "1")
    # a non-stable span keeps a strictly larger coefficient field
    psi2 = from_kernel_basis([w])
    assert any(F4.elt_str(c) not in ("0", "1") for c in psi2.coeffs)


def test_min_add_mult_examples(F2, F3):
    assert min_add_mult(Poly.x(F3)) == AdditivePoly.x(F3)
    assert min_add_mult(Poly.parse(F3, "x+2")) == AdditivePoly.parse(F3, "x^3+2*x")
    mam = min_add_mult(Poly.parse(F2, "x^2+x+1"))
    assert mam == AdditivePoly.parse(F2, "x^4+x") and mam.expn == 2


def test_min_add_mult_divides_every_additive_multiple(F3):
    rng = seeded_rng("mam")
    for _ in range(15):
        f = Poly(F3, [F3.rand_rep(rng) for _ in range(3)] + [1])
        mam = min_add_mult(f)
        assert (mam.to_poly() % f).is_zero()
        # any sampled monic additive multiple is right-divisible by mam
        u = AdditivePoly(F3, [F3.rand_rep(rng), 1])
        bigger = add_compose(u, mam)
        assert add_rdivrem(bigger, mam)[1].is_zero()


def test_peel_frobenius(F4):
    w = F4.gen()
    inner = AdditivePoly(F4, [w, 1])
    f = add_compose(AdditivePoly.monomial(F4, 2), inner)  # x^(p^2) o (x^2 + w x)
    ell, simple = peel_frobenius(f)
    assert ell == 2 and simple.is_simple()
    assert add_compose(AdditivePoly.monomial(F4, ell), simple) == f


@pytest.mark.parametrize(
    "p,nu_max",
    [(2, 4), (3, 3)],
)
def test_counts_match_brute_force(p, nu_max):
    for nu in range(0, nu_max + 1):
        for sigma in range(0, nu + 1):
            s, t, flags = counts(p, nu, sigma)
            assert s == len(subspaces_of_dim(p, nu, sigma))
        assert counts(p, nu, 0)[2] == count_maximal_flags(p, nu)


@pytest.mark.parametrize("p,nu_max", [(2, 3), (3, 2)])
def test_echelon_subspaces_match_exhaustive_spans(p, nu_max):
    for nu in range(nu_max + 1):
        for sigma in range(nu + 1):
            assert subspaces_of_dim(p, nu, sigma) == subspaces_of_dim_exhaustive(p, nu, sigma)


def test_counts_rejects_out_of_range_arguments():
    with pytest.raises(DegreeError):
        counts(2, 1, 5)
    with pytest.raises(DegreeError):
        counts(2, 2, -1)
    with pytest.raises(DegreeError):
        counts(1, 2, 1)


def test_counts_extension_step_brute_force():
    # T(nu, sigma): sigma-dim subspaces of Z_p^nu over a fixed (sigma-1)-dim one
    p, nu, sigma = 2, 3, 2
    smaller = next(iter(subspaces_of_dim(p, nu, sigma - 1)))
    bigger = [v for v in subspaces_of_dim(p, nu, sigma) if smaller <= v]
    assert counts(p, nu, sigma)[1] == len(bigger)


def test_euclid_scheme_matches_multiplicative_remainders(F3):
    f = AdditivePoly.parse(F3, "x^27+2*x^9+x^3+2*x")
    g = AdditivePoly.parse(F3, "x^9+x^3+x")
    seq = euclid_scheme(f, g)
    for i in range(2, len(seq)):
        assert seq[i].to_poly() == seq[i - 2].to_poly() % seq[i - 1].to_poly()


from hypothesis import given, settings, strategies as st


@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_meet_is_multiplicative_gcd_hypothesis(ac, bc):
    from polydec import build_prime_field

    K = build_prime_field(3)
    f = AdditivePoly(K, ac + [1])
    g = AdditivePoly(K, bc + [1])
    assert meet(f, g).to_poly() == poly_gcd(f.to_poly(), g.to_poly())


@pytest.mark.parametrize("spec", [2, 3, 5, "GF(2^2)", "GF(3^2)", TOWER])
@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=5))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_str_is_dense_str_and_parses_back(spec, picks):
    K = field_of(spec)
    elts = list(K.elements())
    f = AdditivePoly(K, [elts[i % len(elts)] for i in picks])
    assert str(f) == str(f.to_poly())
    assert AdditivePoly.parse(K, str(f)) == f


def test_poly_and_additive_poly_never_mix(F3):
    c = [2, 1]
    assert Poly(F3, c) != AdditivePoly(F3, c)
    assert AdditivePoly(F3, c) != Poly(F3, c)
    with pytest.raises(TypeError):
        Poly(F3, c)._check(AdditivePoly(F3, c))
    with pytest.raises(TypeError):
        AdditivePoly(F3, c)._check(Poly(F3, c))


def test_foreign_felt_is_rejected(F3, F5, F4):
    for K, foreign in ((F3, F5.felt(2)), (F4, F5.felt(2)), (F3, F4.gen())):
        for cls in (Poly, AdditivePoly):
            f = cls(K, [1, 1])
            with pytest.raises(FieldMismatch):
                f.scale(foreign)
            with pytest.raises(FieldMismatch):
                f.evaluate(foreign)
            with pytest.raises(FieldMismatch):
                cls.monomial(K, 1, foreign)
