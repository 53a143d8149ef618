import functools
import itertools
import time

import pytest

from polydec import (
    AdditivePoly,
    Decomposition,
    OrderedFactorisation,
    Poly,
    UnorderedFactorisation,
    abs_decompose,
    add_compose,
    all_complete_decompositions,
    basis_to_dec,
    complete_decomposition,
    counts,
    cr_decompose,
    decompose_ordered,
    factors_to_right,
    from_kernel_basis,
    indec_basis,
    indec_right_factors,
    is_refinement,
    is_similar,
    join,
    meet,
    simfree_bidecomp,
    unordered_refinements,
)
from polydec import addecomp, upoly
from polydec.addecomp import is_indecomposable
from polydec.additive import right_quotient
from polydec.errors import (
    BadLength,
    ExponentBoundExceeded,
    NotCompletelyReducible,
    NotCoprime,
    NotSimilarityFree,
    NotSimple,
    ParseError,
    ProductMismatch,
)

from conftest import (
    TOWER,
    all_complete_by_recursion,
    complete_by_peeling,
    decompose_ordered_by_grouping,
    dense_indec_right_factors,
    field_of,
    monic_additive_polys,
    ordered_shapes,
    seeded_rng,
    similarity_class_by_enumeration,
)


def brute_right_factors_expn1(f):
    """Oracle: all monic exponent-1 right factors by direct division."""
    out = []
    for g in monic_additive_polys(f.field, 1):
        q = right_quotient(f, g)
        if q is not None:
            out.append(g)
    return out


def test_decomposition_constructor_verifies(F5):
    f = AdditivePoly.parse(F5, "x^25+x")
    h = AdditivePoly.parse(F5, "x^5+x")
    with pytest.raises(ValueError):
        Decomposition(add_compose(f, h), (f, f))


def test_indec_right_factors_wild_example(F5):
    f = AdditivePoly.parse(F5, "x^125+x^25+x^5+x")
    got = indec_right_factors(f)
    want = [AdditivePoly.parse(F5, t) for t in ("x^5+x", "x^5+2*x", "x^5+3*x")]
    assert got == want
    oracle = brute_right_factors_expn1(f)
    assert got == oracle


def test_indec_right_factors_small_cases(F2, F5):
    f1 = AdditivePoly.parse(F5, "x^5+2*x")
    assert indec_right_factors(f1) == [f1]
    f2 = AdditivePoly.parse(F2, "x^4+x")
    assert indec_right_factors(f2) == brute_right_factors_expn1(f2)
    assert indec_right_factors(f2) == [AdditivePoly.parse(F2, "x^2+x")]
    # non-simple input grows an x^p factor
    f3 = AdditivePoly.parse(F2, "x^4+x^2")
    assert indec_right_factors(f3) == brute_right_factors_expn1(f3)


def test_complete_decomposition_examples(F2, F5):
    f = AdditivePoly.parse(F5, "x^5+3*x")
    dec = complete_decomposition(f)
    assert dec.factors == (f,) and dec.complete
    f = AdditivePoly.parse(F5, "x^125+x^25+x^5+x")
    dec = complete_decomposition(f)
    assert len(dec.factors) == 3
    assert all(g.expn == 1 for g in dec.factors)
    f = AdditivePoly.parse(F2, "x^4+x")
    dec = complete_decomposition(f)
    assert dec.factors == (AdditivePoly.parse(F2, "x^2+x"),) * 2


def test_all_complete_decompositions(F4, F5):
    f = AdditivePoly.parse(F5, "x^5+x")
    assert [d.factors for d in all_complete_decompositions(f)] == [(f,)]
    g4 = AdditivePoly.parse(F4, "x^4+x")
    decs = all_complete_decompositions(g4)
    assert len(decs) == 3
    assert len({d.factors for d in decs}) == 3
    assert all_complete_decompositions(g4, limit=2) == decs[:2]
    with pytest.raises(BadLength):
        all_complete_decompositions(g4, limit=-1)
    f5 = AdditivePoly.parse(F5, "x^125+x^25+x^5+x")
    decs5 = all_complete_decompositions(f5)
    inner = {d.factors[-1] for d in decs5}
    assert inner == set(indec_right_factors(f5))


def test_all_complete_pairwise_similar_under_bijection(F4):
    g4 = AdditivePoly.parse(F4, "x^4+x")
    decs = all_complete_decompositions(g4)
    for d1, d2 in itertools.combinations(decs, 2):
        a, b = d1.factors, d2.factors
        assert len(a) == len(b) == 2
        straight = is_similar(a[0], b[0])[0] and is_similar(a[1], b[1])[0]
        crossed = is_similar(a[0], b[1])[0] and is_similar(a[1], b[0])[0]
        assert straight or crossed


def test_is_refinement():
    assert is_refinement((2, 2, 3), (4, 3))
    assert not is_refinement((2, 3, 2), (4, 3))
    assert is_refinement((5, 5), (5, 5))
    with pytest.raises(ProductMismatch):
        is_refinement((2, 2), (5,))
    with pytest.raises(BadLength):
        OrderedFactorisation((1, 4))
    assert OrderedFactorisation.parse("2,3") == (2, 3)
    with pytest.raises(ParseError):
        OrderedFactorisation.parse("2,x")


def test_decompose_ordered_wild_examples(F5):
    f = AdditivePoly.parse(F5, "x^125+x^25+x^5+x")
    decs = decompose_ordered(f, (25, 5))
    pairs = {(str(d.factors[0]), str(d.factors[1])) for d in decs}
    assert pairs == {
        ("x^25+3*x^5+2*x", "x^5+3*x"),
        ("x^25+4*x^5+3*x", "x^5+2*x"),
        ("x^25+x", "x^5+x"),
    }
    assert decompose_ordered(AdditivePoly.parse(F5, "x^25+x^5+x"), (5, 5)) == []
    whole = decompose_ordered(f, (125,))
    assert [d.factors for d in whole] == [(f,)]
    with pytest.raises(ProductMismatch):
        decompose_ordered(f, (5, 5))


def test_indec_basis_examples(F2, F4):
    f = AdditivePoly.parse(F2, "x^2+x")
    assert indec_basis(f) == [f]
    g4 = AdditivePoly.parse(F4, "x^4+x")
    basis = indec_basis(g4)
    assert basis is not None and len(basis) == 2
    assert all(b.expn == 1 for b in basis)
    assert join(basis[0], basis[1]) == g4
    assert meet(basis[0], basis[1]).expn == 0
    # oracle verdict for the non-simple square: it is completely reducible
    sq = AdditivePoly.parse(F2, "x^4+x^2")
    basis_sq = indec_basis(sq)
    assert basis_sq is not None
    acc = basis_sq[0]
    for b in basis_sq[1:]:
        acc = join(acc, b)
    assert acc == sq
    # an indecomposable basis fails to exist for a non completely reducible input
    not_cr = AdditivePoly.parse(F2, "x^4+x^2+x")  # simple but indecomposable? check below
    rf = indec_right_factors(not_cr)
    if rf != [not_cr]:
        j = rf[0]
        for b in rf[1:]:
            j = join(j, b)
        if j != not_cr:
            assert indec_basis(not_cr) is None


def test_unordered_refinements_examples():
    table = unordered_refinements((2, 2), 1)
    assert set(table) == {UnorderedFactorisation((4,))}
    table = unordered_refinements((2, 2, 2), 2)
    assert set(table) == {UnorderedFactorisation((4, 2))}
    witness = table[UnorderedFactorisation((4, 2))]
    assert len(witness) == 3 and len(set(witness)) == 2
    table = unordered_refinements((3,), 1)
    assert set(table) == {UnorderedFactorisation((3,))}
    with pytest.raises(BadLength):
        unordered_refinements((2, 2), 3)


def test_unordered_refinements_bounded_by_partitions():
    def partitions(n):
        table = [[0] * (n + 1) for _ in range(n + 1)]
        for j in range(n + 1):
            table[0][j] = 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                table[i][j] = table[i][j - 1] + (table[i - j][j] if i >= j else 0)
        return table[n][n]

    for nu in range(2, 7):
        mu = (2,) * nu
        total = set()
        for m in range(1, nu + 1):
            total |= set(unordered_refinements(mu, m))
        assert len(total) <= partitions(nu)


def test_basis_to_dec(F4, F8):
    g4 = AdditivePoly.parse(F4, "x^4+x")
    basis = indec_basis(g4)
    dec = basis_to_dec(basis)
    assert dec.target == g4
    assert [int(f.degree) for f in reversed(dec.factors)] == [int(b.degree) for b in basis]
    one = F8.felt(1)
    g1 = F8.gen()
    parts = [from_kernel_basis([one]), from_kernel_basis([g1]), from_kernel_basis([g1 * g1])]
    dec = basis_to_dec(parts)
    assert len(dec.factors) == 3
    assert all(int(f.degree) == 2 for f in dec.factors)
    with pytest.raises(NotCoprime):
        basis_to_dec([parts[0], parts[0]])


def test_cr_decompose(F2, F4):
    # x^8+x over GF(2) has the basis x^2+x, x^4+x^2+x: two parts, not three
    assert cr_decompose(AdditivePoly.parse(F2, "x^8+x"), (2, 2, 2)) is None
    g4 = AdditivePoly.parse(F4, "x^4+x")
    dec = cr_decompose(g4, (2, 2))
    assert dec is not None and dec.target == g4
    assert dec.shape == OrderedFactorisation((2, 2))
    whole = cr_decompose(g4, (4,))
    assert whole is not None and whole.factors[0] == g4
    # impossible grouping for a completely reducible input with 2 basis parts
    assert cr_decompose(g4, (2, 2)) is not None
    not_cr = AdditivePoly.parse(F4, "x^4+g1*x^2")  # non-simple; check reducibility first
    if indec_basis(not_cr) is None:
        with pytest.raises(NotCompletelyReducible):
            cr_decompose(not_cr, (2, 2))


def test_cr_decompose_agrees_with_complete(F4):
    g4 = AdditivePoly.parse(F4, "x^4+x")
    dec = cr_decompose(g4, (2, 2))
    assert dec.factors in {d.factors for d in all_complete_decompositions(g4)}


def test_factors_to_right_gf8(F8):
    q = AdditivePoly.parse(F8, "x^4+g1^2*x^2+g1^2*x")
    assert is_indecomposable(q)
    s = AdditivePoly.parse(F8, "x^2+g1^2*x")
    xp = AdditivePoly.parse(F8, "x^2")
    f = add_compose(add_compose(q, xp), s)
    dec = complete_decomposition(f)
    assert len(dec.factors) == 3
    # S empty and S already-rightmost are identity cases
    assert factors_to_right(dec, set()).factors == dec.factors
    assert factors_to_right(dec, {1}).factors == dec.factors
    # move the outermost factor to the right
    res = factors_to_right(dec, {3})
    assert res is not None
    assert res.target == f
    moved = res.factors[-1]
    selected = dec.factors[0]
    flag, _w = is_similar(moved, selected)
    assert flag


def test_factors_to_right_rejects_similar_factors(F8):
    a = AdditivePoly.parse(F8, "x^2+x")
    b = AdditivePoly.parse(F8, "x^2+g1*x")
    f = add_compose(a, b)
    dec = complete_decomposition(f)
    with pytest.raises(NotSimilarityFree):
        factors_to_right(dec, {2})


def test_simfree_bidecomp_gf8(F8):
    q = AdditivePoly.parse(F8, "x^4+g1^2*x^2+g1^2*x")
    s = AdditivePoly.parse(F8, "x^2+g1^2*x")
    f = add_compose(q, s)
    for shape in [(4, 2), (2, 4)]:
        dec = simfree_bidecomp(f, shape)
        assert dec is not None
        assert dec.target == f
        assert tuple(int(g.degree) for g in dec.factors) == shape
    # degenerate splits are rejected by shape validation
    with pytest.raises(BadLength):
        simfree_bidecomp(f, (1, 8))
    # indecomposable input has no bidecomposition
    assert simfree_bidecomp(q, (2, 2)) is None


def test_abs_decompose_examples(F2, F5):
    f1 = AdditivePoly.parse(F2, "x^2+x")
    tower, dec = abs_decompose(f1)
    assert tower == F2 and dec.factors == (f1,)

    f = AdditivePoly.parse(F2, "x^4+x")
    tower, dec = abs_decompose(f)
    assert tower.degree_over_prime <= 2
    assert all(g.expn == 1 for g in dec.factors)

    f5 = AdditivePoly.parse(F5, "x^25+x^5+x")
    tower, dec = abs_decompose(f5)
    assert len(dec.factors) == 2
    assert all(g.expn == 1 for g in dec.factors)
    phi = Poly.parse(tower, "x^6-x+1")
    beta = dec.factors[-1].coeff(0)  # innermost x^5 - a x stores -a, a root of x^6+x+1
    assert phi.evaluate(beta).is_zero()


def test_abs_decompose_errors(F2):
    with pytest.raises(NotSimple):
        abs_decompose(AdditivePoly.parse(F2, "x^4+x^2"))
    big = AdditivePoly(F2, [1, 0, 0, 0, 1])
    with pytest.raises(ExponentBoundExceeded):
        abs_decompose(big)


@pytest.mark.parametrize("p", [2, 3])
def test_completely_reducible_iff_completely_transmutable(p):
    """Exponent-2 exhaustive check: the join test agrees with adjacent-pair
    transmutability on every complete decomposition."""
    from polydec import build_prime_field
    from polydec.additive import transmutable

    K = build_prime_field(p)
    for f in monic_additive_polys(K, 2):
        cr = indec_basis(f) is not None
        transmutes = True
        for d in all_complete_decompositions(f):
            fs = d.factors
            for i in range(len(fs) - 1):
                if not transmutable(fs[i], fs[i + 1]):
                    transmutes = False
                    break
            if not transmutes:
                break
        assert cr == transmutes


@pytest.mark.parametrize("p", [2, 3])
def test_basis_degrees_match_complete_decomposition_degrees(p):
    from polydec import build_prime_field

    K = build_prime_field(p)
    for f in monic_additive_polys(K, 2):
        basis = indec_basis(f)
        if basis is None:
            continue
        want = sorted(int(b.degree) for b in basis)
        for d in all_complete_decompositions(f):
            assert sorted(int(g.degree) for g in d.factors) == want


def test_basis_degrees_exhaustive_gf4_expn3(F4):
    count = 0
    for f in monic_additive_polys(F4, 3):
        basis = indec_basis(f)
        if basis is None:
            continue
        count += 1
        want = sorted(int(b.degree) for b in basis)
        for d in all_complete_decompositions(f):
            assert sorted(int(g.degree) for g in d.factors) == want
    assert count > 0


def test_count_over_rational_kernel_matches_flag_product(F4):
    # simple additive with fully rational kernel: GF(4) itself as the kernel
    w = F4.gen()
    f = from_kernel_basis([F4.felt(1), w])
    decs = all_complete_decompositions(f)
    assert len(decs) == counts(2, 2, 0)[2]


def test_permutation_inequivalent_decompositions_construction(F4):
    """Kernel eps*GF(4) over a degree-4 extension of GF(4): the flag-count
    many complete decompositions are pairwise permutation inequivalent."""
    from polydec import build_extension, find_irreducible

    K = build_extension(F4, find_irreducible(F4, 4, seed=0))
    eps = K.gen()
    w_up = K.embed(F4.gen().rep)
    from polydec.field import Felt

    theta1 = K.felt(1) * eps
    theta2 = Felt(K, w_up) * eps
    f = from_kernel_basis([theta1, theta2])
    decs = all_complete_decompositions(f)
    assert len(decs) == counts(2, 2, 0)[2] == 3
    factor_sets = [d.factors for d in decs]
    for a, b in itertools.combinations(factor_sets, 2):
        assert set(a) != set(b)  # not permutations of each other


def test_basis_degrees_exhaustive_gf2_expn3(F2):
    for f in monic_additive_polys(F2, 3):
        basis = indec_basis(f)
        if basis is None:
            continue
        want = sorted(int(b.degree) for b in basis)
        for d in all_complete_decompositions(f):
            assert sorted(int(g.degree) for g in d.factors) == want


def test_count_over_rational_kernel_matches_flag_product_p3(F9):
    g1 = F9.gen()
    f = from_kernel_basis([F9.felt(1), g1])
    decs = all_complete_decompositions(f)
    assert len(decs) == counts(3, 2, 0)[2] == 4


def test_factors_to_right_subset_moves_preserve_similarity(F8):
    q = AdditivePoly.parse(F8, "x^4+g1^2*x^2+g1^2*x")
    xp = AdditivePoly.parse(F8, "x^2")
    s = AdditivePoly.p_linear(F8.gen())
    f = add_compose(add_compose(q, xp), s)
    dec = complete_decomposition(f)
    m = len(dec.factors)
    inner_first = list(reversed(dec.factors))
    for size in (1, 2, 3):
        for S in itertools.combinations(range(1, m + 1), size):
            res = factors_to_right(dec, set(S))
            assert res.target == f
            res_inner = list(reversed(res.factors))
            remaining = [inner_first[i - 1] for i in S]
            for g in res_inner[:size]:
                match = next(
                    (c for c in remaining if g.expn == c.expn and is_similar(g, c)[0]),
                    None,
                )
                assert match is not None
                remaining.remove(match)


def rand_monic_additive(K, expn, rng, simple):
    """Random monic additive polynomial; a non-simple one has x**p**l
    peeled off for some l >= 1."""
    coeffs = [K.rand_rep(rng) for _ in range(expn)] + [K.one()]
    if simple:
        while coeffs[0] == K.zero():
            coeffs[0] = K.rand_rep(rng)
    else:
        for i in range(rng.randint(1, expn)):
            coeffs[i] = K.zero()
    return AdditivePoly(K, coeffs)


@pytest.mark.parametrize("p,max_expn", [(2, 7), (3, 4), (5, 3), (7, 2)])
def test_indec_right_factors_associate_matches_dense(p, max_expn):
    K = field_of(p)
    rng = seeded_rng(f"associate-vs-dense:{p}")
    for expn in range(1, max_expn + 1):
        for trial in range(6):
            f = rand_monic_additive(K, expn, rng, simple=trial % 2 == 0)
            got = indec_right_factors(f)
            assert got == dense_indec_right_factors(f), str(f)
            assert all(right_quotient(f, g) is not None for g in got)


def assert_stays_in_exponent_space(monkeypatch, spec, expn):
    """Decompose seeded inputs with the dense expansion disabled, checking
    that every factored polynomial has degree at most expn."""

    def no_dense(self):
        raise AssertionError("dense expansion of an additive polynomial")

    factored = []
    real_factor = upoly.factor

    def recording_factor(g):
        factored.append(g.degree)
        return real_factor(g)

    monkeypatch.setattr(AdditivePoly, "to_poly", no_dense)
    monkeypatch.setattr(upoly, "factor", recording_factor)
    K = field_of(spec)
    rng = seeded_rng(f"exponent-space:{spec}")
    for simple in (True, False):
        f = rand_monic_additive(K, expn, rng, simple)
        for g in indec_right_factors(f):
            assert add_compose(right_quotient(f, g), g) == f
        dec = complete_decomposition(f)
        assert dec.target == f and dec.complete
        decs = all_complete_decompositions(f)
        assert dec in decs
        outer = f.degree // dec.factors[-1].degree
        shape = (outer, dec.factors[-1].degree) if outer > 1 else (f.degree,)
        ordered = decompose_ordered(f, shape)
        assert ordered
        for d in decs + ordered:
            assert functools.reduce(add_compose, d.factors) == f
    assert factored and max(factored) <= expn


@pytest.mark.parametrize("p,expn", [(2, 11), (3, 7)])
def test_prime_field_decomposition_stays_in_exponent_space(monkeypatch, p, expn):
    assert_stays_in_exponent_space(monkeypatch, p, expn)


@pytest.mark.parametrize("spec,expn", [("GF(2^2)", 6), ("GF(3^2)", 4), ("GF(5^2)", 3), (TOWER, 4)])
def test_extension_field_decomposition_stays_in_exponent_space(monkeypatch, spec, expn):
    assert_stays_in_exponent_space(monkeypatch, spec, expn)


def rand_indec_factor(K, expn, rng):
    """Random simple monic indecomposable additive polynomial."""
    while True:
        g = rand_monic_additive(K, expn, rng, simple=True)
        if is_indecomposable(g):
            return g


def planted_inputs(K, max_expn, rng):
    """Seeded inputs whose answers the dense oracle checks: random simple
    and non-simple ones, chains of indecomposable factors, joins of two
    similar exponent-1 factors (an isotypic part with k = 2) composed with
    a further factor, the central x**(q**j) - x and x**(q**2) + x**q + x
    (over GF(2**2) its factors have d = 2 and k = 2), and x**(p**max_expn),
    whose simple part x has the bound 1."""
    out = [AdditivePoly.monomial(K, max_expn)]
    for expn in range(1, max_expn + 1):
        out += [rand_monic_additive(K, expn, rng, simple) for simple in (True, False, True)]
        pattern = [1] * expn if expn < 3 else [2] + [1] * (expn - 2)
        out.append(functools.reduce(add_compose, [rand_indec_factor(K, e, rng) for e in pattern]))
    for _ in range(2):
        a = rand_indec_factor(K, 1, rng)
        similar = sorted(similarity_class_by_enumeration(a) - {a}, key=lambda g: g.key())
        iso = join(a, rng.choice(similar))
        out.append(iso)
        if max_expn >= 3:
            out.append(add_compose(rand_indec_factor(K, 1, rng), iso))
    e = K.degree_over_prime
    for j in range(1, max(1, max_expn // e) + 1):
        out.append(AdditivePoly.monomial(K, j * e) - AdditivePoly.x(K))
    if 2 * e <= max_expn:
        out.append(AdditivePoly(K, [1] + [0] * (e - 1) + [1] + [0] * (e - 1) + [1]))
    return out


@pytest.mark.parametrize(
    "spec,max_expn",
    [("GF(2^2)", 4), ("GF(3^2)", 3), ("GF(2^3)", 3), ("GF(5^2)", 2), (TOWER, 3)],
)
def test_indec_right_factors_matches_dense_over_extensions(spec, max_expn):
    K = field_of(spec)
    rng = seeded_rng(f"exponent-space-vs-dense:{spec}")
    for f in planted_inputs(K, max_expn, rng):
        got = indec_right_factors(f)
        assert got == dense_indec_right_factors(f), str(f)
        assert all(right_quotient(f, g) is not None for g in got)


def test_indec_right_factors_isotypic_of_degree_two(F4):
    # x^16+x^4+x = phi(x^4) with phi = y^2+y+1 irreducible over GF(2):
    # v -> v^4 satisfies phi on the kernel, which is a space of dimension
    # k = 2 over E = GF(2)[y]/(phi) = GF(4), so the factors are the 5 points
    # of P^1(GF(4)), each of exponent d = 2
    f = AdditivePoly.parse(F4, "x^16+x^4+x")
    got = indec_right_factors(f)
    assert got == dense_indec_right_factors(f)
    assert len(got) == 5 and all(g.expn == 2 for g in got)


def test_indec_right_factors_repeat_calls_agree(F4, F9):
    inputs = [
        AdditivePoly.parse(F4, "x^16+x^4+x"),
        AdditivePoly.parse(F4, "x^16+x"),
        AdditivePoly.parse(F9, "x^81-x"),
    ]
    first = [indec_right_factors(f) for f in inputs]
    again = [indec_right_factors(f) for f in reversed(inputs)][::-1]
    assert [[str(g) for g in r] for r in first] == [[str(g) for g in r] for r in again]


def test_indec_right_factors_central_over_gf101_squared(monkeypatch):
    # x^(q) - x with q = 101^2 has kernel GF(q) = GF(101)**2, and v -> v**q
    # is the identity on it, so its factors are the 102 points of P^1(GF(101))
    K = field_of("GF(101^2)")
    f = AdditivePoly.parse(K, "x^10201-x")
    calls = []
    real_min_poly = addecomp._min_poly

    def counting_min_poly(u, g):
        calls.append(g.expn)
        return real_min_poly(u, g)

    monkeypatch.setattr(addecomp, "_min_poly", counting_min_poly)
    got = indec_right_factors(f)
    assert len(got) == 102
    for g in got:
        assert g.expn == 1 and is_indecomposable(g)
        assert add_compose(right_quotient(f, g), g) == f
    # one call for the bound, then one per draw from the eigenring: about
    # half of all draws give a zero divisor whatever the field size
    assert 1 <= len(calls) - 1 <= 6


def test_indec_right_factors_gf25_expn3_answers():
    K = field_of("GF(5^2)")
    rng = seeded_rng("gf25-expn3")
    planted = [rand_indec_factor(K, 1, rng) for _ in range(3)]
    for f in (functools.reduce(add_compose, planted), rand_monic_additive(K, 3, rng, True)):
        start = time.monotonic()
        got = indec_right_factors(f)
        # the dense degree-125 factorisation took about a minute
        assert time.monotonic() - start < 5
        assert got and all(right_quotient(f, g) is not None for g in got)
        assert all(is_indecomposable(g) for g in got)
    assert planted[-1] in indec_right_factors(functools.reduce(add_compose, planted))


@pytest.mark.parametrize("spec", ["GF(2^2)", "GF(3^2)", "GF(2^3)"])
def test_factors_to_right_moves_every_subset(spec):
    K = field_of(spec)
    rng = seeded_rng(f"subset-moves:{spec}")
    moves = 0
    for _ in range(20):
        pattern = rng.choice([(1, 2), (2, 1), (1, 1, 2), (2, 2, 1), (1, 2, 3), (3, 2, 1)])
        f = functools.reduce(add_compose, [rand_indec_factor(K, e, rng) for e in pattern])
        dec = complete_decomposition(f)
        if any(is_similar(a, b)[0] for a, b in itertools.combinations(dec.factors, 2)):
            continue
        inner_first = list(reversed(dec.factors))
        m = len(inner_first)
        for size in range(1, m + 1):
            for S in itertools.combinations(range(1, m + 1), size):
                res = factors_to_right(dec, set(S))
                assert res.target == f and res.complete
                remaining = [inner_first[i - 1] for i in S]
                for g in list(reversed(res.factors))[:size]:
                    match = next(c for c in remaining if is_similar(g, c)[0])
                    remaining.remove(match)
                moves += 1
        shape = (f.degree // dec.factors[-1].degree, dec.factors[-1].degree)
        if shape[0] > 1:
            res = simfree_bidecomp(f, shape)
            assert tuple(int(g.degree) for g in res.factors) == shape
    assert moves >= 40


def prime_field_inputs(K, expn, rng):
    """Seeded inputs of exponent expn over GF(p): random simple and non-simple
    ones (the latter with an x**p right factor), and two chains drawn from a
    pool of three indecomposable factors, so that factors repeat; x**p joins
    the pool of the second."""
    out = [rand_monic_additive(K, expn, rng, simple) for simple in (True, False)]
    for extra in ([], [AdditivePoly.monomial(K, 1)]):
        pool = [rand_indec_factor(K, rng.choice((1, 1, 2)), rng) for _ in range(3 - len(extra))]
        pool += extra
        chain, left = [], expn
        while left:
            g = rng.choice([g for g in pool if g.expn <= left] or [rand_indec_factor(K, 1, rng)])
            chain.append(g)
            left -= g.expn
        out.append(functools.reduce(add_compose, chain))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_decompositions_match_the_recursion_oracle(p):
    """Over GF(p) the orderings of the associate's factors, and the walk of
    its sub-multisets, give exactly the results of the memoized recursion,
    of peeling and of grouping, order and completeness included."""
    K = field_of(p)
    rng = seeded_rng(f"orderings-vs-recursion:{p}")
    draws = 0
    for expn, _trial in itertools.product(range(1, 9), range(4)):
        for f in prime_field_inputs(K, expn, rng):
            want = all_complete_by_recursion(f)
            for limit in (None, 0, 1, 3):
                assert all_complete_decompositions(f, limit) == want[:limit], str(f)
            assert complete_decomposition(f) == complete_by_peeling(f)
            k = rng.randint(1, expn - 1) if expn > 1 else 0
            shape = (p ** (expn - k), p**k) if k else (p**expn,)
            cuts = sorted(rng.sample(range(1, expn), 2)) if expn > 2 else None
            for s in [shape] + ([(p ** cuts[0], p ** (cuts[1] - cuts[0]), p ** (expn - cuts[1]))]
                                if cuts else []):
                got = decompose_ordered(f, s)
                want = decompose_ordered_by_grouping(f, s)
                assert got == want, (str(f), s)
                assert [d.complete for d in got] == [d.complete for d in want]
            draws += 1
    assert draws == 128


def counting_factor(monkeypatch):
    """Patch upoly.factor to record its calls; returns the record."""
    calls = []
    real = upoly.factor

    def counted(g):
        calls.append(g.degree)
        return real(g)

    monkeypatch.setattr(upoly, "factor", counted)
    return calls


@pytest.mark.parametrize(
    "p,text,shape",
    [
        (2, "x^4096+x", (64, 64)),
        (2, "x^16777216+x", None),
        (3, "x^729+2*x^243+x^9+2*x^3", (27, 27)),
        (5, "x^625+x^25+x", (25, 25)),
    ],
)
def test_prime_field_decompositions_factor_once(monkeypatch, p, text, shape):
    # the memoized recursion factors 24 times on x^4096+x over GF(2), 80 times
    # on x^(2^24)+x
    f = AdditivePoly.parse(field_of(p), text)
    calls = counting_factor(monkeypatch)
    runs = [lambda: complete_decomposition(f), lambda: all_complete_decompositions(f, 5)]
    if shape:
        runs += [lambda: all_complete_decompositions(f), lambda: decompose_ordered(f, shape)]
    for call in runs:
        calls.clear()
        assert call()
        assert len(calls) == 1


def test_all_complete_output_bound_over_prime_fields(monkeypatch):
    # x^(2^48)+x has the associate (y+1)^16 (y^2+y+1)^16: C(32, 16) orderings
    f = AdditivePoly.parse(field_of(2), "x^281474976710656+x")
    start = time.monotonic()
    decs = all_complete_decompositions(f, limit=5)
    assert time.monotonic() - start < 1
    a, b = AdditivePoly.parse(f.field, "x^2+x"), AdditivePoly.parse(f.field, "x^4+x^2+x")
    assert decs[0].factors == (a,) * 16 + (b,) * 16
    assert decs[1].factors == (a,) * 15 + (b, a) + (b,) * 15
    msg = "601080390 complete decompositions of 32 factors are above the limit of 524288 factors"
    with pytest.raises(ExponentBoundExceeded, match=msg):
        all_complete_decompositions(f)
    # a block of degree 24 holds 4..12 quadratics and the rest linear
    start = time.monotonic()
    decs = decompose_ordered(f, (2**24, 2**24))
    assert time.monotonic() - start < 1
    assert [d.key() for d in decs] == sorted(d.key() for d in decs)
    assert all(d.shape == (2**24, 2**24) and not d.complete for d in decs)
    inner = [dict((g.expn, m) for g, m in addecomp._associate_factors(d.factors[1])) for d in decs]
    assert sorted(parts.get(2, 0) for parts in inner) == list(range(4, 13))
    # the bound counts the factors to be built: 6 orderings of 4 here
    g = AdditivePoly.parse(field_of(2), "x^16+x^4")
    monkeypatch.setattr(addecomp, "_ALL_COMPLETE_MAX_FACTORS", 24)
    assert len(all_complete_decompositions(g)) == 6
    monkeypatch.setattr(addecomp, "_ALL_COMPLETE_MAX_FACTORS", 23)
    with pytest.raises(ExponentBoundExceeded):
        all_complete_decompositions(g)
    assert len(all_complete_decompositions(g, limit=5)) == 5


def test_decompose_ordered_over_prime_fields_counts_before_building(monkeypatch):
    """Over GF(p) decompose_ordered counts its sequences of blocks, in a
    bounded number of steps, and checks them against the bound before any
    decomposition is built."""
    # x^(2^48)+x has 9 decompositions of shape (2^24, 2^24), 18 factors,
    # counted in 18 steps
    f = AdditivePoly.parse(field_of(2), "x^281474976710656+x")
    monkeypatch.setattr(addecomp, "_ALL_COMPLETE_MAX_FACTORS", 18)
    monkeypatch.setattr(addecomp, "_ORDERED_MAX_STEPS", 18)
    assert len(decompose_ordered(f, (2**24, 2**24))) == 9

    def build(*args, **kwargs):
        raise AssertionError("a decomposition was built")

    monkeypatch.setattr(addecomp, "Decomposition", build)
    monkeypatch.setattr(addecomp, "_ORDERED_MAX_STEPS", 17)
    with pytest.raises(ExponentBoundExceeded,
                       match="counting the ways to fill 2 blocks takes more than 17 steps"):
        decompose_ordered(f, (2**24, 2**24))
    monkeypatch.setattr(addecomp, "_ORDERED_MAX_STEPS", 18)
    monkeypatch.setattr(addecomp, "_ALL_COMPLETE_MAX_FACTORS", 17)
    msg = "9 decompositions of 2 factors are above the limit of 17 factors"
    with pytest.raises(ExponentBoundExceeded, match=msg):
        decompose_ordered(f, (2**24, 2**24))
    # x^256+x^16+x^4+x: the associate's irreducibles do not fit blocks of 2
    g = AdditivePoly.parse(field_of(2), "x^256+x^16+x^4+x")
    assert decompose_ordered(g, (4,) * 4) == []


def test_decompose_ordered_over_prime_fields_refuses_large_outputs_at_once(monkeypatch):
    """Over GF(p) an output above the bound, or a count that takes too many
    steps, raises soon after the one factorisation, with no decomposition
    built."""

    def build(*args, **kwargs):
        raise AssertionError("a decomposition was built")

    monkeypatch.setattr(addecomp, "Decomposition", build)
    K = field_of(2)
    # x^(2^256)+x^2: the associate y^256+y has 36 distinct irreducible
    # factors (2 of degree 1, 1 of 2, 3 of 4 and 30 of 8), and about 1.2e9
    # sub-multisets of degree 128
    f = AdditivePoly.parse(K, f"x^{2**256}+x^2")
    start = time.monotonic()
    msg = "1221550470 decompositions of 2 factors are above the limit of 524288 factors"
    with pytest.raises(ExponentBoundExceeded, match=msg):
        decompose_ordered(f, (2**128, 2**128))
    assert time.monotonic() - start < 1
    # the associate y^20 (y+1)^20 over 40 blocks of degree 1: C(40, 20)
    # ways, counted on the number of blocks still empty, not on which
    g = AdditivePoly.parse(K, f"x^{2**40}+x^{2**36}+x^{2**24}+x^{2**20}")
    start = time.monotonic()
    msg = "137846528820 decompositions of 40 factors are above the limit of 524288 factors"
    with pytest.raises(ExponentBoundExceeded, match=msg):
        decompose_ordered(g, (2,) * 40)
    assert time.monotonic() - start < 1
    # the associate y^128 (y^2+y+1)^64 over 16 blocks of degree 16: the
    # multisets of what the blocks still lack are too many to count
    g = AdditivePoly.parse(K, f"x^{2**256}+x^{2**192}+x^{2**128}")
    start = time.monotonic()
    msg = "counting the ways to fill 16 blocks takes more than 524288 steps"
    with pytest.raises(ExponentBoundExceeded, match=msg):
        decompose_ordered(g, (2**16,) * 16)
    assert time.monotonic() - start < 10


def test_all_complete_output_bound_over_extension_fields(monkeypatch):
    """Over GF(p^e) one walk of the quotient graph counts the output, with
    one indec_right_factors call per quotient, before any decomposition is
    built; limit does not lower the count."""
    f = AdditivePoly.parse(field_of(TOWER), "x^16+x")
    want = all_complete_by_recursion(f)
    calls = []
    real = addecomp.indec_right_factors
    monkeypatch.setattr(addecomp, "indec_right_factors", lambda g: calls.append(g) or real(g))
    assert all_complete_decompositions(f) == want
    assert len(want) == 315 and len(calls) == len(set(calls))
    # 315 decompositions of 4 factors
    monkeypatch.setattr(addecomp, "_ALL_COMPLETE_MAX_FACTORS", 1260)
    assert all_complete_decompositions(f, limit=5) == want[:5]
    monkeypatch.setattr(addecomp, "_ALL_COMPLETE_MAX_FACTORS", 1259)

    def build(*args, **kwargs):
        raise AssertionError("a decomposition was built")

    monkeypatch.setattr(addecomp, "Decomposition", build)
    msg = "315 complete decompositions of 4 factors are above the limit of 1259 factors"
    for limit in (None, 5):
        calls.clear()
        with pytest.raises(ExponentBoundExceeded, match=msg):
            all_complete_decompositions(f, limit)
        assert len(calls) == len(set(calls))


@pytest.mark.parametrize("spec", ["GF(2^2)", "GF(3^2)", "GF(2^3)", TOWER])
def test_extension_field_ordered_decompositions_match_grouping(spec):
    """Over GF(p^e) the walk of the quotient graph, entry by entry, gives
    exactly the complete decompositions grouped into blocks, at every
    shape, order and completeness included."""
    K = field_of(spec)
    rng = seeded_rng(f"ordered-vs-grouping:{spec}")
    cases = planted_inputs(K, 4, rng)
    cases += [rand_monic_additive(K, expn, rng, simple)
              for expn in range(1, 5) for simple in (True, False)]
    several = complete = 0
    for f in cases:
        for shape in ordered_shapes(K.p, f.expn):
            got = decompose_ordered(f, shape)
            want = decompose_ordered_by_grouping(f, shape)
            assert got == want, (str(f), shape)
            assert [d.complete for d in got] == [d.complete for d in want]
            several += len(got) > 1
            complete += any(d.complete for d in got) and len(shape) > 1
    assert several >= 10 and complete >= 10


def test_decompose_ordered_walk_bound_over_extension_fields(monkeypatch):
    """Over GF(p^e) decompose_ordered walks the quotient graph only as deep
    as its shape needs, counts its output before composing any factor, and
    past _WALK_MAX_NODES quotients raises before any decomposition is
    built; all_complete_decompositions walks under the same bound."""
    f = AdditivePoly.parse(field_of(TOWER), "x^16+x")
    calls = []
    real = addecomp.indec_right_factors
    monkeypatch.setattr(addecomp, "indec_right_factors", lambda g: calls.append(g) or real(g))
    all_complete_decompositions(f)
    whole = len(calls)
    calls.clear()
    # one call for f, and three more down one chain for the length of its
    # complete decompositions
    want = decompose_ordered(f, (8, 2))
    assert len(want) == 15 and len(calls) == 4
    calls.clear()
    want = decompose_ordered(f, (4, 4))
    nodes = len(calls)
    assert len(want) == 35 and nodes == len(set(calls)) and nodes < whole
    monkeypatch.setattr(addecomp, "_WALK_MAX_NODES", nodes)
    assert decompose_ordered(f, (4, 4)) == want

    def build(*args, **kwargs):
        raise AssertionError("a decomposition was built")

    monkeypatch.setattr(addecomp, "Decomposition", build)
    monkeypatch.setattr(addecomp, "_compose_chain", build)
    monkeypatch.setattr(addecomp, "_ALL_COMPLETE_MAX_FACTORS", 69)
    with pytest.raises(ExponentBoundExceeded,
                       match="35 decompositions of 2 factors are above the limit of 69 factors"):
        decompose_ordered(f, (4, 4))
    monkeypatch.setattr(addecomp, "_ALL_COMPLETE_MAX_FACTORS", 70)
    monkeypatch.setattr(addecomp, "_WALK_MAX_NODES", nodes - 1)
    msg = f"the quotient graph has more than {nodes - 1} quotients to walk"
    with pytest.raises(ExponentBoundExceeded, match=msg):
        decompose_ordered(f, (4, 4))
    with pytest.raises(ExponentBoundExceeded, match=msg):
        all_complete_decompositions(f)
