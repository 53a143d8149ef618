import itertools

import pytest

from polydec import (
    FracLinear,
    Poly,
    compose,
    flt_apply,
    general_rat_dec,
    norm_rat_dec,
    normalize,
    parse_rational,
    poly_in_h,
    rat_compose,
    rat_reduce,
    rat_right_divide,
    sep_bidecomp,
)
from polydec.errors import (
    ConstantInput,
    Degenerate,
    DegreeInfeasible,
    ZeroDenominator,
)
from polydec.ratfun import from_poly

from conftest import (
    field_of,
    general_rat_dec_one_conjugation,
    poly_in_h_by_valuation,
    rand_poly,
    seeded_rng,
)


def test_rat_reduce_examples(F2, F5):
    f = rat_reduce(Poly.parse(F2, "x^2+x"), Poly.x(F2))
    assert str(f) == "x+1"
    f = rat_reduce(Poly.parse(F5, "2*x"), Poly.parse(F5, "2"))
    assert str(f) == "x"
    f = rat_reduce(Poly.x(F5), Poly.x(F5))
    assert str(f) == "1"
    with pytest.raises(ZeroDenominator):
        rat_reduce(Poly.x(F5), Poly.zero(F5))


def test_flt_apply_examples(F5):
    f = parse_rational(F5, "(x^3+2)/(x+1)")
    ident = FracLinear.identity(F5)
    assert flt_apply(ident, f) == f
    recip = FracLinear.of_ints(F5, 0, 1, 1, 0)
    assert flt_apply(recip, f).degree_pair == (f.degree_pair[1], f.degree_pair[0])
    t = FracLinear.of_ints(F5, 2, 1, 1, 1)
    assert flt_apply(t.inverse(), flt_apply(t, f)) == f
    x = parse_rational(F5, "x")
    assert flt_apply(t, flt_apply(t.inverse(), x)) == x


def test_flt_degenerate(F5):
    with pytest.raises(Degenerate):
        FracLinear.of_ints(F5, 1, 2, 2, 4)  # det = 0 caught at build time
    # a transformation sending a constant to infinity degenerates
    c = parse_rational(F5, "3")
    t2 = FracLinear.of_ints(F5, 1, 0, 1, 2)  # denominator x+2 vanishes at 3
    with pytest.raises(Degenerate):
        flt_apply(t2, c)


def test_flt_orbit_of_degree_pairs(F3):
    f = parse_rational(F3, "(x^3+x+1)/(x+2)")
    a, b = f.degree_pair
    shapes = set()
    for t1 in range(3):
        for t2 in range(3):
            for t3 in range(3):
                for t4 in range(3):
                    if (t1 * t4 - t2 * t3) % 3 == 0:
                        continue
                    t = FracLinear.of_ints(F3, t1, t2, t3, t4)
                    shapes.add(flt_apply(t, f).degree_pair)
    assert shapes == {(a, b), (b, a), (a, a)}


def test_normalize_cases(F3, F5):
    f = parse_rational(F5, "x^4+2*x")
    lam, fbar = normalize(f)
    assert fbar == f  # already monic with positive gap
    r = parse_rational(F3, "1/x")
    lam, rbar = normalize(r)
    assert str(rbar) == "x"
    rng = seeded_rng("norm0")
    hits = 0
    while hits < 10:
        num = rand_poly(F5, rng, 3)
        den = rand_poly(F5, rng, 3, monic=True)
        f = rat_reduce(num, den)
        if f.delta != 0 or f.is_constant():
            continue
        hits += 1
        lam, fbar = normalize(f)
        assert fbar.is_monic() and fbar.delta > 0
        assert flt_apply(lam.inverse(), fbar) == f
    with pytest.raises(ConstantInput):
        normalize(parse_rational(F5, "3"))


def test_rat_compose_examples(F5):
    g = parse_rational(F5, "x^2")
    h = parse_rational(F5, "x^2/(x+1)")
    f = rat_compose(g, h)
    assert str(f) == "x^4/(x^2+2*x+1)"
    assert rat_compose(g, parse_rational(F5, "x")) == g
    # polynomial embedding agrees with polynomial composition
    a = Poly.parse(F5, "x^3+2*x")
    b = Poly.parse(F5, "x^2+x")
    assert rat_compose(from_poly(a), from_poly(b)) == from_poly(compose(a, b))


def test_rat_compose_parts_are_pairwise_coprime(F5):
    from polydec import gcd

    rng = seeded_rng("coprime")
    hits = 0
    while hits < 10:
        g = _random_normal(F5, rng, 2, 1)
        h = _random_normal(F5, rng, 2, 1, vanish=True)
        if g is None or h is None:
            continue
        hits += 1
        hN, hD = h.num, h.den
        rN, rD = g.degree_pair
        A = Poly.zero(F5)
        for i in range(rN, -1, -1):
            A = A * hN + hD ** (rN - i) * Poly.monomial(F5, 0, g.num.coeff(i))
        B = Poly.zero(F5)
        for j in range(rD, -1, -1):
            B = B * hN + hD ** (rD - j) * Poly.monomial(F5, 0, g.den.coeff(j))
        assert gcd(A, B).degree == 0
        assert gcd(A, hD).degree == 0
        assert gcd(B, hD).degree == 0


def _random_normal(field, rng, nmax, dmax, vanish=False):
    """Random monic reduced rational with delta > 0 (inner: vanishing at 0)."""
    sN = rng.randrange(max(2, dmax + 1), nmax + dmax + 1)
    sD = rng.randrange(0, min(sN, dmax + 1))
    num = rand_poly(field, rng, sN, monic=True, zero_const=vanish)
    den = rand_poly(field, rng, sD, monic=True) if sD else Poly.one(field)
    f = rat_reduce(num, den)
    if f.degree_pair != (sN, sD):
        return None
    if vanish and not f.vanishes_at_zero():
        return None
    return f


def test_degree_pair_law(F3, F5):
    for K in (F3, F5):
        rng = seeded_rng(("law", K.p))
        hits = 0
        while hits < 12:
            g = _random_normal(K, rng, 3, 1)
            h = _random_normal(K, rng, 3, 1, vanish=True)
            if g is None or h is None:
                continue
            hits += 1
            f = rat_compose(g, h)
            nN, nD = f.degree_pair
            rN, rD = g.degree_pair
            sN, sD = h.degree_pair
            assert nN == rN * sN
            assert rD * (sN * (sN - sD)) == nD * sN - nN * sD


def test_poly_in_h(F5):
    h = parse_rational(F5, "x^2/(x+1)")
    u = Poly.parse(F5, "x^2+1")
    target = Poly.zero(F5)
    # build u(h) * hD^2 by hand, then recover u
    hN, hD = h.num, h.den
    built = hN * hN + hD * hD  # (x^2+1)(h) * hD^2
    assert poly_in_h(built.monic(), h, 2) == u
    assert poly_in_h(hN, h, 1) == Poly.x(F5)
    # wrong leading structure: degree obstruction
    assert poly_in_h(Poly.parse(F5, "x^3"), h, 2) is None


@pytest.mark.parametrize("spec", [2, 3, 5, 7, "GF(2^2)", "GF(3^2)"])
def test_poly_in_h_matches_the_valuation_oracle(spec):
    """Planted v(h) hD**r, the same with one low coefficient changed, and
    random monic u of the right degree."""
    K = field_of(spec)
    rng = seeded_rng(("poly_in_h", str(spec)))
    planted = 0
    while planted < 25:
        h = _random_normal(K, rng, 3, 2, vanish=True)
        if h is None:
            continue
        planted += 1
        hN, hD = h.num, h.den
        r = rng.randrange(0, 4)
        v = rand_poly(K, rng, r, monic=True)
        u = Poly.zero(K)
        for i in range(r + 1):
            u = u + (hN**i * hD ** (r - i)).scale(v.coeff(i))
        assert poly_in_h(u, h, r) == v == poly_in_h_by_valuation(u, h, r)
        n = r * int(hN.degree)
        others = [rand_poly(K, rng, n, monic=True)]
        if n:
            others.append(u + Poly.monomial(K, rng.randrange(n), 1))
        for w in others:
            assert poly_in_h(w, h, r) == poly_in_h_by_valuation(w, h, r)


def test_rat_right_divide(F3, F5):
    for K in (F3, F5):
        rng = seeded_rng(("rrd", K.p))
        hits = 0
        while hits < 12:
            g = _random_normal(K, rng, 3, 1)
            h = _random_normal(K, rng, 3, 1, vanish=True)
            if g is None or h is None:
                continue
            hits += 1
            f = rat_compose(g, h)
            assert rat_right_divide(f, h) == g
    f = parse_rational(F5, "x^4/(x^2+2*x+1)")
    assert rat_right_divide(f, parse_rational(F5, "x")) == f
    with pytest.raises(DegreeInfeasible):
        rat_right_divide(f, parse_rational(F5, "x^3/(x+1)"))


def test_norm_rat_dec_worked_example(F5):
    f = parse_rational(F5, "x^4/(x^2+2*x+1)")
    got = norm_rat_dec(f, (2, 0, 2, 1))
    assert [(str(g), str(h)) for g, h in got] == [("x^2", "x^2/(x+1)")]
    with pytest.raises(DegreeInfeasible):
        norm_rat_dec(f, (2, 1, 2, 1))


def test_norm_rat_dec_polynomial_case_matches_sep(F5):
    g = Poly.parse(F5, "x^2+3*x")
    h = Poly.parse(F5, "x^3+x")
    f = compose(g, h)
    got = norm_rat_dec(from_poly(f), (2, 0, 3, 0))
    sep = sep_bidecomp(f, (2, 3))
    assert [(gg.num, hh.num) for gg, hh in got] == sep


def test_general_rat_dec_normal_input_matches_norm(F5):
    f = parse_rational(F5, "x^4/(x^2+2*x+1)")
    assert general_rat_dec(f, (2, 0, 2, 1)) == norm_rat_dec(f, (2, 0, 2, 1))


def test_general_rat_dec_inner_numerator_degree_below_denominator(F5):
    # sN < sD: the normal problem behind the 1/x conjugation
    g = parse_rational(F5, "(x^2+x+4)/(x+1)")
    h = parse_rational(F5, "(x+1)/(x^2+4*x)")
    f = rat_compose(g, h)
    assert general_rat_dec(f, (2, 1, 1, 2)) == [(g, h)]


def test_general_rat_dec_reciprocal_and_equal_degree_cases(F5):
    g = parse_rational(F5, "x^2")
    h = parse_rational(F5, "x^2/(x+1)")
    f = rat_compose(g, h)
    # delta < 0: 1/(g o h) = ((1/x) o g) o h
    finv = rat_reduce(f.den, f.num)
    recip = FracLinear.of_ints(F5, 0, 1, 1, 0)
    g_inv = flt_apply(recip, g)
    got = general_rat_dec(finv, (*g_inv.degree_pair, *h.degree_pair))
    assert (g_inv, h) in got
    # sN == sD: conjugate h by (x+1)/x
    t = FracLinear.of_ints(F5, 1, 1, 1, 0)
    h2 = flt_apply(t, h)
    g2 = rat_compose(g, t.inverse().as_rational())
    assert rat_compose(g2, h2) == f
    got = general_rat_dec(f, (*g2.degree_pair, *h2.degree_pair))
    assert (g2, h2) in got


def _with_pair(field, rng, pair):
    """Random reduced rational function with exactly the given degree pair."""
    while True:
        num = rand_poly(field, rng, pair[0])
        den = rand_poly(field, rng, pair[1], monic=True)
        f = rat_reduce(num, den)
        if f.degree_pair == pair:
            return f


def _kernel_form(h):
    """hN(x) hD(y) - hD(x) hN(y), scaled to a leading 1.  Two rational
    functions agree up to a fractional linear map on the left exactly when
    these coefficient lists are equal."""
    n = max(h.degree_pair)
    N, D = h.num.coeff, h.den.coeff
    flat = [N(i) * D(j) - D(i) * N(j) for i in range(n + 1) for j in range(n + 1)]
    lead = next(c for c in flat if not c.is_zero())
    return tuple(c / lead for c in flat)


def _check_general_rat_dec(f, quad, h):
    """general_rat_dec(f, quad) finds the class of h once, returns valid
    pairs in distinct classes, and returns every pair that
    general_rat_dec_one_conjugation finds."""
    got = general_rat_dec(f, quad)
    for g2, h2 in got:
        assert (*g2.degree_pair, *h2.degree_pair) == quad
        assert rat_compose(g2, h2) == f
    forms = [_kernel_form(h2) for _g2, h2 in got]
    assert len(set(forms)) == len(forms)
    assert _kernel_form(h) in forms
    assert general_rat_dec_one_conjugation(f, quad) <= set(got)


_PAIRS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("spec", [3, 5, 7, "GF(3^2)"])
def test_general_rat_dec_finds_every_planted_pair(spec):
    K = field_of(spec)
    rng = seeded_rng(("planted-rat", spec))
    for gp, hp in itertools.product(_PAIRS, repeat=2):
        g, h = _with_pair(K, rng, gp), _with_pair(K, rng, hp)
        _check_general_rat_dec(rat_compose(g, h), (*gp, *hp), h)


def test_general_rat_dec_exhaustive_over_gf3(F3):
    # every g o h with deg g = deg h = 2 over GF(3), asked under each
    # quadruple a middle map mu gives it, (g o mu^-1, mu o h).  Affine maps
    # on the left of g and on the right of h keep both degree pairs and
    # carry results along, so g and h run over one of each orbit.
    K = F3
    rats = [
        f
        for pair in [(2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]
        for num in itertools.product(range(3), repeat=pair[0] + 1)
        for den in itertools.product(range(3), repeat=pair[1])
        if num[-1]
        for f in [rat_reduce(Poly(K, num), Poly(K, list(den) + [1]))]
        if f.degree_pair == pair
    ]
    assert len(rats) == 216
    affine = [FracLinear.of_ints(K, c, d, 0, 1) for c in (1, 2) for d in range(3)]
    moebius = [
        FracLinear.of_ints(K, *t)
        for t in itertools.product(range(3), repeat=4)
        if (t[0] * t[3] - t[1] * t[2]) % 3 and next(v for v in t if v) == 1
    ]
    assert len(moebius) == 24
    outer, seen = [], set()
    for g in rats:
        if g not in seen:
            outer.append(g)
            seen.update(flt_apply(a, g) for a in affine)
    inner, seen = [], set()
    for h in rats:
        if _kernel_form(h) not in seen:
            inner.append(h)
            seen.update(_kernel_form(rat_compose(h, a.as_rational())) for a in affine)
    assert (len(outer), len(inner)) == (36, 3)
    for g, h in itertools.product(outer, inner):
        f = rat_compose(g, h)
        quads = {
            (*rat_compose(g, mu.inverse().as_rational()).degree_pair,
             *flt_apply(mu, h).degree_pair)
            for mu in moebius
        }
        for quad in quads:
            _check_general_rat_dec(f, quad, h)
