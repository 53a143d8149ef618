import itertools
import math

import pytest

from polydec import (
    AdditivePoly,
    addecomp,
    Felt,
    Poly,
    add_compose,
    gendecomp,
    Strategy,
    upoly,
    compose,
    find_irreducible,
    first_complete,
    irred_ff_bidecomp,
    is_irreducible,
    ord_fact_decomp,
    sep_bidecomp,
    tame_bidecomp,
)
from polydec.errors import (
    DegreeError,
    ExponentBoundExceeded,
    NotIrreducible,
    NotTame,
    ProductMismatch,
)

from conftest import (
    TOWER,
    additive_part_by_scan,
    field_of,
    first_complete_irred_by_rebuilds,
    irred_ff_bidecomp_by_full_product,
    ordered_shapes,
    rand_poly,
    seeded_rng,
)


def test_tame_bidecomp_examples(F5, F7):
    f = Poly.parse(F7, "x^6+2*x^4+x^2")
    assert tame_bidecomp(f, (2, 3)) == (Poly.parse(F7, "x^2"), Poly.parse(F7, "x^3+x"))
    assert tame_bidecomp(Poly.parse(F7, "x^6"), (2, 3)) == (
        Poly.parse(F7, "x^2"),
        Poly.parse(F7, "x^3"),
    )
    # no decomposition: candidate inner factor exists but right division fails
    g = Poly.parse(F5, "x^6+x^2+1")
    assert tame_bidecomp(g, (2, 3)) is None
    with pytest.raises(NotTame):
        tame_bidecomp(Poly.parse(F5, "x^10"), (5, 2))


def test_sep_bidecomp_wild_examples(F2, F5):
    f = Poly.parse(F5, "x^125+x^25+x^5+x")
    got = {(str(g), str(h)) for g, h in sep_bidecomp(f, (25, 5))}
    assert got == {
        ("x^25+x", "x^5+x"),
        ("x^25+3*x^5+2*x", "x^5+3*x"),
        ("x^25+4*x^5+3*x", "x^5+2*x"),
    }
    assert sep_bidecomp(Poly.parse(F5, "x^25+x^5+x"), (5, 5)) == []
    dw = Poly.parse(F2, "x^12+x^9+x^6+x^3")
    pairs = sep_bidecomp(dw, (4, 3))
    assert (Poly.parse(F2, "x^4+x^3+x^2+x"), Poly.parse(F2, "x^3")) in pairs
    for g, h in pairs:
        assert compose(g, h) == dw and h.coeff(0).is_zero() and g.is_monic()


def test_irred_ff_bidecomp_gf2_quartics(F2):
    quartics = [
        Poly(F2, list(c) + [1])
        for c in itertools.product(range(2), repeat=4)
        if is_irreducible(Poly(F2, list(c) + [1]))
    ]
    assert len(quartics) == 3
    decomposable = 0
    for f in quartics:
        got = irred_ff_bidecomp(f, (2, 2))
        via_sep = sep_bidecomp(f, (2, 2))
        if got is None:
            assert via_sep == []
        else:
            decomposable += 1
            assert via_sep == [got]
    assert decomposable == 1


def test_irred_ff_bidecomp_gf3_quartics_agree_with_sep(F3):
    for c in itertools.product(range(3), repeat=4):
        f = Poly(F3, list(c) + [1])
        if not is_irreducible(f):
            continue
        got = irred_ff_bidecomp(f, (2, 2))
        via_sep = sep_bidecomp(f, (2, 2))
        assert (got is None and via_sep == []) or via_sep == [got]


def test_irred_ff_bidecomp_errors(F2):
    with pytest.raises(NotIrreducible):
        irred_ff_bidecomp(Poly.parse(F2, "x^4+x^2"), (2, 2))
    f = Poly.parse(F2, "x^4+x+1")
    with pytest.raises(DegreeError):
        irred_ff_bidecomp(f, (4, 1))


def _planted_irreducible(K, rng, shape):
    """A seeded irreducible chain g_1(g_2(...)) of the given shape, with
    monic factors over K, the inner ones with zero constant term."""
    while True:
        f = rand_poly(K, rng, shape[0], monic=True)
        for s in shape[1:]:
            f = compose(f, rand_poly(K, rng, s, monic=True, zero_const=True))
        if is_irreducible(f):
            return f


@pytest.mark.parametrize("spec, degrees, planted", [
    ("GF(5)", (4, 6, 8, 9, 12), [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 3)]),
    ("GF(13)", (4, 6, 8, 18), [(2, 2), (3, 2), (2, 3), (3, 6)]),
    ("GF(3^2)", (4, 6, 8), [(2, 2), (2, 3), (3, 2), (2, 4)]),
])
def test_irred_ff_bidecomp_trace_exit_matches_the_full_product(spec, degrees, planted):
    """The block method that stops when the trace of alpha to F_(q**r) is
    not in F gives the pairs of the one that multiplies the whole vanishing
    polynomial out, on every shape of seeded irreducibles and of planted
    decomposable ones."""
    K = field_of(spec)
    rng = seeded_rng(("trace exit", spec))
    cases = [Poly(K, find_irreducible(K, n, seed)) for n in degrees for seed in range(3)]
    cases += [_planted_irreducible(K, rng, shape) for shape in planted for _ in range(2)]
    found = 0
    for f in cases:
        n = f.degree
        for r in range(2, n // 2 + 1):
            if n % r == 0:
                got = irred_ff_bidecomp(f, (r, n // r))
                assert got == irred_ff_bidecomp_by_full_product(f, (r, n // r)), (str(f), r)
                found += got is not None
    assert found >= len(planted)


@pytest.mark.parametrize("spec, n, shapes", [
    ("GF(13)", 18, [(3, 6), (2, 9), (6, 3), (2, 3, 3)]),
    ("GF(5)", 12, [(2, 6), (3, 4), (2, 2, 3)]),
])
def test_first_complete_irreducible_builds_one_extension_per_level(spec, n, shapes, monkeypatch):
    """Under the block method first_complete builds F[z]/(f) once, for the
    top level, where it built one per shape after a separate
    irreducibility test, and returns the same factors.  It recurses under
    SEPARATED: a normal inner factor h has x | h, so the block method
    cannot apply to it."""
    K = field_of(spec)
    rng = seeded_rng(("one extension per level", spec))
    cases = [Poly(K, find_irreducible(K, n, seed)) for seed in range(2)]
    cases += [_planted_irreducible(K, rng, shape) for shape in shapes]
    cases += [rand_poly(K, rng, n, monic=True)]
    want = [first_complete_irred_by_rebuilds(f) for f in cases]
    builds, levels = [], []
    real_build, real_first = gendecomp.build_extension, gendecomp.first_complete
    monkeypatch.setattr(gendecomp, "build_extension",
                        lambda *args: builds.append(args) or real_build(*args))
    monkeypatch.setattr(gendecomp, "first_complete",
                        lambda f, strategy: levels.append((f.degree, strategy))
                        or real_first(f, strategy))
    for f, factors in zip(cases, want):
        builds.clear()
        levels.clear()
        assert gendecomp.first_complete(f, Strategy.IRREDUCIBLE_FF).factors == factors
        assert len(builds) == 1
        assert [strategy for _m, strategy in levels] == (
            [Strategy.IRREDUCIBLE_FF] + [Strategy.SEPARATED] * (len(levels) - 1))
    assert sum(len(factors) > 1 for factors in want) >= len(shapes)


@pytest.mark.parametrize("spec, shape", [
    ("GF(3)", (2, 2, 2)), ("GF(5)", (2, 3, 2)), ("GF(3^2)", (2, 2, 2)),
])
def test_block_method_builds_one_extension_per_level(spec, shape, monkeypatch):
    """irred_ff_bidecomp builds F[z]/(f) once, and ord_fact_decomp under
    the block method at a three-entry shape once for f and once for each
    outer factor it recurses on, on planted and on random irreducibles."""
    K = field_of(spec)
    rng = seeded_rng(("block builds", spec))
    n = math.prod(shape)
    cases = [_planted_irreducible(K, rng, shape) for _ in range(3)]
    cases += [Poly(K, find_irreducible(K, n, seed)) for seed in range(2)]
    builds = []
    real = gendecomp.build_extension
    monkeypatch.setattr(gendecomp, "build_extension",
                        lambda *args: builds.append(args[1]) or real(*args))
    planted = 0
    for f in cases:
        builds.clear()
        got = irred_ff_bidecomp(f, (n // shape[-1], shape[-1]))
        assert builds == [f]
        builds.clear()
        decs = ord_fact_decomp(f, shape, Strategy.IRREDUCIBLE_FF)
        assert builds == [f] + ([got[0]] if got else [])
        planted += bool(decs)
    assert planted >= 3


def test_ord_fact_decomp_examples(F2, F3, F7):
    f = Poly.parse(F7, "x^8")
    decs = ord_fact_decomp(f, (2, 2, 2), Strategy.TAME)
    assert [d.factors for d in decs] == [(Poly.parse(F7, "x^2"),) * 3]
    whole = ord_fact_decomp(f, (8,))
    assert [d.factors for d in whole] == [(f,)]
    dw = Poly.parse(F2, "x^12+x^9+x^6+x^3")
    decs = ord_fact_decomp(dw, (3, 2, 2), Strategy.SEPARATED)
    assert decs
    for d in decs:
        acc = d.factors[0]
        for g in d.factors[1:]:
            acc = compose(acc, g)
        assert acc == dw
    with pytest.raises(ProductMismatch):
        ord_fact_decomp(dw, (3, 2), Strategy.SEPARATED)
    with pytest.raises(NotTame):
        ord_fact_decomp(Poly.parse(F3, "x^9"), (3, 3), Strategy.TAME)


def test_ord_fact_decomp_additive_strategy(F5):
    f = Poly.parse(F5, "x^125+x^25+x^5+x")
    decs = ord_fact_decomp(f, (25, 5), Strategy.ADDITIVE)
    got = {(str(d.factors[0]), str(d.factors[1])) for d in decs}
    assert got == {
        ("x^25+x", "x^5+x"),
        ("x^25+3*x^5+2*x", "x^5+3*x"),
        ("x^25+4*x^5+3*x", "x^5+2*x"),
    }


def test_first_complete_examples(F2, F3, F5):
    assert first_complete(Poly.parse(F3, "x^8")).factors == (Poly.parse(F3, "x^2"),) * 3
    dw = Poly.parse(F2, "x^12+x^9+x^6+x^3")
    dec = first_complete(dw)
    acc = dec.factors[0]
    for g in dec.factors[1:]:
        acc = compose(acc, g)
    assert acc == dw and dec.complete
    # deterministic: repeated runs give byte-identical output
    assert str(first_complete(dw)) == str(dec)
    add = first_complete(Poly.parse(F2, "x^8+x^4+x^2+x"), Strategy.ADDITIVE)
    assert str(add) == "(x^2+x) o (x^2+x) o (x^2+x)" and add.complete
    # an indecomposable input comes back whole
    f = Poly.parse(F5, "x^6+x^2+1")
    if all(
        sep_bidecomp(f, (a, 6 // a)) == [] for a in (2, 3)
    ):
        assert first_complete(f).factors == (f,)


def test_first_complete_factors_are_indecomposable(F2):
    dw = Poly.parse(F2, "x^12+x^9+x^6+x^3")
    dec = first_complete(dw)
    for g in dec.factors:
        n = int(g.degree)
        for d in range(2, n):
            if n % d:
                continue
            assert sep_bidecomp(g, (d, n // d)) == []


@pytest.mark.parametrize("spec", ["GF(7)", "GF(3^2)"])
def test_tame_roundtrip_and_uniqueness(spec):
    from polydec import parse_field_spec

    K = parse_field_spec(spec)
    rng = seeded_rng(("tame", spec))
    shapes = [(r, s) for r in (2, 4, 5) for s in (2, 3, 4) if r % K.p != 0]
    done = 0
    while done < 30:
        r, s = shapes[done % len(shapes)]
        g = rand_poly(K, rng, r, monic=True)
        h = rand_poly(K, rng, s, monic=True, zero_const=True)
        f = compose(g, h)
        assert tame_bidecomp(f, (r, s)) == (g, h)
        assert sep_bidecomp(f, (r, s)) == [(g, h)]
        done += 1


def test_first_complete_irreducible_strategy_recurses_cleanly(F2):
    dec = first_complete(Poly.parse(F2, "x^4+x+1"), Strategy.IRREDUCIBLE_FF)
    assert [str(g) for g in dec.factors] == ["x^2+x+1", "x^2+x"]


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(2^2)", "GF(3^2)"])
def test_sep_bidecomp_equals_tame_when_p_does_not_divide_r(spec):
    """The normal tame decomposition is unique, so the subset search, the
    oracle of the tame route of sep_bidecomp, finds exactly the tame pair,
    or nothing with it; half the inputs are planted."""
    from polydec import parse_field_spec

    K = parse_field_spec(spec)
    rng = seeded_rng(("sep-tame", spec))
    shapes = [(r, s) for r in (2, 3, 4, 5) for s in (2, 3) if r % K.p != 0]
    hits = 0
    for trial in range(24):
        r, s = shapes[trial % len(shapes)]
        if trial % 2:
            g = rand_poly(K, rng, r, monic=True)
            f = compose(g, rand_poly(K, rng, s, monic=True, zero_const=True))
        else:
            f = rand_poly(K, rng, r * s, monic=True)
        tame = tame_bidecomp(f, (r, s))
        want = [] if tame is None else [tame]
        assert gendecomp._sep_pairs(f, s, gendecomp._tail_factors(f)) == want, str(f)
        assert sep_bidecomp(f, (r, s)) == want, str(f)
        hits += tame is not None
    assert hits >= 12


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(7)", "GF(3^2)"])
def test_sep_bidecomp_at_a_tame_shape_factors_nothing(spec, monkeypatch):
    """A tame shape is answered by the recurrence; a wild one still factors."""
    K = field_of(spec)
    factored = []
    real = upoly.factor
    monkeypatch.setattr(upoly, "factor", lambda f: factored.append(f) or real(f))
    rng = seeded_rng(("sep tame no factor", spec))
    r = next(r for r in (2, 3, 4) if r % K.p)
    for planted in (False, True):
        if planted:
            f = compose(rand_poly(K, rng, r, monic=True),
                        rand_poly(K, rng, 4, monic=True, zero_const=True))
        else:
            f = rand_poly(K, rng, 4 * r, monic=True)
        assert len(sep_bidecomp(f, (r, 4))) == planted
    assert factored == []
    f = rand_poly(K, rng, K.p * 2, monic=True)
    sep_bidecomp(f, (K.p, 2))
    assert len(factored) == 1


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(2^2)", TOWER], ids=str)
def test_additive_part_matches_the_top_down_scan(spec):
    """_additive_part, read bottom up by AdditivePoly._from_terms, against
    the scan from the top: dense random inputs, planted additive and affine
    ones, additive ones with one nonzero coefficient just below the top,
    and sparse additive text of degree about 2**20."""
    K = field_of(spec)
    rng = seeded_rng(("additive part", spec))
    p = K.p
    cases = [rand_poly(K, rng, n, monic=True) for n in (1, 2, p, p * p, 12, 30)]
    for expn in (1, 2, 3):
        a = _rand_additive(K, expn, rng)
        if expn > 1:
            a = add_compose(_rand_additive(K, 1, rng), _rand_additive(K, expn - 1, rng))
            top = a.to_poly()
            cases.append(top + Poly.monomial(K, top.degree - 1, Felt(K, _nonzero(K, rng))))
        cases += [a.to_poly(), a.to_poly().shift_constant(Felt(K, _nonzero(K, rng)))]
    e = 20 if p == 2 else 12
    cases += [Poly.parse(K, f"x^{p**e}+x^{p**5}+x+1"), Poly.parse(K, f"x^{p**e}+x^{p**e - 1}+x")]
    additive = 0
    for f in cases:
        got, want = gendecomp._additive_part(f), additive_part_by_scan(f)
        assert (got and got.coeffs) == (want and want.coeffs), str(f)[:80]
        additive += got is not None
    # the six planted additive or affine inputs and the first sparse text
    # are additive; the three with a term just below the top and degree
    # 30 are not
    assert additive >= 7 and len(cases) - additive >= 4


def _nonzero(K, rng):
    while (c := K.rand_rep(rng)) == K.zero():
        pass
    return c


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(2^2)"])
def test_first_complete_reads_the_additive_part_once_per_level(spec, monkeypatch):
    """Every wild shape of one level reads one scan of f's coefficients
    for its additive part; planted inputs have several levels."""
    K = field_of(spec)
    read = []
    real = gendecomp._additive_part
    monkeypatch.setattr(gendecomp, "_additive_part", lambda f: read.append(f) or real(f))
    rng = seeded_rng(("additive part once", spec))
    p = K.p
    inputs = [rand_poly(K, rng, n, monic=True) for n in (12, 18)]
    inputs.append(compose(rand_poly(K, rng, 2 * p, monic=True),
                          rand_poly(K, rng, 2 * p, monic=True, zero_const=True)))
    inputs.append(_affine_inputs(K, 3, rng)[1])
    levels = 0
    for f in inputs:
        read.clear()
        first_complete(f)
        assert read and len(read) == len(set(read)), str(f)
        levels += len(read) > 1
    assert levels >= 1


@pytest.mark.parametrize("spec", ["GF(2)", "GF(2^2)", "GF(3)"])
def test_first_complete_factors_each_level_once(spec, monkeypatch):
    """Every wild shape of one level reads one factorisation of
    (f - f(0))/x."""
    K = field_of(spec)
    factored = []
    real = upoly.factor
    monkeypatch.setattr(upoly, "factor", lambda f: factored.append(f) or real(f))
    rng = seeded_rng(("first complete factors once", spec))
    for n in (12, 18):  # two or more wild shapes each
        f = rand_poly(K, rng, n, monic=True)
        factored.clear()
        first_complete(f)
        assert factored and len(factored) == len(set(factored))


def _rand_additive(K, expn, rng):
    return AdditivePoly(K, [K.rand_rep(rng) for _ in range(expn)] + [K.one()])


def _affine_inputs(K, expn, rng):
    """Seeded monic a + c, a additive of exponent expn and c zero in every
    other input: random a, and a planted as a composition."""
    out = []
    for i in range(12):
        a = _rand_additive(K, expn, rng)
        if i % 3 == 2:
            k = rng.randrange(1, expn)
            a = add_compose(_rand_additive(K, expn - k, rng), _rand_additive(K, k, rng))
        c = K.rand_rep(rng) if i % 2 else K.zero()
        out.append(a.to_poly().shift_constant(Felt(K, c)))
    return out


@pytest.mark.parametrize("spec, max_expn", [
    ("GF(2)", 5), ("GF(3)", 3), ("GF(5)", 2), ("GF(2^2)", 3), ("GF(3^2)", 2), (TOWER, 2),
])
def test_affine_inputs_match_the_subset_search(spec, max_expn, monkeypatch):
    """Additive and affine inputs, answered from the additive part in
    exponent space, give the pairs, ordered decompositions and first
    complete decomposition of the subset search over the factors of
    (f - f(0))/x, at every shape."""
    K = field_of(spec)
    p = K.p
    rng = seeded_rng(("affine inputs", spec))
    cases = [(f, n) for n in range(2, max_expn + 1) for f in _affine_inputs(K, n, rng)]

    def answers():
        return [
            (
                [sep_bidecomp(f, (p**k, p ** (n - k))) for k in range(1, n)],
                [ord_fact_decomp(f, shape) for shape in ordered_shapes(p, n)],
                first_complete(f),
            )
            for f, n in cases
        ]

    got = answers()
    with monkeypatch.context() as m:
        m.setattr(gendecomp, "_additive_part", lambda f: None)
        want = answers()
    assert got == want
    assert all(gendecomp._additive_part(f) is not None for f, _n in cases)
    assert sum(len(dec.factors) > 1 for _pairs, _decs, dec in got) >= len(cases) // 3


def test_affine_inputs_past_the_walk_bound_raise(monkeypatch):
    """Over GF(p**e) the pairs of an affine input come from the walk of the
    quotient graph alone: past its node bound sep_bidecomp raises, with no
    subset search."""
    K = field_of("GF(2^2)")
    f = Poly.parse(K, "x^16+x+g1")
    shapes = [(2, 8), (4, 4), (8, 2)]
    with monkeypatch.context() as m:
        m.setattr(gendecomp, "_additive_part", lambda f: None)
        want = [sep_bidecomp(f, shape) for shape in shapes]
    assert all(want)
    searched = []
    real = gendecomp._sep_pairs
    monkeypatch.setattr(gendecomp, "_sep_pairs", lambda *a: searched.append(a) or real(*a))
    assert [sep_bidecomp(f, shape) for shape in shapes] == want
    monkeypatch.setattr(addecomp, "_WALK_MAX_NODES", 1)
    for shape in shapes:
        with pytest.raises(ExponentBoundExceeded, match="more than 1 quotients to walk"):
            sep_bidecomp(f, shape)
    assert not searched
