"""The sparse expression evaluator against the dense oracle, and additive
parsing straight from its exponent map."""

import sys
import time

import pytest

from polydec import (
    AdditivePoly,
    Poly,
    _expr,
    _polyops as po,
    build_prime_field,
    parse_field_spec,
    parse_rational,
)
from polydec._expr import _DENSE_MAX_DEGREE, _SPARSE_MAX_PRODUCT, dense, eval_poly_text, tokenize
from polydec._expr import eval_rational_text
from polydec.errors import DegreeError, NotAdditive, ParseError, PolydecError

from conftest import (
    TOWER,
    eval_poly_text_dense,
    eval_rational_text_split,
    field_of,
    parse_field_spec_by_depth,
    poly_str_by_elt_str,
    seeded_rng,
    tokenize_by_match,
)


def _random_text(rng, names, depth):
    """Sums, products, powers, nested parentheses, unary minus, numbers,
    the variable and the field's generator names."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([str(rng.randrange(13)), "x", "x", *names])
    sub = lambda: _random_text(rng, names, depth - 1)  # noqa: E731
    kind = rng.randrange(6)
    if kind == 0:
        return f"{sub()}{rng.choice('+-')}{sub()}"
    if kind == 1:
        return f"{sub()}*{sub()}"
    if kind == 2:
        return f"({sub()})^{rng.randrange(5)}"
    if kind == 3:
        return f"x^{rng.randrange(12)}{rng.choice('+-')}{sub()}"
    if kind == 4:
        return f"-{sub()}"
    return f"({sub()})"


@pytest.mark.parametrize("spec", [2, 5, "GF(3^2)", TOWER])
def test_sparse_evaluation_matches_dense_oracle(spec):
    K = field_of(spec)
    names = [f"g{i}" for i in range(1, K.height + 1)]
    rng = seeded_rng(f"expr:{spec}")
    for _ in range(300):
        text = _random_text(rng, names, 4)
        want = eval_poly_text_dense(K, text)
        terms = eval_poly_text(K, text, "x")
        assert K.zero() not in terms.values()
        assert dense(K, terms) == want, text
        assert Poly.parse(K, text) == Poly._raw(K, want)


@pytest.mark.parametrize("spec", [2, 3, "GF(2^2)"])
def test_additive_parse_matches_dense_conversion(spec):
    K = field_of(spec)
    names = [f"g{i}" for i in range(1, K.height + 1)]
    rng = seeded_rng(f"expr-additive:{spec}")
    for _ in range(300):
        text = _random_text(rng, names, 3)
        try:
            want = AdditivePoly.from_poly(Poly.parse(K, text))
        except NotAdditive as exc:
            with pytest.raises(NotAdditive) as got:
                AdditivePoly.parse(K, text)
            assert str(got.value) == str(exc)
        else:
            assert AdditivePoly.parse(K, text) == want, text


def test_huge_p_power_parses_at_once():
    F7 = build_prime_field(7)
    start = time.monotonic()
    f = AdditivePoly.parse(F7, "x^40353607+x")
    assert time.monotonic() - start < 0.1
    assert f == AdditivePoly(F7, [1] + [0] * 8 + [1])


def test_non_additive_text_names_the_lowest_offending_exponent():
    F2 = build_prime_field(2)
    with pytest.raises(NotAdditive, match="^term of exponent 3 is not a p-power$"):
        AdditivePoly.parse(F2, "x^1099511627777+x^6+x^3+x")
    with pytest.raises(NotAdditive, match="^term of exponent 0 is not a p-power$"):
        AdditivePoly.parse(F2, "x^2+x+1")
    assert AdditivePoly.parse(F2, "x^3+x^3+x") == AdditivePoly.x(F2)


def test_dense_text_above_the_limit_is_a_degree_error():
    F2 = build_prime_field(2)
    assert _DENSE_MAX_DEGREE == 1 << 24
    too_big = f"degree {_DENSE_MAX_DEGREE + 1} is above the dense limit {_DENSE_MAX_DEGREE}"
    with pytest.raises(DegreeError, match=f"^{too_big}$"):
        dense(F2, {_DENSE_MAX_DEGREE + 1: 1, 0: 1})
    with pytest.raises(DegreeError, match="^degree 1099511627776 is above"):
        Poly.parse(F2, "x^1099511627776+x")
    with pytest.raises(DegreeError):
        parse_rational(F2, "x/(x^1099511627776+1)")
    with pytest.raises(DegreeError):
        parse_field_spec("GF(2)[g]/(g^1099511627776+g+1)")
    start = time.monotonic()
    f = AdditivePoly.parse(F2, "x^1099511627776+x")
    assert time.monotonic() - start < 0.1
    assert f == AdditivePoly(F2, [1] + [0] * 39 + [1])


# token characters, ASCII and other whitespace, characters that start no
# token (one a superscript digit, which is no decimal), and non-ASCII
# decimal digits, which int() reads
_TEXT_CHARS = (
    "x", "g1", "y_2", "7", "42", "^", "*", "+", "-", "(", ")", "/",
    " ", "  ", "\t", "\n", "\u00a0", "\u2003",
    "#", "$", ".", "\u00e9", "\u00b2",
    "\u0663", "\u096d", "\uff10",
)


def _outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_tokenize_matches_the_match_loop():
    rng = seeded_rng("tokenize")
    texts = ["", " ", "x", "x #", "x+\t$", " \u00a0", "x\u0663^\u0663", "\u00b2"]
    texts += ["".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randrange(12))) for _ in range(3000)]
    errors = 0
    for text in texts:
        want = _outcome(tokenize_by_match, text)
        assert _outcome(tokenize, text) == want, repr(text)
        errors += isinstance(want, str)
    assert 0 < errors < len(texts)


def test_non_ascii_digits_read_as_numbers():
    F7 = build_prime_field(7)
    assert tokenize("x\u0663 + \u0664\u0662") == ["x", "\u0663", "+", "\u0664\u0662"]
    assert Poly.parse(F7, "x^\u0663+\u0664\u0662*x") == Poly.parse(F7, "x^3")
    with pytest.raises(ParseError, match="^bad character at ' \u00b2'$"):
        tokenize("x \u00b2")


@pytest.mark.parametrize("text, spec", [
    ("(g1*g2)^5*x^7", TOWER),
    ("(g1*x^2)^3*(g2+x)", TOWER),
    ("(-x)^4", 3),
    ("(-x)^3", 5),
    ("(2*x)^9", 5),
    ("(2*x)^0+(0*x)^3+0^0", 7),
    ("x^1000*(x+1)", 2),
    ("g1^3*x+(g1+1)^4", "GF(3^2)"),
    ("3*(x+2)*x^2*(x-1)", 5),
])
def test_monomial_powers_and_one_term_products_match_dense_oracle(text, spec):
    K = field_of(spec)
    terms = eval_poly_text(K, text, "x")
    assert K.zero() not in terms.values()
    assert dense(K, terms) == eval_poly_text_dense(K, text), text


def test_a_power_of_one_term_forms_no_map_product(monkeypatch):
    K = parse_field_spec(TOWER)
    products = []
    real = _expr._mul
    monkeypatch.setattr(_expr, "_mul", lambda K, a, b: products.append((len(a), len(b)))
                        or real(K, a, b))
    for text in ["x^16384", "g1^3", "(g2)^5", "(-g1)^7", "-x^1099511627776"]:
        eval_poly_text(K, text, "x")
    assert products == []
    eval_poly_text(K, "(g1*g2)^5*x^7", "x")
    assert products == [(1, 1), (1, 1)]


def test_only_products_of_two_many_term_maps_are_capped(monkeypatch):
    F5 = build_prime_field(5)
    monkeypatch.setattr(_expr, "_SPARSE_MAX_PRODUCT", 3)
    for text in ["x*(x^3+x^2+x+1)*3", "2*(x^3+x^2+x+1)*x^4", "-(x+1)*(x^3+1)^0"]:
        assert dense(F5, eval_poly_text(F5, text, "x")) == eval_poly_text_dense(F5, text), text
    with pytest.raises(DegreeError, match="^a product of 2 and 2 terms is above the sparse limit 3$"):
        eval_poly_text(F5, "x*(x+1)*(x+2)", "x")


def _ones(n):
    return "(" + "+".join(f"x^{e}" for e in range(n)) + ")"


def test_a_product_above_the_sparse_limit_is_a_degree_error():
    F3 = build_prime_field(3)
    assert _SPARSE_MAX_PRODUCT == 1 << 16
    f = Poly.parse(F3, f"{_ones(256)}*{_ones(256)}")
    assert f.degree == 510
    message = f"a product of 257 and 256 terms is above the sparse limit {_SPARSE_MAX_PRODUCT}"
    with pytest.raises(DegreeError, match=f"^{message}$"):
        Poly.parse(F3, f"{_ones(257)}*{_ones(256)}")
    # (x^(3^30)+x)^3 = x^(3^31)+x^3 is two terms however large its degree
    f = AdditivePoly.parse(F3, f"(x^{3**30}+x)^3")
    assert f == AdditivePoly(F3, [0, 1] + [0] * 29 + [1])
    start = time.monotonic()
    with pytest.raises(DegreeError, match="^a product of 324 and 324 terms"):
        AdditivePoly.parse(F3, "(x+1)^1099511627776")
    assert time.monotonic() - start < 1


def _random_terms(K, rng):
    """(exponent, rep) pairs in rising order, with zero and unit
    coefficients, unit ones at exponents 0 and 1 included."""
    n = rng.randrange(6)
    z, one = K.zero(), K.one()
    pool = [z, one, one, K.neg(one)] + [K.rand_rep(rng) for _ in range(3)]
    return [(e, rng.choice(pool)) for e in range(n)]


@pytest.mark.parametrize("spec", [2, 3, "GF(3^2)", "GF(2^4)", TOWER])
def test_poly_str_matches_the_elt_str_oracle_and_round_trips(spec):
    K = field_of(spec)
    rng = seeded_rng(f"poly_str:{spec}")
    cases = [[(0, K.one())], [(0, K.zero()), (1, K.one())], [(0, K.one()), (1, K.one())], []]
    cases += [_random_terms(K, rng) for _ in range(300)]
    for terms in cases:
        want = poly_str_by_elt_str(K, terms, "x")
        assert po.poly_str(K, terms, "x") == want
        f = Poly(K, [c for _, c in terms])
        assert str(f) == want
        assert Poly.parse(K, str(f)) == f
        g = AdditivePoly(K, [c for _, c in terms])
        assert AdditivePoly.parse(K, str(g)) == g
        assert str(g) == poly_str_by_elt_str(K, ((K.p**i, c) for i, c in terms), "x")
    if K.height:
        for a in K.elements():
            assert K.elt_str(a) == poly_str_by_elt_str(K.base, enumerate(a), K.gen_name)


def test_natural_reads_what_tokenize_calls_a_number():
    assert [_expr._natural(t) for t in ["0", "007", "\u0663", "\u0664\u0662"]] == [0, 7, 3, 42]
    for text in ["", "\u00b2", " 1", "1 ", "+1", "-1", "1_0", "0x1", "1.0"]:
        with pytest.raises(ParseError, match="^expected a natural number, got "):
            _expr._natural(text)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert _expr._natural("9" * 4300) == 10**4300 - 1
        with pytest.raises(ParseError, match="^a number of 4301 digits is above the limit 4300$"):
            _expr._natural("9" * 4301)
        sys.set_int_max_str_digits(0)  # no limit
        assert _expr._natural("1" + "0" * 5000) == 10**5000
    finally:
        sys.set_int_max_str_digits(saved)


def _long_number(rng):
    """4301 to 5000 digits: above Python's default int() string limit."""
    return str(rng.randrange(1, 10)) + "".join(rng.choice("0123456789")
                                               for _ in range(rng.randrange(4300, 5000)))


def _read(reader, *args):
    """("value", result), ("error", text) for a PolydecError, or
    ("ValueError", text) for the old readers' int() failures."""
    try:
        return "value", reader(*args)
    except PolydecError as exc:
        return "error", str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)


def _both_raise(old, new, text):
    """Checks that both sides give a value or both raise, the new one a
    PolydecError (the old spec reader's ValueError, on superscript digits
    and long numbers, is the traceback this reader mends); True when both
    raise."""
    assert new[0] in ("value", "error"), (text, new)
    if old[0] == "value" or new[0] == "value":
        assert old[0] == new[0] == "value", (text, old, new)
        return False
    return True


def _rational_text(rng, names):
    """Expression text with '/' anywhere: top level, nested, leading,
    trailing and repeated, and some numbers too long to read."""
    pieces = [_random_text(rng, names, rng.randrange(4)) for _ in range(rng.randrange(1, 4))]
    text = "/".join(f"({p})" if rng.random() < 0.5 else p for p in pieces)
    kind = rng.randrange(8)
    if kind == 0:
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + "/" + text[cut:]
    elif kind == 1:
        text = text.replace("x", _long_number(rng), 1)
    elif kind == 2:
        text = rng.choice(["/", "", "(", ")"]) + text + rng.choice(["/", "", ")"])
    return text


@pytest.mark.parametrize("spec", [5, "GF(3^2)", TOWER])
def test_one_pass_rational_parse_matches_the_split_oracle(spec):
    K = field_of(spec)
    names = [f"g{i}" for i in range(1, K.height + 1)]
    rng = seeded_rng(f"ratfun-text:{spec}")
    texts = ["", "/", "x/", "/x", "x//x", "x/x/x", "(x/x)", "x/(x)/", "x^/x", "x/()"]
    texts += [_rational_text(rng, names) for _ in range(800)]
    errors = 0
    for text in texts:
        old = _read(eval_rational_text_split, K, text)
        new = _read(eval_rational_text, K, text, "x")
        if _both_raise(old, new, text):
            errors += 1
        else:
            assert new[1] == old[1], text
    assert min(errors, len(texts) - errors) > len(texts) // 5


_MODULI = {"2": "{n}^2+{n}+1", "3": "{n}^2+1", "5": "{n}^2+2", "2^2": "{n}^3+{n}+1"}


def _spec_text(rng):
    """A field spec from a small grammar, with malformed heads and levels:
    no '(' or ')', non-decimal digits, long numbers, a missing ']', an
    unbalanced modulus and trailing text after it."""
    head = rng.choice([*_MODULI, "7", "3^1", "2^0", "2^3", "6", "a", "", "2^a", "^2",
                       "\u00b2", "2^\u00b3", "\u0663", "\u0662^\u0662", "2^2^2"])
    if rng.random() < 0.05:
        head = _long_number(rng)
    elif rng.random() < 0.05:
        head = f"2^{_long_number(rng)}"
    text = rng.choice(["GF(", "GF(", "GF(", "GF(", "GF", "F("]) + head
    text += rng.choice([")", ")", ")", ")", ")", "", "))"])
    used = []
    for _ in range(rng.randrange(3)):
        n = rng.choice(["a", "b", "g1", "g2", "x", "+", "", "a1", *used[:1]])
        mod = _MODULI.get(head, "{n}^2+{n}+1").format(n=n) + "".join(f"+{m}" for m in used[-1:])
        used.append(n)
        mod = rng.choice([mod, mod, mod, f"({mod})", f"{mod}+{n}^4", "", f"{n}+1)*({n}+1",
                          f"{mod}+{_long_number(rng)}" if rng.random() < 0.1 else mod])
        level = f"[{n}]/({mod})"
        kind = rng.randrange(12)
        if kind == 0:
            level = level.replace("]", "", 1)
        elif kind == 1:
            level = level[:-1]
        elif kind == 2:
            level += rng.choice(["x", "+1", "(", ")", "]", "[", "/(b)"])
        elif kind == 3:
            level = level.replace("/", "", 1)
        elif kind == 4:
            level = level.replace("(", "((", 1)
        text += level
    if rng.random() < 0.2:
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice([" ", "  ", "\t"]) + text[cut:]
    return text


def test_field_spec_reader_matches_the_depth_scan_oracle():
    rng = seeded_rng("field-spec-text")
    texts = ["GF(2)", "GF(2^2)", TOWER, f" {TOWER} ", "GF(2)[a]/(a^2+a+1)x", "GF(\u00b2)",
             "GF(2^\u00b3)", "GF(\u0663)", "GF(2)[a]/((a^2+a+1)", "GF(2)[a]/(a+1)*(a+1)"]
    texts += [_spec_text(rng) for _ in range(1500)]
    outcomes = {"value": 0, "error": 0, "ValueError": 0}
    for text in texts:
        old = _read(parse_field_spec_by_depth, text, 1)
        new = _read(parse_field_spec, text, 1)
        outcomes[old[0]] += 1
        if not _both_raise(old, new, text):
            K, want = new[1], old[1]
            assert K == want and K.describe() == want.describe(), text
            assert getattr(K, "modulus", None) == getattr(want, "modulus", None), text
    assert min(outcomes.values()) > 20, outcomes
