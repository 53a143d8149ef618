"""The sparse expression evaluator against the dense oracle, and additive
parsing straight from its exponent map."""

import time

import pytest

from polydec import AdditivePoly, Poly, build_prime_field, parse_field_spec, parse_rational
from polydec._expr import _DENSE_MAX_DEGREE, dense, eval_poly_text
from polydec.errors import DegreeError, NotAdditive

from conftest import TOWER, eval_poly_text_dense, field_of, seeded_rng


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
