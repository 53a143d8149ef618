import argparse
import contextlib
import functools
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from polydec import errors
from polydec.addecomp import Decomposition
from polydec.cli import build_parser, main
from polydec.upoly import _CHEBYSHEV_MAX_INDEX, _MAX_DIVISORS

from conftest import TOWER


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@functools.cache
def _subcommands():
    """Subcommand name -> its argument parser."""
    parser = build_parser()
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _takes_json(command):
    return "--json" in _subcommands()[command]._option_string_actions


def test_meet_worked_example(capsys):
    code, out, _ = run(
        capsys, "meet", "--field", "GF(3)", "x^27+2*x^9+x^3+2*x", "x^9+x^3+x"
    )
    assert code == 0 and out.strip() == "x^3+2*x"


def test_join_worked_example(capsys):
    code, out, _ = run(
        capsys, "join", "--field", "GF(3)", "x^27+2*x^9+x^3+2*x", "x^9+x^3+x"
    )
    assert code == 0 and out.strip() == "x^81+x^27+2*x^9+x^3+x"


def test_decompose_no_decomposition_exits_1(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--field", "GF(5)", "--strategy", "sep",
        "--shape", "5,5", "x^25+x^5+x",
    )
    assert code == 1 and "no decomposition" in out


def test_decompose_wild_pairs(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--field", "GF(5)", "--strategy", "sep",
        "--shape", "25,5", "x^125+x^25+x^5+x",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "(x^25+x) o (x^5+x)" in lines
    code, out, _ = run(
        capsys,
        "decompose", "--field", "GF(5)", "--strategy", "sep", "--limit", "1",
        "--shape", "25,5", "x^125+x^25+x^5+x",
    )
    assert code == 0 and out.splitlines() == lines[:1]


def test_decompose_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--field", "GF(5)", "--strategy", "sep", "--json",
        "--shape", "25,5", "x^125+x^25+x^5+x",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 3
    for rec in payload:
        assert set(rec) == {"target", "field", "factors", "complete"}
        assert rec["field"] == "GF(5)"
        assert rec["target"] == "x^125+x^25+x^5+x"
        assert len(rec["factors"]) == 2


def test_compose_and_assert_additive(capsys):
    code, out, _ = run(
        capsys, "compose", "--field", "GF(5)", "x^25+x", "x^5+x"
    )
    assert code == 0 and out.strip() == "x^125+x^25+x^5+x"
    code, _out, err = run(
        capsys, "compose", "--field", "GF(5)", "--assert-additive", "x^2+x", "x"
    )
    assert code == 2 and "p-power" in err


def test_similar_true_and_false(capsys):
    code, out, _ = run(capsys, "similar", "--field", "GF(2)", "x^2+x", "x^2+x")
    assert code == 0 and out.startswith("true witness=")
    code, out, _ = run(capsys, "similar", "--field", "GF(2)", "x^2", "x^2+x")
    assert code == 1 and out.strip() == "false"


def test_similar_expn_4_answers_quickly_and_deterministically(capsys):
    # x^16+g1*x^8+... is transform(x^2+x, x^16+g1*x^4+x^2+x) over GF(4)
    argv = ["similar", "--field", "GF(2^2)", "x^16+g1*x^8+x^4+x^2+(g1+1)*x", "x^16+g1*x^4+x^2+x"]
    start = time.monotonic()
    code, out, _ = run(capsys, *argv)
    assert time.monotonic() - start < 5
    assert code == 0 and out.startswith("true witness=")
    assert run(capsys, *argv) == (code, out, "")


def test_transmute(capsys):
    code, out, _ = run(capsys, "transmute", "--field", "GF(2)", "x^2", "x^2")
    assert code == 1 and "no transmutation" in out
    code, out, _ = run(capsys, "transmute", "--field", "GF(5)", "x^5+3*x", "x^5+2*x")
    assert code in (0, 1)


def test_counts(capsys):
    code, out, _ = run(capsys, "counts", "2", "2", "1")
    assert code == 0 and out.strip() == "S=3 T=3 F=3"


def test_chebyshev(capsys):
    code, out, _ = run(capsys, "chebyshev", "--field", "GF(7)", "3")
    assert code == 0 and out.strip() == "4*x^3+4*x"


def test_minaddmult(capsys):
    code, out, _ = run(capsys, "minaddmult", "--field", "GF(3)", "x+2")
    assert code == 0 and out.strip() == "x^3+2*x"


def test_basis(capsys):
    code, out, _ = run(
        capsys, "basis", "--field", "GF(2)[g1]/(g1^2+g1+1)", "x^4+x"
    )
    assert code == 0 and len(out.strip().splitlines()) == 2
    code, out, _ = run(capsys, "basis", "--field", "GF(2)", "x^4+x")
    assert code == 1 and out == "not completely reducible\n"


def test_all_complete(capsys):
    code, out, _ = run(
        capsys, "all-complete", "--field", "GF(2)[g1]/(g1^2+g1+1)", "x^4+x"
    )
    assert code == 0 and len(out.strip().splitlines()) == 3
    code, out, _ = run(
        capsys, "all-complete", "--field", "GF(2)[g1]/(g1^2+g1+1)",
        "--limit", "2", "x^4+x",
    )
    assert len(out.strip().splitlines()) == 2


def test_complete(capsys):
    code, out, _ = run(capsys, "complete", "--field", "GF(2)", "x^12+x^9+x^6+x^3")
    assert code == 0 and out.strip() == "(x^3) o (x^2+x) o (x^2+x)"


def test_absdec(capsys):
    code, out, _ = run(capsys, "absdec", "--field", "GF(5)", "x^25+x^5+x")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("field: GF(5)[g1]/(")
    code, out, _ = run(capsys, "absdec", "--field", "GF(5)", "--json", "x^25+x^5+x")
    rec = json.loads(out)
    assert rec["complete"] and len(rec["factors"]) == 2


def test_ratdec(capsys):
    code, out, _ = run(
        capsys, "ratdec", "--field", "GF(5)", "--shape", "2,0,2,1",
        "x^4/(x^2+2*x+1)",
    )
    assert code == 0 and out.strip() == "(x^2) o (x^2/(x+1))"
    code, out, _ = run(
        capsys, "ratdec", "--field", "GF(5)", "--shape", "4,0,1,1", "x^4/(x^2+2*x+1)"
    )
    assert code == 1
    # the outer factor's pair is reached only through a middle map 1/(y-w)
    code, out, _ = run(
        capsys, "ratdec", "--field", "GF(5)", "--shape", "2,1,1,2",
        "(x^4+2*x^3+2*x+2)/(x^4+4*x^3+3*x^2+3*x+2)",
    )
    assert code == 0 and out == "((x^2+3*x+4)/(x+4)) o ((x+1)/(x^2+2))\n"


def test_usage_errors_exit_2(capsys):
    code, _out, err = run(capsys, "meet", "--field", "GF(6)", "x", "x")
    assert code == 2 and "error" in err
    code, _out, _err = run(capsys, "nonsense")
    assert code == 2
    code, _out, err = run(capsys, "meet", "--field", "GF(3)", "x^2+x", "x^3")
    assert code == 2  # non-additive input to an additive subcommand


def test_byte_identical_reruns(capsys):
    args = [
        "decompose", "--field", "GF(5)", "--strategy", "sep",
        "--shape", "25,5", "--seed", "9", "x^125+x^25+x^5+x",
    ]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("ok ") >= 20


def test_decompose_irreducible_strategy(capsys):
    code, out, _ = run(
        capsys, "decompose", "--field", "GF(2)", "--strategy", "irred",
        "--shape", "2,2", "x^4+x+1",
    )
    assert code == 0 and out.strip() == "(x^2+x+1) o (x^2+x)"


def test_all_complete_requires_additive_input(capsys):
    code, _out, err = run(capsys, "all-complete", "--field", "GF(2)", "x^3+x")
    assert code == 2 and "p-power" in err


def test_non_monic_input_is_normalized_with_note(capsys):
    code, out, _ = run(
        capsys, "decompose", "--field", "GF(5)", "--strategy", "sep",
        "--shape", "25,5", "2*x^125+2*x^25+2*x^5+2*x",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("note: input scaled by 3")
    assert len(lines) == 4


@pytest.mark.parametrize(
    "argv, complete", [(["decompose", "--shape", "2,2"], False), (["complete"], True)]
)
def test_non_monic_input_under_json_prints_no_note(capsys, argv, complete):
    code, out, err = run(capsys, *argv, "--json", "--field", "GF(5)", "2*x^4+2*x^2+2")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "target": "x^4+x^2+1",
        "field": "GF(5)",
        "factors": ["x^2+x+1", "x^2"],
        "complete": complete,
    }


# a number of 5000 digits, above Python's default int() string limit of 4300
_ONES = "1" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["meet", "--field", "GF(2^0)", "x^2", "x"],
        ["counts", "2", "1", "5"],
        ["counts", "1", "2", "1"],
        ["decompose", "--field", "GF(2)", "--shape", "2,x", "x^4+x"],
        ["chebyshev", "--field", "GF(5)", "--", "-1"],
        ["ratdec", "--field", "GF(5)", "x^4/(x^2+2*x+1)"],
        ["ratdec", "--field", "GF(5)", "--shape", "2,x,1,1", "x^4/(x^2+2*x+1)"],
        ["ratdec", "--field", "GF(5)", "--shape", "2,0,2", "x^4/(x^2+2*x+1)"],
        ["ratdec", "--field", "GF(5)", "--shape", "0,0,0,0", "x^4/(x^2+2*x+1)"],
        ["ratdec", "--field", "GF(5)", "--shape", "2,-1,2,1", "x^4/(x^2+2*x+1)"],
        ["all-complete", "--field", "GF(2)", "--limit", "-1", "x^4+x"],
        ["decompose", "--field", "GF(2)", "--limit", "-1", "--shape", "2,2", "x^4+x"],
        ["meet", "--field", "GF(3317044064679887385961981)", "x", "x"],
        # numbers above the int() string limit, and superscript digits, which
        # are no decimal digits
        ["meet", "--field", "GF(2)", f"x^{_ONES}", "x"],
        ["meet", "--field", "GF(2)", f"{_ONES}*x", "x"],
        ["meet", "--field", f"GF({_ONES})", "x", "x"],
        ["meet", "--field", f"GF(2^{_ONES})", "x", "x"],
        ["meet", "--field", f"GF(2)[a]/(a^2+a+{_ONES})", "x", "x"],
        ["meet", "--field", "GF(\u00b2)", "x", "x"],
        ["meet", "--field", "GF(2^\u00b3)", "x", "x"],
        ["all-complete", "--field", "GF(2)", "x^281474976710656+x"],
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    start = time.monotonic()
    code, _out, err = run(capsys, *argv)
    assert time.monotonic() - start < 5
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err
    if _takes_json(argv[0]):
        # the same error, and one error object on stdout
        code, out, json_err = run(capsys, argv[0], "--json", *argv[1:])
        assert (code, json_err) == (2, err)
        record = json.loads(out)
        assert set(record) == {"error", "type"}
        assert f"error: {record['error']}\n" == err
        assert issubclass(getattr(errors, record["type"]), errors.PolydecError)


_MEET = ["meet", "--field", "GF(2)"]
_RATDEC = ["ratdec", "--field", "GF(5)", "--shape", "2,0,2,1"]


def _spec(field):
    return ["meet", "--field", field, "x", "x"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_MEET + ["x#", "x"], "bad character at '#'"),
        (_MEET + ["x^", "x"], "unexpected end of expression"),
        (_MEET + ["x)", "x"], "trailing tokens at [')']"),
        (_MEET + ["x^x", "x"], "exponent must be a natural number, got 'x'"),
        (_MEET + ["(x+1 x", "x"], "expected ')'"),
        (_MEET + ["", "x"], "empty polynomial expression"),
        (_MEET + ["x/x", "x"], "'/' is not valid inside a polynomial"),
        (_RATDEC + ["x/x/x"], "more than one top-level '/'"),
        (_RATDEC + ["x^2/"], "empty denominator"),
        (_spec("F(2)"), "field spec must start with GF("),
        (_spec("GF(2"), "unbalanced parenthesis in field spec"),
        (_spec("GF(2^a)"), "bad prime power '2^a'"),
        (_spec("GF(a)"), "bad characteristic 'a'"),
        (_spec("GF(2)x"), "trailing junk in field spec: 'x'"),
        (_spec("GF(2)[a]"), "expected /(modulus)"),
        (_spec("GF(2)[a]/(a^2+a+1"), "unbalanced parenthesis in modulus"),
        (_spec("GF(2)["), "missing ']'"),
        (_spec("GF(2)[g1/(g1^2+g1+1)"), "missing ']'"),
        (_spec("GF(2)[x]/(x^2+x+1)"), "generator 'x' must be a name not in x"),
        (_spec("GF(2)[+]/(+^2+++1)"), "generator '+' must be a name not in x"),
        (_spec(f"{TOWER}[g1]/(g1^2+g1+1)"), "generator 'g1' must be a name not in g1, g2, x"),
        # GF(p^1) is the prime field itself
        (["meet", "--field", "GF(5^1)", "x^", "x"], "unexpected end of expression"),
        # an operator where an operand belongs is named as such; a name that
        # is not a generator is an unknown generator
        (["meet", "--field", "GF(5)", "x++x", "x"],
         "expected a number, the variable, a generator or '(', got '+'"),
        (["ratdec", "--field", "GF(5)", "--shape", "2,0,2,1", "/x"],
         "expected a number, the variable, a generator or '(', got '/'"),
        (["meet", "--field", "GF(5)", "x+y", "x"], "unknown generator 'y' in field GF(5)"),
        (_MEET + [f"x^{_ONES}", "x"], "a number of 5000 digits is above the limit 4300"),
        (_spec("GF(2^\u00b3)"), "bad prime power '2^\u00b3': expected a natural number"),
    ],
)
def test_parse_errors_exit_2_with_their_own_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("nu", ["169", "3000", "30000"])
def test_counts_too_large_to_print_exits_2(capsys, nu):
    start = time.monotonic()
    code, out, err = run(capsys, "counts", "2", nu, "1")
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: counts for p=2, nu={nu} may have more than 4300 digits\n"


def test_counts_just_below_the_print_limit_answers(capsys):
    # 2**(168*169/2) has 4274 digits, 2**(169*170/2) has 4325
    code, out, _ = run(capsys, "counts", "2", "168", "1")
    assert code == 0 and len(out.split("F=")[1]) > 4200


def test_compose_above_the_dense_limit_exits_2(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "compose", "--field", "GF(2)", "x^4097", "x^4097")
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: degree 16785409 of g(h) is above the dense limit 16777216\n"


def test_all_complete_above_the_output_limit_exits_2(capsys):
    # x^(2^48)+x over GF(2) has C(32, 16) complete decompositions of 32 factors
    argv = ["all-complete", "--field", "GF(2)", "x^281474976710656+x"]
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: 601080390 complete decompositions of 32 factors are above the limit of"
        " 524288 factors\n"
    )
    code, out, _ = run(capsys, *argv, "--limit", "5")
    assert time.monotonic() - start < 1
    assert code == 0 and len(out.splitlines()) == 5


def test_complete_over_gf2_at_degree_4096_answers(capsys):
    # the distinct-degree scan of the degree-4095 tail runs to d = 2047
    start = time.monotonic()
    code, out, _ = run(capsys, "complete", "--field", "GF(2)", "x^4096+x^7+1")
    assert time.monotonic() - start < 20
    assert (code, out) == (0, "(x^4096+x^7+1)\n")


def test_complete_with_too_many_wild_candidates_exits_2(capsys):
    # the tail x^1023+x^6 has 446,880 monic divisors of degree 511: the
    # candidates of the first shape (2, 512)
    start = time.monotonic()
    code, out, err = run(capsys, "complete", "--field", "GF(2)", "x^1024+x^7+1")
    assert time.monotonic() - start < 5
    assert (code, out) == (2, "")
    assert err == (
        f"error: 446880 monic divisors of degree 511 are above the limit of {_MAX_DIVISORS}\n"
    )


def test_decompose_additive_reads_blocks_of_one_factorisation(capsys):
    # 9 answers behind 90,090 complete decompositions of 13 factors: the
    # sub-multisets of degree 4 of y^5 (y+1)^4 (y^2+y+1)^4
    argv = ["decompose", "--strategy", "additive", "--field", "GF(2)", "--shape", "8192,16",
            "x^131072+x^32"]
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 9
    assert lines[0] == "(x^8192+x^512+x^32) o (x^16+x)"
    assert lines[-1] == "(x^8192+x^2) o (x^16)"


@pytest.mark.parametrize("argv, code, want", [
    (["complete", "--field", "GF(2)", "x^256+x"], 0, " o ".join(["(x^2+x)"] * 8)),
    (["complete", "--field", "GF(2)", "x^1024+x"], 0,
     "(x^2+x) o (x^2+x) o (x^16+x^8+x^4+x^2+x) o (x^16+x^8+x^4+x^2+x)"),
    (["decompose", "--field", "GF(2)", "--shape", "16,32", "x^512+x"], 1, "no decomposition"),
])
def test_additive_input_to_the_wild_search_answers_in_exponent_space(capsys, argv, code, want):
    # the subset search over the factors of x^255+1 ran for more than 100 s
    start = time.monotonic()
    assert run(capsys, *argv) == (code, want + "\n", "")
    assert time.monotonic() - start < 5


def test_additive_strategy_above_the_dense_limit_answers(capsys):
    # degree 2^128 is read as an AdditivePoly and printed without being
    # made dense
    x128 = f"x^{2**128}+x"
    start = time.monotonic()
    code, out, err = run(capsys, "complete", "--strategy", "additive", "--field", "GF(2)", x128)
    assert (code, out, err) == (0, " o ".join(["(x^2+x)"] * 128) + "\n", "")
    argv = ["decompose", "--strategy", "additive", "--field", "GF(2)",
            "--shape", f"{2**64},{2**64}", x128]
    half = f"x^{2**64}+x"
    assert run(capsys, *argv) == (0, f"({half}) o ({half})\n", "")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out) == {
        "target": x128, "field": "GF(2)", "factors": [half, half], "complete": False,
    }
    assert time.monotonic() - start < 5


def test_all_complete_above_the_output_limit_over_a_tower_exits_2(capsys):
    # x^256+x over GF(16) has 771,435 complete decompositions of 8 factors
    # over 1,982 quotients, counted before any is built
    start = time.monotonic()
    code, out, err = run(capsys, "all-complete", "--field", TOWER, "x^256+x")
    assert time.monotonic() - start < 10
    assert (code, out) == (2, "")
    assert err == (
        "error: 771435 complete decompositions of 8 factors are above the limit of"
        " 524288 factors\n"
    )


def test_absdec_names_a_new_level_by_the_first_unused_generator(capsys):
    code, out, _ = run(capsys, "absdec", "--field", "GF(5)[g2]/(g2^2+2)", "x^25+x^5+x")
    assert code == 0
    tower = out.splitlines()[0]
    assert tower == "field: GF(5)[g2]/(g2^2+2)[g1]/(g1^3+3*g1^2+4)"
    code, out, _ = run(capsys, "meet", "--field", tower[len("field: "):], "x^5+g1*x", "x")
    assert (code, out) == (0, "x\n")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import polydec.cli as cli

    builds = []
    real = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(capsys, "counts", "2", "3", "1")[:2] == (0, "S=7 T=7 F=21\n")
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_chebyshev_index_above_the_limit_exits_2(capsys):
    start = time.monotonic()
    index = str(_CHEBYSHEV_MAX_INDEX + 1)
    code, out, err = run(capsys, "chebyshev", "--field", "GF(7)", index)
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: Chebyshev index {index} is above")


def test_meet_with_a_huge_p_power_stays_in_exponent_space(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "meet", "--field", "GF(2)", "x^1099511627776", "x")
    assert (code, out, err) == (0, "x\n", "")
    assert time.monotonic() - start < 1


def test_dense_text_too_large_to_hold_exits_2(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "complete", "--field", "GF(2)", "x^1099511627776+x")
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: degree 1099511627776 is above")


@pytest.mark.parametrize(
    "argv",
    [
        ["meet", "--field", "GF(3)", "(x+1)^1099511627776", "x"],
        ["meet", "--field", "GF(3)", "(x+2)^100000", "x"],
        ["compose", "--field", "GF(5)", "(x+1)^10000000", "x"],
    ],
)
def test_text_products_above_the_sparse_limit_exit_2(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: a product of ")
    assert lines[0].endswith("terms is above the sparse limit 65536")


def test_large_prime_field_answers_quickly(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "meet", "--field", "GF(1000000000000000003)", "x", "x")
    assert time.monotonic() - start < 5
    assert code == 0 and out.strip() == "x"


@pytest.mark.parametrize(
    "shape, target, want",
    [
        (
            "2,1,1,2",
            "(4*x^4+33*x^3+70*x^2+6*x+1)/(x^4+9*x^3+21*x^2+4*x)",
            "((x^2+x+4)/(x+1)) o ((x+1)/(x^2+4*x))",
        ),
        (
            "2,1,2,2",
            "(666666666666666670*x^4+333333333333333335*x^3+5*x^2+333333333333333335*x"
            "+666666666666666673)/(x^4+666666666666666669*x^3+333333333333333338*x^2"
            "+333333333333333335*x+666666666666666672)",
            "((x^2+3)/(x+2)) o ((x^2+x+1)/(x^2+2))",
        ),
    ],
)
def test_ratdec_over_large_prime_field_answers_quickly(capsys, shape, target, want):
    # the middle maps come from the roots of the outer part, not from a
    # scan over the field
    start = time.monotonic()
    code, out, _ = run(
        capsys, "ratdec", "--field", "GF(1000000000000000003)", "--shape", shape, target
    )
    assert time.monotonic() - start < 5
    assert code == 0 and out.strip() == want


def test_ratdec_json(capsys):
    code, out, _ = run(
        capsys, "ratdec", "--json", "--field", "GF(5)", "--shape", "2,0,2,1",
        "x^4/(x^2+2*x+1)",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec == {
        "target": "x^4/(x^2+2*x+1)",
        "field": "GF(5)",
        "factors": ["x^2", "x^2/(x+1)"],
        "complete": False,
    }


def test_empty_result_json_is_empty_list(capsys):
    code, out, _ = run(
        capsys, "ratdec", "--json", "--field", "GF(5)", "--shape", "4,0,1,1",
        "x^4/(x^2+2*x+1)",
    )
    assert code == 1 and json.loads(out) == []
    code, out, _ = run(
        capsys,
        "decompose", "--field", "GF(5)", "--strategy", "sep", "--json",
        "--shape", "5,5", "x^25+x^5+x",
    )
    assert code == 1 and json.loads(out) == []


_DEC = {"target", "field", "factors", "complete"}
_ONE = {"field", "result"}
_F4 = "GF(2)[g1]/(g1^2+g1+1)"
# per subcommand that takes --json: its record kind and argv tails giving
# an answer, an empty result or negative verdict where one exists, and an
# error after parsing
_CONTRACT = {
    "compose": (_ONE, [["--field", "GF(5)", "x^25+x", "x^5+x"], ["--field", "GF(5)", "x^", "x"]]),
    "decompose": (_DEC, [
        ["--field", "GF(5)", "--strategy", "sep", "--shape", "25,5", "x^125+x^25+x^5+x"],
        ["--field", "GF(5)", "--strategy", "sep", "--shape", "5,5", "x^25+x^5+x"],
        ["--field", "GF(2)", "--shape", "2,x", "x^4+x"],
    ]),
    "complete": (_DEC, [["--field", "GF(2)", "x^12+x^9+x^6+x^3"], ["--field", "GF(2)", "x"]]),
    "all-complete": (_DEC, [
        ["--field", _F4, "x^4+x"],
        ["--field", _F4, "--limit", "0", "x^4+x"],
        ["--field", "GF(2)", "x^3+x"],
    ]),
    "meet": (_ONE, [["--field", "GF(3)", "x^27+2*x^9+x^3+2*x", "x^9+x^3+x"],
                    ["--field", "GF(3)", "x^2+x", "x^3"]]),
    "join": (_ONE, [["--field", "GF(3)", "x^27+2*x^9+x^3+2*x", "x^9+x^3+x"],
                    ["--field", "GF(6)", "x", "x"]]),
    "transform": (_ONE, [["--field", "GF(2)", "x^2+x", "x^4+x"],
                         ["--field", "GF(2)", "x^2+x", "x^2+1"]]),
    "similar": (_ONE, [
        ["--field", "GF(2)", "x^2+x", "x^2+x"],
        ["--field", "GF(2)", "x^2", "x^2+x"],
        ["--field", "GF(2)", "x^2", "x^2+x+1"],
    ]),
    "transmute": (_DEC, [
        ["--field", "GF(5)", "x^5+3*x", "x^5+2*x"],
        ["--field", "GF(2)", "x^2", "x^2"],
        ["--field", "GF(2)", "x^4+x", "x^2"],
    ]),
    "minaddmult": (_ONE, [["--field", "GF(3)", "x+2"], ["--field", "GF(3)", "0"]]),
    "basis": (_ONE, [
        ["--field", _F4, "x^4+x"], ["--field", "GF(2)", "x^4+x"], ["--field", "GF(2)", "x^3"],
    ]),
    "chebyshev": (_ONE, [["--field", "GF(7)", "3"], ["--field", "GF(7)", "--", "-1"]]),
    "absdec": (_DEC, [["--field", "GF(5)", "x^25+x^5+x"], ["--field", "GF(2)", "x^16+x"]]),
    "ratdec": (_DEC, [
        ["--field", "GF(5)", "--shape", "2,0,2,1", "x^4/(x^2+2*x+1)"],
        ["--field", "GF(5)", "--shape", "4,0,1,1", "x^4/(x^2+2*x+1)"],
        ["--field", "GF(5)", "--shape", "2,0,2", "x^4/(x^2+2*x+1)"],
    ]),
}


def test_contract_table_covers_every_subcommand_that_takes_json():
    assert set(_CONTRACT) == {cmd for cmd in _subcommands() if _takes_json(cmd)}
    assert not {"counts", "selftest"} & set(_CONTRACT)


@pytest.mark.parametrize(
    "command, kind, tail",
    [
        pytest.param(cmd, kind, tail, id=f"{cmd}-{i}")
        for cmd, (kind, tails) in _CONTRACT.items()
        for i, tail in enumerate(tails)
    ],
)
def test_json_output_contract(capsys, monkeypatch, command, kind, tail):
    """Under --json stdout is one JSON document of the subcommand's record
    kind, with text mode's exit code; each mode formats only its own way."""
    calls = []
    for name in ("to_json_dict", "__str__"):
        real = getattr(Decomposition, name)
        monkeypatch.setattr(
            Decomposition, name,
            lambda d, real=real, name=name: calls.append(name) or real(d),
        )
    code, text_out, text_err = run(capsys, command, *tail)
    assert "to_json_dict" not in calls
    calls.clear()
    json_code, out, err = run(capsys, command, "--json", *tail)
    assert "__str__" not in calls
    assert (json_code, err) == (code, text_err)
    payload = json.loads(out)
    if code == 2:
        assert set(payload) == {"error", "type"} and text_out == ""
        assert text_err == f"error: {payload['error']}\n"
    elif code == 1:
        assert payload == []
    else:
        assert code == 0
        records = payload if isinstance(payload, list) else [payload]
        assert len(records) == len(text_out.splitlines()) - (command == "absdec")
        assert all(set(rec) == kind for rec in records)
        assert len(records) > 1 or isinstance(payload, dict)



@pytest.mark.parametrize("command", sorted(_CONTRACT))
def test_json_help_prints_the_help_text_as_one_object(capsys, command):
    code, text, err = run(capsys, command, "--help")
    assert (code, err) == (0, "") and text.startswith(f"usage: polydec {command}")
    assert run(capsys, command, "--json", "--help") == (0, json.dumps({"help": text}) + "\n", "")


_FIELDS = ["GF(2)", "GF(5)", "GF(2^2)", TOWER]
# 4301 to 5000 digits: above Python's default int() string limit
_LONG = st.builds(lambda digit, n: digit * n, st.sampled_from("123456789"), st.integers(4301, 5000))


@st.composite
def _level(draw):
    """One tower level ``[name]/(modulus)``, sometimes malformed: a missing
    ']', an unbalanced modulus, or trailing text after it."""
    name = draw(st.sampled_from(["a", "g2", "x", "", "+"]))
    constant = draw(_LONG if draw(st.integers(0, 5)) == 0 else st.sampled_from("12\u0661"))
    level = f"[{name}]/({name}^2+{name}+{constant})"
    flaw = draw(st.sampled_from(["none", "none", "none", "no ]", "no )", "junk"]))
    if flaw == "no ]":
        return level.replace("]", "", 1)
    if flaw == "no )":
        return level[:-1]
    if flaw == "junk":
        return level + draw(st.sampled_from(["x", "+1", "(", ")", "]"]))
    return level


@st.composite
def _field_spec(draw):
    """Mostly a field from _FIELDS; else a spec from a small grammar with
    superscript, non-ASCII and long numbers and malformed levels."""
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(_FIELDS))
    head = draw(st.sampled_from(["2", "5", "2^2", "3^0", "\u0662", "\u00b2", "2^\u00b3", "a"]))
    if draw(st.integers(0, 5)) == 0:
        head = draw(_LONG | _LONG.map("2^{}".format))
    return f"GF({head})" + "".join(draw(st.lists(_level(), max_size=2)))


_ADDITIVE = ["all-complete", "basis", "absdec", "meet", "join", "transform", "similar", "transmute"]
# exponents of up to 3 digits go where the work stays small: additive input
# over a prime field is either rejected at parse time or kept in exponent
# space; everything else works on dense polynomials of that degree, and
# factoring one of degree a few hundred takes seconds to minutes
_SMALL = st.one_of(st.sampled_from([1, 2, 4, 8, 16]), st.integers(0, 16))
_WIDE = st.one_of(
    st.sampled_from([1, 2, 4, 5, 8, 16, 25, 64, 125, 256, 512, 625]), st.integers(0, 999)
)


@st.composite
def _polynomial_text(draw, exponents):
    """Text and degree; one text in ten may have long numbers in its
    coefficient and exponent slots, which count as degree 0."""
    coefficients = st.sampled_from([1, 2, 3, 9])
    if draw(st.integers(0, 9)) == 0:
        coefficients, exponents = coefficients | _LONG, exponents | _LONG
    terms = draw(st.lists(
        st.tuples(st.sampled_from("+-"), coefficients, exponents), min_size=1, max_size=3,
    ))
    text = "".join(f"{sign}{c}*x^{e}" for sign, c, e in terms)
    return text.lstrip("+"), max(e if isinstance(e, int) else 0 for _s, _c, e in terms)


@st.composite
def _additive_text(draw, field):
    """Monic additive text over ``field``: x^(p^n) and up to three lower
    terms c*x^(p^k).  n reaches 9 over GF(2), else 4: the exponents stay
    within _WIDE over the prime fields and within _SMALL over extensions
    (x^16+x over GF(16) has 315 complete decompositions, x^256+x has
    about 5e12)."""
    p = 5 if field == "GF(5)" else 2
    n = draw(st.integers(1, 9 if field == "GF(2)" else 4))
    generator = ["g1"] if field in ("GF(2^2)", TOWER) else []
    terms = draw(st.lists(
        st.tuples(st.sampled_from("+-"), st.sampled_from(["1", "2", "3", "9"] + generator),
                  st.integers(0, n - 1)),
        max_size=3,
    ))
    return f"x^{p**n}" + "".join(f"{sign}{c}*x^{p**k}" for sign, c, k in terms)


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(
        _ADDITIVE + ["compose", "decompose", "complete", "minaddmult", "ratdec", "counts", "chebyshev"]
    ))
    if cmd == "counts":
        return [cmd] + [str(draw(st.integers(-1, 5))) for _ in range(3)]
    field = draw(_field_spec())
    argv = [cmd, "--field", field]
    for flag in ("--json", "--assert-additive"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 3)))]
    if cmd == "chebyshev":
        index = draw(_LONG if draw(st.integers(0, 9)) == 0 else st.integers(-1, 60))
        return argv + ["--", str(index)]
    # a leading '-' reads as an option unless '--' comes first
    end_of_options = ["--"] if draw(st.booleans()) else []
    wide = cmd in _ADDITIVE and field in ("GF(2)", "GF(5)")
    # three draws in four give an additive subcommand additive text, so
    # that most of them reach an answer rather than a parse error
    if cmd in _ADDITIVE and draw(st.integers(0, 3)):
        text = draw(_additive_text(field))
        if cmd in ("all-complete", "basis", "absdec"):
            return argv + end_of_options + [text]
        return argv + end_of_options + [text, draw(_additive_text(field))]
    text, degree = draw(_polynomial_text(_WIDE if wide else _SMALL))
    if cmd in ("decompose", "complete"):
        argv += ["--strategy", draw(st.sampled_from(["tame", "sep", "irred", "additive"]))]
    if cmd in ("decompose", "all-complete") and draw(st.booleans()):
        argv += ["--limit", str(draw(st.integers(-1, 3)))]
    if cmd == "decompose":
        good = [f"{d},{degree // d}" for d in range(2, degree) if degree % d == 0]
        argv += ["--shape", draw(st.sampled_from(good + ["2,2", "3,x", "1,4", ""]))]
    if cmd == "ratdec":
        quad = draw(st.one_of(
            st.lists(st.integers(0, 3), min_size=4, max_size=4),
            st.lists(st.integers(-1, 3), min_size=3, max_size=5),
        ))
        quad = ",".join(map(str, quad))
        text = f"({text})/({draw(_polynomial_text(_SMALL))[0]})"
        return argv + ["--shape", quad] + end_of_options + [text]
    if cmd in ("compose", "meet", "join", "transform", "similar", "transmute"):
        second = draw(_polynomial_text(_WIDE if wide else _SMALL))[0]
        return argv + end_of_options + [text, second]
    return argv + end_of_options + [text]


@given(_argv())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_argv_grammar_never_raises(argv):
    # each draw takes at most about a second; 5 s flags a grammar change
    # that lets a dense factorisation of high degree in
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.monotonic() - start < 5
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error:"))
    if "--json" in argv:
        # one JSON document, an error object on exit 2; only a usage error
        # that argparse raises before argv is parsed prints nothing
        if code == 2 and not out.getvalue():
            assert lines[0].startswith("error: polydec")
        else:
            record = json.loads(out.getvalue())
            assert code != 2 or set(record) == {"error", "type"}
