"""Command-line surface: ``polydec <subcommand> ...``.

Exit codes: 0 for an answer, 1 for an empty result ("no decomposition",
or a negative verdict such as ``similar`` false), 2 for usage or input
errors.  Each subcommand that takes ``--json`` prints its results through
``_emit``, which formats each item once: a text line each, or under
``--json`` one record each (a bare object for one item, a list for
several, ``[]`` for none).  A decomposition's record is ``{"target",
"field", "factors", "complete"}``, any other result's is ``{"field",
"result"}``.  Under ``--json`` an input error found after argv is parsed
also prints ``{"error", "type"}`` on stdout, and no ``note:`` line is
printed; ``--json --help`` prints the help text as ``{"help"}``.
``counts`` and ``selftest``, which have no polynomial result, print
``{"field", "result"}`` records of their text lines, ``field`` null where
no field applies.  Identical argv and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import addecomp, additive, gendecomp, ratfun, upoly
from .additive import AdditivePoly
from ._expr import parse_int_list
from .addecomp import Decomposition, OrderedFactorisation
from .errors import DegreeError, NotAdditive, ParseError, PolydecError
from .field import parse_field_spec
from .gendecomp import Strategy
from .upoly import Poly


def _field_of(args):
    if not args.field:
        raise ParseError("--field is required for this subcommand")
    return parse_field_spec(args.field, seed=args.seed)


def _poly(args, field, text):
    f = Poly.parse(field, text)
    if args.assert_additive:
        AdditivePoly.from_poly(f)
    return f


def _decomposition_input(args, field):
    """The input of decompose and complete.  Under --strategy additive,
    additive text is read in exponent space, so its degree has no dense
    limit; any other text is read densely."""
    if args.strategy == Strategy.ADDITIVE.value:
        try:
            return AdditivePoly.parse(field, args.expr)
        except NotAdditive:
            pass  # the dense reading reports it in its own order
    return _poly(args, field, args.expr)


def _shape(args):
    """The --shape entries as a list of ints."""
    if not args.shape:
        raise ParseError("--shape is required for this subcommand")
    return parse_int_list(args.shape)


def _emit(args, items, record, text, empty):
    """Print each item once: ``record(item)`` under --json (one object for
    one item, a list otherwise), else ``text(item)`` a line each, or the
    ``empty`` line when there are none.  Returns 1 exactly when empty."""
    if args.json:
        records = [record(item) for item in items]
        print(json.dumps(records[0] if len(records) == 1 else records, sort_keys=True))
    else:
        print("\n".join(map(text, items)) if items else empty)
    return 0 if items else 1


def _emit_decs(args, decs):
    return _emit(args, decs, Decomposition.to_json_dict, str, "no decomposition")


def _result(value):
    """The record of a single result: a polynomial and its field."""
    return {"field": value.field.describe(), "result": str(value)}


def _emit_result(args, value):
    return _emit(args, [value], _result, str, None)


def _cmd_compose(args):
    field = _field_of(args)
    polys = [_poly(args, field, t) for t in args.exprs]
    return _emit_result(args, functools.reduce(upoly.compose, polys))


def _monicized(args, f):
    """Scale to monic; in text mode, note the adjustment (f = c * target)."""
    if f.is_monic() or f.is_zero():
        return f
    if not args.json:
        c = f.lc()
        print(f"note: input scaled by {c.inv()} to make it monic (f = {c} * target)")
    return f.monic()


def _cmd_decompose(args):
    field = _field_of(args)
    shape = OrderedFactorisation(_shape(args))
    strategy = Strategy(args.strategy)
    if args.limit is not None and args.limit < 0:
        raise ParseError("--limit must be >= 0")
    f = _monicized(args, _decomposition_input(args, field))
    return _emit_decs(args, gendecomp.ord_fact_decomp(f, shape, strategy)[: args.limit])


def _cmd_complete(args):
    f = _monicized(args, _decomposition_input(args, _field_of(args)))
    return _emit_decs(args, [gendecomp.first_complete(f, Strategy(args.strategy))])


def _additive(args):
    return AdditivePoly.parse(_field_of(args), args.expr)


def _cmd_all_complete(args):
    decs = addecomp.all_complete_decompositions(_additive(args), limit=args.limit)
    return _emit_decs(args, decs)


def _additive_pair(args):
    field = _field_of(args)
    return [AdditivePoly.parse(field, text) for text in args.exprs]


def _ring_op(name):
    """A subcommand emitting ``additive.<name>`` of its two inputs."""
    return lambda args: _emit_result(args, getattr(additive, name)(*_additive_pair(args)))


def _cmd_similar(args):
    flag, witness = additive.is_similar(*_additive_pair(args))
    return _emit(args, [witness] if flag else [], _result, "true witness={}".format, "false")


def _cmd_transmute(args):
    """Each pair (gbar, fbar) is a decomposition of f o g = gbar o fbar."""
    f, g = _additive_pair(args)
    pairs = additive.transmutable(f, g)
    fg = additive.add_compose(f, g)
    decs = [Decomposition(fg, pair) for pair in pairs]
    return _emit(args, decs, Decomposition.to_json_dict, str, "no transmutation")


def _cmd_minaddmult(args):
    return _emit_result(args, additive.min_add_mult(Poly.parse(_field_of(args), args.expr)))


def _cmd_basis(args):
    basis = addecomp.indec_basis(_additive(args))
    return _emit(args, basis or [], _result, str, "not completely reducible")


def _cmd_counts(args):
    p, nu, limit = args.p, args.nu, sys.get_int_max_str_digits()
    # S, T <= F <= p**(nu(nu+1)/2): F has nu factors (p**k - 1)/(p - 1) <= p**k
    if limit and p >= 2 and 0 <= args.sigma <= nu and nu * (nu + 1) // 2 >= limit / math.log10(p):
        raise DegreeError(f"counts for p={p}, nu={nu} may have more than {limit} digits")
    counts = "S={} T={} F={}".format(*additive.counts(p, nu, args.sigma))
    return _emit(args, [counts], lambda c: {"field": None, "result": c}, str, None)


def _cmd_chebyshev(args):
    return _emit_result(args, upoly.chebyshev(args.index, _field_of(args)))


def _cmd_absdec(args):
    tower, dec = addecomp.abs_decompose(_additive(args))
    return _emit(
        args, [dec], Decomposition.to_json_dict, lambda d: f"field: {tower.describe()}\n{d}", None
    )


def _cmd_ratdec(args):
    field = _field_of(args)
    quad = _shape(args)
    if len(quad) != 4:
        raise ParseError("ratdec shape must be rN,rD,sN,sD")
    f = ratfun.parse_rational(field, args.expr)

    def record(pair):
        factors = [str(h) for h in pair]
        return {"target": str(f), "field": field.describe(), "factors": factors, "complete": False}

    pairs = ratfun.general_rat_dec(f, quad)
    return _emit(args, pairs, record, lambda pair: "({}) o ({})".format(*pair), "no decomposition")


def _cmd_selftest(args):
    from .selftest import run_selftest

    lines, failures = run_selftest()
    _emit(args, lines, lambda fl: {"field": fl[0], "result": fl[1]}, lambda fl: fl[1], None)
    return 1 if failures else 0


class _HelpAction(argparse._HelpAction):
    """--help; after --json, the help text as one JSON object {"help"}."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, "json", False):
            print(json.dumps({"help": parser.format_help()}, sort_keys=True))
            parser.exit()
        super().__call__(parser, namespace, values, option_string)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ParseError, so they print one error: line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, add_help=False, **kwargs)
        self.add_argument("-h", "--help", action=_HelpAction, default=argparse.SUPPRESS,
                          help="show this help message and exit")

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser():
    parser = _ArgumentParser(
        prog="polydec",
        description="Exact functional decomposition of polynomials over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, shape=False, strategy=False, limit=False, nexprs=0, expr=False):
        p.add_argument("--field", help="field spec, e.g. GF(5) or GF(2)[g1]/(g1^2+g1+1)")
        p.add_argument(
            "--seed", type=int, default=0,
            help="picks the auto-chosen GF(p^e) modulus; factoring uses a fixed internal seed",
        )
        p.add_argument("--json", action="store_true")
        p.add_argument("--assert-additive", action="store_true", dest="assert_additive")
        if shape:
            p.add_argument("--shape", help="comma-separated degrees, outermost first")
        if strategy:
            p.add_argument(
                "--strategy",
                choices=[s.value for s in Strategy],
                default=Strategy.SEPARATED.value,
            )
        if limit:
            p.add_argument("--limit", type=int, default=None)
        if expr:
            p.add_argument("expr")
        if nexprs:
            p.add_argument("exprs", nargs=nexprs)

    p = sub.add_parser("compose", help="compose polynomials, outermost first")
    common(p)
    p.add_argument("exprs", nargs="+")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("decompose", help="all decompositions matching a shape")
    common(p, shape=True, strategy=True, limit=True, expr=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("complete", help="first complete decomposition")
    common(p, strategy=True, expr=True)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("all-complete", help="all complete decompositions (additive)")
    common(p, limit=True, expr=True)
    p.set_defaults(func=_cmd_all_complete)

    for name, fn, help_text in [
        ("meet", _ring_op("meet"), "greatest common right composition factor"),
        ("join", _ring_op("join"), "least common left composition multiple"),
        ("transform", _ring_op("transform"), "transformation of the second input by the first"),
        ("similar", _cmd_similar, "similarity test with witness"),
        ("transmute", _cmd_transmute, "all transmutations of f by g"),
    ]:
        p = sub.add_parser(name, help=help_text)
        common(p, nexprs=2)
        p.set_defaults(func=fn)

    p = sub.add_parser("minaddmult", help="minimal additive multiple")
    common(p, expr=True)
    p.set_defaults(func=_cmd_minaddmult)

    p = sub.add_parser("basis", help="indecomposable basis (completely reducible)")
    common(p, expr=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("counts", help="subspace/extension/flag counts")
    p.add_argument("--json", action="store_true")
    p.add_argument("p", type=int)
    p.add_argument("nu", type=int)
    p.add_argument("sigma", type=int)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("chebyshev", help="Chebyshev polynomial over the field")
    common(p)
    p.add_argument("index", type=int)
    p.set_defaults(func=_cmd_chebyshev)

    p = sub.add_parser("absdec", help="absolute decomposition over a tower")
    common(p, expr=True)
    p.set_defaults(func=_cmd_absdec)

    p = sub.add_parser("ratdec", help="rational function decomposition")
    common(p, shape=True, expr=True)
    p.set_defaults(func=_cmd_ratdec)

    p = sub.add_parser("selftest", help="replay the bundled worked-example corpus")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _parser():
    """build_parser(), once per process: building it takes milliseconds."""
    return build_parser()


def main(argv=None):
    args = None  # a usage error leaves it unset, and prints no JSON
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except PolydecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "json", False):
            print(json.dumps({"error": str(exc), "type": type(exc).__name__}, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
