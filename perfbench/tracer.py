"""Per-layer tracing from outside the program.

:meth:`Tracer.install` replaces the public functions and methods of each
polydec module with wrappers, in the module that defines them and in every
module that bound the same object by name (``from .field import
build_extension``).  A wrapper records a span ``[op, parent, layer, name,
start, end]`` in memory.  Field element operations are too frequent for
spans: prime-field ``mul``/``inv`` are only counted, and extension-field
arithmetic is counted and timed without storing a span.  A layer's self time
is the time inside its wrappers minus the time of the wrappers nested in
them; time in unwrapped helpers (prime-field ops, ``_polyops.trim``) counts
for the layer that called them.
"""

from __future__ import annotations

import functools
import sys
from array import array
import types
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer: upoly owns its kernel, cli owns the expression parser
# and the selftest runner
LAYERS = {
    "polydec.field": "field",
    "polydec.upoly": "upoly",
    "polydec._polyops": "upoly",
    "polydec.additive": "additive",
    "polydec.addecomp": "addecomp",
    "polydec.gendecomp": "gendecomp",
    "polydec.ratfun": "ratfun",
    "polydec.cli": "cli",
    "polydec._expr": "cli",
    "polydec.selftest": "cli",
}

# _polyops helpers that run for every coefficient operation: left unwrapped
HOT_FUNCTIONS = {"polydec._polyops": {"trim", "deg", "add", "sub", "neg"}}

# class methods given spans; accessors such as is_zero, coeff and key are
# left out because they are O(1) and called per coefficient
SPAN_METHODS = {
    "polydec.upoly": {
        "Poly": (
            "parse", "monic", "scale", "derivative", "evaluate", "shift_constant",
            "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__divmod__",
            "__floordiv__", "__mod__", "__str__",
        ),
    },
    "polydec.additive": {
        "AdditivePoly": (
            "from_poly", "parse", "p_linear", "to_poly", "monic", "scale",
            "evaluate", "__add__", "__sub__", "__neg__", "__str__",
        ),
    },
    "polydec.addecomp": {
        "OrderedFactorisation": ("parse",),
        "Decomposition": ("as_poly_factors", "to_json_dict", "__str__"),
    },
    "polydec.ratfun": {
        "RationalFunction": ("__str__",),
        "FracLinear": ("inverse", "as_rational"),
    },
}

# field element ops: (class, method) -> counter.  COUNTED ones get no span;
# TIMED ones also add their self time to field.ext_self_s (Field.pow_ runs
# only for extensions, PrimeField overrides it)
COUNTED = {("PrimeField", "mul"): "prime_mul", ("PrimeField", "inv"): "inv"}
TIMED = {
    ("ExtensionField", "mul"): "ext_mul",
    ("ExtensionField", "inv"): "inv",
    ("ExtensionField", "add"): None,
    ("ExtensionField", "sub"): None,
    ("ExtensionField", "neg"): None,
    ("Field", "pow_"): None,
    ("Field", "frobenius_rep"): "frobenius",
}

PARSE_SPANS = {
    "_expr.tokenize", "_expr.eval_poly_text", "_expr.split_rational_text",
    "_expr.eval_rational_text", "cli.build_parser",
}


class Tracer:
    def __init__(self):
        self.op = 0
        # spans, one entry per array: op id, parent span (-1 at the top),
        # name id (an index into self.names), start and end in seconds
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.names = []
        self.stack = []
        self.self_by_name = defaultdict(float)
        self.self_s = defaultdict(float)
        self.incl = defaultdict(float)
        self.calls = Counter()
        self.active = Counter()
        self.counts = Counter()
        self.ext_self = 0.0
        self.parse_s = 0.0
        self._undo = []

    # ------------------------------------------------------------ wrappers

    def _span(self, layer, name, fn):
        tr = self
        hook = _HOOKS.get(name)
        parse_group = name in PARSE_SPANS
        name_id = len(self.names)
        self.names.append(name)
        span_end = self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr.stack
            idx = len(span_end)
            tr.span_op.append(tr.op)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_name.append(name_id)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            active = tr.active
            active[name] += 1
            active[layer] += 1
            if parse_group:
                active["parse"] += 1
            result = exc = None
            t0 = perf_counter()
            tr.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = span_end[idx] = perf_counter()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tr.self_s[layer] += dur - frame[1]
                tr.self_by_name[name] += dur - frame[1]
                active[name] -= 1
                active[layer] -= 1
                tr.calls[name] += 1
                if not active[name]:
                    tr.incl[name] += dur
                if parse_group:
                    active["parse"] -= 1
                    if not active["parse"]:
                        tr.parse_s += dur
                if hook:
                    hook(tr, args, result, exc)

        return wrapper

    def _timed(self, counter, fn):
        tr = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if counter:
                counts[counter] += 1
            stack = tr.stack
            frame = [stack[-1][0] if stack else -1, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                tr.self_s["field"] += own
                tr.ext_self += own

        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every loaded polydec layer module."""
        loaded = {m: sys.modules[m] for m in LAYERS if m in sys.modules}
        replace = {}
        for modname, mod in loaded.items():
            layer = LAYERS[modname]
            short = modname.split(".")[-1]
            skip = HOT_FUNCTIONS.get(modname, set())
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == modname
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    replace[obj] = self._span(layer, f"{short}.{attr}", obj)
            for cls_name, methods in SPAN_METHODS.get(modname, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{short}.{cls_name}.{meth}"
                    self._patch_method(cls, meth, lambda fn: self._span(layer, name, fn))
        field = loaded["polydec.field"]
        for (cls_name, meth), counter in COUNTED.items():
            cls = getattr(field, cls_name)
            self._patch_method(cls, meth, lambda fn: self._counted(counter, fn))
        for (cls_name, meth), counter in TIMED.items():
            cls = getattr(field, cls_name)
            self._patch_method(cls, meth, lambda fn: self._timed(counter, fn))
        # rebind every module-level name that refers to a wrapped function
        targets = [m for n, m in sys.modules.items() if n == "polydec" or n.startswith("polydec.")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replace:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replace[obj])

    def _patch_method(self, cls, meth, make):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((cls, meth, raw))
        setattr(cls, meth, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def begin_op(self, op_id):
        self.op = op_id
        # an op cut short by its time budget may leave frames behind
        self.stack.clear()
        self.active.clear()

    # ------------------------------------------------------------ metrics

    def metrics(self):
        c, calls, incl, s = self.counts, self.calls, self.incl, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0

        irf_calls = calls["addecomp.indec_right_factors"]
        return {
            "field.prime_mul_calls": (c["prime_mul"], "count"),
            "field.ext_mul_calls": (c["ext_mul"], "count"),
            "field.frobenius_calls": (c["frobenius"], "count"),
            "field.inv_calls": (c["inv"], "count"),
            "field.ext_self_s": (self.ext_self, "s"),
            "field.parse_spec_s": (incl["field.parse_field_spec"], "s"),
            "upoly.factor_calls": (calls["upoly.factor"], "count"),
            "upoly.factor_s": (incl["upoly.factor"], "s"),
            "upoly.factor_deg_sum": (c["factor_deg_sum"], "count"),
            "upoly.factor_deg_max": (c["factor_deg_max"], "count"),
            "upoly.self_s": (s["upoly"], "s"),
            "upoly.right_divide_calls": (calls["upoly.right_divide"], "count"),
            "upoly.right_divide_hit_ratio": (
                ratio(c["right_divide_hits"], calls["upoly.right_divide"]), "ratio"),
            "upoly.gcd_calls": (calls["upoly.gcd"], "count"),
            "upoly.gcd_deg_sum": (c["gcd_deg_sum"], "count"),
            "additive.to_poly_calls": (calls["additive.AdditivePoly.to_poly"], "count"),
            "additive.to_poly_deg_sum": (c["to_poly_deg_sum"], "count"),
            "additive.rdivrem_calls": (calls["additive.add_rdivrem"], "count"),
            "additive.right_quotient_hit_ratio": (
                ratio(c["right_quotient_hits"], calls["additive.right_quotient"]), "ratio"),
            "additive.meet_s": (incl["additive.meet"], "s"),
            "additive.join_s": (incl["additive.join"], "s"),
            "additive.min_add_mult_s": (incl["additive.min_add_mult"], "s"),
            "additive.str_s": (incl["additive.AdditivePoly.__str__"], "s"),
            "additive.self_s": (s["additive"], "s"),
            "addecomp.indec_right_factors_calls": (irf_calls, "count"),
            "addecomp.indec_right_factors_s": (incl["addecomp.indec_right_factors"], "s"),
            "addecomp.candidates": (ratio(c["irf_candidates"], irf_calls), "count/call"),
            "addecomp.kept_ratio": (ratio(c["irf_kept"], c["irf_candidates"]), "ratio"),
            "addecomp.self_s": (s["addecomp"], "s"),
            "gendecomp.calls": (
                sum(n for k, n in calls.items() if k.startswith("gendecomp.")), "count"),
            "gendecomp.candidates": (c["gen_candidates"], "count"),
            "gendecomp.hit_ratio": (ratio(c["gen_hits"], c["gen_candidates"]), "ratio"),
            "gendecomp.self_s": (s["gendecomp"], "s"),
            "ratfun.norm_rat_dec_calls": (calls["ratfun.norm_rat_dec"], "count"),
            "ratfun.candidates": (c["rat_candidates"], "count"),
            "ratfun.hit_ratio": (ratio(c["rat_hits"], c["rat_candidates"]), "ratio"),
            "ratfun.self_s": (s["ratfun"], "s"),
            "cli.main_calls": (calls["cli.main"], "count"),
            "cli.self_s": (s["cli"], "s"),
            "cli.parse_s": (self.parse_s, "s"),
            "cli.exit2": (c["exit2"], "count"),
            "cli.uncaught": (c["uncaught"], "count"),
        }


def _degree(poly):
    return len(poly.coeffs) - 1 if poly.coeffs else 0


def _factor(tr, args, result, exc):
    deg = _degree(args[0])
    tr.counts["factor_deg_sum"] += deg
    tr.counts["factor_deg_max"] = max(tr.counts["factor_deg_max"], deg)


def _gcd(tr, args, result, exc):
    tr.counts["gcd_deg_sum"] += max(_degree(args[0]), _degree(args[1]))


def _right_divide(tr, args, result, exc):
    hit = exc is None and result is not None
    tr.counts["right_divide_hits"] += hit
    if tr.active["gendecomp"]:
        tr.counts["gen_candidates"] += 1
        tr.counts["gen_hits"] += hit


def _to_poly(tr, args, result, exc):
    self = args[0]
    if self.coeffs:
        tr.counts["to_poly_deg_sum"] += self.field.p ** (len(self.coeffs) - 1)


def _right_quotient(tr, args, result, exc):
    tr.counts["right_quotient_hits"] += exc is None and result is not None


def _min_add_mult(tr, args, result, exc):
    if tr.active["addecomp.indec_right_factors"]:
        tr.counts["irf_candidates"] += 1


def _indec_right_factors(tr, args, result, exc):
    if result is not None:
        tr.counts["irf_kept"] += len(result)


def _rat_right_divide(tr, args, result, exc):
    if tr.active["ratfun.norm_rat_dec"]:
        tr.counts["rat_candidates"] += 1
        tr.counts["rat_hits"] += exc is None and result is not None


def _main(tr, args, result, exc):
    if exc is not None and isinstance(exc, Exception):
        tr.counts["uncaught"] += 1
    elif result == 2:
        tr.counts["exit2"] += 1


_HOOKS = {
    "upoly.factor": _factor,
    "upoly.gcd": _gcd,
    "upoly.right_divide": _right_divide,
    "additive.AdditivePoly.to_poly": _to_poly,
    "additive.right_quotient": _right_quotient,
    "additive.min_add_mult": _min_add_mult,
    "addecomp.indec_right_factors": _indec_right_factors,
    "ratfun.rat_right_divide": _rat_right_divide,
    "cli.main": _main,
}
