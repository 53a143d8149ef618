"""Replays the bundled worked-example corpus.

The corpus lives in ``data/selftest_corpus.json`` as plain data (field
spec, inputs, expected outputs per record) so that implementations in
other languages can share the same file.
"""

from __future__ import annotations

import json
from importlib import resources

from . import addecomp, additive, gendecomp, upoly
from .additive import AdditivePoly
from .errors import DependentBasis
from .field import parse_field_spec
from .gendecomp import Strategy
from .upoly import Poly


def load_corpus():
    text = resources.files("polydec").joinpath("data/selftest_corpus.json").read_text()
    return json.loads(text)


def _check_rdivrem(rec, field):
    f = AdditivePoly.parse(field, rec["inputs"][0])
    g = AdditivePoly.parse(field, rec["inputs"][1])
    q, r = additive.add_rdivrem(f, g)
    return str(q) == rec["expect"]["q"] and str(r) == rec["expect"]["r"]


def _check_meet(rec, field):
    f = AdditivePoly.parse(field, rec["inputs"][0])
    g = AdditivePoly.parse(field, rec["inputs"][1])
    return str(additive.meet(f, g)) == rec["expect"]["result"]


def _check_join(rec, field):
    f = AdditivePoly.parse(field, rec["inputs"][0])
    g = AdditivePoly.parse(field, rec["inputs"][1])
    j = additive.join(f, g)
    if str(j) != rec["expect"]["result"]:
        return False
    for outer_text, inner_text in rec["expect"].get("verify", []):
        outer = AdditivePoly.parse(field, outer_text)
        inner = AdditivePoly.parse(field, inner_text)
        if additive.add_compose(outer, inner) != j:
            return False
    return True


def _check_compose(rec, field):
    polys = [Poly.parse(field, t) for t in rec["inputs"]]
    acc = polys[0]
    for f in polys[1:]:
        acc = upoly.compose(acc, f)
    return str(acc) == rec["expect"]["result"]


def _check_decompose(rec, field):
    f = Poly.parse(field, rec["input"])
    shape = addecomp.OrderedFactorisation.parse(rec["shape"])
    decs = gendecomp.ord_fact_decomp(f, shape, Strategy(rec["strategy"]))
    got = {tuple(str(x) for x in d.factors) for d in decs}
    expect = rec["expect"]
    if expect.get("empty"):
        return not got
    if expect.get("nonempty"):
        return bool(got)
    if "pairs" in expect:
        return got == {tuple(pair) for pair in expect["pairs"]}
    if "contains" in expect:
        return all(tuple(pair) in got for pair in expect["contains"])
    return False


def _check_chebyshev(rec, field):
    return str(upoly.chebyshev(rec["index"], field)) == rec["expect"]["result"]


def _check_cheb_compose(rec, field):
    for spec in rec["fields"]:
        k = parse_field_spec(spec)
        n = rec["max_index"]
        ts = [upoly.chebyshev(i, k) for i in range(n * n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                if upoly.compose(ts[i], ts[j]) != ts[i * j]:
                    return False
    return True


def _check_generator_relation(rec, field):
    pairs = [(rec["lhs"], rec["rhs"])] + [tuple(x) for x in rec.get("also", [])]
    for lhs, rhs in pairs:
        if Poly.parse(field, lhs) != Poly.parse(field, rhs):
            return False
    return True


def _check_right_factors(rec, field):
    f = AdditivePoly.parse(field, rec["input"])
    got = {str(g) for g in addecomp.indec_right_factors(f)}
    return all(want in got for want in rec["expect"]["contains"])


def _check_all_complete_count(rec, field):
    f = AdditivePoly.parse(field, rec["input"])
    return len(addecomp.all_complete_decompositions(f)) == rec["expect"]["count"]


def _check_counts(rec, field):
    for case in rec["cases"]:
        got = additive.counts(case["p"], case["nu"], case["sigma"])
        if list(got) != case["expect"]:
            return False
    return True


def _check_similar(rec, field):
    f = AdditivePoly.parse(field, rec["inputs"][0])
    g = AdditivePoly.parse(field, rec["inputs"][1])
    return additive.is_similar(f, g)[0] == rec["expect"]["flag"]


def _check_transmute_count(rec, field):
    f = AdditivePoly.parse(field, rec["inputs"][0])
    g = AdditivePoly.parse(field, rec["inputs"][1])
    return len(additive.transmutable(f, g)) == rec["expect"]["count"]


def _check_minaddmult(rec, field):
    f = Poly.parse(field, rec["input"])
    return str(additive.min_add_mult(f)) == rec["expect"]["result"]


def _check_no_linear_factors(rec, field):
    f = Poly.parse(field, rec["input"])
    parts, _ = upoly.factor(f)
    return all(g.degree > 1 for g, _m in parts)


def _check_absdec_root(rec, field):
    f = AdditivePoly.parse(field, rec["input"])
    tower, dec = addecomp.abs_decompose(f)
    phi = Poly.parse(tower, rec["phi"])
    beta = dec.factors[-1].coeff(0)  # innermost factor x^p - a*x stores -a = beta
    return phi.evaluate(beta).is_zero()


def _check_scaled_kernel(rec, field):
    from .field import Felt, build_extension, find_irreducible

    ext = build_extension(field, find_irreducible(field, rec["ext_degree"]))
    eps = ext.gen()
    scaled = [eps * Felt(ext, ext.embed(r)) for r in field.elements() if r != field.zero()]
    basis = [scaled[0]]
    for cand in scaled[1:]:
        try:
            additive.KernelBasis(basis + [cand])
            basis.append(cand)
        except DependentBasis:
            continue
    f = additive.from_kernel_basis(basis)
    decs = addecomp.all_complete_decompositions(f)
    if len(decs) != rec["expect"]["count"]:
        return False
    if rec["expect"].get("permutation_inequivalent"):
        seen = [set(d.factors) for d in decs]
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                if seen[i] == seen[j]:
                    return False
    return True


def _check_normalize_case(rec, field):
    from . import ratfun

    f = ratfun.parse_rational(field, rec["input"])
    lam, fbar = ratfun.normalize(f)
    ok = True
    if rec["expect"].get("monic"):
        ok = ok and fbar.is_monic()
    if rec["expect"].get("positive_gap"):
        ok = ok and fbar.delta > 0
    if rec["expect"].get("roundtrip"):
        ok = ok and ratfun.flt_apply(lam.inverse(), fbar) == f
    return ok


_CHECKS = {
    "rdivrem": _check_rdivrem,
    "meet": _check_meet,
    "join": _check_join,
    "compose": _check_compose,
    "decompose": _check_decompose,
    "chebyshev": _check_chebyshev,
    "cheb_compose": _check_cheb_compose,
    "generator_relation": _check_generator_relation,
    "right_factors_contains": _check_right_factors,
    "all_complete_count": _check_all_complete_count,
    "counts": _check_counts,
    "similar": _check_similar,
    "transmute_count": _check_transmute_count,
    "minaddmult": _check_minaddmult,
    "no_linear_factors": _check_no_linear_factors,
    "absdec_root": _check_absdec_root,
    "scaled_kernel_decompositions": _check_scaled_kernel,
    "normalize_case": _check_normalize_case,
}


def run_selftest():
    """Run every corpus record.  Returns the report, one (field, line) pair
    per line, field the describe() of the record's field or None, and the
    number of failed records: a record gets one ok/FAIL line, and a crash
    one more line before it; a summary line follows when any failed."""
    lines, failures = [], 0
    for rec in load_corpus():
        field = parse_field_spec(rec["field"]) if "field" in rec else None
        spec = None if field is None else field.describe()
        try:
            ok = _CHECKS[rec["op"]](rec, field)
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            lines.append((spec, f"FAIL {rec['id']}: {exc!r}"))
        if ok:
            lines.append((spec, f"ok   {rec['id']}: {rec['note']}"))
        else:
            failures += 1
            lines.append((spec, f"FAIL {rec['id']}: {rec['note']}"))
    if failures:
        lines.append((None, f"{failures} corpus record(s) failed"))
    return lines, failures
