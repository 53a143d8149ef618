"""The benchmark's four workloads.

Each workload is a fixed mix of (field, size, operation) entries.  One pass
runs each entry as often as the mix says, on problems drawn from a generator
seeded by ``(workload, seed, pass)``; the seed picks only coefficients,
never the mix.  An operation is an :class:`Op`: ``call`` is the timed request,
``check`` the oracle run afterwards, and ``render`` the printed output that
goes into the run's digest.

Checks recompose and divide with :mod:`oracle`, which uses field element
arithmetic only, so they do not trust the layers being measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracle

TOWER = "GF(2)[g1]/(g1^2+g1+1)[g2]/(g2^2+g2+g1)"


@dataclass
class Op:
    mix: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    render: Callable[[object], str]
    known_defect: bool = False


class Workload:
    """A mix of operations over fields built once during set-up."""

    name = ""
    specs: tuple = ()
    modules = ("polydec",)
    budget_s = 20.0
    trace_passes = 1

    def __init__(self, pd, fields, seed):
        self.pd = pd
        self.fields = fields
        self.seed = seed

    def pass_ops(self, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        return self.ops(rng)

    def ops(self, rng):
        raise NotImplementedError


def _rand_vec(K, n, rng):
    """n random coefficients followed by 1 (a monic coefficient list)."""
    return [K.rand_rep(rng) for _ in range(n)] + [K.one()]


def _simple_vec(K, n, rng):
    """Random monic additive vector with a nonzero x coefficient.

    Such an input is simple: none of it peels off as x^p, so every one pays
    for factoring its whole dense expansion, and costs vary less by seed.
    """
    c = _rand_vec(K, n, rng)
    while c[0] == K.zero():
        c[0] = K.rand_rep(rng)
    return c


def _indec_factor(K, expn, rng):
    """Random simple monic indecomposable additive vector of exponent 1 or 2.

    x^(p^2) + a x^p + b x has the right factor x^p - c x exactly when
    c^(p+1) + a c + b = 0, so exponent-2 draws with such a c are redrawn.
    """
    z = K.zero()
    while True:
        c = _simple_vec(K, expn, rng)
        if expn == 1:
            return c
        b, a = c[0], c[1]
        if all(
            K.add(K.add(K.pow_(t, K.p + 1), K.mul(a, t)), b) != z
            for t in K.elements()
        ):
            return c


def _fail_unless(cond, reason):
    return None if cond else reason


# ---------------------------------------------------------------- additive


class AdditiveDecomp(Workload):
    name = "additive-decomp"
    specs = ("GF(2)", "GF(3)", "GF(5)", "GF(2^2)", "GF(3^2)")
    budget_s = 30.0
    trace_passes = 3
    # Random inputs stay at sizes whose worst case is a fraction of a second;
    # the largest sizes are planted from simple indecomposable factors.  Over
    # GF(2) those factors are unique, so the GF(2) inputs are fixed and cost
    # the same in every pass.  The counts put each quantile inside a block of
    # such ops, not at the edge of a cluster: the p90 among the eight GF(2)
    # expn 8 ops (with the two costlier ones, over a tenth of all ops), the
    # median among the twelve GF(2) expn 5 ops.
    # (field, expn, planted factor exponents or None for random, op, per pass)
    MIX = (
        ("GF(2)", 6, None, "irf", 3),
        ("GF(2)", 7, None, "cd", 3),
        ("GF(3)", 3, None, "acd", 6),
        ("GF(3)", 4, None, "irf", 3),
        ("GF(5)", 2, None, "ord", 6),
        ("GF(2^2)", 3, None, "cd", 12),
        ("GF(2^2)", 4, None, "irf", 3),
        ("GF(3^2)", 2, None, "acd", 6),
        ("GF(2)", 9, (2, 1, 2, 1, 2, 1), "irf", 1),
        ("GF(2)", 8, (2, 1, 2, 1, 2), "irf", 1),
        ("GF(2)", 8, (2, 1, 2, 1, 2), "acd", 1),
        ("GF(2)", 8, (2, 1, 2, 1, 2), "ord", 1),
        ("GF(2)", 8, (1, 1, 2, 2, 2), "cd", 1),
        ("GF(2)", 8, (1, 1, 2, 2, 2), "acd", 1),
        ("GF(2)", 8, (1, 1, 2, 2, 2), "ord", 1),
        ("GF(2)", 8, (2, 2, 2, 2), "cd", 1),
        ("GF(2)", 8, (2, 2, 2, 2), "acd", 1),
        ("GF(2)", 6, (2, 1, 2, 1), "ord", 1),
        ("GF(2)", 5, (2, 1, 2), "ord", 12),
        ("GF(3)", 5, (1, 1, 1, 1, 1), "irf", 1),
        ("GF(3)", 4, (2, 1, 1), "acd", 1),
        ("GF(5)", 3, (1, 1, 1), "irf", 1),
        ("GF(5)", 2, (1, 1), "acd", 1),
        ("GF(2^2)", 4, (2, 1, 1), "acd", 1),
        ("GF(2^2)", 3, (1, 2), "ord", 2),
        ("GF(3^2)", 3, (1, 1, 1), "irf", 1),
        ("GF(3^2)", 2, (1, 1), "cd", 1),
    )

    def ops(self, rng):
        return [
            self._op(rng, spec, expn, pattern, kind)
            for spec, expn, pattern, kind, count in self.MIX
            for _ in range(count)
        ]

    def _op(self, rng, spec, expn, pattern, kind):
        pd = self.pd
        K = self.fields[spec]
        if pattern is None:
            planted = None
            coeffs = _simple_vec(K, expn, rng)
        else:
            planted = [_indec_factor(K, e, rng) for e in pattern]
            coeffs = oracle.add_chain(K, planted)
        f = pd.AdditivePoly(K, coeffs)
        p = K.p
        mix = f"{kind} {spec} expn {expn} {'planted' if planted else 'random'}"

        def recomposes(dec):
            return oracle.add_chain(K, [list(g.coeffs) for g in dec.factors]) == list(
                f.coeffs
            )

        def complete_ok(dec):
            if not recomposes(dec):
                return "result does not recompose to f"
            if planted and sorted(g.expn for g in dec.factors) != sorted(pattern):
                return "complete decomposition lengths differ from the planted chain"
            return None

        if kind == "irf":

            def check(res):
                for g in res:
                    q, r = pd.add_rdivrem(f, g)
                    if r.coeffs or oracle.add_compose(K, q.coeffs, g.coeffs) != list(
                        f.coeffs
                    ):
                        return "right factor does not right-divide f"
                if planted and planted[-1] not in [list(g.coeffs) for g in res]:
                    return "planted innermost factor missing"
                return None

            return Op(mix, lambda: pd.indec_right_factors(f), check, _lines)
        if kind == "cd":
            return Op(
                mix, lambda: pd.complete_decomposition(f), complete_ok, str
            )
        if kind == "acd":

            def check(res):
                for dec in res:
                    bad = complete_ok(dec)
                    if bad:
                        return bad
                got = [[list(g.coeffs) for g in dec.factors] for dec in res]
                if planted and planted not in got:
                    return "planted chain missing"
                return _fail_unless(res, "no complete decomposition")

            return Op(mix, lambda: pd.all_complete_decompositions(f), check, _lines)
        # ordered: split the planted chain (or the exponent) in two
        if planted:
            cut = len(planted) // 2
            inner_e = sum(pattern[cut:])
            want = [oracle.add_chain(K, planted[:cut]), oracle.add_chain(K, planted[cut:])]
        else:
            inner_e = expn // 2
            want = None
        shape = (p ** (expn - inner_e), p**inner_e)

        def check(res):
            for dec in res:
                if tuple(int(g.degree) for g in dec.factors) != shape:
                    return "result has the wrong shape"
                if not recomposes(dec):
                    return "result does not recompose to f"
            if want and want not in [[list(g.coeffs) for g in d.factors] for d in res]:
                return "planted decomposition missing"
            return None

        return Op(mix, lambda: pd.decompose_ordered(f, shape), check, _lines)


def _lines(results):
    return "\n".join(str(r) for r in results)


# ----------------------------------------------------------------- general


class GeneralDecomp(Workload):
    name = "general-decomp"
    specs = ("GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(13)", "GF(2^2)", "GF(3^2)")
    budget_s = 30.0
    trace_passes = 20
    # (field, shape outermost first, input kind, op); kinds: planted, random,
    # irred, rational.  GF(13) irred comes twice so that the two costliest
    # entries hold more than a tenth of the ops and the p90 falls among them.
    MIX = (
        ("GF(2)", (8, 8), "planted", "sep"),
        ("GF(2)", (3, 2, 4), "planted", "ord"),
        ("GF(2)", (3, 9), "planted", "tame"),
        ("GF(3)", (3, 9), "planted", "sep"),
        ("GF(3)", (2, 3, 3), "planted", "first"),
        ("GF(3)", (4, 6), "random", "sep"),
        ("GF(5)", (5, 5), "planted", "sep"),
        ("GF(5)", (2, 4, 4), "planted", "ord"),
        ("GF(5)", (4, 5), "irred", "irred"),
        ("GF(7)", (7, 4), "planted", "first"),
        ("GF(7)", (3, 4, 4), "planted", "tame"),
        ("GF(7)", (4, 8), "random", "sep"),
        ("GF(13)", (4, 4), "planted", "tame"),
        ("GF(13)", (2, 8), "planted", "sep"),
        ("GF(13)", (3, 6), "irred", "irred"),
        ("GF(13)", (3, 6), "irred", "irred"),
        ("GF(2^2)", (4, 4), "planted", "sep"),
        ("GF(2^2)", (2, 8), "random", "first"),
        ("GF(3^2)", (3, 6), "planted", "sep"),
        ("GF(3^2)", (2, 2, 4), "planted", "first"),
        ("GF(5)", (2, 1, 2, 1), "rational", "rat"),
        ("GF(7)", (3, 1, 2, 1), "rational", "rat"),
    )

    IRREDUCIBLES = 8

    def __init__(self, pd, fields, seed):
        super().__init__(pd, fields, seed)
        self._pools = {}

    def ops(self, rng):
        return [self._op(rng, *entry) for entry in self.MIX]

    def _irreducibles(self, spec, n):
        """A pool of seeded random monic irreducibles, drawn once per run:
        the rejection search costs far more than the op that uses one."""
        pool = self._pools.setdefault((spec, n), [])
        if not pool:
            K = self.fields[spec]
            rng = random.Random(f"{self.name}:{self.seed}:irreducible:{spec}:{n}")
            while len(pool) < self.IRREDUCIBLES:
                coeffs = _rand_vec(K, n, rng)
                if self.pd.is_irreducible(self.pd.Poly(K, coeffs)):
                    pool.append(coeffs)
        return pool

    def _normal(self, K, n, rng, zero_const):
        c = _rand_vec(K, n, rng)
        if zero_const:
            c[0] = K.zero()
        return c

    def _op(self, rng, spec, shape, kind, op):
        pd = self.pd
        K = self.fields[spec]
        Poly = pd.Poly
        if kind == "rational":
            return self._rat_op(rng, spec, K, shape)
        n = 1
        for s in shape:
            n *= s
        mix = f"{op} {spec} shape {','.join(map(str, shape))} {kind}"
        planted = None
        if kind == "planted":
            planted = [self._normal(K, shape[0], rng, False)] + [
                self._normal(K, s, rng, True) for s in shape[1:]
            ]
            coeffs = oracle.poly_chain(K, planted)
        elif kind == "random":
            coeffs = _rand_vec(K, n, rng)
        else:
            coeffs = rng.choice(self._irreducibles(spec, n))
        f = Poly(K, coeffs)
        target = list(f.coeffs)

        def recomposes(factors):
            return oracle.poly_chain(K, [list(g.coeffs) for g in factors]) == target

        def normal(factors):
            return all(g.is_monic() for g in factors) and all(
                h.coeff(0).is_zero() for h in factors[1:]
            )

        def pairs_ok(res, want_planted):
            for g, h in res:
                if not recomposes((g, h)) or not normal((g, h)):
                    return "pair does not recompose to f in normal form"
                if (int(g.degree), int(h.degree)) != shape2:
                    return "pair has the wrong shape"
            if want_planted and planted2 not in [
                [list(g.coeffs), list(h.coeffs)] for g, h in res
            ]:
                return "planted pair missing"
            return None

        shape2 = (n // shape[-1], shape[-1])
        planted2 = (
            [oracle.poly_chain(K, planted[:-1]), planted[-1]] if planted else None
        )
        if op == "sep":
            return Op(
                mix,
                lambda: pd.sep_bidecomp(f, shape2),
                lambda res: pairs_ok(res, planted is not None),
                _pairs,
            )
        if op == "tame":
            return Op(
                mix,
                lambda: pd.tame_bidecomp(f, shape2),
                lambda res: pairs_ok([res] if res else [], True),
                lambda res: _pairs([res] if res else []),
            )
        if op == "irred":
            return Op(
                mix,
                lambda: pd.irred_ff_bidecomp(f, shape2),
                lambda res: pairs_ok([res] if res else [], False),
                lambda res: _pairs([res] if res else []),
            )
        if op == "ord":

            def check(res):
                for dec in res:
                    if tuple(int(g.degree) for g in dec.factors) != tuple(shape):
                        return "result has the wrong shape"
                    if not recomposes(dec.factors) or not normal(dec.factors):
                        return "result does not recompose to f in normal form"
                if planted not in [[list(g.coeffs) for g in d.factors] for d in res]:
                    return "planted chain missing"
                return None

            return Op(mix, lambda: pd.ord_fact_decomp(f, shape), check, _lines)

        def check(dec):
            if not recomposes(dec.factors):
                return "result does not recompose to f"
            if any(g.degree < 2 for g in dec.factors):
                return "complete decomposition has a factor of degree < 2"
            if planted and len(dec.factors) < 2:
                return "decomposable input reported indecomposable"
            return None

        return Op(mix, lambda: pd.first_complete(f), check, str)

    def _rat_op(self, rng, spec, K, quad):
        """Planted G o H; inputs whose composed degree pair drops are redrawn."""
        pd = self.pd
        Poly = pd.Poly
        rN, rD, sN, sD = quad
        want = (rN * sN, rN * sD - rD * sD + rD * sN)
        while True:
            G = pd.rat_reduce(
                Poly(K, _rand_vec(K, rN, rng)), Poly(K, _rand_vec(K, rD, rng))
            )
            hn = _rand_vec(K, sN, rng)
            hn[0] = K.zero()
            H = pd.rat_reduce(Poly(K, hn), Poly(K, _rand_vec(K, sD, rng)))
            if G.degree_pair != (rN, rD) or H.degree_pair != (sN, sD):
                continue
            num, den = _rat_chain(K, G, H)
            f = pd.rat_reduce(Poly(K, num), Poly(K, den))
            if f.degree_pair == want:
                break
        mix = f"rat {spec} quad {','.join(map(str, quad))} planted"

        def check(res):
            for g, h in res:
                if g.degree_pair != (rN, rD) or h.degree_pair != (sN, sD):
                    return "pair has the wrong degree pairs"
                num, den = _rat_chain(K, g, h)
                if oracle.poly_mul(K, num, list(f.den.coeffs)) != oracle.poly_mul(
                    K, den, list(f.num.coeffs)
                ):
                    return "pair does not recompose to f"
            return _fail_unless(res, "planted decomposition not found")

        return Op(mix, lambda: pd.general_rat_dec(f, quad), check, _pairs)


def _rat_chain(K, g, h):
    """Unreduced numerator and denominator of g(h) for rational g, h."""
    hN, hD = list(h.num.coeffs), list(h.den.coeffs)
    r = max(len(g.num.coeffs), len(g.den.coeffs)) - 1

    def cleared(poly):
        acc = []
        coeffs = list(poly.coeffs)
        for i, c in enumerate(coeffs):
            term = [c]
            for _ in range(i):
                term = oracle.poly_mul(K, term, hN)
            for _ in range(r - i):
                term = oracle.poly_mul(K, term, hD)
            acc = oracle.poly_add(K, acc, term)
        return acc

    return cleared(g.num), cleared(g.den)


def _pairs(res):
    return "\n".join(f"({g}) o ({h})" for g, h in res)


# -------------------------------------------------------------- ring-tower


class RingTower(Workload):
    name = "ring-tower"
    specs = ("GF(2)", "GF(3)", "GF(2^4)", "GF(3^2)", TOWER)
    budget_s = 20.0
    trace_passes = 30
    # (field, exponent or degree, op)
    MIX = (
        ("GF(2)", 14, "meet"),
        ("GF(2)", 12, "join"),
        ("GF(2)", 10, "rdivrem"),
        ("GF(2)", 13, "compose"),
        ("GF(2)", 11, "transform"),
        ("GF(2)", 12, "mam"),
        ("GF(3)", 8, "meet"),
        ("GF(3)", 7, "join"),
        ("GF(3)", 6, "mam"),
        ("GF(3)", 8, "rdivrem"),
        ("GF(2^4)", 6, "meet"),
        ("GF(2^4)", 5, "join"),
        ("GF(2^4)", 5, "transform"),
        ("GF(2^4)", 6, "mam"),
        ("GF(3^2)", 5, "rdivrem"),
        ("GF(3^2)", 4, "transform"),
        ("GF(3^2)", 4, "compose"),
        ("GF(3^2)", 5, "mam"),
        (TOWER, 6, "meet"),
        (TOWER, 5, "join"),
        (TOWER, 5, "rdivrem"),
        (TOWER, 8, "mam"),
    )

    def ops(self, rng):
        return [self._op(rng, *entry) for entry in self.MIX]

    def _op(self, rng, spec, size, kind):
        pd = self.pd
        K = self.fields[spec]
        A = pd.AdditivePoly
        mix = f"{kind} {'tower' if spec == TOWER else spec} size {size}"

        def parse(text):
            return A.parse(K, text)

        def roundtrip(obj, text):
            return _fail_unless(parse(text) == obj, "parse(str(x)) != x")

        def divides(g, f):
            q, r = pd.add_rdivrem(f, g)
            return not r.coeffs and oracle.add_compose(K, q.coeffs, g.coeffs) == list(
                f.coeffs
            )

        if kind == "mam":
            ftext = oracle.poly_text(K, _rand_vec(K, size, rng))

            def call():
                a = pd.min_add_mult(pd.Poly.parse(K, ftext))
                return a, str(a)

            def check(res):
                a, text = res
                f = pd.Poly.parse(K, ftext)
                if not oracle.add_is_multiple(K, list(a.coeffs), list(f.coeffs)):
                    return "min_add_mult(f) is not a multiple of f"
                return roundtrip(a, text)

            return Op(mix, call, check, lambda res: res[1])
        half = size // 2
        if kind == "meet":
            c = _rand_vec(K, size - half, rng)
            fv = oracle.add_compose(K, _rand_vec(K, half, rng), c)
            gv = oracle.add_compose(K, _rand_vec(K, half, rng), c)
        elif kind == "rdivrem":
            fv, gv = _rand_vec(K, size, rng), _rand_vec(K, half, rng)
        else:
            fv, gv = _rand_vec(K, size - half, rng), _rand_vec(K, half, rng)
        ftext, gtext = oracle.add_text(K, fv), oracle.add_text(K, gv)

        if kind == "rdivrem":

            def call():
                q, r = pd.add_rdivrem(parse(ftext), parse(gtext))
                return (q, r), (str(q), str(r))

            def check(res):
                (q, r), (qt, rt) = res
                back = oracle.poly_add(K, oracle.add_compose(K, q.coeffs, gv), r.coeffs)
                if back != fv or r.expn >= len(gv) - 1:
                    return "f != q o g + r with expn r < expn g"
                return roundtrip(q, qt) or roundtrip(r, rt)

            return Op(mix, call, check, lambda res: " ; ".join(res[1]))

        name = {"compose": "add_compose"}.get(kind, kind)

        def call():
            out = getattr(pd, name)(parse(ftext), parse(gtext))
            return out, str(out)

        def check(res):
            out, text = res
            f, g = A(K, fv), A(K, gv)
            if kind == "meet":
                ok = divides(out, f) and divides(out, g) and divides(A(K, c), out)
                reason = "meet does not right-divide both inputs"
            elif kind == "join":
                ok = divides(f, out) and divides(g, out)
                reason = "join is not right-divisible by both inputs"
            elif kind == "compose":
                ok = list(out.coeffs) == oracle.add_compose(K, fv, gv)
                reason = "composition differs"
            else:
                joined = A(K, oracle.add_compose(K, out.coeffs, fv))
                ok = divides(g, joined)
                reason = "transform(f, g) o f is not right-divisible by g"
            return _fail_unless(ok, reason) or roundtrip(out, text)

        return Op(mix, call, check, lambda res: res[1])


# -------------------------------------------------------------- cli-replay

README_EXAMPLES = (
    (
        ["meet", "--field", "GF(3)", "x^27+2*x^9+x^3+2*x", "x^9+x^3+x"],
        0,
        "x^3+2*x\n",
    ),
    (
        ["decompose", "--field", "GF(5)", "--strategy", "sep", "--shape", "25,5",
         "x^125+x^25+x^5+x"],
        0,
        "(x^25+x) o (x^5+x)\n(x^25+3*x^5+2*x) o (x^5+3*x)\n"
        "(x^25+4*x^5+3*x) o (x^5+2*x)\n",
    ),
    (
        ["decompose", "--field", "GF(5)", "--strategy", "sep", "--shape", "5,5",
         "x^25+x^5+x"],
        1,
        "no decomposition\n",
    ),
    (
        ["absdec", "--field", "GF(5)", "x^25+x^5+x"],
        0,
        "field: GF(5)[g1]/(g1^3+3*g1^2+4)\n(x^5+(4*g1^2+2*g1)*x) o (x^5+(4*g1)*x)\n",
    ),
    (
        ["ratdec", "--field", "GF(5)", "--shape", "2,0,2,1", "x^4/(x^2+2*x+1)"],
        0,
        "(x^2) o (x^2/(x+1))\n",
    ),
)

# ROADMAP item 4: each must exit 2 with an "error:" line (or print JSON).
BAD_INPUTS = (
    (["counts", "2", "1", "5"], "error"),
    (["decompose", "--field", "GF(2)", "--shape", "2,x", "x^4+x"], "error"),
    (["chebyshev", "--field", "GF(5)", "--", "-1"], "error"),
    (["ratdec", "--json", "--field", "GF(5)", "--shape", "2,0,2,1",
      "x^4/(x^2+2*x+1)"], "json"),
    (["meet", "--field", "GF(2^0)", "x^2", "x"], "error"),
)


class CliReplay(Workload):
    name = "cli-replay"
    specs = ("GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(2^2)")
    modules = ("polydec", "polydec.cli", "polydec.selftest")
    budget_s = 2.0
    trace_passes = 1
    # Seeded argv per other subcommand and pass: with 90 cheap ops a pass,
    # the README decompose, selftest and the wedged GF(2^0) op stay under 5%
    # of ops, so the p90 latency falls inside the cheap cluster.
    ARGV_PER_COMMAND = 6

    def ops(self, rng):
        out = []
        for argv, code, stdout in README_EXAMPLES:
            out.append(self._exact(f"readme {argv[0]}", argv, code, stdout))
        out.append(self._selftest())
        for make in (
            self._compose, self._decompose, self._complete, self._all_complete,
            self._meet, self._join, self._transform, self._similar,
            self._transmute, self._minaddmult, self._basis, self._counts,
            self._chebyshev, self._absdec, self._ratdec,
        ):
            out += [make(rng) for _ in range(self.ARGV_PER_COMMAND)]
        for argv, expect in BAD_INPUTS:
            out.append(self._bad(argv, expect))
        return out

    def _main(self, argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.pd.cli.main(list(argv))
                except Exception as exc:  # the CLI let an exception escape
                    rc = f"uncaught {type(exc).__name__}"
            return rc, out.getvalue(), err.getvalue()

        return call

    def _op(self, mix, argv, check, known_defect=False):
        return Op(mix, self._main(argv), check, _render_cli, known_defect)

    def _exact(self, mix, argv, code, stdout):
        def check(res):
            rc, out, _ = res
            if rc != code:
                return f"exit code {rc}, expected {code}"
            return _fail_unless(out == stdout, "stdout differs from README")

        return self._op(mix, argv, check)

    def _selftest(self):
        def check(res):
            rc, out, _ = res
            lines = out.splitlines()
            ok = rc == 0 and lines and all(line.startswith("ok ") for line in lines)
            return _fail_unless(ok, "selftest reported a failure")

        return self._op("selftest", ["selftest"], check)

    def _bad(self, argv, expect):
        def check(res):
            rc, out, err = res
            if expect == "json":
                try:
                    json.loads(out)
                except ValueError:
                    return "--json output is not JSON"
                return _fail_unless(rc == 0, f"exit code {rc}, expected 0")
            if rc != 2:
                return f"exit code {rc}, expected 2"
            lines = err.splitlines()
            return _fail_unless(
                len(lines) == 1 and lines[0].startswith("error:"),
                "stderr is not one error: line",
            )

        return self._op(f"bad {' '.join(argv)}", argv, check, known_defect=True)

    def _library(self, mix, argv, expected):
        """An op whose stdout must equal what the library call prints."""

        def check(res):
            rc, out, err = res
            want_rc, want_out = expected()
            if rc != want_rc:
                return f"exit code {rc}, expected {want_rc}"
            return _fail_unless(out == want_out, "stdout differs from the library")

        return self._op(mix, argv, check)

    def _compose(self, rng):
        K = self.fields["GF(7)"]
        g, h = _rand_vec(K, 3, rng), _rand_vec(K, 2, rng)
        argv = ["compose", "--field", "GF(7)", oracle.poly_text(K, g), oracle.poly_text(K, h)]

        def check(res):
            rc, out, _ = res
            if rc != 0:
                return f"exit code {rc}, expected 0"
            got = list(self.pd.Poly.parse(K, out.strip()).coeffs)
            return _fail_unless(got == oracle.poly_compose(K, g, h), "composition differs")

        return self._op("cli compose", argv, check)

    def _decompose(self, rng):
        K = self.fields["GF(3)"]
        g, h = _rand_vec(K, 3, rng), _rand_vec(K, 3, rng)
        h[0] = K.zero()
        f = oracle.poly_compose(K, g, h)
        argv = ["decompose", "--field", "GF(3)", "--shape", "3,3", oracle.poly_text(K, f)]
        want = f"({self.pd.Poly(K, g)}) o ({self.pd.Poly(K, h)})"

        def check(res):
            rc, out, _ = res
            if rc != 0:
                return f"exit code {rc}, expected 0"
            return _fail_unless(want in out.splitlines(), "planted pair missing")

        return self._op("cli decompose", argv, check)

    def _complete(self, rng):
        K = self.fields["GF(5)"]
        chain = [_rand_vec(K, 2, rng), _rand_vec(K, 3, rng), _rand_vec(K, 2, rng)]
        for h in chain[1:]:
            h[0] = K.zero()
        f = oracle.poly_chain(K, chain)
        argv = ["complete", "--field", "GF(5)", oracle.poly_text(K, f)]

        def check(res):
            rc, out, _ = res
            if rc != 0:
                return f"exit code {rc}, expected 0"
            parts = [p.strip()[1:-1] for p in out.strip().split(" o ")]
            got = [list(self.pd.Poly.parse(K, t).coeffs) for t in parts]
            if oracle.poly_chain(K, got) != f:
                return "factors do not recompose to f"
            return _fail_unless(len(got) >= 2, "decomposable input reported indecomposable")

        return self._op("cli complete", argv, check)

    def _all_complete(self, rng):
        K = self.fields["GF(2)"]
        chain = [_indec_factor(K, e, rng) for e in (2, 1, 1)]
        f = oracle.add_chain(K, chain)
        argv = ["all-complete", "--field", "GF(2)", oracle.add_text(K, f)]
        A = self.pd.AdditivePoly
        want = " o ".join(f"({A(K, g)})" for g in chain)

        def check(res):
            rc, out, _ = res
            if rc != 0:
                return f"exit code {rc}, expected 0"
            return _fail_unless(want in out.splitlines(), "planted chain missing")

        return self._op("cli all-complete", argv, check)

    def _pair_argv(self, rng, cmd, spec, ef, eg):
        K = self.fields[spec]
        f, g = _rand_vec(K, ef, rng), _rand_vec(K, eg, rng)
        return K, f, g, [cmd, "--field", spec, oracle.add_text(K, f), oracle.add_text(K, g)]

    def _ring_cmd(self, rng, cmd, fn_name):
        K, f, g, argv = self._pair_argv(rng, cmd, "GF(3)", 3, 2)
        A = self.pd.AdditivePoly

        def expected():
            return 0, f"{getattr(self.pd, fn_name)(A(K, f), A(K, g))}\n"

        return self._library(f"cli {cmd}", argv, expected)

    def _meet(self, rng):
        return self._ring_cmd(rng, "meet", "meet")

    def _join(self, rng):
        return self._ring_cmd(rng, "join", "join")

    def _transform(self, rng):
        return self._ring_cmd(rng, "transform", "transform")

    def _similar(self, rng):
        K, f, g, argv = self._pair_argv(rng, "similar", "GF(3)", 2, 2)
        A = self.pd.AdditivePoly

        def expected():
            flag, witness = self.pd.is_similar(A(K, f), A(K, g))
            return (0, f"true witness={witness}\n") if flag else (1, "false\n")

        return self._library("cli similar", argv, expected)

    def _transmute(self, rng):
        K = self.fields["GF(2)"]
        f = _indec_factor(K, 2, rng)
        g = _rand_vec(K, 2, rng)
        argv = ["transmute", "--field", "GF(2)", oracle.add_text(K, f), oracle.add_text(K, g)]
        A = self.pd.AdditivePoly

        def expected():
            pairs = self.pd.transmutable(A(K, f), A(K, g))
            if not pairs:
                return 1, "no transmutation\n"
            return 0, "".join(f"({a}) o ({b})\n" for a, b in pairs)

        return self._library("cli transmute", argv, expected)

    def _minaddmult(self, rng):
        K = self.fields["GF(3)"]
        f = _rand_vec(K, 4, rng)
        argv = ["minaddmult", "--field", "GF(3)", oracle.poly_text(K, f)]

        def check(res):
            rc, out, _ = res
            if rc != 0:
                return f"exit code {rc}, expected 0"
            a = self.pd.AdditivePoly.parse(K, out.strip())
            return _fail_unless(
                oracle.add_is_multiple(K, list(a.coeffs), f), "output is not a multiple of f"
            )

        return self._op("cli minaddmult", argv, check)

    def _basis(self, rng):
        K = self.fields["GF(3)"]
        f = _rand_vec(K, 2, rng)
        argv = ["basis", "--field", "GF(3)", oracle.add_text(K, f)]
        A = self.pd.AdditivePoly

        def expected():
            basis = self.pd.indec_basis(A(K, f))
            if basis is None:
                return 1, "not completely reducible\n"
            return 0, "".join(f"{b}\n" for b in basis)

        return self._library("cli basis", argv, expected)

    def _counts(self, rng):
        p = rng.choice((2, 3, 5))
        nu = rng.randint(1, 6)
        sigma = rng.randint(0, nu)

        def gauss(n, k):
            num = den = 1
            for i in range(k):
                num *= p**n - p**i
                den *= p**k - p**i
            return num // den

        t = 1 if sigma == 0 else gauss(nu - sigma + 1, 1)
        flags = 1
        for i in range(1, nu + 1):
            flags *= gauss(nu - i + 1, 1)
        want = f"S={gauss(nu, sigma)} T={t} F={flags}\n"
        return self._exact("cli counts", ["counts", str(p), str(nu), str(sigma)], 0, want)

    def _chebyshev(self, rng):
        K = self.fields["GF(7)"]
        i = rng.randint(2, 40)
        t0, t1 = [K.one()], [K.zero(), K.one()]
        for _ in range(i - 1):
            t0, t1 = t1, oracle.poly_add(
                K, oracle.poly_mul(K, [K.zero(), K.from_int(2)], t1), [K.neg(c) for c in t0]
            )
        want = f"{self.pd.Poly(K, t1)}\n"
        return self._exact("cli chebyshev", ["chebyshev", "--field", "GF(7)", str(i)], 0, want)

    def _absdec(self, rng):
        K = self.fields["GF(3)"]
        f = _rand_vec(K, 2, rng)
        if f[0] == K.zero():
            f[0] = K.one()
        argv = ["absdec", "--field", "GF(3)", oracle.add_text(K, f)]
        A = self.pd.AdditivePoly

        def expected():
            tower, dec = self.pd.abs_decompose(A(K, f))
            return 0, f"field: {tower.describe()}\n{dec}\n"

        return self._library("cli absdec", argv, expected)

    def _ratdec(self, rng):
        K = self.fields["GF(5)"]
        g = _rand_vec(K, 2, rng)
        hn = _rand_vec(K, 2, rng)
        hn[0] = K.zero()
        hd = _rand_vec(K, 1, rng)
        num = oracle.poly_add(
            K,
            oracle.poly_mul(K, [g[2]], oracle.poly_mul(K, hn, hn)),
            oracle.poly_add(
                K,
                oracle.poly_mul(K, [g[1]], oracle.poly_mul(K, hn, hd)),
                oracle.poly_mul(K, [g[0]], oracle.poly_mul(K, hd, hd)),
            ),
        )
        den = oracle.poly_mul(K, hd, hd)
        text = f"({oracle.poly_text(K, num)})/({oracle.poly_text(K, den)})"
        argv = ["ratdec", "--field", "GF(5)", "--shape", "2,0,2,1", text]

        def expected():
            f = self.pd.parse_rational(K, text)
            pairs = self.pd.general_rat_dec(f, (2, 0, 2, 1))
            if not pairs:
                return 1, "no decomposition\n"
            return 0, "".join(f"({a}) o ({b})\n" for a, b in pairs)

        return self._library("cli ratdec", argv, expected)


def _render_cli(res):
    rc, out, err = res
    return f"exit={rc}\n{out}--\n{err}"


WORKLOADS = {w.name: w for w in (AdditiveDecomp, GeneralDecomp, RingTower, CliReplay)}
