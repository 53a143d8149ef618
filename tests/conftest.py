"""Shared fixtures and brute-force oracles for the test suite."""

import contextlib
import copy
import itertools
import random
import re

import pytest

from polydec import (
    NEG_INF,
    AdditivePoly,
    Decomposition,
    Felt,
    FracLinear,
    Poly,
    add_compose,
    add_rdivrem,
    build_extension,
    build_prime_field,
    find_irreducible,
    flt_apply,
    indec_right_factors,
    meet,
    min_add_mult,
    norm_rat_dec,
    normalize,
    parse_field_spec,
    rat_compose,
    transform,
    upoly,
)
from polydec import _expr, gendecomp, _polyops as po
from polydec.addecomp import _blocks, _compose_chain
from polydec.additive import peel_frobenius, right_quotient
from polydec.field import ExtensionField
from polydec.errors import DegreeInfeasible, DivideByZero, NotMonic, ParseError
from polydec.ratfun import _outer_pair


TOWER = "GF(2)[g1]/(g1^2+g1+1)[g2]/(g2^2+g2+g1)"


def field_of(spec):
    """A prime field for an int p, else the field of a spec string."""
    return build_prime_field(spec) if isinstance(spec, int) else parse_field_spec(spec)


@pytest.fixture(scope="session")
def F2():
    return build_prime_field(2)


@pytest.fixture(scope="session")
def F3():
    return build_prime_field(3)


@pytest.fixture(scope="session")
def F5():
    return build_prime_field(5)


@pytest.fixture(scope="session")
def F7():
    return build_prime_field(7)


@pytest.fixture(scope="session")
def F4(F2):
    return build_extension(F2, Poly.parse(F2, "x^2+x+1"))


@pytest.fixture(scope="session")
def F8():
    return parse_field_spec("GF(2^3)")


@pytest.fixture(scope="session")
def F9():
    return parse_field_spec("GF(3^2)")


def rand_poly(field, rng, deg, monic=False, zero_const=False):
    """Random polynomial of exact degree ``deg``."""
    coeffs = [field.rand_rep(rng) for _ in range(deg)]
    if zero_const:
        coeffs[0] = field.zero()
    lead = field.one()
    if not monic:
        while True:
            lead = field.rand_rep(rng)
            if lead != field.zero():
                break
    return Poly(field, coeffs + [lead])


def compose_by_horner(g, h):
    """g(h) by Horner's rule on every coefficient of g, zeros included: the
    oracle for upoly.compose."""
    g._check(h)
    acc = Poly.zero(g.field)
    for c in reversed(g.coeffs):
        acc = acc * h
        acc = acc.shift_constant(Felt(g.field, c))
    return acc


def right_divide_by_h_powers(f, h):
    """The g with f = g(h), or None, by divide and conquer on h-adic
    digits: f = Q*h**t + R forces the top and bottom halves of g
    independently.  The oracle for upoly.right_divide; requires
    deg h >= 1 and deg h | deg f."""
    if f.degree is NEG_INF or f.degree <= 0:
        return f
    if f.degree < h.degree:
        return None
    t = (f.degree // h.degree + 1) // 2
    q, rem = divmod(f, h**t)
    g0 = right_divide_by_h_powers(rem, h)
    g1 = None if g0 is None else right_divide_by_h_powers(q, h)
    if g1 is None:
        return None
    return g1 * Poly.monomial(f.field, t) + g0


def tame_bidecomp_by_recurrence(f, shape):
    """The normal (g, h) of shape (r, s) with f = g(h), p not dividing r,
    or None, by the coefficient recurrence c_{s-k} = (a_{rs-k} -
    coeff(mu_k**r, rs-k)) / r on the partial sums mu_k of the top k terms
    of h, each power of full degree: the oracle for gendecomp.tame_bidecomp."""
    r, s = shape
    K = f.field
    n = r * s
    inv_r = K.felt(r).inv()
    mu = Poly.monomial(K, s)
    for k in range(1, s):
        c = (f.coeff(n - k) - (mu**r).coeff(n - k)) * inv_r
        mu = mu + Poly.monomial(K, s - k, c)
    g = right_divide_by_h_powers(f, mu)
    return None if g is None else (g, mu)


def general_rat_dec_one_conjugation(f, quad):
    """Rational decompositions found behind a single conjugation: the
    identity when sN > sD, 1/x when sN < sD, and (x+1)/x when sN = sD,
    scanning inner denominator degrees down to the first that gives
    results, and keeping only pairs with the requested degree pairs.  It
    misses classes, but every pair it returns must also come from
    general_rat_dec."""
    rN, rD, sN, sD = quad
    K = f.field
    lam, fbar = normalize(f)
    lam_inv = lam.inverse()
    if sN > sD:
        t, inner_pairs = FracLinear.identity(K), [(sN, sD)]
    elif sN < sD:
        t, inner_pairs = FracLinear.of_ints(K, 0, 1, 1, 0), [(sD, sN)]
    else:
        t = FracLinear.of_ints(K, 1, 1, 1, 0)
        inner_pairs = [(sN, d) for d in range(sN - 1, -1, -1)]
    t_inv = t.inverse().as_rational()
    out = set()
    for aN, aD in inner_pairs:
        pair = _outer_pair(*fbar.degree_pair, aN, aD)
        if pair is None:
            continue
        for gb, hb in norm_rat_dec(fbar, (*pair, aN, aD)):
            g, h = rat_compose(flt_apply(lam_inv, gb), t_inv), flt_apply(t, hb)
            if rat_compose(g, h) == f and (*g.degree_pair, *h.degree_pair) == (rN, rD, sN, sD):
                out.add((g, h))
        if out:
            break
    return out


def dense_indec_right_factors(f):
    """Indecomposable right factors through the dense degree-p**expn form:
    the oracle for indec_right_factors over every field.

    Factors the simple part of f as an ordinary polynomial; the candidates
    are minimal additive multiples of its non-x irreducible factors, and a
    candidate right-divisible by a smaller one is struck out.  x**p joins
    the list exactly when f is not simple.
    """
    K = f.field
    ell, simple_part = peel_frobenius(f)
    parts, _ = upoly.factor(simple_part.to_poly())
    candidates = {min_add_mult(irr): True for irr, _mult in parts if irr != Poly.x(K)}
    kept = []
    for g in sorted(candidates, key=lambda g: (g.expn, g.key())):
        if all(right_quotient(g, smaller) is None for smaller in kept):
            kept.append(g)
    if ell >= 1:
        kept.append(AdditivePoly.monomial(K, 1))
    return sorted(kept, key=lambda g: g.key())


def monic_additive_polys(field, expn):
    """All monic additive polynomials of the given exponent."""
    elts = list(field.elements())
    for combo in itertools.product(elts, repeat=expn):
        yield AdditivePoly(field, list(combo) + [field.one()])


def add_rdivrem_by_composition(f, g):
    """Q, R with f = Q(g) + R and expn R < expn g, one quotient term at a
    time: each term inverts the p**t-th power of lc(g) and subtracts the
    composition of a monomial with g.  The oracle for additive.add_rdivrem."""
    f._check(g)
    if g.is_zero():
        raise DivideByZero("right division by the zero additive polynomial")
    K = f.field
    z = K.zero()
    rem = f
    q = [z] * max(0, len(f.coeffs) - len(g.coeffs) + 1)
    b = g.coeffs[-1]
    rho = g.expn
    while not rem.is_zero() and rem.expn >= rho:
        nu = rem.expn
        c = K.mul(rem.coeffs[-1], K.inv(K.frobenius_rep(b, nu - rho)))
        q[nu - rho] = c
        rem = rem - add_compose(AdditivePoly.monomial(K, nu - rho, Felt(K, c)), g)
    return AdditivePoly._raw(K, q), rem


def add_compose_by_frobenius_loop(f, g):
    """f(g) term by term, c[i+j] += a[i] * b[j]**(p**i), each power by
    frobenius_rep: the oracle for add_compose."""
    f._check(g)
    K = f.field
    if f.is_zero() or g.is_zero():
        return AdditivePoly.zero(K)
    out = [K.zero()] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = K.add(out[i + j], K.mul(a, K.frobenius_rep(b, i)))
    return AdditivePoly._raw(K, out)


def add_rdivrem_by_frobenius_loop(f, g):
    """Q, R with f = Q(g) + R and expn R < expn g: the quotient term at
    x**(p**t) is lc(rem) * (1/lc g)**(p**t), and c * b_j**(p**t) comes off
    the remainder at x**(p**(t+j)), each power by frobenius_rep.  The
    oracle for add_rdivrem."""
    f._check(g)
    if g.is_zero():
        raise DivideByZero("right division by the zero additive polynomial")
    K = f.field
    b, rho, rem = g.coeffs, g.expn, list(f.coeffs)
    quot = [K.zero()] * max(0, len(rem) - rho)
    inv_lead = K.inv(b[-1])
    for t in reversed(range(len(quot))):
        c = quot[t] = K.mul(rem[t + rho], K.frobenius_rep(inv_lead, t))
        for j in range(rho + 1):
            rem[t + j] = K.sub(rem[t + j], K.mul(c, K.frobenius_rep(b[j], t)))
    return AdditivePoly._raw(K, quot), AdditivePoly._raw(K, rem[:rho])


def all_complete_by_recursion(f, limit=None):
    """All complete decompositions by branching over every indecomposable
    right factor, quotients memoized, sorted by key: the oracle for
    all_complete_decompositions."""
    memo = {}

    def rec(g):
        if g not in memo:
            rf = indec_right_factors(g)
            if rf == [g]:
                memo[g] = [(g,)]
            else:
                memo[g] = [tail + (h,) for h in rf for tail in rec(right_quotient(g, h))]
        return memo[g]

    decs = sorted((Decomposition(f, factors, complete=True) for factors in rec(f)),
                  key=lambda d: d.key())
    return decs if limit is None else decs[:limit]


def decompose_ordered_by_grouping(f, shape):
    """The complete decompositions of all_complete_by_recursion whose shape
    refines shape, grouped into blocks: the oracle for decompose_ordered
    over every field."""
    seen = {}
    for dec in all_complete_by_recursion(f):
        ends = _blocks(dec.shape, shape)
        if ends is None:
            continue
        grouped = tuple(_compose_chain(dec.factors[a:b]) for a, b in zip([0] + ends, ends))
        cand = Decomposition(f, grouped, complete=(grouped == dec.factors))
        seen.setdefault(cand.key(), cand)
    return [seen[k] for k in sorted(seen)]


def ordered_shapes(p, expn):
    """Every ordered factorisation of p**expn, outermost first."""
    for k in range(expn):
        for cuts in itertools.combinations(range(1, expn), k):
            ends = (0,) + cuts + (expn,)
            yield tuple(p ** (b - a) for a, b in zip(ends, ends[1:]))


def complete_by_peeling(f):
    """One complete decomposition, peeling the first indecomposable right
    factor at every stage: the oracle for complete_decomposition over
    GF(p)."""
    inner_first = []
    cur = f
    while cur is not None:
        h = indec_right_factors(cur)[0]
        inner_first.append(h)
        cur = None if h == cur else right_quotient(cur, h)
    return Decomposition(f, tuple(reversed(inner_first)), complete=True)


def euclid_scheme(f, g):
    """Remainder sequence f1, f2, ..., fn with fn | f(n-1), fn != 0: the
    oracle for the remainder loop of additive.meet."""
    seq = [f, g] if f.expn >= g.expn else [g, f]
    while True:
        r = add_rdivrem(seq[-2], seq[-1])[1]
        if r.is_zero():
            return seq
        seq.append(r)


def join_by_alternation(f, g):
    """Least common left composition multiple, monic, by the alternation
    J(n-1) = monic(f(n-1)), J(i) = monic((J(i+1) /o f(i+2)) o f(i)) over
    the Euclidean scheme f1..fn: the oracle for join and transform."""
    seq = euclid_scheme(f, g)
    j = seq[-2].monic()
    for i in range(len(seq) - 3, -1, -1):
        w = right_quotient(j, seq[i + 2])
        assert w is not None, "Euclidean scheme invariant violated"
        j = add_compose(w, seq[i]).monic()
    return j


def transform_by_alternation(g, f):
    """join_by_alternation(g, f) right-divided by g."""
    q = right_quotient(join_by_alternation(g, f), g)
    assert q is not None, "join must be right-divisible by its argument"
    return q


def similarity_class_by_enumeration(g):
    """Every transform(u, g) with u monic and meet(u, g) = x, found by search.

    Transformation by u depends only on the residue of u mod g, so the
    search covers every residue: monic w of exponent below expn g times a
    nonzero scalar d, realised as the monic u = g + d*w when d is not 1.
    """
    K = g.field
    xpoly = AdditivePoly.x(K)
    units = [d for d in K.elements() if d != K.zero()]
    found = {g}
    for k in range(g.expn):
        for w in monic_additive_polys(K, k):
            if meet(w, g) != xpoly:
                continue
            for d in units:
                found.add(transform(w if d == K.one() else g + w.scale(d), g))
    return found


def span(p, vectors, nu):
    """Frozenset of all Z_p combinations of tuples in Z_p**nu."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        acc = tuple(0 for _ in range(nu))
        for c, v in zip(coeffs, vectors):
            acc = tuple((a + c * b) % p for a, b in zip(acc, v))
        out.add(acc)
    return frozenset(out)


def subspaces_of_dim(p, nu, sigma):
    """All sigma-dimensional subspaces of Z_p**nu, one per reduced row
    echelon basis: pivot columns, then every value of the free entries."""
    seen = set()
    for pivots in itertools.combinations(range(nu), sigma):
        free = [
            (r, c)
            for r, pc in enumerate(pivots)
            for c in range(pc + 1, nu)
            if c not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[int(c == pc) for c in range(nu)] for pc in pivots]
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            seen.add(span(p, [tuple(row) for row in rows], nu))
    return seen


def subspaces_of_dim_exhaustive(p, nu, sigma):
    """All sigma-dimensional subspaces of Z_p**nu, by exhaustive spans."""
    vectors = list(itertools.product(range(p), repeat=nu))
    seen = set()
    for combo in itertools.product(vectors, repeat=sigma):
        s = span(p, combo, nu)
        if len(s) == p**sigma:
            seen.add(s)
    if sigma == 0:
        seen = {span(p, [], nu)}
    return seen


def count_maximal_flags(p, nu):
    """Number of chains V_1 < V_2 < ... < V_nu with dim V_i = i."""
    by_dim = [subspaces_of_dim(p, nu, d) for d in range(nu + 1)]

    def chains(current, dim):
        if dim == nu:
            return 1
        total = 0
        for bigger in by_dim[dim + 1]:
            if current <= bigger:
                total += chains(bigger, dim + 1)
        return total

    return chains(span(p, [], nu), 0)


class DenseParser(_expr._Parser):
    """Evaluates expression text on dense little-endian coefficient lists,
    so ``x^N`` costs a list of length N + 1.  The oracle for the sparse
    evaluator in polydec._expr."""

    def expr(self):
        K = self.K
        value = self.term()
        while self.peek() in ("+", "-"):
            op = po.add if self.take() == "+" else po.sub
            value = op(K, value, self.term())
        return value

    def term(self):
        value = self.unary()
        while self.peek() == "*":
            self.take()
            value = po.mul(self.K, value, self.unary())
        return value

    def unary(self):
        K = self.K
        if self.peek() == "-":
            self.take()
            return po.neg(K, self.unary())
        value = self.atom()
        if self.peek() == "^":
            self.take()
            value = po._power(lambda a, b: po.mul(K, a, b), [K.one()], value, int(self.take()))
        return value

    def atom(self):
        K = self.K
        t = self.take()
        if t == "(":
            value = self.expr()
            assert self.take() == ")"
            return value
        if t.isdigit():
            return po.trim(K, [K.from_int(int(t))])
        if t == self.var:
            return [K.zero(), K.one()]
        return po.trim(K, [K.generator_by_name(t)])


def eval_poly_text_dense(field, text, var="x"):
    return DenseParser(field, _expr.tokenize(text), var).parse()


_MATCH_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|\-|\(|\)|/)")


def tokenize_by_match(text):
    """Tokens by one anchored match per token, reporting the first position
    where none matches: the oracle for _expr.tokenize."""
    out = []
    pos = 0
    while pos < len(text):
        m = _MATCH_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def split_rational_text_by_depth(text):
    """Split ``num/den`` at the single top-level '/' by a scan of the
    parenthesis depth; den may be absent."""
    toks = _expr.tokenize(text)
    depth = 0
    cut = None
    for i, t in enumerate(toks):
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
        elif t == "/" and depth == 0:
            if cut is not None:
                raise ParseError("more than one top-level '/' in rational function")
            cut = i
    if cut is None:
        return toks, None
    return toks[:cut], toks[cut + 1 :]


def eval_rational_text_split(field, text, var="x"):
    """``num/den`` split first, then each side parsed on its own: the oracle
    for the one-pass _expr.eval_rational_text."""
    num_toks, den_toks = split_rational_text_by_depth(text)
    num = _expr._Parser(field, num_toks, var).parse()
    if den_toks is None:
        return num, {0: field.one()}
    if not den_toks:
        raise ParseError("empty denominator")
    den = _expr._Parser(field, den_toks, var).parse()
    return num, den


def parse_field_spec_by_depth(text, seed=0):
    """The field spec grammar read by str.isdigit() and int() on the head
    and by a parenthesis-depth scan for each modulus: the oracle for
    polydec.parse_field_spec.  Reads superscript digits and numbers above
    the int() string limit as a ValueError."""
    s = text.strip().replace(" ", "")
    if not s.startswith("GF("):
        raise ParseError(f"field spec must start with GF(: {text!r}")
    close = s.index(")") if ")" in s else -1
    if close < 0:
        raise ParseError(f"unbalanced parenthesis in field spec {text!r}")
    head = s[3:close]
    rest = s[close + 1 :]
    if "^" in head:
        p_txt, e_txt = head.split("^", 1)
        if not (p_txt.isdigit() and e_txt.isdigit()):
            raise ParseError(f"bad prime power {head!r}")
        p, e = int(p_txt), int(e_txt)
        if e < 1:
            raise ParseError(f"prime power exponent must be >= 1: {head!r}")
        base = build_prime_field(p)
        if e == 1:
            field = base
        else:
            field = ExtensionField(base, find_irreducible(base, e, seed))
    else:
        if not head.isdigit():
            raise ParseError(f"bad characteristic {head!r}")
        field = build_prime_field(int(head))
    while rest:
        if not rest.startswith("["):
            raise ParseError(f"trailing junk in field spec: {rest!r}")
        if "]" not in rest:
            raise ParseError(f"missing ']' after generator name in field spec {text!r}")
        gb = rest.index("]")
        gen_name = rest[1:gb]
        names = field._names + ("x",)
        if gen_name in names or not (gen_name.isascii() and gen_name.isidentifier()):
            raise ParseError(f"generator {gen_name!r} must be a name not in {', '.join(names)}")
        rest = rest[gb + 1 :]
        if not rest.startswith("/("):
            raise ParseError("expected /(modulus) after generator name")
        depth = 0
        end = -1
        for i, ch in enumerate(rest[1:], start=1):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end < 0:
            raise ParseError("unbalanced parenthesis in modulus")
        mod_txt = rest[2:end]
        rest = rest[end + 1 :]
        coeffs = _expr.dense(field, _expr.eval_poly_text(field, mod_txt, gen_name))
        field = ExtensionField(field, coeffs, gen_name=gen_name)
    return field


def poly_str_by_elt_str(K, terms, var):
    """Canonical text with every coefficient printed by K.elt_str: the
    oracle for _polyops.poly_str."""
    z = K.zero()
    out = []
    for e, c in reversed(list(terms)):
        if c == z:
            continue
        cs = K.elt_str(c)
        wrapped = f"({cs})" if any(s in cs for s in "+-*") else cs
        if e == 0:
            out.append(wrapped)
        else:
            v = var if e == 1 else f"{var}^{e}"
            out.append(v if c == K.one() else f"{wrapped}*{v}")
    return "+".join(out) or "0"


def is_irreducible_rabin(K, f):
    """Irreducibility over K via the q-power fixed-point criterion (Rabin
    1980): the oracle for _polyops.is_irreducible.

    f of degree d is irreducible iff x**(q**d) = x mod f and, for every
    prime divisor r of d, gcd(x**(q**(d/r)) - x, f) = 1.
    """
    d = po.deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    q = K.order
    x = [K.zero(), K.one()]
    powers = {}
    t = list(x)
    for k in range(1, d + 1):
        t = po.powmod(K, t, q, f)
        powers[k] = t
    if po.trim(K, po.sub(K, powers[d], x)) != []:
        return False
    for r in po._prime_divisors(d):
        g = po.gcd(K, po.sub(K, powers[d // r], x), f)
        if po.deg(g) != 0:
            return False
    return True


def is_irreducible_by_scan(K, f, kept=None):
    """Irreducibility over K: the first distinct-degree product is all of
    f, with the q-power matrix the scan builds, if any, appended to
    ``kept``.  The oracle for the scan-then-Rabin split of
    _polyops.is_irreducible."""
    n = po.deg(f)
    scan = po.distinct_degree(K, po._bits(f) if K.order == 2 else f, kept)
    return n > 0 and next(scan)[1] == n


def distinct_degree_by_powmod(K, f):
    """The distinct-degree scan with one binary power x**(q**d) mod v per
    degree: the oracle for the q-power matrix of _polyops.distinct_degree."""
    q = K.order
    x = [K.zero(), K.one()]
    v, h, d = list(f), x, 0
    while po.deg(v) >= 2 * (d + 1):
        d += 1
        h = po.powmod(K, h, q, v)
        g = po.gcd(K, po.sub(K, h, x), v)
        if po.deg(g) > 0:
            yield g, d
            v = po.divmod_(K, v, g)[0]
            h = po.mod(K, h, v)
    if po.deg(v) > 0:
        yield v, po.deg(v)


def irred_ff_bidecomp_by_full_product(f, shape):
    """irred_ff_bidecomp with the whole vanishing polynomial of the orbit
    {alpha**(q**(j*r))} multiplied out before any coefficient is checked:
    the oracle for the trace check of gendecomp._block_pair."""
    r, s = shape
    K = f.field
    ext = build_extension(K, f)
    roots = [ext.gen()]
    for _ in range(s - 1):
        roots.append(Felt(ext, ext.frobenius_rep(roots[-1].rep, K.degree_over_prime * r)))
    prod = Poly.one(ext)
    for root in roots:
        prod = prod * Poly(ext, [-root, ext.felt(1)])
    down = []
    for i in range(1, s + 1):
        c = prod.coeff(i).rep
        if any(x != K.zero() for x in c[1:]):
            return None
        down.append(c[0])
    h = Poly(K, [K.zero()] + down)
    g = upoly.right_divide(f, h)
    return None if g is None else (g, h)


def additive_part_by_scan(f):
    """f - f(0) as an AdditivePoly when it is additive, else None, by a
    scan of the coefficients from the top that stops at the first nonzero
    one off a p-power exponent: the oracle for gendecomp._additive_part."""
    K, coeffs = f.field, f.coeffs
    z, p = K.zero(), K.p
    powers = [1]
    while powers[-1] < len(coeffs) - 1:
        powers.append(powers[-1] * p)
    out = []
    for i in range(len(coeffs) - 1, 0, -1):
        if i == powers[-1]:
            out.append(coeffs[i])
            powers.pop()
        elif coeffs[i] != z:
            return None
    return AdditivePoly._raw(K, out[::-1])


def first_complete_irred_by_rebuilds(f):
    """The factors of first_complete(f, Strategy.IRREDUCIBLE_FF) from an
    irreducibility test of f and one irred_ff_bidecomp, each building
    F[z]/(f), per shape tried: the oracle for its one build per level."""
    if not upoly.is_irreducible(f):
        return gendecomp.first_complete(f, gendecomp.Strategy.SEPARATED).factors
    n = f.degree
    for d in range(2, n):
        if n % d == 0 and (got := gendecomp.irred_ff_bidecomp(f, (d, n // d))):
            g, h = got
            return (g,) + first_complete_irred_by_rebuilds(h)
    return (f,)


def pth_root_poly(f):
    """For f with zero derivative, the g with g**p = f."""
    K = f.field
    return Poly._raw(K, [K.pth_root_rep(c) for c in f.coeffs[:: K.p]])


def squarefree_parts_by_poly(f):
    """Monic f as a list of (squarefree monic part, multiplicity), sorted by
    key, by the characteristic-p Yun loop on Poly values: the oracle for
    _polyops.squarefree."""
    K = f.field
    out = {}
    if f.degree == 0:
        return []
    t = upoly.gcd(f, f.derivative())
    v = f // t
    i = 0
    while v.degree > 0:
        i += 1
        w = upoly.gcd(t, v)
        z = v // w
        if z.degree > 0:
            out[z] = out.get(z, 0) + i
        v = w
        t = t // w
    if t.degree > 0:
        for part, mult in squarefree_parts_by_poly(pth_root_poly(t)):
            out[part] = out.get(part, 0) + mult * K.p
    return sorted(out.items(), key=lambda pm: pm[0].key())


def equal_degree_split_by_poly(u, d, rng):
    """All monic irreducible factors of u (a product of degree-d primes), on
    Poly values: the oracle for _polyops.equal_degree, drawing the same
    stream from rng."""
    K = u.field
    if u.degree == d:
        return [u]
    q = K.order
    n = u.degree
    while True:
        a = Poly._raw(K, [K.rand_rep(rng) for _ in range(n)])
        if a.degree is NEG_INF or a.degree < 1:
            continue
        if K.p == 2:
            t = a
            tr = a
            for _ in range(K.degree_over_prime * d - 1):
                t = (t * t) % u
                tr = tr + t
            g_candidate = tr % u
        else:
            b = Poly._raw(K, po.powmod(K, list(a.coeffs), (q**d - 1) // 2, list(u.coeffs)))
            g_candidate = b - Poly.one(K)
        if g_candidate.is_zero():
            continue
        g = upoly.gcd(g_candidate, u)
        if 0 < g.degree < n:
            return equal_degree_split_by_poly(g, d, rng) + equal_degree_split_by_poly(u // g, d, rng)


def factor_by_poly_stages(f):
    """upoly.factor with its squarefree and equal-degree stages on Poly
    values (the two oracles above), seeding the generator as factor does:
    the oracle for the raw-list stages of _polyops."""
    K = f.field
    rng = None
    parts = {}
    for sq, mult in squarefree_parts_by_poly(f.monic()):
        for prod, d in po.distinct_degree(K, list(sq.coeffs)):
            if rng is None and po.deg(prod) > d:
                rng = random.Random(f"factor:{K.order}:{f.degree}:0")
            for irr in equal_degree_split_by_poly(Poly._raw(K, prod), d, rng):
                parts[irr] = parts.get(irr, 0) + mult
    return sorted(parts.items(), key=lambda pm: pm[0].key()), f.lc()


def mul_prime_loop(K, a, b, frobenius=False):
    """The product over a prime field reduced term by term: the oracle for
    the packed product of _polyops.mul.  ``frobenius`` is accepted and
    ignored: the twist is the identity over a prime field."""
    if not a or not b:
        return []
    p = K.p
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    out[k] = (out[k] + ai * bj) % p
    return po.trim(K, out)


def divmod_by_element_ops(K, a, b, frobenius=False):
    """Long division by the field's element methods, one term at a time:
    the oracle for the prime-field kernels of _polyops.divmod_.
    ``frobenius`` is accepted and ignored, as in mul_prime_loop."""
    if not b:
        raise DivideByZero("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    monic = b[-1] == K.one()
    inv_lead = None if monic else K.inv(b[-1])
    rem = list(a)
    db = len(b) - 1
    quot = [K.zero()] * (len(a) - db)
    z = K.zero()
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k]
        if c == z:
            continue
        q = c if monic else K.mul(c, inv_lead)
        quot[k - db] = q
        off = k - db
        for j in range(db):
            bj = b[j]
            if bj != z:
                rem[off + j] = K.sub(rem[off + j], K.mul(q, bj))
        rem[k] = z
    return po.trim(K, quot), po.trim(K, rem)


def gcd_by_divmod(K, a, b, frobenius=False):
    """Monic gcd by one divmod_ call per Euclid step: the oracle for the
    in-place prime-field loop of _polyops.gcd."""
    a, b = list(a), list(b)
    while b:
        a, b = b, po.divmod_(K, a, b, frobenius)[1]
    return po.monic(K, a)


def frobenius_matrix_by_division(K, v):
    """The q-power matrix of v, a row x**(i*q) mod v by division: the one
    before it shifted by q for q < n, else its product by x**q.  The
    oracle for the packed folding of _polyops._frobenius_matrix."""
    n, q = po.deg(v), K.order
    rows = [[K.one()]]
    if q < n:
        shift = [K.zero()] * q
        while len(rows) < n:
            rows.append(po.mod(K, shift + rows[-1], v))
    else:
        xq = po.powmod(K, [K.zero(), K.one()], q, v)
        while len(rows) < n:
            rows.append(po.mod(K, po.mul(K, rows[-1], xq), v))
    if K.kind == "prime":
        w = po._slot_bytes(n * (K.p - 1) ** 2)
        return n, w, [po._pack(r, w) for r in rows]
    return n, None, rows


def generic_twin(K):
    """A copy of the tabulated extension field K with ``_log = None``: its
    element ops and _polyops kernels run the generic loops on elements,
    the oracle for the kernels on Zech-log codes."""
    twin = copy.copy(K)
    twin._log = None
    return twin


@contextlib.contextmanager
def per_term_kernels():
    """Run _polyops, and everything above it, on the two loops above in
    place of its packed kernels: for prime fields only."""
    saved = po.mul, po.divmod_
    po.mul, po.divmod_ = mul_prime_loop, divmod_by_element_ops
    try:
        yield
    finally:
        po.mul, po.divmod_ = saved


def chebyshev_by_recurrence(n, field):
    """[T_0, ..., T_n] by T_i+1 = 2x T_i - T_i-1: the oracle for
    upoly.chebyshev."""
    out = [Poly.one(field), Poly.x(field)]
    two_x = Poly._raw(field, [field.zero(), field.from_int(2)])
    while len(out) <= n:
        out.append(two_x * out[-1] - out[-2])
    return out[: n + 1]


def mul_schoolbook(K, a, b):
    """Product and reduction of two elements of the extension field K on
    coordinates: the oracle for ExtensionField.mul."""
    base = K.base
    d = K.deg
    z = base.zero()
    prod = [z] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai != z:
            for j, bj in enumerate(b):
                if bj != z:
                    prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
    m = K.modulus
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        if c == z:
            continue
        prod[k] = z
        off = k - d
        for j in range(d):
            mj = m[j]
            if mj != z:
                prod[off + j] = base.sub(prod[off + j], base.mul(c, mj))
    return tuple(prod[:d])


def poly_in_h_by_valuation(u, h, r):
    """The monic v of degree r with u = v(h) * hD**r, or None: the oracle
    for ratfun.poly_in_h.

    The coefficients satisfy a triangular recurrence along the x-adic
    valuation d of hN; the candidate is verified by full expansion since
    the system is overconstrained.
    """
    K = u.field
    if not u.is_monic():
        raise NotMonic("target polynomial must be monic")
    hN, hD = h.num, h.den
    sN = int(hN.degree)
    if not (h.is_monic() and h.vanishes_at_zero() and h.delta > 0):
        raise DegreeInfeasible("inner function must be monic, vanish at 0, delta > 0")
    if u.degree != r * sN:
        return None
    d = 0
    while u.field.zero() == hN.coeffs[d]:
        d += 1
    c_hn = hN.coeff(d)
    c_hd = hD.coeff(0)
    coeffs = []
    acc = Poly.zero(K)
    for ell in range(r + 1):
        denom = c_hn**ell * c_hd ** (r - ell)
        b = (u.coeff(ell * d) - acc.coeff(ell * d)) / denom
        coeffs.append(b)
        if not b.is_zero():
            acc = acc + (hN**ell * hD ** (r - ell)).scale(b)
    if acc == u:
        return Poly(K, coeffs)
    return None


def seeded_rng(label):
    return random.Random(f"polydec-tests:{label}")
