"""Low-level polynomial arithmetic on raw coefficient lists.

Coefficients are little-endian lists (index = exponent) of raw element
representations over a field object ``K`` exposing ``zero/one/add/sub/neg/
mul/inv`` on representations.  The empty list is the zero polynomial.  The
field tower uses these helpers for products, moduli, inverses and
irreducibility testing, ``upoly.factor`` for its squarefree,
distinct-degree and equal-degree stages, and the public ``Poly`` class
wraps them.  With ``frobenius``, ``mul``, ``divmod_``, ``gcd`` and
``extgcd`` are the product, division and Euclidean scheme of the additive
composition ring.  Over a prime field (elements are the ints 0..p-1),
where that twist is the identity, ``mul`` and ``divmod_`` pack long
operands into integers, a slot per coefficient: a product is one integer
product (Kronecker substitution), and division one shifted integer add
per quotient term on a window of the dividend a few divisor lengths
long.  Over GF(2) the squarefree, distinct-degree and equal-degree
stages, and so ``_factor`` and ``is_irreducible``, run on bit strings: a
polynomial is a Python int whose bit i is the coefficient of x**i,
converted once on the way in and once per factor on the way out.  Over
GF(p), p odd, ``is_irreducible`` runs the distinct-degree scan only until
the scan would build the q-power matrix, and Rabin's test from there.
"""

from __future__ import annotations

import operator
import random
import struct

from .errors import DivideByZero


def trim(K, c):
    """Drop trailing zero coefficients in place and return the list."""
    z = K.zero()
    while c and c[-1] == z:
        c.pop()
    return c


def deg(c):
    """Degree with the convention deg 0 = -1 (internal layer only)."""
    return len(c) - 1


def add(K, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = K.add(out[i], x)
    return trim(K, out)


def sub(K, a, b):
    out = list(a) + [K.zero()] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = K.sub(out[i], x)
    return trim(K, out)


def neg(K, a):
    return [K.neg(x) for x in a]


def scale(K, a, c):
    if c == K.zero():
        return []
    return trim(K, [K.mul(x, c) for x in a])


# Over a prime field, a product with a factor of fewer than _PACK_MIN
# coefficients, and a division by a divisor of degree under _PACK_MIN or
# with fewer than 2 * _PACK_MIN quotient terms, uses a plain integer loop:
# below these measured lengths packing costs more than it saves.
_PACK_MIN = 8
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_bytes(bound):
    """Bytes per packed slot for integers up to ``bound``."""
    w = (bound.bit_length() + 7) // 8
    return next((s for s in _STRUCT_CODES if w <= s), w)


def _pack(c, w):
    """The integer sum(c[i] << 8*w*i), in linear time."""
    code = _STRUCT_CODES.get(w)
    if code:
        return int.from_bytes(struct.pack(f"<{len(c)}{code}", *c), "little")
    return int.from_bytes(b"".join([x.to_bytes(w, "little") for x in c]), "little")


def _unpack(n, w, count):
    """The ``count`` slots of ``w`` bytes of the integer 0 <= n < 2**(8*w*count)."""
    data = n.to_bytes(w * count, "little")
    code = _STRUCT_CODES.get(w)
    if code:
        return struct.unpack(f"<{count}{code}", data)
    return [int.from_bytes(data[i : i + w], "little") for i in range(0, w * count, w)]


def _frobenius_rows(K, coeffs):
    """The function t -> the p**t-th powers of ``coeffs``.  A power p**t
    reads row t mod e, e > 1 the degree of K over GF(p), built on first
    read."""
    e, z = K.degree_over_prime, K.zero()
    rows = {0: coeffs}

    def row(t):
        k = t % e
        if k not in rows:
            rows[k] = [c if c == z else K.frobenius_rep(c, k) for c in coeffs]
        return rows[k]

    return row


def mul(K, a, b, frobenius=False):
    """The product a * b; with ``frobenius``, that of the skew ring K[t; s],
    s the p-th power map (Ore 1933), where term i of a multiplies the
    p**i-th powers of b: the composition of additive polynomials."""
    if not a or not b:
        return []
    if K.kind == "prime":
        p = K.p
        if len(a) >= _PACK_MIN <= len(b):
            # Kronecker substitution: one integer per factor, with a slot per
            # coefficient wide enough for a coefficient of the product
            w = _slot_bytes(min(len(a), len(b)) * (p - 1) ** 2)
            out = _unpack(_pack(a, w) * _pack(b, w), w, len(a) + len(b) - 1)
            return trim(K, [c % p for c in out])
        # most short factors are monomials, a term per output coefficient,
        # so reducing term by term costs less than deferring the reduction
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    if y:
                        out[k] = (out[k] + x * y) % p
        return trim(K, out)
    z = K.zero()
    rows = _frobenius_rows(K, b) if frobenius else None
    out = [z] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != z:
            for k, bj in enumerate(rows(i) if rows else b, i):
                if bj != z:
                    out[k] = K.add(out[k], K.mul(ai, bj))
    return trim(K, out)


def divmod_(K, a, b, frobenius=False):
    """Quotient and remainder of a by nonzero b; with ``frobenius``, right
    division in the skew ring of ``mul``, quotient term t read off with the
    p**t-th powers of b[:-1] and, unless b is monic, of 1/lc(b)."""
    if not b:
        raise DivideByZero("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    monic = b[-1] == K.one()
    inv_lead = None if monic else K.inv(b[-1])
    db = len(b) - 1
    # twisted, quotient term t by a constant c is a_t * (1/c)**(p**t)
    if not db and (monic or not frobenius):
        return trim(K, list(a)) if monic else scale(K, a, inv_lead), []
    if K.kind == "prime":
        p = K.p
        q_inv = 1 if monic else inv_lead
        quot = [0] * (len(a) - db)
        if db < _PACK_MIN or len(quot) < 2 * _PACK_MIN:
            rem = list(a)  # reduced only where read
            for k in range(len(a) - 1, db - 1, -1):
                c = rem[k] % p
                if c:
                    quot[k - db] = q = c * q_inv % p
                    for j, x in enumerate(b, k - db):
                        rem[j] -= q * x
            return trim(K, quot), trim(K, [r % p for r in rem[:db]])
        # The dividend is taken from the top, up to 4 * db coefficients at a
        # time, below the db carried from the last window.  A window is packed
        # once with slots wide enough for db products q * (p - b_j) without a
        # carry; a quotient term is one slot read and one shifted integer add
        # on the window, and its low db slots, reduced, are carried.
        w = _slot_bytes(p * p * (db + 1))
        bits, mask = 8 * w, (1 << 8 * w) - 1
        neg_b = _pack([(p - x) % p for x in b[:db]], w)
        rem, hi = a[-db:], len(a) - db
        while hi:
            lo = max(0, hi - 4 * db)
            packed = _pack(a[lo:hi] + rem, w)
            for i in range(hi - lo + db - 1, db - 1, -1):
                c = (packed >> bits * i & mask) % p
                if c:
                    quot[lo + i - db] = q = c * q_inv % p
                    packed += q * neg_b << bits * (i - db)
            rem = [r % p for r in _unpack(packed & ((1 << bits * db) - 1), w, db)]
            hi = lo
        return trim(K, quot), trim(K, rem)
    z = K.zero()
    # the row of quotient term t: b[:db], then 1/lc(b) unless b is monic
    row = b[:db] if monic else [*b[:db], inv_lead]
    rows = _frobenius_rows(K, row) if frobenius else None
    rem = list(a)
    quot = [z] * (len(a) - db)
    for t in reversed(range(len(quot))):
        c = rem[t + db]
        if c != z:
            r = rows(t) if rows else row
            if not monic:
                c = K.mul(c, r[db])
            quot[t] = c
            for j in range(db):
                if r[j] != z:
                    rem[t + j] = K.sub(rem[t + j], K.mul(c, r[j]))
    return trim(K, quot), trim(K, rem[:db])


def mod(K, a, b):
    return divmod_(K, a, b)[1]


def monic(K, a):
    """Scale a nonzero polynomial to make it monic."""
    if not a:
        raise DivideByZero("cannot normalise the zero polynomial")
    if a[-1] == K.one():
        return list(a)
    return scale(K, a, K.inv(a[-1]))


def gcd(K, a, b, frobenius=False):
    """Monic gcd of a and b, not both zero; with ``frobenius``, the greatest
    common right factor in the skew ring of ``mul``."""
    a, b = list(a), list(b)
    while b:
        a, b = b, divmod_(K, a, b, frobenius)[1]
    return monic(K, a)


def extgcd(K, a, b, frobenius=False):
    """(r, s, t), a and b not both zero: r the last nonzero remainder, s and
    t the cofactors of a at r and at 0, so s * a = r mod b and t * a is the
    lcm; with ``frobenius``, in the skew ring of ``mul``, b on the right."""
    r0, r1 = list(a), list(b)
    s0, s1 = [K.one()], []
    while r1:
        q, r = divmod_(K, r0, r1, frobenius)
        r0, r1 = r1, r
        s0, s1 = s1, sub(K, s0, mul(K, q, s1, frobenius))
    return r0, s0, s1


def _power(mul, one, a, n):
    """a**n for n >= 0 by binary powering with the product ``mul``.

    The one loop behind field, polynomial, modular and parser powers.  The
    leading underscore keeps it out of the per-layer tracer, which gives
    field element operations no spans.  Starting from the first factor,
    n >= 1 costs n.bit_length() + n.bit_count() - 2 products.
    """
    result = None
    while n:
        if n & 1:
            result = a if result is None else mul(result, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return one if result is None else result


def powmod(K, a, n, m):
    """a**n reduced modulo m, by binary powering."""
    return _power(lambda u, v: mod(K, mul(K, u, v), m), [K.one()], mod(K, a, m), n)


def evaluate(K, a, x):
    """Evaluate at the representation x by Horner's rule."""
    acc = K.zero()
    for c in reversed(a):
        acc = K.add(K.mul(acc, x), c)
    return acc


def derivative(K, a):
    out = []
    for i in range(1, len(a)):
        out.append(K.mul_int(a[i], i))
    return trim(K, out)


# The q-power map h -> h**q mod v (q = K.order) is K-linear, since c**q = c
# for c in K: h**q = sum(h_i * x**(i*q) mod v).  The distinct-degree scan
# applies it as a matrix, the rows x**(i*q) mod v, from degree
# _FROBENIUS_MIN_DEGREE and order _FROBENIUS_MIN_ORDER on, and builds the
# matrix at its second step at the earliest, so a scan that stops at the
# first (most irreducibility tests of a reducible input) builds none.  Over
# GF(p) a binary power costs about 1.5 * bits(q) packed products mod v, and
# a row about min(q + 1, 16) / 16 of one (a shift by q reduced by q + 1
# terms, or a product by x**q when q >= n), so there the scan builds the
# matrix once its binary powers cost half as much as the build: a scan
# that stops early builds none, one that runs long pays half a build more.
# The GF(5) degree-124 scan of the README decomposition stops at d = 4; a
# build at its second step took it 3.5 times as long.  Over an extension
# field a row is a small part of one schoolbook product, and the matrix is
# built at the second step.  Over GF(2), where a step is one squaring, a
# whole scan by the matrix took 0.73-1.43 of the time of binary powering at
# degrees 8-128, and at degrees 3-7 up to 1.8 times it over GF(3), GF(7),
# GF(13), GF(2^2) and GF(3^2).
_FROBENIUS_MIN_DEGREE = 8
_FROBENIUS_MIN_ORDER = 3


def _matrix_at(K, d, n):
    """Whether the distinct-degree scan builds the q-power matrix at step d, deg v = n."""
    q = K.order
    return (d > 1 and q >= _FROBENIUS_MIN_ORDER and n >= _FROBENIUS_MIN_DEGREE
            and (K.kind != "prime" or (d - 1) * 48 * q.bit_length() >= n * min(q + 1, 16)))


def _frobenius_matrix(K, v):
    """The q-power matrix mod v of degree n >= 1, q = K.order: the rows
    x**(i*q) mod v, i < n (von zur Gathen-Shoup 1992).

    For q < n a row is the one before it shifted by q and reduced, else its
    product by x**q mod v.  Over GF(p) the rows are packed into integers
    with slots wide enough for a sum of n coefficient products.
    """
    n, q = deg(v), K.order
    rows = [[K.one()]]
    if q < n:
        shift = [K.zero()] * q
        while len(rows) < n:
            rows.append(mod(K, shift + rows[-1], v))
    else:
        xq = powmod(K, [K.zero(), K.one()], q, v)
        while len(rows) < n:
            rows.append(mod(K, mul(K, rows[-1], xq), v))
    if K.kind == "prime":
        w = _slot_bytes(n * (K.p - 1) ** 2)
        return n, w, [_pack(r, w) for r in rows]
    return n, None, rows


def _frobenius_apply(K, M, h):
    """h**q mod v, for h of degree below n, by the matrix M of v:
    sum(h_i * row_i)."""
    n, w, rows = M
    if w:
        p = K.p
        return trim(K, [c % p for c in _unpack(sum(map(operator.mul, h, rows)), w, n)])
    z = K.zero()
    out = [z] * n
    for c, row in zip(h, rows):
        if c != z:
            for j, r in enumerate(row):
                if r != z:
                    out[j] = K.add(out[j], K.mul(c, r))
    return trim(K, out)


def distinct_degree(K, f, kept=None):
    """Yield (product of the degree-d irreducible factors of f, d), lowest
    d first, for squarefree f of degree >= 1 (Cantor-Zassenhaus 1981).

    The product for d is gcd(x**(q**d) - x, v), where v is f with the
    lower-degree products divided out.  Binary powering steps x**(q**d)
    mod v until _matrix_at has the q-power matrix of v built, which steps
    it from there on, since every later v divides that v.  The scan stops
    once deg v < 2(d+1) and yields what is left as one irreducible.  On
    any f the first yield has d = deg f exactly when f is irreducible: a
    reducible f has a factor of degree at most deg f / 2, which the scan
    reaches before it stops.  When ``kept`` is a list, the q-power matrix
    the scan builds, if any, is appended to it; for an irreducible f it is
    the matrix of f itself.
    """
    q = K.order
    x = [K.zero(), K.one()]
    v, h, d, M = list(f), x, 0, None
    while deg(v) >= 2 * (d + 1):
        d += 1
        n = deg(v)
        if M is None and _matrix_at(K, d, n):
            M = _frobenius_matrix(K, v)
            h = mod(K, h, v)
            if kept is not None:
                kept.append(M)
        h = powmod(K, h, q, v) if M is None else _frobenius_apply(K, M, h)
        g = gcd(K, sub(K, h, x), v)
        if deg(g) > 0:
            yield g, d
            v = divmod_(K, v, g)[0]
    if deg(v) > 0:
        yield v, deg(v)


def squarefree(K, f):
    """Monic f as (squarefree monic part, multiplicity) pairs, sorted by key.

    Characteristic-p Yun: a squarefree f costs the one gcd(f, f').
    Factors whose multiplicity is divisible by p stay in gcd(f, f') with
    zero derivative and are recovered through a p-th root of the
    coefficient list (all of f when f' = 0, since gcd(f, 0) = f).
    """
    if len(f) < 2:
        return []
    t = gcd(K, f, derivative(K, f))
    if len(t) == 1:
        return [(f, 1)]
    parts, i = [], 0
    v = divmod_(K, f, t)[0]
    while len(v) > 1:
        i += 1
        w = gcd(K, t, v)
        z = divmod_(K, v, w)[0]
        if len(z) > 1:
            parts.append((z, i))
        v, t = w, divmod_(K, t, w)[0]
    if len(t) > 1:
        p = K.p
        root = [K.pth_root_rep(c) for c in t[::p]]
        parts += [(g, m * p) for g, m in squarefree(K, root)]
    return sorted(parts, key=lambda pm: _key(K, pm[0]))


def equal_degree(K, u, d, rng):
    """The monic irreducible factors of a monic u whose irreducible factors
    all have degree d (Cantor-Zassenhaus 1981), splitting by random draws
    from rng.  Over GF(2^k) a split is gcd of u and a trace map, else of u
    and a**((q**d - 1) / 2) - 1."""
    n = deg(u)
    if n == d:
        return [u]
    while True:
        a = trim(K, [K.rand_rep(rng) for _ in range(n)])
        if len(a) < 2:
            continue
        if K.p == 2:
            t = tr = a
            for _ in range(K.degree_over_prime * d - 1):
                t = mod(K, mul(K, t, t), u)
                tr = add(K, tr, t)
            split = mod(K, tr, u)
        else:
            split = sub(K, powmod(K, a, (K.order**d - 1) // 2, u), [K.one()])
        if not split:
            continue
        g = gcd(K, split, u)
        if 0 < deg(g) < n:
            return equal_degree(K, g, d, rng) + equal_degree(K, divmod_(K, u, g)[0], d, rng)


def _key(K, c):
    """Canonical sort key: (length, coefficient keys low-to-high)."""
    return (len(c), tuple(K.elt_key(x) for x in c))


def _factor(K, f, seed):
    """The (monic irreducible factor, multiplicity) pairs of a nonzero f in
    the order the stages find them: its squarefree parts, each split by
    distinct_degree, each product by equal_degree with draws from
    random.Random(seed), seeded at the first split that draws.  A factor
    is a coefficient list, over GF(2) bytes."""
    if K.order == 2:
        by_squarefree, by_degree, f, size = _squarefree2, _distinct_degree2, _bits(f), int.bit_length

        def split(K, u, d, rng):
            return map(_coeffs, _equal_degree2(K, u, d, rng))
    else:
        by_squarefree, by_degree, split = squarefree, distinct_degree, equal_degree
        f, size = monic(K, f), len
    rng, parts = None, []
    for sq, mult in by_squarefree(K, f):
        for prod, d in by_degree(K, sq):
            if rng is None and size(prod) > d + 1:
                rng = random.Random(seed)
            parts += [(irr, mult) for irr in split(K, prod, d, rng)]
    return parts


def is_irreducible(K, f, kept=None):
    """Irreducibility over K.  Over GF(2) and extension fields the first
    product of the distinct-degree scan is all of f; over GF(p), p odd, see
    _scan_then_rabin.  When ``kept`` is a list and f is irreducible, the
    q-power matrix, if built, is appended to it."""
    if K.order == 2:
        f = _bits(f)
        n = f.bit_length() - 1
        return n > 0 and next(_distinct_degree2(K, f))[1] == n
    n, built = deg(f), []
    if K.kind == "prime":
        irreducible = _scan_then_rabin(K, f, built)
    else:
        # a matrix step costs about a gcd here: Rabin's n steps made random
        # GF(3^2) inputs of degree 12-40 up to 2.8 times as slow as the scan
        irreducible = n > 0 and next(distinct_degree(K, f, built))[1] == n
    if irreducible and kept is not None:
        kept += built
    return irreducible


def _scan_then_rabin(K, f, built):
    """Irreducibility over GF(p), p odd, of f of degree n.

    The scan of distinct_degree checks gcd(x**(q**d) - x, f) = 1 at each d
    until the step d at which _matrix_at has it build the q-power matrix
    of f.  From there f is irreducible exactly when x**(q**n) = x mod f
    and, for each prime r | n, gcd(x**(q**(n/r)) - x, f) = 1
    (Rabin 1980), the matrix stepping x**(q**k) up to k = n.  A gcd at
    n/r < d is 1, since f has no factor of degree below d, and the gcds
    are taken only once x**(q**n) = x, which most inputs fail.  The matrix
    is appended to ``built``.
    """
    n, q = deg(f), K.order
    x = [K.zero(), K.one()]
    h, d = x, 0
    while n >= 2 * (d + 1):
        d += 1
        if _matrix_at(K, d, n):
            M = _frobenius_matrix(K, f)
            built.append(M)
            at = {n // r for r in _prime_divisors(n) if n // r >= d}
            powers = []
            for k in range(d, n + 1):
                h = _frobenius_apply(K, M, h)
                if k in at:
                    powers.append(h)
            return h == x and all(deg(gcd(K, sub(K, u, x), f)) == 0 for u in powers)
        h = powmod(K, h, q, f)
        if deg(gcd(K, sub(K, h, x), f)) > 0:
            return False
    return n > 0


# The GF(2) stages.  A polynomial is an int, bit i the coefficient of x**i;
# the zero polynomial is 0 and every other one is monic.  Each stage takes
# the arguments of its list stage, K = GF(2) included, and does the same
# arithmetic, equal_degree with the same draws, so the factors and their
# order are the same.  A remainder is
# one shift and XOR per quotient term, and a square spreads the bits of
# each byte through _SPREAD.
_SPREAD = [int("0".join(f"{b:b}"), 2).to_bytes(2, "little") for b in range(256)]
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bits(c):
    """The int of a list of 0/1 coefficients."""
    return int(bytes(c[::-1]).translate(_TO_DIGITS) or b"0", 2)


def _coeffs(a):
    """The coefficients of an int, as bytes, without trailing zeros."""
    return bin(a)[:1:-1].encode().translate(_FROM_DIGITS) if a else b""


def _square2(a):
    return int.from_bytes(
        b"".join(map(_SPREAD.__getitem__, a.to_bytes((a.bit_length() + 7) // 8, "little"))),
        "little")


def _rem2(a, b):
    n = b.bit_length()
    while (s := a.bit_length() - n) >= 0:
        a ^= b << s
    return a


def _quo2(a, b):
    """The quotient of a by nonzero b."""
    n, q = b.bit_length(), 0
    while (s := a.bit_length() - n) >= 0:
        a ^= b << s
        q |= 1 << s
    return q


def _gcd2(a, b):
    # the loop of _rem2 inlined: a call per step made a gcd 9-24% slower
    while b:
        n = b.bit_length()
        while (s := a.bit_length() - n) >= 0:
            a ^= b << s
        a, b = b, a
    return a


def _key2(a):
    """_key of the coefficient list of a: bit length, then the bits from
    the lowest up."""
    return a.bit_length(), bin(a)[:1:-1]


def _squarefree2(K, f):
    """squarefree over GF(2)."""
    if f < 2:
        return []
    # the derivative keeps the odd terms, each one degree down
    t = _gcd2(f, f >> 1 & int("01" * (f.bit_length() // 2 + 1), 2))
    if t == 1:
        return [(f, 1)]
    parts, i = [], 0
    v = _quo2(f, t)
    while v > 1:
        i += 1
        w = _gcd2(t, v)
        z = _quo2(v, w)
        if z > 1:
            parts.append((z, i))
        v, t = w, _quo2(t, w)
    if t > 1:
        # t has only even terms: its square root keeps every other bit
        parts += [(g, m * 2) for g, m in _squarefree2(K, int(bin(t)[2::2], 2))]
    return sorted(parts, key=lambda pm: _key2(pm[0]))


def _distinct_degree2(K, f):
    """distinct_degree over GF(2), where a step is one square mod v."""
    v, h, d = f, 2, 0
    while v.bit_length() > 2 * (d + 1):
        d += 1
        h = _rem2(_square2(h), v)
        g = _gcd2(h ^ 2, v)
        if g > 1:
            yield g, d
            v = _quo2(v, g)
            h = _rem2(h, v)
    if v > 1:
        yield v, v.bit_length() - 1


def _equal_degree2(K, u, d, rng):
    """equal_degree over GF(2): a split is gcd of u and the trace map
    a + a**2 + ... + a**(2**(d-1)) mod u."""
    n = u.bit_length() - 1
    if n == d:
        return [u]
    draw = rng.randrange
    while True:
        a = _bits([draw(2) for _ in range(n)])
        if a < 2:
            continue
        t = split = a
        for _ in range(d - 1):
            t = _rem2(_square2(t), u)
            split ^= t
        if not split:
            continue
        g = _gcd2(split, u)
        if 1 < g and g.bit_length() <= n:
            return _equal_degree2(K, g, d, rng) + _equal_degree2(K, _quo2(u, g), d, rng)


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def random_monic(K, n, rng):
    """Random monic polynomial of exact degree n."""
    return [K.rand_rep(rng) for _ in range(n)] + [K.one()]


def _monic_candidates(K, n, seed):
    """The seeded random monics of degree n that find_irreducible tries."""
    rng = random.Random(f"irreducible:{K.order}:{n}:{seed}")
    while True:
        yield random_monic(K, n, rng)


def find_irreducible(K, n, seed):
    """Deterministically seeded search for a monic irreducible of degree n."""
    return next(f for f in _monic_candidates(K, n, seed) if is_irreducible(K, f))


def poly_str(K, terms, var):
    """Canonical text form, highest power first, e.g. ``x^3+2*x``.

    ``terms`` are (exponent, representation) pairs in rising exponent
    order; zero coefficients are skipped.
    """
    z, one = K.zero(), K.one()
    out = []
    for e, c in reversed(list(terms)):
        if c == z:
            continue
        if e:
            v = var if e == 1 else f"{var}^{e}"
            if c == one:
                out.append(v)
                continue
        cs = K.elt_str(c)
        if "+" in cs or "-" in cs or "*" in cs:
            cs = f"({cs})"
        out.append(f"{cs}*{v}" if e else cs)
    return "+".join(out) or "0"
