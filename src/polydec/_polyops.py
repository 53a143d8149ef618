"""Low-level polynomial arithmetic on raw coefficient lists.

Coefficients are little-endian lists (index = exponent) of raw element
representations over a field object ``K`` exposing ``zero/one/add/sub/neg/
mul/inv`` on representations.  The empty list is the zero polynomial.  The
field tower uses these helpers for products, moduli, inverses and
irreducibility testing; the public ``Poly`` class wraps them.
"""

from __future__ import annotations

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


def mul(K, a, b):
    if not a or not b:
        return []
    if K.kind == "prime":
        p = K.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        k = i + j
                        out[k] = (out[k] + ai * bj) % p
        return trim(K, out)
    z = K.zero()
    out = [z] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != z:
            for j, bj in enumerate(b):
                if bj != z:
                    out[i + j] = K.add(out[i + j], K.mul(ai, bj))
    return trim(K, out)


def divmod_(K, a, b):
    """Quotient and remainder of a by nonzero b."""
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
    return trim(K, quot), trim(K, rem)


def mod(K, a, b):
    return divmod_(K, a, b)[1]


def monic(K, a):
    """Scale a nonzero polynomial to make it monic."""
    if not a:
        raise DivideByZero("cannot normalise the zero polynomial")
    if a[-1] == K.one():
        return list(a)
    return scale(K, a, K.inv(a[-1]))


def gcd(K, a, b):
    """Monic greatest common divisor; either argument may be zero."""
    a, b = list(a), list(b)
    while b:
        a, b = b, mod(K, a, b)
    if not a:
        return []
    return monic(K, a)


def extgcd(K, a, b):
    """Return (g, u, v) with u*a + v*b = g and g monic (or zero)."""
    r0, r1 = list(a), list(b)
    u0, u1 = [K.one()], []
    v0, v1 = [], [K.one()]
    while r1:
        q, r = divmod_(K, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(K, u0, mul(K, q, u1))
        v0, v1 = v1, sub(K, v0, mul(K, q, v1))
    if not r0:
        return [], u0, v0
    c = K.inv(r0[-1])
    return scale(K, r0, c), scale(K, u0, c), scale(K, v0, c)


def _power(mul, one, a, n):
    """a**n for n >= 0 by binary powering with the product ``mul``.

    The one loop behind field, polynomial, modular and parser powers.  The
    leading underscore keeps it out of the per-layer tracer, which gives
    field element operations no spans.
    """
    result = one
    while n:
        if n & 1:
            result = mul(result, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return result


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


def distinct_degree(K, f):
    """Yield (product of the degree-d irreducible factors of f, d), lowest
    d first, for squarefree f of degree >= 1 (Cantor-Zassenhaus 1981).

    The product for d is gcd(x**(q**d) - x, v), where v is f with the
    lower-degree products divided out.  The scan stops once deg v < 2(d+1)
    and yields what is left as one irreducible.  On any f the first yield
    has d = deg f exactly when f is irreducible: a reducible f has a factor
    of degree at most deg f / 2, which the scan reaches before it stops.
    """
    q = K.order
    x = [K.zero(), K.one()]
    v = list(f)
    h = x
    d = 0
    while deg(v) >= 2 * (d + 1):
        d += 1
        h = powmod(K, h, q, v)
        g = gcd(K, sub(K, h, x), v)
        if deg(g) > 0:
            yield g, d
            v = divmod_(K, v, g)[0]
            h = mod(K, h, v)
    if deg(v) > 0:
        yield v, deg(v)


def is_irreducible(K, f):
    """Irreducibility over K: the first distinct-degree product is all of f."""
    return deg(f) > 0 and next(distinct_degree(K, f))[1] == deg(f)


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


def find_irreducible(K, n, seed):
    """Deterministically seeded search for a monic irreducible of degree n."""
    import random

    rng = random.Random(f"irreducible:{K.order}:{n}:{seed}")
    while True:
        f = random_monic(K, n, rng)
        if is_irreducible(K, f):
            return f


def poly_str(K, terms, var):
    """Canonical text form, highest power first, e.g. ``x^3+2*x``.

    ``terms`` are (exponent, representation) pairs in rising exponent
    order; zero coefficients are skipped.
    """
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
