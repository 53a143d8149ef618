"""Independent arithmetic for the benchmark's answer checks.

Everything here works on raw coefficient lists with the field's element
operations only, so a check does not trust the polynomial, additive or
decomposition code that it is checking.
"""


def trim(K, c):
    z = K.zero()
    c = list(c)
    while c and c[-1] == z:
        c.pop()
    return c


def poly_add(K, a, b):
    n = max(len(a), len(b))
    z = K.zero()
    a = list(a) + [z] * (n - len(a))
    b = list(b) + [z] * (n - len(b))
    return trim(K, [K.add(x, y) for x, y in zip(a, b)])


def poly_mul(K, a, b):
    if not a or not b:
        return []
    z = K.zero()
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == z:
            continue
        for j, y in enumerate(b):
            if y != z:
                out[i + j] = K.add(out[i + j], K.mul(x, y))
    return trim(K, out)


def poly_mod(K, a, m):
    """Remainder of a by a nonzero m."""
    a = trim(K, a)
    inv = K.inv(m[-1])
    d = len(m) - 1
    while len(a) - 1 >= d:
        c = K.mul(a[-1], inv)
        off = len(a) - 1 - d
        for j, y in enumerate(m):
            a[off + j] = K.sub(a[off + j], K.mul(c, y))
        a = trim(K, a)
    return a


def poly_compose(K, g, h):
    """g(h) by Horner's rule."""
    acc = []
    for c in reversed(list(g)):
        acc = poly_add(K, poly_mul(K, acc, h), [c])
    return acc


def poly_chain(K, factors):
    """Coefficients of f_1 o f_2 o ... o f_k (outermost first)."""
    acc = list(factors[-1])
    for f in reversed(factors[:-1]):
        acc = poly_compose(K, f, acc)
    return acc


def add_compose(K, f, g):
    """f(g) for additive coefficient vectors (entry i multiplies x^(p^i))."""
    if not f or not g:
        return []
    z = K.zero()
    out = [z] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == z:
            continue
        for j, b in enumerate(g):
            if b != z:
                out[i + j] = K.add(out[i + j], K.mul(a, K.frobenius_rep(b, i)))
    return trim(K, out)


def add_chain(K, factors):
    acc = list(factors[-1])
    for f in reversed(factors[:-1]):
        acc = add_compose(K, f, acc)
    return acc


def add_is_multiple(K, a, f):
    """True when the additive polynomial a (vector) is a multiple of the
    dense polynomial f, by reducing each x^(p^i) modulo f."""
    f = trim(K, f)
    if len(f) <= 1:
        return True
    z = K.zero()
    acc = []
    t = poly_mod(K, [z, K.one()], f)
    for i, c in enumerate(a):
        if i:
            u = [K.one()]
            for _ in range(K.p):
                u = poly_mod(K, poly_mul(K, u, t), f)
            t = u
        if c != z:
            acc = poly_add(K, acc, [K.mul(c, y) for y in t])
    return not poly_mod(K, acc, f)


def add_text(K, coeffs):
    """Input text for an additive vector, highest exponent first."""
    z = K.zero()
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == z:
            continue
        mono = "x" if i == 0 else f"x^{K.p ** i}"
        if c == K.one():
            terms.append(mono)
        else:
            terms.append(f"({K.elt_str(c)})*{mono}")
    return "+".join(terms) if terms else "0"


def poly_text(K, coeffs):
    z = K.zero()
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == z:
            continue
        if e == 0:
            terms.append(f"({K.elt_str(c)})")
            continue
        mono = "x" if e == 1 else f"x^{e}"
        terms.append(mono if c == K.one() else f"({K.elt_str(c)})*{mono}")
    return "+".join(terms) if terms else "0"
