"""Prime fields and towers of algebraic extensions, with exact arithmetic.

Elements travel as lightweight canonical representations: an ``int`` in
``[0, p)`` for a prime field and a fixed-length tuple of base-field
representations for each extension level.  :class:`Felt` wraps a
representation with its owning field for operator convenience.  Extension
levels are kept as a tower (extension of extension) rather than flattened
to one absolute extension, so fields built level by level compare equal to
their construction description.

Field spec grammar: ``GF(p)`` | ``GF(p^e)`` (auto-chosen seeded modulus) |
``GF(p)[g1]/(m1)[g2]/(m2)...`` (explicit tower, level-k modulus written in
the generator ``gk``).  A generator name is a name other than ``x`` and the
names below it; a level built without one takes the first ``g<k>`` unused.
"""

from __future__ import annotations

from . import _polyops as po
from ._expr import _natural, dense, eval_poly_text
from .errors import (
    DegreeError,
    DivideByZero,
    FieldMismatch,
    NotMonic,
    NotPrime,
    ParseError,
    Reducible,
)


# Miller-Rabin with every prime base up to 41 has no strong pseudoprime
# below this bound (Sorenson and Webster 2015), so the test is exact there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; NotPrime when n is too large to certify."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_LIMIT:
        raise NotPrime(f"{n} is too large to certify as prime (limit {_MR_LIMIT})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of :class:`PrimeField` and :class:`ExtensionField`."""

    kind = ""
    p = 0
    order = 0
    height = 0          # number of extension levels above the prime field
    _names = ()         # generator names of the tower levels, lowest first
    degree_over_prime = 1
    _log = None         # element -> Zech-log code, on a tabulated extension

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def mul_int(self, a, n):
        return self.mul(a, self.from_int(n))

    def pow_(self, a, n):
        if n < 0:
            return self.pow_(self.inv(a), -n)
        return po._power(self.mul, self.one(), a, n)

    def frobenius_rep(self, a, times):
        """a raised to the p**times power; over GF(p), a itself."""
        times %= self.degree_over_prime
        return self._pth_powers(a, times) if times else a

    def pth_root_rep(self, a):
        """The unique representation b with b**p = a."""
        return self.frobenius_rep(a, self.degree_over_prime - 1)

    def rep(self, x):
        """Coerce an int, Felt, or raw representation into a representation.

        A Felt of another field, or anything that is not an element,
        raises FieldMismatch.
        """
        if isinstance(x, Felt):
            if x.field != self:
                raise FieldMismatch(f"element of {x.field} used in {self}")
            return x.rep
        if isinstance(x, int):
            return self.from_int(x)
        raise FieldMismatch(f"{x!r} is not an element of {self}")

    def felt(self, x):
        """Coerce an int, Felt, or raw representation into a Felt."""
        return Felt(self, self.rep(x))

    def elements(self):
        """All element representations, in canonical order."""
        raise NotImplementedError

    def felts(self):
        return (Felt(self, r) for r in self.elements())

    def generator_by_name(self, name):
        """Representation of the named tower generator, lifted to this field."""
        raise ParseError(f"unknown generator {name!r} in field {self}")

    def __repr__(self):
        return self.describe()

    def __str__(self):
        return self.describe()


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.order = p
        self.height = 0
        self.degree_over_prime = 1

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise DivideByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow_(self, a, n):
        if n < 0:
            return self.inv(pow(a, -n, self.p))
        return pow(a, n, self.p)

    def rand_rep(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return iter(range(self.p))

    def elt_str(self, a):
        return str(a)

    def elt_key(self, a):
        return a

    def describe(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


# Fields of at most this order get log, antilog and Zech-log tables
# (Huber 1990, "Some comments on Zech's logarithms"), on which the
# polynomial kernels of _polyops also run; larger fields multiply on the
# polynomial kernel.  At the bound the tables take about 0.29 MB.
_TABLE_MAX_ORDER = 1 << 10


class ExtensionField(Field):
    kind = "ext"

    def __init__(self, base, modulus, gen_name=None):
        """Extend ``base`` by a root of the monic irreducible ``modulus``.

        ``modulus`` is a little-endian list of base representations of
        degree >= 2; its validity is checked here.
        """
        d = po.deg(modulus)
        if d < 2:
            raise Reducible("extension modulus must have degree >= 2")
        if modulus[-1] != base.one():
            raise NotMonic("extension modulus must be monic")
        kept = []  # the q-power matrix of the modulus, if the scan builds it
        if not po.is_irreducible(base, modulus, kept):
            raise Reducible("extension modulus is reducible over its base")
        self.base = base
        self.modulus = tuple(modulus)
        self.deg = d
        self.p = base.p
        self.order = base.order**d
        self.height = base.height + 1
        self.degree_over_prime = base.degree_over_prime * d
        self.gen_name = gen_name or next(
            f"g{k}" for k in range(1, self.height + 1) if f"g{k}" not in base._names)
        self._names = base._names + (self.gen_name,)
        self._zero = (base.zero(),) * d
        self._one = (base.one(),) + self._zero[1:]
        self._gen = (base.zero(), base.one()) + self._zero[2:]
        self._frobenius = kept[0] if kept else None  # else built by _pth_powers
        if self.order <= _TABLE_MAX_ORDER:
            self._tabulate()

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return (self.base.from_int(n),) + self._zero[1:]

    def rep(self, x):
        """A list or tuple of ``deg`` base elements becomes a tuple of base
        representations; ints and Felts coerce as in :meth:`Field.rep`."""
        if isinstance(x, (list, tuple)):
            if len(x) != self.deg:
                raise FieldMismatch(
                    f"{x!r} does not have {self.deg} coordinates over {self.base}")
            base = self.base
            return tuple(base.rep(c) for c in x)
        return super().rep(x)

    def embed(self, a):
        """Lift a base-field representation into this level."""
        return (a,) + self._zero[1:]

    def gen(self):
        """The residue of the adjoined indeterminate, as a Felt."""
        return Felt(self, self._gen)

    # Element ops read the tables when the field has them (``_log`` is not
    # None), built in __init__.  ``log`` maps zero to 2n (n = q - 1), and
    # ``exp`` holds g^0 .. g^(n-1) twice, then zeros, so a sum of two logs
    # indexes the product directly.  ``zech`` is also two periods long: a
    # difference of two logs indexes it directly, negative ones from the end.
    # ``norm`` reduces a sum of up to two logs, or of a log and a Zech log,
    # to a log: j mod n below 2n and 2n (zero) from there.  The polynomial
    # kernels of _polyops run on these logs ("codes") over such a field.

    def add(self, a, b):
        if self._log is None:
            base = self.base
            return tuple(base.add(x, y) for x, y in zip(a, b))
        log, exp = self._log, self._exp
        la, lb = log[a], log[b]
        n = self._n
        if la >= n:
            return exp[lb]
        if lb >= n:
            return exp[la]
        return exp[la + self._zech[lb - la]]

    def sub(self, a, b):
        if self._log is None:
            base = self.base
            return tuple(base.sub(x, y) for x, y in zip(a, b))
        log, exp = self._log, self._exp
        la, lb = log[a], log[b]
        n = self._n
        if lb >= n:
            return exp[la]
        lb += self._log_minus_one
        if la >= n:
            return exp[lb]
        return exp[la + self._zech[lb - la]]

    def neg(self, a):
        if self._log is None:
            base = self.base
            return tuple(base.neg(x) for x in a)
        return self._exp[self._log[a] + self._log_minus_one]

    def mul(self, a, b):
        if self._log is None:
            return self._mul_mod(a, b)
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a):
        if self._log is None:
            return self._inv_euclid(a)
        la = self._log[a]
        if la >= self._n:
            raise DivideByZero("inverse of zero")
        return self._exp[self._n - la]

    def _tabulate(self):
        """Build the tables of a field of order at most _TABLE_MAX_ORDER.

        A primitive element ``g`` is the first nonzero element, in element
        order, with ``g^(n/r) != 1`` for every prime ``r | n``; one walk of
        ``n`` products gives its powers, on the codes of a tabulated base.
        """
        n = self.order - 1
        zero, one = self._zero, self._one
        mul = self._mul_mod
        tests = [n // r for r in po._prime_divisors(n)]
        g = next(
            c for c in self.elements()
            if c != zero and all(po._power(mul, one, c, t) != one for t in tests)
        )
        base, powers = self.base, [one]
        if base._log is None:
            for _ in range(n - 1):
                powers.append(mul(powers[-1], g))
        else:
            # on the codes of the base (see _polyops._codes): g and the
            # modulus converted once, and each power once, into a tuple
            step, m = po._codes(base, g), po._codes(base, self.modulus)
            exp, pad, c = base._exp, [2 * base._n] * self.deg, [0]
            for _ in range(n - 1):
                c = po._code_divmod(base, po._code_mul(base, c, step), m)[1]
                powers.append(tuple([exp[x] for x in c + pad[len(c):]]))
        log = {x: k for k, x in enumerate(powers)}
        log[zero] = 2 * n
        zech = [log[(base.add(x[0], base.one()),) + x[1:]] for x in powers]
        self._n = n
        self._log_minus_one = 0 if self.p == 2 else n // 2
        self._exp = powers * 2 + [zero] * (2 * n + 1)
        self._zech = zech * 2
        self._norm = [*range(n)] * 2 + [2 * n] * (2 * n + 1)
        self._log = log

    def _pth_powers(self, a, times):
        """a**(p**times), 0 < times < e."""
        # A tabulated field multiplies the log of a by p**times.  Otherwise
        # the q-power matrix of the modulus, q the base order, raises to q
        # once per whole base degree of ``times`` and binary powers take the
        # other p-th powers.  One matrix product cost a fifth to a quarter of
        # one binary p-th power at every base order and degree measured
        # (GF(2) degrees 11-40, GF(13) 3-18, GF(2^2) and GF(3^2) 4-8), so
        # the matrix is built on first use and kept.
        if self._log is not None:
            la = self._log[a]
            return a if la >= self._n else self._exp[la * self.p**times % self._n]
        whole, times = divmod(times, self.base.degree_over_prime)
        if whole and self._frobenius is None:
            self._frobenius = po._frobenius_matrix(self.base, list(self.modulus))
        for _ in range(whole):
            r = po._frobenius_apply(self.base, self._frobenius, a)
            a = tuple(r) + self._zero[len(r):]
        for _ in range(times):
            a = self.pow_(a, self.p)
        return a

    def _mul_mod(self, a, b):
        """Product reduced by the modulus, on the polynomial kernel: builds
        the tables and serves fields above _TABLE_MAX_ORDER.  Over a prime
        base that kernel packs long operands into integers."""
        r = po.mod(self.base, po.mul(self.base, a, b), self.modulus)
        return tuple(r) + self._zero[len(r):]

    def _inv_euclid(self, a):
        """Inverse s / r for s * a = r, r the last remainder of the extended
        Euclidean scheme against the modulus: a constant, as it is irreducible."""
        if a == self._one:
            return a
        coeffs = po.trim(self.base, list(a))
        if not coeffs:
            raise DivideByZero("inverse of zero")
        r, s, _ = po.extgcd(self.base, coeffs, self.modulus)
        u = po.scale(self.base, s, self.base.inv(r[0]))
        return tuple(u) + self._zero[len(u):]

    def rand_rep(self, rng):
        base = self.base
        return tuple(base.rand_rep(rng) for _ in range(self.deg))

    def elements(self):
        import itertools

        base_elts = list(self.base.elements())
        for combo in itertools.product(base_elts, repeat=self.deg):
            yield tuple(combo)

    def elt_str(self, a):
        return po.poly_str(self.base, enumerate(a), self.gen_name)

    def elt_key(self, a):
        base = self.base
        return tuple(base.elt_key(x) for x in a)

    def generator_by_name(self, name):
        if name == self.gen_name:
            return self._gen
        return self.embed(self.base.generator_by_name(name))

    def describe(self):
        mod_str = po.poly_str(self.base, enumerate(self.modulus), self.gen_name)
        return f"{self.base.describe()}[{self.gen_name}]/({mod_str})"

    def __eq__(self, other):
        # identity first: CoeffVector._check compares fields on every Poly op
        return other is self or (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", self.base, self.modulus))


class Felt:
    """A field element: owning field plus canonical representation."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, Felt):
            if other.field != self.field:
                raise FieldMismatch("elements of different fields")
            return other.rep
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.field.add(self.rep, r))

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.field.sub(self.rep, r))

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.field.sub(r, self.rep))

    def __mul__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.field.mul(self.rep, r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.field.mul(self.rep, self.field.inv(r)))

    def __rtruediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.field.mul(r, self.field.inv(self.rep)))

    def __neg__(self):
        return Felt(self.field, self.field.neg(self.rep))

    def __pow__(self, n):
        return Felt(self.field, self.field.pow_(self.rep, n))

    def inv(self):
        return Felt(self.field, self.field.inv(self.rep))

    def is_zero(self):
        return self.rep == self.field.zero()

    def __eq__(self, other):
        if isinstance(other, Felt):
            return other.field == self.field and other.rep == self.rep
        if isinstance(other, int):
            return self.rep == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.rep))

    def key(self):
        return self.field.elt_key(self.rep)

    def __str__(self):
        return self.field.elt_str(self.rep)

    def __repr__(self):
        return self.field.elt_str(self.rep)


_prime_cache = {}


def build_prime_field(p):
    """The prime field GF(p); raises NotPrime on composite input."""
    f = _prime_cache.get(p)
    if f is None:
        f = PrimeField(p)
        _prime_cache[p] = f
    return f


def build_extension(base, modulus):
    """Extend ``base`` by a root of ``modulus`` (a Poly over base or rep list)."""
    coeffs = getattr(modulus, "coeffs", modulus)
    return ExtensionField(base, list(coeffs))


def find_irreducible(base, degree, seed=0):
    """Seeded deterministic search for a monic irreducible rep list."""
    if degree < 1:
        raise DegreeError("irreducible polynomials have degree >= 1")
    return po.find_irreducible(base, degree, seed)


def frobenius(a, times):
    """a**(p**times); additive on its argument."""
    if times < 0:
        raise ValueError("frobenius power must be nonnegative")
    return Felt(a.field, a.field.frobenius_rep(a.rep, times))


def pth_root(a):
    """The unique b with b**p = a (finite fields are perfect)."""
    return Felt(a.field, a.field.pth_root_rep(a.rep))


def lift(a, target):
    """Embed a Felt of a tower level of ``target`` into ``target`` itself."""
    if a.field == target:
        return a
    chain = []
    cur = target
    while isinstance(cur, ExtensionField):
        chain.append(cur)
        cur = cur.base
        if cur == a.field:
            rep = a.rep
            for level in reversed(chain):
                rep = level.embed(rep)
            return Felt(target, rep)
    raise FieldMismatch(f"{a.field} is not a level of the tower {target}")


def parse_field_spec(text, seed=0):
    """Parse the field spec grammar into a Field.  Each ``[`` opens a level:
    no ``[`` can occur in a modulus, which is expression text."""
    s = text.strip().replace(" ", "")
    if not s.startswith("GF("):
        raise ParseError(f"field spec must start with GF(: {text!r}")
    head, paren, rest = s[3:].partition(")")
    if not paren:
        raise ParseError(f"unbalanced parenthesis in field spec {text!r}")
    p_txt, caret, e_txt = head.partition("^")
    try:
        p, e = _natural(p_txt), _natural(e_txt) if caret else 1
    except ParseError as exc:
        what = "prime power" if caret else "characteristic"
        raise ParseError(f"bad {what} {head!r}: {exc}") from None
    if e < 1:
        raise ParseError(f"prime power exponent must be >= 1: {head!r}")
    field = build_prime_field(p)
    if e > 1:
        # find_irreducible's modulus is the first candidate that passes the
        # extension's own irreducibility scan: each candidate is scanned once
        for modulus in po._monic_candidates(field, e, seed):
            try:
                field = ExtensionField(field, modulus)
                break
            except Reducible:
                pass
    first, *levels = rest.split("[")
    if first:
        raise ParseError(f"trailing junk in field spec: {rest!r}")
    for level in levels:
        gen_name, bracket, after = level.partition("]")
        if not bracket:
            raise ParseError(f"missing ']' after generator name in field spec {text!r}")
        names = field._names + ("x",)
        if gen_name in names or not (gen_name.isascii() and gen_name.isidentifier()):
            raise ParseError(f"generator {gen_name!r} must be a name not in {', '.join(names)}")
        if not after.startswith("/("):
            raise ParseError("expected /(modulus) after generator name")
        mod_txt, paren, junk = after[2:].rpartition(")")
        if not paren:
            raise ParseError("unbalanced parenthesis in modulus")
        if junk:
            raise ParseError(f"trailing junk in field spec: {junk!r}")
        coeffs = dense(field, eval_poly_text(field, mod_txt, gen_name))
        field = ExtensionField(field, coeffs, gen_name=gen_name)
    return field
