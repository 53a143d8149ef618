"""Exception hierarchy shared by all polydec modules."""


class PolydecError(Exception):
    """Base class for all library errors."""


class ParseError(PolydecError):
    """Malformed field spec, polynomial, or rational-function text."""


class FieldMismatch(PolydecError):
    """Operands belong to different fields."""


class NotPrime(PolydecError):
    """Characteristic is not a prime number, or too large to certify as one."""


class NotMonic(PolydecError):
    """A monic polynomial was required."""


class Reducible(PolydecError):
    """Extension modulus is not irreducible over its base field."""


class NotIrreducible(PolydecError):
    """An irreducible polynomial was required."""


class DivideByZero(PolydecError):
    """Division by the zero polynomial or zero field element."""


class BothZero(PolydecError):
    """gcd/meet of two zero polynomials."""


class ZeroInput(PolydecError):
    """A nonzero polynomial was required."""


class DegreeMismatch(PolydecError):
    """Degree divisibility precondition failed."""


class DegreeError(PolydecError):
    """Degenerate or out-of-range degree argument."""


class NotAdditive(PolydecError):
    """Polynomial has a nonzero coefficient at a non-p-power exponent."""


class NotIndecomposable(PolydecError):
    """An indecomposable polynomial was required."""


class NotCoprime(PolydecError):
    """Composition-coprime inputs were required."""


class DependentBasis(PolydecError):
    """Kernel basis elements are linearly dependent over the prime field."""


class ProductMismatch(PolydecError):
    """Shape entries do not multiply to the required degree."""


class BadLength(PolydecError):
    """Factorisation length argument out of range."""


class NotCompletelyReducible(PolydecError):
    """A completely reducible additive polynomial was required."""


class NotSimilarityFree(PolydecError):
    """A similarity-free additive polynomial was required."""


class NotSimple(PolydecError):
    """A simple additive polynomial (nonzero linear coefficient) was required."""


class ExponentBoundExceeded(PolydecError):
    """Additive exponent exceeds the supported bound for this operation."""


class NotTame(PolydecError):
    """Tame algorithm invoked with characteristic dividing the outer degree."""


class ZeroDenominator(PolydecError):
    """Rational function with zero denominator."""


class Degenerate(PolydecError):
    """Fractional linear transformation with zero determinant or collapsed image."""


class ConstantInput(PolydecError):
    """A nonconstant rational function was required."""


class DegreeInfeasible(PolydecError):
    """Requested degree quadruple is arithmetically impossible."""
