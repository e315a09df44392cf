"""Exception types shared across the package."""


class SchemeAlgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SchemeAlgError):
    """Operands live in incompatible spaces (matrix shapes, variable counts)."""


class SingularMatrix(SchemeAlgError):
    """A square matrix required to be invertible is not."""


class ZeroPolynomial(SchemeAlgError):
    """An operation (division, root finding, leading term) got the zero polynomial."""


class NotAPartition(SchemeAlgError):
    """Relation labels do not partition X x X with the diagonal as class 0."""


class NotSymmetric(SchemeAlgError):
    """Some relation class is not symmetric."""


class NotConstantIntersectionNumber(SchemeAlgError):
    """The count |{z : (x,z) in R_i, (z,y) in R_j}| depends on the choice of (x,y) in R_k."""


class NotCommutative(SchemeAlgError):
    """Intersection numbers violate p_ij^k = p_ji^k."""


class InvalidRadix(SchemeAlgError):
    """Orbit-scheme parameters are out of range or r is not a unit mod m."""


class NotTriangularEnough(SchemeAlgError):
    """Back-substitution hit a generator it cannot solve; retry with another order."""


class NotExpressible(SchemeAlgError):
    """A variable cannot be written as a polynomial in the chosen subset."""

    def __init__(self, variable, message=None):
        self.variable = variable
        super().__init__(message or f"x{variable} is not expressible over the given subset")


class AttemptsExhausted(SchemeAlgError):
    """The randomized search for a generic coordinate change gave up."""


class SearchTooLarge(SchemeAlgError):
    """An exhaustive search would try more candidates than its limit allows."""


class InternalInvariantViolation(SchemeAlgError):
    """A property the mathematics guarantees failed to hold; inputs are corrupt or there is a bug."""


class ParseError(SchemeAlgError):
    """A scheme description file could not be parsed or validated."""
