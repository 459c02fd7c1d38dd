"""Exception types shared across the package."""


class PosrealError(Exception):
    """Base class for all library errors."""


# transfer-function construction
class ZeroDenominator(PosrealError):
    """Denominator is empty or identically zero."""


class NotStrictlyProper(PosrealError):
    """Numerator degree is not strictly below the denominator degree."""


class NotCoprime(PosrealError):
    """Numerator and denominator share a root; the stated degree would drop."""


# partial fractions
class NotPrimitive(PosrealError):
    """The dominant pole is not a unique, simple, positive real pole."""


class NonpositiveDominantResidue(PosrealError):
    """Residue at the dominant pole is not positive; no nonnegative realization exists."""


class ExpansionFailed(PosrealError):
    """Partial-fraction expansion did not reproduce the input within tolerance."""


class MultiplePoleUnsupported(PosrealError):
    """Operation is defined for simple non-dominant poles only."""


# pole geometry
class NoPolygonIndex(PosrealError):
    """No inscribed regular polygon contains the point (modulus not below one)."""


# block construction
class BadPoleBlock(PosrealError):
    """Block parameters violate the pole or residue range of the construction."""


class NotInPolygon(PosrealError):
    """Complex pole pair lies outside the requested polygon region."""


class BudgetTooSmall(PosrealError):
    """Dominant-residue share is below the block's feasibility threshold."""


class DegenerateBarycentric(PosrealError):
    """No fan triangle yielded nonnegative weights (point not interior)."""


class InsufficientBudget(PosrealError):
    """Total required dominant share exceeds the available unit residue."""

    def __init__(self, total: float, limit: float):
        super().__init__(f"required share {total:.6g} exceeds limit {limit:.6g}")
        self.total = total
        self.limit = limit


class LeftoverNegative(PosrealError):
    """A remainder block asked to carry a negative dominant share."""


class NegativeEntry(PosrealError):
    """A matrix or vector entry is negative beyond the clamping window."""


class NegativePrefix(PosrealError):
    """Impulse prefix for the lift contains a negative value."""


# realizer / bounds / checker
class BaseMismatch(PosrealError):
    """Supplied base realization does not match the shifted impulse response."""


class NegativeImpulse(PosrealError):
    """Impulse response is negative at some index; no positive realization."""

    def __init__(self, index: int, value: float):
        super().__init__(f"impulse response negative at index {index}: {value:.6g}")
        self.index = index
        self.value = value


class NotApplicable(PosrealError):
    """Hypotheses of the requested bound do not hold for this input."""


class DimensionMismatch(PosrealError):
    """Matrix and vector dimensions are inconsistent."""


class InternalCheckError(PosrealError):
    """An internal consistency check failed; indicates a defect, not bad input."""
