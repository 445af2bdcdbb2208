"""Exception hierarchy shared across the package.

Everything computational derives from CycloCharError so the CLI can map
failures to a single "domain error" exit code; parse failures keep their
own branch for a distinct exit code.
"""


class CycloCharError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CycloCharError):
    """Malformed polynomial or class-data text; carries a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownVariable(ParseError):
    """A variable outside the allowed set appeared in the input text."""


class ZeroPolynomial(CycloCharError):
    """Operation undefined for the zero polynomial."""


class InexactDivision(CycloCharError):
    """An exact polynomial division left a remainder; signals an internal bug
    when raised from a path whose divisibility is guaranteed by theory."""


class InvalidRank(CycloCharError):
    """Cartan type with a rank outside the allowed range for its family."""


class NonIntegralDimension(CycloCharError):
    """Weyl dimension product failed to divide; signals corrupt root data."""


class ZeroWeight(CycloCharError):
    """Operation requires a nonzero dominant weight."""


class ProductNotLarger(CycloCharError):
    """Prime-power zero search needs the numerator exponent product to exceed
    the denominator product."""


class NonCyclotomicRemainder(CycloCharError):
    """A principal character failed to factor into cyclotomics; signals a bug."""


class PositiveDimensional(CycloCharError):
    """Two curves share a component; its torsion points are not enumerated."""


class NotSymmetric(CycloCharError):
    """Laurent polynomial is not invariant under t -> 1/t."""


class HypothesisViolated(CycloCharError):
    """Coefficient hypothesis of the partial-sum identity fails."""


class NotClassifiable(CycloCharError):
    """Input does not satisfy the hypotheses of the a0 = 2 classification."""


class NotAnSCharacter(CycloCharError):
    """Positivity or unit-mean axiom fails for a candidate restriction."""


class NotASquare(CycloCharError):
    """Candidate restriction is not the square of an irreducible character."""


class IsTrivial(CycloCharError):
    """Nothing to reject: the class function is the trivial character."""


class InconsistentClassData(CycloCharError):
    """Class sizes/values are malformed, or they satisfy both axioms yet have
    no zero class, which no genuine virtual character can do."""


class ExponentTooLarge(CycloCharError):
    """An input exponent exceeds the size limit of the requested check."""
