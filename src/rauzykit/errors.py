"""Exception types shared across the package."""


class RauzykitError(Exception):
    """Base class for all package-specific errors."""


class SubstitutionParseError(RauzykitError):
    """Raised when a substitution file or JSON object is malformed.

    Carries the offending field path and, for JSON syntax errors, the line.
    """

    def __init__(self, message: str, *, field: str | None = None, line: int | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.field = field
        self.line = line


class NoSeedFound(RauzykitError):
    """No (letter, power) pair yields a growing fixed point within the search bound."""


class NotBalanced(RauzykitError):
    """The two words of a would-be balanced pair differ in letter counts or length."""


class MatrixMismatch(RauzykitError):
    """The two substitutions do not share an incidence matrix."""


class NotPrimitive(RauzykitError):
    """The incidence matrix has no entrywise positive power."""


class NotPisot(RauzykitError):
    """The substitution fails a required Pisot/unimodularity precondition."""


class NegativeEntry(RauzykitError):
    """A matrix expected to be nonnegative has a negative entry."""


class TooManyModularFactors(RauzykitError):
    """Factoring over Z would recombine more modular factors than the cap allows."""


class DivideByZeroPoly(RauzykitError):
    """Division by the zero polynomial."""


class NoConvergence(RauzykitError):
    """Root refinement stalled above the requested residual tolerance."""


class IndeterminateClassification(RauzykitError):
    """A conjugate's modulus sits too close to 1 to classify without guessing."""


class IllConditioned(RauzykitError):
    """An eigenbasis or projector is numerically unreliable."""


class DimensionMismatch(RauzykitError):
    """Point clouds or vectors of different dimensions were combined."""
