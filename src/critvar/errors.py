"""Exception hierarchy shared by all critvar modules."""


class CritvarError(Exception):
    """Base class for all errors raised by this package."""


class BadDomain(CritvarError):
    """Domain parameters (dimension, radius) are out of range."""


class GridTooCoarse(CritvarError):
    """Requested node count is below the supported minimum."""


class ShapeMismatch(CritvarError):
    """Sampled field does not match the grid it is paired with."""


class NumericFault(CritvarError):
    """Non-finite values encountered where finite numerics are required."""


class DegeneratePair(CritvarError):
    """A field pair with a vanishing component where both must be nonzero."""


class DivergentIntegral(CritvarError):
    """Improper-integral parameters outside the convergence region."""


class LogScaledRegime(CritvarError):
    """The requested constant does not exist at this dimension; the
    corresponding quantity carries a logarithmic epsilon-scaling instead."""


class IndefiniteWeight(CritvarError):
    """Weight profile is not strictly positive on the grid."""


class SpectralStall(CritvarError):
    """Eigen-solver failed to converge; carries its last eigenvalue estimate."""

    def __init__(self, message, last_rayleigh=None):
        super().__init__(message)
        self.last_rayleigh = last_rayleigh


class BadSpectrum(CritvarError):
    """Inconsistent spectral input (e.g. nonpositive first eigenvalue)."""


class UnderResolvedBubble(CritvarError):
    """Grid does not resolve the concentration scale of a bubble field."""


class OutsideTable(CritvarError):
    """Parameter regime not covered by the expansion table."""


class FitFailure(CritvarError):
    """Least-squares fit could not be performed (degenerate design)."""


class DegenerateDenominator(CritvarError):
    """Quotient with vanishing denominator."""


class ConfigError(CritvarError):
    """Malformed or inconsistent scenario configuration."""


class IoError(CritvarError):
    """Output path could not be written."""


class EmptyReport(CritvarError):
    """Attempt to emit a report with no rows."""
