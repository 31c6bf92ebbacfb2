"""Exception hierarchy and warnings for the resodec package.

Two error families matter for the command-line exit contract:

* ``ValidationError`` — the input specification itself is malformed
  (exit code 1 from the CLI).  It is also a ``ValueError``, so callers
  that catch ValueError for bad arguments keep working.
* ``NumericalError`` — the inputs were well-formed but a numerical
  procedure could not produce a trustworthy result (exit code 2).

``VerificationFailure`` (exit code 3) is reserved for the verification
driver when theory-vs-oracle checks fail; it is reported, not raised,
in library use.
"""

__all__ = [
    "ResodecError",
    "ValidationError",
    "NonHermitianCoupling",
    "DimensionMismatch",
    "NonPositiveBeta",
    "BadConfiguration",
    "RegisterTooLarge",
    "TooLargeForExhaustiveCheck",
    "NumericalError",
    "InfraredDivergent",
    "QuadratureNotConverged",
    "AmbiguousClustering",
    "DefectiveLevelShift",
    "DimensionTooLarge",
    "WeightMismatch",
    "PoorFit",
    "VerificationFailure",
    "TruncationWarning",
]


class ResodecError(Exception):
    """Base class for all package-specific errors."""


# =====================================================================
# Input-validation errors (CLI exit code 1)
# =====================================================================

class ValidationError(ResodecError, ValueError):
    """A specification or argument fails its structural invariants
    (also a ValueError)."""


class NonHermitianCoupling(ValidationError):
    """A coupling matrix deviates from Hermiticity beyond tolerance."""


class DimensionMismatch(ValidationError):
    """Array shapes are inconsistent with the declared dimension."""


class NonPositiveBeta(ValidationError):
    """An inverse temperature is not a finite number > 0: zero, a
    negative value, infinity, NaN, a string, a boolean or None."""


class BadConfiguration(ValidationError):
    """A configuration value is malformed (missing, of the wrong type or
    shape, a non-integer where an integer is required, an unreadable
    file or output path, a spin entry other than +1 or -1), or an
    object holds a key that its loader does not read."""


class RegisterTooLarge(ValidationError):
    """Register has more qubits than model.MAX_QUBITS."""


class TooLargeForExhaustiveCheck(ValidationError):
    """The exhaustive integer-combination scan would be too large."""


# =====================================================================
# Numerical-failure errors (CLI exit code 2)
# =====================================================================

class NumericalError(ResodecError):
    """A numerical routine failed to produce a reliable result."""


class InfraredDivergent(NumericalError):
    """The requested quantity diverges at zero frequency for this
    form-factor infrared exponent."""


class QuadratureNotConverged(NumericalError):
    """A quadrature's error estimate stayed above tolerance."""


class AmbiguousClustering(NumericalError):
    """Two clusters of energy differences are too close to separate
    reliably at the requested tolerance."""


class DefectiveLevelShift(NumericalError):
    """A level-shift matrix is not diagonalizable within tolerance
    (eigenvector basis condition number too large)."""


class DimensionTooLarge(NumericalError):
    """The truncated-reservoir state space exceeds the supported size."""


class WeightMismatch(NumericalError):
    """Discretized spectral weight disagrees with the continuum integral
    beyond tolerance."""


class PoorFit(NumericalError):
    """A decay fit has residual above threshold or an inadequate window."""


# =====================================================================
# Verification outcome (CLI exit code 3)
# =====================================================================

class VerificationFailure(ResodecError):
    """One or more theory-vs-oracle verification checks failed."""


# =====================================================================
# Warnings
# =====================================================================

class TruncationWarning(UserWarning):
    """The oracle's bath is truncated more than asked: the excitation cap
    is lowered below the requested Fock cutoff to fit the state space."""
