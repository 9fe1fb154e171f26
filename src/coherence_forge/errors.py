"""Exception types raised by the package.

Everything derives from CoherenceForgeError so callers can catch broadly.
SchemaError covers malformed input structure (bad JSON shape, missing keys);
ValidationError covers well-formed input with invalid values (non-Hermitian
matrix, trace != 1, ...).
"""


class CoherenceForgeError(Exception):
    pass


class SchemaError(CoherenceForgeError):
    """Input has the wrong structure (missing keys, wrong shapes)."""


class ValidationError(CoherenceForgeError):
    """Input is structurally fine but violates a required property."""


class NonHermitianError(ValidationError):
    """Matrix expected to be Hermitian is not."""


class DimMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class IncommensurateSpectrumError(CoherenceForgeError):
    """Occupied energy levels are not integer multiples of 2*pi/tau."""


class PeriodMismatchError(CoherenceForgeError):
    """States (or a state and a clock period) have incompatible periods."""


class GcdNotOneError(CoherenceForgeError):
    """Support offsets never combine to a unit step, so copies of the
    distribution can never overlap a unit-shifted copy."""


class SearchExhaustedError(CoherenceForgeError):
    """A bounded search ended without finding what it was asked for."""


class ZeroTargetVarianceError(CoherenceForgeError):
    """Target state carries no energy spread, so no finite rate exists."""


class SolverStallError(CoherenceForgeError):
    """Interior-point solver exceeded its iteration budget."""


class CertificateError(CoherenceForgeError):
    """A primal-dual certificate failed its independent re-check."""
