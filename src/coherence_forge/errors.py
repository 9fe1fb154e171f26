"""Exception types raised by the package.

Everything derives from CoherenceForgeError so callers can catch broadly.
SchemaError covers malformed input structure (bad JSON shape, missing keys);
ValidationError covers every well-formed argument with an invalid value
(non-Hermitian matrix, mismatched dimensions, trace != 1, a target with no
energy spread, ...).  The other classes name failures a caller can act on.
"""


class CoherenceForgeError(Exception):
    pass


class SchemaError(CoherenceForgeError):
    """Input has the wrong structure (missing keys, wrong shapes)."""


class ValidationError(CoherenceForgeError):
    """Input is structurally fine but violates a required property."""


class IncommensurateSpectrumError(CoherenceForgeError):
    """Occupied energy levels are not integer multiples of 2*pi/tau."""


class PeriodMismatchError(CoherenceForgeError):
    """States (or a state and a clock period) have incompatible periods."""


class GcdNotOneError(CoherenceForgeError):
    """Support offsets never combine to a unit step, so copies of the
    distribution can never overlap a unit-shifted copy."""


class SearchExhaustedError(CoherenceForgeError):
    """A bounded search ended without finding what it was asked for."""


class SolverStallError(CoherenceForgeError):
    """Interior-point solver exceeded its iteration budget."""


class CertificateError(CoherenceForgeError):
    """A primal-dual certificate failed its independent re-check."""
