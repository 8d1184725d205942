"""Exception types shared across the package."""


class IqpError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatch(IqpError):
    """Raw probability vector does not have exactly 2**n entries."""


class NegativeMass(IqpError):
    """A probability entry is negative beyond the clamping tolerance."""


class BadNormalization(IqpError):
    """Probabilities do not sum to 1 within the acceptance tolerance."""


class DimensionMismatch(IqpError):
    """Two distributions over different qubit counts were combined."""


class SparsityViolation(IqpError):
    """A vector has more nonzero entries than the operation allows."""


class InconsistentCounts(IqpError):
    """Multiplicity counts do not add up to the hidden-register size."""


class MassOutOfRange(IqpError):
    """A probability mass lies outside [0, 1]."""


class OutcomeOutOfRange(IqpError):
    """An outcome index lies outside {0, ..., 2**n - 1}."""


class TooManyQubits(IqpError):
    """Requested operation exceeds the dense-simulation size cap."""


class TooManySamples(IqpError):
    """Requested sample count exceeds the sampling cap."""


class BadTarget(IqpError):
    """A gate or layer addresses a qubit outside the register."""


class FormatError(IqpError):
    """A distribution or circuit file does not follow its text format."""


class InternalError(IqpError):
    """An internal invariant failed: a bug in this package, not bad input."""
