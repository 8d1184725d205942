"""Exception types shared across the package, one per command-line exit code."""


class IqpError(Exception):
    """Bad input or usage; the base of every refusal this package raises."""

    exit_code = 2


class OverCap(IqpError):
    """A size cap (qubits or samples) refused the computation before it ran."""

    exit_code = 3


class InternalError(IqpError):
    """An internal invariant failed: a bug in this package, not bad input."""

    exit_code = 4
