"""Exception types shared across the package.

The CLI maps these onto exit codes: DomainError exits 2, CapacityError
exits 3.
"""


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


class CapacityError(RuntimeError):
    """Request exceeds a size bound (AMPLITUDE_CAP, FACTOR_BOUND, a sieve bound...)."""


class NormalizationError(RuntimeError):
    """A state or distribution drifted off norm beyond tolerance."""
