"""Exception types shared across the package."""


class CasimirToyError(Exception):
    """Base class for all package errors."""


class NonPositiveParameterError(CasimirToyError):
    """A parameter that must be strictly positive is not."""


class ConstraintViolationError(CasimirToyError):
    """A model invariant (e.g. sup g(y) < k) is violated."""


class DomainError(CasimirToyError):
    """Coordinate evaluated outside the declared coupling domain."""


class InvalidRatioError(CasimirToyError):
    """|beta/alpha| >= 1 in the squeezed-vacuum expansion."""


class TruncationMismatchError(CasimirToyError):
    """Expansion order exceeds the Fock basis cutoff."""


class NoConvergenceError(CasimirToyError):
    """The Lanczos basis filled the whole space without meeting its stop test."""


class NonPositiveSeparationError(CasimirToyError):
    """Plate separation must be strictly positive."""


class ConfigError(CasimirToyError):
    """Malformed or inconsistent run configuration."""
