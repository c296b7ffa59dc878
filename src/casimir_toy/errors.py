"""Exception types shared across the package, one per way a run can fail.

``cli.main`` maps each refusal to its exit code in one place:

  ConfigError         exit 2: malformed or inconsistent config, flag or
                      output path, named by its config path or flag
  DomainError         exit 3: a coordinate outside the coupling domain, or a
                      non-positive plate separation
  NoConvergenceError  no exit code: the Fock oracle's solver failed to
                      converge, a fault of the solver rather than of the input

A bad argument to a library function raises ValueError.
"""


class CasimirToyError(Exception):
    """Base class for all package errors."""


class ConfigError(CasimirToyError):
    """Malformed or inconsistent run configuration."""


class DomainError(CasimirToyError):
    """Coordinate evaluated outside the declared coupling domain."""


class NoConvergenceError(CasimirToyError):
    """The Lanczos basis filled the whole space without meeting its stop test."""
