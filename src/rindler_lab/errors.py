"""Exception types shared across the package.

Everything derives from :class:`RindlerLabError` so callers can catch the
package's failures with one handler; the numeric-domain subclasses also
derive from :class:`ValueError` to stay friendly to generic call sites.
"""


class RindlerLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RindlerLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole of a special function."""


class WedgeError(DomainError):
    """A Minkowski event lies outside the required Rindler wedge."""


class SupportError(DomainError):
    """A mode was evaluated on a surface disjoint from its support."""


class ConvergenceError(RindlerLabError):
    """No available representation converged within the iteration budget."""


class QuadratureBudgetError(ConvergenceError):
    """Adaptive quadrature exhausted its subdivision budget."""


class WindowError(RindlerLabError, ValueError):
    """A sampling window is too small for the requested accuracy."""


class ResolutionError(WindowError):
    """A sampling window cannot resolve the requested frequency."""


class ConfigError(RindlerLabError, ValueError):
    """A run configuration file or flag set is invalid."""
