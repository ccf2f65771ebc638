"""Error taxonomy shared by all modules.

One family per CLI exit code: ConfigError -> 2, PreconditionError -> 3,
NumericalError -> 4.  The message names the cause; no caller tells two
errors of one family apart by class.
"""


class KronliftError(Exception):
    """Base class for all library errors."""


class ConfigError(KronliftError):
    """Invalid configuration, file format, or parameter value."""

    exit_code = 2


class PreconditionError(KronliftError):
    """Input data violates an operation's stated preconditions."""

    exit_code = 3


class NumericalError(KronliftError):
    """A numerical procedure failed (solver non-convergence, divergence)."""

    exit_code = 4
