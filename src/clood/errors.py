"""Exception types shared across the package.

Each class carries the exit code `clood` ends with when it reaches the
command line: 2 for bad configuration or input, 3 for a numeric failure.
"""


class CloodError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigError(CloodError):
    """Invalid configuration value or combination, or a call that breaks a
    documented precondition, such as operand shapes that do not conform."""

    exit_code = 2


class NumericError(CloodError):
    """Numerically invalid input or result, such as a zero-norm row,
    non-finite scores or a non-finite value produced during training."""

    exit_code = 3
