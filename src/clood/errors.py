"""Exception types shared across the package.

Each class carries the exit code `clood` ends with when it reaches the
command line: 2 for bad configuration or input, 3 for a numeric failure.
"""


class CloodError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigError(CloodError):
    """Invalid configuration value or combination."""

    exit_code = 2


class ContractError(CloodError):
    """A caller violated a documented precondition."""

    exit_code = 2


class ShapeError(CloodError):
    """Operand shapes do not conform."""

    exit_code = 2


class DomainError(CloodError):
    """Numerically invalid input (log of non-positive, zero-norm vector, ...)."""

    exit_code = 3


class NumericError(CloodError):
    """Non-finite value produced during training."""

    exit_code = 3
