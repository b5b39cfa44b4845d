"""Exception hierarchy shared across the library and the CLI.

Every error carries a short machine-readable ``category`` used by the CLI
to pick an exit code and emit a structured error line.  The four
predicates below are the value checks behind many ``ConfigError``s, and
``integer`` is the one check that turns an integer value into an ``int``
or a ``ConfigError``; each is defined in this module once and used by the
module that owns the value.
``shown`` formats a rejected value so that building the message never fails.
"""

import math
import numbers


def integral(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def integer(value, name: str) -> int:
    """``value`` as an ``int``; a ConfigError naming ``name`` unless it is
    an integer."""
    if not integral(value):
        raise ConfigError(f"{name} must be an integer, got {shown(value)}")
    return int(value)


def real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def finite(value) -> bool:
    """Whether ``value`` is a real number with a finite float value; an
    integer beyond the float range has none."""
    try:
        return real(value) and math.isfinite(value)
    except OverflowError:
        return False


def json_number(value) -> bool:
    """Whether ``value`` is a finite number that JSON writes as given: a
    Python ``int`` or ``float`` (``np.float64`` is a float), not a bool or
    another numpy scalar."""
    return isinstance(value, (int, float)) and finite(value)


def shown(value) -> str:
    """``repr(value)``; when that fails on an integer past Python's
    4300-digit limit on integer-to-string conversion, the integer's bit
    length, or the type of what holds it."""
    try:
        return repr(value)
    except ValueError:
        if integral(value):
            return f"an integer of {int(value).bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


class LottaError(Exception):
    category = "error"


class ConfigError(LottaError):
    """Invalid configuration value (bad preset, family parameter, ...)."""

    category = "config"


class DimensionError(LottaError):
    """Tensor shape mismatch."""

    category = "dimension"


class DataError(LottaError):
    """Invalid data fed to an operation (label out of range, missing dir)."""

    category = "data"


class ParseError(DataError):
    """Malformed binary input; carries the byte offset where parsing failed."""

    category = "parse"

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class FormatError(LottaError):
    """Artifact container is not in the expected format."""

    category = "format"


class IntegrityError(LottaError):
    """Artifact checksum does not match its contents."""

    category = "integrity"


class IncompatibilityError(LottaError):
    """Artifact was produced by an incompatible version or generator."""

    category = "incompatibility"


class RunError(LottaError):
    """A training run failed (e.g. diverged); carries last finite epoch."""

    category = "run"

    def __init__(self, message, last_finite_epoch=None):
        super().__init__(message)
        self.last_finite_epoch = last_finite_epoch
