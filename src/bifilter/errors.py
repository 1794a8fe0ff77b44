"""Exception types shared across the package and the checks that raise them."""


class BifilterError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BifilterError):
    """Invalid configuration: bad thresholds, unknown comparators, bad flags."""


class DataError(BifilterError):
    """Invalid or inconsistent input data: I/O failures, encoding problems,
    length mismatches, malformed dictionary or label files."""


def _at_least(what: str, value: int, lowest: int) -> None:
    """ConfigError naming what unless value >= lowest."""
    if value < lowest:
        raise ConfigError(f"{what} must be >= {lowest}, got {value}")


def _fraction(value, what: str) -> float:
    """value converted by float(); ConfigError naming what when it is not a
    number or lies outside [0, 1]."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} is not a number: {value!r}") from None
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"{what} {x} outside [0, 1]")
    return x


def _index(text: str, what: str) -> int:
    """text converted by int() to a non-negative integer, such as a line or
    tier index; ConfigError naming what otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{what} is not an integer: {text!r}") from None
    _at_least(what, value, 0)
    return value
