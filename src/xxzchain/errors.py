"""Exception types, how a message shows a value, and the one number rule:
every entry point reads each value where it first reads it, by ``as_float``
or ``as_int`` (a grid axis by ``chain.check_grid``)."""

from math import isfinite, log10
from numbers import Integral, Real


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


class ResourceCapError(RuntimeError):
    """Requested computation exceeds a configured size cap."""


class NumericError(RuntimeError):
    """A numerical routine could not deliver a trustworthy result."""


def _shown(value) -> str:
    """``value`` for an error message that never fails: its repr, or for an int
    too long for repr (sys.get_int_max_str_digits()) "10^(d-1) or more"."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):  # a value that holds such an int
            return f"a {type(value).__name__} too long to print"
        d = int(abs(value).bit_length() * log10(2))  # d or d - 1 digits
        d += abs(value) >= 10**d
        return f"-10^{d - 1} or less" if value < 0 else f"10^{d - 1} or more"


def _real(value, what: str, noun: str = "a number"):
    """``value`` itself, refused unless it is a real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise DomainError(f"{what} must be {noun}, got {_shown(value)}")
    return value


def as_float(value, what: str) -> float:
    """``value`` as a finite float, refused unless ``_real`` accepts it; a
    float skips that type check, so per-row calls stay cheap."""
    try:
        x = value if type(value) is float else float(_real(value, what))
    except OverflowError as exc:
        raise DomainError(f"{what} must lie in the float range, got {_shown(value)}") from exc
    if not isfinite(x):
        raise DomainError(f"{what} must be finite, got {x!r}")
    return x


def as_int(value, what: str) -> int:
    """``value`` as an int; an integral float such as 20.0 reads as 20.  An
    int of any size is kept, so the cap that bounds it refuses one too large."""
    if type(value) is int:
        return value
    if isinstance(_real(value, what, "an integer"), Integral) or as_float(value, what).is_integer():
        return int(value)
    raise DomainError(f"{what} must be an integer, got {_shown(value)}")
