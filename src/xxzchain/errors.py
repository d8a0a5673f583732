"""Exception types shared across the package, and how a message shows a value."""

from math import log10


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
