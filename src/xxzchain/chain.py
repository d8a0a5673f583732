"""Chain specifications, spin convention, sectors, and the one number rule.

Spin convention, fixed once for the whole library:

* a basis state is an integer label; bit 1 at a site means sigma_z = +1
  (spin up), bit 0 means sigma_z = -1 (spin down);
* site 1 occupies the most significant bit, site N the least significant.

Every module builds on this single convention, so full-space and
sector-restricted code paths index tensor factors identically.

Number rule, also fixed once: every entry point reads each value where it
first reads it, by ``as_float`` or ``as_int`` (a grid axis by ``check_grid``).
A string, a boolean, None or any other non-number is a DomainError, as are a
fractional integer and an int too large for a float where a float is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite, log10
from numbers import Integral, Rational, Real

import numpy as np

from .errors import DomainError, ResourceCapError

# Default cap on n_sites whenever a full 2^N-dimensional object is built.
FULL_SPACE_CAP = 14
GRID_POINT_CAP = 10**6

# Most entries one temporary of ``sweep._SectorSpectrum.field_rows`` (levels x
# fields) or ``channel.channel_curve`` (betas x k) holds; an axis is walked in
# chunks of that size, so memory does not grow with the grid.
_CHUNK_ENTRIES = 1 << 12


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
    """``value`` as a float; an int past the float range is a DomainError."""
    try:
        return float(_real(value, what))
    except OverflowError as exc:
        raise DomainError(f"{what} must lie in the float range, got {_shown(value)}") from exc


def as_int(value, what: str) -> int:
    """``value`` as an int; an integral float such as 20.0 reads as 20.  An
    int of any size is kept, so the cap that bounds it refuses one too large."""
    if isinstance(_real(value, what, "an integer"), Integral) or as_float(value, what).is_integer():
        return int(value)
    raise DomainError(f"{what} must be an integer, got {_shown(value)}")


def _as_tuple(values, what: str) -> tuple:
    """A sequence of values as a tuple; anything not iterable is a DomainError."""
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"{what} must be a list of numbers, got {_shown(values)}") from None


def check_grid(*axes) -> tuple[tuple, ...]:
    """Each axis, a sequence of numbers, as a tuple of its values unchanged,
    refused when it is not iterable, is empty or holds a value that is not a
    finite number, or when the grid they span has more than GRID_POINT_CAP
    points.  Ints stay ints, so an N too large for a float reaches its cap."""
    axes = tuple(_as_tuple(axis, "grid axis") for axis in axes)
    total = 1
    for axis in axes:
        if not axis:
            raise DomainError("empty grid axis")
        # a rational is finite, and one past the float range would overflow isfinite
        if not all(isinstance(_real(v, "grid value"), Rational) or isfinite(v) for v in axis):
            raise DomainError("grid axis values must be finite")
        total *= len(axis)
    if total > GRID_POINT_CAP:
        raise ResourceCapError(f"grid of {total} points exceeds the cap of {GRID_POINT_CAP}")
    return axes


def site_mask(site: int, n_sites: int) -> int:
    """Bitmask selecting ``site`` (1-based; site 1 = most significant bit)."""
    return 1 << (n_sites - site)


@dataclass(frozen=True)
class ChainSpec:
    """Open-chain parameters: per-bond couplings, per-site fields, anisotropy.

    ``couplings[i]`` couples sites i+1 and i+2 (bond i+1 in 1-based terms),
    ``fields[i]`` acts on site i+1.  ``temperature`` of 0 means ground-state
    analysis.  Each value is read by the number rule (``as_int`` for
    ``n_sites``, ``as_float`` for the rest); instances are immutable.
    """

    n_sites: int
    couplings: tuple[float, ...]
    fields: tuple[float, ...]
    delta: float
    temperature: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n_sites", as_int(self.n_sites, "n_sites"))
        if self.n_sites < 2:
            raise DomainError(f"n_sites must be >= 2, got {_shown(self.n_sites)}")
        for name in ("couplings", "fields"):
            values = tuple(as_float(v, name) for v in _as_tuple(getattr(self, name), name))
            object.__setattr__(self, name, values)
        for name in ("delta", "temperature"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        for name, count in (("couplings", self.n_sites - 1), ("fields", self.n_sites)):
            if (got := len(getattr(self, name))) != count:
                raise DomainError(f"expected {_shown(count)} {name}, got {got}")
        values = (*self.couplings, *self.fields, self.delta, self.temperature)
        if not all(isfinite(v) for v in values):
            raise DomainError("chain parameters must be finite")
        if self.temperature < 0:
            raise DomainError("temperature must be nonnegative")

    @classmethod
    def uniform(
        cls,
        n_sites: int,
        coupling: float = 1.0,
        field: float = 0.0,
        delta: float = 0.0,
        temperature: float = 0.0,
    ) -> "ChainSpec":
        """Uniform couplings and a uniform field on every site."""
        n_sites = as_int(n_sites, "n_sites")
        return cls(
            n_sites=n_sites,
            couplings=(coupling,) * (n_sites - 1),
            fields=(field,) * n_sites,
            delta=delta,
            temperature=temperature,
        )

    @classmethod
    def from_dict(cls, obj: dict) -> "ChainSpec":
        try:
            values = [obj[key] for key in ("n_sites", "couplings", "fields", "delta")]
            temperature = obj.get("temperature", 0.0)
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed chain document: {exc}") from exc
        return cls(*values, temperature)


@dataclass(frozen=True)
class SectorBasis:
    """All basis states with a fixed number of up spins, ascending, so a
    binary search over ``state_array()`` inverts ``states``."""

    n_sites: int
    n_up: int
    states: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.states)

    def state_array(self) -> np.ndarray:
        """``states`` as an array for vectorized bit arithmetic: int64 while
        every label fits (N <= 63), Python ints (object dtype) beyond, so
        long chains never wrap."""
        return np.array(self.states, dtype=np.int64 if self.n_sites <= 63 else object)


def build_sector_basis(n_sites: int, n_up: int) -> SectorBasis:
    """Enumerate the C(N, k) states with popcount k in ascending order.

    The j-up labels whose highest set bit is p are 2^p plus the (j - 1)-up
    labels below 2^p, which are the first C(p, j - 1) of the ascending
    (j - 1)-up labels; taking p upward lists them in ascending order, so
    there is no sort and each label costs one addition.  A sector with
    k > N/2 is the bitwise complement of the (N - k)-up sector, reversed.
    """
    n_sites, n_up = as_int(n_sites, "n_sites"), as_int(n_up, "n_up")
    if n_sites < 1:
        raise DomainError(f"n_sites must be positive, got {_shown(n_sites)}")
    if not 0 <= n_up <= n_sites:
        raise DomainError(f"n_up must lie in [0, {_shown(n_sites)}], got {_shown(n_up)}")
    states = [0]
    for j in range(1, min(n_up, n_sites - n_up) + 1):
        below, states = states, []
        for p in range(j - 1, n_sites):
            top = 1 << p
            states += [top + s for s in below[: comb(p, j - 1)]]
    if 2 * n_up > n_sites:
        full = (1 << n_sites) - 1
        states = [full - s for s in reversed(states)]
    assert len(states) == comb(n_sites, n_up)
    return SectorBasis(n_sites=n_sites, n_up=n_up, states=tuple(states))
