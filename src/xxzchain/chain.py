"""Chain specifications, spin convention, sectors and the grid check.

Spin convention, fixed once for the whole library:

* a basis state is an integer label; bit 1 at a site means sigma_z = +1
  (spin up), bit 0 means sigma_z = -1 (spin down);
* site 1 occupies the most significant bit, site N the least significant.

Every module builds on this single convention, so full-space and
sector-restricted code paths index tensor factors identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError, ResourceCapError, _shown, as_float, as_int

# Default cap on n_sites whenever a full 2^N-dimensional object is built.
FULL_SPACE_CAP = 14
GRID_POINT_CAP = 10**6
# Most sites of any chain, checked before a tuple of that length is built: a
# channel design and its ratio profile peak at 36 B per site (tracemalloc),
# 360 MB at the cap
SITE_CAP = 10**7

# Most entries one temporary of ``sweep._SectorSpectrum.field_rows`` (fields x
# levels, or x sectors at T > 0) or ``channel.channel_blocks`` (betas x k) holds: an
# axis is walked in chunks of max(1, _CHUNK_ENTRIES // width) points (each
# chunk of fields or betas one block of the table, ``_rows``), so memory does
# not grow with the grid.  ``sweep._BlockPlan`` splits a chunk's blocks
# across the CPUs where two of its largest matrices would hold more.
_CHUNK_ENTRIES = 1 << 12
# Most bytes of float64 one stack of a part's matrices holds in
# ``sweep._BlockPlan.spectra``: the deltas are decomposed in chunks of
# max(1, _STACK_BYTES // (8 d^2)), d the largest part, so a uniform chain
# stacks 334 deltas at n = 8, 60 at n = 9, 21 at n = 10 and 4 at n = 11, and
# one from n = 12 on.  Measured on a 2-vCPU VM with one BLAS thread, 2 MiB
# (against one delta a chunk from n = 9 on) took a uniform n = 10 scan of
# 4 deltas x 26 fields a child from 6,261 to 7,936 rows/s and its peak RSS
# from 33.7 to 34.5 MiB; n >= 12 does not move.
_STACK_BYTES = 1 << 21


def _capped(n_sites: int, what: str = "chain") -> int:
    """``n_sites``, refused over SITE_CAP (read when called) before anything
    of that length is built."""
    if n_sites > SITE_CAP:
        raise ResourceCapError(f"{what} of {_shown(n_sites)} sites exceeds the cap of {SITE_CAP}")
    return n_sites


def _as_tuple(values, what: str) -> tuple:
    """A sequence of values as a tuple; a string or anything not iterable is a DomainError."""
    try:
        if isinstance(values, (str, bytes)):  # one value, not a list of its characters
            raise TypeError
        return tuple(values)
    except TypeError:
        raise DomainError(f"{what} must be a list of numbers, got {_shown(values)}") from None


def check_grid(*axes) -> tuple[tuple, ...]:
    """Each axis, a sequence of numbers, as a tuple of its values unchanged,
    refused when it is a string or not iterable, is empty or holds a value
    that is not a finite number, or when the grid they span has more than
    GRID_POINT_CAP points.  Ints stay ints, so an N too large for a float
    reaches its cap."""
    axes = tuple(_as_tuple(axis, "grid axis") for axis in axes)
    total = 1
    for axis in axes:
        if not axis:
            raise DomainError("empty grid axis")
        for v in axis:
            if type(v) is not int:  # an int is finite, however large
                as_float(v, "grid value")
        total *= len(axis)
    if total > GRID_POINT_CAP:
        raise ResourceCapError(f"grid of {total} points exceeds the cap of {GRID_POINT_CAP}")
    return axes


def _rows(axis, blocks):
    """The rows of a table given as blocks, the form in which the sweeps
    compute them and the CLI writes them.  A block (head, start, columns)
    is a tuple of values shared by its rows, the index of its first row on
    the shared ``axis`` and equal-length lists of values, one per column;
    its i-th row is (*head, axis[start + i], *(column[i] for column in
    columns)).  A table with ``axis`` None has no axis column."""
    cells = [()] if axis is None else [(x,) for x in axis]
    for head, start, columns in blocks:
        for cell, row in zip(cells[start : start + len(columns[0])], zip(*columns)):
            yield (*head, *cell, *row)


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
        """Uniform couplings and a uniform field on every site; a chain over
        SITE_CAP sites is refused before any tuple is built."""
        n_sites = _capped(as_int(n_sites, "n_sites"))
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
    A chain over SITE_CAP sites is refused before any label is built.
    """
    n_sites, n_up = as_int(n_sites, "n_sites"), as_int(n_up, "n_up")
    if n_sites < 1:
        raise DomainError(f"n_sites must be positive, got {_shown(n_sites)}")
    _capped(n_sites)
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
