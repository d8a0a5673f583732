"""Chain specifications, the global spin convention, and magnetization sectors.

Spin convention, fixed once for the whole library:

* a basis state is an integer label; bit 1 at a site means sigma_z = +1
  (spin up), bit 0 means sigma_z = -1 (spin down);
* site 1 occupies the most significant bit, site N the least significant.

Every module builds on this single convention, so full-space and
sector-restricted code paths index tensor factors identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .errors import DomainError

# Default cap on n_sites whenever a full 2^N-dimensional object is built.
FULL_SPACE_CAP = 14


def config_number(kind, value, what: str):
    """``value`` from a config document converted by ``kind`` (int or float).

    Anything that is not a number of that kind is a config error rather than
    a silent conversion: strings (int("3") would parse one), booleans (JSON
    true would read as 1), and for int a fractional value (int() truncates).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        noun = "an integer" if kind is int else "a number"
        raise DomainError(f"config {what!r} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an integer past the float range
        raise DomainError(f"config {what!r} must be a number, got {value!r}") from exc


def config_numbers(kind, values, what: str) -> tuple:
    """A config list of numbers, each read by ``config_number``."""
    if not isinstance(values, (list, tuple)):
        raise DomainError(f"config {what!r} must be a list of numbers, got {values!r}")
    return tuple(config_number(kind, v, what) for v in values)


def site_mask(site: int, n_sites: int) -> int:
    """Bitmask selecting ``site`` (1-based; site 1 = most significant bit)."""
    return 1 << (n_sites - site)


@dataclass(frozen=True)
class ChainSpec:
    """Open-chain parameters: per-bond couplings, per-site fields, anisotropy.

    ``couplings[i]`` couples sites i+1 and i+2 (bond i+1 in 1-based terms),
    ``fields[i]`` acts on site i+1.  ``temperature`` of 0 means ground-state
    analysis.  Instances are immutable and safe to share across workers.
    """

    n_sites: int
    couplings: tuple[float, ...]
    fields: tuple[float, ...]
    delta: float
    temperature: float = 0.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise DomainError(f"n_sites must be >= 2, got {self.n_sites}")
        object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
        object.__setattr__(self, "fields", tuple(float(b) for b in self.fields))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "temperature", float(self.temperature))
        if len(self.couplings) != self.n_sites - 1:
            raise DomainError(
                f"expected {self.n_sites - 1} couplings, got {len(self.couplings)}"
            )
        if len(self.fields) != self.n_sites:
            raise DomainError(
                f"expected {self.n_sites} fields, got {len(self.fields)}"
            )
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
        return cls(
            n_sites=n_sites,
            couplings=(coupling,) * (n_sites - 1),
            fields=(field,) * n_sites,
            delta=delta,
            temperature=temperature,
        )

    def to_json(self) -> str:
        """Serialize with the exact wire keys; arrays in site order."""
        return json.dumps(
            {
                "n_sites": self.n_sites,
                "couplings": list(self.couplings),
                "fields": list(self.fields),
                "delta": self.delta,
                "temperature": self.temperature,
            }
        )

    @classmethod
    def from_dict(cls, obj: dict) -> "ChainSpec":
        try:
            n_sites = config_number(int, obj["n_sites"], "n_sites")
            couplings = config_numbers(float, obj["couplings"], "couplings")
            fields = config_numbers(float, obj["fields"], "fields")
            delta = config_number(float, obj["delta"], "delta")
            temperature = config_number(float, obj.get("temperature", 0.0), "temperature")
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed chain document: {exc}") from exc
        return cls(n_sites, couplings, fields, delta, temperature)

    @classmethod
    def from_json(cls, text: str) -> "ChainSpec":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, an integer past 4300 digits
            raise DomainError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DomainError("chain document must be a JSON object")
        return cls.from_dict(obj)


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
    if n_sites < 1:
        raise DomainError(f"n_sites must be positive, got {n_sites}")
    if not 0 <= n_up <= n_sites:
        raise DomainError(f"n_up must lie in [0, {n_sites}], got {n_up}")
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
