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
from itertools import combinations
from math import comb, isfinite

import numpy as np

from .errors import DomainError

# Default cap on n_sites whenever a full 2^N-dimensional object is built.
FULL_SPACE_CAP = 14


def config_number(kind, value, what: str):
    """``value`` from a config document converted by ``kind`` (int or float).

    Anything that is not a number of that kind is a config error rather than
    a silent conversion: booleans (JSON true would read as 1), and for int a
    value with a fractional part (int() would truncate it).
    """
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        noun = "an integer" if kind is int else "a number"
        raise DomainError(f"config {what!r} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"config {what!r} must be a number, got {value!r}") from exc


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
            couplings = tuple(config_number(float, j, "couplings") for j in obj["couplings"])
            fields = tuple(config_number(float, b, "fields") for b in obj["fields"])
            delta = config_number(float, obj["delta"], "delta")
            temperature = config_number(float, obj.get("temperature", 0.0), "temperature")
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed chain document: {exc}") from exc
        return cls(n_sites, couplings, fields, delta, temperature)

    @classmethod
    def from_json(cls, text: str) -> "ChainSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
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
    """Enumerate the C(N, k) states with popcount k in ascending order."""
    if n_sites < 1:
        raise DomainError(f"n_sites must be positive, got {n_sites}")
    if not 0 <= n_up <= n_sites:
        raise DomainError(f"n_up must lie in [0, {n_sites}], got {n_up}")
    states = tuple(
        sorted(sum(1 << b for b in combo) for combo in combinations(range(n_sites), n_up))
    )
    assert len(states) == comb(n_sites, n_up)
    return SectorBasis(n_sites=n_sites, n_up=n_up, states=states)
