"""Seeded workload generator: one JSON config per workload and seed.

The seed only moves the field (or beta) axis by a sub-step offset, so the
row count, the chain sizes and therefore the work per row are the same for
every seed, while the exact grid points differ.  Axes are written as
explicit value lists so that the CLI sees exactly these floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    # rows per child, the same for every seed; at least 101, so that the
    # p90 of the row gaps has ten samples beyond it
    rows: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-n10", "phase-scan", 104),
        Workload("curve-thermal-n6", "curve", 1203),
        Workload("channel-long", "channel", 114),
    )
}


def _offset(seed: int) -> float:
    """Fraction in [0, 1) of a grid step, fixed by the seed."""
    return random.Random(seed).random()


def _axis(start: float, step: float, count: int, seed: int) -> list[float]:
    shift = _offset(seed) * step
    return [start + shift + m * step for m in range(count)]


def _uniform_spec(n_sites: int, temperature: float = 0.0) -> dict:
    return {
        "n_sites": n_sites,
        "couplings": [1.0] * (n_sites - 1),
        "fields": [0.0] * n_sites,
        "delta": 0.0,
        "temperature": temperature,
    }


def make_config(name: str, seed: int) -> dict:
    """The CLI config for workload ``name`` at ``seed``."""
    if name == "scan-n10":
        # Eigensolver-bound: one dense 1024x1024 eigh per (delta, B) node
        # (~97% of the run) of which only the 1-2 ground vectors are used,
        # and 8 MiB matrices that sit between L2 and L3.  Where a blocked or
        # ground-only solver must show; channel and closed_forms are idle.
        # n_up runs from 5 down to 0 across B in [0, 3) at these deltas.
        config = {
            "spec": _uniform_spec(10),
            "grid": {
                "delta": {"values": [0.0, 0.5, 1.0, 1.5]},
                "B": {"values": _axis(0.0, 3.0 / 26.0, 26, seed)},
            },
        }
    elif name == "curve-thermal-n6":
        # The same sweep machinery on tiny 64x64 nodes where every
        # eigenvector enters the Boltzmann mixture: per-call overhead,
        # thermal_state and the concurrence kernel show, and ground-only
        # shortcuts cannot help.
        config = {
            "spec": _uniform_spec(6, temperature=0.1),
            "pair": [1, 6],
            "delta_values": [0.0, 0.5, 1.0],
            "grid": {"B": {"values": _axis(0.0, 0.005, 401, seed)}},
        }
    elif name == "channel-long":
        # Folded channel solve: dense k x k tridiagonal eigh (~94%) plus
        # closed_forms; hamiltonian and entanglement are never called, so a
        # change to the sweep core must leave it unchanged.
        config = {
            "n_sites_values": [250, 500, 1000],
            "coupling": 1.0,
            "grid": {"beta": {"values": _axis(1.5, 0.5, 38, seed)}},
        }
    else:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return config
