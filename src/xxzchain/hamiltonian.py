"""Hamiltonian assembly for open XXZ chains.

H = sum_i J_i (hop 01<->10 on bond i) + (Delta/2) sum_i s_i s_{i+1}
    + sum_i B_i s_i,          s_i = +/-1 per the spin convention.

H on the span of a set of basis states is assembled in one form: its
hopping as (row, col, value) lists (``_hopping``) and the two parts of its
diagonal (``_diagonal_terms``), all by bit arithmetic; there is no
operator-algebra layer to get tensor order wrong.  ``_dense`` makes a plain
float64 matrix of them on demand.  Every hopping entry is listed in both
positions with the same coupling constant, so H[i, j] == H[j, i] holds
exactly (never symmetrized after the fact).
"""

from __future__ import annotations

import numpy as np

from .chain import FULL_SPACE_CAP, ChainSpec, SectorBasis
from .errors import DomainError, ResourceCapError


def _site_bits(n_sites: int, states: np.ndarray) -> np.ndarray:
    """The (N, d) 0/1 array whose row s - 1 holds the bit of site s in each
    of ``states``."""
    if states.dtype == object:
        # Python ints beyond 63 sites: unpacked from their big-endian bytes,
        # so that no shifted copy of a long label is made
        width = (n_sites + 7) // 8
        raw = b"".join(state.to_bytes(width, "big") for state in states.tolist())
        table = np.frombuffer(raw, dtype=np.uint8).reshape(len(states), width)
        return np.unpackbits(table, axis=1)[:, 8 * width - n_sites :].T
    return (states >> np.arange(n_sites - 1, -1, -1)[:, None]) & 1


def _diagonal_terms(spec: ChainSpec, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of the diagonal on ``states``: the Ising bond sum
    sum_i s_i s_{i+1} (int64, multiplied by Delta/2) and the Zeeman energy
    sum_i B_i s_i.

    The bond sum is exact; the Zeeman energy is a running sum site by site
    from 0, so a sector block equals the same rows and columns of the full
    matrix bit for bit.
    """
    bits = _site_bits(spec.n_sites, states)
    # s_i s_(i+1) is -1 on a bond whose two bits differ and +1 elsewhere
    zz = (spec.n_sites - 1) - 2 * (bits[:-1] ^ bits[1:]).sum(axis=0, dtype=np.int64)
    fields = np.asarray(spec.fields, dtype=float)[:, None]
    zeeman = np.where(bits, fields, -fields)
    return zz, 0.0 + np.cumsum(zeeman, axis=0, out=zeeman)[-1]


def _hopping(spec: ChainSpec, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Off-diagonal entries of H on the span of ``states`` (ascending,
    closed under hopping) as (row, col, value) arrays, bond by bond;
    partners are located by binary search.  Bond b couples sites b + 1 and
    b + 2, and both hop directions get the same constant, so symmetry is
    exact by construction."""
    n = spec.n_sites
    bits = _site_bits(n, states)
    bonds, rows = np.nonzero(bits[:-1] != bits[1:])
    # exact Python ints for labels beyond 63 sites
    flips = np.array([3 << (n - 2 - b) for b in range(n - 1)], dtype=states.dtype)
    cols = np.searchsorted(states, states[rows] ^ flips[bonds])
    return rows, cols, np.asarray(spec.couplings, dtype=float)[bonds]


def _dense(size: int, entries, diagonal: np.ndarray) -> np.ndarray:
    """Symmetric matrix from (row, col, value) lists, summed in list order
    where a position repeats, plus a diagonal."""
    rows, cols, values = entries
    m = np.bincount(rows * size + cols, weights=values, minlength=size * size)
    # float: bincount gives int64 for an empty list
    m = m.astype(float, copy=False).reshape(size, size)
    m.flat[:: size + 1] += diagonal
    return m


def _assemble(spec: ChainSpec, states: np.ndarray) -> np.ndarray:
    """Dense H on the span of ``states``."""
    zz, zeeman = _diagonal_terms(spec, states)
    return _dense(len(states), _hopping(spec, states), 0.5 * spec.delta * zz + zeeman)


def build_full(spec: ChainSpec) -> np.ndarray:
    """Full 2^N x 2^N matrix of the chain Hamiltonian."""
    n = spec.n_sites
    if n > FULL_SPACE_CAP:
        raise ResourceCapError(
            f"n_sites={n} exceeds the full-space cap of {FULL_SPACE_CAP} sites"
        )
    return _assemble(spec, np.arange(1 << n, dtype=np.int64))


def build_sector(spec: ChainSpec, basis: SectorBasis) -> np.ndarray:
    """Hamiltonian restricted to one magnetization sector.

    Equals the full matrix sliced to the sector's rows/columns, but is
    assembled directly so large-N chains never touch the 2^N space.
    """
    if basis.n_sites != spec.n_sites:
        raise DomainError(
            f"basis is for {basis.n_sites} sites, spec has {spec.n_sites}"
        )
    return _assemble(spec, basis.state_array())

