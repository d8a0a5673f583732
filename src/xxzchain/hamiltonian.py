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


def _diagonal_terms(spec: ChainSpec, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of the diagonal on ``states``: the Ising bond sum
    sum_i s_i s_{i+1} (int64, multiplied by Delta/2) and the Zeeman energy
    sum_i B_i s_i.

    Both accumulate bond by bond and site by site in a fixed order, so a
    sector block equals the same rows and columns of the full matrix bit
    for bit.
    """
    n = spec.n_sites
    signs = [((states >> (n - s)) & 1).astype(np.int64) * 2 - 1 for s in range(1, n + 1)]
    zz = np.zeros(len(states), dtype=np.int64)
    for b in range(n - 1):
        zz += signs[b] * signs[b + 1]
    zeeman = np.zeros(len(states))
    for s in range(n):
        zeeman += spec.fields[s] * signs[s]
    return zz, zeeman


def _hopping(spec: ChainSpec, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Off-diagonal entries of H on the span of ``states`` (ascending,
    closed under hopping) as (row, col, value) arrays, bond by bond;
    partners are located by binary search."""
    n = spec.n_sites
    rows, cols, values = [], [], []
    for b in range(n - 1):
        # bond b couples sites b+1 and b+2; both hop directions get the
        # same constant, so symmetry is exact by construction
        movers = np.flatnonzero(((states >> (n - 1 - b)) ^ (states >> (n - 2 - b))) & 1)
        flip = (1 << (n - 1 - b)) | (1 << (n - 2 - b))
        rows.append(movers)
        cols.append(np.searchsorted(states, states[movers] ^ flip))
        values.append(np.full(len(movers), spec.couplings[b]))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def _dense(size: int, entries, diagonal: np.ndarray) -> np.ndarray:
    """Symmetric matrix from (row, col, value) lists, summed in list order
    where a position repeats, plus a diagonal."""
    rows, cols, values = entries
    m = np.zeros((size, size))
    np.add.at(m, (rows, cols), values)
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

