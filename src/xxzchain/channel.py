"""The long-distance boundary-entanglement channel.

A uniform XX chain whose bulk sites (2..N-1) sit in a magnetic field keeps
its single-excitation ground state pinned to the boundary pair, giving a
boundary concurrence that approaches 1 as 2B/J grows.  The single-
excitation sector splits under the mirror symmetry of the chain into two
k x k tridiagonal blocks (N = 2k), so the design scales to chains with
hundreds of sites.  Arbitrary coupling profiles go through the generic
magnetization-sector route (``sector_boundary_concurrence``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .chain import ChainSpec, build_sector_basis
from .eigensolver import DEGENERACY_RTOL, decompose, ground_space
from .entanglement import pair_xstate_data, xstate_concurrence, xstate_pair
from .errors import DomainError, ResourceCapError
from .hamiltonian import build_sector

SECTOR_DIM_CAP = 3432  # C(14, 7): the largest sector the dense path serves


@dataclass(frozen=True)
class FoldedChannelMatrices:
    """Mirror-symmetric (+) and antisymmetric (-) blocks of the
    single-excitation sector, each k x k tridiagonal with hopping J,
    diagonal (x1, x, ..., x, x +/- J), x1 = -(2k-2)B, x = -(2k-4)B."""

    k: int
    symmetric: np.ndarray
    antisymmetric: np.ndarray


@dataclass(frozen=True)
class ChannelDesign:
    """Ground-state profile of the folded channel.

    ``coefficients[j]`` is the amplitude shared by sites j+1 and N-j (half
    profile, so 2 * sum of squares = 1); ``boundary_concurrence`` equals
    twice the squared boundary coefficient.  ``parity`` records which folded
    block carried the ground state (+1 symmetric, -1 antisymmetric);
    ``near_degenerate`` flags that the opposite block came within the
    degeneracy tolerance and the winner was decided analytically.
    """

    n_sites: int
    coupling: float
    bulk_field: float
    beta: float
    parity: int
    ground_energy: float
    coefficients: tuple[float, ...]
    boundary_concurrence: float
    near_degenerate: bool = False


def fold_single_excitation(
    n_sites: int, coupling: float, bulk_field: float
) -> FoldedChannelMatrices:
    """Fold the one-up sector of the bulk-field channel by mirror parity."""
    if n_sites < 4 or n_sites % 2:
        raise DomainError(
            f"folding needs an even chain with at least 4 sites, got {n_sites}"
        )
    k = n_sites // 2
    j, b = float(coupling), float(bulk_field)
    diag = np.full(k, -(2.0 * k - 4.0) * b)
    diag[0] = -(2.0 * k - 2.0) * b
    base = np.diag(diag)
    off = np.arange(k - 1)
    base[off, off + 1] = j
    base[off + 1, off] = j
    sym = base.copy()
    sym[-1, -1] += j
    anti = base.copy()
    anti[-1, -1] -= j
    return FoldedChannelMatrices(k=k, symmetric=sym, antisymmetric=anti)


def design_channel(n_sites: int, coupling: float, bulk_field: float) -> ChannelDesign:
    """Diagonalize the folded blocks and read off the boundary concurrence.

    For J > 0 the antisymmetric block's ground energy is strictly below the
    symmetric one (its fold corner is lower by 2J and the ground vector has
    nonzero weight there), but the split shrinks like beta^(2-2k) and falls
    under floating-point resolution for long or strongly-biased chains.
    When the two blocks are numerically within tolerance the winner is
    therefore fixed analytically (antisymmetric) instead of by comparing
    noise, and ``near_degenerate`` records it.
    """
    if coupling <= 0:
        raise DomainError("channel design needs a positive coupling")
    if bulk_field < 0:
        raise DomainError("channel design needs a nonnegative bulk field")
    folded = fold_single_excitation(n_sites, coupling, bulk_field)
    dec_sym = decompose(folded.symmetric)
    dec_anti = decompose(folded.antisymmetric)
    e_sym = float(dec_sym.eigenvalues[0])
    e_anti = float(dec_anti.eigenvalues[0])
    lowest = min(e_sym, e_anti)
    near = abs(e_sym - e_anti) <= DEGENERACY_RTOL * (1.0 + abs(lowest))
    if near or e_anti <= e_sym:
        parity, winner, energy = -1, dec_anti, e_anti
    else:  # pragma: no cover - excluded analytically for J > 0
        parity, winner, energy = 1, dec_sym, e_sym
    v = winner.eigenvectors[:, 0]
    coeffs = v / np.sqrt(2.0)
    return ChannelDesign(
        n_sites=n_sites,
        coupling=float(coupling),
        bulk_field=float(bulk_field),
        beta=2.0 * bulk_field / coupling,
        parity=parity,
        ground_energy=energy,
        coefficients=tuple(float(c) for c in coeffs),
        boundary_concurrence=float(v[0] * v[0]),
        near_degenerate=bool(near),
    )


def ratio_profile(design: ChannelDesign) -> tuple[float, ...]:
    """Successive magnitude ratios |c_j / c_{j+1}| of the half profile.

    A vanishing next coefficient yields an infinite ratio, not an error.
    The interior ratios track beta = 2B/J ever more closely toward the
    boundary; the last one (at the fold) sits near beta - 1.
    """
    c = np.abs(np.asarray(design.coefficients))
    if len(c) < 2:
        raise DomainError("ratio profile needs at least two coefficients")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(c[1:] > 0.0, c[:-1] / c[1:], np.inf)
    return tuple(float(r) for r in ratios)


def impurity_profile_chain(n_sites: int, base: float) -> ChainSpec:
    """XX chain with the mirror-symmetric geometric coupling profile
    J_i = base^(i-1) up to the midpoint: (1, J, J^2, ..., J^2, J, 1)."""
    if n_sites < 3:
        raise DomainError(f"profile chain needs at least 3 sites, got {n_sites}")
    if base <= 0:
        raise DomainError("profile base must be positive")
    couplings = tuple(
        float(base) ** (min(i, n_sites - i) - 1) for i in range(1, n_sites)
    )
    return ChainSpec(
        n_sites=n_sites,
        couplings=couplings,
        fields=(0.0,) * n_sites,
        delta=0.0,
    )


def sector_boundary_concurrence(spec: ChainSpec, n_up: int) -> float:
    """Concurrence between the end sites of the sector ground state.

    Works entirely in sector coordinates, so the chain length is limited
    only by the sector dimension, which is checked before anything is
    allocated.  A degenerate sector ground space is treated as an
    equal-weight mixture.
    """
    dim = comb(spec.n_sites, n_up)
    if dim > SECTOR_DIM_CAP:
        raise ResourceCapError(
            f"sector dimension {dim} exceeds the cap of {SECTOR_DIM_CAP}"
        )
    basis = build_sector_basis(spec.n_sites, n_up)
    dec = decompose(build_sector(spec, basis))
    pair = (1, spec.n_sites)
    data = pair_xstate_data(basis, dec.eigenvectors[:, ground_space(dec)], *pair)
    return xstate_concurrence(xstate_pair(pair, data.mean(axis=0)))
