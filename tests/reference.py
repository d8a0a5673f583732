"""Independent reference routines the tests check the library against.

None of these is on a library code path: each recomputes, by the most
direct route, something the library obtains another way.
"""

import io

import numpy as np

from xxzchain.chain import build_sector_basis, site_mask
from xxzchain.channel import fold_single_excitation
from xxzchain.eigensolver import decompose
from xxzchain.entanglement import SPIN_FLIP, TwoQubitDensityMatrix, pair_xstate_data
from xxzchain.hamiltonian import build_channel, build_sector
from xxzchain.sweep import _SectorSpectrum


def spin_sign(state: int, site: int, n_sites: int) -> int:
    """sigma_z eigenvalue (+1 or -1) of ``site`` in basis state ``state``."""
    return 1 if state & site_mask(site, n_sites) else -1


def diagonal_energy(spec, state: int) -> float:
    """Ising + field energy of a single basis state."""
    n = spec.n_sites
    signs = [2 * ((state >> (n - s)) & 1) - 1 for s in range(1, n + 1)]
    zz = sum(signs[b] * signs[b + 1] for b in range(n - 1))
    zeeman = sum(b_i * s_i for b_i, s_i in zip(spec.fields, signs))
    return 0.5 * spec.delta * zz + zeeman


def matrix_to_csv(matrix: np.ndarray) -> str:
    """Debug dump: one row per line, 17 significant digits."""
    buf = io.StringIO()
    np.savetxt(buf, np.asarray(matrix, dtype=float), fmt="%.17g", delimiter=",")
    return buf.getvalue()


def concurrence_lambdas_direct(rho) -> np.ndarray:
    """Wootters lambdas from the nonsymmetric product rho rho~."""
    m = rho.matrix if isinstance(rho, TwoQubitDensityMatrix) else np.asarray(rho, dtype=float)
    flipped = SPIN_FLIP @ m @ SPIN_FLIP
    eigs = np.sort(np.real(np.linalg.eigvals(m @ flipped)))
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


def unfold_consistency(
    n_sites: int, coupling: float, bulk_field: float, tol: float = 1e-10
) -> bool:
    """True iff the union of folded spectra equals the one-up sector
    spectrum of the unfolded channel Hamiltonian."""
    folded = fold_single_excitation(n_sites, coupling, bulk_field)
    spec = build_channel(n_sites, coupling, bulk_field)
    sector = build_sector(spec, build_sector_basis(n_sites, 1))
    direct = np.sort(np.linalg.eigvalsh(sector))
    via_fold = np.sort(
        np.concatenate(
            [np.linalg.eigvalsh(folded.symmetric), np.linalg.eigvalsh(folded.antisymmetric)]
        )
    )
    return bool(np.max(np.abs(direct - via_fold)) <= tol)


class PlainBlockSpectrum(_SectorSpectrum):
    """``sweep._SectorSpectrum`` without its spin-flip and mirror shortcuts:
    every one of the N + 1 S^z blocks is decomposed whole.  ``levels`` and
    ``pair_state`` are inherited, so rows built on it differ from the
    library's only by how the blocks were decomposed."""

    def __init__(self, spec, pair):
        n = spec.n_sites
        self.pair = (min(pair), max(pair))
        energies, data, sectors = [], [], []
        for k in range(n + 1):
            basis = build_sector_basis(n, k)
            dec = decompose(build_sector(spec, basis))
            energies.append(dec.eigenvalues)
            data.append(pair_xstate_data(basis, dec.eigenvectors, *pair))
            sectors.append(np.full(len(basis), k))
        self.energies = np.concatenate(energies)
        self.pair_data = np.concatenate(data)
        self.sector = np.concatenate(sectors)
        self.shift = 2.0 * self.sector - n
