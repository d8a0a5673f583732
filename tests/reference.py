"""Independent reference routines the tests check the library against.

None of these is on a library code path: each recomputes, by the most
direct route, something the library obtains another way.
"""

import io

import numpy as np

from xxzchain.chain import build_sector_basis, site_mask
from xxzchain.channel import fold_single_excitation
from xxzchain.eigensolver import DEGENERACY_RTOL, decompose
from xxzchain.entanglement import SPIN_FLIP, TwoQubitDensityMatrix, pair_xstate_data
from xxzchain.errors import DomainError
from xxzchain.hamiltonian import build_channel, build_sector
from xxzchain.sweep import _SectorSpectrum

# Entries of a pair state that vanish when it is a mixture of magnetization
# sector states: everything but the diagonal and the 01<->10 coherence.
_VANISHING = ~np.eye(4, dtype=bool)
_VANISHING[1, 2] = _VANISHING[2, 1] = False


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


def xstate_pair(sites: tuple[int, int], data) -> TwoQubitDensityMatrix:
    """The pair state with populations data[:4] and 01<->10 coherence data[4]."""
    p00, p01, p10, p11, c = (float(x) for x in data)
    m = np.diag([p00, p01, p10, p11])
    m[1, 2] = m[2, 1] = c
    return TwoQubitDensityMatrix(sites=sites, matrix=m)


def xstate_concurrence(rho: TwoQubitDensityMatrix) -> float:
    """Closed-form concurrence 2 max(0, |rho_{01,10}| - sqrt(rho_00 rho_11))
    of one 4x4 pair state with the shape xstate_pair builds."""
    m = rho.matrix
    if np.any(m[_VANISHING] != 0.0):
        raise DomainError("pair state has entries outside the populations and 01<->10 coherence")
    return 2.0 * max(0.0, abs(float(m[1, 2])) - float(np.sqrt(m[0, 0] * m[3, 3])))


def per_row_point(spectrum, field: float, temperature: float = 0.0):
    """(ground energy, smallest ground sector, degeneracy, concurrence) of a
    ``_SectorSpectrum`` at one field, by the per-field route: shift the
    levels, mix the pair rows of the ground space (T = 0) or of every level
    (T > 0, a BLAS product), and build and check one 4x4 pair state."""
    e = spectrum.energies + field * spectrum.shift
    e0 = float(e.min())
    ground = np.flatnonzero(e <= e0 + DEGENERACY_RTOL * (1.0 + abs(e0)))
    if temperature > 0:
        weights = np.exp(-(e - e0) / temperature)
        data = (weights / weights.sum()) @ spectrum.pair_data
    else:
        data = spectrum.pair_data[ground].mean(axis=0)
    rho = xstate_pair(spectrum.pair, data)
    return e0, int(spectrum.sector[ground].min()), len(ground), xstate_concurrence(rho)


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
    every one of the N + 1 S^z blocks is decomposed whole.  ``field_rows``
    is inherited, so rows built on it differ from the library's only by how
    the blocks were decomposed."""

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
