"""Independent reference routines the tests check the library against.

None of these is on a library code path: each recomputes, by the most
direct route, something the library obtains another way.
"""

import io
import math

import numpy as np

from xxzchain.chain import build_sector_basis, site_mask
from xxzchain.channel import BETA_CAP, _block_ground, build_channel, fold_single_excitation
from xxzchain.closed_forms import c1n_channel
from xxzchain.eigensolver import DEGENERACY_RTOL, _one_blas_thread, decompose
from xxzchain.entanglement import (
    SPIN_FLIP,
    TwoQubitDensityMatrix,
    pair_xstate_data,
    xstate_concurrences,
)
from xxzchain.errors import DomainError
from xxzchain.hamiltonian import build_sector
from xxzchain.sweep import PhasePoint, _SectorSpectrum

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


def per_row_point(spectrum, pair, field: float, temperature: float = 0.0):
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
    rho = xstate_pair(pair, data)
    return e0, int(spectrum.sector[ground].min()), len(ground), xstate_concurrence(rho)


def thermal_rows_by_level(spectrum, fields, temperature: float):
    """``_SectorSpectrum.field_rows(fields, temperature)`` at T > 0 level by
    level, one field at a time: every level shifted by B (2k - N), the ground
    test on every level, and every level's Boltzmann weight relative to the
    ground energy, normalized and summed with its pair row.  The sweep's own
    pass works by sector sums instead; this is the O(fields x levels) mixture
    it replaced."""
    rows = []
    for field in fields:
        e = spectrum.energies + field * spectrum.shift
        e0 = e.min()
        ground = e <= e0 + DEGENERACY_RTOL * (1.0 + abs(e0))
        with np.errstate(over="ignore"):
            weights = np.exp(-(e - e0) / temperature)
        weights /= weights.sum()
        data = [(weights * column).sum() for column in spectrum.pair_data.T]
        (c,) = xstate_concurrences([data])
        rows.append((e0, spectrum.sector[ground.argmax()], np.count_nonzero(ground), c))
    return tuple(np.array(column) for column in zip(*rows))


def joined_field_rows(spectrum, fields, temperature: float = 0.0):
    """``_SectorSpectrum.field_rows(fields, temperature, reach)`` as four
    arrays over the whole of ``fields`` (ground energy, ground sector,
    degeneracy, concurrence), with the reach of ``fields``: its chunks joined
    in order, each checked to start where the last one ended."""
    columns, end = None, 0
    reach = max(map(abs, fields), default=0.0)
    for start, *chunk in spectrum.field_rows(fields, temperature, reach):
        if columns is None:
            columns = [np.empty(len(fields), dtype=values.dtype) for values in chunk]
        assert start == end
        end += len(chunk[0])
        for column, values in zip(columns, chunk):
            column[start:end] = values
    assert end == len(fields)
    return tuple(columns)


def phase_points(spectrum, delta: float, fields):
    """The ``sweep.PhasePoint`` rows of one delta of a ``_SectorSpectrum`` at
    every field of ``fields``, as ``phase_scan`` builds them."""
    for field, e0, n_up, degeneracy, c in zip(fields, *joined_field_rows(spectrum, fields)):
        yield PhasePoint(float(delta), float(field), int(n_up), 0, float(e0), int(degeneracy),
                         float(c))


def _bisect(fn, lo: float, hi: float) -> float:
    """The sign change of ``fn`` in (lo, hi), where fn < 0 below it and
    fn >= 0 above, by halving until the midpoint equals an endpoint: the
    last-bit root ``channel._root`` must return, about 50 calls a root."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid


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


def plain_block_spectrum(spec, pair) -> _SectorSpectrum:
    """``sweep._SectorSpectrum`` without its spin-flip and mirror shortcuts:
    every one of the N + 1 S^z blocks is decomposed whole.  ``field_rows``
    is the library's, so rows built on it differ from the library's only by
    how the blocks were decomposed."""
    n = spec.n_sites
    energies, data = [], []
    for k in range(n + 1):
        basis = build_sector_basis(n, k)
        dec = decompose(build_sector(spec, basis))
        energies.append(dec.eigenvalues)
        data.append(pair_xstate_data(basis, dec.eigenvectors, *pair))
    return _SectorSpectrum(n, range(n + 1), energies, data)


def dense_sector_concurrence(spec, n_up: int) -> float:
    """End-to-end concurrence of the ``n_up`` sector's ground mixture by the
    dense route: the whole sector matrix, ``eigh``, the mean pair data of
    every level within DEGENERACY_RTOL of the lowest, and the 4x4 closed
    form."""
    n = spec.n_sites
    basis = build_sector_basis(n, n_up)
    w, v = np.linalg.eigh(build_sector(spec, basis))
    ground = w <= w[0] + DEGENERACY_RTOL * (1.0 + abs(w[0]))
    data = pair_xstate_data(basis, v[:, ground], 1, n).mean(axis=0)
    return xstate_concurrence(xstate_pair((1, n), data))


def beta_for_target(target: float, k: int, beta_cap: float = BETA_CAP) -> float:
    """Smallest beta with c1n_channel(beta, k) >= target, by bisection.

    Converges to 1e-10 relative.  Targets at or above 1 are unreachable;
    targets below the beta -> 1+ limit 1/k are reported as the lower edge.
    """
    if not 0.0 < target < 1.0:
        raise DomainError(f"target must lie in (0, 1), got {target}")
    if k < 2:
        raise DomainError("the channel formula needs k >= 2")
    lo = 1.0 + 1e-12
    if c1n_channel(lo, k) >= target:
        return lo
    if c1n_channel(beta_cap, k) < target:
        raise DomainError(
            f"target {target} unreachable below the beta cap {beta_cap:g}"
        )
    hi = beta_cap
    while hi - lo > 1e-10 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if c1n_channel(mid, k) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def scalar_ground_profile(n_sites: int, coupling: float, bulk_field: float):
    """Ground energy, boundary concurrence and half-profile coefficients of
    one field by the one-dimensional route: the profile closed form on a
    length-k vector, normalised by its own dot product, scaled and then
    signed (alternating, largest-magnitude coefficient positive), with
    nothing shared between fields.  The dot product runs on one OpenBLAS
    thread, as the library's does, since a long one's last bit depends on
    the thread count."""
    k = n_sites // 2
    e_anti, q, bound = _block_ground(k, coupling, bulk_field, antisymmetric=True)
    sites = np.arange(k)
    if bound:
        s = np.exp(-q * sites) * (1.0 + np.exp(-q * (2 * k - 1 - 2 * sites)))
    else:
        s = np.cos(q * (k - 0.5 - sites))
    with _one_blas_thread:
        v = s / math.sqrt(float(s @ s))
    coeffs = v / math.sqrt(2.0)
    coeffs[1::2] *= -1.0
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    coeffs[np.abs(coeffs) < np.finfo(float).tiny] = 0.0
    return e_anti, float(v[0] * v[0]), coeffs
