"""Reduced density matrices and concurrence for site pairs.

Everything here is real: the chain Hamiltonian is real symmetric, so
eigenvectors, thermal states and reduced states are real as well, and the
conjugation in the spin-flip transform is a no-op.  Library results come
from mixtures of magnetization sector states, whose pair states need only
five numbers per eigenvector (``pair_xstate_data``) and have a closed-form
concurrence, evaluated for many rows at once (``xstate_concurrences``).
The general Wootters concurrence of any two-qubit state is evaluated
through the all-symmetric product sqrt(rho) rho~ sqrt(rho), which keeps the
lambda spectrum real and nonnegative by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, SectorBasis, _shown, as_int, site_mask
from .eigensolver import SpectralDecomposition, ground_space
from .errors import DomainError

# Spin-flip transform sigma_y (x) sigma_y for real states: constant
# antidiagonal pattern; the overall sign is immaterial (applied twice).
SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
)

# Multiple of machine epsilon (relative to the top eigenvalue) below which
# an eigenvalue of a density matrix is indistinguishable from roundoff and
# treated as an exact zero before taking square roots.
_NOISE_FLOOR = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class PureState:
    """Normalized real pure state of a magnetization sector; amplitudes are
    indexed like ``basis.states``.  A full-space pure state a is the density
    matrix np.outer(a, a), for ``reduce_pair_mixed``."""

    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (len(self.basis),):
            raise DomainError(
                f"expected {len(self.basis)} amplitudes, got shape {amps.shape}"
            )
        norm2 = float(amps @ amps)
        if abs(norm2 - 1.0) > 1e-12:
            raise DomainError(f"state not normalized: sum of squares = {norm2!r}")

    @classmethod
    def from_sector(cls, basis: SectorBasis, amplitudes) -> "PureState":
        return cls(basis=basis, amplitudes=amplitudes)


@dataclass(frozen=True)
class TwoQubitDensityMatrix:
    """4x4 reduced state of an ordered site pair, basis |00>,|01>,|10>,|11>
    of (site i, site j) with i < j; bit 1 = spin up."""

    sites: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sites", (int(self.sites[0]), int(self.sites[1])))
        if m.shape != (4, 4):
            raise DomainError(f"expected a 4x4 matrix, got {m.shape}")
        if self.sites[0] >= self.sites[1]:
            raise DomainError(f"sites must be ordered i < j, got {self.sites}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
            raise DomainError("reduced state is not symmetric")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise DomainError(f"reduced state trace is {float(np.trace(m))!r}, not 1")
        if np.linalg.eigvalsh(m)[0] < -1e-10:
            raise DomainError("reduced state has a significantly negative eigenvalue")


@dataclass(frozen=True)
class ConcurrenceResult:
    value: float
    lambdas: tuple[float, float, float, float]


def _pair_sites_checked(n_sites: int, pair) -> tuple[int, int]:
    """The two distinct sites of ``pair`` as ints, ascending."""
    try:
        i, j = pair
    except (TypeError, ValueError):
        raise DomainError(f"a site pair must be two sites (i, j), got {_shown(pair)}") from None
    i, j = as_int(i, "site"), as_int(j, "site")
    if not (1 <= i <= n_sites and 1 <= j <= n_sites):
        raise DomainError(f"sites ({_shown(i)}, {_shown(j)}) out of range for {n_sites} sites")
    if i == j:
        raise DomainError("need two distinct sites")
    return (i, j) if i < j else (j, i)


def _reduce_pair_sector(basis: SectorBasis, amps: np.ndarray, i: int, j: int) -> np.ndarray:
    # Group sector states by environment bit pattern; states sharing an
    # environment differ only on sites (i, j) and contribute coherences.
    n = basis.n_sites
    mi, mj = site_mask(i, n), site_mask(j, n)
    env_vectors: dict[int, np.ndarray] = {}
    for amp, st in zip(amps, basis.states):
        slot = 2 * bool(st & mi) + bool(st & mj)
        env = st & ~(mi | mj)
        vec = env_vectors.get(env)
        if vec is None:
            vec = np.zeros(4)
            env_vectors[env] = vec
        vec[slot] += amp
    rho = np.zeros((4, 4))
    for vec in env_vectors.values():
        rho += np.outer(vec, vec)
    return rho


def reduce_pair(state: PureState, i: int, j: int) -> TwoQubitDensityMatrix:
    """Partial trace of |psi><psi| onto sites (i, j)."""
    i, j = _pair_sites_checked(state.basis.n_sites, (i, j))
    rho = _reduce_pair_sector(state.basis, state.amplitudes, i, j)
    return TwoQubitDensityMatrix(sites=(i, j), matrix=rho)


def reduce_pair_mixed(rho_full: np.ndarray, i: int, j: int) -> TwoQubitDensityMatrix:
    """Partial trace of a full-space density matrix onto sites (i, j)."""
    rho_full = np.asarray(rho_full, dtype=float)
    dim = rho_full.shape[0]
    if rho_full.shape != (dim, dim) or dim & (dim - 1):
        raise DomainError(f"expected a 2^N x 2^N matrix, got shape {rho_full.shape}")
    n = dim.bit_length() - 1
    i, j = _pair_sites_checked(n, (i, j))
    t = rho_full.reshape([2] * (2 * n))
    t = np.moveaxis(t, [i - 1, j - 1, n + i - 1, n + j - 1], [0, 1, 2, 3])
    env = 1 << (n - 2)
    t = t.reshape(2, 2, 2, 2, env, env)
    rho = np.einsum("abcdee->abcd", t).reshape(4, 4)
    return TwoQubitDensityMatrix(sites=(i, j), matrix=rho)


def pair_xstate_data(basis: SectorBasis, vectors: np.ndarray, i: int, j: int) -> np.ndarray:
    """Pair-state entries of every sector vector, one row (p00, p01, p10, p11, c)
    per column of ``vectors``.

    Within a magnetization sector the pair state on (i, j) has no entries
    besides the populations p_ab (bit a on site i, bit b on site j) and the
    coherence c = <01|rho|10>: every other entry would join basis states of
    different popcount.  Mixtures of sector states keep that shape, so these
    five numbers fix any pair state the library computes.
    """
    i, j = _pair_sites_checked(basis.n_sites, (i, j))
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[0] != len(basis):
        raise DomainError(
            f"expected {len(basis)} sector amplitudes per column, got shape {v.shape}"
        )
    return _pair_rows(_pair_maps(basis, i, j), v)


def _pair_maps(basis: SectorBasis, i: int, j: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Index maps of ``pair_xstate_data`` for the ordered pair i < j: the
    basis rows of each pair slot 00, 01, 10, 11, and for each |01> row the
    row of its partner with both pair bits flipped (same environment, same
    sector)."""
    n = basis.n_sites
    states = basis.state_array()
    mi, mj = site_mask(i, n), site_mask(j, n)
    slot = 2 * ((states & mi) != 0) + ((states & mj) != 0)
    rows = [np.flatnonzero(slot == a) for a in range(4)]
    return rows, np.searchsorted(states, states[rows[1]] ^ (mi | mj))


def _pair_rows(maps: tuple[list[np.ndarray], np.ndarray], v: np.ndarray) -> np.ndarray:
    """``pair_xstate_data`` of the columns of ``v`` through ``_pair_maps``.

    Every sum starts at 0 and runs down the basis rows in order (a running
    sum), so a column's row is the same bits whichever columns share the
    call.
    """
    rows, partners = maps
    data = np.zeros((v.shape[1], 5))
    terms = [v[r] * v[r] for r in rows] + [v[rows[1]] * v[partners]]
    for a, t in enumerate(terms):
        if len(t):
            data[:, a] += np.cumsum(t, axis=0)[-1]
    return data


def xstate_concurrences(data) -> np.ndarray:
    """Closed-form concurrence 2 max(0, |c| - sqrt(p00 p11)) of each pair
    state row (p00, p01, p10, p11, c) (T. Yu and J. H. Eberly, QIC 7, 459
    (2007)), for an (m, 5) array of rows such as ``pair_xstate_data`` gives.

    Every row is checked as ``TwoQubitDensityMatrix`` checks a 4x4 state,
    with the same tolerances, in closed form: trace 1 within 1e-12, and no
    eigenvalue below -1e-10, the eigenvalues being p00, p11 and
    (p01 + p10)/2 +/- sqrt(((p01 - p10)/2)^2 + c^2).  Its symmetry check
    and the check that nothing lies outside the populations and the 01<->10
    coherence hold by construction for a state built from these five
    numbers.  No eigenvalue is clipped, so values far below the Wootters
    kernel's noise floor stay exact.
    """
    d = np.asarray(data, dtype=float)
    if d.ndim != 2 or d.shape[1] != 5:
        raise DomainError(f"expected (m, 5) pair-state rows, got shape {d.shape}")
    p00, p01, p10, p11, c = d.T
    trace = p00 + p01 + p10 + p11
    off = np.flatnonzero(~(np.abs(trace - 1.0) <= 1e-12))  # NaN fails too
    if len(off):
        raise DomainError(f"reduced state trace is {float(trace[off[0]])!r}, not 1")
    middle = 0.5 * (p01 + p10) - np.sqrt((0.5 * (p01 - p10)) ** 2 + c * c)
    if np.any(np.minimum(np.minimum(p00, p11), middle) < -1e-10):
        raise DomainError("reduced state has a significantly negative eigenvalue")
    # fmax, not maximum: a population in [-1e-10, 0) makes sqrt NaN, which
    # fmax maps to 0 as the scalar max(0.0, nan) of the 4x4 route did
    return 2.0 * np.fmax(0.0, np.abs(c) - np.sqrt(p00 * p11))


def thermal_state(spec: ChainSpec, dec: SpectralDecomposition) -> np.ndarray:
    """Boltzmann mixture over the full spectrum at spec.temperature.

    Weights are energy-shifted by the ground energy so large gaps underflow
    to zero instead of overflowing.
    """
    if spec.temperature <= 0:
        raise DomainError(
            "thermal_state needs temperature > 0; use ground_state_density at T = 0"
        )
    w = dec.eigenvalues
    # a gap over a tiny T overflows to inf; exp(-inf) = 0 is its exact T -> 0 weight
    with np.errstate(over="ignore"):
        weights = np.exp(-(w - w[0]) / spec.temperature)
    weights /= weights.sum()
    v = dec.eigenvectors
    return (v * weights) @ v.T


def ground_state_density(dec: SpectralDecomposition) -> np.ndarray:
    """Equal-weight mixture over the (possibly degenerate) ground space;
    the T -> 0+ limit of the thermal state."""
    idx = ground_space(dec)
    v = dec.eigenvectors[:, idx]
    return (v @ v.T) / len(idx)


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    w[w < _NOISE_FLOOR * w.max(initial=0.0)] = 0.0
    return (v * np.sqrt(w)) @ v.T


def concurrence(rho) -> ConcurrenceResult:
    """Wootters concurrence of a real two-qubit density matrix.

    The lambdas are the descending square roots of the eigenvalues of the
    symmetric product sqrt(rho) rho~ sqrt(rho), with rho~ the spin-flipped
    state.  Because rho~ = F rho F, that product equals K^2 for the
    symmetric matrix K = sqrt(rho) F sqrt(rho), so the lambdas are read off
    as |eig(K)| without ever squaring: exact zeros stay at roundoff size
    instead of being amplified to sqrt(eps).  The value is
    max(0, l1 - l2 - l3 - l4).
    """
    m = rho.matrix if isinstance(rho, TwoQubitDensityMatrix) else np.asarray(rho, dtype=float)
    if m.shape != (4, 4):
        raise DomainError(f"expected a 4x4 density matrix, got shape {m.shape}")
    if abs(np.trace(m) - 1.0) > 1e-8:
        raise DomainError(f"density matrix trace deviates from 1: {np.trace(m)!r}")
    if np.linalg.eigvalsh(m)[0] < -1e-8:
        raise DomainError("density matrix is significantly non-positive")
    root = _sqrt_psd(m)
    lambdas = np.sort(np.abs(np.linalg.eigvalsh(root @ SPIN_FLIP @ root)))[::-1]
    value = lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]
    return ConcurrenceResult(
        value=max(0.0, float(value)), lambdas=tuple(float(x) for x in lambdas)
    )
