"""Deterministic real-symmetric eigendecomposition.

numpy.linalg.eigh (LAPACK) does the factorization; this wrapper pins the
contract: eigenvalues ascending, LAPACK's eigenvectors with no sign chosen
(every state built from one is a sum of products of its entries, exact under
negation), bit-for-bit reproducible for identical input and thread count.
A stack of matrices is decomposed in one call, each matrix to the bits it
gets alone (LAPACK runs on each in turn).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

# Relative tolerance for treating eigenvalues as degenerate: exact
# degeneracies only ever differ by roundoff, so this just absorbs noise.
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending; column m of ``eigenvectors`` pairs with
    ``eigenvalues[m]``.  Of a stack, both arrays carry the stack's leading
    axes, and ``order`` is still the order of one matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def order(self) -> int:
        return self.eigenvalues.shape[-1]


def decompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Full decomposition of a real symmetric matrix, or of each of a stack
    of them (shape (..., d, d)), read-only arrays."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def _degeneracy_tolerance(lowest):
    """How far above ``lowest`` (a level or an array of them) a level still
    counts as degenerate with it: DEGENERACY_RTOL (1 + |lowest|)."""
    return DEGENERACY_RTOL * (1.0 + np.abs(lowest))


def ground_space(dec: SpectralDecomposition) -> list[int]:
    """Indices of all states within DEGENERACY_RTOL of the lowest eigenvalue
    of one matrix's decomposition (a stack is refused)."""
    if dec.eigenvalues.ndim != 1:
        shape = dec.eigenvalues.shape
        raise DomainError(f"expected one matrix's decomposition, got a stack of shape {shape}")
    if dec.order == 0:
        raise DomainError("empty decomposition")
    w0 = dec.eigenvalues[0]
    cut = w0 + _degeneracy_tolerance(w0)
    return [m for m in range(dec.order) if dec.eigenvalues[m] <= cut]
