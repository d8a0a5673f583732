"""Deterministic real-symmetric eigendecomposition.

numpy.linalg.eigh (LAPACK) does the factorization; this wrapper pins the
contract: eigenvalues ascending, LAPACK's eigenvectors with no sign chosen
(every state built from one is a sum of products of its entries, exact under
negation), bit-for-bit reproducible for identical input.  A stack of
matrices is decomposed in one call, each matrix to the bits it gets alone
(LAPACK runs on each in turn).

OpenBLAS splits a blocked reduction's sums across its threads, so the bits
of an ``eigh`` (or of a long dot product) depend on its thread count.  The
sweeps make every LAPACK call of theirs inside
``_one_blas_thread``, which runs numpy's OpenBLAS on one thread there: their
bytes are the one-thread bytes whatever the count outside, and several
threads of the caller's own can make such calls at once.  Where numpy's BLAS
is not an OpenBLAS whose count can be set, it changes nothing, and the
bytes depend on that BLAS's own thread count as before.
"""

from __future__ import annotations

import ctypes
import os
import threading
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


def _openblas_threads():
    """The (get, set) pair of the thread count of the OpenBLAS numpy's LAPACK
    module links, looked up by name through ``ctypes`` in that module's
    library, which numpy has loaded (numpy's bundled 64-bit-int build first,
    then a plain OpenBLAS), or None where there is none."""
    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):  # no such module, or not a loadable library
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                get = getattr(library, f"{prefix}get_num_threads{suffix}")
                put = getattr(library, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


# looked up once, when the module loads, so no sweep pays for it
_OPENBLAS_THREADS = _openblas_threads()


class _OneBlasThread:
    """``with _one_blas_thread as pinned:`` runs numpy's OpenBLAS on one
    thread inside the block and yields True, or changes nothing and yields
    False where no setter is found (``_OPENBLAS_THREADS``).

    The count is process-wide, so the blocks of all the caller's threads
    share one pin: the first to enter sets the count to 1 (unless it already
    reads 1) and the last to leave restores the count it read, in
    ``__exit__``, whether the block returned or raised.  A forked child
    starts with no block open."""

    def __init__(self):
        self.lock, self.open, self.earlier = threading.Lock(), 0, 1

    def __enter__(self) -> bool:
        if _OPENBLAS_THREADS is None:
            return False
        get, put = _OPENBLAS_THREADS
        with self.lock:
            if not self.open:
                self.earlier = get()
                if self.earlier != 1:
                    put(1)
            self.open += 1
        return True

    def __exit__(self, *exc_info) -> None:
        if _OPENBLAS_THREADS is None:
            return
        with self.lock:
            self.open -= 1
            if not self.open and self.earlier != 1:
                _OPENBLAS_THREADS[1](self.earlier)

    def _after_fork(self) -> None:
        # the blocks open in the parent belong to threads the child does not have
        if self.open and self.earlier != 1:
            _OPENBLAS_THREADS[1](self.earlier)
        self.__init__()


_one_blas_thread = _OneBlasThread()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_one_blas_thread._after_fork)
