"""Parameter sweeps on S^z blocks: phase scans, concurrence curves, ground regimes.

Phase scans, concurrence curves and ground regimes run on S^z blocks of
the spec they are given, and read a row at B as the spec's own site fields
plus a uniform B.  The Hamiltonian conserves total S^z, and a uniform B
shifts the k-up block by B (2k - N) without changing its eigenvectors, so
each delta decomposes its N + 1 blocks once and every B reuses them.  Two
more symmetries cut that work.  When every site field is 0 the global spin
flip F maps block k onto block N - k, so only the blocks k <= N/2 are
decomposed and the others reuse their levels and flipped pair data.  Each
block is then split by one small group of bit maps that commute with H and
keep it: mirror reflection R when couplings and fields are palindromic, F
on the half-filled block when every field is 0, and their product.  Each
character of the group is one part of about 1/|G| of the block; a spec with
neither symmetry keeps the block whole (``hamiltonian._block_parts``).

Delta enters H only through the Ising diagonal, so a sweep builds what its
deltas share once, when it is called, in one vectorized pass over the
labels of all its blocks (``_BlockPlan``): their Zeeman diagonal and Ising
bond sums, the index maps of their pair data, and their parts, each with
its entries as (row, col, value) lists.  The deltas then only put their
diagonals together and decompose, a chunk of deltas at a time: each part's
matrices for the chunk are one stack of at most ``chain._STACK_BYTES`` (or
one matrix), decomposed in one call and unfolded and reduced to pair-state
entries once (``_BlockPlan.spectra``).  A chunk is decomposed before its
first row is read, so a stacked chunk delays the first row, and it is the
work a closed stdout can still cost; the byte bound bounds both.  At T = 0
each part keeps, at each delta, only the levels close enough to its own
lowest to be ground at some |B| up to the largest the call reads; only
their eigenvectors are kept, and the rest are dropped.  The part that holds
the block's lowest level is named from the spec by the Perron-Frobenius
rule and decomposed first, and at a delta where one Cholesky factorization
proves a part's levels to lie beyond that window of the block's lowest, the
part is not decomposed at all (``_Block.levels``).

Where a part has more than 45 states (from n = 9 on), the blocks of each
chunk, one delta or a stack of them, share nothing and are decomposed at
the same time: split into one share per CPU the process may use, the
costliest first, the first share on the calling thread and each other on a
daemon thread started for the chunk and joined before it yields
(``_run_shares``).  Every LAPACK call runs on one OpenBLAS thread
(``eigensolver._one_blas_thread``) and each block whole on one thread, so a
spectrum is the same bits on any number of CPUs and BLAS threads.  Where
numpy's BLAS has no OpenBLAS thread count to set, the blocks run one after
the other on the calling thread, as BLAS threads may change their bits.

The field axis of a delta is then evaluated in one vectorized pass
(``_SectorSpectrum.field_rows``): the shifted levels, the ground space and
the mixed pair data of a chunk of fields at once, and their concurrences
through the batched X-state kernel, which checks every row in closed form.
Rows stay pure functions of (template, delta, B): every reduction runs
along one field's levels, and a level outside the ground space changes no
bit of a T = 0 row, so a single-point call reproduces its grid row bit for
bit.  At T > 0 the same shift makes the Boltzmann mixture one over N + 1
sector sums, formed once per call, and the ground energy the lowest of the
N + 1 shifted sector lows, so a field costs O(N + 1) instead of O(levels);
its reductions run in a fixed order with no BLAS product, so T > 0 rows do
not depend on the BLAS thread count either.

The same shift makes the ground level over B the lower envelope of N + 1
lines, which ``ground_regimes`` walks exactly, on the levels that can be
ground up to the largest field the walk reads.  One sector's ground state
(``sector_boundary_concurrence``) runs on a plan of that one block.

A grid's rows are computed as blocks (``chain._rows``), one per chunk of
the field pass: its columns as lists, with the delta and its offset on
the field axis (``_grid``).  ``phase_scan`` and ``concurrence_curve``
flatten them into rows; the CLI writes the blocks of ``_scan_blocks`` and
``_curve_blocks`` as they are, so it formats each field once per call and
each delta once per block, and a closed stdout stops within a chunk.

Every sweep takes its grid axes as plain sequences of numbers (a one-shot
iterable too), which ``chain.check_grid`` reads into tuples once, refusing
an empty axis, a value that is not a finite number and a grid of more than
GRID_POINT_CAP points.  Every block is refused above SECTOR_DIM_CAP
states, and every delta or field at which the energy scale overflows,
before anything is allocated.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from math import comb, inf, isfinite, nan

import numpy as np

from . import closed_forms
from .chain import _CHUNK_ENTRIES, _STACK_BYTES, ChainSpec, _rows, build_sector_basis, check_grid
from .channel import channel_curve  # unused: perfbench's tracer wraps it from here
from .closed_forms import GroundRegime
from .eigensolver import _degeneracy_tolerance, _one_blas_thread, decompose
from .entanglement import _pair_rows, _pair_sites_checked, _slot_maps, xstate_concurrences
from .errors import DomainError, ResourceCapError, _shown, as_float, as_int
from .hamiltonian import _block_parts, _dense, _diagonal_terms, _site_bits

SECTOR_DIM_CAP = 3432  # C(14, 7): the largest S^z block decomposed densely


@dataclass(frozen=True)
class PhasePoint:
    """Ground-state classification at one (delta, field) node."""

    delta: float
    field: float
    n_up: int
    sector_rank: int
    ground_energy: float
    degeneracy: int
    boundary_concurrence: float


# pair-data columns (p00, p01, p10, p11, c) of a state read off its spin-flip
# image: populations swap 00 <-> 11 and 01 <-> 10, the coherence stays
_FLIPPED_COLUMNS = [3, 2, 1, 0, 4]


class _Block:
    """One S^z block of a plan (``_BlockPlan``, which builds it): its parts
    (``hamiltonian._block_parts``), the index ``lead`` of the part that
    holds its lowest level, and the index maps of its pair data."""

    def __init__(self, parts, lead: int, pair_maps):
        self.parts, self.lead, self.pair_maps = parts, lead, pair_maps
        # the lead part first, then the others in part order
        self.order = sorted(range(len(parts)), key=lambda i: i != lead)

    def levels(self, diagonal: np.ndarray, windows: np.ndarray) -> list:
        """For each row of the plan's ``diagonal`` (one per delta of a
        chunk) and its ``window``: the levels within the window of their own
        part's lowest and the pair data of their eigenvectors, the only ones
        unfolded and reduced, part by part in part order; together a
        superset of the levels within the window of the block's lowest.

        Each part's matrices for the chunk are one stack, decomposed in one
        call, unfolded and reduced once.  With a finite window the ``lead``
        part goes first; at each delta another part is skipped where
        ``_above`` proves all its levels more than that delta's window above
        the lowest decomposed so far at that delta, and so above the block's
        lowest, and decomposed where it cannot.  A skipped level is one the
        window would never keep at the block level, so the rows keep their
        bits (``_ground_window``); the matrices decomposed at a delta depend
        on that delta alone."""
        floors = [inf] * len(windows)
        kept = [[] for _ in windows]
        for i in self.order:
            reps, entries, orbit, amp = self.parts[i]
            matrices = _dense(len(reps), entries, diagonal.take(reps, axis=1))
            todo = [
                j for j, m in enumerate(matrices) if not (floors[j] < inf and _above(m, floors[j]))
            ]
            if not todo:
                continue
            # the whole stack as it is, or a copy of the deltas not certified
            chosen = slice(None) if len(todo) == len(matrices) else todo
            dec = decompose(matrices[chosen])
            del matrices
            w = dec.eigenvalues
            tops = (w - w[:, :1] <= windows[chosen, None]).sum(axis=1).tolist()
            # the first max(tops) levels of each delta, one delta after the
            # other; the gather copies, so the part's own vectors can go first
            top = max(tops)
            x = dec.eigenvectors[:, orbit, :top].transpose(1, 0, 2).reshape(len(orbit), -1)
            del dec
            x *= amp
            data = _pair_rows(self.pair_maps, x)
            del x
            for t, (j, count) in enumerate(zip(todo, tops)):
                floors[j] = min(floors[j], w[t, 0] + windows[j])
                kept[j].append((i, w[t, :count], data[t * top : t * top + count]))
        levels = []
        for pieces in kept:
            pieces.sort(key=lambda piece: piece[0])
            _, energies, data = zip(*pieces)
            levels.append((np.concatenate(energies), np.concatenate(data)))
        return levels


def _above(matrix: np.ndarray, floor: float) -> bool:
    """Whether every eigenvalue of the symmetric ``matrix`` provably lies
    above ``floor``: whether numpy's Cholesky factors it shifted down by
    sigma = floor + d (d + 1) eps (max |m_ii| + |floor|).  The matrix is
    left as it came.

    A floating-point Cholesky that runs to completion on a d x d matrix A
    factors A + E exactly, with |E| <= gamma_{d+1} |R^T| |R| componentwise
    and gamma_{d+1} = (d + 1) (eps / 2) / (1 - (d + 1) eps / 2) (N. J.
    Higham, Accuracy and Stability of Numerical Algorithms, SIAM 2002,
    ch. 10), so ||E|| <= gamma_{d+1} / (1 - gamma_{d+1}) trace |A|; its use
    as a proof of definiteness is S. M. Rump's (Acta Numerica 19, 287
    (2010)).  Here trace |A| <= d (max |m_ii| + |sigma|), so ||E|| is about
    half of sigma - floor at most, and the other half leaves room for the
    rounding of the shift and LAPACK's blocked order.  A + E = R^T R is
    positive semidefinite, so no eigenvalue of A lies below -||E||, and none
    of ``matrix`` at or below ``floor``.
    """
    d = len(matrix)
    diagonal = matrix.diagonal().copy()
    sigma = floor + d * (d + 1) * np.finfo(float).eps * (np.abs(diagonal).max() + abs(floor))
    matrix.flat[:: d + 1] -= sigma
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    finally:
        matrix.flat[:: d + 1] = diagonal
    return True


def _norm_bound(spec: ChainSpec, delta: float, field: float) -> float:
    """A bound on the operator norm of H of ``spec`` at ``delta`` plus a
    uniform ``field``: sum |J| + |delta| (N - 1) / 2 + sum |B_i| + N |field|.
    Every level, gap and field a sweep computes lies within a few times it,
    so a scale at which 16 times it overflows is refused, as is an int
    ``delta`` or ``field`` past the float range."""
    delta, field = as_float(delta, "delta"), as_float(field, "B")
    bound = (
        sum(map(abs, spec.couplings))
        + 0.5 * abs(delta) * (spec.n_sites - 1)
        + sum(map(abs, spec.fields))
        + spec.n_sites * abs(field)
    )
    if not isfinite(16.0 * bound):
        raise DomainError(f"the energy scale of H at delta = {delta!r} and B = {field!r} overflows")
    return bound


def _ground_window(spec: ChainSpec, delta: float, reach: float) -> float:
    """How far above its own part's lowest a level of ``spec`` at ``delta``
    can lie and still be ground at a uniform field B with |B| <= ``reach``.

    At a uniform field B the ground test keeps the levels within
    ``_degeneracy_tolerance(E0(B))`` of the lowest, E0(B), and
    E0(B) <= min_k + B (2k - N) for the lowest level min_k of each block k.
    A level more than that window above its own block's lowest, or its own
    part's, which lies at or above the block's, can never be ground.
    |E0(B)| is at most the operator norm (``_norm_bound``); twice the
    tolerance at that bound leaves a wide margin for the rounding of the
    shifted levels.  A pruned level only ever added exact zeros to a row, so
    the rows are those of every level kept, bit for bit.
    """
    return 2.0 * _degeneracy_tolerance(_norm_bound(spec, delta, reach))


def _check_sector(n_sites: int, n_up: int) -> int:
    """``n_up`` as an int, refused, before anything is allocated, outside
    0..N or when its block has more than SECTOR_DIM_CAP states.  A sweep
    decomposes every block, so it checks the largest, k = N // 2."""
    n_up = as_int(n_up, "n_up")
    if not 0 <= n_up <= n_sites:
        raise DomainError(f"n_up must lie in [0, {n_sites}], got {_shown(n_up)}")
    dim = comb(n_sites, n_up)
    if dim > SECTOR_DIM_CAP:
        raise ResourceCapError(f"sector dimension {dim} exceeds the cap of {SECTOR_DIM_CAP}")
    return n_up


class _BlockPlan:
    """Everything the deltas of one sweep share: the S^z blocks of the
    template (any delta) and one site pair, built once when the sweep is
    called, after the cap and the pair are checked.

    With every field exactly 0 the global spin flip maps block k onto block
    N - k, so only blocks k <= N/2 are kept and block N - k reuses their
    levels (the very same numbers) and flipped pair data.  ``sectors``
    names the blocks of a plan of one sector's ground state instead.

    All blocks are built in one pass over their labels, concatenated in
    block order (``zz``, ``zeeman`` and the parts' representatives index
    them), and split into the characters of their symmetry group
    (``hamiltonian._block_parts``).

    A block's matrices at a delta are its parts' entries plus the diagonal
    0.5 delta zz + Zeeman (the expression ``build_sector`` evaluates) at the
    representatives.  ``spectra`` decomposes the deltas in chunks of
    max(1, _STACK_BYTES // (8 d^2)), d the largest part: one stack of at
    most 2 MiB of float64 per part, or one matrix.  ``split`` tells whether
    d exceeds 45 (two d x d matrices hold more than _CHUNK_ENTRIES), where
    the blocks of each chunk are split across the CPUs; ``costs`` holds each
    block's sum of d^3 over its parts, by which ``_shares`` splits them.
    """

    def __init__(self, template: ChainSpec, pair, sectors=None):
        n = template.n_sites
        self.template = template
        self.flip = sectors is None and not any(template.fields)
        if sectors is None:
            _check_sector(n, n // 2)
            sectors = range(n // 2 + 1 if self.flip else n + 1)
        self.pair = _pair_sites_checked(n, pair)
        self.sectors = list(sectors)
        bases = [build_sector_basis(n, k) for k in self.sectors]
        sizes = [len(basis) for basis in bases]
        labels = np.concatenate([basis.state_array() for basis in bases])
        bits = _site_bits(n, labels)
        self.zz, self.zeeman = _diagonal_terms(template, bits)
        pair_maps = _slot_maps(2 * bits[self.pair[0] - 1] + bits[self.pair[1] - 1], sizes)
        parts = _block_parts(template, self.sectors, sizes, labels, bits)
        self.blocks = [_Block(*block, maps) for block, maps in zip(parts, pair_maps)]
        largest = max(len(part[0]) for block in self.blocks for part in block.parts)
        self.chunk = max(1, _STACK_BYTES // (8 * largest**2))
        self.split = 2 * largest**2 > _CHUNK_ENTRIES
        self.costs = [sum(len(part[0]) ** 3 for part in block.parts) for block in self.blocks]

    def _shares(self, count: int) -> list[list[int]]:
        """The indices of the plan's blocks split into at most ``count``
        shares, none empty, each in block order: the costliest block first,
        each to the share with the least cost so far (the first on a tie).
        One share is every block in order.  A block's cost is the same at
        every delta, so a stacked chunk splits as one delta does."""
        shares, loads = [[] for _ in range(count)], [0] * count
        for b in sorted(range(len(self.blocks)), key=lambda b: -self.costs[b]):
            least = loads.index(min(loads))
            shares[least].append(b)
            loads[least] += self.costs[b]
        return [sorted(share) for share in shares if share]

    def spectra(self, deltas, reach: float | None = None):
        """The spectrum at each of the sequence ``deltas``, yielded in order,
        each chunk of deltas decomposed when its first spectrum is read.
        Given ``reach``, the largest |B| of a T = 0 call, each part keeps
        only the levels that can be ground at a uniform field within it
        (``_ground_window``, at each delta); None keeps every level.

        A chunk runs with OpenBLAS on one thread.  Where the plan's parts
        are large enough (``split``) and that pin holds, the blocks of each
        chunk, one delta or a stack of them, are split into one share per
        CPU (``_cpus``, ``_shares``), each block's ``levels`` for the whole
        chunk on one thread, each share but the first on a thread of its
        own (``_run_shares``); otherwise the one share is every block in
        order.  Every share has returned before a spectrum is yielded or an
        error raised, and the pin is released before each yield.  The
        threads are the chunk's own, so U threads that sweep at once may
        run up to U (CPUs - 1) of them; the CLI sweeps on one."""
        n = self.template.n_sites
        sectors = range(n + 1) if self.flip else self.sectors
        for start in range(0, len(deltas), self.chunk):
            chunk = deltas[start : start + self.chunk]
            windows = np.array(
                [inf if reach is None else _ground_window(self.template, d, reach) for d in chunk]
            )
            diagonal = 0.5 * np.array(chunk, dtype=float)[:, None] * self.zz + self.zeeman
            levels = [None] * len(self.blocks)

            def run(share):
                for b in share:
                    levels[b] = self.blocks[b].levels(diagonal, windows)

            with _one_blas_thread as pinned:
                _run_shares(run, self._shares(_cpus() if pinned and self.split else 1))
            for per_delta in zip(*levels):
                energies, data = map(list, zip(*per_delta))
                if self.flip:
                    for k in range(n // 2 + 1, n + 1):
                        energies.append(energies[n - k])
                        data.append(data[n - k][:, _FLIPPED_COLUMNS])
                yield _SectorSpectrum(n, sectors, energies, data)

    def spectrum(self, delta: float, reach: float | None = None) -> "_SectorSpectrum":
        """The spectrum at one ``delta`` (``spectra``)."""
        (spectrum,) = self.spectra((delta,), reach)
        return spectrum


def _cpus() -> int:
    """How many CPUs this process may run on: its affinity, where the
    platform reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_shares(run, shares) -> None:
    """``run(share)`` for each of ``shares``: the first on this thread, each
    other on a daemon thread started for it and joined before this returns,
    also where a later thread fails to start; then the first exception
    raised, in share order, is raised."""
    errors = [None] * len(shares)

    def attempt(i):
        try:
            run(shares[i])
        except BaseException as exc:  # raised on the calling thread, below
            errors[i] = exc

    threads = [threading.Thread(target=attempt, args=(i,), daemon=True)
               for i in range(1, len(shares))]
    try:
        for thread in threads:
            thread.start()
        attempt(0)
    finally:  # a start that failed leaves no started share running
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    for error in errors:
        if error is not None:
            raise error


class _SectorSpectrum:
    """Levels of S^z blocks of one chain, each with the pair data of its
    eigenvector for one site pair (``entanglement._pair_rows``).

    ``sectors`` lists the n_up of each block, ``energies`` and ``data``
    its levels and their pair-data rows, in ascending sector order.
    ``field_rows`` adds a uniform field as the shift B (2k - N) of the k-up
    block, so one instance serves every field at fixed delta.
    """

    def __init__(self, n_sites: int, sectors, energies, data):
        self.energies = np.concatenate(energies)
        self.pair_data = np.concatenate(data)
        self.sector = np.repeat(np.asarray(sectors), [len(e) for e in energies])
        self.shift = 2.0 * self.sector - n_sites

    def field_rows(self, fields, temperature: float = 0.0):
        """The rows at each uniform field of the sequence ``fields``, yielded
        per chunk of max(1, _CHUNK_ENTRIES // width) fields from
        fields[start], one kernel call each and no array as long as the axis:
        at T = 0 (start, e0, n_up, degeneracy, concurrence), the width every
        level; at T > 0 (start, e0, concurrence), the width every sector.

        At T = 0 the ground space at B is every level of ``energies + B
        shift`` within DEGENERACY_RTOL of the lowest, whatever its sector; a
        tie across sectors is labelled by its smallest sector, by rule.  The
        pair state is the equal mixture over the ground space (the T -> 0+
        limit), summed level by level in order, so levels that are not
        ground change no bit of it.  At T > 0 it is the Boltzmann mixture
        over every level, sum_k w_k P_k / sum_k w_k Z_k with the sector sums
        of ``_sector_sums`` and w_k = exp(-(e_k + B s_k - E0) / T), O(N + 1)
        a field.  E0 is the lowest of the N + 1 shifted sector lows e_k + B
        s_k: rounding is monotone, so it is the lowest shifted level, the
        same bits.  No exponent is above 0 and the ground sector weighs 1,
        so nothing overflows, and a gap over a tiny T underflows to its
        exact T -> 0 weight of 0.  Every reduction runs along one field's
        levels or sectors, in a fixed order and with no BLAS product, so a
        field's row is the same bits whichever fields share the call and
        whatever the BLAS thread count.
        """
        if temperature > 0:
            lows, shifts, sums = self._sector_sums(temperature)

        def rows(chunk):
            # one chunk's rows; its temporaries go before the rows are yielded
            if temperature > 0:
                shifted = lows + chunk * shifts
                lowest = shifted.min(axis=1)
                # a gap over a tiny T overflows to inf; exp(-inf) = 0 is its exact T -> 0 weight
                with np.errstate(over="ignore"):
                    weights = np.exp(-(shifted - lowest[:, None]) / temperature)
                z, *p = [(weights * column).sum(axis=1) for column in sums]
                return lowest, xstate_concurrences(np.stack(p, axis=1) / z[:, None])
            e = self.energies + chunk * self.shift
            lowest = e.min(axis=1)
            ground = e <= (lowest + _degeneracy_tolerance(lowest))[:, None]
            count = np.count_nonzero(ground, axis=1)
            data = np.cumsum(ground[:, :, None] * self.pair_data, axis=1)[:, -1] / count[:, None]
            # levels are stored by ascending sector, so the first ground
            # level has the smallest ground sector
            return lowest, self.sector[ground.argmax(axis=1)], count, xstate_concurrences(data)

        step = max(1, _CHUNK_ENTRIES // (len(lows) if temperature > 0 else len(self.energies)))
        for start in range(0, len(fields), step):
            yield start, *rows(np.asarray(fields[start : start + step], dtype=float)[:, None])

    def _sector_sums(self, temperature: float):
        """What the T > 0 pass reads: each sector's lowest level e_k and
        shift s_k, and the rows (Z, p00, p01, p10, p11, c) of the sector sums
        Z_k = sum_l exp(-(E_l - e_k) / T) and P_k = sum_l exp(-(E_l - e_k) /
        T) d_l over the levels l of sector k, one C-contiguous (6, sectors)
        array."""
        starts = np.flatnonzero(np.diff(self.sector, prepend=-1))
        lows = np.minimum.reduceat(self.energies, starts)
        gap = self.energies - np.repeat(lows, np.diff(starts, append=len(self.energies)))
        with np.errstate(over="ignore"):
            weights = np.exp(-gap / temperature)
        terms = np.column_stack((weights, weights[:, None] * self.pair_data))
        sums = np.ascontiguousarray(np.add.reduceat(terms, starts).T)
        return lows, self.shift[starts], sums


def _grid(template: ChainSpec, pair, deltas, fields, temperature: float, pick):
    """The field axis as floats and the blocks (``chain._rows``) of a
    checked grid, ((delta,), start, columns) each, one delta at a time: the
    one driver of ``phase_scan`` and ``concurrence_curve``.  A block is one
    chunk of ``field_rows``, the fields from fields[start]; ``pick`` takes
    its columns from the chunk's arrays, and the block holds them as lists.

    Refused when it is called, before any block is built: a scale at which
    ``_norm_bound`` overflows at the largest |delta| and |B| (it grows with
    both), then the cap and the pair (``_BlockPlan``).  At T = 0 a delta
    keeps only the levels that can be ground within the largest |B|.  The
    deltas are decomposed a chunk at a time (``_BlockPlan.spectra``), when
    the chunk's first block is read."""
    reach = max(map(abs, fields))
    _norm_bound(template, max(map(abs, deltas)), reach)
    spectra = _BlockPlan(template, pair).spectra(deltas, None if temperature > 0 else reach)

    def blocks():
        for delta, spectrum in zip(deltas, spectra):
            for start, *columns in spectrum.field_rows(fields, temperature):
                yield (float(delta),), start, [column.tolist() for column in pick(*columns)]

    return [float(field) for field in fields], blocks()


def phase_scan(template: ChainSpec, deltas, fields):
    """Classify the ground state over the grid of the sequences ``deltas``
    and ``fields``, each field B a uniform field added to the template's
    own site fields.  Every node is a T = 0 node: the template's
    ``temperature`` is not read.

    The label records the magnetization sector of the ground level (the
    smallest one when levels of several sectors tie) plus its rank within
    that sector, which is 0 by construction.  The grid (``check_grid``) and
    the caps are checked eagerly, before any node is computed.  The result
    streams one chunk of a delta's fields at a time, evaluated when its
    first node is read.  The points are the rows of ``_scan_blocks``.
    """
    return (PhasePoint(*row) for row in _rows(*_scan_blocks(template, deltas, fields)))


def _scan_blocks(template: ChainSpec, deltas, fields):
    """``phase_scan``'s field axis and blocks (``_grid``), whose columns are
    n_up, sector_rank, ground energy, degeneracy and concurrence."""
    deltas, fields = check_grid(deltas, fields)

    def pick(e0, n_up, degeneracy, c):
        # sector_rank is 0: the ground level is the global minimum, so
        # nothing in its own sector lies below it
        return n_up, np.zeros_like(n_up), e0, degeneracy, c

    return _grid(template, (1, template.n_sites), deltas, fields, 0.0, pick)


def classify_ground_state(spec: ChainSpec) -> PhasePoint:
    """One phase-scan node: the field on site 1 is the node's uniform B on
    top of the remaining profile (all zero for a uniform field), so a
    uniform spec reproduces its phase_scan row bit for bit.  A T = 0 node,
    as there: the spec's ``temperature`` is not read."""
    field = spec.fields[0]
    rest = replace(spec, fields=tuple(b - field for b in spec.fields))
    (point,) = phase_scan(rest, (spec.delta,), (field,))
    return point


def sector_boundary_concurrence(spec: ChainSpec, n_up: int) -> float:
    """Concurrence between the end sites of the ground state of the
    ``n_up`` sector: a plan of that one block (``_BlockPlan`` with
    ``sectors``, split by the spec's symmetries, such as every impurity
    chain's mirror) read at zero field by
    ``field_rows`` within the spec's own ground window, so a degenerate
    sector ground space is the sweeps' equal mixture.  The spec's
    ``temperature`` is not read: the state is the T = 0 one."""
    n = spec.n_sites
    n_up = _check_sector(n, n_up)
    _norm_bound(spec, spec.delta, 0.0)  # refused before the block is built
    spectrum = _BlockPlan(spec, (1, n), (n_up,)).spectrum(spec.delta, 0.0)
    [(*_, (value,))] = spectrum.field_rows((0.0,))
    return float(value)


def concurrence_curve(template: ChainSpec, pair: tuple[int, int], fields, deltas):
    """Rows (delta, field, concurrence) for the site pair over the grid of
    the sequences ``fields`` and ``deltas``, each field a uniform B added to
    the template's own site fields.

    Uses the ground-state density (equal mixture across degeneracies); a
    positive template temperature switches to the thermal state instead.
    The only sweep that reads the temperature.  The grid, the cap and the
    pair are checked eagerly; rows stream chunk by chunk, as in
    ``phase_scan``.  The rows of ``_curve_blocks``.
    """
    return _rows(*_curve_blocks(template, pair, fields, deltas))


def _curve_blocks(template: ChainSpec, pair, fields, deltas):
    """``concurrence_curve``'s field axis and blocks (``_grid``), whose one
    column is the concurrence."""
    fields, deltas = check_grid(fields, deltas)
    temperature = template.temperature
    return _grid(template, pair, deltas, fields, temperature, lambda *columns: columns[-1:])


def ground_regimes(spec: ChainSpec) -> tuple[GroundRegime, ...]:
    """T = 0 ground-state regimes of ``spec`` under a uniform field B >= 0
    added to its site fields: each regime's ground sector and C_1N.

    B moves block k's lowest level along E_k + B (2k - N), so the ground
    level follows the lower envelope of these N + 1 lines.  The walk starts
    at the sector ``field_rows`` calls ground at B = 0 (a tie goes to the
    smallest) and moves from sector k to the smaller sector j whose line
    crosses first, at (E_j - E_k) / (2 (k - j)) exactly (a tie goes to the
    smallest j).  Empty regimes are dropped.  C_1N is constant in a regime,
    as B leaves the eigenvectors alone; all are read in one ``field_rows``
    call at interior fields.  The regime holding B = 0 also carries the
    ground energy there.  The spec's ``temperature`` is not read.

    Every crossing (a level gap over 2 or more) lies within the zero-field
    norm bound, every interior field within half a unit past it; the walk
    reads levels up to that reach and refuses its scale before the plan.
    """
    n, delta = spec.n_sites, spec.delta
    reach = _norm_bound(spec, delta, 0.0) + 0.5
    _norm_bound(spec, abs(delta), reach)
    spectrum = _BlockPlan(spec, (1, n)).spectrum(delta, reach)
    lowest = [float(spectrum.energies[spectrum.sector == k].min()) for k in range(n + 1)]
    [(_, (e0,), (k,), _, _)] = spectrum.field_rows((0.0,))
    k, lo, regimes = int(k), 0.0, []
    while k > 0:
        crossings = [(lowest[j] - lowest[k]) / (2.0 * (k - j)) for j in range(k)]
        j = crossings.index(min(crossings))
        hi = max(lo, crossings[j])
        if hi > lo:
            regimes.append((lo, hi, k))
        lo, k = hi, j
    regimes.append((lo, inf, k))
    interiors = [lo + 0.5 if hi == inf else 0.5 * (lo + hi) for lo, hi, _ in regimes]
    c1n = [c for *_, chunk in spectrum.field_rows(interiors) for c in chunk.tolist()]
    return tuple(
        GroundRegime(
            b_min=lo,
            b_max=hi,
            n_up=n_up,
            c14_max=c,
            energy_at_zero_field=float(e0) if lo == 0.0 else None,
        )
        for (lo, hi, n_up), c in zip(regimes, c1n)
    )


def table1_rows(deltas=tuple(closed_forms.TABLE_4SITE)):
    """Numeric regime table printed beside the quoted reference values:
    ``ground_regimes`` of the uniform 4-site chain at each delta, one plan
    a delta, each built when its delta's first row is read.

    Columns: delta, regime index, numeric/reference boundaries and maxima,
    two-up zero-field energies, and absolute deltas where both sides exist.
    ``deltas`` is a sequence; every delta must be tabulated
    (closed_forms.TABLE_4SITE), which is checked with the grid before the
    first row is computed.
    """
    (deltas,) = check_grid(deltas)
    references = [closed_forms.c14_ground_regimes(delta) for delta in deltas]
    return (
        (float(delta), r, num.n_up, num.b_min, num.b_max, ref.b_min, ref.b_max,
         abs(num.b_min - ref.b_min), abs(num.b_max - ref.b_max) if ref.b_max != inf else 0.0,
         num.c14_max, ref.c14_max, abs(num.c14_max - ref.c14_max),
         *(nan if e is None else e for e in (num.energy_at_zero_field, ref.energy_at_zero_field)))
        for delta, reference in zip(deltas, references)
        for r, (num, ref) in enumerate(
            zip(ground_regimes(ChainSpec.uniform(4, delta=delta)), reference))
    )
