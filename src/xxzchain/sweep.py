"""Parameter sweeps on S^z blocks: phase scans, concurrence curves, ground regimes.

Phase scans, concurrence curves and ground regimes run on S^z blocks of
the spec they are given, and read a row at B as the spec's own site fields
plus a uniform B.  The Hamiltonian conserves total S^z, and a uniform B
shifts the k-up block by B (2k - N) without changing its eigenvectors, so
each delta decomposes its N + 1 blocks once and every B reuses them.  Two
more symmetries cut that work.  When every site field is 0 the global spin
flip maps block k onto block N - k, so only the blocks k <= N/2 are
decomposed and the others reuse their levels and flipped pair data.  When
couplings and fields are palindromic, mirror reflection splits each block
into even and odd halves of about half the size; any other spec takes the
identity as its reflection, whose even half is the whole block.

Delta enters H only through the Ising diagonal, so a sweep builds what its
deltas share once, when it is called (``_BlockPlan``): each block's basis,
its Zeeman diagonal and Ising bond sums, the index maps of its pair data,
and the parts it is decomposed in (its halves under its reflection), each
with its entries as (row, col, value) lists.  A delta then only puts its
diagonal together and decomposes.  At T = 0 each part keeps only the
levels close enough to its own lowest to be ground at some field the call
reads (``_BlockPlan.spectrum``); only their eigenvectors are unfolded and
reduced to pair-state entries, and the rest are dropped.

The field axis of a delta is then evaluated in one vectorized pass
(``_SectorSpectrum.field_rows``): the shifted levels, the ground space and
the mixed pair data of a chunk of fields at once, and their concurrences
through the batched X-state kernel, which checks every row in closed form.
Rows stay pure functions of (template, delta, B): every reduction runs
along one field's levels, and a level outside the ground space changes no
bit of a T = 0 row, so a single-point call reproduces its grid row bit for
bit.

The same shift makes the ground level over B the lower envelope of N + 1
lines, which ``ground_regimes`` walks exactly, on the levels that can be
ground up to the largest field the walk reads.  One sector's ground state
(``sector_boundary_concurrence``) runs on one block of the same kind.

Every sweep takes its grid axes as plain sequences of numbers (a one-shot
iterable too), which ``chain.check_grid`` reads into tuples once, refusing
an empty axis, a value that is not a finite number and a grid of more than
GRID_POINT_CAP points.  Every block is refused above SECTOR_DIM_CAP
states, and every delta or field at which the energy scale overflows,
before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, inf, isfinite, nan

import numpy as np

from . import closed_forms
from .chain import _CHUNK_ENTRIES, ChainSpec, SectorBasis, _shown, as_float, as_int
from .chain import build_sector_basis, check_grid
from .channel import channel_curve  # unused: perfbench's tracer wraps it from here
from .closed_forms import GroundRegime
from .eigensolver import _degeneracy_tolerance, decompose
from .entanglement import _pair_maps, _pair_rows, _pair_sites_checked, xstate_concurrences
from .errors import DomainError, ResourceCapError
from .hamiltonian import _dense, _diagonal_terms, _hopping

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
    """One S^z block of a sweep, built once per plan (at any delta): its
    Ising bond sums zz, Zeeman diagonal, pair-data index maps and parts.

    A part is (representatives, entries, orbit, amp).  Its matrix at a delta
    is the (row, col, value) entries, summed where a position repeats, plus
    the block diagonal 0.5 delta zz + Zeeman (the expression
    ``build_sector`` evaluates) at the representatives; amp * x[orbit] maps
    its eigenvector x to sector amplitudes, O(d) per vector.  The parts are
    the even and odd halves under a reflection R: bit reversal for a
    palindromic spec, the identity otherwise.  Representatives r <= R(r), m
    the index of R(r), span them through c (|r> +/- |m>), c = f / sqrt(2),
    f = 1/sqrt(2) for a self-mirror state and 1 otherwise.  Under the
    identity every state is self-mirror, the even half is the plain block
    and there is no odd half.
    """

    def __init__(self, spec: ChainSpec, basis: SectorBasis, pair):
        states = basis.state_array()
        size = len(states)
        self.zz, self.zeeman = _diagonal_terms(spec, states)
        self.pair_maps = _pair_maps(basis, *pair)
        mirrored = states
        if _palindromic(spec):
            n = basis.n_sites
            mirrored = np.zeros_like(states)
            for s in range(n):
                mirrored |= ((states >> s) & 1) << (n - 1 - s)
        reps = np.flatnonzero(states <= mirrored)
        partners = np.searchsorted(states, mirrored[reps])
        own = partners == reps
        orbit = np.empty(size, dtype=np.int64)
        orbit[partners] = orbit[reps] = np.arange(len(reps))

        # each hopping entry H[r_a, j] out of a representative adds to half
        # entry (a, b = orbit(j)), on the diagonal when j = m_a: weighted
        # f_a f_b in the even half, twice when j is self-mirror (it is both
        # r_b and m_b), and by the sign of j in the odd half
        rows, cols, values = _hopping(spec, states)
        out = np.zeros(size, dtype=bool)
        out[reps] = True
        rows, cols, values = rows[out[rows]], cols[out[rows]], values[out[rows]]
        a, b = orbit[rows], orbit[cols]
        f = np.where(own, np.sqrt(0.5), 1.0)
        ff = np.where(own[a] & own[b], 0.5, f[a] * f[b])  # 0.5 exactly; sqrt(0.5)**2 is not
        even = values * np.where(own[b], 2.0 * ff, ff)
        # c = 1/sqrt(2) rounded down: 2 c^2 <= 1 in floating point, so the
        # map never scales a squared amplitude up (a singlet's concurrence
        # stays <= 1); a self-mirror state is |r> itself in the even half
        root_half = np.nextafter(np.sqrt(0.5), 0.0)
        amp = np.where(own[orbit], 1.0, root_half)[:, None]
        self.parts = [(reps, (a, b, even), orbit, amp)]
        if not own.all():
            odd = ~own[a] & ~own[b]
            index = np.cumsum(~own) - 1
            # sign +1 at r, -1 at m and 0 at a self-mirror state (whose
            # index[orbit] is any entry, times 0); cast, because labels of
            # more than 63 sites are Python ints and their sign an object
            sign = np.sign(mirrored - states).astype(float)
            entries = index[a[odd]], index[b[odd]], sign[cols[odd]] * values[odd]
            self.parts.append((reps[~own], entries, index[orbit], root_half * sign[:, None]))

    def levels(self, delta: float, window: float) -> tuple[np.ndarray, np.ndarray]:
        """Levels at ``delta`` within ``window`` of their own part's lowest
        (a superset of those within ``window`` of the block's), and the pair
        data of their eigenvectors, the only ones unfolded and reduced."""
        diagonal = 0.5 * delta * self.zz + self.zeeman
        energies, data = [], []
        for reps, entries, orbit, amp in self.parts:
            dec = decompose(_dense(len(reps), entries, diagonal[reps]))
            w = dec.eigenvalues
            top = np.count_nonzero(w - w[0] <= window)
            # the gather copies, so the part's own vectors can go first; the
            # gathered ones go before the next part is decomposed
            x = dec.eigenvectors[orbit, :top]
            del dec
            x *= amp
            energies.append(w[:top])
            data.append(_pair_rows(self.pair_maps, x))
            del x
        return np.concatenate(energies), np.concatenate(data)


def _palindromic(spec: ChainSpec) -> bool:
    """Whether mirror reflection commutes with the chain's H: couplings and
    fields read the same from either end."""
    return spec.couplings == spec.couplings[::-1] and spec.fields == spec.fields[::-1]


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


def _ground_window(spec: ChainSpec, delta: float, ground_fields) -> float:
    """How far above its own part's lowest a level of ``spec`` at ``delta``
    can lie and still be ground at one of the uniform ``ground_fields``.

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
    reach = max(map(abs, ground_fields), default=0.0)
    return 2.0 * _degeneracy_tolerance(_norm_bound(spec, delta, reach))


def _check_scale(spec: ChainSpec, deltas, fields) -> None:
    """Refuse, before any block is built, a sweep at whose largest |delta|
    and |B| ``_norm_bound`` overflows; the bound grows with both."""
    _norm_bound(spec, max(map(abs, deltas)), max(map(abs, fields), default=0.0))


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
    levels (the very same numbers) and flipped pair data.  With palindromic
    couplings and fields the reflection splits each kept block into even
    and odd halves (see ``_Block``); otherwise a block is the identity's
    even half, itself.
    """

    def __init__(self, template: ChainSpec, pair):
        n = template.n_sites
        _check_sector(n, n // 2)
        self.template = template
        self.pair = _pair_sites_checked(n, pair)
        self.flip = not any(template.fields)
        self.blocks = [
            _Block(template, build_sector_basis(n, k), self.pair)
            for k in range(n // 2 + 1 if self.flip else n + 1)
        ]

    def spectrum(self, delta: float, ground_fields=None) -> "_SectorSpectrum":
        """The spectrum at ``delta``.  Given ``ground_fields``, the fields of
        a T = 0 call, each part keeps only the levels that can be ground at
        one of them (``_ground_window``)."""
        n = self.template.n_sites
        window = inf
        if ground_fields is not None:
            window = _ground_window(self.template, delta, ground_fields)
        energies, data = map(list, zip(*(block.levels(delta, window) for block in self.blocks)))
        if self.flip:
            for k in range(n // 2 + 1, n + 1):
                energies.append(energies[n - k])
                data.append(data[n - k][:, _FLIPPED_COLUMNS])
        return _SectorSpectrum(n, self.pair, range(n + 1), energies, data)


class _SectorSpectrum:
    """Levels of S^z blocks of one chain, each with the pair data of its
    eigenvector for one site pair (see ``pair_xstate_data``).

    ``sectors`` lists the n_up of each block, ``energies`` and ``data``
    its levels and their pair-data rows, in ascending sector order.
    ``field_rows`` adds a uniform field as the shift B (2k - N) of the k-up
    block, so one instance serves every field at fixed delta.
    """

    def __init__(self, n_sites: int, pair, sectors, energies, data):
        self.pair = pair
        self.energies = np.concatenate(energies)
        self.pair_data = np.concatenate(data)
        self.sector = np.repeat(np.asarray(sectors), [len(e) for e in energies])
        self.shift = 2.0 * self.sector - n_sites

    def field_rows(
        self, fields, temperature: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Ground energy, ground sector, ground degeneracy and pair
        concurrence at each uniform field of ``fields``, as four arrays.

        The ground space at B is every level of ``energies + B shift``
        within DEGENERACY_RTOL of the lowest, whatever its sector; a tie
        across sectors is labelled by its smallest sector, by rule.  The pair
        state is the equal mixture over the ground space at T = 0 (the
        T -> 0+ limit), summed level by level in order, so levels that are
        not ground change no bit of it; and the Boltzmann mixture over every
        level at T > 0, with weights shifted by the ground energy so that
        large gaps underflow instead of overflowing.  Every reduction runs
        along the level axis of one field, so a field's row is the same bits
        whichever fields share the call.
        """
        fields = np.asarray(fields, dtype=float)
        m = len(fields)
        e0, concurrence = np.empty(m), np.empty(m)
        n_up, degeneracy = np.empty(m, dtype=int), np.empty(m, dtype=int)
        columns = np.ascontiguousarray(self.pair_data.T)
        step = max(1, _CHUNK_ENTRIES // len(self.energies))
        for start in range(0, m, step):
            rows = slice(start, start + step)
            e = self.energies + fields[rows, None] * self.shift
            lowest = e.min(axis=1)
            ground = e <= (lowest + _degeneracy_tolerance(lowest))[:, None]
            e0[rows] = lowest
            # levels are stored by ascending sector, so the first ground
            # level has the smallest ground sector
            n_up[rows] = self.sector[ground.argmax(axis=1)]
            count = np.count_nonzero(ground, axis=1)
            degeneracy[rows] = count
            if temperature > 0:
                # a gap over a tiny T overflows to inf; exp(-inf) = 0 is its exact T -> 0 weight
                with np.errstate(over="ignore"):
                    weights = np.exp(-(e - lowest[:, None]) / temperature)
                weights /= weights.sum(axis=1, keepdims=True)
                data = np.stack([(weights * column).sum(axis=1) for column in columns], axis=1)
            else:
                total = np.cumsum(ground[:, :, None] * self.pair_data, axis=1)[:, -1]
                data = total / count[:, None]
            concurrence[rows] = xstate_concurrences(data)
        return e0, n_up, degeneracy, concurrence


def _phase_points(spectrum: _SectorSpectrum, delta: float, fields):
    """The phase-scan nodes of one delta at every field of ``fields``."""
    for field, e0, n_up, degeneracy, c in zip(fields, *spectrum.field_rows(fields)):
        yield PhasePoint(
            delta=float(delta),
            field=float(field),
            n_up=int(n_up),
            # the ground level is the global minimum, so nothing in its own
            # sector lies below it
            sector_rank=0,
            ground_energy=float(e0),
            degeneracy=int(degeneracy),
            boundary_concurrence=float(c),
        )


def phase_scan(template: ChainSpec, deltas, fields):
    """Classify the ground state over the grid of the sequences ``deltas``
    and ``fields``, each field B a uniform field added to the template's
    own site fields.

    The label records the magnetization sector of the ground level (the
    smallest one when levels of several sectors tie) plus its rank within
    that sector, which is 0 by construction.  The grid (``check_grid``) and
    the caps are checked eagerly, before any node is computed.  The result
    streams one delta at a time: its whole field axis is evaluated when its
    first node is read.
    """
    deltas, fields = check_grid(deltas, fields)
    _check_scale(template, deltas, fields)
    plan = _BlockPlan(template, (1, template.n_sites))
    return (
        point
        for delta in deltas
        for point in _phase_points(plan.spectrum(delta, fields), delta, fields)
    )


def classify_ground_state(spec: ChainSpec) -> PhasePoint:
    """One phase-scan node: the field on site 1 is the node's uniform B on
    top of the remaining profile (all zero for a uniform field), so a
    uniform spec reproduces its phase_scan row bit for bit."""
    field = spec.fields[0]
    rest = replace(spec, fields=tuple(b - field for b in spec.fields))
    (point,) = phase_scan(rest, (spec.delta,), (field,))
    return point


def sector_boundary_concurrence(spec: ChainSpec, n_up: int) -> float:
    """Concurrence between the end sites of the ground state of the
    ``n_up`` sector: one ``_Block`` of the sweeps (mirror halves for a
    palindromic spec, such as every impurity chain) read at zero field by
    ``field_rows`` within the spec's own ground window, so a degenerate
    sector ground space is the sweeps' equal mixture."""
    n = spec.n_sites
    n_up = _check_sector(n, n_up)
    pair = (1, n)
    window = _ground_window(spec, spec.delta, (0.0,))
    block = _Block(spec, build_sector_basis(n, n_up), pair)
    energies, data = block.levels(spec.delta, window)
    *_, (value,) = _SectorSpectrum(n, pair, [n_up], [energies], [data]).field_rows((0.0,))
    return float(value)


def concurrence_curve(template: ChainSpec, pair: tuple[int, int], fields, deltas):
    """Rows (delta, field, concurrence) for the site pair over the grid of
    the sequences ``fields`` and ``deltas``, each field a uniform B added to
    the template's own site fields.

    Uses the ground-state density (equal mixture across degeneracies); a
    positive template temperature switches to the thermal state instead.
    The grid, the cap and the pair are checked eagerly; rows stream one
    delta at a time, as in ``phase_scan``.
    """
    fields, deltas = check_grid(fields, deltas)
    temperature = template.temperature
    _check_scale(template, deltas, fields)
    plan = _BlockPlan(template, pair)
    # a T = 0 row reads only the levels that can be ground at its field
    ground_fields = None if temperature > 0 else fields
    return (
        (float(delta), float(field), float(value))
        for delta in deltas
        for field, value in zip(
            fields, plan.spectrum(delta, ground_fields).field_rows(fields, temperature)[-1]
        )
    )


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
    ground energy there.
    """
    _check_scale(spec, (spec.delta,), _regime_fields(spec, spec.delta))
    return _regimes(_BlockPlan(spec, (1, spec.n_sites)), spec.delta)


def _regime_fields(spec: ChainSpec, delta: float) -> tuple[float]:
    """The field up to which a regime walk at ``delta`` reads levels: every
    crossing, a level gap over 2 or more, lies within the zero-field norm
    bound, and every interior field within half a unit past it."""
    return (_norm_bound(spec, delta, 0.0) + 0.5,)


def _regimes(plan: _BlockPlan, delta: float) -> tuple[GroundRegime, ...]:
    """``ground_regimes`` of the plan's template at ``delta``."""
    n = plan.template.n_sites
    spectrum = plan.spectrum(delta, _regime_fields(plan.template, delta))
    lowest = [float(spectrum.energies[spectrum.sector == k].min()) for k in range(n + 1)]
    (e0,), (k,), *_ = spectrum.field_rows((0.0,))
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
    *_, c1n = spectrum.field_rows(interiors)
    return tuple(
        GroundRegime(
            b_min=lo,
            b_max=hi,
            n_up=n_up,
            c14_max=c,
            energy_at_zero_field=float(e0) if lo == 0.0 else None,
        )
        for (lo, hi, n_up), c in zip(regimes, c1n.tolist())
    )


def table1_rows(deltas=(0.0, 0.5, 1.0, 2.0)):
    """Numeric regime table printed beside the quoted reference values:
    ``ground_regimes`` of the uniform 4-site chain, one plan for every delta.

    Columns: delta, regime index, numeric/reference boundaries and maxima,
    two-up zero-field energies, and absolute deltas where both sides exist.
    ``deltas`` is a sequence; every delta must be tabulated
    (closed_forms.TABLE_4SITE), which is checked with the grid before the
    first row is computed.
    """
    (deltas,) = check_grid(deltas)
    references = [closed_forms.c14_ground_regimes(as_float(delta, "delta")) for delta in deltas]
    plan = _BlockPlan(ChainSpec.uniform(4), (1, 4))
    return (
        (float(delta), r, num.n_up, num.b_min, num.b_max, ref.b_min, ref.b_max,
         abs(num.b_min - ref.b_min), abs(num.b_max - ref.b_max) if ref.b_max != inf else 0.0,
         num.c14_max, ref.c14_max, abs(num.c14_max - ref.c14_max),
         *(nan if e is None else e for e in (num.energy_at_zero_field, ref.energy_at_zero_field)))
        for delta, reference in zip(deltas, references)
        for r, (num, ref) in enumerate(zip(_regimes(plan, delta), reference))
    )
