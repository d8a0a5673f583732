"""Parameter sweeps: phase scans, concurrence curves, channel sizing.

Phase scans, concurrence curves and ground regimes run on S^z blocks of
the spec they are given, and read a row at B as the spec's own site fields
plus a uniform B.  The Hamiltonian conserves total S^z, and a uniform B
shifts the k-up block by B (2k - N) without changing its eigenvectors, so
each delta decomposes its N + 1 blocks once and every B reuses them.  Two
more symmetries cut that work.  When every site field is 0 the global spin
flip maps block k onto block N - k, so only the blocks k <= N/2 are
decomposed and the others reuse their levels and flipped pair data.  When
couplings and fields are palindromic, mirror reflection splits each block
into even and odd halves of about half the size.  A spec without a
symmetry decomposes its plain blocks.

Delta enters H only through the Ising diagonal, so a sweep builds what its
deltas share once (``_BlockPlan``): each block's basis, its Zeeman
diagonal and Ising bond sums, the index maps of its pair data, and the
parts it is decomposed in (one plain part, or two mirror halves), each
with its entries as (row, col, value) lists.  A delta then only puts its
diagonal together and decomposes.  At T = 0 a block keeps only the levels
close enough to its own lowest to be ground at some field of the call
(``_BlockPlan.spectrum``); only their eigenvectors are unfolded and reduced
to pair-state entries, and the rest are dropped.

The field axis of a delta is then evaluated in one vectorized pass
(``_SectorSpectrum.field_rows``): the shifted levels, the ground space and
the mixed pair data of a chunk of fields at once, and their concurrences
through the batched X-state kernel, which checks every row in closed form.
Rows stay pure functions of (template, delta, B): every reduction runs
along one field's levels, and a level outside the ground space changes no
bit of a T = 0 row, so a single-point call reproduces its grid row bit for
bit.

The same shift makes the ground level over B the lower envelope of N + 1
lines, which ``ground_regimes`` walks exactly.  One sector's ground state
(``sector_boundary_concurrence``) runs on one block of the same kind.
Every block is refused above SECTOR_DIM_CAP states before anything is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, inf, isfinite, nan

import numpy as np

from . import closed_forms
from .chain import ChainSpec, SectorBasis, build_sector_basis, config_number
from .channel import design_channel, ratio_profile
from .closed_forms import GroundRegime, beta_for_target, c1n_channel
from .eigensolver import DEGENERACY_RTOL, _degeneracy_tolerance, decompose
from .entanglement import _pair_maps, _pair_rows, _pair_sites_checked, xstate_concurrences
from .errors import DomainError, ResourceCapError
from .hamiltonian import _dense, _diagonal_terms, _hopping

GRID_POINT_CAP = 10**6
SECTOR_DIM_CAP = 3432  # C(14, 7): the largest S^z block decomposed densely

# Most level x field entries one temporary of ``_SectorSpectrum.field_rows``
# holds; the field axis is walked in chunks of that size, so its memory does
# not grow with the grid.
_CHUNK_ENTRIES = 1 << 12


@dataclass(frozen=True)
class GridAxis:
    """Either an explicit value list or an inclusive (min, max, step) range."""

    values: tuple[float, ...]

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float) -> "GridAxis":
        """The points lo + m step up to hi, refused before any is built."""
        if not all(isfinite(v) for v in (lo, hi, step)):
            raise DomainError(f"grid min, max and step must be finite, got ({lo}, {hi}, {step})")
        if step <= 0:
            raise DomainError(f"grid step must be positive, got {step}")
        if lo > hi:
            raise DomainError(f"grid needs min <= max, got ({lo}, {hi})")
        # a float count: (hi - lo) / step may overflow to inf
        count = np.floor((hi - lo) / step + 1e-9) + 1
        if count > GRID_POINT_CAP:
            raise ResourceCapError(f"grid axis with {count:.0f} points exceeds the cap")
        return cls(values=tuple(lo + step * m for m in range(int(count))))

    @classmethod
    def from_config(cls, obj) -> "GridAxis":
        if isinstance(obj, dict) and "values" not in obj:
            try:
                bounds = [
                    config_number(float, obj[key], f"grid {key}") for key in ("min", "max", "step")
                ]
            except KeyError as exc:
                raise DomainError(f"grid axis needs min/max/step or values: {exc}") from exc
            return cls.from_range(*bounds)
        values = obj["values"] if isinstance(obj, dict) else obj
        if not isinstance(values, (list, tuple)):
            raise DomainError(f"cannot interpret grid axis: {obj!r}")
        return cls(values=tuple(config_number(float, v, "grid values") for v in values))

    def __post_init__(self):
        if not self.values:
            raise DomainError("empty grid axis")
        if not all(isfinite(v) for v in self.values):
            raise DomainError("grid axis values must be finite")
        if len(self.values) > GRID_POINT_CAP:
            raise ResourceCapError(
                f"grid axis with {len(self.values)} points exceeds the cap"
            )


def check_grid_size(*axes: GridAxis) -> int:
    total = 1
    for axis in axes:
        total *= len(axis.values)
    if total > GRID_POINT_CAP:
        raise ResourceCapError(f"grid of {total} points exceeds the cap of {GRID_POINT_CAP}")
    return total


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

    A part is (representatives, entries, correction, orbit, amp).  Its matrix
    at a delta has the off-diagonal entries and, at the representatives, the
    block diagonal 0.5 delta zz + Zeeman (the expression ``build_sector``
    evaluates) plus the correction; amp * x[orbit] maps its eigenvector x to
    sector amplitudes, O(d) per vector.  A plain block is one identity part.
    A palindromic block is its even and odd halves under the reflection R
    (bit reversal): representatives r <= R(r), m the index of R(r), span
    them through c (|r> +/- |m>), c = f / sqrt(2), f = 1/sqrt(2) for a
    self-mirror state and 1 otherwise, so H+/- = (H[r, r'] +/- H[r, m']) f f'
    plus +/- H[r, m] on the diagonal, from the representatives' hopping
    entries alone.  The odd half has no self-mirror states.
    """

    def __init__(self, spec: ChainSpec, basis: SectorBasis, pair):
        states = basis.state_array()
        size = len(states)
        self.zz, self.zeeman = _diagonal_terms(spec, states)
        self.pair_maps = _pair_maps(basis, *pair)
        entries = _hopping(spec, states)
        if not _palindromic(spec):
            identity = np.arange(size)
            self.parts = [(identity, entries, 0.0, identity, 1.0)]
            return

        n = basis.n_sites
        mirrored = np.zeros_like(states)
        for s in range(n):
            mirrored |= ((states >> s) & 1) << (n - 1 - s)
        reps = np.flatnonzero(states <= mirrored)
        partners = np.searchsorted(states, mirrored[reps])
        own = partners == reps
        half = len(reps)
        orbit = np.empty(size, dtype=np.int64)
        orbit[partners] = orbit[reps] = np.arange(half)

        # hopping out of the representatives: H[r_a, j] joins half rows a
        # and b = orbit(j), as H[r, r'] when j = r_b and as H[r, m'] when
        # j = m_b (both for a self-mirror b)
        rows, cols, values = entries
        out = np.zeros(size, dtype=bool)
        out[reps] = True
        rows, cols, values = rows[out[rows]], cols[out[rows]], values[out[rows]]
        a, b = orbit[rows], orbit[cols]
        # H[r, m] of a state's own orbit (j = m_a), which sits on the diagonal
        mate = np.zeros(half)
        on = a == b
        mate[a[on]] = values[on]
        a, b, cols, values = a[~on], b[~on], cols[~on], values[~on]
        keys, slot = np.unique(a * half + b, return_inverse=True)
        direct, image = np.zeros(len(keys)), np.zeros(len(keys))
        is_r, is_m = cols == reps[b], cols == partners[b]
        direct[slot[is_r]] = values[is_r]
        image[slot[is_m]] = values[is_m]
        a, b = keys // half, keys % half

        f = np.where(own, np.sqrt(0.5), 1.0)
        ff = np.where(own[a] & own[b], 0.5, f[a] * f[b])  # 0.5 exactly; sqrt(0.5)**2 is not
        # c = 1/sqrt(2) rounded down: 2 c^2 <= 1 in floating point, so the
        # map never scales a squared amplitude up (a singlet's concurrence
        # stays <= 1); a self-mirror state is |r> itself in the even half
        root_half = np.nextafter(np.sqrt(0.5), 0.0)
        amp = np.where(own[orbit], 1.0, root_half)[:, None]
        self.parts = [(reps, (a, b, (direct + image) * ff), mate, orbit, amp)]
        if not own.all():
            odd = ~own[a] & ~own[b]
            index = np.cumsum(~own) - 1
            # sign +1 at r, -1 at m and 0 at a self-mirror state (whose
            # index[orbit] is any entry, times 0); cast, because labels of
            # more than 63 sites are Python ints and their sign an object
            amp = root_half * np.sign(mirrored - states).astype(float)[:, None]
            entries = index[a[odd]], index[b[odd]], direct[odd] - image[odd]
            self.parts.append((reps[~own], entries, -mate[~own], index[orbit], amp))

    def levels(self, delta: float, window: float) -> tuple[np.ndarray, np.ndarray]:
        """Levels at ``delta`` within ``window`` of the block's lowest, and the
        pair data of their eigenvectors.  Only those eigenvectors are
        unfolded and reduced."""
        diagonal = 0.5 * delta * self.zz + self.zeeman
        kept = []
        for reps, entries, correction, orbit, amp in self.parts:
            dec = decompose(_dense(len(reps), entries, diagonal[reps] + correction))
            w = dec.eigenvalues
            # each part's own lowest lies at or above the block's, so this
            # keeps a superset; the copy lets the full eigenvectors go
            top = np.count_nonzero(w - w[0] <= window)
            kept.append((w[:top], np.ascontiguousarray(dec.eigenvectors[:, :top]), orbit, amp))
            del dec
        lowest = min(part[0][0] for part in kept)
        energies, data = [], []
        while kept:
            w, v, orbit, amp = kept.pop(0)
            top = np.count_nonzero(w - lowest <= window)
            if top:
                # the gather copies, so the part's own vectors can go first
                x = v[orbit, :top]
                del v
                x *= amp
                energies.append(w[:top])
                data.append(_pair_rows(self.pair_maps, x))
        return np.concatenate(energies), np.concatenate(data)


def _palindromic(spec: ChainSpec) -> bool:
    """Whether mirror reflection commutes with the chain's H: couplings and
    fields read the same from either end."""
    return spec.couplings == spec.couplings[::-1] and spec.fields == spec.fields[::-1]


def _ground_window(spec: ChainSpec, delta: float, ground_fields) -> float:
    """How far above its own block's lowest a level of ``spec`` at ``delta``
    can lie and still be ground at one of the uniform ``ground_fields``.

    At a uniform field B the ground test keeps the levels within
    DEGENERACY_RTOL (1 + |E0(B)|) of the lowest, E0(B), and
    E0(B) <= min_k + B (2k - N) for the lowest level min_k of each block k.
    A level more than that window above its own block's lowest can never be
    ground.  |E0(B)| is at most the operator norm, bounded by
    sum |J| + |delta| (N - 1) / 2 + sum |B_i| + N |B|; twice the window of
    that bound leaves a wide margin for the rounding of the shifted levels.
    A pruned level only ever added exact zeros to a row, so the rows are
    those of every level kept, bit for bit.
    """
    bound = (
        sum(map(abs, spec.couplings))
        + 0.5 * abs(delta) * (spec.n_sites - 1)
        + sum(map(abs, spec.fields))
        + spec.n_sites * max(map(abs, ground_fields), default=0.0)
    )
    return 2.0 * DEGENERACY_RTOL * (1.0 + bound)


def _check_sector(n_sites: int, n_up: int) -> None:
    """Refuse, before anything is allocated, an ``n_up`` outside 0..N and a
    block of more than SECTOR_DIM_CAP states.  A sweep decomposes every
    block, so it checks the largest, k = N // 2."""
    if not 0 <= n_up <= n_sites:
        raise DomainError(f"n_up must lie in [0, {n_sites}], got {n_up}")
    dim = comb(n_sites, n_up)
    if dim > SECTOR_DIM_CAP:
        raise ResourceCapError(f"sector dimension {dim} exceeds the cap of {SECTOR_DIM_CAP}")


class _BlockPlan:
    """Everything the deltas of one sweep share: the S^z blocks of the
    template (any delta) and one site pair, built once.

    With every field exactly 0 the global spin flip maps block k onto block
    N - k, so only blocks k <= N/2 are kept and block N - k reuses their
    levels (the very same numbers) and flipped pair data.  With palindromic
    couplings and fields the reflection splits each kept block into even
    and odd halves (see ``_Block``).  Without a symmetry the plain block is
    decomposed.
    """

    def __init__(self, template: ChainSpec, pair):
        n = template.n_sites
        self.template = template
        self.pair = _pair_sites_checked(n, *pair)
        self.flip = not any(template.fields)
        self.blocks = [
            _Block(template, build_sector_basis(n, k), self.pair)
            for k in range(n // 2 + 1 if self.flip else n + 1)
        ]

    def spectrum(self, delta: float, ground_fields=None) -> "_SectorSpectrum":
        """The spectrum at ``delta``.  Given ``ground_fields``, the fields of
        a T = 0 call, each block keeps only the levels that can be ground at
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
                weights = np.exp(-(e - lowest[:, None]) / temperature)
                weights /= weights.sum(axis=1, keepdims=True)
                data = np.stack([(weights * column).sum(axis=1) for column in columns], axis=1)
            else:
                total = np.cumsum(ground[:, :, None] * self.pair_data, axis=1)[:, -1]
                data = total / count[:, None]
            concurrence[rows] = xstate_concurrences(data)
        return e0, n_up, degeneracy, concurrence


def _spectra(template: ChainSpec, pair, deltas, ground_fields=None):
    """(delta, ``_BlockPlan.spectrum`` at delta) for each of ``deltas``, on
    one plan of ``template`` built when the first is read.  The cap and the
    pair are checked before this returns."""
    n = template.n_sites
    _check_sector(n, n // 2)
    pair = _pair_sites_checked(n, *pair)

    def spectra():
        plan = _BlockPlan(template, pair)
        for delta in deltas:
            yield delta, plan.spectrum(delta, ground_fields)

    return spectra()


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


def phase_scan(template: ChainSpec, delta_axis: GridAxis, field_axis: GridAxis):
    """Classify the ground state over a (delta, B) grid, B a uniform field
    added to the template's own site fields.

    The label records the magnetization sector of the ground level (the
    smallest one when levels of several sectors tie) plus its rank within
    that sector, which is 0 by construction.  Caps are checked eagerly,
    before any node is computed.  The result streams one delta at a time:
    its whole field axis is evaluated when its first node is read.
    """
    fields = field_axis.values
    spectra = _spectra(template, (1, template.n_sites), delta_axis.values, fields)
    check_grid_size(delta_axis, field_axis)
    return (
        point for delta, spectrum in spectra for point in _phase_points(spectrum, delta, fields)
    )


def classify_ground_state(spec: ChainSpec) -> PhasePoint:
    """One phase-scan node: the field on site 1 is the node's uniform B on
    top of the remaining profile (all zero for a uniform field), so a
    uniform spec reproduces its phase_scan row bit for bit."""
    field = spec.fields[0]
    rest = replace(spec, fields=tuple(b - field for b in spec.fields))
    (point,) = phase_scan(rest, GridAxis(values=(spec.delta,)), GridAxis(values=(field,)))
    return point


def sector_boundary_concurrence(spec: ChainSpec, n_up: int) -> float:
    """Concurrence between the end sites of the ground state of the
    ``n_up`` sector: one ``_Block`` of the sweeps (mirror halves for a
    palindromic spec, such as every impurity chain) read at zero field by
    ``field_rows`` within the spec's own ground window, so a degenerate
    sector ground space is the sweeps' equal mixture."""
    n = spec.n_sites
    _check_sector(n, n_up)
    pair = (1, n)
    block = _Block(spec, build_sector_basis(n, n_up), pair)
    energies, data = block.levels(spec.delta, _ground_window(spec, spec.delta, (0.0,)))
    *_, (value,) = _SectorSpectrum(n, pair, [n_up], [energies], [data]).field_rows((0.0,))
    return float(value)


def concurrence_curve(
    template: ChainSpec,
    pair: tuple[int, int],
    field_axis: GridAxis,
    delta_values: tuple[float, ...],
):
    """Rows (delta, field, concurrence) for the site pair over the grid, the
    field a uniform B added to the template's own site fields.

    Uses the ground-state density (equal mixture across degeneracies); a
    positive template temperature switches to the thermal state instead.
    The cap and the pair are checked eagerly; rows stream one delta at a
    time, as in ``phase_scan``.
    """
    fields, temperature = field_axis.values, template.temperature
    # a T = 0 row reads only the levels that can be ground at its field
    spectra = _spectra(template, pair, delta_values, None if temperature > 0 else fields)
    check_grid_size(field_axis, GridAxis(values=tuple(delta_values) or (0.0,)))
    return (
        (float(delta), float(field), float(value))
        for delta, spectrum in spectra
        for field, value in zip(fields, spectrum.field_rows(fields, temperature)[-1])
    )


def channel_curve(
    n_values: tuple[int, ...], beta_axis: GridAxis, coupling: float = 1.0
):
    """Rows (N, beta, numeric C1N, profile-formula C1N, max ratio deviation)."""
    odd = [n for n in n_values if n % 2 or n < 4]
    if odd:
        raise DomainError(f"channel curve needs even N >= 4, got {odd}")
    check_grid_size(beta_axis)

    def rows():
        for n in n_values:
            k = n // 2
            for beta in beta_axis.values:
                design = design_channel(n, coupling, beta * coupling / 2.0)
                numeric = design.boundary_concurrence
                closed = c1n_channel(beta, k) if beta > 1.0 else float("nan")
                ratios = np.asarray(ratio_profile(design))
                if beta > 0:
                    deviation = float(np.max(np.abs(ratios - beta) / beta))
                else:
                    deviation = float("inf")
                yield (n, float(beta), numeric, closed, deviation)

    return rows()


def design_report(
    n_sites: int, target: float, coupling: float = 1.0, beta_cap: float = closed_forms.BETA_CAP
) -> dict:
    """Size the bulk field that reaches a target boundary concurrence.

    Forward-verified: the reported beta satisfies
    design_channel(N, J, beta J / 2).boundary_concurrence >= target, found
    by bisection on the exact folded computation (the profile formula only
    serves as a warm start; it is optimistic at small N).
    """
    if n_sites < 4 or n_sites % 2:
        raise DomainError(f"design needs an even chain with >= 4 sites, got {n_sites}")
    if not 0.0 < target < 1.0:
        raise DomainError(f"target must lie in (0, 1), got {target}")
    k = n_sites // 2

    def achieved(beta: float) -> float:
        return design_channel(n_sites, coupling, beta * coupling / 2.0).boundary_concurrence

    def report(status: str, beta: float) -> dict:
        return {
            "n_sites": n_sites,
            "target": target,
            "status": status,
            "beta": beta,
            "bulk_field": beta * coupling / 2.0,
            "achieved": achieved(beta),
        }

    if achieved(0.0) >= target:
        return report("already-achieved-at-zero-field", 0.0)
    try:
        hi = max(beta_for_target(target, k), 2.0)
    except DomainError:
        hi = 2.0
    while achieved(hi) < target:
        hi *= 2.0
        if hi > beta_cap:
            return report("unreachable-below-beta-cap", beta_cap)
    lo = 0.0
    while hi - lo > 1e-10 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if achieved(mid) >= target:
            hi = mid
        else:
            lo = mid
    return report("ok", hi)


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
    ((_, spectrum),) = _spectra(spec, (1, spec.n_sites), (spec.delta,))
    return _regimes(spectrum, spec.n_sites)


def _regimes(spectrum: _SectorSpectrum, n_sites: int) -> tuple[GroundRegime, ...]:
    """``ground_regimes`` read off a spectrum that keeps every level."""
    lowest = [float(spectrum.energies[spectrum.sector == k].min()) for k in range(n_sites + 1)]
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


def table1_rows(delta_values: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)):
    """Numeric regime table printed beside the quoted reference values:
    ``ground_regimes`` of the uniform 4-site chain, one plan for every delta.

    Columns: delta, regime index, numeric/reference boundaries and maxima,
    two-up zero-field energies, and absolute deltas where both sides exist.
    Every delta must be tabulated (closed_forms.TABLE_4SITE); that is
    checked before the first row is computed.
    """
    references = [closed_forms.c14_ground_regimes(delta) for delta in delta_values]
    spectra = _spectra(ChainSpec.uniform(4), (1, 4), delta_values)
    return (
        (float(delta), r, num.n_up, num.b_min, num.b_max, ref.b_min, ref.b_max,
         abs(num.b_min - ref.b_min), abs(num.b_max - ref.b_max) if ref.b_max != inf else 0.0,
         num.c14_max, ref.c14_max, abs(num.c14_max - ref.c14_max),
         *(nan if e is None else e for e in (num.energy_at_zero_field, ref.energy_at_zero_field)))
        for (delta, spectrum), reference in zip(spectra, references)
        for r, (num, ref) in enumerate(zip(_regimes(spectrum, 4), reference))
    )
