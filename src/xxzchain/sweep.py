"""Parameter sweeps: phase scans, concurrence curves, channel sizing.

Phase scans and concurrence curves run on S^z blocks.  The Hamiltonian
conserves total S^z, and a uniform field B shifts the k-up block by
B (2k - N) without changing its eigenvectors, so each delta decomposes its
N + 1 zero-field blocks once and every B reuses them.  Two more symmetries
cut that work.  At zero field the global spin flip maps block k onto block
N - k, so only the blocks k <= N/2 are decomposed and the others reuse their
levels and flipped pair data; this holds for every sweep.  When couplings and
fields are palindromic, mirror reflection splits each block into even and
odd halves of about half the size.  A spec without a symmetry decomposes its
plain blocks.  Eigenvectors are reduced to their pair-state entries right
away and dropped.  Rows stay pure functions of (template, delta, B): a
single-point call rebuilds the same blocks and reproduces its grid row bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf, isfinite

import numpy as np

from . import closed_forms
from .chain import FULL_SPACE_CAP, ChainSpec, SectorBasis, build_sector_basis, config_number
from .channel import design_channel, ratio_profile
from .closed_forms import GroundRegime, beta_for_target, c1n_channel
from .eigensolver import DEGENERACY_RTOL, decompose
from .entanglement import (
    TwoQubitDensityMatrix,
    pair_xstate_data,
    xstate_concurrence,
    xstate_pair,
)
from .errors import DomainError, ResourceCapError
from .hamiltonian import build_sector

GRID_POINT_CAP = 10**6


@dataclass(frozen=True)
class GridAxis:
    """Either an explicit value list or an inclusive (min, max, step) range."""

    values: tuple[float, ...]

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float) -> "GridAxis":
        if step <= 0:
            raise DomainError(f"grid step must be positive, got {step}")
        if lo > hi:
            raise DomainError(f"grid needs min <= max, got ({lo}, {hi})")
        count = int(np.floor((hi - lo) / step + 1e-9)) + 1
        return cls(values=tuple(lo + step * m for m in range(count)))

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


def check_grid_size(*axes: GridAxis, cap: int = GRID_POINT_CAP) -> int:
    total = 1
    for axis in axes:
        total *= len(axis.values)
    if total > cap:
        raise ResourceCapError(f"grid of {total} points exceeds the cap of {cap}")
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


def _mirror_block(
    basis: SectorBasis, h: np.ndarray, pair: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Levels and pair data (see ``pair_xstate_data``) of a mirror-symmetric
    block, from the even and odd halves of the reflection R (bit reversal).

    Representatives r <= R(r), with m the index of R(r), span the halves
    through c (|r> +/- |m>), c = f / sqrt(2), f = 1/sqrt(2) for a self-mirror
    state and 1 otherwise; so H+/- = (H[r, r'] +/- H[r, m']) f f'.  The odd
    half has no self-mirror states.  Eigenvectors come back to sector
    amplitudes by v[r] += c x, v[m] +/-= c x, O(d) per vector.
    """
    n = basis.n_sites
    states = basis.state_array()
    mirrored = np.zeros_like(states)
    for s in range(n):
        mirrored |= ((states >> s) & 1) << (n - 1 - s)
    reps = np.flatnonzero(states <= mirrored)
    partners = np.searchsorted(states, mirrored[reps])
    own = partners == reps
    f = np.where(own, np.sqrt(0.5), 1.0)
    ff = np.outer(f, f)
    ff[np.ix_(own, own)] = 0.5  # exactly; sqrt(0.5)**2 is not
    even = (h[np.ix_(reps, reps)] + h[np.ix_(reps, partners)]) * ff
    odd_r, odd_m = reps[~own], partners[~own]
    odd = h[np.ix_(odd_r, odd_r)] - h[np.ix_(odd_r, odd_m)]
    del h, ff  # the caller passes the block itself, so this frees it
    # c = 1/sqrt(2) rounded down: 2 c^2 <= 1 in floating point, so the map
    # never scales a squared amplitude up (a singlet's concurrence stays <= 1)
    root_half = np.nextafter(np.sqrt(0.5), 0.0)

    def unfold(matrix, rows, images, c, sign):
        dec = decompose(matrix)
        x = c * dec.eigenvectors
        vectors = np.zeros((len(basis), dec.order))
        vectors[rows] = x
        vectors[images] += sign * x
        return dec.eigenvalues, pair_xstate_data(basis, vectors, *pair)

    halves = [unfold(even, reps, partners, np.where(own, 0.5, root_half)[:, None], 1.0)]
    if len(odd_r):
        halves.append(unfold(odd, odd_r, odd_m, root_half, -1.0))
    return np.concatenate([w for w, _ in halves]), np.concatenate([d for _, d in halves])


class _SectorSpectrum:
    """Levels of every S^z block of one chain, each with the pair data of
    its eigenvector for one site pair (see ``pair_xstate_data``).

    ``levels`` adds a uniform field as the shift B (2k - N) of the k-up
    block, so one instance serves every field at fixed delta.

    Two symmetries cut the decompositions.  With every field exactly 0 the
    global spin flip maps block k onto block N - k, so only blocks
    k <= N/2 are decomposed and block N - k reuses their levels (the very
    same numbers) and flipped pair data.  With palindromic couplings and
    fields the reflection splits each decomposed block into even and odd
    halves (``_mirror_block``).  Without a symmetry the plain block is
    decomposed.
    """

    def __init__(self, spec: ChainSpec, pair: tuple[int, int]):
        n = spec.n_sites
        self.pair = (min(pair), max(pair))
        flip = not any(spec.fields)
        mirror = spec.couplings == spec.couplings[::-1] and spec.fields == spec.fields[::-1]
        energies, data = [], []
        for k in range(n // 2 + 1 if flip else n + 1):
            basis = build_sector_basis(n, k)
            if mirror:
                levels, block_data = _mirror_block(basis, build_sector(spec, basis), pair)
            else:
                dec = decompose(build_sector(spec, basis))
                levels = dec.eigenvalues
                block_data = pair_xstate_data(basis, dec.eigenvectors, *pair)
            energies.append(levels)
            data.append(block_data)
        if flip:
            for k in range(n // 2 + 1, n + 1):
                energies.append(energies[n - k])
                data.append(data[n - k][:, _FLIPPED_COLUMNS])
        self.energies = np.concatenate(energies)
        self.pair_data = np.concatenate(data)
        self.sector = np.repeat(np.arange(n + 1), [len(e) for e in energies])
        self.shift = 2.0 * self.sector - n

    def levels(self, field: float) -> tuple[np.ndarray, float, np.ndarray]:
        """Energies at ``field``, the ground energy, and the ground space:
        every level within DEGENERACY_RTOL of it, whatever its sector."""
        e = self.energies + field * self.shift
        e0 = float(e.min())
        return e, e0, np.flatnonzero(e <= e0 + DEGENERACY_RTOL * (1.0 + abs(e0)))

    def pair_state(
        self, e: np.ndarray, e0: float, ground: np.ndarray, temperature: float
    ) -> TwoQubitDensityMatrix:
        """Equal mixture over the ground space at T = 0 (the T -> 0+ limit),
        Boltzmann mixture over every level at T > 0; weights are shifted by
        the ground energy so large gaps underflow instead of overflowing."""
        if temperature > 0:
            weights = np.exp(-(e - e0) / temperature)
            data = (weights / weights.sum()) @ self.pair_data
        else:
            data = self.pair_data[ground].mean(axis=0)
        return xstate_pair(self.pair, data)


def _check_sites(n_sites: int, what: str) -> None:
    if n_sites > FULL_SPACE_CAP:
        raise ResourceCapError(f"{what} needs n_sites <= {FULL_SPACE_CAP}, got {n_sites}")


def _phase_point(spectrum: _SectorSpectrum, delta: float, field: float) -> PhasePoint:
    e, e0, ground = spectrum.levels(field)
    # a tie across sectors is labelled by its smallest sector, by rule
    n_up = int(spectrum.sector[ground].min())
    rho = spectrum.pair_state(e, e0, ground, 0.0)
    return PhasePoint(
        delta=float(delta),
        field=float(field),
        n_up=n_up,
        # the ground level is the global minimum e0, so nothing in its own
        # sector lies below it
        sector_rank=0,
        ground_energy=e0,
        degeneracy=len(ground),
        boundary_concurrence=xstate_concurrence(rho),
    )


def phase_scan(template: ChainSpec, delta_axis: GridAxis, field_axis: GridAxis):
    """Classify the ground state over a (delta, B) grid.

    The label records the magnetization sector of the ground level (the
    smallest one when levels of several sectors tie) plus its rank within
    that sector, which is 0 by construction.  Caps are checked eagerly, before any node is computed;
    the result streams lazily.
    """
    n = template.n_sites
    _check_sites(n, "phase scan")
    check_grid_size(delta_axis, field_axis)

    def nodes():
        for delta in delta_axis.values:
            zero_field = replace(template, delta=delta, fields=(0.0,) * n)
            spectrum = _SectorSpectrum(zero_field, (1, n))
            for field in field_axis.values:
                yield _phase_point(spectrum, delta, field)

    return nodes()


def classify_ground_state(spec: ChainSpec) -> PhasePoint:
    """One phase-scan node.  The field on site 1 is applied as a uniform
    shift of the blocks of the remaining field profile (all zero for a
    uniform field), so a uniform spec reproduces its phase_scan row bit for
    bit."""
    _check_sites(spec.n_sites, "ground-state classification")
    field = spec.fields[0]
    rest = replace(spec, fields=tuple(b - field for b in spec.fields))
    return _phase_point(_SectorSpectrum(rest, (1, spec.n_sites)), spec.delta, field)


def concurrence_curve(
    template: ChainSpec,
    pair: tuple[int, int],
    field_axis: GridAxis,
    delta_values: tuple[float, ...],
):
    """Rows (delta, field, concurrence) for the site pair over the grid.

    Uses the ground-state density (equal mixture across degeneracies); a
    positive template temperature switches to the thermal state instead.
    """
    n = template.n_sites
    _check_sites(n, "curve")
    check_grid_size(field_axis, GridAxis(values=tuple(delta_values) or (0.0,)))

    def rows():
        for delta in delta_values:
            zero_field = replace(template, delta=delta, fields=(0.0,) * n)
            spectrum = _SectorSpectrum(zero_field, pair)
            for field in field_axis.values:
                e, e0, ground = spectrum.levels(field)
                rho = spectrum.pair_state(e, e0, ground, template.temperature)
                yield (float(delta), float(field), xstate_concurrence(rho))

    return rows()


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

    at_zero = achieved(0.0)
    if at_zero >= target:
        return {
            "n_sites": n_sites,
            "target": target,
            "status": "already-achieved-at-zero-field",
            "beta": 0.0,
            "bulk_field": 0.0,
            "achieved": at_zero,
        }
    try:
        hi = max(beta_for_target(target, k), 2.0)
    except DomainError:
        hi = 2.0
    while achieved(hi) < target:
        hi *= 2.0
        if hi > beta_cap:
            return {
                "n_sites": n_sites,
                "target": target,
                "status": "unreachable-below-beta-cap",
                "beta": beta_cap,
                "bulk_field": beta_cap * coupling / 2.0,
                "achieved": achieved(beta_cap),
            }
    lo = 0.0
    while hi - lo > 1e-10 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if achieved(mid) >= target:
            hi = mid
        else:
            lo = mid
    return {
        "n_sites": n_sites,
        "target": target,
        "status": "ok",
        "beta": hi,
        "bulk_field": hi * coupling / 2.0,
        "achieved": achieved(hi),
    }


def numeric_c14_regimes(delta: float, coupling: float = 1.0) -> tuple[GroundRegime, ...]:
    """Numeric version of the 4-site ground-state regime table.

    A uniform field B shifts the k-up block by B (2k - 4), so the ground
    levels of the k_low- and k_high-up sectors cross exactly at
    (E_klow(0) - E_khigh(0)) / (2 (k_high - k_low)), or at B = 0 if k_low
    already wins there.  The concurrence of a regime is read at one
    interior field: it is constant inside a regime, since the field does
    not change sector eigenvectors.
    """
    spec0 = ChainSpec.uniform(4, coupling=coupling, field=0.0, delta=delta)
    spectrum = _SectorSpectrum(spec0, (1, 4))
    lowest = [float(spectrum.energies[spectrum.sector == k].min()) for k in range(5)]

    def crossing(k_low: int, k_high: int) -> float:
        return max(0.0, (lowest[k_low] - lowest[k_high]) / (2.0 * (k_high - k_low)))

    b1, b2 = crossing(1, 2), crossing(0, 1)
    rows = []
    for lo, hi, n_up in ((0.0, b1, 2), (b1, b2, 1), (b2, inf, 0)):
        if hi <= lo:
            continue
        interior = lo + 0.5 if hi == inf else 0.5 * (lo + hi)
        rows.append(
            GroundRegime(
                b_min=lo,
                b_max=hi,
                n_up=n_up,
                c14_max=_phase_point(spectrum, delta, interior).boundary_concurrence,
                energy_at_zero_field=lowest[2] if n_up == 2 else None,
            )
        )
    return tuple(rows)


def table1_rows(delta_values: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)):
    """Numeric regime table printed beside the quoted reference values.

    Columns: delta, regime index, numeric/reference boundaries and maxima,
    two-up zero-field energies, and absolute deltas where both sides exist.
    Every delta must be tabulated (closed_forms.TABLE_4SITE); that is
    checked before the first row is computed.
    """
    references = [closed_forms.c14_ground_regimes(delta) for delta in delta_values]

    def rows():
        for delta, reference in zip(delta_values, references):
            numeric = numeric_c14_regimes(delta)
            for r, (num, ref) in enumerate(zip(numeric, reference)):
                yield (
                    float(delta),
                    r,
                    num.n_up,
                    num.b_min,
                    num.b_max,
                    ref.b_min,
                    ref.b_max,
                    abs(num.b_min - ref.b_min),
                    (abs(num.b_max - ref.b_max) if ref.b_max != inf else 0.0),
                    num.c14_max,
                    ref.c14_max,
                    abs(num.c14_max - ref.c14_max),
                    (num.energy_at_zero_field if num.energy_at_zero_field is not None else float("nan")),
                    (ref.energy_at_zero_field if ref.energy_at_zero_field is not None else float("nan")),
                )

    return rows()
