"""Per-row oracles for the benchmark workloads.

Each oracle recomputes a row by a route that shares no timed code with the
CLI path it checks:

* phase-scan and curve rows are recomputed from the eigenpairs of every
  magnetization sector (``build_sector_basis`` + ``build_sector`` + numpy
  ``eigh``), not from the dense 2^N matrix the CLI diagonalizes.  A uniform
  field B shifts sector k by B (2k - N), so each delta needs one set of
  sector decompositions.  Pair states are reduced per sector vector through
  ``reduce_pair`` and the concurrence is taken from the X-state formula,
  which is exact for these U(1)-symmetric states, instead of the Wootters
  spectral kernel the CLI uses (see CONCURRENCE_TOL for the one place the
  kernel is consulted).
* channel rows are checked against ``closed_forms.c1n_channel``, which is
  exact to roundoff for the long chains the benchmark uses.

The tolerances are fixed here.  The largest deviations seen at seeds 1-3
were 1.2e-15 (scan), 1.2e-14 (thermal curve) and 1e-13 (channel): the 1e-12
bounds leave a factor of ten for roundoff and still catch any error a
physicist would notice.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.closed_forms import c1n_channel
from xxzchain.entanglement import PureState, concurrence, reduce_pair
from xxzchain.hamiltonian import build_sector

ENERGY_TOL = 1e-12        # times (1 + |E|)
# Absolute.  A known defect: the library's concurrence kernel zeroes
# density-matrix eigenvalues below 64 eps (``entanglement._sqrt_psd``), which
# overstates the concurrence by up to 2 sqrt(rho_aa * 64 eps) where a
# diagonal entry of the pair state is that small.  A row that misses the
# exact value but matches, within this same tolerance, the kernel applied to
# the oracle's own pair state is counted (``entanglement.concurrence_floor_rows``),
# not failed.
CONCURRENCE_TOL = 1e-12
C1N_TOL = 1e-12           # absolute
# Levels within this relative gap of the ground energy form the ground
# space; the same definition as the CLI's ``degeneracy`` column.
TIE_RTOL = 1e-9

HEADERS = {
    "phase-scan": ["delta", "B", "n_up", "sector_rank", "ground_energy",
                   "degeneracy", "boundary_concurrence"],
    "curve": ["delta", "B", "concurrence"],
    "channel": ["n_sites", "beta", "c1n_numeric", "c1n_closed_form",
                "max_ratio_deviation"],
}


def xstate_concurrence(rho: np.ndarray) -> float:
    """Concurrence of a two-qubit X state (only the diagonal and the
    anti-diagonal are nonzero)."""
    off_x = (rho[0, 1], rho[0, 2], rho[1, 3], rho[2, 3])
    if max(abs(x) for x in off_x) > 1e-13:
        raise ValueError("reduced state is not an X state")
    return max(
        0.0,
        2.0 * (abs(rho[1, 2]) - math.sqrt(max(rho[0, 0] * rho[3, 3], 0.0))),
        2.0 * (abs(rho[0, 3]) - math.sqrt(max(rho[1, 1] * rho[2, 2], 0.0))),
    )


def concurrences(rho: np.ndarray) -> tuple[float, float]:
    """The exact concurrence of the X state ``rho`` and the library
    kernel's value on the same matrix (they differ on noise-floor rows)."""
    return xstate_concurrence(rho), concurrence(rho).value


class SectorSpectra:
    """All sector eigenpairs of a chain at zero field; the sweeps only ever
    apply a uniform field, which ``energies`` adds as a shift."""

    def __init__(self, spec: ChainSpec):
        n = spec.n_sites
        spec0 = replace(spec, fields=(0.0,) * n)
        self.n_sites = n
        self._bases, self._vectors = [], []
        energies, sectors, columns = [], [], []
        for k in range(n + 1):
            basis = build_sector_basis(n, k)
            w, v = np.linalg.eigh(build_sector(spec0, basis))
            self._bases.append(basis)
            self._vectors.append(v)
            energies.append(w)
            sectors.append(np.full(len(w), k))
            columns.append(np.arange(len(w)))
        self.energies0 = np.concatenate(energies)
        self.sector = np.concatenate(sectors)
        self.column = np.concatenate(columns)
        self.shift = 2.0 * self.sector - n
        self._pairs: dict[tuple[int, int, int], np.ndarray] = {}

    def energies(self, field: float) -> np.ndarray:
        return self.energies0 + field * self.shift

    def pair_matrix(self, level: int, i: int, j: int) -> np.ndarray:
        key = (level, i, j)
        if key not in self._pairs:
            k, m = int(self.sector[level]), int(self.column[level])
            state = PureState.from_sector(self._bases[k], self._vectors[k][:, m])
            self._pairs[key] = reduce_pair(state, i, j).matrix
        return self._pairs[key]


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# Known-defect counters per subcommand: reported, never failures.
COUNTERS = {
    "phase-scan": ("sweep.cross_sector_ties", "entanglement.concurrence_floor_rows"),
    "curve": ("entanglement.concurrence_floor_rows",),
    "channel": ("channel.ratio_nonfinite",),
}


class Oracle:
    """Expected rows of one config, computed lazily and kept for every
    child that ran the same config."""

    def __init__(self, subcommand: str, config: dict):
        self.subcommand = subcommand
        self.config = config
        self._spectra: dict[float, SectorSpectra] = {}
        self._expected: dict[int, tuple] = {}
        if subcommand == "phase-scan":
            deltas = config["grid"]["delta"]["values"]
            fields = config["grid"]["B"]["values"]
            self.keys = [(d, b) for d in deltas for b in fields]
        elif subcommand == "curve":
            fields = config["grid"]["B"]["values"]
            self.keys = [(d, b) for d in config["delta_values"] for b in fields]
        elif subcommand == "channel":
            betas = config["grid"]["beta"]["values"]
            self.keys = [(n, b) for n in config["n_sites_values"] for b in betas]
        else:
            raise ValueError(f"no oracle for {subcommand!r}")
        name = subcommand.replace("-", "_")
        self._expect = getattr(self, "_expect_" + name)
        self._check_row = getattr(self, "_check_" + name)

    def _sectors(self, delta: float) -> SectorSpectra:
        if delta not in self._spectra:
            spec = ChainSpec.from_dict(self.config["spec"])
            self._spectra[delta] = SectorSpectra(replace(spec, delta=delta))
        return self._spectra[delta]

    def expected(self, index: int) -> tuple:
        if index not in self._expected:
            self._expected[index] = self._expect(*self.keys[index])
        return self._expected[index]

    def _expect_phase_scan(self, delta, field):
        spectra = self._sectors(delta)
        energies = spectra.energies(field)
        e0 = float(energies.min())
        tied = np.flatnonzero(energies <= e0 + TIE_RTOL * (1.0 + abs(e0)))
        n = spectra.n_sites
        rho = sum(spectra.pair_matrix(int(m), 1, n) for m in tied) / len(tied)
        sectors = sorted({int(spectra.sector[m]) for m in tied})
        return (e0, len(tied), sectors, *concurrences(rho))

    def _expect_curve(self, delta, field):
        spectra = self._sectors(delta)
        i, j = self.config["pair"]
        temperature = float(self.config["spec"]["temperature"])
        energies = spectra.energies(field)
        weights = np.exp(-(energies - energies.min()) / temperature)
        weights /= weights.sum()
        rho = sum(w * spectra.pair_matrix(m, i, j) for m, w in enumerate(weights))
        return concurrences(rho)

    def _expect_channel(self, n_sites, beta):
        # the closed form is the profile formula; the exact fold differs
        # from it at relative order beta^(2 - N), which must be negligible
        if beta ** (2 - n_sites) > 1e-16:
            raise ValueError(f"c1n_channel is not exact at N={n_sites}, beta={beta}")
        return (c1n_channel(beta, n_sites // 2),)

    def check(self, text: str, result: CheckResult) -> dict[str, int]:
        """Check one child's CSV output and return its known-defect counters.
        Every config row is one attempt; a missing or wrong row is one
        failure."""
        counters = dict.fromkeys(COUNTERS[self.subcommand], 0)
        result.attempted += len(self.keys)
        lines = list(csv.reader(io.StringIO(text)))
        rows = lines[1:] if lines[:1] == [HEADERS[self.subcommand]] else []
        for index, key in enumerate(self.keys):
            if index >= len(rows):
                result.fail(f"row {index + 1}: missing")
                continue
            try:
                values = [float(x) for x in rows[index]]
            except ValueError as exc:
                problem = f"unreadable: {exc}"
            else:
                if len(values) != len(HEADERS[self.subcommand]):
                    problem = "wrong column count"
                elif (values[0], values[1]) != key:
                    problem = f"grid point {values[:2]} where {list(key)} was expected"
                else:
                    problem = self._check_row(index, values, counters)
            if problem:
                result.fail(f"row {index + 1} {rows[index]}: {problem}")
        return counters

    @staticmethod
    def _concurrence_problem(value, exact, kernel, counters):
        if abs(value - exact) <= CONCURRENCE_TOL:
            return None
        if abs(kernel - exact) > CONCURRENCE_TOL and abs(value - kernel) <= CONCURRENCE_TOL:
            counters["entanglement.concurrence_floor_rows"] += 1
            return None
        return f"concurrence off by {value - exact:.3g}"

    def _check_phase_scan(self, index, values, counters):
        _, _, n_up, rank, energy, degeneracy, conc = values
        e0, ties, sectors, exact, kernel = self.expected(index)
        if len(sectors) > 1:
            counters["sweep.cross_sector_ties"] += 1
        if abs(energy - e0) > ENERGY_TOL * (1.0 + abs(e0)):
            return f"ground energy off by {energy - e0:.3g}"
        if int(n_up) not in sectors:
            return f"n_up {int(n_up)} not among the ground sectors {sectors}"
        if int(rank) != 0:
            return f"sector_rank {int(rank)}, the ground level has rank 0"
        if int(degeneracy) != ties:
            return f"degeneracy {int(degeneracy)}, {ties} tied levels"
        return self._concurrence_problem(conc, exact, kernel, counters)

    def _check_curve(self, index, values, counters):
        exact, kernel = self.expected(index)
        return self._concurrence_problem(values[2], exact, kernel, counters)

    def _check_channel(self, index, values, counters):
        (c,) = self.expected(index)
        if not math.isfinite(values[4]):
            counters["channel.ratio_nonfinite"] += 1
        if abs(values[2] - c) > C1N_TOL:
            return f"c1n_numeric off by {values[2] - c:.3g}"
        if abs(values[3] - c) > C1N_TOL:
            return f"c1n_closed_form off by {values[3] - c:.3g}"
        return None
