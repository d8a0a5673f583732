"""The Cholesky certificate of the sweep core's T = 0 blocks.

With a finite level window ``sweep._Block.levels`` decomposes first the
part that the Perron-Frobenius rule names as holding the block's lowest
level (``_Block.lead``), and skips another part when ``sweep._above``
proves by one Cholesky factorization that all its levels lie more than the
window above that lowest.  These tests pin that the rule names the right
part, that a skipped part changes no bit of a row, that the certificate
fails over to the decomposition wherever parts share the lowest level, that
T > 0 never tries it, that what it proves holds, and that the work done at
a delta does not depend on the chunk of deltas it shares.
"""

from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest

from xxzchain import sweep
from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.channel import build_channel, impurity_profile_chain
from xxzchain.eigensolver import decompose
from xxzchain.hamiltonian import _dense, build_sector
from xxzchain.sweep import (
    _above,
    _BlockPlan,
    concurrence_curve,
    ground_regimes,
    phase_scan,
    sector_boundary_concurrence,
)


def _palindrome(rng, length: int) -> tuple[float, ...]:
    half = rng.uniform(0.3, 1.5, (length + 1) // 2).tolist()
    return tuple(half + half[: length // 2][::-1])


def _spec(rng, shape: str, n: int) -> ChainSpec:
    """A seeded spec: palindromic couplings with zero, palindromic or
    generic fields, an impurity chain, a generic zero-field chain or the
    channel."""
    delta = float(rng.uniform(-1.0, 2.0))
    if shape == "impurity":
        return replace(impurity_profile_chain(n, float(rng.uniform(0.5, 2.0))), delta=delta)
    if shape == "channel":
        return build_channel(n, 1.0, float(rng.uniform(0.5, 3.0)))
    couplings = tuple(rng.uniform(0.3, 1.5, n - 1)) if shape == "generic" else _palindrome(rng, n - 1)
    fields = {
        "zero": (0.0,) * n,
        "generic": (0.0,) * n,
        "palindromic field": _palindrome(rng, n),
        "generic field": tuple(rng.uniform(-1.0, 1.0, n)),
    }[shape]
    return ChainSpec(n, couplings, fields, delta)


def _crossings(spec: ChainSpec, delta: float) -> list[float]:
    """The fields at which the lowest levels of adjacent sectors cross:
    exact cross-sector ties of the ground space."""
    full = _BlockPlan(spec, (1, spec.n_sites)).spectrum(delta)
    lows = [float(full.energies[full.sector == k].min()) for k in range(spec.n_sites + 1)]
    return [0.5 * (lows[k] - lows[k + 1]) for k in range(spec.n_sites)]


def _zero_temperature_rows(spec: ChainSpec, deltas) -> str:
    """Every T = 0 row kind of ``spec``, over the crossing fields of its
    first delta and a few others, as the repr of its floats (exact to the
    last bit, signed zeros included)."""
    n = spec.n_sites
    fields = sorted({0.0, 0.3, 2.5, *_crossings(spec, deltas[0])})
    rows = [astuple(p) for p in phase_scan(spec, deltas, fields)]
    for pair in ((1, n), (2, n - 1)) if n > 3 else ((1, n),):
        rows += list(concurrence_curve(replace(spec, temperature=0.0), pair, fields, deltas))
    rows += [astuple(r) for r in ground_regimes(spec)]
    rows += [sector_boundary_concurrence(spec, k) for k in range(n + 1)]
    return repr(rows)


def _failing(matrix):
    raise np.linalg.LinAlgError("certificate disabled")


def _orders(matrix) -> list[int]:
    """The order of each matrix of ``matrix``, one matrix or a stack."""
    return [matrix.shape[-1]] * (len(matrix) if matrix.ndim == 3 else 1)


def _record(monkeypatch) -> tuple[list, list]:
    """Patch the sweep core to record each certificate's result and the size
    of each matrix it decomposes, in the order of the calls, with one CPU,
    so a delta's blocks run one after the other."""
    results, dims = [], []

    def certifying(matrix, floor):
        results.append(_above(matrix, floor))
        return results[-1]

    def recording(matrix):
        dims.extend(_orders(matrix))
        return decompose(matrix)

    monkeypatch.setattr(sweep, "_above", certifying)
    monkeypatch.setattr(sweep, "decompose", recording)
    monkeypatch.setattr(sweep, "_cpus", lambda: 1)
    return results, dims


_SHAPES = ["zero", "palindromic field", "generic field", "impurity", "generic", "channel"]


@pytest.mark.parametrize("shape", _SHAPES)
def test_rows_with_every_certificate_failing_are_the_certified_rows(monkeypatch, shape):
    rng = np.random.default_rng(_SHAPES.index(shape) + 2200)
    certified = 0
    for n in (2, 3, 4, 5, 6, 7, 8, 10):
        if shape in ("impurity", "channel") and n < 4:
            continue
        spec = _spec(rng, shape, n)
        deltas = (spec.delta, float(rng.uniform(-1.0, 2.0)), spec.delta)
        with monkeypatch.context() as patch:
            results, _ = _record(patch)
            expected = _zero_temperature_rows(spec, deltas)
        certified += sum(results)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", _failing)
            assert _zero_temperature_rows(spec, deltas) == expected
    # a palindromic spec has halves to skip (a generic one, whole blocks)
    assert certified > 0 or shape in ("generic", "generic field")


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec.uniform(5),  # B = 0: sectors 2 and 3 tie
        ChainSpec.uniform(3, delta=1.0),  # B = 0: sectors 1 and 2 tie
        ChainSpec.uniform(7, delta=-1.0),  # the ferromagnet: all 8 sectors tie at B = 0
        ChainSpec(6, (1.0, 0.0, 1.0, 0.0, 1.0), (0.0,) * 6, 0.0),  # split dimers
        ChainSpec(6, (1.0, 1e-11, 1.0, 1e-11, 1.0), (0.0,) * 6, 0.0),  # weakly linked dimers
        ChainSpec(8, (1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0), (0.0,) * 8, 0.4),  # zero middle bond
    ],
)
def test_exact_degeneracies_keep_the_certified_rows(monkeypatch, spec):
    deltas = (spec.delta, 0.5)
    expected = _zero_temperature_rows(spec, deltas)
    monkeypatch.setattr(np.linalg, "cholesky", _failing)
    assert _zero_temperature_rows(spec, deltas) == expected


def test_halves_that_share_the_lowest_level_are_both_decomposed(monkeypatch):
    # with a zero coupling the lead is the first part.  With the middle bond
    # at 0 the mirror swaps two identical chains, so a block of odd k has
    # its lowest level, |g_m>|g_m+1> +/- |g_m+1>|g_m>, in both halves; three
    # split dimers have the lowest level of blocks 1 and 2 in both halves
    # (the outer dimers' states swap, the middle one is even)
    results, dims = _record(monkeypatch)
    zero_middle = ChainSpec(8, (1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0), (0.0,) * 8, 0.4)
    list(phase_scan(zero_middle, (0.4, 1.0), (0.0, 0.5)))
    # blocks k = 0..3 have 1, 4 + 4, 16 + 12 and 28 + 28 states; in block 4
    # R fixes 6 of the 70 states, F none and RF 2^4 = 16, so its parts have
    # (70 + 6 + 16)/4 = 23, (70 - 6 - 16)/4 = 12, (70 + 6 - 16)/4 = 15 and
    # (70 - 6 + 16)/4 = 20 states, and the first holds its lowest level.  Both
    # deltas share a chunk, so each part's matrices come as one stack of two,
    # and its certificates one per delta
    assert dims == [d for d in [1, 4, 4, 16, 28, 28, 23] for _ in range(2)]
    assert results == [r for r in [False, True, False, True, True, True] for _ in range(2)]
    results.clear()
    dims.clear()
    dimers = ChainSpec(6, (1.0, 0.0, 1.0, 0.0, 1.0), (0.0,) * 6, 0.0)
    list(phase_scan(dimers, (0.0,), (0.0, 0.5)))
    # block 3 splits into (20 +/- 8)/4 = 7, 3, 3 and 7 states (RF fixes 2^3
    # of them); the first part's lowest level, -1, is shared by the next
    # two, and the last holds the block's lowest, -3 (three singlets)
    assert dims == [1, 3, 3, 9, 6, 7, 3, 3, 7]
    assert results == [False] * 5


_SIGNS = ["positive", "negative", "mixed"]


@pytest.mark.parametrize("signs", _SIGNS)
def test_the_lead_part_holds_every_blocks_lowest_level(signs):
    # every coupling nonzero: the block's lowest level is simple, and the
    # part _Block names from the spec alone holds it, below every other part
    rng = np.random.default_rng(_SIGNS.index(signs) + 2300)
    split = 0
    for n in range(2, 11):
        for shape in ("palindromic", "generic"):
            for field_shape in ("zero", "palindromic", "generic"):
                if shape == "palindromic":
                    magnitude = np.array(_palindrome(rng, n - 1))
                else:
                    magnitude = rng.uniform(0.3, 1.5, n - 1)
                sign = {"positive": np.ones(n - 1), "negative": -np.ones(n - 1)}.get(signs)
                if sign is None:
                    sign = rng.choice([-1.0, 1.0], n - 1)
                    if shape == "palindromic":
                        sign = np.minimum(sign, sign[::-1])
                fields = {
                    "zero": (0.0,) * n,
                    "palindromic": _palindrome(rng, n),
                    "generic": tuple(rng.uniform(-1.0, 1.0, n)),
                }[field_shape]
                spec = ChainSpec(n, tuple(sign * magnitude), fields, float(rng.uniform(-1.5, 2.0)))
                for k in range(n + 1):
                    basis = build_sector_basis(n, k)
                    plan = _BlockPlan(spec, (1, n), (k,))
                    block = plan.blocks[0]
                    diagonal = 0.5 * spec.delta * plan.zz + plan.zeeman
                    lows = [
                        np.linalg.eigvalsh(_dense(len(reps), entries, diagonal[reps]))[0]
                        for reps, entries, _, _ in block.parts
                    ]
                    lowest = np.linalg.eigvalsh(build_sector(spec, basis))[0]
                    split += len(lows) == 4
                    assert abs(lows[block.lead] - lowest) <= 1e-12 * (1.0 + abs(lowest))
                    lead = lows.pop(block.lead)
                    assert all(low > lead for low in lows)
    assert split > 0


@pytest.mark.parametrize("n", range(2, 13))
def test_a_single_uniform_delta_makes_no_failed_certificate(monkeypatch, n):
    # the lead part holds every block's lowest level at the first delta, so
    # every other part is certified and each block decomposes one part
    results, dims = _record(monkeypatch)
    deltas = (-0.5, 0.0, 1.0, 2.0)
    for delta in deltas:
        list(phase_scan(ChainSpec.uniform(n), (delta,), (0.0, 0.5, 1.5)))
    assert results and all(results)
    assert len(dims) == 4 * (n // 2 + 1)
    # the four deltas in one call, in chunks of several up to n = 8: as many
    # certificates and decomposed matrices (24 and 28 at n = 10)
    counts = len(dims), len(results)
    dims.clear()
    results.clear()
    list(phase_scan(ChainSpec.uniform(n), deltas, (0.0, 0.5, 1.5)))
    assert (len(dims), len(results)) == counts and all(results)
    assert n != 10 or counts == (24, 28)


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec.uniform(10),
        ChainSpec(6, (1.0, 0.8, 1.2, 0.8, 1.0), (0.2, 0.5, 0.1, 0.1, 0.5, 0.2), 0.7),
        ChainSpec(7, (1.0, -0.7, 1.3, 0.9, -1.1, 0.6), (0.3, 0.1, 0.5, 0.2, 0.0, 0.4, 0.1), 0.2),
        ChainSpec(8, (1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0), (0.0,) * 8, 0.4),  # zero middle bond
        ChainSpec(6, (1.0, 0.0, 1.0, 0.0, 1.0), (0.0,) * 6, 0.0),  # split dimers
    ],
)
def test_the_work_at_a_delta_does_not_depend_on_the_chunk_it_shares(monkeypatch, spec):
    # every certificate (with its result) and every decomposed matrix, of a
    # chunk of deltas, is the sum of those of each delta alone, and each
    # delta's spectrum is the same bits
    calls = []

    def certifying(matrix, floor):
        calls.append(("above", len(matrix), _above(matrix, floor)))
        return calls[-1][-1]

    def recording(matrix):
        calls.extend(("decompose", order) for order in _orders(matrix))
        return decompose(matrix)

    monkeypatch.setattr(sweep, "_above", certifying)
    monkeypatch.setattr(sweep, "decompose", recording)
    monkeypatch.setattr(sweep, "_CHUNK_ENTRIES", 2**20)  # every delta in one chunk
    reach = max(map(abs, (0.0, 0.5, 2.0)))
    plan = _BlockPlan(spec, (1, spec.n_sites))
    alone, spectra = {}, {}
    for delta in (0.7, -0.5, 1.5, -1.0):
        calls.clear()
        spectra[delta] = plan.spectrum(delta, reach)
        alone[delta] = Counter(calls)
    assert alone[0.7]
    for chunk in ((0.7,), (-0.5, 0.7), (1.5, -1.0, 0.7)):
        calls.clear()
        shared = list(plan.spectra(chunk, reach))
        assert Counter(calls) == sum((alone[delta] for delta in chunk), Counter())
        for delta, spectrum in zip(chunk, shared):
            assert spectrum.energies.tobytes() == spectra[delta].energies.tobytes()
            assert spectrum.pair_data.tobytes() == spectra[delta].pair_data.tobytes()


def test_a_thermal_curve_never_tries_the_certificate(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda matrix: calls.append(matrix))
    for spec in (ChainSpec.uniform(8, temperature=0.2), impurity_profile_chain(8, 2.0)):
        spec = replace(spec, temperature=0.2)
        rows = list(concurrence_curve(spec, (1, 8), (0.0, 0.5, 2.0), (0.0, 1.0)))
        assert len(rows) == 6
    assert calls == []


@pytest.mark.parametrize("shape", ["zero", "palindromic field", "impurity", "channel"])
def test_every_certified_part_lies_above_the_kept_lowest_plus_the_window(monkeypatch, shape):
    rng = np.random.default_rng(["zero", "palindromic field", "impurity", "channel"].index(shape))
    proved = []

    def checking(matrix, floor):
        result = _above(matrix, floor)
        if result:
            proved.append(float(np.linalg.eigvalsh(matrix)[0]) - floor)
        return result

    monkeypatch.setattr(sweep, "_above", checking)
    for n in (4, 6, 7, 8, 10):
        spec = _spec(rng, shape, n)
        fields = sorted({0.0, 0.7, *_crossings(spec, spec.delta)})
        list(phase_scan(spec, (spec.delta, float(rng.uniform(-1.0, 2.0))), fields))
        ground_regimes(spec)
    assert proved and min(proved) > 0.0


@pytest.mark.parametrize("floor", [-3.5, 0.0, 1e-300, 2.0])
def test_the_certificate_proves_only_levels_past_the_floor_and_its_margin(floor):
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    scale = 1.0 + abs(floor)
    # a diagonal matrix holds its levels exactly: one at the floor, or a few
    # ulps above it (inside the Cholesky error margin), is not proved
    for lowest, proved in ((floor - 1e-9 * scale, False), (floor, False),
                           (floor + 8 * np.spacing(scale), False), (floor + 1e-6 * scale, True)):
        levels = np.linspace(lowest, lowest + 4.0, 12)
        for matrix in (np.diag(levels), (q * levels) @ q.T):
            if matrix.any() and not np.array_equal(matrix, np.diag(levels)):
                if abs(lowest - floor) < 1e-9 * scale:
                    continue  # a rotated level this close is only known to roundoff
                matrix = 0.5 * (matrix + matrix.T)
            before = matrix.copy()
            assert _above(matrix, floor) is proved
            assert np.array_equal(matrix, before)
