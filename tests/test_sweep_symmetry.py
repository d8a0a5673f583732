"""Spin-flip and mirror blocks of the sweep core against plain S^z blocks.

``reference.plain_block_spectrum`` decomposes every S^z block whole and
shares ``field_rows`` with the library, so these tests pin the
symmetry-blocked decomposition alone: same rows to roundoff, the same
labels, and the symmetry used exactly when the spec has it.
"""

from dataclasses import astuple, replace
from math import comb

import numpy as np
import pytest

from reference import (
    dense_sector_concurrence,
    joined_field_rows,
    phase_points,
    plain_block_spectrum,
)
from xxzchain import sweep
from xxzchain.chain import ChainSpec
from xxzchain.channel import build_channel, impurity_profile_chain
from xxzchain.eigensolver import SpectralDecomposition, decompose
from xxzchain.hamiltonian import _dense
from xxzchain.sweep import (
    _BlockPlan,
    classify_ground_state,
    concurrence_curve,
    ground_regimes,
    phase_scan,
    sector_boundary_concurrence,
)

ROW_TOL = 1e-13  # concurrences absolute, energies times (1 + |E|)
FLIPPED = [3, 2, 1, 0, 4]


def _palindrome(rng, length: int) -> tuple[float, ...]:
    half = rng.uniform(0.3, 1.5, (length + 1) // 2).tolist()
    return tuple(half + half[: length // 2][::-1])


def _record_dims(monkeypatch) -> tuple[list[int], list[int]]:
    """Patch the sweep core to record the size of each part matrix it
    assembles and of each matrix it decomposes, one entry per matrix of a
    stack, in block order: with one CPU, so a delta's blocks run one after
    the other (``test_parallel`` checks that more CPUs make the same calls)."""
    assembled, dims = [], []

    def assembling(size, entries, diagonal):
        assembled.extend([size] * (len(diagonal) if np.ndim(diagonal) == 2 else 1))
        return _dense(size, entries, diagonal)

    def recording(matrix):
        dims.extend([matrix.shape[-1]] * (len(matrix) if matrix.ndim == 3 else 1))
        return decompose(matrix)

    monkeypatch.setattr(sweep, "_dense", assembling)
    monkeypatch.setattr(sweep, "decompose", recording)
    monkeypatch.setattr(sweep, "_cpus", lambda: 1)
    return assembled, dims


def _test_fields(spec: ChainSpec, rng, plain=None) -> list[float]:
    """B = 0, every field where the ground levels of adjacent sectors cross
    (exact cross-sector ties), and one generic field."""
    plain = plain or plain_block_spectrum(spec, (1, spec.n_sites))
    lows = [float(plain.energies[plain.sector == k].min()) for k in range(spec.n_sites + 1)]
    crossings = [0.5 * (lows[k] - lows[k + 1]) for k in range(spec.n_sites)]
    return sorted({0.0, *crossings, float(rng.uniform(0.0, 2.0))})


def _assert_same_rows(spec: ChainSpec, pair, fields, temperatures=(0.1, 0.4), plain=None):
    new = _BlockPlan(spec, pair).spectrum(spec.delta)
    plain = plain or plain_block_spectrum(spec, pair)
    for b in fields:
        (p,), (q,) = phase_points(new, spec.delta, (b,)), phase_points(plain, spec.delta, (b,))
        assert (p.n_up, p.degeneracy, p.sector_rank) == (q.n_up, q.degeneracy, q.sector_rank)
        assert abs(p.ground_energy - q.ground_energy) <= ROW_TOL * (1.0 + abs(q.ground_energy))
        assert abs(p.boundary_concurrence - q.boundary_concurrence) <= ROW_TOL
        for t in temperatures:
            c_new = joined_field_rows(new, (b,), t)[-1][0]
            c_plain = joined_field_rows(plain, (b,), t)[-1][0]
            assert abs(c_new - c_plain) <= ROW_TOL


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_zero_field_flip_partners_are_bit_for_bit_equal(n):
    rng = np.random.default_rng(n)
    for couplings in ((1.0,) * (n - 1), tuple(rng.uniform(0.3, 1.5, n - 1))):
        spec = ChainSpec(n, couplings, (0.0,) * n, float(rng.uniform(-1.0, 2.0)))
        s = _BlockPlan(spec, (1, n)).spectrum(spec.delta)
        for k in range((n + 1) // 2):
            assert np.array_equal(s.energies[s.sector == k], s.energies[s.sector == n - k])
            assert np.array_equal(
                s.pair_data[s.sector == k], s.pair_data[s.sector == n - k][:, FLIPPED]
            )


@pytest.mark.parametrize("n", range(3, 11))
def test_symmetric_specs_match_plain_blocks(n):
    rng = np.random.default_rng(300 + n)
    for shape in ("zero", "zero", "palindromic", "signed zero"):
        # zero fields: flip and mirror; a palindromic field: mirror only;
        # -0.0 end couplings: hopping entries that are zero with a sign bit
        fields = _palindrome(rng, n) if shape == "palindromic" else (0.0,) * n
        couplings = _palindrome(rng, n - 1)
        if shape == "signed zero":
            couplings = (-0.0,) + couplings[1:-1] + (-0.0,)
        spec = ChainSpec(n, couplings, fields, float(rng.uniform(-1.0, 2.0)))
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        for pair in ((1, n), (i, j), (j, i)):
            _assert_same_rows(spec, pair, _test_fields(spec, rng))


def test_reflection_breaking_spec_is_flip_folded_but_not_split(monkeypatch):
    rng = np.random.default_rng(11)
    spec = ChainSpec(6, (1.0, 0.7, 1.3, 1.0, 0.9), (0.0,) * 6, 0.4)
    assembled, dims = _record_dims(monkeypatch)
    _BlockPlan(spec, (2, 5)).spectrum(spec.delta)
    # no mirror halves; the flip F fixes no state of the half-filled block,
    # so its characters split it into (20 +/- 0)/2 = 10 and 10 states
    assert assembled == dims == [1, 6, 15, 10, 10]
    for pair in ((2, 5), (5, 2), (1, 6)):
        _assert_same_rows(spec, pair, _test_fields(spec, rng))


def test_classify_without_either_symmetry_is_the_plain_block_path(monkeypatch):
    # uniform couplings, but a field that is neither uniform nor palindromic
    spec = ChainSpec(6, (1.0,) * 5, (0.3, 0.1, 0.5, 0.2, 0.0, 0.4), 0.7)
    assembled, dims = _record_dims(monkeypatch)
    point = classify_ground_state(spec)
    assert assembled == dims == [comb(6, k) for k in range(7)]
    rest = replace(spec, fields=tuple(b - 0.3 for b in spec.fields))
    assert [point] == list(phase_points(plain_block_spectrum(rest, (1, 6)), spec.delta, (0.3,)))


def test_classify_with_a_palindromic_field_splits_every_block(monkeypatch):
    spec = ChainSpec(6, (1.0, 0.8, 1.2, 0.8, 1.0), (0.2, 0.5, 0.1, 0.1, 0.5, 0.2), 0.7)
    assembled, dims = _record_dims(monkeypatch)
    point = classify_ground_state(spec)
    # all seven blocks, each as its even and odd halves (block 0 and 6 have
    # a single self-mirror state, so no odd half)
    assert len(assembled) == 12 and sum(assembled) == 2**6 and max(assembled) == 10
    # block k has its lowest level in the half of parity k (the lead), so
    # the certificate spares the other half of every block but 0 and 6: the
    # 3-, 9-, 10-, 9- and 3-state halves decomposed, next to the two single
    # states, sum to 36 of the 64
    assert len(dims) == 7 and sum(dims) == 36
    rest = replace(spec, fields=tuple(b - 0.2 for b in spec.fields))
    (expected,) = phase_points(plain_block_spectrum(rest, (1, 6)), spec.delta, (0.2,))
    assert (point.n_up, point.degeneracy) == (expected.n_up, expected.degeneracy)
    assert abs(point.ground_energy - expected.ground_energy) <= ROW_TOL * (
        1.0 + abs(expected.ground_energy)
    )
    assert abs(point.boundary_concurrence - expected.boundary_concurrence) <= ROW_TOL


def test_uniform_ten_site_delta_decomposes_eleven_halves(monkeypatch):
    assembled, dims = _record_dims(monkeypatch)
    template = ChainSpec.uniform(10)
    points = list(phase_scan(template, (1.0,), (0.0, 0.5, 2.0)))
    assert len(points) == 3
    # blocks k = 0..5 only; block 0 is one self-mirror state, blocks 1..4
    # have mirror halves, and the group {1, R, F, RF} splits block 5 by
    # character counting: R and F fix none of its 252 states and RF fixes
    # 2^5 = 32, so its parts have (252 +/- 32)/4 = 71, 71, 55 and 55 states
    assert len(assembled) == 13 and max(assembled) == 110
    assert sum(assembled) == sum(comb(10, k) for k in range(6))
    assert sorted(assembled[-4:]) == [55, 55, 71, 71]
    # the lead part (R = (-1)^k, F = (-1)^5 on the uniform chain) holds each
    # block's lowest level, so every certificate succeeds from the first
    # delta on: one part a block
    assert dims == [1, 5, 25, 60, 110, 71]
    assembled.clear()
    dims.clear()
    points = list(phase_scan(template, (0.0, 0.5, 1.0, 1.5), (0.0, 0.5, 2.0)))
    assert len(assembled) == 4 * 13
    assert len(dims) == 4 * 6


def _assert_same_windowed_rows(spec: ChainSpec, pair, fields, plain):
    """The T = 0 rows of the level window (a phase scan's spectrum) against
    the plain blocks: the same labels, rows to roundoff."""
    windowed = _BlockPlan(spec, pair).spectrum(spec.delta, max(map(abs, fields)))
    rows = zip(phase_points(windowed, spec.delta, fields), phase_points(plain, spec.delta, fields))
    for p, q in rows:
        assert (p.n_up, p.degeneracy, p.sector_rank) == (q.n_up, q.degeneracy, q.sector_rank)
        assert abs(p.ground_energy - q.ground_energy) <= ROW_TOL * (1.0 + abs(q.ground_energy))
        assert abs(p.boundary_concurrence - q.boundary_concurrence) <= ROW_TOL


@pytest.mark.parametrize("n", range(2, 13))
def test_zero_field_parts_match_plain_blocks(n):
    # zero fields: the half-filled block of an even chain splits by
    # {1, R, F, RF} (palindromic couplings) or {1, F} (generic ones); an odd
    # chain has no half-filled block.  T = 0 with and without the window,
    # and T > 0, at the end pair and an interior one
    rng = np.random.default_rng(2400 + n)
    for couplings in (_palindrome(rng, n - 1), tuple(rng.uniform(0.3, 1.5, n - 1))):
        spec = ChainSpec(n, couplings, (0.0,) * n, float(rng.uniform(-1.0, 2.0)))
        ends = plain_block_spectrum(spec, (1, n))
        fields = _test_fields(spec, rng, ends)
        for pair in ((1, n), (2, n - 1) if n > 3 else (1, 2)):
            plain = ends if pair == (1, n) else plain_block_spectrum(spec, pair)
            _assert_same_rows(spec, pair, fields, plain=plain)
            _assert_same_windowed_rows(spec, pair, fields, plain)


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec.uniform(5),  # B = 0: sectors 2 and 3 tie
        ChainSpec.uniform(3, delta=1.0),  # B = 0: sectors 1 and 2 tie
        ChainSpec.uniform(6, delta=-1.0),  # the ferromagnet: all 7 sectors tie at B = 0
        ChainSpec(6, (1.0, 0.0, 1.0, 0.0, 1.0), (0.0,) * 6, 0.0),  # split dimers
        ChainSpec(6, (1.0, 1e-11, 1.0, 1e-11, 1.0), (0.0,) * 6, 0.0),  # weakly linked dimers
        ChainSpec(8, (1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0), (0.0,) * 8, 0.4),  # zero middle bond
    ],
)
def test_exact_degeneracies_of_the_parts_match_plain_blocks(spec):
    n = spec.n_sites
    fields = _test_fields(spec, np.random.default_rng(n))
    for pair in ((1, n), (2, n - 1) if n > 3 else (1, 2)):
        plain = plain_block_spectrum(spec, pair)
        _assert_same_rows(spec, pair, fields, plain=plain)
        _assert_same_windowed_rows(spec, pair, fields, plain)


def test_an_empty_character_is_dropped_not_decomposed(monkeypatch):
    # n = 4, k = 2: R fixes 2 of the 6 states (0110 and 1001), F none and RF
    # 2^2 = 4, so the characters hold (6 + 2 + 4)/4 = 3, (6 - 2 - 4)/4 = 0,
    # (6 + 2 - 4)/4 = 1 and (6 - 2 + 4)/4 = 2 states; the empty one is no part
    spec = ChainSpec.uniform(4, delta=0.5)
    block = _BlockPlan(spec, (1, 4), (2,)).blocks[0]
    assert [len(part[0]) for part in block.parts] == [3, 1, 2]
    assembled, dims = _record_dims(monkeypatch)
    rows = list(concurrence_curve(replace(spec, temperature=0.2), (1, 4), (0.0, 1.0), (0.5,)))
    assert len(rows) == 2
    assert assembled == dims == [1, 2, 2, 3, 1, 2]
    _assert_same_rows(spec, (1, 4), (0.0, 1.0, 1.5))


@pytest.mark.parametrize("delta", [-0.5, 0.0, 0.3, 1.0])
def test_mirror_unfolding_keeps_a_singlet_at_most_one(delta):
    # the two-site ground state is (|01> - |10>)/sqrt(2), a single odd-half
    # vector; unfolding must not round its concurrence above 1
    point = classify_ground_state(ChainSpec.uniform(2, delta=delta))
    assert 1.0 - 1e-15 <= point.boundary_concurrence <= 1.0


def test_sector_route_splits_a_palindromic_block_and_keeps_others_whole(monkeypatch):
    assembled, dims = _record_dims(monkeypatch)
    sector_boundary_concurrence(impurity_profile_chain(6, 2.0), 2)
    # 15 two-up states, 3 of them their own mirror image; the sector's
    # ground lies in the even half, so the odd half is certified, not solved
    assert assembled == [9, 6]
    assert dims == [9]
    assembled.clear()
    dims.clear()
    sector_boundary_concurrence(ChainSpec(6, (1.0, 2.0, 3.0, 2.0, 1.5), (0.0,) * 6, 0.5), 2)
    assert assembled == dims == [15]


def test_sector_route_matches_the_dense_sector_route():
    rng = np.random.default_rng(1010)
    for trial in range(40):
        n = int(rng.integers(2, 9))
        couplings = _palindrome(rng, n - 1) if trial % 2 else tuple(rng.uniform(0.3, 1.5, n - 1))
        fields = (_palindrome(rng, n), (0.0,) * n, tuple(rng.uniform(-1.0, 1.0, n)))[trial % 3]
        spec = ChainSpec(n, couplings, fields, float(rng.uniform(-1.5, 1.5)))
        for n_up in range(n + 1):
            expected = dense_sector_concurrence(spec, n_up)
            assert abs(sector_boundary_concurrence(spec, n_up) - expected) <= ROW_TOL


@pytest.mark.parametrize(
    "spec",
    [impurity_profile_chain(80, 1.0), impurity_profile_chain(80, 1.05), build_channel(80, 1.0, 0.4)],
)
def test_sector_route_unfolds_mirror_halves_beyond_63_sites(spec):
    # labels of more than 63 sites are Python ints (object arrays)
    expected = dense_sector_concurrence(spec, 1)
    assert abs(sector_boundary_concurrence(spec, 1) - expected) <= 1e-12


@pytest.mark.parametrize("shape", ["palindromic", "generic", "channel"])
def test_sweeps_add_the_field_to_the_specs_own_site_fields(shape):
    # a row at B is the spec with B added to every site field, decomposed
    # whole; at T = 0 (the scan, a curve) and T > 0 (a curve)
    n = 6
    rng = np.random.default_rng(["palindromic", "generic", "channel"].index(shape))
    if shape == "channel":
        spec = build_channel(n, 1.0, 2.0)
    else:
        couplings = _palindrome(rng, n - 1)
        fields = _palindrome(rng, n) if shape == "palindromic" else rng.uniform(-1.0, 1.0, n)
        spec = ChainSpec(n, couplings, tuple(fields), float(rng.uniform(-1.0, 2.0)))
    deltas = (spec.delta, float(rng.uniform(-1.0, 2.0)))
    fields = (0.0, 0.125, float(rng.uniform(0.2, 1.5)))
    points = iter(phase_scan(spec, deltas, fields))
    for temperature in (0.0, 0.3):
        template = replace(spec, temperature=temperature)
        curve = iter(concurrence_curve(template, (2, 5), fields, deltas))
        for delta in deltas:
            for b in fields:
                shifted = replace(spec, delta=delta, fields=tuple(f + b for f in spec.fields))
                (_, _, c), pair_plain = next(curve), plain_block_spectrum(shifted, (2, 5))
                assert abs(c - joined_field_rows(pair_plain, (0.0,), temperature)[-1][0]) <= ROW_TOL
                if temperature == 0.0:
                    p = next(points)
                    (q,) = phase_points(plain_block_spectrum(shifted, (1, n)), delta, (0.0,))
                    assert (p.n_up, p.degeneracy) == (q.n_up, q.degeneracy)
                    scale = 1.0 + abs(q.ground_energy)
                    assert abs(p.ground_energy - q.ground_energy) <= ROW_TOL * scale
                    assert abs(p.boundary_concurrence - q.boundary_concurrence) <= ROW_TOL
    assert next(points, None) is None


def _sweep_rows(spec: ChainSpec) -> str:
    """Every row kind the block core prints for ``spec``, as the repr of its
    floats (exact to the last bit, signed zeros included)."""
    n = spec.n_sites
    deltas = (spec.delta, -0.5, 1.0)
    fields = (0.0, 0.125, 0.9, 2.5)
    rows = [astuple(p) for p in phase_scan(spec, deltas, fields)]
    for temperature in (0.0, 0.3):
        template = replace(spec, temperature=temperature)
        for pair in ((1, n), (2, n - 1)):
            rows += list(concurrence_curve(template, pair, fields, deltas))
    rows += [astuple(r) for r in ground_regimes(spec)]
    rows += [sector_boundary_concurrence(spec, k) for k in range(n + 1)]
    return repr(rows)


@pytest.mark.parametrize("shape", ["palindromic", "generic", "flip only"])
def test_sweep_rows_ignore_the_sign_of_every_eigenvector(monkeypatch, shape):
    # each row is a sum of products of one vector's entries, so negating any
    # set of eigenvector columns leaves every bit of it; the zero-field
    # shapes split the half-filled block by {1, R, F, RF} and by {1, F}
    n = 6
    rng = np.random.default_rng(["palindromic", "generic", "flip only"].index(shape) + 40)
    if shape == "palindromic":
        spec = ChainSpec(n, _palindrome(rng, n - 1), (0.0,) * n, 0.4)
    elif shape == "flip only":
        spec = ChainSpec(n, tuple(rng.uniform(0.3, 1.5, n - 1)), (0.0,) * n, 0.4)
    else:
        spec = ChainSpec(
            n, tuple(rng.uniform(0.3, 1.5, n - 1)), tuple(rng.uniform(-1.0, 1.0, n)), 0.4
        )
    expected = _sweep_rows(spec)
    flips = np.random.default_rng(7)
    flipped = []

    def negating(matrix):
        dec = decompose(matrix)
        negate = flips.random(dec.order) < 0.5
        flipped.append(int(np.count_nonzero(negate)))
        vectors = np.where(negate, -dec.eigenvectors, dec.eigenvectors)
        return SpectralDecomposition(dec.eigenvalues, vectors)

    monkeypatch.setattr(sweep, "decompose", negating)
    assert _sweep_rows(spec) == expected
    assert sum(flipped) > 0
