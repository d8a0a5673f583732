"""Spin-flip and mirror blocks of the sweep core against plain S^z blocks.

``reference.plain_block_spectrum`` decomposes every S^z block whole and
shares ``field_rows`` with the library, so these tests pin the
symmetry-blocked decomposition alone: same rows to roundoff, the same
labels, and the symmetry used exactly when the spec has it.
"""

from dataclasses import replace
from math import comb

import numpy as np
import pytest

from reference import dense_sector_concurrence, plain_block_spectrum
from xxzchain import sweep
from xxzchain.chain import ChainSpec
from xxzchain.channel import impurity_profile_chain
from xxzchain.eigensolver import decompose
from xxzchain.hamiltonian import build_channel
from xxzchain.sweep import (
    _BlockPlan,
    _phase_points,
    classify_ground_state,
    concurrence_curve,
    phase_scan,
    sector_boundary_concurrence,
)

ROW_TOL = 1e-13  # concurrences absolute, energies times (1 + |E|)
FLIPPED = [3, 2, 1, 0, 4]


def _palindrome(rng, length: int) -> tuple[float, ...]:
    half = rng.uniform(0.3, 1.5, (length + 1) // 2).tolist()
    return tuple(half + half[: length // 2][::-1])


def _record_dims(monkeypatch) -> list[int]:
    """Patch the decompose the sweep core calls to record each block size."""
    dims = []

    def recording(matrix):
        dims.append(len(matrix))
        return decompose(matrix)

    monkeypatch.setattr(sweep, "decompose", recording)
    return dims


def _test_fields(spec: ChainSpec, rng) -> list[float]:
    """B = 0, every field where the ground levels of adjacent sectors cross
    (exact cross-sector ties), and one generic field."""
    plain = plain_block_spectrum(spec, (1, spec.n_sites))
    lows = [float(plain.energies[plain.sector == k].min()) for k in range(spec.n_sites + 1)]
    crossings = [0.5 * (lows[k] - lows[k + 1]) for k in range(spec.n_sites)]
    return sorted({0.0, *crossings, float(rng.uniform(0.0, 2.0))})


def _assert_same_rows(spec: ChainSpec, pair, fields, temperatures=(0.1, 0.4)):
    new = _BlockPlan(spec, pair).spectrum(spec.delta)
    plain = plain_block_spectrum(spec, pair)
    for b in fields:
        (p,), (q,) = _phase_points(new, spec.delta, (b,)), _phase_points(plain, spec.delta, (b,))
        assert (p.n_up, p.degeneracy, p.sector_rank) == (q.n_up, q.degeneracy, q.sector_rank)
        assert abs(p.ground_energy - q.ground_energy) <= ROW_TOL * (1.0 + abs(q.ground_energy))
        assert abs(p.boundary_concurrence - q.boundary_concurrence) <= ROW_TOL
        for t in temperatures:
            c_new = new.field_rows((b,), t)[3][0]
            c_plain = plain.field_rows((b,), t)[3][0]
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
    dims = _record_dims(monkeypatch)
    _BlockPlan(spec, (2, 5)).spectrum(spec.delta)
    assert dims == [comb(6, k) for k in range(4)]
    for pair in ((2, 5), (5, 2), (1, 6)):
        _assert_same_rows(spec, pair, _test_fields(spec, rng))


def test_classify_without_either_symmetry_is_the_plain_block_path(monkeypatch):
    # uniform couplings, but a field that is neither uniform nor palindromic
    spec = ChainSpec(6, (1.0,) * 5, (0.3, 0.1, 0.5, 0.2, 0.0, 0.4), 0.7)
    dims = _record_dims(monkeypatch)
    point = classify_ground_state(spec)
    assert dims == [comb(6, k) for k in range(7)]
    rest = replace(spec, fields=tuple(b - 0.3 for b in spec.fields))
    assert [point] == list(_phase_points(plain_block_spectrum(rest, (1, 6)), spec.delta, (0.3,)))


def test_classify_with_a_palindromic_field_splits_every_block(monkeypatch):
    spec = ChainSpec(6, (1.0, 0.8, 1.2, 0.8, 1.0), (0.2, 0.5, 0.1, 0.1, 0.5, 0.2), 0.7)
    dims = _record_dims(monkeypatch)
    point = classify_ground_state(spec)
    # all seven blocks, each as its even and odd halves (block 0 and 6 have
    # a single self-mirror state, so no odd half)
    assert len(dims) == 12 and sum(dims) == 2**6 and max(dims) == 10
    rest = replace(spec, fields=tuple(b - 0.2 for b in spec.fields))
    (expected,) = _phase_points(plain_block_spectrum(rest, (1, 6)), spec.delta, (0.2,))
    assert (point.n_up, point.degeneracy) == (expected.n_up, expected.degeneracy)
    assert abs(point.ground_energy - expected.ground_energy) <= ROW_TOL * (
        1.0 + abs(expected.ground_energy)
    )
    assert abs(point.boundary_concurrence - expected.boundary_concurrence) <= ROW_TOL


def test_uniform_ten_site_delta_decomposes_eleven_halves(monkeypatch):
    dims = _record_dims(monkeypatch)
    template = ChainSpec.uniform(10)
    points = list(phase_scan(template, (1.0,), (0.0, 0.5, 2.0)))
    assert len(points) == 3
    # blocks k = 0..5 only; block 0 is one self-mirror state
    assert len(dims) == 11 and max(dims) == 126
    assert sum(dims) == sum(comb(10, k) for k in range(6))


@pytest.mark.parametrize("delta", [-0.5, 0.0, 0.3, 1.0])
def test_mirror_unfolding_keeps_a_singlet_at_most_one(delta):
    # the two-site ground state is (|01> - |10>)/sqrt(2), a single odd-half
    # vector; unfolding must not round its concurrence above 1
    point = classify_ground_state(ChainSpec.uniform(2, delta=delta))
    assert 1.0 - 1e-15 <= point.boundary_concurrence <= 1.0


def test_sector_route_splits_a_palindromic_block_and_keeps_others_whole(monkeypatch):
    dims = _record_dims(monkeypatch)
    sector_boundary_concurrence(impurity_profile_chain(6, 2.0), 2)
    # 15 two-up states, 3 of them their own mirror image
    assert dims == [9, 6]
    dims.clear()
    sector_boundary_concurrence(ChainSpec(6, (1.0, 2.0, 3.0, 2.0, 1.5), (0.0,) * 6, 0.5), 2)
    assert dims == [15]


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
                assert abs(c - pair_plain.field_rows((0.0,), temperature)[3][0]) <= ROW_TOL
                if temperature == 0.0:
                    p = next(points)
                    (q,) = _phase_points(plain_block_spectrum(shifted, (1, n)), delta, (0.0,))
                    assert (p.n_up, p.degeneracy) == (q.n_up, q.degeneracy)
                    scale = 1.0 + abs(q.ground_energy)
                    assert abs(p.ground_energy - q.ground_energy) <= ROW_TOL * scale
                    assert abs(p.boundary_concurrence - q.boundary_concurrence) <= ROW_TOL
    assert next(points, None) is None
