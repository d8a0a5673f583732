"""Spin-flip and mirror blocks of the sweep core against plain S^z blocks.

``reference.PlainBlockSpectrum`` decomposes every S^z block whole and
shares ``field_rows`` with the library, so these tests pin the
symmetry-blocked decomposition alone: same rows to roundoff, the same
labels, and the symmetry used exactly when the spec has it.
"""

from dataclasses import replace
from math import comb

import numpy as np
import pytest

from reference import PlainBlockSpectrum
from xxzchain import sweep
from xxzchain.chain import ChainSpec
from xxzchain.eigensolver import decompose
from xxzchain.sweep import GridAxis, _phase_points, _SectorSpectrum, classify_ground_state, phase_scan

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
    plain = PlainBlockSpectrum(spec, (1, spec.n_sites))
    lows = [float(plain.energies[plain.sector == k].min()) for k in range(spec.n_sites + 1)]
    crossings = [0.5 * (lows[k] - lows[k + 1]) for k in range(spec.n_sites)]
    return sorted({0.0, *crossings, float(rng.uniform(0.0, 2.0))})


def _assert_same_rows(spec: ChainSpec, pair, fields, temperatures=(0.1, 0.4)):
    new, plain = _SectorSpectrum(spec, pair), PlainBlockSpectrum(spec, pair)
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
        s = _SectorSpectrum(spec, (1, n))
        for k in range((n + 1) // 2):
            assert np.array_equal(s.energies[s.sector == k], s.energies[s.sector == n - k])
            assert np.array_equal(
                s.pair_data[s.sector == k], s.pair_data[s.sector == n - k][:, FLIPPED]
            )


@pytest.mark.parametrize("n", range(3, 11))
def test_symmetric_specs_match_plain_blocks(n):
    rng = np.random.default_rng(300 + n)
    for mirror_only in (False, False, True):
        # zero fields: flip and mirror; a palindromic field: mirror only
        fields = _palindrome(rng, n) if mirror_only else (0.0,) * n
        spec = ChainSpec(n, _palindrome(rng, n - 1), fields, float(rng.uniform(-1.0, 2.0)))
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        for pair in ((1, n), (i, j), (j, i)):
            _assert_same_rows(spec, pair, _test_fields(spec, rng))


def test_reflection_breaking_spec_is_flip_folded_but_not_split(monkeypatch):
    rng = np.random.default_rng(11)
    spec = ChainSpec(6, (1.0, 0.7, 1.3, 1.0, 0.9), (0.0,) * 6, 0.4)
    dims = _record_dims(monkeypatch)
    _SectorSpectrum(spec, (2, 5))
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
    assert [point] == list(_phase_points(PlainBlockSpectrum(rest, (1, 6)), spec.delta, (0.3,)))


def test_classify_with_a_palindromic_field_splits_every_block(monkeypatch):
    spec = ChainSpec(6, (1.0, 0.8, 1.2, 0.8, 1.0), (0.2, 0.5, 0.1, 0.1, 0.5, 0.2), 0.7)
    dims = _record_dims(monkeypatch)
    point = classify_ground_state(spec)
    # all seven blocks, each as its even and odd halves (block 0 and 6 have
    # a single self-mirror state, so no odd half)
    assert len(dims) == 12 and sum(dims) == 2**6 and max(dims) == 10
    rest = replace(spec, fields=tuple(b - 0.2 for b in spec.fields))
    (expected,) = _phase_points(PlainBlockSpectrum(rest, (1, 6)), spec.delta, (0.2,))
    assert (point.n_up, point.degeneracy) == (expected.n_up, expected.degeneracy)
    assert abs(point.ground_energy - expected.ground_energy) <= ROW_TOL * (
        1.0 + abs(expected.ground_energy)
    )
    assert abs(point.boundary_concurrence - expected.boundary_concurrence) <= ROW_TOL


def test_uniform_ten_site_delta_decomposes_eleven_halves(monkeypatch):
    dims = _record_dims(monkeypatch)
    template = ChainSpec.uniform(10)
    points = list(phase_scan(template, GridAxis(values=(1.0,)), GridAxis(values=(0.0, 0.5, 2.0))))
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
