"""The batched field axis of the sweep core and its X-state kernel.

``_SectorSpectrum.field_rows`` evaluates every field of one delta at once
and ``entanglement.xstate_concurrences`` turns the resulting pair-data rows
into concurrences.  These tests pin what the batching must not change: a
row is the same bits whichever fields share its call, it agrees with the
per-field 4x4 route kept in ``reference.per_row_point`` (at T > 0 also with
the level-by-level mixture ``reference.thermal_rows_by_level``, which the
sector sums replaced), and the kernel rejects every row the 4x4 state
rejects.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import (
    joined_field_rows,
    per_row_point,
    thermal_rows_by_level,
    xstate_concurrence,
    xstate_pair,
)
from xxzchain import chain, sweep
from xxzchain.chain import ChainSpec
from xxzchain.eigensolver import _OPENBLAS_THREADS
from xxzchain.entanglement import xstate_concurrences
from xxzchain.errors import DomainError
from xxzchain.sweep import _BlockPlan

ROW_TOL = 1e-13  # concurrences absolute, energies times (1 + |E|)
SRC = Path(__file__).resolve().parents[1] / "src"

_unit = st.floats(0.2, 1.5, allow_nan=False)


_TEMPERATURES = st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0])


@st.composite
def _spectra(draw, max_sites=7, temperatures=_TEMPERATURES, coupling=_unit):
    """A random spectrum (n <= ``max_sites``; zero, palindromic or generic
    site fields; palindromic or generic couplings, each drawn from
    ``coupling``), its site pair, a temperature and a field list that may
    include the exact crossings of adjacent sectors' ground levels."""
    n = draw(st.integers(2, max_sites))
    if draw(st.booleans()):
        half = draw(st.lists(coupling, min_size=(n - 1) // 2, max_size=(n - 1) // 2))
        couplings = tuple(half + ([draw(coupling)] if (n - 1) % 2 else []) + half[::-1])
    else:
        couplings = tuple(draw(st.lists(coupling, min_size=n - 1, max_size=n - 1)))
    shape = draw(st.sampled_from(["zero", "palindromic", "generic"]))
    site = st.floats(-1.0, 1.0, allow_nan=False)
    if shape == "zero":
        fields = (0.0,) * n
    elif shape == "palindromic":
        half = draw(st.lists(site, min_size=(n + 1) // 2, max_size=(n + 1) // 2))
        fields = tuple(half + half[: n // 2][::-1])
    else:
        fields = tuple(draw(st.lists(site, min_size=n, max_size=n)))
    spec = ChainSpec(n, couplings, fields, draw(st.floats(-1.0, 2.0, allow_nan=False)))
    i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    plan = _BlockPlan(spec, (i, j))
    spectrum = plan.spectrum(spec.delta)
    temperature = draw(temperatures)
    fields_b = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=40))
    if draw(st.booleans()):
        lows = [float(spectrum.energies[spectrum.sector == k].min()) for k in range(n + 1)]
        fields_b += [0.5 * (lows[k] - lows[k + 1]) for k in range(n)]
    return spectrum, plan.pair, temperature, draw(st.permutations(fields_b))


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_spectra())
def test_batched_rows_are_batch_invariant_and_match_the_per_row_path(case):
    spectrum, pair, temperature, fields = case
    batch = joined_field_rows(spectrum, fields, temperature)
    for m, b in enumerate(fields):
        single = joined_field_rows(spectrum, [b], temperature)
        assert [a[m] for a in batch] == [a[0] for a in single]
        e0, n_up, degeneracy, c = per_row_point(spectrum, pair, b, temperature)
        if temperature == 0.0:  # a T > 0 row is (e0, c)
            assert (batch[1][m], batch[2][m]) == (n_up, degeneracy)
        assert abs(batch[0][m] - e0) <= ROW_TOL * (1.0 + abs(e0))
        assert abs(batch[-1][m] - c) <= ROW_TOL
        assert 0.0 <= batch[-1][m] <= 1.0


# T from 1e-4, where most gaps' weights underflow to 0, to 1e2
_THERMAL = st.floats(-4.0, 2.0).map(lambda x: 10.0**x)
# a zero bond cuts the chain, and equal pieces give levels that tie within a
# sector, so a sector's lowest level need not be simple
_CUT = st.sampled_from([0.0, 0.0, 1.0]) | _unit


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_spectra(max_sites=8, temperatures=_THERMAL, coupling=_CUT))
def test_thermal_rows_by_sector_match_the_level_by_level_mixture(case):
    spectrum, _, temperature, fields = case
    e0, c = joined_field_rows(spectrum, fields, temperature)
    expected_e0, expected_c = thermal_rows_by_level(spectrum, fields, temperature)
    assert e0.tobytes() == expected_e0.tobytes()
    assert np.abs(c - expected_c).max() <= 1e-15


@pytest.mark.parametrize("temperature", [0.0, 0.2])
def test_a_field_axis_longer_than_one_chunk_matches_one_field_at_a_time(
    monkeypatch, temperature
):
    kernel = sweep.xstate_concurrences
    spectrum = _BlockPlan(ChainSpec.uniform(10), (1, 10)).spectrum(0.7)
    # a T = 0 chunk spans every level, a T > 0 chunk the 11 sectors
    step = chain._CHUNK_ENTRIES // (11 if temperature > 0 else len(spectrum.energies))
    lows = [float(spectrum.energies[spectrum.sector == k].min()) for k in range(11)]
    crossings = [0.5 * (lows[k] - lows[k + 1]) for k in range(10)]
    fields = sorted({0.0, *crossings, *np.linspace(-2.5, 2.5, 3 * step + 1).tolist()})
    assert len(fields) > 3 * step
    chunks = []  # the kernel runs once per chunk
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "xstate_concurrences", lambda d: chunks.append(d) or kernel(d))
        batch = joined_field_rows(spectrum, fields, temperature)
    assert len(chunks) > 3
    for m, b in enumerate(fields):
        single = joined_field_rows(spectrum, [b], temperature)
        assert [a[m] for a in batch] == [a[0] for a in single]
    if temperature == 0.0:
        assert max(batch[2]) >= 2  # the crossings are exact cross-sector ties


def test_field_rows_temporaries_do_not_grow_with_the_field_axis():
    spectrum = _BlockPlan(ChainSpec.uniform(10), (1, 10)).spectrum(0.7)

    def peak_bytes(count: int) -> int:
        fields = np.linspace(0.0, 3.0, count)
        tracemalloc.start()
        try:
            joined_field_rows(spectrum, fields, 0.2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # only the two float64 output arrays of a T > 0 call may grow with the
    # axis; one unchunked level x field temporary would add 8 MiB per 1000
    # fields
    assert peak_bytes(4000) - peak_bytes(400) <= 3600 * 2 * 8 + 64 * 1024


def test_kernel_matches_the_four_by_four_state_on_clean_rows():
    rows = np.array(
        [
            [0.0, 0.5, 0.5, 0.0, -0.5],
            [0.25, 0.25, 0.25, 0.25, 0.1],
            [0.1, 0.3, 0.4, 0.2, 0.3],
            [1.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    values = xstate_concurrences(rows)
    expected = [2.0 * max(0.0, abs(r[4]) - np.sqrt(r[0] * r[3])) for r in rows]
    assert values.tolist() == expected
    assert values[0] == 1.0 and values[3] == 0.0
    for r in rows:
        xstate_pair((1, 2), r)  # the 4x4 state accepts each of them


@pytest.mark.parametrize(
    "bad, message",
    [
        # c^2 > p01 p10: the 01/10 block has the eigenvalue 0.5 - 0.6
        ([0.0, 0.5, 0.5, 0.0, 0.6], "significantly negative eigenvalue"),
        ([-1e-9, 0.5, 0.5, 1e-9, 0.0], "significantly negative eigenvalue"),
        ([0.3, 0.3, 0.3, 0.3, 0.0], "trace is"),
        ([0.25, 0.25, 0.25, 0.25 + 2e-12, 0.0], "trace is"),
        ([np.nan, 0.5, 0.5, 0.0, 0.0], "trace is"),
    ],
)
def test_kernel_rejects_a_corrupted_row_among_clean_ones(bad, message):
    clean = [0.25, 0.25, 0.25, 0.25, 0.1]
    with pytest.raises(DomainError, match=message) as raised:
        xstate_concurrences(np.array([clean, bad, clean]))
    assert "np." not in str(raised.value)  # a plain float, even NaN
    if not np.isnan(bad).any():
        # the 4x4 state rejects the same row with the same message
        with pytest.raises(DomainError) as expected:
            xstate_pair((1, 2), bad)
        assert str(raised.value) == str(expected.value)


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
def test_kernel_tolerances_are_those_of_the_four_by_four_state():
    # just inside both bounds: trace off by 5e-13, an eigenvalue at -5e-11
    rows = np.array([[0.25, 0.25, 0.25, 0.25 + 5e-13, 0.0], [-5e-11, 0.5, 0.5, 5e-11, 0.0]])
    values = xstate_concurrences(rows)
    for r, value in zip(rows, values):
        assert value == xstate_concurrence(xstate_pair((1, 2), r))
    with pytest.raises(DomainError, match="pair-state rows"):
        xstate_concurrences(np.zeros((2, 4)))


def _phase_scan_csv(tmp_path, threads: int) -> str:
    config = tmp_path / "scan.json"
    config.write_text(
        '{"spec": {"n_sites": 12, "couplings": [1,1,1,1,1,1,1,1,1,1,1],'
        ' "fields": [0,0,0,0,0,0,0,0,0,0,0,0], "delta": 0},'
        ' "grid": {"delta": {"values": [0.5, 1.0]},'
        ' "B": {"min": 0.0, "max": 3.0, "step": 0.12}}}'
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env.update(MKL_NUM_THREADS=str(threads))
    done = subprocess.run(
        [sys.executable, "-m", "xxzchain.cli", "phase-scan", "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


def test_phase_scan_labels_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits its sums by thread count; the sweeps run it on one
    # thread, so every byte of the scan is the same, labels and numbers
    one, two = _phase_scan_csv(tmp_path, 1), _phase_scan_csv(tmp_path, 2)
    assert len(one.splitlines()) == len(two.splitlines()) == 1 + 2 * 26
    if _OPENBLAS_THREADS is not None:
        assert one == two
        return
    # another BLAS: the numbers may differ in the last bits, but never a
    # label, and never beyond roundoff
    one, two = ([line.split(",") for line in csv.splitlines()] for csv in (one, two))
    assert one[0] == two[0]
    for a, b in zip(one[1:], two[1:]):
        for name, x, y in zip(one[0], a, b):
            if name in ("delta", "B", "n_up", "sector_rank", "degeneracy"):
                assert x == y
            else:
                assert abs(float(x) - float(y)) <= ROW_TOL
