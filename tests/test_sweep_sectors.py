"""The S^z-blocked sweep core against dense full-space diagonalization.

The dense route (build_full + decompose + ground_state_density or
thermal_state + reduce_pair_mixed) shares no step with the blocked sweep
after the matrix elements, so it serves as the independent oracle here.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.cli import main
from xxzchain.eigensolver import decompose, ground_space
from xxzchain.entanglement import (
    concurrence,
    ground_state_density,
    reduce_pair_mixed,
    thermal_state,
)
from xxzchain.hamiltonian import build_full, build_sector
from xxzchain.sweep import GridAxis, classify_ground_state, concurrence_curve, phase_scan

ENERGY_TOL = 1e-12  # times (1 + |E|)
CONCURRENCE_TOL = 1e-12
NON_X_TOL = 1e-13


def _xstate_value(rho: np.ndarray) -> float:
    """General X-state concurrence; fails unless rho is an X state."""
    off_x = np.array([rho[0, 1], rho[0, 2], rho[1, 3], rho[2, 3]])
    assert np.max(np.abs(off_x)) <= NON_X_TOL
    return max(
        0.0,
        2.0 * (abs(rho[1, 2]) - math.sqrt(max(rho[0, 0] * rho[3, 3], 0.0))),
        2.0 * (abs(rho[0, 3]) - math.sqrt(max(rho[1, 1] * rho[2, 2], 0.0))),
    )


def _popcounts(n: int) -> np.ndarray:
    return np.array([bin(s).count("1") for s in range(1 << n)])


def _dense(spec: ChainSpec, pair: tuple[int, int]):
    """Ground energy, ground-space size, sectors the ground space touches,
    and the X-state concurrence of the pair (thermal when T > 0)."""
    dec = decompose(build_full(spec))
    ground = ground_space(dec)
    weight = np.sum(dec.eigenvectors[:, ground] ** 2, axis=1)
    sectors = set(np.unique(_popcounts(spec.n_sites)[weight > 1e-8]).tolist())
    if spec.temperature > 0:
        rho_full = thermal_state(spec, dec)
    else:
        rho_full = ground_state_density(dec)
    rho = reduce_pair_mixed(rho_full, *pair).matrix
    return float(dec.eigenvalues[0]), len(ground), sectors, _xstate_value(rho)


def _crossing_fields(template: ChainSpec, delta: float) -> list[float]:
    """Fields where the ground levels of adjacent sectors cross."""
    n = template.n_sites
    spec = replace(template, delta=delta, fields=(0.0,) * n)
    lows = [
        float(np.linalg.eigvalsh(build_sector(spec, build_sector_basis(n, k)))[0])
        for k in range(n + 1)
    ]
    # w_k + B (2k - N) = w_{k+1} + B (2k + 2 - N)
    return [0.5 * (lows[k] - lows[k + 1]) for k in range(n)]


def _random_template(rng, n, temperature=0.0):
    if rng.random() < 0.5:
        return ChainSpec.uniform(n, coupling=rng.uniform(0.5, 1.5), temperature=temperature)
    return ChainSpec(
        n_sites=n,
        couplings=tuple(rng.uniform(-1.5, 1.5, n - 1)),
        fields=(0.0,) * n,
        delta=0.0,
        temperature=temperature,
    )


@pytest.mark.parametrize(
    "n, delta, n_up",
    [(5, 0.0, 2), (3, 1.0, 1)],
)
def test_cross_sector_tie_takes_the_smallest_sector(n, delta, n_up):
    template = ChainSpec.uniform(n, delta=delta)
    spec = replace(template, fields=(0.0,) * n)
    points = [classify_ground_state(spec) for _ in range(2)]
    points += [
        next(iter(phase_scan(template, GridAxis(values=(delta,)), GridAxis(values=(0.0,)))))
        for _ in range(2)
    ]
    assert all(p == points[0] for p in points)
    assert points[0].degeneracy == 2
    assert points[0].n_up == n_up
    # the two tied levels sit in sectors n_up and N - n_up (spin flip)
    _, ties, sectors, _ = _dense(spec, (1, n))
    assert ties == 2 and sectors == {n_up, n - n_up}


def test_phase_scan_matches_dense_diagonalization():
    rng = np.random.default_rng(2024)
    for n in range(3, 9):
        template = _random_template(rng, n)
        delta = float(rng.choice([0.0, 1.0, rng.uniform(-1.0, 2.0)]))
        fields = sorted({0.0, *_crossing_fields(template, delta)[: n // 2 + 1],
                         float(rng.uniform(0.0, 2.0))})
        points = list(phase_scan(template, GridAxis(values=(delta,)), GridAxis(values=tuple(fields))))
        assert [p.field for p in points] == fields
        for p in points:
            spec = replace(template, delta=delta, fields=(p.field,) * n)
            energy, ties, sectors, value = _dense(spec, (1, n))
            assert abs(p.ground_energy - energy) <= ENERGY_TOL * (1.0 + abs(energy))
            assert p.degeneracy == ties
            assert p.n_up in sectors and p.n_up == min(sectors)
            assert p.sector_rank == 0
            assert abs(p.boundary_concurrence - value) <= CONCURRENCE_TOL


@pytest.mark.parametrize("temperature", [0.0, 0.05, 0.4])
def test_concurrence_curve_matches_dense_diagonalization(temperature):
    rng = np.random.default_rng(7 + int(100 * temperature))
    for n in range(3, 9):
        template = _random_template(rng, n, temperature)
        delta = float(rng.uniform(-1.0, 2.0))
        fields = sorted({0.0, *_crossing_fields(template, delta)[:2], float(rng.uniform(0.0, 2.0))})
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        for pair in ((i, j), (j, i), (1, n)):
            rows = list(concurrence_curve(template, pair, GridAxis(values=tuple(fields)), (delta,)))
            for d, b, c in rows:
                spec = replace(template, delta=d, fields=(b,) * n)
                assert abs(c - _dense(spec, pair)[3]) <= CONCURRENCE_TOL


def test_thermal_noise_floor_row_is_exact():
    # the pair state's |00> population is ~1e-13 here; the Wootters kernel
    # clips it to zero and reports 6.65e-07
    template = ChainSpec.uniform(6, temperature=0.1)
    ((_, _, value),) = concurrence_curve(template, (1, 6), GridAxis(values=(1.5,)), (0.0,))
    spec = replace(template, fields=(1.5,) * 6)
    rho = reduce_pair_mixed(thermal_state(spec, decompose(build_full(spec))), 1, 6)
    assert abs(_xstate_value(rho.matrix) - 5.139275261744773e-07) <= 1e-12
    assert abs(value - 5.139275261744773e-07) <= 1e-12
    assert concurrence(rho).value > 6e-07


def _write(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _cli_twice(tmp_path, command, config):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main([command, "--config", config, "--out", out1]) == 0
    assert main([command, "--config", config, "--out", out2]) == 0
    text = open(out1).read()
    assert text == open(out2).read()
    return text.strip().splitlines()


def test_cli_phase_scan_rows_equal_single_point_recomputation(tmp_path):
    spec = {"n_sites": 5, "couplings": [1, 0.7, 1.3, 1], "fields": [0] * 5, "delta": 0}
    config = _write(
        tmp_path,
        {"spec": spec, "grid": {"delta": {"values": [0.0, 0.8]},
                                "B": {"min": 0.0, "max": 2.0, "step": 0.25}}},
    )
    lines = _cli_twice(tmp_path, "phase-scan", config)
    template = ChainSpec.from_dict(spec)
    for line in lines[1:]:
        delta, b, n_up, rank, energy, ties, c = line.split(",")
        delta, b = float(delta), float(b)
        point = classify_ground_state(replace(template, delta=delta, fields=(b,) * 5))
        (fresh,) = phase_scan(template, GridAxis(values=(delta,)), GridAxis(values=(b,)))
        assert point == fresh
        assert (point.n_up, point.sector_rank, point.degeneracy) == (int(n_up), int(rank), int(ties))
        assert (point.ground_energy, point.boundary_concurrence) == (float(energy), float(c))


def test_cli_thermal_curve_rows_equal_single_point_recomputation(tmp_path):
    spec = {"n_sites": 5, "couplings": [1, 1, 1, 1], "fields": [0] * 5, "delta": 0,
            "temperature": 0.15}
    config = _write(
        tmp_path,
        {"spec": spec, "pair": [2, 5], "delta_values": [0.0, 1.0],
         "grid": {"B": {"min": 0.0, "max": 1.5, "step": 0.1}}},
    )
    lines = _cli_twice(tmp_path, "curve", config)
    assert lines[0] == "delta,B,concurrence"
    template = ChainSpec.from_dict(spec)
    for line in lines[1:]:
        delta, b, c = (float(x) for x in line.split(","))
        ((_, _, fresh),) = concurrence_curve(template, (2, 5), GridAxis(values=(b,)), (delta,))
        assert c == fresh
