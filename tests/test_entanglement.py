import math
from dataclasses import replace

import numpy as np
import pytest

from reference import concurrence_lambdas_direct, xstate_concurrence, xstate_pair

from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.closed_forms import c13_ground, critical_field_3site
from xxzchain.eigensolver import decompose
from xxzchain.entanglement import (
    PureState,
    TwoQubitDensityMatrix,
    concurrence,
    ground_state_density,
    pair_xstate_data,
    reduce_pair,
    reduce_pair_mixed,
    thermal_state,
)
from xxzchain.errors import DomainError
from xxzchain.hamiltonian import build_full

BELL = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]], dtype=float
)
PRODUCT = np.diag([1.0, 0.0, 0.0, 0.0])


def _random_density(rng):
    a = rng.standard_normal((4, 4))
    rho = a @ a.T
    return rho / np.trace(rho)


def _pure_pair(amps, i, j):
    """Pair state of the full-space pure state ``amps``."""
    return reduce_pair_mixed(np.outer(amps, amps), i, j)


def _ground_pair(spec, i, j):
    dec = decompose(build_full(spec))
    return _pure_pair(dec.eigenvectors[:, 0], i, j)


def test_reduce_pair_product_state():
    rho = _pure_pair(np.eye(8)[0], 1, 3)
    assert np.allclose(rho.matrix, PRODUCT, atol=1e-15)
    state = PureState.from_sector(build_sector_basis(3, 0), [1.0])
    assert np.allclose(reduce_pair(state, 1, 3).matrix, PRODUCT, atol=1e-15)


def test_reduce_pair_one_up_antisymmetric_state():
    # (-|001> + |100>)/sqrt(2), traced onto the boundary pair
    amps = np.zeros(8)
    amps[0b001] = -1 / math.sqrt(2)
    amps[0b100] = 1 / math.sqrt(2)
    rho = _pure_pair(amps, 1, 3)
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.allclose(rho.matrix, expected, atol=1e-15)
    assert concurrence(rho).value == pytest.approx(1.0, abs=1e-12)


def test_boundary_concurrence_three_site_xx_ground():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.5, delta=0.0)
    rho = _ground_pair(spec, 1, 3)
    assert concurrence(rho).value == pytest.approx(0.5, abs=1e-12)


def test_reduce_pair_site_validation():
    state = PureState.from_sector(build_sector_basis(3, 0), [1.0])
    rho_full = np.diag(np.eye(8)[0])
    for pair in ((0, 2), (2, 2), (1, 4)):
        with pytest.raises(DomainError):
            reduce_pair(state, *pair)
        with pytest.raises(DomainError):
            reduce_pair_mixed(rho_full, *pair)


def test_reduce_pair_order_invariance():
    rng = np.random.default_rng(31)
    amps = rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    a = _pure_pair(amps, 2, 4)
    b = _pure_pair(amps, 4, 2)
    assert a.sites == b.sites == (2, 4)
    assert np.array_equal(a.matrix, b.matrix)
    assert concurrence(a).value == concurrence(b).value
    basis = build_sector_basis(4, 2)
    sector_amps = amps[list(basis.states)]
    state = PureState.from_sector(basis, sector_amps / np.linalg.norm(sector_amps))
    a, b = reduce_pair(state, 2, 4), reduce_pair(state, 4, 2)
    assert a.sites == b.sites == (2, 4)
    assert np.array_equal(a.matrix, b.matrix)


def test_sector_reduction_matches_full_embedding():
    rng = np.random.default_rng(32)
    for n, k in ((4, 2), (5, 2), (6, 3)):
        basis = build_sector_basis(n, k)
        amps = rng.standard_normal(len(basis))
        amps /= np.linalg.norm(amps)
        sector_state = PureState.from_sector(basis, amps)
        full = np.zeros(1 << n)
        full[list(basis.states)] = amps
        for pair in ((1, n), (1, 2), (2, n - 1)):
            a = reduce_pair(sector_state, *pair)
            b = _pure_pair(full, *pair)
            assert np.allclose(a.matrix, b.matrix, atol=1e-13)


def test_pair_xstate_data_matches_sector_reduction():
    rng = np.random.default_rng(33)
    for n, k in ((3, 0), (4, 2), (5, 2), (6, 3), (6, 6), (70, 1)):
        basis = build_sector_basis(n, k)
        vectors = rng.standard_normal((len(basis), 3))
        vectors /= np.linalg.norm(vectors, axis=0)
        for pair in ((1, n), (n, 1), (2, n), (1, 2)):
            data = pair_xstate_data(basis, vectors, *pair)
            assert data.shape == (3, 5)
            for m in range(3):
                rho = reduce_pair(PureState.from_sector(basis, vectors[:, m]), *pair)
                built = xstate_pair(rho.sites, data[m])
                assert np.allclose(built.matrix, rho.matrix, rtol=0.0, atol=1e-15)


def test_pair_xstate_data_validation():
    basis = build_sector_basis(4, 2)
    with pytest.raises(DomainError):
        pair_xstate_data(basis, np.eye(5), 1, 4)
    with pytest.raises(DomainError):
        pair_xstate_data(basis, np.eye(6), 2, 2)


def test_xstate_concurrence_matches_wootters_away_from_the_floor():
    rng = np.random.default_rng(34)
    basis = build_sector_basis(5, 2)
    vectors = rng.standard_normal((len(basis), 4))
    vectors /= np.linalg.norm(vectors, axis=0)
    data = pair_xstate_data(basis, vectors, 2, 4)
    weights = rng.dirichlet(np.ones(4))
    for row in (*data, weights @ data):
        rho = xstate_pair((2, 4), row)
        assert xstate_concurrence(rho) == pytest.approx(concurrence(rho).value, abs=1e-12)
    assert xstate_concurrence(xstate_pair((1, 3), [0.0, 0.5, 0.5, 0.0, -0.5])) == pytest.approx(1.0)


def test_xstate_concurrence_rejects_other_shapes():
    # |++><++| has every entry 1/4
    with pytest.raises(DomainError):
        xstate_concurrence(TwoQubitDensityMatrix(sites=(1, 2), matrix=np.full((4, 4), 0.25)))


def test_reduce_pair_mixed_maximally_mixed():
    rho = reduce_pair_mixed(np.eye(4) / 4.0, 1, 2)
    assert np.allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-15)


def test_equal_mixture_of_degenerate_pair_kills_boundary_concurrence():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.0, delta=1.0)
    dec = decompose(build_full(spec))
    rho_full = ground_state_density(dec)
    rho = reduce_pair_mixed(rho_full, 1, 3)
    assert concurrence(rho).value == pytest.approx(0.0, abs=1e-12)


def test_mixed_reduction_consistent_with_pure_path():
    spec = ChainSpec.uniform(4, coupling=1.0, field=0.4, delta=0.3)
    dec = decompose(build_full(spec))
    rho_pure = _pure_pair(dec.eigenvectors[:, 0], 1, 4).matrix
    rho_mixed = reduce_pair_mixed(ground_state_density(dec), 1, 4).matrix
    assert np.allclose(rho_pure, rho_mixed, atol=1e-12)


def test_thermal_state_limits():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.5, delta=0.0, temperature=1e9)
    dec = decompose(build_full(spec))
    rho = thermal_state(spec, dec)
    assert np.allclose(rho, np.eye(8) / 8.0, atol=1e-8)

    cold = replace(spec, temperature=1e-6)
    rho0 = thermal_state(cold, dec)
    v0 = dec.eigenvectors[:, 0]
    assert v0 @ rho0 @ v0 >= 1 - 1e-9


def test_thermal_state_at_a_subnormal_temperature_is_the_ground_state():
    # every gap over T = 1e-310 overflows to inf, with no RuntimeWarning
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.5, delta=0.0, temperature=1e-310)
    dec = decompose(build_full(spec))
    assert np.abs(thermal_state(spec, dec) - ground_state_density(dec)).max() <= 1e-15


def test_thermal_state_requires_positive_temperature():
    spec = ChainSpec.uniform(3)
    dec = decompose(build_full(spec))
    with pytest.raises(DomainError):
        thermal_state(spec, dec)


def test_boundary_concurrence_decreases_with_temperature():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.5, delta=0.0)
    dec = decompose(build_full(spec))
    values = []
    for t in (1e-4, 0.05, 0.2, 0.5, 1.0, 3.0):
        rho = thermal_state(replace(spec, temperature=t), dec)
        values.append(concurrence(reduce_pair_mixed(rho, 1, 3)).value)
    assert values[0] == pytest.approx(0.5, abs=1e-6)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_ground_state_density_matches_cold_thermal():
    rng = np.random.default_rng(33)
    spec = ChainSpec(
        n_sites=4,
        couplings=tuple(rng.uniform(0.5, 1.5, 3)),
        fields=tuple(rng.uniform(-0.5, 0.5, 4)),
        delta=0.3,
        temperature=1e-8,
    )
    dec = decompose(build_full(spec))
    c_cold = concurrence(reduce_pair_mixed(thermal_state(spec, dec), 1, 4)).value
    c_ground = concurrence(reduce_pair_mixed(ground_state_density(dec), 1, 4)).value
    assert c_cold == pytest.approx(c_ground, abs=1e-8)


def test_ground_state_density_nondegenerate_is_projector():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.5, delta=0.0)
    dec = decompose(build_full(spec))
    rho = ground_state_density(dec)
    assert np.allclose(rho @ rho, rho, atol=1e-12)


def test_concurrence_bell_and_product():
    assert concurrence(BELL).value == pytest.approx(1.0, abs=1e-12)
    assert concurrence(PRODUCT).value == 0.0


def test_concurrence_invariant_under_qubit_swap():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    rng = np.random.default_rng(38)
    for _ in range(100):
        rho = _random_density(rng)
        assert concurrence(swap @ rho @ swap).value == pytest.approx(
            concurrence(rho).value, abs=1e-12
        )


def test_concurrence_lambda_invariant():
    rng = np.random.default_rng(34)
    for _ in range(200):
        res = concurrence(_random_density(rng))
        assert 0.0 <= res.value <= 1.0
        l1, l2, l3, l4 = res.lambdas
        assert l1 >= l2 >= l3 >= l4 >= 0
        assert res.value == pytest.approx(max(0.0, l1 - l2 - l3 - l4), abs=1e-12)


def test_lambda_paths_agree():
    rng = np.random.default_rng(35)
    for _ in range(1000):
        rho = _random_density(rng)
        sym = np.array(concurrence(rho).lambdas)
        direct = concurrence_lambdas_direct(rho)
        assert np.max(np.abs(sym - direct)) < 1e-8


def test_pure_two_up_states_against_direct_lambdas():
    rng = np.random.default_rng(36)
    basis = build_sector_basis(4, 2)
    for _ in range(100):
        amps = rng.standard_normal(6)
        amps /= np.linalg.norm(amps)
        state = PureState.from_sector(basis, amps)
        for pair in ((1, 4), (2, 3), (1, 3)):
            rho = reduce_pair(state, *pair)
            lam = concurrence_lambdas_direct(rho)
            expected = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
            assert concurrence(rho).value == pytest.approx(expected, abs=1e-10)


def test_embedded_pure_pair_matches_two_qubit_formula():
    # sites (1, 2) in a random pure state, sites (3, 4) in a basis state:
    # the reduced pair state is pure and C = 2 |ad - bc|
    rng = np.random.default_rng(37)
    for _ in range(50):
        pair_amps = rng.standard_normal(4)
        pair_amps /= np.linalg.norm(pair_amps)
        full = np.zeros(16)
        full[0b0010 : 0b0010 + 16 : 4] = pair_amps  # environment fixed at |10>
        rho = _pure_pair(full, 1, 2)
        a, b, c, d = pair_amps
        assert concurrence(rho).value == pytest.approx(2 * abs(a * d - b * c), abs=1e-10)


def test_ground_state_c13_reproduces_closed_form():
    for delta in np.arange(0.0, 3.01, 0.25):
        b = 0.5 * critical_field_3site(delta, 1.0).b_critical
        b = max(b, 0.1)
        spec = ChainSpec.uniform(3, coupling=1.0, field=b, delta=delta)
        rho = _ground_pair(spec, 1, 3)
        assert concurrence(rho).value == pytest.approx(
            c13_ground(delta, 1.0), abs=1e-9
        )


def test_concurrence_rejects_invalid_density_matrices():
    with pytest.raises(DomainError):
        concurrence(np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(DomainError):
        concurrence(bad)


def test_pure_state_normalization_enforced():
    basis = build_sector_basis(2, 1)
    with pytest.raises(DomainError):
        PureState.from_sector(basis, np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        PureState.from_sector(basis, np.zeros(3))
