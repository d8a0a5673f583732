import math

import numpy as np
import pytest

from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.eigensolver import decompose, ground_space
from xxzchain.errors import DomainError
from xxzchain.hamiltonian import build_full, build_sector


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def test_one_by_one():
    dec = decompose(np.array([[3.5]]))
    assert dec.eigenvalues[0] == 3.5
    assert dec.eigenvectors[0, 0] == 1.0


def test_pauli_x():
    dec = decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)
    s = 1 / math.sqrt(2)
    assert np.allclose(np.abs(dec.eigenvectors), s, atol=1e-15)


def test_three_site_one_up_ground_energy():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.5, delta=1.0)
    dec = decompose(build_sector(spec, build_sector_basis(3, 1)))
    assert dec.eigenvalues[0] == pytest.approx(-2.5, abs=1e-12)


def test_ascending_order_and_pairing():
    rng = np.random.default_rng(21)
    a = _random_symmetric(rng, 40)
    dec = decompose(a)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    for m in range(40):
        v = dec.eigenvectors[:, m]
        resid = np.max(np.abs(a @ v - dec.eigenvalues[m] * v))
        assert resid <= 1e-9 * (1 + np.max(np.abs(a).sum(axis=1)))


def test_orthonormality():
    rng = np.random.default_rng(22)
    dec = decompose(_random_symmetric(rng, 60))
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(60))) < 1e-9


def test_reconstruction():
    rng = np.random.default_rng(23)
    for n in (5, 50, 200):
        a = _random_symmetric(rng, n)
        dec = decompose(a)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(rebuilt - a)) < 1e-8


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(25)
    a = _random_symmetric(rng, 64)
    d1 = decompose(a.copy())
    d2 = decompose(a.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_ground_space_degenerate_three_site():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.0, delta=1.0)
    dec = decompose(build_full(spec))
    assert len(ground_space(dec)) == 2


def test_ground_space_unique_inside_shaded_region():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.5, delta=0.0)
    dec = decompose(build_full(spec))
    assert ground_space(dec) == [0]


def test_ground_space_identity():
    dec = decompose(np.eye(7))
    assert len(ground_space(dec)) == 7


def test_rejects_bad_input():
    with pytest.raises(DomainError):
        decompose(np.array([[1.0, float("inf")], [float("inf"), 1.0]]))
    with pytest.raises(DomainError):
        decompose(np.zeros((2, 3)))
