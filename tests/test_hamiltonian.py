import math

import numpy as np
import pytest

from analytic import spectrum_3site
from reference import diagonal_energy, matrix_to_csv

from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.channel import build_channel
from xxzchain.errors import DomainError, ResourceCapError
from xxzchain.hamiltonian import build_full, build_sector


def _random_spec(rng, n):
    return ChainSpec(
        n_sites=n,
        couplings=tuple(rng.uniform(-2, 2, n - 1)),
        fields=tuple(rng.uniform(-2, 2, n)),
        delta=rng.uniform(-2, 2),
    )


def test_all_down_diagonal_energy():
    # |000>: two ferromagnetic bonds and three spins against the field
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.7, delta=0.4)
    h = build_full(spec)
    assert h[0, 0] == pytest.approx(0.4 - 3 * 0.7, abs=1e-15)


def test_two_site_xx_spectrum():
    spec = ChainSpec.uniform(2, coupling=1.0)
    w = np.linalg.eigvalsh(build_full(spec))
    assert np.allclose(w, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_decoupled_spins_in_field_is_diagonal():
    spec = ChainSpec.uniform(3, coupling=0.0, field=1.0, delta=0.0)
    h = build_full(spec)
    assert np.array_equal(h, np.diag(np.diag(h)))
    assert set(np.diag(h)) == {-3.0, -1.0, 1.0, 3.0}


def test_exact_symmetry():
    rng = np.random.default_rng(11)
    for n in (2, 4, 6):
        h = build_full(_random_spec(rng, n))
        assert np.array_equal(h, h.T)


def test_block_structure_commutes_with_magnetization():
    rng = np.random.default_rng(12)
    spec = _random_spec(rng, 6)
    h = build_full(spec)
    pop = np.array([bin(s).count("1") for s in range(64)])
    rows, cols = np.nonzero(h)
    assert np.all(pop[rows] == pop[cols])


def test_three_site_full_spectrum_matches_closed_set():
    rng = np.random.default_rng(13)
    for _ in range(5):
        delta, j, b = rng.uniform(-1.5, 1.5, 3)
        spec = ChainSpec.uniform(3, coupling=j, field=b, delta=delta)
        w = np.sort(np.linalg.eigvalsh(build_full(spec)))
        closed = np.sort(spectrum_3site(delta, j, b))
        assert np.max(np.abs(w - closed)) < 1e-10


def test_one_up_sector_spectrum_three_sites():
    delta, j, b = 1.0, 1.0, 0.5
    spec = ChainSpec.uniform(3, coupling=j, field=b, delta=delta)
    basis = build_sector_basis(3, 1)
    w = np.sort(np.linalg.eigvalsh(build_sector(spec, basis)))
    r = math.sqrt(8 * j * j + delta * delta)
    expected = np.sort([-b, -(delta + r) / 2 - b, -(delta - r) / 2 - b])
    assert np.max(np.abs(w - expected)) < 1e-12


@pytest.mark.parametrize("j_mid", [0.3, 1.0, 2.5])
def test_one_up_impurity_ground_energy(j_mid):
    spec = ChainSpec(
        n_sites=4, couplings=(1.0, j_mid, 1.0), fields=(0.0,) * 4, delta=0.0
    )
    w = np.linalg.eigvalsh(build_sector(spec, build_sector_basis(4, 1)))
    assert w[0] == pytest.approx(-(j_mid + math.sqrt(4 + j_mid * j_mid)) / 2, abs=1e-12)


def test_empty_sector_is_the_all_down_energy():
    rng = np.random.default_rng(14)
    spec = _random_spec(rng, 5)
    h = build_sector(spec, build_sector_basis(5, 0))
    assert h.shape == (1, 1)
    assert h[0, 0] == build_full(spec)[0, 0]


def test_sector_equals_full_restriction():
    rng = np.random.default_rng(15)
    for n in (3, 5, 6):
        spec = _random_spec(rng, n)
        full = build_full(spec)
        for k in range(n + 1):
            basis = build_sector_basis(n, k)
            idx = np.array(basis.states)
            assert np.array_equal(build_sector(spec, basis), full[np.ix_(idx, idx)])


def _loop_sector(spec, basis):
    """Reference assembly: one basis state at a time, partners by dict."""
    n = spec.n_sites
    index_of = {s: m for m, s in enumerate(basis.states)}
    h = np.zeros((len(basis), len(basis)))
    for a, st in enumerate(basis.states):
        h[a, a] = diagonal_energy(spec, st)
        for b in range(n - 1):
            mask = (1 << (n - 1 - b)) | (1 << (n - 2 - b))
            if bin(st & mask).count("1") == 1:
                h[a, index_of[st ^ mask]] = spec.couplings[b]
    return h


def test_sector_equals_loop_reference():
    rng = np.random.default_rng(17)
    # 70 sites: state labels beyond int64
    for n, sectors in ((2, range(3)), (4, range(5)), (7, range(8)), (9, range(10)), (70, (1, 69))):
        spec = _random_spec(rng, n)
        for k in sectors:
            basis = build_sector_basis(n, k)
            assert np.array_equal(build_sector(spec, basis), _loop_sector(spec, basis))


def test_sector_spectra_assemble_full_spectrum():
    rng = np.random.default_rng(16)
    for n in (4, 7):
        spec = _random_spec(rng, n)
        w_full = np.sort(np.linalg.eigvalsh(build_full(spec)))
        parts = [
            np.linalg.eigvalsh(build_sector(spec, build_sector_basis(n, k)))
            for k in range(n + 1)
        ]
        w_sectors = np.sort(np.concatenate(parts))
        assert np.max(np.abs(w_full - w_sectors)) < 1e-10


def test_sector_basis_mismatch_rejected():
    spec = ChainSpec.uniform(4)
    with pytest.raises(DomainError):
        build_sector(spec, build_sector_basis(5, 1))


def test_full_space_cap():
    spec = ChainSpec.uniform(15)
    with pytest.raises(ResourceCapError):
        build_full(spec)


def test_build_channel_layout():
    spec = build_channel(4, 1.0, 5.0)
    assert spec.fields == (0.0, 5.0, 5.0, 0.0)
    assert spec.couplings == (1.0, 1.0, 1.0)
    assert spec.delta == 0.0


def test_build_channel_zero_field_is_bare_xx():
    spec = build_channel(3, 1.0, 0.0)
    assert spec.fields == (0.0, 0.0, 0.0)
    assert spec.delta == 0.0


def test_build_channel_one_up_diagonal():
    # boundary-excited states see -(N-2)B, bulk-excited ones -(N-4)B
    b = 1.7
    spec = build_channel(6, 1.0, b)
    h = build_sector(spec, build_sector_basis(6, 1))
    diag = np.sort(np.diag(h))
    assert np.allclose(diag[:2], -4 * b)
    assert np.allclose(diag[2:], -2 * b)


def test_build_channel_too_short():
    with pytest.raises(DomainError):
        build_channel(2, 1.0, 1.0)


def test_matrix_csv_dump_round_trips():
    rng = np.random.default_rng(17)
    h = build_full(_random_spec(rng, 3))
    text = matrix_to_csv(h)
    parsed = np.array([[float(x) for x in line.split(",")] for line in text.strip().splitlines()])
    assert np.array_equal(parsed, h)
