from math import comb

import numpy as np
import pytest
from reference import spin_sign

from xxzchain.chain import ChainSpec, build_sector_basis, site_mask
from xxzchain.errors import DomainError


def test_sector_basis_trivial_all_down():
    basis = build_sector_basis(3, 0)
    assert basis.states == (0b000,)


def test_sector_basis_one_up_three_sites():
    basis = build_sector_basis(3, 1)
    assert basis.states == (0b001, 0b010, 0b100)
    assert len(basis) == 3


def test_sector_basis_four_sites_two_up():
    basis = build_sector_basis(4, 2)
    assert len(basis) == 6
    assert all(bin(s).count("1") == 2 for s in basis.states)


def test_sector_basis_sorted_with_exact_inverse():
    basis = build_sector_basis(7, 3)
    assert list(basis.states) == sorted(basis.states)
    states = basis.state_array()
    for m, s in enumerate(basis.states):
        assert np.searchsorted(states, s) == m


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
def test_sectors_partition_full_space(n):
    seen = set()
    total = 0
    for k in range(n + 1):
        basis = build_sector_basis(n, k)
        assert len(basis) == comb(n, k)
        total += len(basis)
        assert seen.isdisjoint(basis.states)
        seen.update(basis.states)
    assert total == 2**n
    assert seen == set(range(2**n))


def test_sector_basis_rejects_out_of_range():
    with pytest.raises(DomainError):
        build_sector_basis(4, 5)
    with pytest.raises(DomainError):
        build_sector_basis(4, -1)


def test_spin_convention_site_one_is_most_significant():
    # site 1 up in a 3-site chain is the integer 4, not 1
    assert site_mask(1, 3) == 0b100
    assert site_mask(3, 3) == 0b001
    assert spin_sign(0b100, 1, 3) == 1
    assert spin_sign(0b100, 3, 3) == -1


def test_chain_spec_validation():
    with pytest.raises(DomainError):
        ChainSpec(n_sites=1, couplings=(), fields=(0.0,), delta=0.0)
    with pytest.raises(DomainError):
        ChainSpec(n_sites=3, couplings=(1.0,), fields=(0.0,) * 3, delta=0.0)
    with pytest.raises(DomainError):
        ChainSpec(n_sites=3, couplings=(1.0, 1.0), fields=(0.0,) * 2, delta=0.0)
    with pytest.raises(DomainError):
        ChainSpec.uniform(3, temperature=-1.0)
    with pytest.raises(DomainError):
        ChainSpec(n_sites=2, couplings=(float("nan"),), fields=(0.0, 0.0), delta=0.0)


def test_chain_spec_uniform():
    spec = ChainSpec.uniform(4, coupling=2.0, field=0.5, delta=1.0)
    assert spec.couplings == (2.0, 2.0, 2.0)
    assert spec.fields == (0.5, 0.5, 0.5, 0.5)


def test_chain_spec_from_dict_rejects_garbage():
    for document in ("not json", {"n_sites": 3}, [1, 2]):
        with pytest.raises(DomainError):
            ChainSpec.from_dict(document)
    # a fractional site count or a boolean is refused, not truncated or read as 1
    good = {"n_sites": 3, "couplings": [1, 1], "fields": [0, 0, 0], "delta": 0}
    assert ChainSpec.from_dict({**good, "n_sites": 3.0}) == ChainSpec.from_dict(good)
    for bad in ({"n_sites": 3.5}, {"n_sites": True}, {"couplings": [1, True]},
                {"fields": [0, False, 0]}, {"delta": True}, {"temperature": False}):
        with pytest.raises(DomainError):
            ChainSpec.from_dict({**good, **bad})


def test_chain_spec_from_dict_refuses_strings():
    # int("3") and float("0.5") would parse these, and a string list would
    # be read one character at a time
    good = {"n_sites": 3, "couplings": [1, 1], "fields": [0, 0, 0], "delta": 0}
    for bad in ({"n_sites": "3"}, {"couplings": "11"}, {"fields": "000"},
                {"couplings": [1, "1"]}, {"delta": "0.5"}, {"temperature": "0"}):
        with pytest.raises(DomainError, match="must be"):
            ChainSpec.from_dict({**good, **bad})

