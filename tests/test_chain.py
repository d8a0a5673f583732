import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from reference import spin_sign

from xxzchain import chain
from xxzchain.chain import ChainSpec, _shown, build_sector_basis, site_mask
from xxzchain.channel import build_channel, design_channel
from xxzchain.closed_forms import c14_ground_regimes
from xxzchain.errors import DomainError, ResourceCapError
from xxzchain.sweep import concurrence_curve, phase_scan, sector_boundary_concurrence


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: design_channel(4, 10**5000, 1),
        lambda: design_channel(10**5000, 1, 1),
        lambda: phase_scan(ChainSpec.uniform(4), (10**5000,), (0.0,)),
        lambda: build_channel(-(10**5000), 1, 1),
        lambda: ChainSpec(4, 10**5000, (0.0,) * 4, 0.0),
        lambda: build_sector_basis(3, 10**5000),
        lambda: sector_boundary_concurrence(ChainSpec.uniform(4), 10**5000),
        lambda: list(concurrence_curve(ChainSpec.uniform(4), (10**5000, 1), (0.0,), (0.0,))),
        lambda: c14_ground_regimes(10**5000),
    ],
)
def test_an_int_too_long_to_print_is_shown_by_its_digit_count(call):
    # repr of an int past 4,300 digits raises ValueError, so each message
    # shows the digit count instead and the library's own error is raised
    with pytest.raises((DomainError, ResourceCapError), match=r"10\^5000 or (more|less)"):
        call()


def test_shown_gives_an_exact_digit_count_or_the_type_of_an_over_long_value():
    assert _shown(10**4300 - 1) == "9" * 4300
    assert _shown(10**4300) == _shown(10**4301 - 1) == "10^4300 or more"
    assert _shown(-(10**6000)) == "-10^6000 or less"
    assert _shown(Fraction(10**5000, 3)) == "a Fraction too long to print"
    with pytest.raises(DomainError, match="got a tuple too long to print"):
        list(concurrence_curve(ChainSpec.uniform(4), (10**5000,), (0.0,), (0.0,)))


def test_chain_builders_refuse_a_length_over_the_site_cap_before_building(monkeypatch):
    # one cap, read when called, bounds every builder before a tuple of
    # length N exists: an N past the float range is a cap error, not an
    # OverflowError, and nothing of size N is allocated
    with pytest.raises(ResourceCapError, match="chain of 1000+ sites exceeds the cap of 10000000"):
        ChainSpec.uniform(10**400)
    monkeypatch.setattr(chain, "SITE_CAP", 100)
    assert ChainSpec.uniform(100).n_sites == 100
    assert len(build_sector_basis(100, 1)) == 100
    # 5000 one-up labels of up to 5000 bits would take about 1.6 MB
    for call, n, what in (
        (ChainSpec.uniform, 10**6, "chain"),
        (lambda n: build_sector_basis(n, 1), 5000, "chain"),
        (lambda n: build_channel(n, 1.0, 1.0), 10**6, "channel"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=f"{what} of {n} sites exceeds the cap of 100"):
                call(n)
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()
