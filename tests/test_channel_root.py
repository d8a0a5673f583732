"""The channel's secular roots: ``channel._root`` returns the bits of the
reference bisection (``reference._bisect``) in a handful of evaluations.

Every secular form of ``channel._ground_wavenumber`` goes through the one
finder, so the reference is swapped in for it, and a counting wrapper
around it counts the evaluations of each root.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import _bisect

from xxzchain import channel

K_MAX = 5 * 10**6


def seeded_cases(count: int, seed: int) -> list[tuple[int, float]]:
    """``count`` (k, beta) pairs, k log-uniform in [2, K_MAX], cycling through
    beta log-uniform in [1e-6, 1e6], beta = 1 +/- 10^-15..10^-1 and beta on
    either side of the symmetric threshold (2k + 1)/(2k - 1) by a relative
    10^-16..10^-1."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        k = round(math.exp(rng.uniform(math.log(2), math.log(K_MAX))))
        sign = rng.choice((-1.0, 1.0))
        if i % 3 == 0:
            beta = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        elif i % 3 == 1:
            beta = 1.0 + sign * 10.0 ** rng.uniform(-15, -1)
        else:
            beta = (2.0 * k + 1.0) / (2.0 * k - 1.0) * (1.0 + sign * 10.0 ** rng.uniform(-16, -1))
        cases.append((k, beta))
    return cases


def _wavenumbers(cases, antisymmetric: bool) -> list[tuple[float, bool]]:
    return [channel._ground_wavenumber(k, beta, antisymmetric) for k, beta in cases]


def _reference(monkeypatch, cases, antisymmetric: bool) -> list[tuple[float, bool]]:
    with monkeypatch.context() as patched:
        patched.setattr(channel, "_root", _bisect)
        return _wavenumbers(cases, antisymmetric)


def _counting(monkeypatch) -> list[int]:
    """Route every root through a wrapper that counts its ``secular`` calls;
    the returned list gets one count per root."""
    counts, root = [], channel._root

    def counted_root(fn, lo, hi):
        counts.append(0)

        def counted(x):
            counts[-1] += 1
            return fn(x)

        return root(counted, lo, hi)

    monkeypatch.setattr(channel, "_root", counted_root)
    return counts


@pytest.fixture(scope="module")
def antisymmetric_cases():
    return seeded_cases(20_001, 2101)


def test_antisymmetric_roots_are_the_reference_bisection_bit_for_bit(
    monkeypatch, antisymmetric_cases
):
    # both antisymmetric branches (bound above beta = 1, band below), with
    # roots next to both bracket ends and next to 0
    found = _wavenumbers(antisymmetric_cases, True)
    assert {bound for _, bound in found} == {True, False}
    assert found == _reference(monkeypatch, antisymmetric_cases, True)


_BETAS = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6),
    st.builds(lambda e, s: 1.0 + s * 10.0**e, st.floats(-15, -1), st.sampled_from((-1.0, 1.0))),
    st.sampled_from((1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=K_MAX), _BETAS)
def test_antisymmetric_root_is_the_reference_bisection(k, beta):
    found = channel._ground_wavenumber(k, beta, True)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(channel, "_root", _bisect)
        assert found == channel._ground_wavenumber(k, beta, True)


def test_symmetric_roots_keep_the_reference_energy(monkeypatch):
    # next to the bound-state threshold the computed symmetric forms are not
    # monotone over a stretch of floats, and the finder may land on another
    # float of it than bisection does; those roots feed only the
    # near-degeneracy flag, whose energy stays within a few ulps
    cases = seeded_cases(3000, 2102)
    found = [channel._block_ground(k, 1.0, beta / 2.0, False) for k, beta in cases]
    with monkeypatch.context() as patched:
        patched.setattr(channel, "_root", _bisect)
        expected = [channel._block_ground(k, 1.0, beta / 2.0, False) for k, beta in cases]
    for (k, beta), (energy, _, bound), (energy_ref, _, bound_ref) in zip(cases, found, expected):
        assert bound == bound_ref
        assert abs(energy - energy_ref) <= 4 * math.ulp(energy_ref), (k, beta)


def test_channel_long_roots_take_at_most_three_evaluations(monkeypatch):
    # the benchmark's channel grid: N = 250, 500, 1000 and 38 betas from 1.5
    # in steps of 0.5, whose roots lie within a float of ln beta
    counts = _counting(monkeypatch)
    for n in (250, 500, 1000):
        for m in range(38):
            channel._ground_wavenumber(n // 2, 1.5 + 0.5 * m, True)
    assert len(counts) == 114 and max(counts) <= 3


def test_seeded_antisymmetric_roots_average_at_most_twenty_evaluations(
    monkeypatch, antisymmetric_cases
):
    counts = _counting(monkeypatch)
    _wavenumbers(antisymmetric_cases, True)
    assert len(counts) == len(antisymmetric_cases) - sum(b == 1.0 for _, b in antisymmetric_cases)
    assert sum(counts) / len(counts) <= 20.0


def test_design_report_is_the_reference_bisection_search(monkeypatch):
    # design's crossing search goes through the same finder; with the
    # reference swapped in it is a plain halving search of the bracket
    rng = random.Random(2103)
    cases = [
        (2 * rng.randint(2, 2000), rng.choice((rng.random(), 1.0 - 10.0 ** rng.uniform(-12, -1))))
        for _ in range(60)
    ] + [(n, t) for n in (4, 8, 20, 250, 1000) for t in (0.5, 0.9, 0.99, 0.999999)]
    found = [channel.design_report(n, t) for n, t in cases]
    with monkeypatch.context() as patched:
        patched.setattr(channel, "_root", _bisect)
        assert found == [channel.design_report(n, t) for n, t in cases]
