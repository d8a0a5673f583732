"""The per-sweep block plan and the T = 0 level window of the sweep core.

A sweep builds its S^z blocks once, in one pass (``sweep._BlockPlan``), and
only puts each delta's diagonal together, a chunk of deltas at a time; at
T = 0 every block keeps just the levels within the window of its own lowest
that can ever be ground.  These tests pin that the blocks are built once,
that each part is assembled once per delta, how many matrices are
decomposed (at T = 0 the certificate of ``tests/test_sweep_certificate.py``
spares some), and that neither dropping levels nor the chunking of the
deltas changes a bit of a row.
"""

import copy
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import joined_field_rows, phase_points
from xxzchain import hamiltonian, sweep
from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.sweep import (
    _BlockPlan,
    classify_ground_state,
    concurrence_curve,
    ground_regimes,
    phase_scan,
    sector_boundary_concurrence,
)


def _count(monkeypatch, name: str, module=sweep) -> list:
    """Patch ``name`` where the sweep core (or the part assembly of
    ``hamiltonian``) calls it to record each call."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _stacked(calls: list, position: int, ndim: int) -> int:
    """How many matrices the recorded ``calls`` were about: the stack depth
    of their argument at ``position``, which has ``ndim`` axes for one
    matrix (the diagonal of ``_dense``, the matrix of ``decompose``)."""
    return sum(int(np.prod(np.shape(args[position])[:-ndim])) for args in calls)


def _parts_per_delta(monkeypatch, spec: ChainSpec, pair) -> int:
    """How many parts one delta assembles: the matrices a one-off spectrum,
    which keeps every level, decomposes."""
    with monkeypatch.context() as patch:
        calls = _count(patch, "decompose")
        _BlockPlan(spec, pair).spectrum(spec.delta)
    return _stacked(calls, 0, 2)


def _labels(n: int, sectors) -> list[int]:
    """The labels of the blocks ``sectors`` of an n-site chain, ascending."""
    return sorted(state for k in sectors for state in build_sector_basis(n, k).states)


_COUPLINGS = [(1.0,) * 6, (1.0, 0.7, 1.3, 0.9, 1.1, 0.6)]  # palindromic, generic


@pytest.mark.parametrize("couplings", _COUPLINGS)
def test_a_phase_scan_builds_each_block_once(monkeypatch, couplings):
    template = ChainSpec(7, couplings, (0.0,) * 7, 0.0)
    deltas = (-0.5, 0.0, 0.5, 1.0)
    per_delta = _parts_per_delta(monkeypatch, template, (1, 7))
    bases = _count(monkeypatch, "build_sector_basis")
    passes = _count(monkeypatch, "_hopping", hamiltonian)
    parts = _count(monkeypatch, "_dense")
    solves = _count(monkeypatch, "decompose")
    rows = list(phase_scan(template, deltas, (0.0, 0.8, 2.5)))
    assert len(rows) == 12
    # zero field: the spin flip leaves blocks k = 0..3 to decompose, built
    # in one pass over their labels, each label once
    assert [args[1] for args in bases] == [0, 1, 2, 3]
    assert len(passes) == 1 and sorted(passes[0][1].tolist()) == _labels(7, range(4))
    assert _stacked(parts, 2, 1) == len(deltas) * per_delta
    # one per block: at T = 0 the certificate spares every odd half of the
    # palindromic chain, whose blocks have their lowest level in the even half
    assert _stacked(solves, 0, 2) == len(deltas) * 4


@pytest.mark.parametrize("temperature", [0.0, 0.3])
@pytest.mark.parametrize("couplings", _COUPLINGS)
def test_a_curve_builds_each_block_once(monkeypatch, couplings, temperature):
    template = ChainSpec(7, couplings, (0.0,) * 7, 0.0, temperature)
    deltas = (0.0, 0.5, 1.0)
    per_delta = _parts_per_delta(monkeypatch, template, (2, 6))
    bases = _count(monkeypatch, "build_sector_basis")
    passes = _count(monkeypatch, "_hopping", hamiltonian)
    parts = _count(monkeypatch, "_dense")
    solves = _count(monkeypatch, "decompose")
    rows = list(concurrence_curve(template, (6, 2), (0.0, 0.4, 1.2), deltas))
    assert len(rows) == 9
    assert len(bases) == 4
    assert len(passes) == 1 and sorted(passes[0][1].tolist()) == _labels(7, range(4))
    assert _stacked(parts, 2, 1) == len(deltas) * per_delta
    # T > 0 decomposes every part; T = 0 one per block, as in the phase scan
    assert _stacked(solves, 0, 2) == len(deltas) * (per_delta if temperature > 0 else 4)


def _chunked_rows(spec: ChainSpec, deltas, fields) -> str:
    """Every row kind of ``spec`` over the grid, at T = 0 and T = 0.2, as
    the repr of its floats (exact to the last bit, signed zeros included)."""
    n = spec.n_sites
    rows = [astuple(p) for p in phase_scan(spec, deltas, fields)]
    for temperature in (0.0, 0.2):
        template = replace(spec, temperature=temperature)
        rows += list(concurrence_curve(template, (1, n), fields, deltas))
        if n > 3:
            rows += list(concurrence_curve(template, (2, n - 1), fields, deltas))
    return repr(rows)


@pytest.mark.parametrize("n", range(2, 12))
def test_rows_are_the_same_bits_however_the_deltas_are_chunked(monkeypatch, n):
    # a chunk of one delta, the default and every delta of a call in one
    # chunk; zero, palindromic and generic fields, signed couplings.  The
    # field 2e7 widens the T = 0 window to several levels a part, a number
    # that differs between the deltas of a chunk.  From n = 9 on a chunk's
    # blocks are split across the CPUs, stacked chunks included
    rng = np.random.default_rng(3000 + n)
    half = rng.uniform(0.3, 1.5, (n - 1) // 2).tolist()
    palindromic = tuple(half + rng.uniform(0.3, 1.5, (n - 1) % 2).tolist() + half[::-1])
    sites = rng.uniform(-1.0, 1.0, (n + 1) // 2).tolist()
    specs = [
        ChainSpec(n, palindromic, (0.0,) * n, 0.0),
        ChainSpec(n, palindromic, tuple(sites + sites[: n // 2][::-1]), 0.0),
        ChainSpec(n, tuple(rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.3, 1.5, n - 1)),
                  tuple(rng.uniform(-1.0, 1.0, n)), 0.0),
    ]
    deltas = tuple(rng.uniform(-1.5, 2.0, 7).tolist()) + (1.0,)
    fields = (0.0, 0.25, *rng.uniform(-2.0, 2.0, 5).tolist(), 2e7)
    for spec in specs:
        expected = _chunked_rows(spec, deltas, fields)
        for stack, chunk in ((1, 1), (2**40, len(deltas))):
            with monkeypatch.context() as patch:
                patch.setattr(sweep, "_STACK_BYTES", stack)
                assert min(_BlockPlan(spec, (1, n)).chunk, len(deltas)) == chunk
                assert _chunked_rows(spec, deltas, fields) == expected


def _generic(n: int, seed: int) -> ChainSpec:
    """A seeded chain of ``n`` sites with neither symmetry: signed generic
    couplings and generic site fields."""
    rng = np.random.default_rng(seed)
    couplings = rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.3, 1.5, n - 1)
    return ChainSpec(n, tuple(couplings), tuple(rng.uniform(-1.0, 1.0, n)), 0.0)


@pytest.mark.parametrize("n", range(2, 15))
def test_a_stack_of_deltas_stays_within_its_byte_bound(n):
    # as many deltas a chunk as the bound holds, at least one; the blocks
    # are split across the CPUs where a part has more than 45 states
    specs = [ChainSpec.uniform(n)] + [_generic(n, 3200 + 10 * n + s) for s in range(2)]
    for spec in specs if n <= 12 else specs[:1]:
        plan = _BlockPlan(spec, (1, n))
        largest = max(len(part[0]) for block in plan.blocks for part in block.parts)
        stack = 8 * largest**2
        assert plan.chunk == 1 or plan.chunk * stack <= sweep._STACK_BYTES, spec
        assert (plan.chunk + 1) * stack > sweep._STACK_BYTES, spec
        assert plan.split == (largest > 45), spec
    assert (_BlockPlan(ChainSpec.uniform(n), (1, n)).chunk == 1) == (n >= 12)


@pytest.mark.parametrize("couplings", [(1.0,) * 11, (1.0, 0.7, 1.3, 0.9, 1.1, 0.6, 0.8, 1.2, 0.9, 1.1, 0.7)])
def test_building_a_plan_holds_no_whole_block_matrix(couplings):
    # a 12-site plan keeps blocks k = 0..6; the largest, k = 6, has 924 states
    spec = ChainSpec(12, couplings, (0.0,) * 12, 0.5)
    _BlockPlan(spec, (1, 12))
    tracemalloc.start()
    try:
        _BlockPlan(spec, (1, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 924**2


def test_the_window_drops_levels_only_at_zero_temperature():
    plan = _BlockPlan(ChainSpec.uniform(10), (1, 10))
    fields = np.linspace(0.0, 3.0, 26)
    assert len(plan.spectrum(1.0).energies) == 2**10
    pruned = plan.spectrum(1.0, max(map(abs, fields)))
    assert len(pruned.energies) < 30
    assert sorted(set(pruned.sector.tolist())) == list(range(11))


def test_ground_regimes_read_only_the_levels_that_can_be_ground(monkeypatch):
    kept = []
    spectrum = _BlockPlan.spectrum

    def recording(plan, *args):
        result = spectrum(plan, *args)
        kept.append(len(result.energies))
        return result

    monkeypatch.setattr(_BlockPlan, "spectrum", recording)
    ground_regimes(ChainSpec.uniform(10))
    assert len(kept) == 1 and kept[0] < 30


_unit = st.floats(0.2, 1.5, allow_nan=False)


@st.composite
def _cases(draw):
    """A spec (n <= 7; palindromic or generic couplings; zero, palindromic or
    generic site fields), a site pair, and the fields B = 0 and the exact
    crossings of adjacent sectors' ground levels, plus a few others."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        half = draw(st.lists(_unit, min_size=(n - 1) // 2, max_size=(n - 1) // 2))
        couplings = tuple(half + ([draw(_unit)] if (n - 1) % 2 else []) + half[::-1])
    else:
        couplings = tuple(draw(st.lists(_unit, min_size=n - 1, max_size=n - 1)))
    shape = draw(st.sampled_from(["zero", "zero", "palindromic", "generic"]))
    site = st.floats(-1.0, 1.0, allow_nan=False)
    if shape == "zero":
        fields = (0.0,) * n
    elif shape == "palindromic":
        half = draw(st.lists(site, min_size=(n + 1) // 2, max_size=(n + 1) // 2))
        fields = tuple(half + half[: n // 2][::-1])
    else:
        fields = tuple(draw(st.lists(site, min_size=n, max_size=n)))
    spec = ChainSpec(n, couplings, fields, draw(st.floats(-1.5, 2.0, allow_nan=False)))
    pair = tuple(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
    full = _BlockPlan(spec, pair).spectrum(spec.delta)
    lows = [float(full.energies[full.sector == k].min()) for k in range(n + 1)]
    crossings = [0.5 * (lows[k] - lows[k + 1]) for k in range(n)]
    others = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), max_size=4))
    return spec, pair, full, draw(st.permutations([0.0, *crossings, *others]))


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_cases())
def test_zero_temperature_rows_of_the_window_equal_every_level_rows(case):
    spec, pair, full, fields = case
    expected = [a.tobytes() for a in joined_field_rows(full, fields)]
    plan = _BlockPlan(spec, pair)
    grid = plan.spectrum(spec.delta, max(map(abs, fields)))
    assert len(grid.energies) <= len(full.energies)
    assert [a.tobytes() for a in joined_field_rows(grid, fields)] == expected
    for m, b in enumerate(fields):
        # a single field has a narrower window than the whole grid
        single = joined_field_rows(plan.spectrum(spec.delta, abs(b)), (b,))
        assert [a[m] for a in joined_field_rows(full, fields)] == [a[0] for a in single]


def test_a_many_fold_ground_space_classifies_as_its_phase_scan_row():
    # the isotropic ferromagnet (hopping 1, delta = -1) has every sector's
    # lowest level at one energy at B = 0: a 7-fold ground space across all
    # sectors, whose mixture sums many distinct pair-data rows
    template = ChainSpec.uniform(6, delta=-1.0)
    fields = (0.0, 0.7, 2.5)
    scan = list(phase_scan(template, (-1.0,), fields))
    point = classify_ground_state(template)
    assert point == scan[0]
    assert (point.n_up, point.degeneracy) == (0, 7)
    (expected,) = phase_points(_BlockPlan(template, (1, 6)).spectrum(-1.0), -1.0, (0.0,))
    assert point == expected


@pytest.mark.parametrize("weak", [0.0, 1e-11])
def test_a_many_fold_ground_space_keeps_its_curve_row_whatever_the_grid(weak):
    # three dimers at B = J/2: each dimer's singlet ties with its all-down
    # state, so the ground space is 8-fold across sectors 0..3, and the
    # concurrence of a dimer's two sites is 1/2.  A weak link between them
    # splits the levels within a sector far above roundoff, yet inside the
    # degeneracy window, so the window must keep them all
    template = ChainSpec(6, (1.0, weak, 1.0, weak, 1.0), (0.0,) * 6, 0.0)
    grid = (-1.0, 0.25, 0.5, 3.0)
    rows = list(concurrence_curve(template, (1, 2), grid, (0.0,)))
    ((_, _, single),) = concurrence_curve(template, (1, 2), (0.5,), (0.0,))
    assert rows[2][2] == single
    assert abs(single - 0.5) <= 1e-10
    full = _BlockPlan(template, (1, 2)).spectrum(0.0)
    _, n_up, degeneracy, c = joined_field_rows(full, grid)
    assert (n_up[2], degeneracy[2]) == (0, 8)
    assert [row[2] for row in rows] == c.tolist()
    rest = replace(template, fields=(0.5,) * 6)
    assert classify_ground_state(rest).degeneracy == 8


@pytest.mark.parametrize(
    "cold",
    [
        ChainSpec.uniform(6, delta=0.4),
        ChainSpec(5, (1.0, 0.8, 0.8, 1.0), (0.1, 0.0, 0.2, 0.0, 0.1), 0.4),
    ],
)
def test_only_the_curve_reads_the_template_temperature(cold):
    # phase_scan, classify_ground_state, ground_regimes and
    # sector_boundary_concurrence are T = 0 by definition: a spec's
    # temperature changes no bit of them (repr shows every bit of a float)
    warm = replace(cold, temperature=0.3)
    deltas, fields = (-0.5, 0.4, 1.0), (0.0, 0.3, 1.2)
    for read in (
        lambda spec: list(phase_scan(spec, deltas, fields)),
        classify_ground_state,
        ground_regimes,
        lambda spec: sector_boundary_concurrence(spec, 2),
    ):
        assert repr(read(warm)) == repr(read(cold))
    curve = [list(concurrence_curve(spec, (1, 3), fields, deltas)) for spec in (cold, warm)]
    assert curve[0] != curve[1]


def test_levels_that_are_not_ground_change_no_bit_of_a_zero_temperature_row():
    # the ferromagnet's 7-fold ground space at B = 0, given distinct random
    # pair states with a positive concurrence: the ground mixture must not
    # depend on where the other levels sit between its members
    full = _BlockPlan(ChainSpec.uniform(6), (1, 6)).spectrum(-1.0)
    rng = np.random.default_rng(8)
    p = rng.dirichlet([0.3, 4.0, 4.0, 0.3], len(full.energies))
    c = rng.uniform(0.5, 1.0, len(p)) * np.sqrt(p[:, 1] * p[:, 2])
    full.pair_data = np.column_stack([p, c])
    _, _, degeneracy, expected = joined_field_rows(full, (0.0,))
    assert degeneracy[0] == 7 and expected[0] > 0.1
    ground = full.energies <= full.energies.min() + 1e-9
    for keep in (ground, ground | (rng.random(len(ground)) < 0.5)):
        pruned = copy.copy(full)
        pruned.energies, pruned.pair_data = full.energies[keep], full.pair_data[keep]
        pruned.sector, pruned.shift = full.sector[keep], full.shift[keep]
        assert joined_field_rows(pruned, (0.0,))[3].tobytes() == expected.tobytes()
