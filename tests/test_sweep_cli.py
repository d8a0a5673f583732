import io
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analytic import critical_field_3site
from reference import joined_field_rows, scalar_ground_profile

from xxzchain import cli as cli_module
from xxzchain import chain, channel, sweep
from xxzchain.chain import ChainSpec, build_sector_basis, check_grid
from xxzchain.cli import main
from xxzchain.channel import (
    build_channel,
    channel_curve,
    design_channel,
    design_report,
    impurity_profile_chain,
    ratio_profile,
)
from xxzchain.closed_forms import c14_ground_regimes, c1n_channel
from xxzchain.errors import DomainError, NumericError, ResourceCapError
from xxzchain.sweep import (
    classify_ground_state,
    concurrence_curve,
    ground_regimes,
    phase_scan,
    sector_boundary_concurrence,
    table1_rows,
)

SQRT5 = math.sqrt(5.0)


def _config_axis(obj):
    """The CLI's reading of one grid axis config ``obj``."""
    return cli_module._axis({"grid": {"B": obj}}, "B")


def _range(lo, hi, step):
    return _config_axis({"min": lo, "max": hi, "step": step})


def test_grid_axis_from_range_inclusive():
    axis = _range(0.0, 1.0, 0.25)
    assert axis == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_grid_axis_validation():
    with pytest.raises(DomainError):
        _range(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        _range(1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        check_grid(())
    with pytest.raises(DomainError):
        _config_axis({"min": 0.0, "max": 1.0})
    with pytest.raises(DomainError):
        check_grid(_config_axis([0.5, True]))
    with pytest.raises(DomainError):
        _config_axis({"min": False, "max": 1.0, "step": 0.5})


def test_grid_axis_from_config_forms():
    # a list of values goes to the sweep as it is; the sweep reads it
    assert _config_axis([1, 2]) == [1, 2]
    assert _config_axis({"values": [3]}) == [3]
    assert _config_axis({"min": 0, "max": 1, "step": 0.5}) == (
        0.0,
        0.5,
        1.0,
    )


@pytest.mark.parametrize(
    "bounds",
    [
        (0.0, math.inf, 0.5),
        (-math.inf, 1.0, 0.5),
        (math.nan, 1.0, 0.5),
        (0.0, 1.0, math.nan),
        (0.0, 1.0, math.inf),
    ],
)
def test_grid_axis_from_range_refuses_non_finite_bounds(bounds):
    with pytest.raises(DomainError):
        _range(*bounds)


@pytest.mark.parametrize("bounds", [(0.0, 2e6, 1.0), (-1e308, 1e308, 1e-300)])
def test_grid_axis_from_range_refuses_a_huge_range_before_building_it(bounds):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            _range(*bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a tuple of 2e6 floats alone would take about 64 MiB
    assert peak < 256 * 1024


def test_grid_size_cap():
    axis = _range(0.0, 1.0, 0.001)
    with pytest.raises(ResourceCapError):
        check_grid(axis, axis)


def test_phase_scan_three_site_label_flip():
    template = ChainSpec.uniform(3)
    step = 0.05
    points = list(
        phase_scan(
            template,
            (1.0,),
            tuple(step * m for m in range(41)),
        )
    )
    flips = [p.field for p in points if p.n_up == 0]
    expected = critical_field_3site(1.0, 1.0).b_critical
    assert abs(flips[0] - expected) <= step + 1e-12
    assert points[0].degeneracy == 2  # B = 0 line
    assert all(p.n_up == 1 for p in points if 0 < p.field < expected - step)
    assert all(0.0 <= p.boundary_concurrence <= 1.0 for p in points)
    assert all(p.sector_rank == 0 for p in points)


def test_phase_scan_four_site_flips_at_table_boundaries():
    template = ChainSpec.uniform(4)
    step = 0.02
    points = list(
        phase_scan(
            template,
            (0.0,),
            tuple(step * m for m in range(61)),
        )
    )
    first_one_up = next(p.field for p in points if p.n_up == 1)
    first_zero_up = next(p.field for p in points if p.n_up == 0)
    assert abs(first_one_up - (SQRT5 - 1) / 4) <= step + 1e-12
    assert abs(first_zero_up - (SQRT5 + 1) / 4) <= step + 1e-12


def test_phase_scan_respects_full_space_cap():
    with pytest.raises(ResourceCapError):
        next(phase_scan(ChainSpec.uniform(15), (0.0,), (0.0,)))


def test_sweeps_cap_sites_by_their_largest_sector(monkeypatch):
    # C(14, 7) = 3432 states pass; C(15, 7) = 6435 are refused before any
    # basis is built (rows are lazy, so the 14-site calls decompose nothing)
    axis = (0.0,)
    phase_scan(ChainSpec.uniform(14), axis, axis)
    concurrence_curve(ChainSpec.uniform(14), (1, 14), axis, (0.0,))

    def unbuilt(*args):
        raise AssertionError("a basis was built before the cap check")

    monkeypatch.setattr(sweep, "build_sector_basis", unbuilt)
    for call in (
        lambda spec: phase_scan(spec, axis, axis),
        lambda spec: concurrence_curve(spec, (1, 15), axis, (0.0,)),
        classify_ground_state,
    ):
        with pytest.raises(ResourceCapError):
            call(ChainSpec.uniform(15))


def test_curve_checks_its_pair_when_called(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a basis was built before the pair check")

    monkeypatch.setattr(sweep, "build_sector_basis", unbuilt)
    axis = (0.0,)
    for pair in ((1, 9), (2, 2), (0, 3)):
        with pytest.raises(DomainError):
            concurrence_curve(ChainSpec.uniform(4), pair, axis, (0.0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ground_regimes(ChainSpec.uniform(4, delta=1e308)),
        # a finite zero-field scale whose regime walk reaches too far
        lambda: ground_regimes(ChainSpec.uniform(4, delta=5e306)),
        lambda: sweep.sector_boundary_concurrence(ChainSpec.uniform(4, delta=1e308), 2),
        lambda: classify_ground_state(ChainSpec(4, (1.0,) * 3, (1e308,) * 4, 0.0)),
    ],
    ids=["ground_regimes", "ground_regimes_reach", "sector_boundary_concurrence",
         "classify_ground_state"],
)
def test_entry_points_refuse_an_overflowing_scale_before_any_block_is_built(monkeypatch, call):
    def unbuilt(*args):
        raise AssertionError("a basis was built before the scale check")

    monkeypatch.setattr(sweep, "build_sector_basis", unbuilt)
    with pytest.raises(DomainError, match="overflows"):
        call()


def test_curve_three_site_plateau():
    template = ChainSpec.uniform(3)
    rows = list(
        concurrence_curve(
            template, (1, 3), tuple(0.1 + 0.1 * m for m in range(10)), (0.0,)
        )
    )
    for _, b, c in rows:
        if b < math.sqrt(2) / 2 - 0.05:
            assert c == pytest.approx(0.5, abs=1e-10)
        elif b > math.sqrt(2) / 2 + 0.05:
            assert c == pytest.approx(0.0, abs=1e-12)


def test_curve_four_site_plateau_matches_table():
    template = ChainSpec.uniform(4)
    rows = list(
        concurrence_curve(
            template, (1, 4), tuple(0.8 + 0.2 * m for m in range(5)), (1.0,)
        )
    )
    for _, b, c in rows:
        assert c == pytest.approx(0.146447, abs=1e-5)


def test_curve_strong_field_kills_concurrence():
    template = ChainSpec.uniform(3)
    rows = list(
        concurrence_curve(template, (1, 3), (10.0,), (0.5,))
    )
    assert rows[0][2] == 0.0


def test_curve_thermal_template():
    template = ChainSpec.uniform(3, temperature=0.2)
    ((_, _, c_hot),) = concurrence_curve(template, (1, 3), (0.5,), (0.0,))
    assert 0.0 < c_hot < 0.5


def test_curve_at_a_subnormal_temperature_is_its_ground_curve():
    # every gap over T = 1e-310 overflows to inf, with no RuntimeWarning
    fields, deltas = tuple(0.25 * m for m in range(9)), (0.0, 0.5, 1.0)
    cold = list(concurrence_curve(ChainSpec.uniform(4, temperature=1e-310), (1, 4), fields, deltas))
    ground = list(concurrence_curve(ChainSpec.uniform(4), (1, 4), fields, deltas))
    assert [row[:2] for row in cold] == [row[:2] for row in ground]
    assert all(abs(a[2] - b[2]) <= 1e-15 for a, b in zip(cold, ground))


def test_channel_curve_rows():
    rows = list(channel_curve((4, 8), (5.0, 10.0, 12.0)))
    assert len(rows) == 6
    for n, beta, numeric, closed, deviation in rows:
        assert closed == pytest.approx(c1n_channel(beta, n // 2), abs=1e-15)
        assert 0.0 < numeric < 1.0
        assert numeric <= closed + 1e-12  # profile formula is optimistic
        assert deviation > 0
    by_key = {(n, beta): numeric for n, beta, numeric, _, _ in rows}
    assert by_key[(4, 10.0)] < 0.99 < by_key[(4, 12.0)]
    assert by_key[(8, 10.0)] < 0.99 < by_key[(8, 12.0)]


def test_channel_curve_near_flat_beta():
    ((_, _, numeric, closed, _),) = channel_curve((8,), (1.0 + 1e-6,))
    assert closed == pytest.approx(0.25, abs=1e-5)  # 1/k at beta -> 1+
    assert 0.0 < numeric < 1.0


def test_channel_curve_rejects_odd_n():
    # each N is checked in turn, so the first odd one is named
    with pytest.raises(DomainError, match="got 7$"):
        list(channel_curve((4, 7, 9), (5.0,)))


@pytest.mark.parametrize("coupling", [1.0, 0.37])
def test_channel_curve_rows_equal_the_public_route_bit_for_bit(coupling):
    # every regime edge of the folded blocks: beta = 1 for the antisymmetric
    # block and (2k + 1)/(2k - 1) for the symmetric one, at each k = N/2
    n_values = (4, 6, 20, 200, 1000, 2000)
    edges = tuple((n + 1) / (n - 1) for n in n_values)
    betas = (0.0, 0.5, 1.0, 1.0 + 1e-12, *edges, 2.0, 20.0, 1e8)
    rows = list(channel_curve(n_values, betas, coupling))
    assert len(rows) == len(n_values) * len(betas)
    for n, beta, numeric, _, deviation in rows:
        design = design_channel(n, coupling, beta * coupling / 2.0)
        ratios = ratio_profile(design)
        assert type(design.coefficients) is tuple and type(ratios) is tuple
        assert numeric == design.boundary_concurrence
        assert deviation == (max(abs(r - beta) / beta for r in ratios) if beta > 0 else math.inf)
    # at N = 1000, beta = 20 the far coefficients underflow to 0
    assert {row[4] for row in rows if row[:2] == (1000, 20.0)} == {math.inf}


def _bits(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


def test_channel_curve_rows_equal_per_beta_designs_across_chunk_edges():
    # N = 2000 (k = 1000) spreads the betas over chunks of four; N = 10000
    # and 20002 have k > _CHUNK_ENTRIES, so each of their chunks holds one beta
    n_values = (4, 6, 40, 1000, 2000, 10000, 20002)
    betas = (0.0, 0.3, 0.99, 1.0, 1.0 + 1e-7, 1.5, 2.0, 3.0, 10.0, 1e4, 1e8)
    assert len(betas) > 2 * (chain._CHUNK_ENTRIES // 1000)
    assert 10000 // 2 > chain._CHUNK_ENTRIES
    rows = iter(channel_curve(n_values, betas))
    for n in n_values:
        fields = [beta / 2.0 for beta in betas]
        _, numeric, chunk = channel._ground_profiles(n // 2, 1.0, fields)
        for beta, c1n, row in zip(betas, numeric.tolist(), chunk):
            design = design_channel(n, 1.0, beta / 2.0)
            _, (single_c1n,), (single,) = channel._ground_profiles(n // 2, 1.0, (beta / 2.0,))
            assert design.boundary_concurrence == single_c1n == c1n
            e_ref, c1n_ref, row_ref = scalar_ground_profile(n, 1.0, beta / 2.0)
            assert design.coefficients == tuple(row_ref.tolist())
            assert np.array(design.coefficients).tobytes() == row_ref.tobytes()
            assert (design.ground_energy, c1n) == (e_ref, c1n_ref)
            # the kernel rows are the unsigned profile
            assert row.tobytes() == single.tobytes() == np.abs(row_ref).tobytes()
            deviation = (
                max(abs(r - beta) / beta for r in ratio_profile(design)) if beta > 0 else math.inf
            )
            closed = c1n_channel(beta, n // 2) if beta > 1.0 else math.nan
            expected = (n, beta, design.boundary_concurrence, closed, deviation)
            assert _bits(next(rows)) == _bits(expected)
    assert next(rows, None) is None


def test_channel_curve_memory_follows_the_chunk_not_the_beta_axis():
    betas = tuple(1.5 + 0.01 * m for m in range(1000))
    tracemalloc.start()
    try:
        for _ in channel_curve((1000,), betas):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unchunked 1000 x 500 profile array alone would take about 4 MB
    assert peak < 1024 * 1024


def test_design_report_four_sites():
    report = design_report(4, 0.99)
    assert report["status"] == "ok"
    assert report["beta"] == pytest.approx(10.8494, abs=1e-3)
    assert report["bulk_field"] == pytest.approx(5.4247, abs=1e-3)
    assert report["achieved"] >= 0.99


def test_design_report_twenty_sites():
    report = design_report(20, 0.99)
    assert report["status"] == "ok"
    assert 9.9 <= report["beta"] <= 10.1
    assert report["achieved"] >= 0.99 - 1e-12


def test_design_report_already_achieved():
    report = design_report(4, 0.27)
    assert report["status"] == "already-achieved-at-zero-field"
    assert report["bulk_field"] == 0.0
    assert report["achieved"] >= 0.27


def test_design_report_unreachable(monkeypatch):
    monkeypatch.setattr(channel, "BETA_CAP", 20.0)
    report = design_report(4, 0.9999)
    assert report["status"] == "unreachable-below-beta-cap"
    assert report["achieved"] < 0.9999


def test_design_report_tries_the_cap_itself(monkeypatch):
    # doubling from 2 steps past 150 at 256; the cap reaches 0.99995
    monkeypatch.setattr(channel, "BETA_CAP", 150.0)
    report = design_report(4, 0.9999)
    assert report["status"] == "ok"
    assert report["beta"] == pytest.approx(100.985, abs=1e-3)


# beta printed by the earlier search (a profile-formula warm start and a
# 1e-10 relative stop), for each (N, target)
_EARLIER_BETA = {
    (4, 0.5): 1.0000000000582077,
    (4, 0.9): 3.6666666668810617,
    (4, 0.99): 10.849370590026606,
    (4, 0.9999): 100.98499937503067,
    (4, 0.9999999999999999): 54794159.00685124,
    (6, 0.5): 1.4098896665964276,
    (6, 0.9): 3.2880253886972346,
    (6, 0.99): 10.019273798159972,
    (6, 0.9999): 100.00019993998038,
    (6, 0.9999999999999999): 54794158.01001991,
    (20, 0.5): 1.420531925628893,
    (20, 0.9): 3.162277731418791,
    (20, 0.99): 10.000000000326642,
    (20, 0.9999): 100.00000000150139,
    (20, 0.9999999999999999): 54794158.01001991,
    (100, 0.5): 1.4142135623842478,
    (100, 0.9): 3.1622776602834684,
    (100, 0.99): 10.000000000326642,
    (100, 0.9999): 100.00000000150139,
    (100, 0.9999999999999999): 54794158.01001991,
    (1000, 0.5): 1.4142135623842478,
    (1000, 0.9): 3.1622776602834684,
    (1000, 0.99): 10.000000000326642,
    (1000, 0.9999): 100.00000000150139,
    (1000, 0.9999999999999999): 54794158.01001991,
}


@pytest.mark.parametrize("n, target", sorted(_EARLIER_BETA))
def test_design_report_beta_is_the_last_bit_crossing(n, target):
    report = design_report(n, target)
    beta = report["beta"]
    assert report["status"] == "ok"
    assert report["achieved"] >= target
    below = design_channel(n, 1.0, np.nextafter(beta, 0.0) / 2.0).boundary_concurrence
    assert below < target
    assert report["achieved"] == design_channel(n, 1.0, beta / 2.0).boundary_concurrence
    earlier = _EARLIER_BETA[n, target]
    assert abs(beta - earlier) <= 1e-10 * max(1.0, earlier)


def test_design_report_domain():
    with pytest.raises(DomainError):
        design_report(5, 0.9)
    with pytest.raises(DomainError):
        design_report(4, 1.5)


def test_numeric_regimes_against_exact_boundaries():
    rows = ground_regimes(ChainSpec.uniform(4, delta=1.0))
    assert rows[0].b_max == pytest.approx(0.658919, abs=2e-6)
    assert rows[1].b_max == pytest.approx(1 + math.sqrt(2) / 2, abs=2e-6)
    assert rows[1].c14_max == pytest.approx(0.146447, abs=1e-6)
    assert rows[0].energy_at_zero_field == pytest.approx(-3.232051, abs=1e-6)


def test_numeric_regimes_are_exact_crossings():
    rows = ground_regimes(ChainSpec.uniform(4, delta=0.0))
    assert abs(rows[0].b_max - (SQRT5 - 1) / 4) <= 1e-12
    assert abs(rows[1].b_min - (SQRT5 - 1) / 4) <= 1e-12
    assert abs(rows[1].b_max - (SQRT5 + 1) / 4) <= 1e-12
    assert abs(rows[2].b_min - (SQRT5 + 1) / 4) <= 1e-12
    rows = ground_regimes(ChainSpec.uniform(4, delta=1.0))
    assert abs(rows[1].b_max - (1 + 1 / math.sqrt(2))) <= 1e-12


def test_numeric_regimes_at_the_isotropic_ferromagnet_are_one_regime():
    # every sector's lowest level ties at B = 0; the smallest sector wins
    # the tie there, and the field only widens its lead
    for n in range(2, 11):
        rows = ground_regimes(ChainSpec.uniform(n, delta=-1.0))
        assert [(r.b_min, r.b_max, r.n_up) for r in rows] == [(0.0, math.inf, 0)]


def _assert_regimes_tile_as_classified(spec):
    rows = ground_regimes(spec)
    assert rows[0].b_min == 0.0 and rows[-1].b_max == math.inf
    zero = classify_ground_state(spec)
    energy = rows[0].energy_at_zero_field
    assert abs(energy - zero.ground_energy) <= 1e-13 * (1.0 + abs(energy))
    assert all(r.energy_at_zero_field is None for r in rows[1:])
    for left, right in zip(rows, rows[1:]):
        assert left.b_max == right.b_min
        assert left.n_up > right.n_up
    for r in rows:
        assert r.b_min < r.b_max
        assert list(map(type, (r.b_min, r.b_max, r.n_up, r.c14_max))) == [float, float, int, float]
        inside = r.b_min + 0.5 if r.b_max == math.inf else 0.5 * (r.b_min + r.b_max)
        shifted = ChainSpec(
            spec.n_sites, spec.couplings, tuple(b + inside for b in spec.fields), spec.delta
        )
        point = classify_ground_state(shifted)
        assert point.n_up == r.n_up
        assert abs(point.boundary_concurrence - r.c14_max) <= 1e-12
    # the walk reads the same bits as it would off every level
    full = sweep._BlockPlan(spec, (1, spec.n_sites)).spectrum(spec.delta)
    lowest = [full.energies[full.sector == k].min() for k in range(spec.n_sites + 1)]
    for r in rows[:-1]:
        k = r.n_up
        assert r.b_max in [(lowest[j] - lowest[k]) / (2.0 * (k - j)) for j in range(k)]
    interiors = [r.b_min + 0.5 if r.b_max == math.inf else 0.5 * (r.b_min + r.b_max) for r in rows]
    e0, _, _, c1n = joined_field_rows(full, [0.0, *interiors])
    assert energy == e0[0]
    assert [r.c14_max for r in rows] == c1n[1:].tolist()


@pytest.mark.parametrize("delta", [-2.0 + 0.25 * m for m in range(21)] + [-0.999])
def test_numeric_regimes_tile_the_field_axis_as_classified(delta):
    for n in range(2, 11):
        _assert_regimes_tile_as_classified(ChainSpec.uniform(n, delta=delta))


@pytest.mark.parametrize("n", range(2, 11))
def test_regimes_of_seeded_chains_tile_the_field_axis_as_classified(n):
    rng = np.random.default_rng(700 + n)
    half = rng.uniform(0.3, 1.5, n // 2).tolist()
    for couplings in (half + half[: (n - 1) // 2][::-1], rng.uniform(0.3, 1.5, n - 1)):
        fields = (0.0,) * n, tuple(rng.uniform(-0.5, 0.5, n))
        for f in fields:
            spec = ChainSpec(n, tuple(couplings), f, float(rng.uniform(-2.0, 3.0)))
            _assert_regimes_tile_as_classified(spec)
    if n >= 3:
        # the paper's channel: a bulk field absent on the end sites, B on top
        _assert_regimes_tile_as_classified(build_channel(n, 1.0, 2.0))


@pytest.mark.parametrize(
    "rows_of, values",
    [
        (lambda v: concurrence_curve(ChainSpec.uniform(4), (1, 4), (0.0, 0.5), v),
         (0.0, 1.0)),
        (table1_rows, (0.0, 0.5)),
        (lambda v: channel_curve(v, (5.0, 10.0)), (4, 8)),
        (lambda v: phase_scan(ChainSpec.uniform(4), v, (0.0, 0.5)), (0.0, 1.0)),
        (lambda v: phase_scan(ChainSpec.uniform(4), (0.0, 1.0), v), (0.0, 0.5)),
        (lambda v: concurrence_curve(ChainSpec.uniform(4), (1, 4), v, (0.0, 1.0)), (0.0, 0.5)),
        (lambda v: channel_curve((4, 8), v), (5.0, 10.0)),
    ],
    ids=["concurrence_curve", "table1_rows", "channel_curve", "phase_scan_deltas",
         "phase_scan_fields", "concurrence_curve_fields", "channel_curve_betas"],
)
def test_sweeps_read_a_one_shot_iterable_like_a_tuple(rows_of, values):
    expected = list(rows_of(values))
    assert len(expected) in (4, 6)
    assert repr(list(rows_of(iter(values)))) == repr(expected)
    assert repr(list(rows_of(v for v in values))) == repr(expected)
    assert repr(list(rows_of(list(values)))) == repr(expected)


def test_table1_rows_check_every_delta_before_the_first_row():
    with pytest.raises(DomainError):
        table1_rows((0.0, 0.3))


def test_table1_rows_quoted_energy_column():
    rows = [r for r in table1_rows((0.5,)) if r[1] == 0]
    (row,) = rows
    assert row[12] == pytest.approx(-2.712, abs=1e-3)  # numeric two-up energy
    assert row[13] == -2.712


# --- CLI ---------------------------------------------------------------


def _write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _curve_config(tmp_path):
    return _write_config(
        tmp_path,
        {
            "spec": {
                "n_sites": 3,
                "couplings": [1, 1],
                "fields": [0, 0, 0],
                "delta": 0,
                "temperature": 0,
            },
            "pair": [1, 3],
            "grid": {"B": {"min": 0.1, "max": 0.6, "step": 0.1}},
            "delta_values": [0.0],
        },
    )


def test_cli_curve_csv_deterministic_and_exact(tmp_path):
    config = _curve_config(tmp_path)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["curve", "--config", config, "--out", out1]) == 0
    assert main(["curve", "--config", config, "--out", out2]) == 0
    text1 = Path(out1).read_text()
    assert text1 == Path(out2).read_text()

    lines = text1.strip().splitlines()
    assert lines[0] == "delta,B,concurrence"
    # every emitted value equals a fresh single-point recomputation
    template = ChainSpec.uniform(3)
    for line in lines[1:]:
        delta, b, c = (float(x) for x in line.split(","))
        ((_, _, fresh),) = concurrence_curve(template, (1, 3), (b,), (delta,))
        assert c == fresh


def test_cli_curve_jsonl(tmp_path):
    config = _curve_config(tmp_path)
    out = str(tmp_path / "rows.jsonl")
    assert main(["curve", "--config", config, "--out", out, "--format", "jsonl"]) == 0
    rows = [json.loads(line) for line in Path(out).read_text().splitlines()]
    assert rows[0].keys() == {"delta", "B", "concurrence"}
    assert rows[0]["concurrence"] == pytest.approx(0.5, abs=1e-10)


def test_cli_phase_scan(tmp_path):
    config = _write_config(
        tmp_path,
        {
            "spec": {
                "n_sites": 3,
                "couplings": [1, 1],
                "fields": [0, 0, 0],
                "delta": 0,
            },
            "grid": {"delta": {"values": [1.0]}, "B": {"min": 0, "max": 2, "step": 0.5}},
        },
    )
    out = str(tmp_path / "scan.csv")
    assert main(["phase-scan", "--config", config, "--out", out]) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert len(lines) == 6
    header = lines[0].split(",")
    assert header[:4] == ["delta", "B", "n_up", "sector_rank"]


def test_cli_design_stdout(tmp_path, capsys):
    config = _write_config(tmp_path, {"n_sites": 4, "target": 0.99})
    assert main(["design", "--config", config]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n_sites,target,status,beta,bulk_field,achieved"
    assert ",ok," in out


def test_cli_table1(tmp_path):
    out = str(tmp_path / "table.csv")
    config = _write_config(tmp_path, {"delta_values": [0.0]})
    assert main(["table1", "--config", config, "--out", out]) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert len(lines) == 4  # header + three regimes


def test_cli_config_error_exit_code(tmp_path):
    bad = _write_config(tmp_path, {"spec": {"n_sites": 3}})
    assert main(["curve", "--config", bad]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["curve", "--config", missing]) == 2
    assert main(["channel", "--config", _write_config(tmp_path, {"n_sites_values": [5], "grid": {"beta": [5.0]}})]) == 2


def test_cli_resource_cap_exit_code(tmp_path):
    config = _write_config(
        tmp_path,
        {
            "spec": {
                "n_sites": 15,
                "couplings": [1] * 14,
                "fields": [0] * 15,
                "delta": 0,
            },
            "grid": {"delta": {"values": [0.0]}, "B": {"values": [0.0]}},
        },
    )
    assert main(["phase-scan", "--config", config]) == 3


@pytest.mark.parametrize(
    "command, config",
    [
        ("channel", {"n_sites_values": [4, chain.SITE_CAP + 2], "grid": {"beta": [2.0]}}),
        ("design", {"n_sites": chain.SITE_CAP + 2, "target": 0.9}),
    ],
)
def test_cli_over_cap_channel_exits_3_before_allocating(monkeypatch, tmp_path, capsys, command, config):
    def unallocated(*args, **kwargs):
        raise AssertionError("a profile was allocated before the cap check")

    monkeypatch.setattr(np, "arange", unallocated)
    assert main([command, "--config", _write_config(tmp_path, config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"resource cap exceeded: channel of {chain.SITE_CAP + 2} sites")


def test_cli_channel_length_past_the_float_range_exits_3(tmp_path, capsys):
    # a JSON integer too large for a float: the grid check reads it as finite
    # (isfinite would raise OverflowError), and the length cap refuses it
    config = {"n_sites_values": [4, 10**400], "grid": {"beta": [2.0]}}
    assert main(["channel", "--config", _write_config(tmp_path, config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"resource cap exceeded: channel of {10**400} sites")


PAST_FLOAT = 10**400


@pytest.mark.parametrize(
    "call",
    [
        lambda: phase_scan(ChainSpec.uniform(4), (PAST_FLOAT,), (0.0,)),
        lambda: phase_scan(ChainSpec.uniform(4), (0.0,), (PAST_FLOAT,)),
        lambda: concurrence_curve(ChainSpec.uniform(4), (1, 4), (0.5,), (PAST_FLOAT,)),
        lambda: table1_rows((PAST_FLOAT,)),
        lambda: channel_curve((4,), (PAST_FLOAT,)),
        lambda: channel_curve((4,), (2.0,), PAST_FLOAT),
        lambda: design_report(4, 0.9, PAST_FLOAT),
        lambda: design_channel(4, PAST_FLOAT, 1.0),
        lambda: ChainSpec.uniform(4, delta=PAST_FLOAT),
        lambda: c1n_channel(10.0, PAST_FLOAT),
        lambda: impurity_profile_chain(10, 1e200),
    ],
    ids=["phase_scan_delta", "phase_scan_field", "concurrence_curve_delta", "table1_rows",
         "channel_curve_beta", "channel_curve_coupling", "design_report_coupling",
         "design_channel_coupling", "chain_spec_delta", "c1n_channel_k",
         "impurity_profile_chain_base"],
)
def test_an_int_past_the_float_range_is_a_domain_error(call):
    # float() of such an int raises OverflowError; every float input reads
    # it as a config error, as the CLI does (and so does a profile base
    # whose largest coupling, base^4 at N = 10, would overflow)
    with pytest.raises(DomainError, match="must lie in the float range"):
        call()


_SPEC4 = ChainSpec.uniform(4)


def _curve(pair=(1, 4), fields=(0.5,), deltas=(0.0,)):
    return concurrence_curve(_SPEC4, pair, fields, deltas)


# Every public entry point with one value slot open, by what the slot reads:
# an integer ("int"), a float ("float"), either inside a grid axis, or a
# sequence ("seq").
NUMBER_SLOTS = {
    "ChainSpec.n_sites": ("int", lambda v: ChainSpec(v, (1, 1), (0, 0, 0), 0)),
    "ChainSpec.couplings": ("float", lambda v: ChainSpec(3, (1, v), (0, 0, 0), 0)),
    "ChainSpec.fields": ("float", lambda v: ChainSpec(3, (1, 1), (0, v, 0), 0)),
    "ChainSpec.delta": ("float", lambda v: ChainSpec(3, (1, 1), (0, 0, 0), v)),
    "ChainSpec.temperature": ("float", lambda v: ChainSpec(3, (1, 1), (0, 0, 0), 0, v)),
    "uniform.n_sites": ("int", lambda v: ChainSpec.uniform(v)),
    "uniform.coupling": ("float", lambda v: ChainSpec.uniform(4, coupling=v)),
    "uniform.field": ("float", lambda v: ChainSpec.uniform(4, field=v)),
    "build_channel.n_sites": ("int", lambda v: build_channel(v, 1, 1)),
    "build_channel.coupling": ("float", lambda v: build_channel(4, v, 1)),
    "build_channel.bulk_field": ("float", lambda v: build_channel(4, 1, v)),
    "impurity_profile_chain.n_sites": ("int", lambda v: impurity_profile_chain(v, 1.5)),
    "impurity_profile_chain.base": ("float", lambda v: impurity_profile_chain(6, v)),
    "design_channel.n_sites": ("int", lambda v: design_channel(v, 1, 1)),
    "design_channel.coupling": ("float", lambda v: design_channel(4, v, 1)),
    "design_channel.bulk_field": ("float", lambda v: design_channel(4, 1, v)),
    "design_report.n_sites": ("int", lambda v: design_report(v, 0.9)),
    "design_report.target": ("float", lambda v: design_report(4, v)),
    "design_report.coupling": ("float", lambda v: design_report(4, 0.9, v)),
    "channel_curve.n_values": ("int", lambda v: channel_curve((4, v), (2.0,))),
    "channel_curve.betas": ("float", lambda v: channel_curve((4,), (2.0, v))),
    "channel_curve.coupling": ("float", lambda v: channel_curve((4,), (2.0,), v)),
    "phase_scan.deltas": ("float", lambda v: phase_scan(_SPEC4, (0.0, v), (0.0,))),
    "phase_scan.fields": ("float", lambda v: phase_scan(_SPEC4, (0.0,), (v,))),
    "concurrence_curve.pair": ("int", lambda v: _curve(pair=(v, 4))),
    "concurrence_curve.fields": ("float", lambda v: _curve(fields=(v,))),
    "concurrence_curve.deltas": ("float", lambda v: _curve(deltas=(v,))),
    "sector_boundary_concurrence.n_up": ("int", lambda v: sector_boundary_concurrence(_SPEC4, v)),
    # a spec is all ground_regimes reads, so its values come through ChainSpec
    "ground_regimes.spec": ("float", lambda v: ground_regimes(replace(_SPEC4, delta=v))),
    "table1_rows.deltas": ("float", lambda v: table1_rows((0.0, v))),
    "c14_ground_regimes.delta": ("float", lambda v: c14_ground_regimes(v)),
    "c1n_channel.beta": ("float", lambda v: c1n_channel(v, 3)),
    "c1n_channel.k": ("int", lambda v: c1n_channel(10.0, v)),
    "build_sector_basis.n_sites": ("int", lambda v: build_sector_basis(v, 1)),
    "build_sector_basis.n_up": ("int", lambda v: build_sector_basis(4, v)),
    "ChainSpec.couplings[]": ("seq", lambda v: ChainSpec(3, v, (0, 0, 0), 0)),
    "channel_curve.n_values[]": ("seq", lambda v: channel_curve(v, (2.0,))),
    "phase_scan.deltas[]": ("seq", lambda v: phase_scan(_SPEC4, v, (0.0,))),
    "concurrence_curve.pair[]": ("seq", lambda v: _curve(pair=v)),
    "table1_rows.deltas[]": ("seq", lambda v: table1_rows(v)),
}
# an int of any size is an integer, refused by its slot's own range or cap
# (test_cli_channel_length_past_the_float_range_exits_3); a float slot
# refuses one too large for a float, and a NaN or an infinity
WRONG_KIND = {
    "int": ("4", True, None, 4.5),
    "float": ("1.0", True, None, PAST_FLOAT, math.nan, math.inf, -math.inf),
    "seq": (None, 5, 2.5),
}


@pytest.mark.parametrize("slot", NUMBER_SLOTS)
def test_every_entry_point_reads_its_numbers_by_one_rule(slot):
    kind, call = NUMBER_SLOTS[slot]
    for value in WRONG_KIND[kind]:
        with pytest.raises(DomainError):
            call(value)


def test_an_integral_float_reads_as_its_int():
    assert design_channel(20.0, 1, 1) == design_channel(20, 1, 1)
    report = design_report(20.0, 0.99)
    assert report == design_report(20, 0.99) and type(report["n_sites"]) is int
    assert ChainSpec.uniform(4.0) == ChainSpec.uniform(4)
    assert type(ChainSpec.uniform(4.0).n_sites) is int
    assert build_sector_basis(4.0, 2.0) == build_sector_basis(4, 2)
    assert sector_boundary_concurrence(_SPEC4, 2.0) == sector_boundary_concurrence(_SPEC4, 2)
    assert list(_curve(pair=(1.0, 4.0), deltas=(0,))) == list(_curve())
    # the rows carry the int N and float betas whatever the inputs were
    rows = list(channel_curve((4.0, 6), (2, 3.0), 1))
    assert [repr(row) for row in rows] == [
        repr(row) for row in channel_curve((4, 6), (2.0, 3.0), 1.0)
    ]


_WRONG_VALUES = st.one_of(
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
)
_NOT_A_LIST = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.integers(-2, 6), st.floats(-2, 6)
)
_NOT_AN_INTEGER = st.one_of(
    _WRONG_VALUES, st.floats(allow_nan=False).filter(lambda x: not x.is_integer())
)

_CLI_SPEC = {"n_sites": 3, "couplings": [1, 1], "fields": [0, 0, 0], "delta": 0, "temperature": 0}
_RANGE = {"min": 0, "max": 1, "step": 0.5}
# a small valid config of each subcommand, and the kind each of its keys
# reads: "float", "int", or a list of either
_CLI_CASES = [
    ("phase-scan", {"spec": _CLI_SPEC, "grid": {"delta": [0], "B": {"values": [0, 0.5]}}}),
    ("phase-scan", {"spec": _CLI_SPEC, "grid": {"delta": _RANGE, "B": _RANGE}}),
    ("curve", {"spec": _CLI_SPEC, "pair": [1, 3], "delta_values": [0], "grid": {"B": [0.5]}}),
    ("channel", {"n_sites_values": [4, 6], "coupling": 1, "grid": {"beta": [2.0]}}),
    ("channel", {"n_sites_values": [4], "coupling": 1.0, "grid": {"beta": _RANGE}}),
    ("design", {"n_sites": 4, "target": 0.5, "coupling": 1}),
    ("table1", {"delta_values": [0]}),
]
_KEY_KINDS = {
    "n_sites": "int", "couplings": ["float"], "fields": ["float"], "delta": "float",
    "temperature": "float", "pair": ["int"], "delta_values": ["float"], "B": ["float"],
    "n_sites_values": ["int"], "coupling": "float", "beta": ["float"], "target": "float",
    "min": "float", "max": "float", "step": "float", "values": ["float"],
}


def _number_paths(obj, path=()):
    """(path, kind) of every number and number list in a config, by key."""
    for key, value in obj.items():
        kind = _KEY_KINDS.get(key)
        if isinstance(value, dict):
            yield from _number_paths(value, (*path, key))
        elif isinstance(kind, list):
            yield (*path, key), "list"
            for i in range(len(value)):
                yield (*path, key, i), kind[0]
        elif kind is not None:
            yield (*path, key), kind


_CLI_SLOTS = [
    (command, config, path, kind)
    for command, config in _CLI_CASES
    for path, kind in _number_paths(config)
]


def _replaced(obj, path, value):
    """A deep copy of a config with the value at ``path`` replaced."""
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


@st.composite
def _wrong_configs(draw):
    command, config, path, kind = draw(st.sampled_from(_CLI_SLOTS))
    strategy = {"list": _NOT_A_LIST, "int": _NOT_AN_INTEGER, "float": _WRONG_VALUES}[kind]
    return command, _replaced(config, path, draw(strategy))


def test_every_cli_config_case_runs():
    for command, config in _CLI_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            args = [command, "--config", _write_config(Path(tmp), config), "--out", str(out)]
            assert main(args) == 0 and out.exists(), (command, config)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_wrong_configs())
def test_cli_refuses_a_value_of_the_wrong_kind_in_every_config_key(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        code = main([command, "--config", _write_config(Path(tmp), config), "--out", str(out)])
        assert code in (2, 3), (command, config)
        assert [p.name for p in Path(tmp).iterdir()] == ["config.json"]

@pytest.mark.parametrize(
    "text",
    [
        # an integer of more than 4300 digits
        b'{"n_sites_values": [' + b"1" * 5000 + b'], "grid": {"beta": [2.0]}}',
        b'{"n_sites_values": [4], "grid": {"beta": [2.0]}}\xff',
    ],
    ids=["integer_past_the_digit_limit", "invalid_utf8"],
)
def test_cli_config_value_errors_of_json_load_exit_2(tmp_path, capsys, text):
    # json.load raises a plain ValueError or UnicodeDecodeError here, not
    # JSONDecodeError
    path = tmp_path / "config.json"
    path.write_bytes(text)
    out = tmp_path / "out.csv"
    assert main(["channel", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: config is not valid JSON: ")
    assert not out.exists()


def test_cli_table1_untabulated_delta_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "table.csv"
    config = _write_config(tmp_path, {"delta_values": [0.3]})
    assert main(["table1", "--config", config, "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


_SCAN_SPEC = {"n_sites": 3, "couplings": [1, 1], "fields": [0, 0, 0], "delta": 0}
_SCAN_GRID = {"delta": {"values": [0.0]}, "B": {"values": [0.0]}}


@pytest.mark.parametrize(
    "command, config",
    [
        ("design", {"n_sites": "x", "target": 0.99}),
        ("design", {"n_sites": 20, "target": None}),
        ("phase-scan", {"spec": {**_SCAN_SPEC, "n_sites": "x"}, "grid": _SCAN_GRID}),
        (
            "phase-scan",
            {"spec": _SCAN_SPEC,
             "grid": {**_SCAN_GRID, "delta": {"min": "a", "max": 1, "step": 0.5}}},
        ),
        ("curve", {"spec": _SCAN_SPEC, "pair": ["a", 3], "grid": {"B": [0.0]}}),
        # int() would truncate and bool is an int: these used to run, exit 0
        ("curve", {"spec": _SCAN_SPEC, "pair": [1.7, 3], "grid": {"B": [0.0]}}),
        ("design", {"n_sites": 4.9, "target": 0.99}),
        ("curve",
         {"spec": _SCAN_SPEC, "pair": [1, 3], "delta_values": [True], "grid": {"B": [0.0]}}),
        # empty value lists: these printed only the header, exit 0
        ("curve", {"spec": _SCAN_SPEC, "pair": [1, 3], "delta_values": [], "grid": {"B": [0.0]}}),
        ("table1", {"delta_values": []}),
        ("channel", {"n_sites_values": [], "grid": {"beta": [5.0]}}),
    ],
)
def test_cli_bad_config_values_exit_2(tmp_path, capsys, command, config):
    out = tmp_path / "out.csv"
    assert main([command, "--config", _write_config(tmp_path, config), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("phase-scan",
         {"spec": {"n_sites": "3", "couplings": "11", "fields": "000", "delta": "0.5"},
          "grid": _SCAN_GRID}),
        ("phase-scan", {"spec": {**_SCAN_SPEC, "couplings": "11"}, "grid": _SCAN_GRID}),
        ("channel", {"n_sites_values": ["4"], "grid": {"beta": ["2"]}}),
        ("channel", {"n_sites_values": [4], "grid": {"beta": {"min": "1", "max": 2, "step": 1}}}),
        ("design", {"n_sites": 20, "target": "0.99"}),
    ],
)
def test_cli_string_config_values_exit_2(tmp_path, capsys, command, config):
    # numeric strings used to be parsed, and a string list read character by
    # character: these ran and exited 0
    out = tmp_path / "out.csv"
    assert main([command, "--config", _write_config(tmp_path, config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert not out.exists()
    assert main([command, "--config", _write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("phase-scan", {"spec": {**_SCAN_SPEC, "couplings": "111"}, "grid": _SCAN_GRID},
         "couplings must be a list of numbers, got '111'"),
        ("phase-scan", {"spec": _SCAN_SPEC, "grid": {**_SCAN_GRID, "B": "abc"}},
         "grid axis must be a list of numbers, got 'abc'"),
        ("curve", {"spec": _SCAN_SPEC, "pair": "14", "grid": {"B": [0.0]}},
         "a site pair must be two sites (i, j), got '14'"),
    ],
    ids=["couplings", "grid axis", "pair"],
)
def test_cli_names_a_string_given_for_a_list_whole(tmp_path, capsys, command, config, message):
    # a string used to be read character by character, and the error named
    # its first character alone
    assert main([command, "--config", _write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "command, config, cause",
    [
        ("phase-scan", {"spec": _SCAN_SPEC, "grid": {**_SCAN_GRID, "B": [1e308]}}, "B = 1e+308"),
        ("curve", {"spec": _SCAN_SPEC, "pair": [1, 3], "grid": {"B": [-1e308]}}, "B = 1e+308"),
        ("curve",
         {"spec": _SCAN_SPEC, "pair": [1, 3], "delta_values": [1e308], "grid": {"B": [0.0]}},
         "delta = 1e+308"),
        ("curve",
         {"spec": {**_SCAN_SPEC, "temperature": 0.1}, "pair": [1, 3], "delta_values": [1e308],
          "grid": {"B": [0.0]}},
         "delta = 1e+308"),
    ],
)
def test_cli_overflowing_scale_exits_2_before_any_block_is_built(
    monkeypatch, tmp_path, capsys, command, config, cause
):
    def unbuilt(*args):
        raise AssertionError("a basis was built before the scale check")

    monkeypatch.setattr(sweep, "build_sector_basis", unbuilt)
    out = tmp_path / "out.csv"
    assert main([command, "--config", _write_config(tmp_path, config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and cause in err and "overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("existing", [None, b"old bytes\n"])
def test_cli_error_inside_the_rows_leaves_out_untouched(monkeypatch, tmp_path, capsys, existing):
    # the second profile solve (N = 6's chunk of betas) fails while the rows
    # are being written into the temporary file beside --out, after the
    # header and N = 4's rows
    calls = []
    ground_profiles = channel._ground_profiles

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise NumericError("synthetic")
        return ground_profiles(*args)

    monkeypatch.setattr(channel, "_ground_profiles", second_fails)
    out = tmp_path / "out.csv"
    if existing is not None:
        out.write_bytes(existing)
    config = {"n_sites_values": [4, 6], "grid": {"beta": [2.0, 3.0, 4.0]}}
    assert main(["channel", "--config", _write_config(tmp_path, config), "--out", str(out)]) == 4
    assert len(calls) == 2
    assert "numeric failure: synthetic" in capsys.readouterr().err
    assert (out.read_bytes() if out.exists() else None) == existing
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["config.json"] + (["out.csv"] if existing is not None else [])
    )


@pytest.mark.parametrize(
    "config, message",
    [
        ({"n_sites_values": [4], "grid": {"beta": [2.0, -1.0]}}, "channel design needs"),
        ({"n_sites_values": [4], "coupling": -1, "grid": {"beta": [2.0]}}, "channel design needs"),
        # the bulk field beta J / 2 overflows to inf, which the number rule refuses
        ({"n_sites_values": [4], "coupling": 1e308, "grid": {"beta": [4.0]}},
         "bulk field must be finite"),
    ],
    ids=["config0", "config1", "config2"],
)
def test_cli_channel_refuses_what_design_channel_refuses_before_printing(
    tmp_path, capsys, config, message
):
    assert main(["channel", "--config", _write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")


def test_cli_channel_subnormal_beta_prints_inf_without_a_warning(tmp_path, capsys):
    # |ratio - beta| / beta overflows to inf, the row's true deviation; under
    # the suite's error::RuntimeWarning a stray overflow warning would raise
    config = {"n_sites_values": [8], "grid": {"beta": [1e-320]}}
    assert main(["channel", "--config", _write_config(tmp_path, config)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(",nan,inf")
    assert captured.err == ""


@pytest.mark.parametrize("out", ["missing_dir/out.csv", "a_dir"])
def test_cli_unwritable_out_exits_2_and_leaves_no_temporary_file(tmp_path, capsys, out):
    (tmp_path / "a_dir").mkdir()
    config = _write_config(tmp_path, {"delta_values": [0.0]})
    assert main(["table1", "--config", config, "--out", str(tmp_path / out)]) == 2
    assert "config error: cannot write output:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "config.json"]
    assert not any((tmp_path / "a_dir").iterdir())


@pytest.mark.parametrize(
    "axis, code",
    [
        ({"min": 0.0, "max": math.inf, "step": 0.5}, 2),  # JSON Infinity
        ({"min": math.nan, "max": 1.0, "step": 0.5}, 2),  # JSON NaN
        ({"min": 0.0, "max": 2e6, "step": 1.0}, 3),
    ],
)
def test_cli_bad_grid_range_exit_codes(tmp_path, capsys, axis, code):
    out = tmp_path / "out.csv"
    config = {"spec": _SCAN_SPEC, "grid": {"delta": {"values": [0.0]}, "B": axis}}
    assert main(["phase-scan", "--config", _write_config(tmp_path, config), "--out", str(out)]) == code
    assert ("config error:" if code == 2 else "resource cap exceeded:") in capsys.readouterr().err
    assert not out.exists()


class _Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


def test_csv_emission_bytes_and_one_write_per_row():
    row = (7, -3, "ok", -0.0, 1e-300, math.nan, math.inf, -math.inf, 0.1, np.float64(0.1),
           np.int64(5))
    out = _Writes()
    # rows with no shared axis, one block each, as design and table1 write them
    cli_module._emit(["h1", "h2"], None, cli_module._one_per_block([row, (1.5,)]), out, "csv")
    assert out.getvalue() == (
        "h1,h2\n"
        "7,-3,ok,-0,1e-300,nan,inf,-inf,0.10000000000000001,"
        "0.10000000000000001,5\n"
        "1.5\n"
    )
    assert out.calls == 3  # the header, then one write per row


def test_cli_numeric_failure_exit_code(monkeypatch, tmp_path):
    def boom(config):
        raise NumericError("synthetic")

    monkeypatch.setitem(cli_module._COMMANDS, "table1", boom)
    assert main(["table1"]) == 4
