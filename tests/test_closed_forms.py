import ast
import math
from pathlib import Path

import numpy as np
import pytest

import analytic
from analytic import (
    c13_ground,
    c14_channel,
    c14_impurity_one_up,
    c14_impurity_two_up,
    c15_three_half,
    critical_field_3site,
    one_up_ground_energy_4site,
    spectrum_3site,
)
from reference import beta_for_target

from xxzchain import closed_forms
from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.closed_forms import c14_ground_regimes, c1n_channel
from xxzchain.errors import DomainError
from xxzchain.hamiltonian import build_sector
from xxzchain.sweep import ground_regimes

SQRT5 = math.sqrt(5.0)


def test_c13_ground_reference_points():
    assert c13_ground(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert c13_ground(1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert c13_ground(100.0, 1.0) < 1e-3


def test_c13_ground_monotone_in_delta():
    values = [c13_ground(d, 1.0) for d in np.linspace(0.0, 5.0, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert 0 < values[-1] <= 0.5


def test_c13_ground_rejects_zero_coupling():
    with pytest.raises(DomainError):
        c13_ground(1.0, 0.0)


def test_critical_field_reference_points():
    assert critical_field_3site(0.0, 1.0).b_critical == pytest.approx(
        math.sqrt(8) / 4, abs=1e-15
    )
    assert critical_field_3site(1.0, 1.0).b_critical == pytest.approx(1.5, abs=1e-15)
    assert critical_field_3site(0.0, 0.0).b_critical == 0.0


def test_spectrum_3site_reference_points():
    w = spectrum_3site(1.0, 1.0, 0.5)
    assert min(w) == pytest.approx(-2.5, abs=1e-15)
    assert w[2] == min(w)  # one-up symmetric lower state
    w0 = spectrum_3site(1.0, 1.0, 0.0)
    assert w0[2] == pytest.approx(w0[5], abs=1e-15)  # field off: pair degenerate
    wxx = spectrum_3site(0.0, 1.0, 0.0)
    assert set(round(x, 12) for x in wxx) == {
        0.0,
        round(math.sqrt(2), 12),
        round(-math.sqrt(2), 12),
    }


def test_one_up_ground_energy_4site_reference_points():
    assert one_up_ground_energy_4site(0.0, 1.0, 0.0) == pytest.approx(
        -(1 + SQRT5) / 2, abs=1e-15
    )
    assert one_up_ground_energy_4site(1.0, 1.0, 0.0) == pytest.approx(
        -(1 + math.sqrt(8)) / 2, abs=1e-15
    )
    assert one_up_ground_energy_4site(0.0, 0.0, 0.7) == pytest.approx(-1.4, abs=1e-15)


def test_one_up_ground_energy_4site_matches_sector_diagonalization():
    rng = np.random.default_rng(41)
    basis = build_sector_basis(4, 1)
    for _ in range(10):
        delta, j, b = rng.uniform(0.0, 2.0, 3)
        j = max(j, 0.1)
        spec = ChainSpec.uniform(4, coupling=j, field=b, delta=delta)
        lowest = float(np.linalg.eigvalsh(build_sector(spec, basis))[0])
        assert one_up_ground_energy_4site(delta, j, b) == pytest.approx(
            lowest, abs=1e-10
        )


def test_table_rows_delta_zero():
    rows = c14_ground_regimes(0.0)
    assert [r.n_up for r in rows] == [2, 1, 0]
    assert rows[0].b_max == pytest.approx((SQRT5 - 1) / 4, abs=1e-15)
    assert rows[1].b_max == pytest.approx((SQRT5 + 1) / 4, abs=1e-15)
    assert rows[2].b_max == math.inf
    assert [r.c14_max for r in rows] == [0.0472, 0.2764, 0.0]
    assert rows[0].energy_at_zero_field == pytest.approx(-SQRT5, abs=1e-15)


@pytest.mark.parametrize(
    "delta,bounds,maxima,energy",
    [
        (0.5, (0.48, 1.25), (0.0, 0.2, 0.0), -2.712),
        (1.0, (0.66, 1.70), (0.0, 0.1464, 0.0), -3.232),
        (2.0, (1.04, 2.65), (0.0149, 0.084, 0.0), -4.372),
    ],
)
def test_table_rows_quoted_values(delta, bounds, maxima, energy):
    rows = c14_ground_regimes(delta)
    assert (rows[0].b_max, rows[1].b_max) == bounds
    assert tuple(r.c14_max for r in rows) == maxima
    assert rows[0].energy_at_zero_field == energy


def test_table_numeric_fallback_structure():
    # untabulated deltas come from the numeric regime finder only (see
    # test_untabulated_regimes_are_a_domain_error)
    rows = ground_regimes(ChainSpec.uniform(4, delta=0.3))
    assert [r.n_up for r in rows] == [2, 1, 0]
    assert 0.0 < rows[0].b_max < rows[1].b_max < rows[2].b_max == math.inf
    assert all(0.0 <= r.c14_max <= 1.0 for r in rows)
    # boundaries interpolate between the tabulated neighbours
    assert 0.309 < rows[0].b_max < 0.482
    assert 0.809 < rows[1].b_max < 1.251


@pytest.mark.parametrize("delta", [0.3, -0.5])
def test_untabulated_regimes_are_a_domain_error(delta):
    with pytest.raises(DomainError):
        c14_ground_regimes(delta)


def _package_imports(module) -> list[str]:
    """Every xxzchain module that ``module`` imports, relative or absolute,
    anywhere in the file (a lazy import inside a function body counts)."""
    found = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("xxzchain")):
            found.append(node.module)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("xxzchain")]
    return found


def test_closed_forms_imports_nothing_numeric_from_the_package():
    # the printed reference must not import the pipeline it sits beside
    assert _package_imports(closed_forms) == ["errors"]


def test_the_oracles_import_nothing_numeric_from_the_package():
    # the oracles must not import the pipeline they check, not even lazily
    # inside a function body
    assert _package_imports(analytic) == ["xxzchain.errors"]


def test_closed_forms_holds_only_what_the_library_prints():
    # the quoted 4-site table (table1) and the channel's profile formula
    # (the channel column); the oracles only tests read live in analytic.py
    tree = ast.parse(Path(closed_forms.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    public = {name for name in vars(closed_forms) if not name.startswith("_")} - imported
    assert public == {"GroundRegime", "TABLE_4SITE", "c14_ground_regimes", "c1n_channel"}


def test_c14_impurity_one_up_reference_points():
    assert c14_impurity_one_up(1e-9) == pytest.approx(0.5, abs=1e-8)
    assert c14_impurity_one_up(1.0) == pytest.approx((3 - SQRT5) / (5 - SQRT5), abs=1e-15)
    assert c14_impurity_one_up(100.0) < 0.01


def test_c14_impurity_two_up_reference_points():
    assert c14_impurity_two_up(0.0) == 0.0  # raw value -1/2, clipped
    assert c14_impurity_two_up(1.0) == pytest.approx((SQRT5 - 2) / 5, abs=1e-15)
    assert c14_impurity_two_up(10.0) == pytest.approx(
        (10 * math.sqrt(104) - 2) / 104, abs=1e-15
    )
    assert c14_impurity_two_up(1e4) > 0.999


def test_c15_three_half_reference_points():
    assert c15_three_half(0.0) == 0.5
    assert c15_three_half(1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert c15_three_half(100.0) < 1e-3


def test_c14_channel_reference_points():
    assert c14_channel(0.0, 1.0) == pytest.approx((3 - SQRT5) / (5 - SQRT5), abs=1e-15)
    # frozen from direct evaluation, cross-checked against the folded
    # 2x2 diagonalization; the 0.99 crossing sits at B/J = 5.4247
    assert c14_channel(5.0, 1.0) == pytest.approx(0.9880935300919764, abs=1e-12)
    assert c14_channel(5.1, 1.0) == pytest.approx(0.9885881819614004, abs=1e-12)
    assert c14_channel(5.4247, 1.0) > 0.99
    assert c14_channel(10.0, 1.0) == pytest.approx(0.9972527264607031, abs=1e-12)


def test_c14_channel_monotone_and_domain():
    values = [c14_channel(b, 1.0) for b in np.linspace(0.0, 20.0, 400)]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(DomainError):
        c14_channel(1.0, 0.0)
    with pytest.raises(DomainError):
        c14_channel(-0.5, 1.0)


def test_c1n_channel_reference_points():
    assert c1n_channel(10.0, 2) == pytest.approx(990000.0 / 999900.0, abs=1e-15)
    # beta^-2k underflows past epsilon at k = 50, saturating at exactly 0.99
    assert c1n_channel(10.0, 50) >= 0.99
    assert c1n_channel(10.2, 50) > 0.99
    # beta -> 1+ tends to the flat-profile value 1/k
    assert c1n_channel(1.0 + 1e-9, 5) == pytest.approx(0.2, abs=1e-6)


def test_c1n_channel_monotonicity():
    betas = np.linspace(1.5, 30.0, 100)
    for k in (2, 5, 9):
        vals = [c1n_channel(b, k) for b in betas]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    for beta in (1.5, 3.0, 10.0):
        vals = [c1n_channel(beta, k) for k in range(2, 12)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    # strictly decreasing while beta^-2k is still representable
    vals = [c1n_channel(3.0, k) for k in range(2, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_c1n_channel_domain():
    with pytest.raises(DomainError):
        c1n_channel(0.9, 3)
    with pytest.raises(DomainError):
        c1n_channel(1.0, 3)
    with pytest.raises(DomainError):
        c1n_channel(10.0, 1)


def test_beta_for_target_inverts_the_formula():
    beta = beta_for_target(0.99, 2)
    # k = 2 collapses to beta^2 / (beta^2 + 1), so the answer is sqrt(99)
    assert beta == pytest.approx(math.sqrt(99.0), rel=1e-9)
    assert c1n_channel(beta, 2) >= 0.99
    assert c1n_channel(beta * (1 - 1e-8), 2) < 0.99

    beta = beta_for_target(0.5, 2)
    assert 0.5 <= c1n_channel(beta, 2) <= 0.5 + 1e-9


def test_beta_for_target_edges():
    # targets below the beta -> 1+ limit are achieved at the lower edge
    assert beta_for_target(0.3, 2) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        beta_for_target(1.0, 2)
    with pytest.raises(DomainError):
        beta_for_target(0.0, 2)
    with pytest.raises(DomainError):
        beta_for_target(0.99, 2, beta_cap=5.0)  # cap reaches only 25/26
