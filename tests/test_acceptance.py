"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not recalibrated; where a pinned
target is narrowly missed by the exact computation the test fails and the
line reports the measured value, so the gap stays visible instead of being
tuned away.
"""

import math
from dataclasses import replace

import numpy as np

from analytic import (
    c13_ground,
    c14_channel,
    c14_impurity_one_up,
    c14_impurity_two_up,
    c15_three_half,
    critical_field_3site,
)
from reference import concurrence_lambdas_direct, unfold_consistency

from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.channel import design_channel, impurity_profile_chain, ratio_profile
from xxzchain.closed_forms import c1n_channel
from xxzchain.eigensolver import decompose, ground_space
from xxzchain.entanglement import (
    concurrence,
    ground_state_density,
    reduce_pair_mixed,
    thermal_state,
)
from xxzchain.hamiltonian import build_full, build_sector
from xxzchain.sweep import ground_regimes, sector_boundary_concurrence

SQRT5 = math.sqrt(5.0)


def _report(number, failures, summary=""):
    status = "PASS" if not failures else "FAIL"
    detail = summary if not failures else "; ".join(failures)
    print(f"ACCEPTANCE {number:02d}: {status}" + (f" [{detail}]" if detail else ""))
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _ground_c13(delta, field):
    spec = ChainSpec.uniform(3, coupling=1.0, field=field, delta=delta)
    dec = decompose(build_full(spec))
    rho = reduce_pair_mixed(ground_state_density(dec), 1, 3)
    return concurrence(rho).value


def test_criterion_01_three_qubit_closed_form():
    failures = []
    worst = 0.0
    for delta in np.arange(0.0, 3.0001, 0.1):
        field = 0.5 * critical_field_3site(delta, 1.0).b_critical
        diff = abs(_ground_c13(delta, field) - c13_ground(delta, 1.0))
        worst = max(worst, diff)
        if diff > 1e-9:
            failures.append(f"delta={delta:.1f}: |diff|={diff:.3g}")
    if abs(_ground_c13(0.0, 0.3) - 0.5) > 1e-9:
        failures.append("C13(delta=0) != 1/2")
    if abs(_ground_c13(1.0, 0.7) - 1.0 / 3.0) > 1e-9:
        failures.append("C13(delta=1) != 1/3")
    _report(1, failures, f"max |numeric-closed| = {worst:.2e}")


def _sector_ground_energy(delta, field, n_up):
    spec = ChainSpec.uniform(3, coupling=1.0, field=field, delta=delta)
    h = build_sector(spec, build_sector_basis(3, n_up))
    return float(np.linalg.eigvalsh(h)[0])


def _locate_crossing_3site(delta):
    def gap(field):
        return _sector_ground_energy(delta, field, 0) - _sector_ground_energy(
            delta, field, 1
        )

    lo, hi = 0.0, 3.0 * delta + 3.0
    assert gap(lo) > 0 > gap(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_02_phase_boundary():
    failures = []
    for delta in (0.0, 0.5, 1.0, 2.0):
        located = _locate_crossing_3site(delta)
        expected = critical_field_3site(delta, 1.0).b_critical
        if abs(located - expected) > 1e-6:
            failures.append(
                f"delta={delta}: located {located:.8f} vs formula {expected:.8f}"
            )
    _report(2, failures)


TABLE_EXPECTED = {
    0.0: (((SQRT5 - 1) / 4, (SQRT5 + 1) / 4), (0.0472, 0.2764, 0.0), -SQRT5),
    0.5: ((0.48, 1.25), (0.0, 0.2, 0.0), -2.712),
    1.0: ((0.66, 1.70), (0.0, 0.1464, 0.0), -3.232),
    2.0: ((1.04, 2.65), (0.0149, 0.084, 0.0), -4.372),
}


def test_criterion_03_table_reproduction():
    failures = []
    for delta, (bounds, maxima, energy) in TABLE_EXPECTED.items():
        rows = ground_regimes(ChainSpec.uniform(4, delta=delta))
        for r, (row, expected_max) in enumerate(zip(rows, maxima)):
            diff = abs(row.c14_max - expected_max)
            if diff > 1e-3:
                failures.append(
                    f"delta={delta} regime {r}: C14max {row.c14_max:.6f}"
                    f" vs {expected_max} (|diff|={diff:.2e})"
                )
        for name, numeric, quoted in (
            ("b_lo", rows[0].b_max, bounds[0]),
            ("b_hi", rows[1].b_max, bounds[1]),
        ):
            diff = abs(numeric - quoted)
            if diff > 5e-3:
                failures.append(
                    f"delta={delta} {name}: {numeric:.6f} vs {quoted}"
                    f" (|diff|={diff:.2e})"
                )
        diff = abs(rows[0].energy_at_zero_field - energy)
        if diff > 1e-3:
            failures.append(
                f"delta={delta} two-up energy {rows[0].energy_at_zero_field:.6f}"
                f" vs {energy} (|diff|={diff:.2e})"
            )
    _report(3, failures)


def test_criterion_04_degenerate_ground_mixture():
    failures = []
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.0, delta=1.0)
    dec = decompose(build_full(spec))
    size = len(ground_space(dec))
    if size != 2:
        failures.append(f"ground space size {size}, expected 2")
    value = concurrence(reduce_pair_mixed(ground_state_density(dec), 1, 3)).value
    if abs(value) > 1e-9:
        failures.append(f"equal-mixture C13 = {value:.3g}, expected 0")
    _report(4, failures)


def test_criterion_05_impurity_closed_forms():
    failures = []
    grid = np.geomspace(0.1, 50.0, 24)
    worst = 0.0
    for j in grid:
        spec4 = impurity_profile_chain(4, j)
        spec5 = impurity_profile_chain(5, j)
        checks = (
            ("C14 one-up", sector_boundary_concurrence(spec4, 1), c14_impurity_one_up(j)),
            ("C14 two-up", sector_boundary_concurrence(spec4, 2), c14_impurity_two_up(j)),
            ("C15", sector_boundary_concurrence(spec5, 1), c15_three_half(j)),
        )
        for name, numeric, closed in checks:
            diff = abs(numeric - closed)
            worst = max(worst, diff)
            if diff > 1e-8:
                failures.append(f"{name} at J={j:.3g}: |diff|={diff:.2e}")
    # J -> 0 probes sit just above the sector's degeneracy tolerance (the
    # 5-site one-up gap closes like J^2, the 4-site one like J)
    small = sector_boundary_concurrence(impurity_profile_chain(4, 2e-5), 1)
    if abs(small - 0.5) > 1e-5:
        failures.append(f"one-up J->0 limit {small:.8f} not near 1/2")
    small5 = sector_boundary_concurrence(impurity_profile_chain(5, 1e-3), 1)
    if abs(small5 - 0.5) > 1e-5:
        failures.append(f"C15 J->0 limit {small5:.8f} not near 1/2")
    big = sector_boundary_concurrence(impurity_profile_chain(4, 100.0), 2)
    if big < 0.998:
        failures.append(f"two-up J=100 value {big:.6f} < 0.998")
    _report(5, failures, f"max |numeric-closed| = {worst:.2e}")


def _six_site_bulk_profile(j):
    return ChainSpec(
        n_sites=6, couplings=(1.0, j, j, j, 1.0), fields=(0.0,) * 6, delta=0.0
    )


def test_criterion_06_six_site_numeric_claims():
    failures = []
    # the 0.055 peak lives in the two-up sector (total z-spin 1)
    coarse = np.arange(0.3, 6.0, 0.05)
    values = [sector_boundary_concurrence(_six_site_bulk_profile(j), 2) for j in coarse]
    best = int(np.argmax(values))
    j_star, c_star = coarse[best], values[best]
    if abs(c_star - 0.055) > 0.005:
        failures.append(f"two-up max {c_star:.6f} not within 0.055 +/- 0.005")
    if not 1.0 <= j_star <= 3.0:
        failures.append(f"two-up max at J={j_star:.2f}, expected near 2")

    tapered = sector_boundary_concurrence(impurity_profile_chain(6, 50.0), 3)
    if tapered < 0.99:
        failures.append(f"three-up tapered profile at J=50: {tapered:.6f} < 0.99")

    uniform = sector_boundary_concurrence(_six_site_bulk_profile(50.0), 3)
    if abs(uniform - 0.8) > 0.02:
        failures.append(
            f"three-up uniform profile at J=50: {uniform:.6f} not within 0.8 +/- 0.02"
        )
    _report(6, failures, f"two-up max {c_star:.4f} at J={j_star:.2f}")


def test_criterion_07_channel_closed_form():
    failures = []
    worst = 0.0
    for field in np.linspace(0.0, 10.0, 101):
        numeric = design_channel(4, 1.0, field).boundary_concurrence
        diff = abs(numeric - c14_channel(field, 1.0))
        worst = max(worst, diff)
        if diff > 1e-10:
            failures.append(f"B={field:.2f}: |numeric-closed|={diff:.2e}")
    at_zero = design_channel(4, 1.0, 0.0).boundary_concurrence
    if abs(at_zero - 0.2764) > 1e-4:
        failures.append(f"C14(B=0) = {at_zero:.6f}, expected 0.2764 +/- 1e-4")
    at_five = design_channel(4, 1.0, 5.01).boundary_concurrence
    if not at_five > 0.99:
        failures.append(
            f"C14 at B/J=5.01 is {at_five:.6f} <= 0.99"
            f" (exact crossing sits at B/J=5.4247)"
        )
    _report(7, failures, f"max |numeric-closed| = {worst:.2e}")


def test_criterion_08_channel_scaling():
    failures = []
    for n in (4, 8, 12, 20, 40):
        k = n // 2
        for beta in (3.0, 5.0, 10.0, 20.0):
            design = design_channel(n, 1.0, beta / 2.0)
            numeric = design.boundary_concurrence
            closed = c1n_channel(beta, k)
            diff = abs(numeric - closed)
            if diff > 1e-6:
                failures.append(f"N={n} beta={beta}: |numeric-formula|={diff:.2e}")
            if beta >= 10.1 and numeric <= 0.99:
                failures.append(f"N={n} beta={beta}: C={numeric:.6f} <= 0.99")
            if beta >= 5.0:
                ratios = np.asarray(ratio_profile(design))
                deviation = float(np.max(np.abs(ratios - beta) / beta))
                if deviation >= 0.02:
                    failures.append(
                        f"N={n} beta={beta}: max ratio deviation {deviation:.3f}"
                    )
    _report(8, failures)


def test_criterion_09_fold_consistency():
    failures = []
    for n in range(4, 25, 2):
        for field in (0.0, 1.0, 5.0, 20.0):
            if not unfold_consistency(n, 1.0, field, tol=1e-10):
                failures.append(f"N={n} B={field}")
    _report(9, failures)


def test_criterion_10_sector_assembly_of_full_spectrum():
    failures = []
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 11))
        spec = ChainSpec(
            n_sites=n,
            couplings=tuple(rng.uniform(-2, 2, n - 1)),
            fields=tuple(rng.uniform(-2, 2, n)),
            delta=float(rng.uniform(-2, 2)),
        )
        w_full = np.sort(np.linalg.eigvalsh(build_full(spec)))
        parts = [
            np.linalg.eigvalsh(build_sector(spec, build_sector_basis(n, k)))
            for k in range(n + 1)
        ]
        diff = float(np.max(np.abs(w_full - np.sort(np.concatenate(parts)))))
        worst = max(worst, diff)
        if diff > 1e-10:
            failures.append(f"trial {trial} (N={n}): max |diff| = {diff:.2e}")
    _report(10, failures, f"worst spectral mismatch = {worst:.2e}")


def test_criterion_11_concurrence_kernel():
    failures = []
    bell = 0.5 * np.array(
        [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]], dtype=float
    )
    if abs(concurrence(bell).value - 1.0) > 1e-12:
        failures.append("Bell state concurrence != 1")
    if concurrence(np.diag([1.0, 0.0, 0.0, 0.0])).value != 0.0:
        failures.append("product state concurrence != 0")
    rng = np.random.default_rng(2025)
    worst = 0.0
    for trial in range(10_000):
        a = rng.standard_normal((4, 4))
        rho = a @ a.T
        rho /= np.trace(rho)
        result = concurrence(rho)
        if not 0.0 <= result.value <= 1.0:
            failures.append(f"trial {trial}: value {result.value} outside [0, 1]")
            break
        diff = float(
            np.max(np.abs(np.asarray(result.lambdas) - concurrence_lambdas_direct(rho)))
        )
        worst = max(worst, diff)
        if diff > 1e-8:
            failures.append(f"trial {trial}: lambda paths differ by {diff:.2e}")
            break
    _report(11, failures, f"worst lambda-path gap = {worst:.2e}")


def test_criterion_12_thermal_limit():
    failures = []
    rng = np.random.default_rng(2026)
    specs = []
    while len(specs) < 5:
        n = int(rng.integers(3, 7))
        spec = ChainSpec(
            n_sites=n,
            couplings=tuple(rng.uniform(0.5, 1.5, n - 1)),
            fields=tuple(rng.uniform(-1.0, 1.0, n)),
            delta=float(rng.uniform(-1.0, 1.0)),
            temperature=1e-8,
        )
        dec = decompose(build_full(spec))
        gap = dec.eigenvalues[1] - dec.eigenvalues[0]
        if gap > 1e-3:  # nondegenerate by a safe margin
            specs.append((spec, dec))
    for spec, dec in specs:
        pair = (1, spec.n_sites)
        cold = concurrence(reduce_pair_mixed(thermal_state(spec, dec), *pair)).value
        ground = concurrence(
            reduce_pair_mixed(ground_state_density(dec), *pair)
        ).value
        if abs(cold - ground) > 1e-6:
            failures.append(
                f"N={spec.n_sites}: T=1e-8 vs ground gap {abs(cold - ground):.2e}"
            )
        for t in (0.1, 1.0, 10.0):
            hot = concurrence(
                reduce_pair_mixed(thermal_state(replace(spec, temperature=t), dec), *pair)
            ).value
            if not (math.isfinite(hot) and 0.0 <= hot <= 1.0):
                failures.append(f"N={spec.n_sites}, T={t}: C={hot}")
    _report(12, failures)
