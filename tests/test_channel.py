import ast
import importlib.util
import math
import pkgutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analytic import c14_channel, c14_impurity_one_up, c14_impurity_two_up, c15_three_half
from reference import regime_edge_betas, scalar_ground_profile, unfold_consistency

import xxzchain
from xxzchain import chain, channel, errors, sweep
from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.channel import (
    ChannelDesign,
    _block_ground,
    build_channel,
    design_channel,
    fold_single_excitation,
    impurity_profile_chain,
    ratio_profile,
)
from xxzchain.closed_forms import c1n_channel
from xxzchain.eigensolver import decompose
from xxzchain.errors import DomainError, ResourceCapError
from xxzchain.hamiltonian import build_sector
from xxzchain.sweep import sector_boundary_concurrence


def test_fold_four_sites():
    folded = fold_single_excitation(4, 1.0, 5.0)
    assert folded.k == 2
    assert np.array_equal(folded.symmetric, [[-10.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(folded.antisymmetric, [[-10.0, 1.0], [1.0, -1.0]])


def test_fold_six_sites_diagonal():
    folded = fold_single_excitation(6, 1.0, 2.0)
    assert np.allclose(np.diag(folded.symmetric), [-8.0, -4.0, -3.0])
    assert np.allclose(np.diag(folded.antisymmetric), [-8.0, -4.0, -5.0])
    assert folded.symmetric[0, 1] == folded.symmetric[1, 2] == 1.0


def test_fold_zero_field():
    folded = fold_single_excitation(4, 1.0, 0.0)
    assert np.array_equal(folded.symmetric, [[0.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(folded.antisymmetric, [[0.0, 1.0], [1.0, -1.0]])


def test_fold_rejects_odd_or_short_chains():
    with pytest.raises(DomainError):
        fold_single_excitation(5, 1.0, 1.0)
    with pytest.raises(DomainError):
        fold_single_excitation(2, 1.0, 1.0)


@pytest.mark.parametrize("n,b", [(4, 5.0), (8, 3.0), (4, 0.0)])
def test_unfold_consistency_examples(n, b):
    assert unfold_consistency(n, 1.0, b)


def test_unfold_consistency_sweep():
    for n in range(4, 25, 2):
        for b in (0.0, 1.0, 5.0, 20.0):
            assert unfold_consistency(n, 1.0, b, tol=1e-10)


def test_design_zero_field_reference():
    design = design_channel(4, 1.0, 0.0)
    assert design.boundary_concurrence == pytest.approx(0.2763932022500211, abs=1e-12)
    assert design.beta == 0.0


def test_design_matches_exact_formula():
    for b in np.linspace(0.0, 10.0, 41):
        design = design_channel(4, 1.0, b)
        assert design.boundary_concurrence == pytest.approx(
            c14_channel(b, 1.0), abs=1e-12
        )


def test_design_twelve_sites_matches_profile_formula():
    design = design_channel(12, 1.0, 5.5)
    assert design.beta == pytest.approx(11.0, abs=1e-15)
    assert design.boundary_concurrence == pytest.approx(
        c1n_channel(11.0, 6), abs=1e-8
    )


def test_design_invariants():
    for n, b in ((4, 2.0), (8, 1.5), (10, 4.0)):
        design = design_channel(n, 1.0, b)
        coeffs = np.asarray(design.coefficients)
        assert 2.0 * float(coeffs @ coeffs) == pytest.approx(1.0, abs=1e-10)
        assert design.boundary_concurrence == pytest.approx(
            2.0 * coeffs[0] ** 2, abs=1e-12
        )
        assert design.ground_energy < 0


def test_design_ground_energy_matches_sector():
    design = design_channel(8, 1.0, 2.0)
    sector = build_sector(build_channel(8, 1.0, 2.0), build_sector_basis(8, 1))
    assert design.ground_energy == pytest.approx(
        float(np.linalg.eigvalsh(sector)[0]), abs=1e-10
    )


def test_design_near_degenerate_tie_break_is_deterministic():
    # the cross-parity split decays like beta^(2-2k): far below float
    # resolution here, so the winner comes from the analytic ordering
    design = design_channel(40, 1.0, 10.0)
    assert design.near_degenerate
    assert design.boundary_concurrence == pytest.approx(
        c1n_channel(20.0, 20), abs=1e-10
    )


def test_design_small_chains_not_degenerate():
    design = design_channel(4, 1.0, 5.0)
    assert not design.near_degenerate


def test_design_solves_the_symmetric_block_only_when_asked(monkeypatch):
    solved = []
    block_ground = channel._block_ground

    def recording(k, coupling, bulk_field, antisymmetric):
        solved.append(antisymmetric)
        return block_ground(k, coupling, bulk_field, antisymmetric)

    monkeypatch.setattr(channel, "_block_ground", recording)
    design = design_channel(40, 1.0, 10.0)
    assert solved == [True]
    assert design.near_degenerate
    assert solved == [True, False]


def test_design_overflow_raises_and_finite_designs_read_near_degenerate():
    # 2B/J or the bulk diagonal -(2k - 4) B leaves the float range
    for n, j, b in ((4, 1e-300, 1e300), (10, 1.0, 1e308), (1000, 1.0, 1e306)):
        with pytest.raises(DomainError, match="floating-point range"):
            design_channel(n, j, b)
    # the antisymmetric check alone guards the symmetric block: it lies
    # between e_anti and x + 2J, so it is finite wherever a design exists
    for n, j, b in ((4, 1e-10, 1e290), (1000, 1.0, 1e303), (40, 1e300, 1e300)):
        design = design_channel(n, j, b)
        e_sym = channel._block_ground(n // 2, j, b, antisymmetric=False)[0]
        assert math.isfinite(e_sym) and e_sym >= design.ground_energy
        assert isinstance(design.near_degenerate, bool)


def test_design_parity_stable_under_joint_rescaling():
    for scale in (0.5, 1.0, 7.0):
        design = design_channel(6, scale, 3.0 * scale)
        assert design.beta == pytest.approx(6.0, abs=1e-12)
        assert design.boundary_concurrence == pytest.approx(
            design_channel(6, 1.0, 3.0).boundary_concurrence, abs=1e-10
        )


def test_design_monotone_in_field():
    values = [
        design_channel(8, 1.0, b).boundary_concurrence for b in np.linspace(0, 12, 60)
    ]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(values, values[1:]))


def test_design_converges_to_profile_formula_with_length():
    # the geometric-profile value is exact only asymptotically; the gap
    # shrinks like beta^(2-2k) as the chain grows
    beta = 5.0
    gaps = [
        abs(design_channel(n, 1.0, beta / 2).boundary_concurrence - c1n_channel(beta, n // 2))
        for n in (4, 8, 12, 16)
    ]
    assert all(g2 < g1 / 100 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-9


def test_design_domain_errors():
    with pytest.raises(DomainError):
        design_channel(4, 0.0, 1.0)
    with pytest.raises(DomainError):
        design_channel(4, 1.0, -1.0)
    with pytest.raises(DomainError):
        design_channel(7, 1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            design_channel(4, bad, 1.0)
        with pytest.raises(DomainError):
            design_channel(4, 1.0, bad)


@pytest.mark.parametrize("n", range(4, 42, 2))
def test_design_block_energies_match_dense_blocks(n):
    k = n // 2
    for beta in regime_edge_betas(k):
        folded = fold_single_excitation(n, 1.0, beta / 2)
        for dense, antisymmetric in ((folded.antisymmetric, True), (folded.symmetric, False)):
            exact = float(np.linalg.eigvalsh(dense)[0])
            energy, _, _ = _block_ground(k, 1.0, beta / 2, antisymmetric)
            assert abs(energy - exact) <= 1e-12 * abs(exact), (n, beta, antisymmetric)
        assert design_channel(n, 1.0, beta / 2).ground_energy == _block_ground(
            k, 1.0, beta / 2, True
        )[0]


@pytest.mark.parametrize("n", range(4, 42, 2))
def test_design_vector_matches_dense_vector(n):
    for beta in regime_edge_betas(n // 2):
        design = design_channel(n, 1.0, beta / 2)
        dense = decompose(fold_single_excitation(n, 1.0, beta / 2).antisymmetric)
        v = dense.eigenvectors[:, 0]
        assert abs(design.boundary_concurrence - v[0] ** 2) <= 1e-12, (n, beta)
        # at beta = 1 every entry ties in magnitude, so the dense sign is
        # roundoff's choice: compare magnitudes
        coeffs = np.abs(design.coefficients) * math.sqrt(2.0)
        assert np.max(np.abs(coeffs - np.abs(v))) <= 1e-12, (n, beta)


def test_design_signs_alternate_with_largest_entry_positive():
    # just below beta = 1 the largest coefficients tie after scaling, though
    # the unscaled profile still ranks them by an ulp: the rule reads the
    # stored coefficients, so the first of the tied ones is positive
    cases = [(12, 0.5), (12, 1.0), (12, 3.0),
             (10, 0.9999999999999997), (256, 0.99999999999997), (1000, 0.99999999999999)]
    for n, beta in cases:
        coeffs = np.asarray(design_channel(n, 1.0, beta / 2).coefficients)
        assert np.all(coeffs[:-1] * coeffs[1:] < 0)
        assert coeffs[np.argmax(np.abs(coeffs))] > 0
    # beta < 1 piles the weight up at the fold, beta > 1 at the boundary
    assert np.argmax(np.abs(design_channel(12, 1.0, 0.25).coefficients)) == 5
    assert np.argmax(np.abs(design_channel(12, 1.0, 1.5).coefficients)) == 0


def test_design_stores_underflowed_coefficients_as_positive_zero():
    coeffs = np.asarray(design_channel(2000, 1.0, 1e8 / 2).coefficients)
    assert np.any(coeffs[1::2] == 0.0)
    assert not np.any(np.signbit(coeffs[coeffs == 0.0]))


def test_ground_profiles_are_unsigned():
    # the row the kernel returns is the profile magnitudes: no entry, not
    # even a zero, carries a sign bit before design_channel signs it
    n_values = (4, 6, 40, 1000, 2000, 10000, 20002)
    betas = (0.0, 0.3, 0.99, 1.0, 1.0 + 1e-7, 1.5, 2.0, 3.0, 10.0, 1e4, 1e8)
    for coupling in (1.0, 0.37):
        for n in n_values:
            for beta in betas:
                _, _, coeffs = channel._ground_profile(n // 2, coupling, beta * coupling / 2.0)
                assert not np.any(np.signbit(coeffs)), (n, coupling, beta)


@st.composite
def _profile_calls(draw):
    """(k, coupling, betas) for kernel calls: betas below 1, at 1, next to
    the symmetric threshold and up to 1e8, in random order, mixing band and
    bound rows, and betas that put 710/p or k - 20/p (the kernel's cutoffs)
    within one site of an integer."""
    k = draw(st.integers(2, 5 * 10**4))
    threshold = (2 * k + 1) / (2 * k - 1)
    near = st.floats(-1.0, 1.0)
    beta = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.just(1.0),
        st.floats(-1e-6, 1e-6).map(lambda r: threshold * (1.0 + r)),
        st.floats(0.0, 8.0 * math.log(10.0)).map(math.exp),
        st.just(1e8),
        st.builds(lambda n, d: math.exp(710.0 / (n + d)), st.integers(40, 10**6), near),
        st.builds(lambda n, d: math.exp(20.0 / (n + d)), st.integers(3, max(3, k)), near),
    )
    coupling = draw(st.sampled_from((1.0, 0.37)))
    return k, coupling, draw(st.lists(beta, min_size=1, max_size=8))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_profile_calls())
def test_ground_profiles_keep_the_bits_of_the_full_formula(call):
    # the kernel skips the exponentials that cannot change a stored bit; the
    # reference evaluates both on every site; and the O(1) table rows carry
    # the kernel's C1N bits
    k, coupling, betas = call
    numeric, _ = channel._channel_rows(k, coupling, betas)
    for beta, c_row in zip(betas, numeric):
        field = beta * coupling / 2.0
        energy, c, row = channel._ground_profile(k, coupling, field)
        e_ref, c_ref, row_ref = scalar_ground_profile(2 * k, coupling, field)
        assert np.array([energy, c, c_row]).tobytes() == np.array([e_ref, c_ref, c_ref]).tobytes()
        assert row.tobytes() == np.abs(row_ref).tobytes()


def test_profile_cutoffs_sit_on_their_safe_side():
    # the fold factor is 1.0 past y = 40, and a head entry past jp = 710 is
    # stored as 0 even with the largest norm factor 1 / sqrt(2 sum s_j^2)
    # (sum s_j^2 >= s_0^2 >= 1), and a larger one, sqrt(2), to spare
    assert 1.0 + np.exp(-40.0) == 1.0
    assert math.sqrt(2.0) * np.exp(-710.0) < np.finfo(float).tiny


def test_ground_profiles_evaluate_only_the_entries_that_can_change_a_bit(monkeypatch):
    # beta = 50 at k = 10000: e^{-jp} leaves the float range after about
    # 710 / ln 50 = 182 sites, and the fold factor is 1.0 up to there
    evaluated, exp = [], np.exp

    def counted(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    _, _, row = channel._ground_profile(10000, 1.0, 25.0)
    assert sum(evaluated) <= 200 and np.count_nonzero(row) < 200


@pytest.mark.parametrize("n,beta", [(40, 20.0), (1000, 5.0)])
def test_design_componentwise_residual(n, beta):
    # every row of (A - E) c vanishes relative to its own terms, down to
    # coefficients hundreds of orders of magnitude below the boundary one
    design = design_channel(n, 1.0, beta / 2)
    a = fold_single_excitation(n, 1.0, beta / 2).antisymmetric
    c = np.asarray(design.coefficients)
    e = design.ground_energy
    rows = [j for j in range(1, len(c) - 1) if np.all(c[j - 1 : j + 2] != 0.0)]
    assert len(rows) >= min(len(c) - 2, 400)
    for j in rows:
        terms = a[j, j - 1 : j + 2] * c[j - 1 : j + 2]
        scale = np.sum(np.abs(terms)) + abs(e * c[j])
        assert abs(np.sum(terms) - e * c[j]) <= 1e-12 * scale, j


def test_ratio_profile_is_exact_at_the_fold():
    # N = 40, beta = 20: the coefficients fall to 1e-25 of the boundary one;
    # every ratio is cosh((k + 1/2 - j) p) / cosh((k - 1/2 - j) p) with
    # e^p = beta up to beta^(-2k)
    k, beta = 20, 20.0
    ratios = ratio_profile(design_channel(2 * k, 1.0, beta / 2))
    p = math.log(beta)
    for j, ratio in enumerate(ratios, start=1):
        exact = math.cosh((k + 0.5 - j) * p) / math.cosh((k - 0.5 - j) * p)
        assert ratio == pytest.approx(exact, rel=1e-12), j
    assert all(r == pytest.approx(beta, rel=1e-12) for r in ratios[: k - 6])
    assert ratios[-1] == pytest.approx(beta + 1 / beta - 1, rel=1e-12)  # 2 cosh p - 1


def test_ratio_profile_flags_underflowed_coefficients():
    # N = 1000, beta = 20: e^{-(j-1) p} leaves the float range near j = 237;
    # those coefficients are 0, never subnormal, and their ratios read inf
    design = design_channel(1000, 1.0, 10.0)
    coeffs = np.abs(design.coefficients)
    assert not np.any((coeffs > 0) & (coeffs < np.finfo(float).tiny))
    ratios = np.asarray(ratio_profile(design))
    finite = np.isfinite(ratios)
    assert finite[:200].all() and not finite[-1]
    assert np.all(np.abs(ratios[finite] - 20.0) <= 1e-12 * 20.0)


def test_channel_length_cap_refuses_before_allocating(monkeypatch):
    def unallocated(*args, **kwargs):
        raise AssertionError("a profile was allocated before the cap check")

    over = chain.SITE_CAP + 2
    with monkeypatch.context() as patched:
        patched.setattr(np, "arange", unallocated)
        patched.setattr(np, "full", unallocated)
        for call in (
            lambda: design_channel(over, 1.0, 1.0),
            lambda: fold_single_excitation(over, 1.0, 1.0),
            lambda: channel.design_report(over, 0.9),
            lambda: channel.channel_curve((4, over), (2.0,)),
        ):
            with pytest.raises(ResourceCapError, match=f"channel of {over} sites exceeds the cap"):
                call()
    # the cap is read when called, and a chain at the cap is solved
    monkeypatch.setattr(chain, "SITE_CAP", 100)
    assert design_channel(100, 1.0, 1.0).n_sites == 100
    assert len(list(channel.channel_curve((100,), (2.0,)))) == 1
    with pytest.raises(ResourceCapError):
        design_channel(102, 1.0, 1.0)
    with pytest.raises(ResourceCapError):
        channel.channel_curve((4, 102), (2.0,))


def test_channel_builders_refuse_a_length_over_the_cap_before_building(monkeypatch):
    # the cap is read before any tuple of the spec is built, so an N past
    # the float range is a cap error and nothing of size N is allocated
    for call in (lambda n: build_channel(n, 1.0, 1.0), lambda n: impurity_profile_chain(n, 0.5)):
        with pytest.raises(ResourceCapError, match="exceeds the cap"):
            call(10**400)
        monkeypatch.setattr(chain, "SITE_CAP", 100)
        assert call(100).n_sites == 100
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="channel of 1000000 sites exceeds the cap of 100"):
                call(10**6)
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()
        monkeypatch.undo()


def test_design_builds_no_dense_block(monkeypatch):
    def dense(*args):
        raise AssertionError("dense path called")

    monkeypatch.setattr(channel, "fold_single_excitation", dense)
    monkeypatch.setattr(np.linalg, "eigh", dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    assert design_channel(1000, 1.0, 2.5).boundary_concurrence == pytest.approx(
        c1n_channel(5.0, 500), abs=1e-15
    )


def test_channel_module_imports_numpy_and_stdlib_only():
    # numpy is the package's only declared dependency
    tree = ast.parse(Path(channel.__file__).read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    assert imported <= {"numpy"} | set(sys.stdlib_module_names), imported


def test_ratio_profile_tracks_beta_toward_the_boundary():
    design = design_channel(8, 1.0, 5.0)  # beta = 10
    ratios = ratio_profile(design)
    assert len(ratios) == 3
    assert abs(ratios[0] - 10.0) / 10.0 < 1e-3
    # the fold-corner ratio sits near beta - 1, not beta
    assert ratios[-1] == pytest.approx(9.0, abs=0.3)


def test_ratio_profile_zero_coefficient_reports_infinity():
    design = ChannelDesign(
        n_sites=6,
        coupling=1.0,
        bulk_field=0.0,
        beta=0.0,
        ground_energy=-1.0,
        coefficients=(math.sqrt(0.5), 0.0, 0.0),
        boundary_concurrence=1.0,
    )
    assert ratio_profile(design) == (math.inf, math.inf)


def test_ratio_profile_zero_field_edge():
    design = design_channel(4, 1.0, 0.0)
    (ratio,) = ratio_profile(design)
    assert math.isfinite(ratio) and ratio != 0.0


def test_impurity_profile_layout():
    assert impurity_profile_chain(4, 3.0).couplings == (1.0, 3.0, 1.0)
    assert impurity_profile_chain(6, 3.0).couplings == (1.0, 3.0, 9.0, 3.0, 1.0)
    assert impurity_profile_chain(3, 3.0).couplings == (1.0, 1.0)
    assert impurity_profile_chain(5, 2.0).fields == (0.0,) * 5
    with pytest.raises(DomainError):
        impurity_profile_chain(2, 1.0)
    with pytest.raises(DomainError):
        impurity_profile_chain(4, 0.0)


def test_sector_concurrence_matches_impurity_closed_forms():
    for j in (0.2, 1.0, 3.0, 10.0):
        spec = impurity_profile_chain(4, j)
        assert sector_boundary_concurrence(spec, 1) == pytest.approx(
            c14_impurity_one_up(j), abs=1e-10
        )
        assert sector_boundary_concurrence(spec, 2) == pytest.approx(
            c14_impurity_two_up(j), abs=1e-10
        )
        spec5 = impurity_profile_chain(5, j)
        assert sector_boundary_concurrence(spec5, 1) == pytest.approx(
            c15_three_half(j), abs=1e-10
        )


def test_sector_concurrence_six_site_two_up_peak():
    spec = ChainSpec(
        n_sites=6,
        couplings=(1.0, 2.2207, 2.2207, 2.2207, 1.0),
        fields=(0.0,) * 6,
        delta=0.0,
    )
    assert sector_boundary_concurrence(spec, 2) == pytest.approx(0.05625, abs=1e-4)


def test_sector_concurrence_degenerate_ground_mixes():
    # zero middle bond: the two boundary-bond singlets are exactly
    # degenerate and the equal mixture carries no end-to-end concurrence
    spec = ChainSpec(
        n_sites=4, couplings=(1.0, 0.0, 1.0), fields=(0.0,) * 4, delta=0.0
    )
    assert sector_boundary_concurrence(spec, 1) == pytest.approx(0.0, abs=1e-12)
    # a middle bond far below the degeneracy tolerance hybridizes the two
    # singlets: each ground vector alone has C14 = 1/2, the mixture ~J/4
    weak = impurity_profile_chain(4, 1e-11)
    assert sector_boundary_concurrence(weak, 1) == pytest.approx(0.0, abs=1e-9)


def test_sector_concurrence_dimension_cap():
    # C(16, 8) = 12870 exceeds the cap; it is refused before allocation
    spec = ChainSpec.uniform(16)
    with pytest.raises(ResourceCapError):
        sector_boundary_concurrence(spec, 8)


@pytest.mark.parametrize("n_up", [-1, 5])
def test_sector_concurrence_rejects_n_up_outside_the_chain(n_up):
    with pytest.raises(DomainError):
        sector_boundary_concurrence(ChainSpec.uniform(4), n_up)


def _package_imports(module) -> dict[str, set[str]]:
    """The package names ``module`` imports, lazily or not, by the submodule
    they come from; a submodule imported whole maps to {"*"}."""
    found = {}
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
            found.setdefault(node.module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update({alias.name: {"*"} for alias in node.names})
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = getattr(node, "module", None) or alias.name
                assert not name.startswith("xxzchain"), name
    return found


DENSE_NAMES = {
    "build_full", "build_sector", "ground_space", "pair_xstate_data", "thermal_state",
    "ground_state_density", "reduce_pair", "reduce_pair_mixed", "concurrence", "PureState",
}


@pytest.mark.parametrize("module", [channel, sweep])
def test_sector_routes_import_no_dense_path(module):
    imports = _package_imports(module)
    assert not set().union(*imports.values()) & DENSE_NAMES
    assert not {"hamiltonian", "entanglement", "eigensolver"} & {
        name for name, names in imports.items() if "*" in names
    }


def test_channel_takes_only_the_tolerance_from_the_numeric_layers():
    # the degeneracy tolerance; the channel makes no BLAS call, so it needs
    # no thread pin
    imports = _package_imports(channel)
    assert "hamiltonian" not in imports and "entanglement" not in imports
    assert imports["eigensolver"] == {"_degeneracy_tolerance"}


def _src_modules():
    """Every module of the package, imported."""
    names = [info.name for info in pkgutil.iter_modules(xxzchain.__path__)]
    return [xxzchain] + [importlib.import_module(f"xxzchain.{name}") for name in names]


def test_the_channel_is_one_module():
    # the channel's CLI routes live beside its kernel: nothing else reads a
    # private channel name, and sweep keeps only the tracer's binding
    assert "sweep" not in _package_imports(channel)
    assert _package_imports(sweep)["channel"] == {"channel_curve"}
    for module in _src_modules():
        if module is not channel:
            names = _package_imports(module).get("channel", set())
            assert not {name for name in names if name.startswith("_")}, module.__name__


def _bare_conversions(module) -> list[str]:
    """Public functions of ``module`` that call a bare float() or int() on
    one of their own parameters."""
    found = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        params = {a.arg for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
        found += [
            f"{node.name}: {ast.unparse(call)}"
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in ("float", "int") and len(call.args) == 1
            and isinstance(call.args[0], ast.Name) and call.args[0].id in params
        ]
    return found


def test_numbers_are_read_only_by_the_chain_rule():
    # the CLI hands config values to the library, which reads each one by
    # errors.as_float / errors.as_int where it first reads it; every module
    # imports the readers, and _shown, from errors itself
    readers = {name for name in vars(errors) if name.startswith("as_")}
    assert readers == {"as_float", "as_int"}
    for module in _src_modules():
        imported = _package_imports(module).get("chain", set())
        assert not imported & {*readers, "_shown"}, module.__name__
        if module is not errors:
            assert not _bare_conversions(module), module.__name__


def _numbers_imports(module) -> set[str]:
    """The names ``module`` imports from the standard ``numbers`` module."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {"numbers" for alias in node.names if alias.name == "numbers"}
    return found


def test_only_the_number_rule_asks_for_a_number_type():
    # the type check is the rule's alone, so no module repeats it
    for module in _src_modules():
        expected = {"Integral", "Real"} if module is errors else set()
        assert _numbers_imports(module) == expected, module.__name__


def _load_by_path(monkeypatch, path: Path):
    """Execute a benchmark file as a module of its own, without editing it or
    leaving it in sys.modules."""
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_looks_up_is_one_object_across_the_package(monkeypatch):
    # the tracer wraps ``getattr(xxzchain.<module>, name)`` in every module
    # bound to that very object, so a stale lookup would break the traced
    # run and a second object would escape its patch; the oracles import
    # their names, so loading them checks those lookups too
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    tracing = _load_by_path(monkeypatch, bench / "tracing.py")
    oracles = _load_by_path(monkeypatch, bench / "oracles.py")
    imported = [
        (node.module.removeprefix("xxzchain."), alias.name)
        for node in ast.walk(ast.parse(Path(oracles.__file__).read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xxzchain.")
        for alias in node.names
    ]
    assert imported
    modules = _src_modules()
    for module, name in (*tracing.TRACED, *tracing.TRACED_GENERATORS, *imported):
        original = getattr(importlib.import_module(f"xxzchain.{module}"), name)
        holders = [m for m in modules if hasattr(m, name)]
        assert all(getattr(m, name) is original for m in holders), (module, name)
