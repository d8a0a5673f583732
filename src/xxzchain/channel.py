"""The long-distance boundary-entanglement channel.

A uniform XX chain whose bulk sites (2..N-1) sit in a magnetic field keeps
its single-excitation ground state pinned to the boundary pair, giving a
boundary concurrence that approaches 1 as 2B/J grows.  The single-
excitation sector splits under the mirror symmetry of the chain into two
k x k tridiagonal blocks (N = 2k) with a uniform bulk, whose ground states
have closed forms: a value is one scalar secular root (``_root``) and a few
``math`` calls (``_profile_ends``), so any chain up to chain.SITE_CAP sites
is routine.  The CLI routes, ``channel_blocks`` (the rows ``channel_curve``
yields, beside the closed-form ``c1n_channel`` column) and ``design_report``
(a bracket on beta up to ``BETA_CAP``, read at each call), are O(1) a row;
only ``design_channel`` builds its O(k) profile (``_ground_profile``).  The
channel's chain (``build_channel``) and other coupling profiles, such as
``impurity_profile_chain``, are specs for the sector ground-state route
(``sweep.sector_boundary_concurrence``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import _CHUNK_ENTRIES, ChainSpec, _capped, _rows, check_grid
from .closed_forms import c1n_channel
from .eigensolver import _degeneracy_tolerance
from .errors import DomainError, _shown, as_float, as_int

# the top of design_report's bracket on beta = 2B/J, read at each call
BETA_CAP = 1e8


@dataclass(frozen=True)
class FoldedChannelMatrices:
    """Mirror-symmetric (+) and antisymmetric (-) blocks of the
    single-excitation sector, each k x k tridiagonal with hopping J,
    diagonal (x1, x, ..., x, x +/- J), x1 = -(2k-2)B, x = -(2k-4)B."""

    k: int
    symmetric: np.ndarray
    antisymmetric: np.ndarray


@dataclass(frozen=True)
class ChannelDesign:
    """Ground-state profile of the folded channel.

    ``coefficients[j]`` is the amplitude shared by sites j+1 and N-j (half
    profile, so 2 * sum of squares = 1); ``boundary_concurrence`` equals
    twice the squared boundary coefficient.  The ground state lies in the
    antisymmetric folded block for every J > 0.
    """

    n_sites: int
    coupling: float
    bulk_field: float
    beta: float
    ground_energy: float
    coefficients: tuple[float, ...]
    boundary_concurrence: float

    @property
    def near_degenerate(self) -> bool:
        """Whether the symmetric block's ground energy lies within the
        degeneracy tolerance of ``ground_energy``.  That block is solved
        on each read, so a design that is never asked pays nothing for it."""
        k = _half_length(self.n_sites)
        e_sym, _, _ = _block_ground(k, self.coupling, self.bulk_field, antisymmetric=False)
        e_anti = self.ground_energy
        return bool(abs(e_sym - e_anti) <= _degeneracy_tolerance(min(e_sym, e_anti)))


def _half_length(n_sites: int) -> int:
    """k = N/2 for the even chains (N >= 4) that fold into two k x k blocks;
    a chain over chain.SITE_CAP sites is refused before anything is built."""
    n_sites = as_int(n_sites, "n_sites")
    if n_sites < 4 or n_sites % 2:
        raise DomainError(
            f"folding needs an even chain with at least 4 sites, got {_shown(n_sites)}"
        )
    return _capped(n_sites, "channel") // 2


def _check_channel(coupling: float, bulk_field: float) -> tuple[float, float]:
    """The coupling and bulk field as floats, refused unless the coupling is
    > 0 and the bulk field >= 0 (``as_float`` refuses a non-finite one)."""
    coupling, bulk_field = as_float(coupling, "coupling"), as_float(bulk_field, "bulk field")
    if coupling <= 0:
        raise DomainError("channel design needs a positive coupling")
    if bulk_field < 0:
        raise DomainError("channel design needs a nonnegative bulk field")
    return coupling, bulk_field


def fold_single_excitation(
    n_sites: int, coupling: float, bulk_field: float
) -> FoldedChannelMatrices:
    """Fold the one-up sector of the bulk-field channel by mirror parity."""
    k = _half_length(n_sites)
    j, b = as_float(coupling, "coupling"), as_float(bulk_field, "bulk field")
    diag = np.full(k, -(2.0 * k - 4.0) * b)
    diag[0] = -(2.0 * k - 2.0) * b
    base = np.diag(diag)
    off = np.arange(k - 1)
    base[off, off + 1] = j
    base[off + 1, off] = j
    sym = base.copy()
    sym[-1, -1] += j
    anti = base.copy()
    anti[-1, -1] -= j
    return FoldedChannelMatrices(k=k, symmetric=sym, antisymmetric=anti)


def _root(fn, lo: float, hi: float) -> float:
    """The sign change of ``fn`` in (lo, hi), fn < 0 below and >= 0 above, as
    bisection finds it: it narrows the bracket until the midpoint equals an
    end and returns that midpoint, so where the computed fn changes sign once
    the bits are bisection's.  Each end's inner neighbour is probed (not an
    end at 0: the symmetric forms vanish there, their sign next to it noise),
    then Illinois regula falsi steps (M. Dowell and P. Jarratt, BIT 11, 168
    (1971)) are kept a float inside: about 10 calls a root, not 50.  It halves
    while a side has no value and where fn overflowed.  Once hi has read 0
    twice, fn is flat above the sign change (design's target is met exactly
    over a stretch of floats): a secant through the last two negative values,
    unscaled, aims at the stretch's lower edge.  It halves where that secant
    leaves the bracket, and for good once two aims in a row land on the flat
    side, as they do where fn is convex below the edge.  That costs at most a
    few calls over halving, which took about 25 more on design's stretches."""
    f_lo, f_hi, side, flat = math.nan, math.nan, 0, False  # nan: no value yet
    # f_raw is fn(lo) unscaled, and (back, f_back) the lo before it
    f_raw, back, f_back, misses = math.nan, math.nan, math.nan, 0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        aim = hi  # below hi: this step is a secant aim
        if math.isnan(f_lo) and lo > 0.0:
            x = math.nextafter(lo, hi)
        elif math.isnan(f_hi):
            x = math.nextafter(hi, lo)
        elif flat or not -math.inf < f_lo < f_hi:
            if flat and misses < 2 and f_back < f_raw < 0.0:
                aim = lo - (lo - back) * (f_raw / (f_raw - f_back))
            x = max(aim, math.nextafter(lo, hi)) if aim < hi else mid
        else:
            x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
            x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        fx = fn(x)  # Illinois: an end kept twice running has its value halved
        if fx < 0.0:
            f_hi *= 0.5 if side < 0 else 1.0
            misses = 0 if aim < hi else misses
            back, f_back = lo, f_raw
            lo, f_lo, f_raw, side = x, fx, fx, -1
        else:
            f_lo *= 0.5 if side > 0 else 1.0
            flat = fx == f_hi == 0.0
            misses += aim < hi
            hi, f_hi, side = x, fx, 1
    return mid


def _ground_wavenumber(k: int, beta: float, antisymmetric: bool) -> tuple[float, bool]:
    """Ground-state wavenumber q of a folded block, and whether it is a bound
    state (E = x - 2J cosh q) or a band state (E = x - 2J cos q).

    With c_j = (-1)^j s_j the uniform bulk rows read
    s_{j-1} + s_{j+1} = ((x - E)/J) s_j, the boundary row is s_0 = beta s_1
    and the fold row is s_{k+1} = s_k (antisymmetric block: s_j is cosh or
    cos of (k + 1/2 - j) q) or s_{k+1} = -s_k (symmetric block: sinh or
    sin).  The boundary row is then the secular equation
    F((k + 1/2) q) = beta F((k - 1/2) q).  Each form below is a difference
    of two terms that are each computed to full relative accuracy, so the
    root stays sharp next to beta = 1 and the symmetric block's bound-state
    threshold beta = (2k + 1)/(2k - 1); the bound-state forms are scaled by
    e^{-(k - 1/2) q}, so nothing overflows.
    """
    b1 = beta - 1.0
    if antisymmetric and beta == 1.0:
        return 0.0, False
    if antisymmetric and beta > 1.0:
        # cosh((k + 1/2) p) = beta cosh((k - 1/2) p), root in (ln beta, ln(beta + 1))
        def secular(p):
            return -math.expm1(-2 * k * p) * math.expm1(p) - b1 * (
                1.0 + math.exp(-(2 * k - 1) * p)
            )

        return _root(secular, math.log(beta), math.log1p(beta)), True
    if antisymmetric:
        # cos((k + 1/2) t) = beta cos((k - 1/2) t), root in (0, pi/(2k+1)]
        def secular(t):
            return 2.0 * math.sin(k * t) * math.sin(0.5 * t) + b1 * math.cos((k - 0.5) * t)

        return _root(secular, 0.0, math.pi / (2 * k + 1)), False
    if beta > (2.0 * k + 1.0) / (2.0 * k - 1.0):
        # sinh((k + 1/2) p) = beta sinh((k - 1/2) p), root in (0, ln beta)
        def secular(p):
            return (1.0 + math.exp(-2 * k * p)) * math.expm1(p) + b1 * math.expm1(
                -(2 * k - 1) * p
            )

        return _root(secular, 0.0, math.log(beta)), True

    # sin((k + 1/2) t) = beta sin((k - 1/2) t), root in (0, 2 pi/(2k+1)]
    def secular(t):
        return b1 * math.sin((k - 0.5) * t) - 2.0 * math.cos(k * t) * math.sin(0.5 * t)

    return _root(secular, 0.0, 2.0 * math.pi / (2 * k + 1)), False


def _block_ground(
    k: int, coupling: float, bulk_field: float, antisymmetric: bool
) -> tuple[float, float, bool]:
    """Ground energy of one folded block, with its wavenumber q and whether
    it is a bound state (see ``_ground_wavenumber``); refused where the
    energy leaves the float range."""
    q, bound = _ground_wavenumber(k, 2.0 * bulk_field / coupling, antisymmetric)
    x = -(2.0 * k - 4.0) * bulk_field
    energy = x - 2.0 * coupling * (math.cosh(q) if bound else math.cos(q))
    if not math.isfinite(energy):
        raise DomainError("channel parameters exceed the floating-point range")
    return energy, q, bound


def _profile_ends(k: int, q: float, bound: bool) -> tuple[float, float, float, float]:
    """C_1N (s_0 / sqrt(sum) squared, a normalised row's first entry), the sum
    of squares and the largest and smallest ratio s_j / s_{j+1} of the ground
    profile s_j (``_ground_profile``), O(1) from its root.  Scaled by
    2 e^{-(k-1/2) p}, with x = e^{-(2k-1) p}, a bound row has s_0 = 1 + x and
    sum_{j>0} s_j^2 = 2(k-1) x + e^{-2p} expm1(-4(k-1)p) / expm1(-2p), all terms
    positive ((k-1)/2 + sinh(2(k-1)p) / (4 sinh p) unscaled; band: sin); no
    k-term sum, whose error bound grows with k (N. J. Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 4).  The ratio
    cosh p + tanh((k - 3/2 - j) p) sinh p falls from r_0 = e^p (1 + x) /
    (1 + e^{-(2k-3) p}) to r_{k-2} = 2 cosh p - 1 (band: rises to the fold)."""
    if bound:
        x, y = math.exp(-(2 * k - 1) * q), math.exp(-2 * q)
        s0, tail = 1.0 + x, 2 * (k - 1) * x + y * math.expm1(-4 * (k - 1) * q) / math.expm1(-2 * q)
        ends = math.exp(q) * s0 / (1.0 + math.exp(-(2 * k - 3) * q)), 2.0 * math.cosh(q) - 1.0
    elif q == 0.0:  # beta = 1: s_j = 1
        s0, tail, ends = 1.0, k - 1.0, (1.0, 1.0)
    else:
        s0 = math.cos((k - 0.5) * q)
        tail = 0.5 * (k - 1) + math.sin(2 * (k - 1) * q) / (4 * math.sin(q))
        ends = math.cos(1.5 * q) / math.cos(0.5 * q), s0 / math.cos((k - 1.5) * q)
    v0 = s0 / math.sqrt(s0 * s0 + tail)
    return v0 * v0, s0 * s0 + tail, *ends


def _channel_rows(k: int, coupling: float, betas) -> tuple[list, list]:
    """C_1N = s_0^2 / sum s_j^2 and max_j |r_j - beta| / beta (inf at beta = 0)
    of a chain of 2k sites at each beta (bulk field beta J / 2), O(1) a row
    and no array; an energy that overflows raises before any row is returned."""
    numeric, deviations = [], []
    for beta in betas:
        _, q, bound = _block_ground(k, coupling, beta * coupling / 2.0, True)
        c1n, _, r_max, r_min = _profile_ends(k, q, bound)
        numeric.append(c1n)
        deviations.append(max(r_max - beta, beta - r_min) / beta if beta > 0 else math.inf)
    return numeric, deviations


def _ground_profile(k: int, coupling: float, bulk_field: float) -> tuple[float, float, np.ndarray]:
    """Ground energy, boundary concurrence and unsigned half-profile |c_j|
    (those below the smallest normal float stored as 0) of the antisymmetric
    block of 2k sites, the row ``design_channel`` signs: (-1)^j s_j, s_j >= 0,
    with s_j = cosh((k - 1/2 - j) p) (beta > 1), 1 (beta = 1) or
    cos((k - 1/2 - j) theta) (beta < 1), over sqrt(2 sum s_j^2) and with C_1N
    from ``_profile_ends`` (no dot product).  A bound row is e^{-jp} times
    1 + e^{-(2k-1-2j) p}, so every coefficient has full relative accuracy;
    only the exponentials that can change a stored bit are evaluated: the
    fold factor is 1.0 for 2k-1-2j > 40/p (e^{-40} < 2^-53), and as
    sum s_j^2 >= 1, |c_j| <= e^{-710} is stored as 0 where jp > 710."""
    energy, q, bound = _block_ground(k, coupling, bulk_field, True)
    sites = np.arange(k)
    if bound:
        head = min(k, int(710.0 / q) + 2)  # jp > 710 from here on
        fold = min(head, max(0, int(k - 0.5 - 20.0 / q)))  # y > 40 below here
        s = np.zeros(k)
        s[:head] = np.exp(-q * sites[:head])
        s[fold:head] *= 1.0 + np.exp(-q * (2 * k - 1 - 2 * sites[fold:head]))
    else:
        s = np.cos(q * (k - 0.5 - sites))
    c1n, total, _, _ = _profile_ends(k, q, bound)
    s /= math.sqrt(2.0 * total)
    s[s < np.finfo(float).tiny] = 0.0
    return energy, c1n, s


def design_channel(n_sites: int, coupling: float, bulk_field: float) -> ChannelDesign:
    """Solve the folded channel exactly and read off the boundary concurrence.

    The profile is ``_ground_profile``'s row, given the library's one sign
    rule (signs alternate, the first largest-magnitude coefficient positive)
    and packed into a tuple; its boundary concurrence is the closed form the
    CLI routes print, so ``design`` and ``channel`` print the same bits.

    For J > 0 the antisymmetric block's ground energy is strictly below the
    symmetric one (its fold corner is lower by 2J and the ground vector has
    nonzero weight there), so it always holds the ground state and only its
    secular equation is solved here.  The split shrinks like beta^(2-2k);
    ``ChannelDesign.near_degenerate`` solves the symmetric block on demand
    and flags that the split fell within the degeneracy tolerance.

    Coefficients below the smallest normal float (about 2.2e-308) are
    stored as 0 (see ``ratio_profile``).  A chain over chain.SITE_CAP sites
    raises ResourceCapError.
    """
    j, b = _check_channel(coupling, bulk_field)
    k = _half_length(n_sites)
    e_anti, c1n, coeffs = _ground_profile(k, j, b)
    # signs alternate, the first largest entry positive; 0 - c keeps a 0 at +0
    flip = slice(1 - int(np.argmax(coeffs)) % 2, None, 2)
    coeffs[flip] = 0.0 - coeffs[flip]
    return ChannelDesign(
        n_sites=2 * k,
        coupling=j,
        bulk_field=b,
        beta=2.0 * b / j,
        ground_energy=e_anti,
        coefficients=tuple(coeffs.tolist()),
        boundary_concurrence=c1n,
    )


def ratio_profile(design: ChannelDesign) -> tuple[float, ...]:
    """Successive magnitude ratios |c_j / c_{j+1}| of the half profile.

    A vanishing next coefficient yields an infinite ratio (0 / 0 too), not
    an error.  For a ``design_channel`` profile with beta > 1 the ratios are
    exactly cosh((k + 1/2 - j) p) / cosh((k - 1/2 - j) p): they tend to e^p,
    which is beta = 2B/J up to a relative beta^(-2k), a few sites away from
    the fold, and the last one (at the fold) is 2 cosh p - 1, i.e.
    beta + 1/beta - 1 on long chains.  Coefficients below about 1e-308 are
    stored as 0, so their ratios read inf; the ``channel`` table takes its
    two end ratios in closed form instead (``_profile_ends``), finite.
    """
    if len(design.coefficients) < 2:
        raise DomainError("ratio profile needs at least two coefficients")
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.abs(design.coefficients[:-1]) / np.abs(design.coefficients[1:])
    r[np.isnan(r)] = np.inf  # 0 / 0: both coefficients are stored as 0
    return tuple(r.tolist())


def channel_curve(n_values, betas, coupling: float = 1.0):
    """Rows (N, beta, numeric C1N, profile-formula C1N, max ratio deviation)
    over the grid of the sequences ``n_values`` and ``betas``, O(1) each:
    ``design_channel``'s C1N bits, and max_j |r_j - beta| / beta over the
    exact ratios, finite for beta > 0.  The grid, each N (capped at
    chain.SITE_CAP), J and bulk field beta J / 2 are checked before the first
    row.  The rows of ``channel_blocks``, flattened."""
    return _rows(*channel_blocks(n_values, betas, coupling))


def channel_blocks(n_values, betas, coupling: float = 1.0):
    """The checked betas and the blocks (see ``chain._rows``) of
    ``channel_curve``'s rows, ((N,), start, [numeric, closed form,
    deviation]) each, on the betas from betas[start]: the table the CLI
    writes.

    The coupling is checked once and each beta read once, with its bulk
    field.  Each N solves its betas in chunks of chain._CHUNK_ENTRIES, one
    block (``_channel_rows``) each, so memory follows the chunk, not N.  A
    bulk field at which the energy overflows raises before the chunk's rows."""
    n_values, betas = check_grid(n_values, betas)
    halves = [_half_length(n) for n in n_values]
    coupling, _ = _check_channel(coupling, 0.0)
    betas = list(betas)
    for i, beta in enumerate(betas):
        betas[i] = beta = as_float(beta, "beta")
        if as_float(beta * coupling / 2.0, "bulk field") < 0:
            raise DomainError("channel design needs a nonnegative bulk field")

    def blocks():
        for k in halves:
            for start in range(0, len(betas), _CHUNK_ENTRIES):
                chunk = betas[start : start + _CHUNK_ENTRIES]
                numeric, deviations = _channel_rows(k, coupling, chunk)
                closed = [c1n_channel(beta, k) if beta > 1.0 else math.nan for beta in chunk]
                yield (2 * k,), start, [numeric, closed, deviations]

    return betas, blocks()


def design_report(n_sites: int, target: float, coupling: float = 1.0) -> dict:
    """Size the bulk field that reaches a target boundary concurrence.

    beta is the last-bit crossing of the exact folded design, found without
    the profile formula: design_channel(N, J, beta J / 2) reaches the target
    and the float below beta does not.  A bracket doubles from beta = 2 up
    to BETA_CAP (read at each call), the cap included, then ``_root`` finds
    the two floats that straddle it in [0, hi]."""
    target = as_float(target, "target")
    if not 0.0 < target < 1.0:
        raise DomainError(f"target must lie in (0, 1), got {target}")
    coupling, _ = _check_channel(coupling, 0.0)
    k = _half_length(n_sites)
    solved = {}  # beta -> achieved: the report reads the search's own solves

    def achieved(beta: float) -> float:
        if beta not in solved:
            _check_channel(coupling, beta * coupling / 2.0)
            solved[beta] = _channel_rows(k, coupling, (beta,))[0][0]
        return solved[beta]

    def report(status: str, beta: float) -> dict:
        return {
            "n_sites": 2 * k,
            "target": target,
            "status": status,
            "beta": beta,
            "bulk_field": beta * coupling / 2.0,
            "achieved": achieved(beta),
        }

    if achieved(0.0) >= target:
        return report("already-achieved-at-zero-field", 0.0)
    hi = 2.0
    while achieved(hi) < target:
        if hi == BETA_CAP:
            return report("unreachable-below-beta-cap", hi)
        hi = min(2.0 * hi, BETA_CAP)
    beta = _root(lambda b: achieved(b) - target, 0.0, hi)  # either float of the crossing
    return report("ok", beta if achieved(beta) >= target else math.nextafter(beta, hi))


def build_channel(n_sites: int, coupling: float, bulk_field: float) -> ChainSpec:
    """Uniform XX chain with a field on the bulk sites only.

    Sites 1 and N see zero field; sites 2..N-1 see ``bulk_field``; a chain
    over chain.SITE_CAP sites is refused before any tuple is built."""
    n_sites = _capped(as_int(n_sites, "n_sites"), "channel")
    if n_sites < 3:
        raise DomainError(f"channel needs at least 3 sites, got {_shown(n_sites)}")
    return ChainSpec(
        n_sites=n_sites,
        couplings=(coupling,) * (n_sites - 1),
        fields=(0.0, *(bulk_field,) * (n_sites - 2), 0.0),
        delta=0.0,
    )


def impurity_profile_chain(n_sites: int, base: float) -> ChainSpec:
    """XX chain with the mirror-symmetric geometric coupling profile
    J_i = base^(i-1) up to the midpoint: (1, J, J^2, ..., J^2, J, 1); a chain
    over chain.SITE_CAP sites is refused before any tuple is built."""
    n_sites = _capped(as_int(n_sites, "n_sites"), "channel")
    base = as_float(base, "profile base")
    if n_sites < 3:
        raise DomainError(f"profile chain needs at least 3 sites, got {_shown(n_sites)}")
    if base <= 0:
        raise DomainError("profile base must be positive")
    try:  # refuse a base^(N//2 - 1) past the float range; a base < 1 only underflows
        couplings = tuple(base ** (min(i, n_sites - i) - 1) for i in range(1, n_sites))
    except OverflowError:
        top = n_sites // 2 - 1
        raise DomainError(f"profile base^{top} must lie in the float range, got {base!r}") from None
    return ChainSpec(
        n_sites=n_sites,
        couplings=couplings,
        fields=(0.0,) * n_sites,
        delta=0.0,
    )
