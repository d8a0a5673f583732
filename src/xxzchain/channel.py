"""The long-distance boundary-entanglement channel.

A uniform XX chain whose bulk sites (2..N-1) sit in a magnetic field keeps
its single-excitation ground state pinned to the boundary pair, giving a
boundary concurrence that approaches 1 as 2B/J grows.  The single-
excitation sector splits under the mirror symmetry of the chain into two
k x k tridiagonal blocks (N = 2k) with a uniform bulk, whose ground states
have closed forms: a design is one scalar secular equation plus an O(k)
profile, so chains of 10^5 sites and more are routine.  Arbitrary coupling
profiles, such as ``impurity_profile_chain``, go through the sector
ground-state route of the sweep core (``sweep.sector_boundary_concurrence``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .eigensolver import DEGENERACY_RTOL
from .errors import DomainError


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
        return abs(e_sym - e_anti) <= DEGENERACY_RTOL * (1.0 + abs(min(e_sym, e_anti)))


def _half_length(n_sites: int) -> int:
    """k = N/2 for the even chains (N >= 4) that fold into two k x k blocks."""
    if n_sites < 4 or n_sites % 2:
        raise DomainError(
            f"folding needs an even chain with at least 4 sites, got {n_sites}"
        )
    return n_sites // 2


def _check_channel(coupling: float, bulk_field: float) -> None:
    """Refuse a coupling that is not finite and > 0, or a bulk field not finite and >= 0."""
    if not (math.isfinite(coupling) and math.isfinite(bulk_field)):
        raise DomainError("channel design needs a finite coupling and bulk field")
    if coupling <= 0:
        raise DomainError("channel design needs a positive coupling")
    if bulk_field < 0:
        raise DomainError("channel design needs a nonnegative bulk field")


def fold_single_excitation(
    n_sites: int, coupling: float, bulk_field: float
) -> FoldedChannelMatrices:
    """Fold the one-up sector of the bulk-field channel by mirror parity."""
    k = _half_length(n_sites)
    j, b = float(coupling), float(bulk_field)
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


def _bisect(fn, lo: float, hi: float) -> float:
    """The sign change of ``fn`` in (lo, hi), where fn < 0 below it and
    fn >= 0 above.  Halving stops when the midpoint equals an endpoint, so the
    root is resolved to the last bit and identical inputs give identical
    bits."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid


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

        return _bisect(secular, math.log(beta), math.log1p(beta)), True
    if antisymmetric:
        # cos((k + 1/2) t) = beta cos((k - 1/2) t), root in (0, pi/(2k+1)]
        def secular(t):
            return 2.0 * math.sin(k * t) * math.sin(0.5 * t) + b1 * math.cos((k - 0.5) * t)

        return _bisect(secular, 0.0, math.pi / (2 * k + 1)), False
    if beta > (2.0 * k + 1.0) / (2.0 * k - 1.0):
        # sinh((k + 1/2) p) = beta sinh((k - 1/2) p), root in (0, ln beta)
        def secular(p):
            return (1.0 + math.exp(-2 * k * p)) * math.expm1(p) + b1 * math.expm1(
                -(2 * k - 1) * p
            )

        return _bisect(secular, 0.0, math.log(beta)), True

    # sin((k + 1/2) t) = beta sin((k - 1/2) t), root in (0, 2 pi/(2k+1)]
    def secular(t):
        return b1 * math.sin((k - 0.5) * t) - 2.0 * math.cos(k * t) * math.sin(0.5 * t)

    return _bisect(secular, 0.0, 2.0 * math.pi / (2 * k + 1)), False


def _block_ground(
    k: int, coupling: float, bulk_field: float, antisymmetric: bool
) -> tuple[float, float, bool]:
    """Ground energy of one folded block, with its wavenumber q and whether
    it is a bound state (see ``_ground_wavenumber``)."""
    q, bound = _ground_wavenumber(k, 2.0 * bulk_field / coupling, antisymmetric)
    x = -(2.0 * k - 4.0) * bulk_field
    return x - 2.0 * coupling * (math.cosh(q) if bound else math.cos(q)), q, bound


def design_channel(n_sites: int, coupling: float, bulk_field: float) -> ChannelDesign:
    """Solve the folded blocks exactly and read off the boundary concurrence.

    Both blocks are k x k tridiagonal with a uniform bulk, so each ground
    energy is the root of one scalar secular equation (bisection to the last
    bit) and the antisymmetric ground vector has the closed form
    s_j = cosh((k + 1/2 - j) p) (beta > 1), 1 (beta = 1) or
    cos((k + 1/2 - j) theta) (beta < 1), with alternating signs and the
    largest-magnitude entry positive.  The profile is evaluated in O(k) as
    e^{-(j-1) p} (1 + e^{-(2k+1-2j) p}), so every coefficient carries full
    relative accuracy, however far below the boundary amplitude it falls.
    No dense matrix is built.

    For J > 0 the antisymmetric block's ground energy is strictly below the
    symmetric one (its fold corner is lower by 2J and the ground vector has
    nonzero weight there), so it always holds the ground state and only its
    secular equation is solved here.  The split shrinks like beta^(2-2k);
    ``ChannelDesign.near_degenerate`` solves the symmetric block on demand
    and flags that the split fell within the degeneracy tolerance.

    Coefficients below the smallest normal float (about 2.2e-308) are
    stored as 0, so their ratios in ``ratio_profile`` read inf: a float-range
    limit, plainly flagged, not roundoff.
    """
    _check_channel(coupling, bulk_field)
    k = _half_length(n_sites)
    j, b = float(coupling), float(bulk_field)
    e_anti, q, bound = _block_ground(k, j, b, antisymmetric=True)
    # the symmetric ground energy lies between e_anti and x + 2J, so a finite
    # e_anti bounds it too
    if not math.isfinite(e_anti):
        raise DomainError("channel parameters exceed the floating-point range")

    sites = np.arange(k)
    if bound:
        s = np.exp(-q * sites) * (1.0 + np.exp(-q * (2 * k - 1 - 2 * sites)))
    else:
        s = np.cos(q * (k - 0.5 - sites))
    v = s / math.sqrt(float(s @ s))
    v[1::2] *= -1.0
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    coeffs = v / math.sqrt(2.0)
    coeffs[np.abs(coeffs) < np.finfo(float).tiny] = 0.0
    return ChannelDesign(
        n_sites=n_sites,
        coupling=j,
        bulk_field=b,
        beta=2.0 * b / j,
        ground_energy=e_anti,
        coefficients=tuple(coeffs.tolist()),
        boundary_concurrence=float(v[0] * v[0]),
    )


def ratio_profile(design: ChannelDesign) -> tuple[float, ...]:
    """Successive magnitude ratios |c_j / c_{j+1}| of the half profile.

    A vanishing next coefficient yields an infinite ratio, not an error.
    For a ``design_channel`` profile with beta > 1 the ratios are exactly
    cosh((k + 1/2 - j) p) / cosh((k - 1/2 - j) p): they tend to e^p, which is
    beta = 2B/J up to a relative beta^(-2k), a few sites away from the fold,
    and the last one (at the fold) is 2 cosh p - 1, i.e. beta + 1/beta - 1 on
    long chains.  Coefficients below about 1e-308 are stored as 0, so their
    ratios read inf: a float-range limit, not roundoff.
    """
    c = np.abs(np.asarray(design.coefficients))
    if len(c) < 2:
        raise DomainError("ratio profile needs at least two coefficients")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(c[1:] > 0.0, c[:-1] / c[1:], np.inf)
    return tuple(ratios.tolist())


def impurity_profile_chain(n_sites: int, base: float) -> ChainSpec:
    """XX chain with the mirror-symmetric geometric coupling profile
    J_i = base^(i-1) up to the midpoint: (1, J, J^2, ..., J^2, J, 1)."""
    if n_sites < 3:
        raise DomainError(f"profile chain needs at least 3 sites, got {n_sites}")
    if base <= 0:
        raise DomainError("profile base must be positive")
    couplings = tuple(
        float(base) ** (min(i, n_sites - i) - 1) for i in range(1, n_sites)
    )
    return ChainSpec(
        n_sites=n_sites,
        couplings=couplings,
        fields=(0.0,) * n_sites,
        delta=0.0,
    )
