"""Analytic results for small chains and the bulk-field channel.

These standalone expressions double as the oracle layer for the numeric
pipeline: every function here is checked against direct diagonalization in
the test suite.  Concurrence expressions carry the Wootters max(0, .) clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

BETA_CAP = 1e8


@dataclass(frozen=True)
class PhaseBoundary3:
    """Critical uniform field of the 3-site chain: below it the ground state
    is the entangled one-up state, above it the polarized product state."""

    delta: float
    coupling: float
    b_critical: float


@dataclass(frozen=True)
class GroundRegime:
    """One ground-state regime of a chain under a uniform field: on
    (b_min, b_max) the ground state lives in the ``n_up`` sector and carries
    boundary concurrence ``c14_max`` (C_1N in general; C_14 in the 4-site
    table).  ``energy_at_zero_field`` is set on the regime holding B = 0
    only."""

    b_min: float
    b_max: float
    n_up: int
    c14_max: float
    energy_at_zero_field: float | None = None


def _radical_3(delta: float, coupling: float) -> float:
    return math.sqrt(8.0 * coupling * coupling + delta * delta)


def c13_ground(delta: float, coupling: float) -> float:
    """Boundary concurrence of the 3-site ground state below the critical
    field: (D - r)^2 / (8J^2 + (D - r)^2) with r = sqrt(8J^2 + D^2)."""
    if coupling == 0:
        raise DomainError("c13_ground needs a nonzero coupling")
    r = _radical_3(delta, coupling)
    t = (delta - r) ** 2
    return t / (8.0 * coupling * coupling + t)


def critical_field_3site(delta: float, coupling: float) -> PhaseBoundary3:
    """(3D + sqrt(8J^2 + D^2)) / 4."""
    return PhaseBoundary3(
        delta=delta,
        coupling=coupling,
        b_critical=(3.0 * delta + _radical_3(delta, coupling)) / 4.0,
    )


def spectrum_3site(delta: float, coupling: float, field: float) -> tuple[float, ...]:
    """The eight 3-site eigenvalues for uniform parameters, indexed by the
    conventional eigenstate ordering:

    0: all-down product        4: two-up antisymmetric
    1: one-up antisymmetric    5: two-up symmetric (lower)
    2: one-up symmetric lower  6: two-up symmetric (upper)
    3: one-up symmetric upper  7: all-up product

    One-up states carry field energy -B, two-up states +B; this sign
    assignment is what makes the critical field above come out right.
    """
    r = _radical_3(delta, coupling)
    d_plus = delta + r
    d_minus = delta - r
    b = field
    return (
        delta - 3.0 * b,
        -b,
        -d_plus / 2.0 - b,
        -d_minus / 2.0 - b,
        b,
        -d_plus / 2.0 + b,
        -d_minus / 2.0 + b,
        delta + 3.0 * b,
    )


def one_up_ground_energy_4site(delta: float, coupling: float, field: float) -> float:
    """Lowest one-up eigenvalue of the uniform 4-site chain:
    -(4B + J + sqrt(5J^2 + 2JD + D^2)) / 2."""
    j, d = coupling, delta
    return -0.5 * (4.0 * field + j + math.sqrt(5.0 * j * j + 2.0 * j * d + d * d))


# Ground-state regime table of the uniform 4-site chain at J = 1, as quoted
# (boundaries to 2 digits except the exact Delta = 0 pair, concurrences to
# 3-4 digits, two-up energies to 4 digits).
_SQRT5 = math.sqrt(5.0)
TABLE_4SITE: dict[float, tuple[GroundRegime, ...]] = {
    0.0: (
        GroundRegime(0.0, (_SQRT5 - 1.0) / 4.0, 2, 0.0472, -_SQRT5),
        GroundRegime((_SQRT5 - 1.0) / 4.0, (_SQRT5 + 1.0) / 4.0, 1, 0.2764),
        GroundRegime((_SQRT5 + 1.0) / 4.0, math.inf, 0, 0.0),
    ),
    0.5: (
        GroundRegime(0.0, 0.48, 2, 0.0, -2.712),
        GroundRegime(0.48, 1.25, 1, 0.2),
        GroundRegime(1.25, math.inf, 0, 0.0),
    ),
    1.0: (
        GroundRegime(0.0, 0.66, 2, 0.0, -3.232),
        GroundRegime(0.66, 1.70, 1, 0.1464),
        GroundRegime(1.70, math.inf, 0, 0.0),
    ),
    2.0: (
        GroundRegime(0.0, 1.04, 2, 0.0149, -4.372),
        GroundRegime(1.04, 2.65, 1, 0.084),
        GroundRegime(2.65, math.inf, 0, 0.0),
    ),
}


def c14_ground_regimes(delta: float, coupling: float = 1.0) -> tuple[GroundRegime, ...]:
    """Ground-state regimes of the uniform 4-site chain as the field grows.

    Only the tabulated deltas (0, 0.5, 1, 2 at J = 1) are known; they return
    the quoted rows verbatim.  Other parameters raise DomainError (the
    numeric regimes of any chain are ``sweep.ground_regimes``).
    """
    rows = TABLE_4SITE.get(float(delta)) if coupling == 1.0 else None
    if rows is None:
        raise DomainError(
            f"no tabulated 4-site regimes for delta={delta}, J={coupling}; "
            f"tabulated: delta in {sorted(TABLE_4SITE)} at J = 1"
        )
    return rows


def c14_impurity_one_up(j_mid: float) -> float:
    """Boundary concurrence of the 4-site one-up ground state with bonds
    (1, j, 1): (j^2 - j sqrt(4 + j^2) + 2) / (j^2 - j sqrt(4 + j^2) + 4)."""
    if j_mid < 0:
        raise DomainError("middle coupling must be nonnegative")
    t = j_mid * j_mid - j_mid * math.sqrt(4.0 + j_mid * j_mid)
    return (t + 2.0) / (t + 4.0)


def c14_impurity_two_up(j_mid: float) -> float:
    """Boundary concurrence of the 4-site two-up ground state with bonds
    (1, j, 1): max(0, (j sqrt(j^2 + 4) - 2) / (j^2 + 4))."""
    if j_mid < 0:
        raise DomainError("middle coupling must be nonnegative")
    return max(0.0, (j_mid * math.sqrt(j_mid * j_mid + 4.0) - 2.0) / (j_mid * j_mid + 4.0))


def c15_three_half(j_mid: float) -> float:
    """Boundary concurrence of the 5-site one-up ground state with bonds
    (1, j, j, 1): 1 / (2 + 4 j^2)."""
    if j_mid < 0:
        raise DomainError("middle coupling must be nonnegative")
    return 1.0 / (2.0 + 4.0 * j_mid * j_mid)


def c14_channel(field: float, coupling: float) -> float:
    """Exact boundary concurrence of the 4-site bulk-field channel:
    t^2 / (t^2 + 4J^2) with t = 2B - J + sqrt(4B^2 - 4BJ + 5J^2)."""
    if coupling <= 0:
        raise DomainError("channel coupling must be positive")
    if field < 0:
        raise DomainError("bulk field must be nonnegative")
    b, j = field, coupling
    t = 2.0 * b - j + math.sqrt(4.0 * b * b - 4.0 * b * j + 5.0 * j * j)
    return t * t / (t * t + 4.0 * j * j)


def c1n_channel(beta: float, k: int) -> float:
    """Boundary concurrence of the 2k-site channel under the geometric
    coefficient profile with ratio beta = 2B/J:

        beta^(2k) (beta^2 - 1) / (beta^2 (beta^(2k) - 1))

    The profile (hence this expression) is asymptotic in beta and k; the
    exact folded computation approaches it from below.  k = 1 degenerates
    to a chain with no bulk and is rejected.
    """
    if k < 2:
        raise DomainError("the channel formula needs k >= 2 (at least 4 sites)")
    if beta <= 1.0:
        raise DomainError("the channel formula is valid for beta > 1 only")
    # equivalent to (1 - beta^-2) / (1 - beta^-2k), immune to overflow
    bm2 = beta ** -2.0
    return (1.0 - bm2) / (1.0 - bm2**k)

