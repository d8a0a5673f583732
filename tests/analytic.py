"""Analytic oracles for small chains and the bulk-field channel.

Closed-form spectra, critical fields and boundary concurrences that the
library does not print; the tests check each one against direct
diagonalization, and check the pipeline against them.  Concurrence
expressions carry the Wootters max(0, .) clip.  This module imports nothing
from ``xxzchain`` but its errors, so no oracle leans on the code it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from xxzchain.errors import DomainError


@dataclass(frozen=True)
class PhaseBoundary3:
    """Critical uniform field of the 3-site chain: below it the ground state
    is the entangled one-up state, above it the polarized product state."""

    delta: float
    coupling: float
    b_critical: float


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
