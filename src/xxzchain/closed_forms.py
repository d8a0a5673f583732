"""The paper's analytic results that the library prints: the quoted 4-site
regime table (``TABLE_4SITE``, ``table1``'s reference columns) and the
channel's profile formula (``c1n_channel``, the ``channel`` command's
``c1n_closed_form`` column).  Nothing numeric is imported from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _shown, as_float, as_int


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


def c14_ground_regimes(delta: float) -> tuple[GroundRegime, ...]:
    """Ground-state regimes of the uniform 4-site chain (J = 1) as B grows.

    Only the tabulated deltas (0, 0.5, 1, 2) are known; they return the
    quoted rows verbatim.  Any other delta raises DomainError (the numeric
    regimes of any chain are ``sweep.ground_regimes``).  Delta is read by
    the number rule before the lookup.
    """
    delta = as_float(delta, "delta")
    rows = TABLE_4SITE.get(delta)
    if rows is None:
        raise DomainError(
            f"no tabulated 4-site regimes for delta={_shown(delta)}; "
            f"tabulated: delta in {sorted(TABLE_4SITE)} at J = 1"
        )
    return rows


def c1n_channel(beta: float, k: int) -> float:
    """Boundary concurrence of the 2k-site channel under the geometric
    coefficient profile with ratio beta = 2B/J:

        beta^(2k) (beta^2 - 1) / (beta^2 (beta^(2k) - 1))

    The profile (hence this expression) is asymptotic in beta and k; the
    exact folded computation approaches it from below.  k = 1 degenerates
    to a chain with no bulk and is rejected, as is what the number rule refuses.
    """
    beta, k = as_float(beta, "beta"), as_int(k, "k")
    if k < 2:
        raise DomainError("the channel formula needs k >= 2 (at least 4 sites)")
    if beta <= 1.0:
        raise DomainError("the channel formula is valid for beta > 1 only")
    # equivalent to (1 - beta^-2) / (1 - beta^-2k), immune to overflow
    bm2 = beta ** -2.0
    try:
        return (1.0 - bm2) / (1.0 - bm2**k)
    except OverflowError:  # bm2 < 1, so only converting such a k overflows
        raise DomainError(f"k must lie in the float range, got {_shown(k)}") from None
