"""The channel kernel against the mpmath one-up oracle of ``reference``.

C1N and the ratio deviation are read in O(1) from the root (closed-form sum
of squares and the two end ratios).  The oracle sums the profile term by
term at ``reference.ORACLE_DPS`` digits at the same float root, so what is
measured is the kernel's own rounding; ``reference.dot_product_c1n`` is the
dot-product route it replaced, measured the same way.
"""

import dis
import math
import random
import statistics

import mpmath
import pytest

import reference
from reference import (
    dot_product_c1n,
    mp_block_ground,
    mp_channel_row,
    mp_profile,
    mp_profile_ends,
    regime_edge_betas,
)

from xxzchain import channel

ORACLE = (mp_block_ground, mp_channel_row, mp_profile, mp_profile_ends, reference.mp_folded_block)


def _ulps(value: float, exact) -> float:
    return float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(exact))


def _seeded_rows(count: int, lo: float, hi: float, seed: int) -> list[tuple[int, float]]:
    """(k, beta) with k log-uniform on [2, 5000] and beta on [lo, hi]
    (log-uniform when lo > 0)."""
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        k = int(math.exp(rng.uniform(math.log(2), math.log(5000))))
        beta = math.exp(rng.uniform(math.log(lo), math.log(hi))) if lo > 0 else rng.uniform(lo, hi)
        rows.append((k, beta))
    return rows


EDGE_ROWS = [(n // 2, beta) for n in range(4, 42, 2) for beta in regime_edge_betas(n // 2)]


def _errors(rows):
    """C1N errors in ulps of the closed form and of the dot product against
    the oracle, and each bound row's deviation error, at each row's root."""
    closed, dot, deviation = [], [], []
    for k, beta in rows:
        (c1n,), (dev,) = channel._channel_rows(k, 1.0, (beta,))
        _, q, bound = channel._block_ground(k, 1.0, beta / 2.0, True)
        c_exact, dev_exact = mp_channel_row(k, q, bound, beta)
        closed.append(_ulps(c1n, c_exact))
        dot.append(_ulps(dot_product_c1n(k, q, bound), c_exact))
        if bound:
            assert math.isfinite(dev), (k, beta)
            deviation.append(float(abs(mpmath.mpf(dev) - dev_exact)))
    return closed, dot, deviation


def test_the_oracle_reads_no_name_of_the_package():
    # every global an oracle function loads is mpmath, a builtin, the digit
    # count or another oracle function: nothing of the pipeline it checks
    allowed = {"mpmath", "ORACLE_DPS", "abs", "max", "min", "range", "len"}
    allowed |= {fn.__name__ for fn in ORACLE}
    for fn in ORACLE:
        loaded = {
            ins.argval for ins in dis.get_instructions(fn) if ins.opname == "LOAD_GLOBAL"
        }
        assert loaded <= allowed, (fn.__name__, loaded - allowed)


@pytest.mark.parametrize("n", range(4, 22, 2))
def test_the_oracle_profile_is_the_dense_block_ground_state(n):
    # the dense 64-digit eigensolve at beta and the term-by-term profile at
    # the float root agree to the root's own rounding; the closed forms equal
    # the term-by-term sums to the oracle's digits
    k = n // 2
    for beta in regime_edge_betas(k):
        energy, vector = mp_block_ground(k, beta)
        e, q, bound = channel._block_ground(k, 1.0, beta / 2.0, True)
        assert abs(energy - e) <= 1e-13 * (1 + abs(e)), (n, beta)
        with mpmath.workdps(reference.ORACLE_DPS):
            s = mp_profile(k, q, bound)
            norm = mpmath.sqrt(mpmath.fsum(x * x for x in s))
            # the ground vector is (-1)^j s_j / ||s||
            assert max(abs((-1) ** j * v - x / norm)
                       for j, (v, x) in enumerate(zip(vector, s))) < 1e-13, (n, beta)
            head, total, r_0, r_fold = mp_profile_ends(k, q, bound)
            assert abs(head - s[0] ** 2) <= mpmath.mpf(10) ** -55 * head
            assert abs(total - norm**2) <= mpmath.mpf(10) ** -55 * total
            if k > 1:
                assert abs(r_0 - s[0] / s[1]) <= mpmath.mpf(10) ** -55 * r_0
                assert abs(r_fold - s[-2] / s[-1]) <= mpmath.mpf(10) ** -55 * r_fold


def test_closed_forms_match_the_term_by_term_sums_at_long_chains():
    for k, beta in [(500, 1.0001), (5000, 3.0), (5000, 0.5), (2000, 1.0), (4999, 1e4)]:
        _, q, bound = channel._block_ground(k, 1.0, beta / 2.0, True)
        with mpmath.workdps(reference.ORACLE_DPS):
            head, total, _, _ = mp_profile_ends(k, q, bound)
            assert abs(head / total - mp_channel_row(k, q, bound, beta)[0]) < 1e-55


def test_bound_rows_are_more_accurate_than_the_dot_product():
    # 400 seeded bound rows, k from 2 to 5000, beta from 1.0001 to 1.5e4:
    # the closed form's largest C1N error is no larger than the dot
    # product's, its mean smaller; every deviation is finite and within
    # 1e-15 of the oracle's max |r_j - beta| / beta
    closed, dot, deviation = _errors(_seeded_rows(400, 1.0001, 1.5e4, seed=22))
    assert max(closed) <= max(dot) and statistics.mean(closed) < statistics.mean(dot)
    assert max(closed) < 4.0
    assert len(deviation) == 400 and max(deviation) <= 1e-15


def test_the_regime_edge_grid_is_no_less_accurate_than_the_dot_product():
    # N = 4..40 on both sides of every regime edge: band rows, beta = 1 and
    # bound rows; a band row's error is mostly the rounding of its cosine's
    # argument, which both routes share
    closed, dot, deviation = _errors(EDGE_ROWS)
    assert max(closed) <= max(dot) and statistics.mean(closed) < statistics.mean(dot)
    assert deviation and max(deviation) <= 1e-15


def test_band_rows_keep_the_accuracy_of_the_dot_product():
    # 100 seeded band rows, k from 2 to 5000, beta in [0, 1): the closed-form
    # sum k/2 + sin(2k theta) / (4 sin theta) loses nothing against the
    # dot product at the same root
    closed, dot, _ = _errors(_seeded_rows(100, 0.0, 1.0, seed=23))
    assert max(closed) <= max(dot) and statistics.mean(closed) <= statistics.mean(dot)
