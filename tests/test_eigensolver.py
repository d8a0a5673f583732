import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xxzchain.chain import ChainSpec, build_sector_basis
from xxzchain.eigensolver import SpectralDecomposition, decompose, ground_space
from xxzchain.errors import DomainError
from xxzchain.hamiltonian import build_full, build_sector


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def test_one_by_one():
    dec = decompose(np.array([[3.5]]))
    assert dec.eigenvalues[0] == 3.5
    assert dec.eigenvectors[0, 0] == 1.0


def test_pauli_x():
    dec = decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)
    s = 1 / math.sqrt(2)
    assert np.allclose(np.abs(dec.eigenvectors), s, atol=1e-15)


def test_three_site_one_up_ground_energy():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.5, delta=1.0)
    dec = decompose(build_sector(spec, build_sector_basis(3, 1)))
    assert dec.eigenvalues[0] == pytest.approx(-2.5, abs=1e-12)


def test_ascending_order_and_pairing():
    rng = np.random.default_rng(21)
    a = _random_symmetric(rng, 40)
    dec = decompose(a)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    for m in range(40):
        v = dec.eigenvectors[:, m]
        resid = np.max(np.abs(a @ v - dec.eigenvalues[m] * v))
        assert resid <= 1e-9 * (1 + np.max(np.abs(a).sum(axis=1)))


def test_orthonormality():
    rng = np.random.default_rng(22)
    dec = decompose(_random_symmetric(rng, 60))
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(60))) < 1e-9


def test_reconstruction():
    rng = np.random.default_rng(23)
    for n in (5, 50, 200):
        a = _random_symmetric(rng, n)
        dec = decompose(a)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(rebuilt - a)) < 1e-8


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(25)
    a = _random_symmetric(rng, 64)
    d1 = decompose(a.copy())
    d2 = decompose(a.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_ground_space_degenerate_three_site():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.0, delta=1.0)
    dec = decompose(build_full(spec))
    assert len(ground_space(dec)) == 2


def test_ground_space_unique_inside_shaded_region():
    spec = ChainSpec.uniform(3, coupling=1.0, field=0.5, delta=0.0)
    dec = decompose(build_full(spec))
    assert ground_space(dec) == [0]


def test_ground_space_identity():
    dec = decompose(np.eye(7))
    assert len(ground_space(dec)) == 7


def test_rejects_bad_input():
    with pytest.raises(DomainError):
        decompose(np.array([[1.0, float("inf")], [float("inf"), 1.0]]))
    with pytest.raises(DomainError):
        decompose(np.zeros((2, 3)))


def test_a_stack_is_decomposed_matrix_by_matrix():
    rng = np.random.default_rng(26)
    stack = np.stack([_random_symmetric(rng, 9) for _ in range(3)])
    dec = decompose(stack)
    assert dec.eigenvalues.shape == (3, 9) and dec.eigenvectors.shape == (3, 9, 9)
    assert dec.order == 9
    for matrix, w, v in zip(stack, dec.eigenvalues, dec.eigenvectors):
        alone = decompose(matrix)
        assert np.array_equal(alone.eigenvalues, w) and np.array_equal(alone.eigenvectors, v)
    with pytest.raises(DomainError):
        decompose(np.zeros((2, 3, 4)))


def test_ground_space_refuses_a_stack():
    w, v = np.linalg.eigh(np.stack([np.eye(3), 2.0 * np.eye(3)]))
    with pytest.raises(DomainError):
        ground_space(SpectralDecomposition(w, v))


# Every part of seeded sweep plans (n <= 10: zero, palindromic and generic
# fields, signed couplings) as a stack over a few deltas, against one call per
# matrix: the same bits, or the first mismatch printed.
_STACKED_PARTS = """
import numpy as np
from xxzchain.chain import ChainSpec
from xxzchain.eigensolver import decompose
from xxzchain.hamiltonian import _dense
from xxzchain.sweep import _BlockPlan

rng = np.random.default_rng(27)
checked = 0
for n in range(2, 11):
    half = rng.uniform(0.3, 1.5, (n - 1) // 2).tolist()
    palindromic = tuple(half + rng.uniform(0.3, 1.5, (n - 1) % 2).tolist() + half[::-1])
    signed = tuple(rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.3, 1.5, n - 1))
    for spec in (ChainSpec(n, palindromic, (0.0,) * n, 0.0),
                 ChainSpec(n, signed, (0.0,) * n, 0.0),
                 ChainSpec(n, signed, tuple(rng.uniform(-1.0, 1.0, n)), 0.0)):
        plan = _BlockPlan(spec, (1, n))
        deltas = rng.uniform(-1.5, 2.0, 4)
        diagonal = 0.5 * deltas[:, None] * plan.zz + plan.zeeman
        for block in plan.blocks:
            for reps, entries, _, _ in block.parts:
                stack = _dense(len(reps), entries, diagonal[:, reps])
                dec = decompose(stack)
                for j, matrix in enumerate(stack):
                    alone = decompose(matrix.copy())
                    if not (np.array_equal(alone.eigenvalues, dec.eigenvalues[j])
                            and np.array_equal(alone.eigenvectors, dec.eigenvectors[j])):
                        print("mismatch", n, len(reps), j)
                        raise SystemExit(1)
                    checked += 1
print("checked", checked)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_stack_of_sweep_parts_has_the_bits_of_one_call_per_part(threads):
    # the BLAS thread count is read when numpy loads, so each count runs in
    # a child process of its own
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _STACKED_PARTS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert int(done.stdout.split()[-1]) > 400
