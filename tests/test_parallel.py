"""A delta's S^z blocks decomposed at the same time, and bytes that depend
on neither the BLAS thread count nor the CPUs a process may use.

From n = 9 on a chunk of a sweep is one delta, and ``_BlockPlan.spectra``
splits its blocks into one share per CPU (``sweep._cpus``): the first runs
on the calling thread and the others on daemon workers (``sweep._WORKERS``),
each block whole on one thread, with numpy's OpenBLAS on one thread around
the chunk (``eigensolver._one_blas_thread``).  These tests set the share
count by patching ``sweep._cpus`` and pin what the split must not change:
the bits of every spectrum and the calls that make them, an error's way
out, the rows of sweeps on several threads at once and in a forked child,
and the OpenBLAS count outside a chunk.  Child processes compare whole CLI
outputs under 1 and 2 BLAS threads and on one CPU against every CPU.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from xxzchain import cli, sweep
from xxzchain.chain import ChainSpec
from xxzchain.eigensolver import _OPENBLAS_THREADS, decompose
from xxzchain.errors import NumericError
from xxzchain.sweep import _above, _BlockPlan, phase_scan

SRC = Path(__file__).resolve().parents[1] / "src"
FIELDS = (0.0, 0.25, 0.5, 1.0, 2.0)

needs_setter = pytest.mark.skipif(
    _OPENBLAS_THREADS is None, reason="numpy's BLAS is no OpenBLAS whose thread count can be set"
)


def _specs(rng, n: int) -> dict[str, ChainSpec]:
    """Seeded specs of ``n`` sites, one per shape: palindromic couplings
    (mirror and flip), generic couplings with nonzero fields (neither), a
    palindromic nonzero field (mirror only) and a zero coupling."""
    half = rng.uniform(0.4, 1.4, (n - 1) // 2).tolist()
    palindromic = tuple(half + rng.uniform(0.4, 1.4, (n - 1) % 2).tolist() + half[::-1])
    generic = tuple(rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.4, 1.4, n - 1))
    side = rng.uniform(-0.6, 0.6, n // 2).tolist()
    mirrored = tuple(side + rng.uniform(-0.6, 0.6, n % 2).tolist() + side[::-1])
    broken = tuple(0.0 if i == n // 3 else 1.0 for i in range(n - 1))
    return {
        "palindromic": ChainSpec(n, palindromic, (0.0,) * n, 0.4),
        "generic field": ChainSpec(n, generic, tuple(rng.uniform(-0.8, 0.8, n)), 0.4),
        "mirrored field": ChainSpec(n, palindromic, mirrored, 0.4),
        "zero coupling": ChainSpec(n, broken, (0.0,) * n, 0.4),
    }


def _recorded(monkeypatch, shares: int, plan, deltas, reach):
    """The spectra of ``plan`` at ``deltas`` with ``shares`` CPUs, with every
    decomposition and certificate (and the thread that made it) recorded."""
    calls, threads = [], set()

    def recording(matrix):
        calls.append(("decompose", matrix.shape))
        threads.add(threading.get_ident())
        return decompose(matrix)

    def certifying(matrix, floor):
        calls.append(("above", len(matrix), _above(matrix, floor)))
        return calls[-1][-1]

    monkeypatch.setattr(sweep, "decompose", recording)
    monkeypatch.setattr(sweep, "_above", certifying)
    monkeypatch.setattr(sweep, "_cpus", lambda: shares)
    spectra = list(plan.spectra(deltas, reach))
    return spectra, Counter(calls), threads


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_threaded_spectra_are_the_one_share_bits(monkeypatch, n):
    rng = np.random.default_rng(3100 + n)
    for shape, spec in _specs(rng, n).items():
        plan = _BlockPlan(spec, (1, n))
        assert plan.chunk == 1, shape
        deltas = tuple(rng.uniform(-1.0, 2.0, 2))
        for reach in (2.0, None):  # T = 0 windows, and every level as at T > 0
            alone, calls, _ = _recorded(monkeypatch, 1, plan, deltas, reach)
            for shares in (2, 3):
                spectra, shared_calls, threads = _recorded(monkeypatch, shares, plan, deltas, reach)
                assert shared_calls == calls, (shape, reach, shares)
                assert len(threads) > 1, (shape, reach, shares)  # the workers took part
                for one, other in zip(alone, spectra):
                    assert other.energies.tobytes() == one.energies.tobytes(), (shape, reach)
                    assert other.pair_data.tobytes() == one.pair_data.tobytes(), (shape, reach)
                    assert np.array_equal(other.sector, one.sector)


def test_the_shares_split_the_costliest_blocks_first():
    plan = _BlockPlan(ChainSpec.uniform(10), (1, 10))
    # blocks k = 0..5 of parts 1; 5+5; 25+20; 60+60; 110+100; 71+71+55+55
    assert plan._shares(1) == [[0, 1, 2, 3, 4, 5]]
    assert plan._shares(2) == [[4], [0, 1, 2, 3, 5]]
    assert plan._shares(3) == [[4], [5], [0, 1, 2, 3]]
    assert plan._shares(8) == [[4], [5], [3], [2], [1], [0]]


def _scan_config(tmp_path, n: int) -> Path:
    config = tmp_path / "scan.json"
    spec = {"n_sites": n, "couplings": [1.0] * (n - 1), "fields": [0.0] * n, "delta": 0.0}
    config.write_text(json.dumps({"spec": spec, "grid": {"delta": [0.5, 1.0], "B": list(FIELDS)}}))
    return config


def test_an_error_in_a_workers_share_is_raised_and_leaves_nothing_behind(monkeypatch, tmp_path):
    monkeypatch.setattr(sweep, "_cpus", lambda: 2)
    spec = ChainSpec.uniform(10)
    expected = repr(list(phase_scan(spec, (0.5, 1.0), FIELDS)))
    caller = threading.get_ident()

    def failing(matrix):
        if threading.get_ident() != caller:
            raise NumericError("eigendecomposition failed: injected in a worker")
        return decompose(matrix)

    monkeypatch.setattr(sweep, "decompose", failing)
    with pytest.raises(NumericError, match="injected in a worker"):
        list(phase_scan(spec, (0.5, 1.0), FIELDS))
    config, out = _scan_config(tmp_path, 10), tmp_path / "rows.csv"
    assert cli.main(["phase-scan", "--config", str(config), "--out", str(out)]) == 4
    assert sorted(tmp_path.iterdir()) == [config]  # no output, no temporary file
    # no share of the failed sweeps is left in a queue to answer the next one
    monkeypatch.setattr(sweep, "decompose", decompose)
    assert repr(list(phase_scan(spec, (0.5, 1.0), FIELDS))) == expected


def test_threads_that_sweep_at_the_same_time_each_get_their_own_rows(monkeypatch):
    # more sweeping threads and workers than cores, switching often
    monkeypatch.setattr(sweep, "_cpus", lambda: 3)
    rng = np.random.default_rng(31)
    specs = [ChainSpec.uniform(9), ChainSpec.uniform(10, delta=0.3), *_specs(rng, 10).values()]
    expected = [repr(list(phase_scan(spec, (0.5, 1.0), FIELDS))) for spec in specs]
    got, errors = [[] for _ in specs], []

    def sweeping(i):
        try:
            for _ in range(3):
                got[i].append(repr(list(phase_scan(specs[i], (0.5, 1.0), FIELDS))))
        except BaseException as exc:  # reported below, on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweeping, args=(i,)) for i in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert got == [[rows] * 3 for rows in expected]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_a_child_forked_after_a_parallel_sweep_completes_a_sweep_of_its_own(monkeypatch, tmp_path):
    monkeypatch.setattr(sweep, "_cpus", lambda: 2)
    spec = ChainSpec.uniform(10)
    expected = repr(list(phase_scan(spec, (0.5, 1.0), FIELDS)))
    assert sweep._WORKERS.threads  # the parent's worker is running
    result = tmp_path / "child.txt"
    pid = os.fork()
    if pid == 0:  # the child: it has no worker until its own sweep starts one
        code = 1
        try:
            started = len(sweep._WORKERS.threads)
            rows = repr(list(phase_scan(spec, (0.5, 1.0), FIELDS)))
            result.write_text(f"{started}\n{rows}")
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 120
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not done[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its sweep")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert result.read_text() == f"0\n{expected}"


@needs_setter
def test_the_openblas_count_reads_its_earlier_value_outside_every_chunk(monkeypatch):
    get, put = _OPENBLAS_THREADS
    earlier = get()
    put(2)
    try:
        seen = []

        def recording(matrix):
            seen.append(get())
            return decompose(matrix)

        def failing(matrix):
            raise NumericError("eigendecomposition failed: injected")

        monkeypatch.setattr(sweep, "_cpus", lambda: 2)
        monkeypatch.setattr(sweep, "decompose", recording)
        spec = ChainSpec.uniform(10)
        assert len(list(phase_scan(spec, (0.5, 1.0), FIELDS))) == 2 * len(FIELDS)
        assert get() == 2 and set(seen) == {1}  # one thread inside, 2 again after
        points = phase_scan(spec, (0.5, 1.0), FIELDS)
        next(points)
        assert get() == 2  # no chunk is open between two rows
        points.close()
        assert get() == 2
        monkeypatch.setattr(sweep, "decompose", failing)
        with pytest.raises(NumericError):
            list(phase_scan(spec, (0.5, 1.0), FIELDS))
        assert get() == 2
    finally:
        put(earlier)


def _cli_stdout(tmp_path, argv, config: dict, threads: int, one_cpu: bool = False) -> str:
    """The CLI's stdout on ``config`` in a child process with ``threads``
    BLAS threads, on its first CPU alone if ``one_cpu``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = (
        "import os, sys\n"
        + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if one_cpu else "")
        + "from xxzchain.cli import main\n"
        + f"sys.exit(main({[*argv, '--config', str(path)]!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout


CURVE_T = {
    "spec": {"n_sites": 10, "couplings": [1.0 + 0.125 * (i % 3) for i in range(9)],
             "fields": [0.0] * 10, "delta": 0.0, "temperature": 0.05},
    "pair": [1, 10], "delta_values": [0.0, 1], "grid": {"B": {"min": -0.3, "max": 1.5, "step": 0.03}},
}
# a row 100,000 entries long: OpenBLAS splits its dot product by thread
CHANNEL = {"n_sites_values": [200000], "coupling": 1.0, "grid": {"beta": [0.3]}}
SCAN_12 = {
    "spec": {"n_sites": 12, "couplings": [1.0] * 11, "fields": [0.0] * 12, "delta": 0.0},
    "grid": {"delta": [0.5, 1.0], "B": {"min": 0.0, "max": 3.0, "step": 0.12}},
}


@needs_setter
@pytest.mark.parametrize("argv, config", [(["curve"], CURVE_T), (["channel"], CHANNEL)],
                         ids=["curve T>0 n=10", "channel N=200000"])
def test_the_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, argv, config):
    one, two = (_cli_stdout(tmp_path, argv, config, threads) for threads in (1, 2))
    assert len(one.splitlines()) > 1
    assert one == two


@needs_setter
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="fewer than two CPUs to run on, or no affinity to set")
def test_the_bytes_do_not_depend_on_the_cpus_a_process_may_use(tmp_path):
    every = _cli_stdout(tmp_path, ["phase-scan"], SCAN_12, 2)
    assert len(every.splitlines()) == 1 + 2 * 26
    assert _cli_stdout(tmp_path, ["phase-scan"], SCAN_12, 2, one_cpu=True) == every
