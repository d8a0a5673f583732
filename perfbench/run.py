"""Benchmark of the xxzchain CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-n10 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's config is generated from
the seed and written under ``.perfbench_run/``; fresh child processes (one
at a time, BLAS pinned to one thread) then run the real ``xxzchain``
subcommand on it, back to back, until ``--seconds`` have passed (the
child running then is allowed to finish).  After the timed pass every
output row is checked against an oracle (``oracles.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics, the known
defect counters and the tracing overhead.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A run
header (versions, BLAS, threads, CPU, config hash, seed) is printed just
before it.  Exit codes: 0 done, 2 bad arguments or no ``src/xxzchain``
beside the benchmark, 3 a child could not start the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_BEYOND = 10           # a percentile needs this many samples above it
SETUP_SPAWNS = 8          # setup-only children per untraced run
# a child still running this long after --seconds is killed; its rows count
# as missing
GRACE_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("row_ms_p50", "ms"),
    ("row_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
)

# (metric, unit); see span_metrics for how each is read from the spans
PER_LAYER = (
    ("eigensolver.decompose.calls", "count"),
    ("eigensolver.decompose.self_s", "s"),
    ("eigensolver.decompose.dim_max", "count"),
    ("eigensolver.decompose.dim_cubed_sum", "count"),
    ("eigensolver.decompose.bytes", "B"),
    ("eigensolver.useful_vector_ratio", "ratio"),
    ("hamiltonian.build_full.calls", "count"),
    ("hamiltonian.build_full.self_s", "s"),
    ("hamiltonian.build_full.bytes", "B"),
    ("hamiltonian.build_sector.calls", "count"),
    ("hamiltonian.build_sector.self_s", "s"),
    ("chain.build_sector_basis.calls", "count"),
    ("chain.build_sector_basis.self_s", "s"),
    ("entanglement.ground_state_density.self_s", "s"),
    ("entanglement.thermal_state.self_s", "s"),
    ("entanglement.reduce_pair_mixed.calls", "count"),
    ("entanglement.reduce_pair_mixed.self_s", "s"),
    ("entanglement.reduce_pair_mixed.bytes", "B"),
    ("entanglement.concurrence.calls", "count"),
    ("entanglement.concurrence.self_s", "s"),
    ("channel.design_channel.calls", "count"),
    ("channel.design_channel.self_s", "s"),
    ("channel.fold_single_excitation.self_s", "s"),
    ("channel.ratio_profile.self_s", "s"),
    ("closed_forms.c1n_channel.calls", "count"),
    ("closed_forms.c1n_channel.self_s", "s"),
    ("sweep.self_s", "s"),
    ("cli.self_s", "s"),
    ("channel.ratio_nonfinite", "count"),
    ("channel.near_degenerate", "count"),
    ("sweep.cross_sector_ties", "count"),
    ("entanglement.concurrence_floor_rows", "count"),
    ("trace.overhead_frac", "ratio"),
)
LAYERS = ("chain", "hamiltonian", "eigensolver", "entanglement", "channel",
          "closed_forms", "sweep", "cli")


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all."""


@dataclass
class ChildRun:
    traced: bool
    t_spawn: float
    exit: int
    maxrss_kib: int
    stdout: str
    meta: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return self.meta["t_config"] - self.t_spawn

    @property
    def data_stamps(self) -> list[float]:
        # the first stamped line is the CSV header
        return self.meta.get("stamps", [])[1:]

    @property
    def timed(self) -> bool:
        return "t_end" in self.meta


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated q-quantile; refuses unless MIN_BEYOND samples lie
    above the interpolation point."""
    n = len(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    beyond = n - 1 - lo
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{round(100 * q)} of {n} samples has {beyond} beyond it; "
            f"{MIN_BEYOND} are needed"
        )
    s = sorted(samples)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    return env


def run_child(root: Path, rundir: Path, tag: str, cli_args: list[str],
              flags: list[str], deadline: float) -> ChildRun:
    meta_path = rundir / f"{tag}.meta.json"
    out_path = rundir / f"{tag}.out"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(root / "src"),
           "--meta", str(meta_path), "--run-id", tag, *flags, "--", *cli_args]
    with open(out_path, "wb") as out, open(rundir / f"{tag}.err", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=root)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
    meta = {}
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if "error" in meta or (meta and "t_import" not in meta):
        err_text = (rundir / f"{tag}.err").read_text(encoding="utf-8", errors="replace")
        raise HarnessError(meta.get("error") or err_text.strip()[-2000:])
    return ChildRun(traced="--trace" in flags, t_spawn=t_spawn, exit=proc.returncode,
                    maxrss_kib=usage.ru_maxrss,
                    stdout=out_path.read_text(encoding="utf-8"), meta=meta)


def run_children(root: Path, rundir: Path, cli_args: list[str], seconds: float,
                 trace: bool) -> tuple[list[float], list[ChildRun]]:
    """Setup times of the setup-only children, and the workload children.

    An untraced run first spawns SETUP_SPAWNS setup-only children, then runs
    the workload back to back until ``seconds`` have passed; a traced run
    alternates untraced and traced children for as long.
    """
    start = time.monotonic()
    deadline = start + seconds + GRACE_S
    setups = []
    if not trace:
        for k in range(SETUP_SPAWNS):
            c = run_child(root, rundir, f"setup{k}", cli_args, ["--setup-only"], deadline)
            setups.append(c.setup_s)
    children: list[ChildRun] = []
    flag_sets = ([], ["--trace", "1"]) if trace else ([],)
    while True:
        for flags in flag_sets:
            tag = f"child{len(children):03d}{'-traced' if flags else ''}"
            children.append(run_child(root, rundir, tag, cli_args, flags, deadline))
        if time.monotonic() - start >= seconds:
            break
    if not any(c.timed for c in children):
        raise HarnessError("no child ran to the end")
    return setups, children


def end_to_end_metrics(setups: list[float], children: list[ChildRun],
                       rows: int) -> tuple[dict, dict]:
    """A row's time is its gap to the previous row, averaged over the run's
    children (all run the same config); the percentiles are taken over the
    rows.  Averaging first keeps the machine's fast and slow spells from
    deciding which mode a percentile lands in."""
    done = [c for c in children if not c.traced and len(c.data_stamps) == rows]
    if not done:
        raise HarnessError("no untraced child wrote every row")
    gap_sums = [0.0] * (rows - 1)
    busy_s = 0.0
    for c in done:
        stamps = c.data_stamps
        for i, (a, b) in enumerate(zip(stamps, stamps[1:])):
            gap_sums[i] += b - a
        busy_s += stamps[-1] - c.meta["t_config"]
    row_ms = [1e3 * g / len(done) for g in gap_sums]
    plain = [c for c in children if not c.traced and c.timed]
    values = {
        "setup_s": statistics.median(setups + [c.setup_s for c in plain]),
        "rows_per_s": rows * len(done) / busy_s,
        "row_ms_p50": percentile(row_ms, 0.5),
        "row_ms_p90": percentile(row_ms, 0.9),
        "peak_rss_mib": max(c.maxrss_kib for c in plain) / 1024.0,
    }
    notes = {
        "setup_samples": len(setups) + len(plain),
        "children": len(done),
        "row_samples": len(row_ms),
        "rows_beyond_p90": len(row_ms) - 1 - math.floor(0.9 * (len(row_ms) - 1)),
    }
    return values, notes


def span_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced child, from its spans."""
    selfs = tracing.self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    sums = defaultdict(float)
    dim_max = 0
    for span, own in zip(spans, selfs):
        name = span["name"]
        calls[name] += 1
        self_s[name] += own
        layer_s[tracing.layer_of(name)] += own
        attrs = span["attrs"] or {}
        sums[name + ".bytes"] += attrs.get("bytes", 0)
        sums["reads"] += attrs.get("reads", 0)
        sums["near_degenerate"] += attrs.get("near_degenerate", False)
        if "dim" in attrs:
            dim_max = max(dim_max, attrs["dim"])
            sums["dim"] += attrs["dim"]
            sums["dim3"] += attrs["dim"] ** 3
    values = {}
    for metric, _ in PER_LAYER:
        head, _, leaf = metric.rpartition(".")
        if leaf == "calls":
            values[metric] = calls[head]
        elif leaf == "self_s" and head in layer_s:
            values[metric] = layer_s[head]
        elif leaf == "self_s":
            values[metric] = self_s[head]
        elif leaf == "bytes":
            values[metric] = int(sums[metric])
    values["eigensolver.decompose.dim_max"] = dim_max
    values["eigensolver.decompose.dim_cubed_sum"] = int(sums["dim3"])
    values["eigensolver.useful_vector_ratio"] = (
        sums["reads"] / sums["dim"] if sums["dim"] else 0.0
    )
    values["channel.near_degenerate"] = int(sums["near_degenerate"])
    values["layer_sum_s"] = sum(layer_s.values())
    return values


def per_layer_metrics(children: list[ChildRun], counters: list[dict]) -> tuple[dict, dict]:
    """Low medians (a measured sample each) over the traced children;
    ``counters`` holds each child's known-defect counters from the oracle."""
    pairs = [(c, n) for c, n in zip(children, counters) if c.traced and c.timed]
    per_child = [{**span_metrics(c.meta["spans"]), **n} for c, n in pairs]
    traced = [c for c, _ in pairs]
    plain = [c for c in children if not c.traced and c.timed]
    values = {}
    for metric, _ in PER_LAYER:
        samples = [v.get(metric, 0) for v in per_child]
        values[metric] = statistics.median_low(samples) if samples else 0
    run_traced = statistics.median(c.meta["t_end"] - c.meta["t_main"] for c in traced)
    run_plain = statistics.median(c.meta["t_end"] - c.meta["t_main"] for c in plain)
    values["trace.overhead_frac"] = run_traced / run_plain - 1.0
    notes = {
        "traced_children": len(traced),
        "untraced_children": len(plain),
        "layer_self_sum_s": statistics.median(v["layer_sum_s"] for v in per_child),
        "untraced_run_s": run_plain,
        "traced_run_s": run_traced,
    }
    return values, notes


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "model": platform.processor() or "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def run_header(root: Path, config_bytes: bytes, args) -> dict:
    import numpy
    import xxzchain

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "xxzchain_version": xxzchain.__version__,
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
        "cpu": _cpu(),
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "xxzchain" / "__init__.py").is_file():
        print(f"no src/xxzchain under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = workloads.WORKLOADS[args.workload]
    config = workloads.make_config(workload.name, args.seed)
    rundir = root / ".perfbench_run" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    config_bytes = json.dumps(config, sort_keys=True).encode()
    (rundir / "config.json").write_bytes(config_bytes)
    cli_args = [workload.subcommand, "--config", str(rundir / "config.json")]

    try:
        setups, children = run_children(root, rundir, cli_args, args.seconds,
                                        bool(args.trace))
        if args.trace:
            units = dict(PER_LAYER)
        else:
            units = dict(END_TO_END)
            values, notes = end_to_end_metrics(setups, children, workload.rows)
    except HarnessError as exc:
        print(f"benchmark could not run xxzchain: {exc}", file=sys.stderr)
        return 3

    # timing is over: check every row of every child
    import oracles

    oracle = oracles.Oracle(workload.subcommand, config)
    check = oracles.CheckResult()
    counters = [oracle.check(c.stdout, check) for c in children]
    if args.trace:
        values, notes = per_layer_metrics(children, counters)
    outputs = {c.stdout for c in children}
    correct = check.failed == 0 and all(c.exit == 0 for c in children)
    problems = [f"child exit {c.exit}" for c in children if c.exit != 0]
    if len(outputs) != 1:
        correct = False
        problems.append("outputs differ between children (traced vs untraced?)")
    leftover = [w for c in children for w in c.meta.get("leftover_wrappers", [])]
    if leftover:
        correct = False
        problems.append(f"wrappers left installed: {sorted(set(leftover))}")

    header = run_header(root, config_bytes, args)
    fail_frac = check.failed / check.attempted

    print("header " + json.dumps(header, sort_keys=True))
    print(f"{workload.name}: {workload.subcommand}, {workload.rows} rows per child, "
          f"{len(children)} children, seed {args.seed}")
    for name, value in values.items():
        if name in units:
            print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':<44} {fail_frac:>16.6g} ratio "
          f"({check.failed} of {check.attempted} rows)")
    if not args.trace:
        for name in oracles.COUNTERS[workload.subcommand]:
            per_child = "/".join(str(n) for n in sorted({c[name] for c in counters}))
            print(f"  {name:<44} {per_child:>16} rows per child (known defect, not failed)")
    print("  notes " + json.dumps(notes, sort_keys=True))
    for message in problems + check.failures:
        print("  FAIL " + message)
    (rundir / "result.json").write_text(json.dumps(
        {"header": header, "notes": notes, "values": values,
         "failures": problems + check.failures}, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
