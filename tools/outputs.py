"""Fingerprint the CLI's output on a fixed set of configs, to compare two trees.

Runs ``xxzchain.cli.main`` in process, with one BLAS thread, on:

- ``perfbench/workloads.make_config(w, s)`` for its three workloads and seeds
  1-5 (the file is read, never changed);
- ``table1`` with its default deltas;
- ``design`` at N in {4, 20, 250, 1000} x target in {0.5, 0.99, 0.999999};
- ``table1`` on the deltas [2, 0, 0.5] (an int, out of table order),
  ``phase-scan`` and T = 0 ``curve`` on a field axis holding both -0.0 and
  0.0 with an int delta, a T > 0 ``curve`` at N = 10, a uniform N = 10
  ``phase-scan`` and a uniform N = 6 T > 0 ``curve`` whose field pass
  spans three chunks a delta, a uniform N = 8 ``phase-scan`` and T > 0
  ``curve`` over 25 deltas, each part decomposed as one stack of 25, a
  uniform N = 12 ``phase-scan`` (2 deltas x 26 fields) whose blocks are
  split across the CPUs, a uniform N = 11 ``phase-scan`` (6 deltas x 13
  fields) in two stacked chunks and a uniform N = 10 T = 0.1 ``curve`` over
  5 deltas in one, each chunk's blocks split across the CPUs, a T = 1e-3
  ``curve`` on a generic 8-site spec (no flip, no mirror) over 963 fields
  and 3 deltas, a T = 1e-200 ``curve`` on the 9-site bulk-field channel
  spec, where every weight of a nonzero gap underflows to 0, and
  ``channel`` at betas 0, 0.5 and 1 (the nan and inf columns) with
  N = 2000, ``channel`` at N in {2000, 20000} on the unsorted betas
  [1e8, 0.5, 3, 1, 50, 1.0000001, 1e4], which mix band and bound rows in
  one chunk, and ``channel`` at N = 10^7 (``chain.SITE_CAP``) on the
  betas [0.5, 1, 1.5, 3, 5, 20], whose profiles fall below the float range
  long before the fold (``EXTRA``);

each in CSV and in JSONL.  For each case it prints one line: the case, the
SHA-256 of stdout, the SHA-256 of stderr and the exit code.  Two trees print
the same lines exactly when they print the same bytes and exit codes:

    python tools/outputs.py --src path/to/other/src > other.txt
    python tools/outputs.py > this.txt
    diff other.txt this.txt

For a change that moves printed numbers on purpose, ``--against OTHER_SRC``
runs both trees and compares them instead.  It prints one line per case:
``identical``, or how many rows differ and the largest absolute difference
in each numeric column, followed by one indented line per moved value (its
row, column, the other tree's value, this tree's and, where both are finite,
the move in units in the last place of the other's).  A differing header,
row count, exit code, stderr or non-numeric field is named on the case's
line, and the script then exits 1:

    python tools/outputs.py --against path/to/other/src
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load_workloads():
    """perfbench/workloads.py as a module of its own, leaving no bytecode
    beside it."""
    spec = importlib.util.spec_from_file_location("_output_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look it up
    sys.dont_write_bytecode, before = True, sys.dont_write_bytecode
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def _spec(n_sites: int, temperature: float = 0.0, uniform: bool = False) -> dict:
    couplings = [1.0 if uniform else 1.0 + 0.125 * (i % 3) for i in range(n_sites - 1)]
    return {"n_sites": n_sites, "couplings": couplings, "fields": [0.0] * n_sites,
            "delta": 0.0, "temperature": temperature}


SIGNED = [-0.0, 0.0, 0.25, -0.5, 1, 1.75]  # both zeros, an int and signed values
DELTAS = [-1 + 0.125 * m for m in range(25)]
EXTRA = [
    # an int delta, and the deltas out of table order
    ("table1 reordered", "table1", {"delta_values": [2, 0, 0.5]}),
    ("phase-scan signed zeros", "phase-scan",
     {"spec": _spec(6), "grid": {"delta": [1, 0.5], "B": SIGNED}}),
    ("curve signed zeros", "curve",
     {"spec": _spec(6), "pair": [1, 6], "delta_values": [1, -0.5], "grid": {"B": SIGNED}}),
    ("curve T>0 n=10", "curve",
     {"spec": _spec(10, 0.05), "pair": [1, 10], "delta_values": [0.0, 1],
      "grid": {"B": {"min": -0.3, "max": 1.5, "step": 0.03}}}),
    # three blocks a delta: 11 levels read, 372 fields a chunk; 7 sectors, 585
    ("phase-scan chunks n=10", "phase-scan",
     {"spec": _spec(10, uniform=True),
      "grid": {"delta": [0, 1], "B": {"min": 0, "max": 3, "step": 0.003}}}),
    ("curve T>0 chunks n=6", "curve",
     {"spec": _spec(6, 0.1, uniform=True), "pair": [1, 6], "delta_values": [0, 1],
      "grid": {"B": {"min": 0, "max": 3, "step": 0.0025}}}),
    # 25 deltas in one chunk: the largest part of a uniform n = 8 plan has
    # 28 states, and a chunk stacks 2^21 // (8 * 28^2) = 334
    ("phase-scan delta chunks n=8", "phase-scan",
     {"spec": _spec(8, uniform=True),
      "grid": {"delta": DELTAS, "B": {"min": 0, "max": 3, "step": 0.25}}}),
    ("curve T>0 delta chunks n=8", "curve",
     {"spec": _spec(8, 0.1, uniform=True), "pair": [2, 7], "delta_values": DELTAS,
      "grid": {"B": {"min": -0.5, "max": 2, "step": 0.125}}}),
    # 2 deltas x 26 fields: at n = 12 a chunk is one delta, so its seven
    # blocks are split across the CPUs the process may use
    ("phase-scan parallel blocks n=12", "phase-scan",
     {"spec": _spec(12, uniform=True),
      "grid": {"delta": [0.5, 1.0], "B": {"min": 0, "max": 3, "step": 0.12}}}),
    # 6 deltas x 13 fields: a uniform n = 11 plan stacks 4 deltas a chunk
    # (largest part 236), so two stacked chunks, each split across the CPUs
    ("phase-scan stacked parallel n=11", "phase-scan",
     {"spec": _spec(11, uniform=True),
      "grid": {"delta": [-0.5, 0, 0.5, 1, 1.5, 2], "B": {"min": 0, "max": 3, "step": 0.25}}}),
    # 5 deltas, every level of each: one stacked chunk of a uniform n = 10
    # plan (21 deltas a chunk), split across the CPUs
    ("curve T>0 stacked parallel n=10", "curve",
     {"spec": _spec(10, 0.1, uniform=True), "pair": [1, 10],
      "delta_values": [-0.5, 0, 0.5, 1, 1.5], "grid": {"B": {"min": 0, "max": 2, "step": 0.125}}}),
    # no flip and no mirror, and many sector crossings on the field axis
    ("curve T>0 generic n=8", "curve",
     {"spec": {"n_sites": 8, "couplings": [1.0, 0.7, 1.3, 0.9, 1.1, 0.6, 1.2],
               "fields": [0.3, -0.2, 0.5, 0.0, -0.4, 0.1, 0.2, -0.3], "delta": 0.0,
               "temperature": 1e-3},
      "pair": [1, 8], "delta_values": [-1, 0.5, 2],
      "grid": {"B": {"min": -40, "max": 40, "step": 0.25}}}),
    # every weight whose gap is not exactly 0 underflows to 0
    ("curve T>0 bulk-field channel n=9", "curve",
     {"spec": {"n_sites": 9, "couplings": [1.0] * 8, "fields": [0.0] + [1.25] * 7 + [0.0],
               "delta": 0.0, "temperature": 1e-200},
      "pair": [1, 9], "delta_values": [0, 1],
      "grid": {"B": {"min": -12, "max": 12, "step": 0.05}}}),
    ("channel beta<=1", "channel",
     {"n_sites_values": [4, 10, 2000], "coupling": 0.8,
      "grid": {"beta": [0, 0.5, 1, 1.0000001, 1.5, 3, 6, 12, 24]}}),
    # unsorted betas: band and bound rows in one chunk, at lengths where the
    # stored profile would underflow long before the fold
    ("channel mixed cutoffs", "channel",
     {"n_sites_values": [2000, 20000], "coupling": 1.0,
      "grid": {"beta": [1e8, 0.5, 3, 1.0, 50, 1.0000001, 1e4]}}),
    # the longest chain the cap admits: band, flat and bound rows
    ("channel N=1e7", "channel",
     {"n_sites_values": [10**7], "grid": {"beta": [0.5, 1, 1.5, 3, 5, 20]}}),
]


def cases():
    """(name, subcommand, config or None) for every case, in print order."""
    workloads = _load_workloads()
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(1, 6):
            yield f"{name} seed={seed}", workload.subcommand, workloads.make_config(name, seed)
    yield "table1 default", "table1", None
    for n in (4, 20, 250, 1000):
        for target in (0.5, 0.99, 0.999999):
            yield f"design N={n} target={target}", "design", {"n_sites": n, "target": target}
    yield from EXTRA


def run(main, argv) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of ``main(argv)``; an exception that
    escapes it is printed to stderr with exit code 1, as the interpreter
    would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return out.getvalue().encode(), err.getvalue().encode(), code


def outputs(src: Path) -> dict[str, tuple[bytes, bytes, int]]:
    """(stdout, stderr, exit code) of every case in each format, keyed by
    "<case> <format>", with ``xxzchain`` imported from ``src``; the package
    is unloaded afterwards, so another tree can be run next."""
    sys.path.insert(0, str(src))
    try:
        from xxzchain.cli import main as cli_main

        results = {}
        # a relative config path keeps any message that names it the same in
        # every run
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                for name, command, config in cases():
                    argv = [command]
                    if config is not None:
                        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
                        argv += ["--config", "config.json"]
                    for fmt in ("csv", "jsonl"):
                        results[f"{name} {fmt}"] = run(cli_main, [*argv, "--format", fmt])
            finally:
                os.chdir(cwd)
        return results
    finally:
        sys.path.remove(str(src))
        for module in [m for m in sys.modules if m.split(".")[0] == "xxzchain"]:
            del sys.modules[module]


def _table(out: bytes, fmt: str) -> tuple[list | None, list[list]]:
    """Header and rows of one output: CSV fields as strings, JSON values as
    parsed; the header is None when the JSON lines do not all have the
    same keys or do not parse."""
    lines = out.decode().splitlines()
    if fmt == "csv":
        return (lines[0].split(",") if lines else []), [line.split(",") for line in lines[1:]]
    try:
        objects = [json.loads(line) for line in lines]
    except ValueError:
        return None, []
    header = list(objects[0]) if objects else []
    if any(list(obj) != header for obj in objects):
        return None, []
    return header, [list(obj.values()) for obj in objects]


def _number(value) -> float | None:
    """A CSV field or JSON value as a float, or None if it is not a number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def compare(case: str, this, other) -> tuple[str, bool]:
    """One report line for ``case`` (this tree against the other) and
    whether it differs in more than the values of numeric fields."""
    if this == other:
        return f"{case} identical", False
    fmt = case.rsplit(" ", 1)[1]
    (out, err, code), (other_out, other_err, other_code) = this, other
    header, rows = _table(out, fmt)
    other_header, other_rows = _table(other_out, fmt)
    problems = []
    if code != other_code:
        problems.append(f"exit code {other_code} -> {code}")
    if err != other_err:
        problems.append("stderr")
    if header is None or header != other_header:
        problems.append("header")
        rows = other_rows = []
    elif len(rows) != len(other_rows):
        problems.append(f"row count {len(other_rows)} -> {len(rows)}")
        rows = other_rows = []
    numeric = [_number(value) is not None for value in (rows[0] if rows else [])]
    largest = {column: 0.0 for column, number in zip(header, numeric) if number}
    changed, moved = 0, []
    for index, (row, other_row) in enumerate(zip(rows, other_rows)):
        changed += row != other_row
        for column, a, b in zip(header, row, other_row):
            x, y = _number(a), _number(b)
            if a == b or (x is not None and y is not None and math.isnan(x) and math.isnan(y)):
                continue
            if column not in largest or x is None or y is None or math.isnan(x - y):
                problems.append(f"field {column!r}")
            else:
                largest[column] = max(largest[column], abs(x - y))
                ulps = f" ({abs(x - y) / math.ulp(y):.3g} ulps)" if math.isfinite(x - y) else ""
                moved.append(f"\n  row {index} {column}: {b} -> {a}{ulps}")
    report = []
    if rows:
        diffs = " ".join(f"{column}={value:.3g}" for column, value in largest.items())
        report.append(f"{changed} of {len(rows)} rows differ, max |diff| {diffs}")
    if problems:
        report.append("differs in " + ", ".join(dict.fromkeys(problems)))
    return f"{case} " + "; ".join(report) + "".join(moved), bool(problems)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree to import xxzchain from (default: this repo's src)")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare with this other source tree instead of printing digests")
    args = parser.parse_args()
    trees = [Path(p).resolve() for p in (args.src, args.against) if p is not None]
    for src in trees:
        if not (src / "xxzchain" / "__init__.py").is_file():
            parser.error(f"{src} holds no xxzchain package")
    # the BLAS thread count can move the last bits of an eigh, so it is
    # pinned before the package loads numpy
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    this = outputs(trees[0])
    if args.against is None:
        for case, (out, err, code) in this.items():
            print(case, *(hashlib.sha256(b).hexdigest() for b in (out, err)), code)
        return 0
    other = outputs(trees[1])
    failed = False
    for case, result in this.items():
        line, bad = compare(case, result, other[case])
        print(line)
        failed |= bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
