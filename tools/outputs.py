"""Fingerprint the CLI's output on a fixed set of configs, to compare two trees.

Runs ``xxzchain.cli.main`` in process, with one BLAS thread, on:

- ``perfbench/workloads.make_config(w, s)`` for its three workloads and seeds
  1-5 (the file is read, never changed);
- ``table1`` with its default deltas;
- ``design`` at N in {4, 20, 250, 1000} x target in {0.5, 0.99, 0.999999};

each in CSV and in JSONL.  For each case it prints one line: the case, the
SHA-256 of stdout, the SHA-256 of stderr and the exit code.  Two trees print
the same lines exactly when they print the same bytes and exit codes:

    python tools/outputs.py --src path/to/other/src > other.txt
    python tools/outputs.py > this.txt
    diff other.txt this.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree to import xxzchain from (default: this repo's src)")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "xxzchain" / "__init__.py").is_file():
        parser.error(f"--src {src} holds no xxzchain package")
    # the BLAS thread count can move the last bits of an eigh, so it is
    # pinned before the package loads numpy
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(src))
    from xxzchain.cli import main as cli_main

    # a relative config path keeps any message that names it the same in
    # every run
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, command, config in cases():
            argv = [command]
            if config is not None:
                Path("config.json").write_text(json.dumps(config), encoding="utf-8")
                argv += ["--config", "config.json"]
            for fmt in ("csv", "jsonl"):
                out, err, code = run(cli_main, [*argv, "--format", fmt])
                digests = (hashlib.sha256(b).hexdigest() for b in (out, err))
                print(f"{name} {fmt}", *digests, code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
