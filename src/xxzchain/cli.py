"""Command-line front end: deterministic CSV/JSONL emission of sweeps.

Config values go to the library as they are, which reads each one by its
number rule; this module reads only the config's grammar: required keys,
the two-element ``pair`` and the ``{"min", "max", "step"}`` grid axis.

A sweep's table is written from the blocks it is computed in
(``chain._rows``), read from the producers behind ``phase_scan``,
``concurrence_curve`` and ``channel_curve`` (``sweep._scan_blocks``,
``sweep._curve_blocks``, ``channel.channel_blocks``).  CSV formats the
axis once per call and a block's head once per block, so a line costs one
% and one write; a float (any float subclass) prints as %.17g, anything
else as str(value).  JSONL writes one json.dumps line per row.  ``design``
and ``table1`` rows are blocks of one row each.

Exit codes: 0 success, 2 config error, 3 resource-cap error, 4 numeric
failure, 141 stdout closed by its reader (a broken pipe): the run stops at
the first write that fails, with no message and no further row computed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .chain import GRID_POINT_CAP, ChainSpec, _rows, check_grid
from .channel import channel_blocks, design_report
from .closed_forms import TABLE_4SITE
from .errors import DomainError, NumericError, ResourceCapError
from .sweep import _curve_blocks, _scan_blocks, table1_rows
from .sweep import phase_scan  # unused: perfbench's tracer test reads it from here

# the exit code of a run whose stdout was closed by its reader (128 + SIGPIPE)
EXIT_CLOSED = 141


def _cell(value) -> str:
    return ("%.17g" if isinstance(value, float) else "%s") % value


def _emit(header: list[str], axis, blocks, out, fmt: str) -> None:
    """Write the table of ``axis`` and ``blocks`` (``chain._rows``) as CSV or
    as JSON lines, one write per line.  CSV keeps one line format per axis
    value and tuple of column types (%.17g for a float subclass, %s
    otherwise), read off each block's first row: a sweep's columns hold one
    type each, so the axis is formatted once per call.  A line is then the
    block's head, formatted once per block, and one % over the rest of its
    values."""
    write = out.write
    if fmt != "csv":
        for row in _rows(axis, blocks):
            write(json.dumps(dict(zip(header, row))) + "\n")
        return
    write(",".join(header) + "\n")
    lines = {}
    for head, start, columns in blocks:
        kinds = tuple(type(column[0]) for column in columns)
        formats = lines.get(kinds)
        if formats is None:
            rest = ",".join("%.17g" if issubclass(kind, float) else "%s" for kind in kinds)
            cells = [""] if axis is None else (_cell(x) + "," for x in axis)  # numbers: no %
            formats = lines[kinds] = [cell + rest + "\n" for cell in cells]
        prefix = "".join(_cell(value) + "," for value in head)
        for line, row in zip(formats[start : start + len(columns[0])], zip(*columns)):
            write(prefix + line % row)


def _one_per_block(rows):
    """Rows with no shared axis or head as blocks of one row each."""
    return (((), 0, [[value] for value in row]) for row in rows)


def _write_atomically(path: str, header: list[str], axis, blocks, fmt: str) -> None:
    """Emit into a fresh file beside ``path`` and move it into place only
    once every row is written, so an error raised by the lazy row generators
    leaves neither a partial file nor a clobbered old one.  A path that
    cannot be written is a config error."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write output: {exc}") from exc
    try:
        with fh:
            _emit(header, axis, blocks, fh, fmt)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise DomainError(f"cannot write output: {exc}") from exc
    except BaseException:
        os.remove(tmp)
        raise


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, an integer past 4300 digits
        raise DomainError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DomainError("config must be a JSON object")
    return obj


def _require(config: dict, key: str):
    if key not in config:
        raise DomainError(f"config is missing required key {key!r}")
    return config[key]


def _axis(config: dict, name: str):
    """Grid axis ``name``: a ``{"values": [..]}`` object or a bare list, or
    the inclusive range lo + m step up to hi of a ``{"min", "max", "step"}``
    object, whose three numbers are checked as a grid axis and which is
    refused before any of its points is built.  The sweep it is passed to
    reads the values and checks the grid (``chain.check_grid``)."""
    grid = _require(config, "grid")
    if not isinstance(grid, dict) or name not in grid:
        raise DomainError(f"config grid is missing axis {name!r}")
    axis = grid[name]
    if not isinstance(axis, dict) or "values" in axis:
        return axis["values"] if isinstance(axis, dict) else axis
    try:
        ((lo, hi, step),) = check_grid([axis[key] for key in ("min", "max", "step")])
    except KeyError as exc:
        raise DomainError(f"grid axis needs min/max/step or values: {exc}") from exc
    if step <= 0:
        raise DomainError(f"grid step must be positive, got {step}")
    if lo > hi:
        raise DomainError(f"grid needs min <= max, got ({lo}, {hi})")
    try:
        # a float count: (hi - lo) / step may overflow to inf
        count = np.floor((hi - lo) / step + 1e-9) + 1
        if count > GRID_POINT_CAP:
            raise ResourceCapError(f"grid axis with {count:.0f} points exceeds the cap")
        return tuple(lo + step * m for m in range(int(count)))
    except OverflowError as exc:  # an int too large for a float meets a float
        raise DomainError(f"grid min, max and step must lie in the float range: {exc}") from exc


def _cmd_phase_scan(config: dict):
    template = ChainSpec.from_dict(_require(config, "spec"))
    header = [
        "delta",
        "B",
        "n_up",
        "sector_rank",
        "ground_energy",
        "degeneracy",
        "boundary_concurrence",
    ]
    return header, *_scan_blocks(template, _axis(config, "delta"), _axis(config, "B"))


def _cmd_curve(config: dict):
    template = ChainSpec.from_dict(_require(config, "spec"))
    pair = _require(config, "pair")
    deltas = config.get("delta_values", [template.delta])
    return ["delta", "B", "concurrence"], *_curve_blocks(template, pair, _axis(config, "B"), deltas)


def _cmd_channel(config: dict):
    n_values = _require(config, "n_sites_values")
    table = channel_blocks(n_values, _axis(config, "beta"), config.get("coupling", 1.0))
    return ["n_sites", "beta", "c1n_numeric", "c1n_closed_form", "max_ratio_deviation"], *table


def _cmd_design(config: dict):
    report = design_report(
        _require(config, "n_sites"), _require(config, "target"), config.get("coupling", 1.0)
    )
    header = ["n_sites", "target", "status", "beta", "bulk_field", "achieved"]
    return header, None, _one_per_block([tuple(report[k] for k in header)])


def _cmd_table1(config: dict):
    header = [
        "delta",
        "regime",
        "n_up",
        "b_lo_numeric",
        "b_hi_numeric",
        "b_lo_reference",
        "b_hi_reference",
        "b_lo_abs_delta",
        "b_hi_abs_delta",
        "c14_max_numeric",
        "c14_max_reference",
        "c14_max_abs_delta",
        "two_up_energy_numeric",
        "two_up_energy_reference",
    ]
    return header, None, _one_per_block(table1_rows(config.get("delta_values", TABLE_4SITE)))


_COMMANDS = {
    "phase-scan": _cmd_phase_scan,
    "curve": _cmd_curve,
    "channel": _cmd_channel,
    "design": _cmd_design,
    "table1": _cmd_table1,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxzchain",
        description="Spin-chain sweeps: phase diagrams, concurrence curves, "
        "and boundary-entanglement channel sizing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config path")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        table = _COMMANDS[args.command](config)
        if args.out:
            _write_atomically(args.out, *table, args.format)
        else:
            _emit(*table, sys.stdout, args.format)
    except BrokenPipeError:
        return EXIT_CLOSED
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


def script() -> int:
    """The ``xxzchain`` command: ``main`` on this process's stdout, which it
    flushes before it returns.  Once the reader has closed stdout, what the
    stream still buffers is sent to os.devnull instead, so the interpreter's
    own flush at exit neither fails nor prints, and the exit code is
    EXIT_CLOSED.  ``main`` itself touches no file descriptor, so it runs on
    any text stream in process."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_CLOSED
    if code == EXIT_CLOSED:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(script())
