"""Command-line front end: deterministic CSV/JSONL emission of sweeps.

Exit codes: 0 success, 2 config error, 3 resource-cap error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isfinite

import numpy as np

from .chain import GRID_POINT_CAP, ChainSpec, config_number, config_numbers
from .channel import channel_curve, design_report
from .errors import DomainError, NumericError, ResourceCapError
from .sweep import concurrence_curve, phase_scan, table1_rows

_FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    return _FLOAT_FMT % value if isinstance(value, float) else str(value)


def _emit(header: list[str], rows, out, fmt: str) -> None:
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join([_fmt(v) for v in row]) + "\n")
    else:
        for row in rows:
            obj = {k: v for k, v in zip(header, row)}
            out.write(json.dumps(obj) + "\n")


def _write_atomically(path: str, header: list[str], rows, fmt: str) -> None:
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
            _emit(header, rows, fh, fmt)
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


def _axis(config: dict, name: str) -> tuple[float, ...]:
    """Grid axis ``name``: a ``{"values": [..]}`` object or a bare list, or
    the inclusive range lo + m step up to hi of a ``{"min", "max", "step"}``
    object, refused before any of its points is built.  The sweep it is
    passed to checks the grid (``chain.check_grid``)."""
    grid = _require(config, "grid")
    if not isinstance(grid, dict) or name not in grid:
        raise DomainError(f"config grid is missing axis {name!r}")
    axis = grid[name]
    if not isinstance(axis, dict) or "values" in axis:
        values = axis["values"] if isinstance(axis, dict) else axis
        return config_numbers(float, values, "grid values")
    try:
        lo, hi, step = [
            config_number(float, axis[key], f"grid {key}") for key in ("min", "max", "step")
        ]
    except KeyError as exc:
        raise DomainError(f"grid axis needs min/max/step or values: {exc}") from exc
    if not all(isfinite(v) for v in (lo, hi, step)):
        raise DomainError(f"grid min, max and step must be finite, got ({lo}, {hi}, {step})")
    if step <= 0:
        raise DomainError(f"grid step must be positive, got {step}")
    if lo > hi:
        raise DomainError(f"grid needs min <= max, got ({lo}, {hi})")
    # a float count: (hi - lo) / step may overflow to inf
    count = np.floor((hi - lo) / step + 1e-9) + 1
    if count > GRID_POINT_CAP:
        raise ResourceCapError(f"grid axis with {count:.0f} points exceeds the cap")
    return tuple(lo + step * m for m in range(int(count)))


def _cmd_phase_scan(config: dict):
    template = ChainSpec.from_dict(_require(config, "spec"))
    points = phase_scan(template, _axis(config, "delta"), _axis(config, "B"))
    header = [
        "delta",
        "B",
        "n_up",
        "sector_rank",
        "ground_energy",
        "degeneracy",
        "boundary_concurrence",
    ]
    rows = (
        (p.delta, p.field, p.n_up, p.sector_rank, p.ground_energy, p.degeneracy,
         p.boundary_concurrence)
        for p in points
    )
    return header, rows


def _cmd_curve(config: dict):
    template = ChainSpec.from_dict(_require(config, "spec"))
    pair = config_numbers(int, _require(config, "pair"), "pair")
    if len(pair) != 2:
        raise DomainError("config 'pair' must be a two-element list [i, j]")
    deltas = config_numbers(float, config.get("delta_values", [template.delta]), "delta_values")
    rows = concurrence_curve(template, pair, _axis(config, "B"), deltas)
    return ["delta", "B", "concurrence"], rows


def _cmd_channel(config: dict):
    n_values = config_numbers(int, _require(config, "n_sites_values"), "n_sites_values")
    coupling = config_number(float, config.get("coupling", 1.0), "coupling")
    rows = channel_curve(n_values, _axis(config, "beta"), coupling)
    return (
        ["n_sites", "beta", "c1n_numeric", "c1n_closed_form", "max_ratio_deviation"],
        rows,
    )


def _cmd_design(config: dict):
    report = design_report(
        config_number(int, _require(config, "n_sites"), "n_sites"),
        config_number(float, _require(config, "target"), "target"),
        config_number(float, config.get("coupling", 1.0), "coupling"),
    )
    header = ["n_sites", "target", "status", "beta", "bulk_field", "achieved"]
    return header, [tuple(report[k] for k in header)]


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
    if "delta_values" not in config:
        return header, table1_rows()
    return header, table1_rows(config_numbers(float, config["delta_values"], "delta_values"))


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
        header, rows = _COMMANDS[args.command](config)
        if args.out:
            _write_atomically(args.out, header, rows, args.format)
        else:
            _emit(header, rows, sys.stdout, args.format)
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


if __name__ == "__main__":
    raise SystemExit(main())
