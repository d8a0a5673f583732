"""The CLI writes each sweep's table from the blocks it is computed in; its
bytes are those of the plain row rule applied to the public generators' rows,
one write per output line, and a closed stdout stops the run at the first
write that fails."""

import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from xxzchain import chain, cli, sweep
from xxzchain.chain import ChainSpec
from xxzchain.channel import channel_curve, design_report
from xxzchain.sweep import concurrence_curve, phase_scan, table1_rows

SRC = Path(__file__).resolve().parents[1] / "src"

HEADERS = {
    "phase-scan": ["delta", "B", "n_up", "sector_rank", "ground_energy", "degeneracy",
                   "boundary_concurrence"],
    "curve": ["delta", "B", "concurrence"],
    "channel": ["n_sites", "beta", "c1n_numeric", "c1n_closed_form", "max_ratio_deviation"],
    "design": ["n_sites", "target", "status", "beta", "bulk_field", "achieved"],
    "table1": ["delta", "regime", "n_up", "b_lo_numeric", "b_hi_numeric", "b_lo_reference",
               "b_hi_reference", "b_lo_abs_delta", "b_hi_abs_delta", "c14_max_numeric",
               "c14_max_reference", "c14_max_abs_delta", "two_up_energy_numeric",
               "two_up_energy_reference"],
}


def _public_rows(command, config):
    """The rows of ``command`` at ``config`` from the public generators, as
    tuples, read from the config as the CLI reads it."""
    if command == "phase-scan":
        template = ChainSpec.from_dict(config["spec"])
        points = phase_scan(template, cli._axis(config, "delta"), cli._axis(config, "B"))
        return [dataclasses.astuple(p) for p in points]
    if command == "curve":
        template = ChainSpec.from_dict(config["spec"])
        deltas = config.get("delta_values", [template.delta])
        return list(concurrence_curve(template, config["pair"], cli._axis(config, "B"), deltas))
    if command == "channel":
        betas = cli._axis(config, "beta")
        return list(channel_curve(config["n_sites_values"], betas, config.get("coupling", 1.0)))
    if command == "design":
        report = design_report(config["n_sites"], config["target"])
        return [tuple(report[k] for k in HEADERS["design"])]
    return list(table1_rows(config["delta_values"]))


def _row_rule(command, rows, fmt):
    """The bytes of the plain row rule: a CSV header, then each value as
    %.17g where it is a float (a subclass too) and as str(value) otherwise;
    or one json.dumps object per row."""
    header = HEADERS[command]
    if fmt == "jsonl":
        return "".join(json.dumps(dict(zip(header, row))) + "\n" for row in rows)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


class _Lines(io.StringIO):
    """A stdout that counts its writes and fails any that does not end a
    line; after ``closed_after`` lines it raises BrokenPipeError, as a
    pipe whose reader has gone does."""

    def __init__(self, closed_after=None):
        super().__init__()
        self.writes = 0
        self.closed_after = closed_after

    def write(self, text):
        if self.writes == self.closed_after:
            raise BrokenPipeError(32, "Broken pipe")
        assert text.endswith("\n") and text.count("\n") == 1, text
        self.writes += 1
        return super().write(text)


def _main(tmp_path, command, config, fmt, closed_after=None):
    """(stdout, writer, exit code) of the CLI run in process."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = _Lines(closed_after)
    stdout, sys.stdout = sys.stdout, out
    try:
        code = cli.main([command, "--config", str(path), "--format", fmt])
    finally:
        sys.stdout = stdout
    return out.getvalue(), out, code


def _spec(rng, n, temperature=0.0, fields=False):
    return {
        "n_sites": n,
        "couplings": [round(rng.uniform(0.5, 1.5), 3) for _ in range(n - 1)],
        "fields": [round(rng.uniform(-0.3, 0.3), 3) if fields else 0.0 for _ in range(n)],
        "delta": 0.0,
        "temperature": temperature,
    }


def _signed_axis(rng, count):
    """A field axis holding both zeros, -0.0 first, and an int among seeded
    values."""
    values = [round(rng.uniform(-1.5, 2.5), 6) for _ in range(count)]
    return [-0.0, *values[: count // 2], 0.0, 1, *values[count // 2 :]]


def _cases():
    rng = random.Random(2807)
    long_axis = [0.001 * m - 1.0 for m in range(chain._CHUNK_ENTRIES + 37)]
    assert len(long_axis) > chain._CHUNK_ENTRIES
    betas = [0, 0.5, 1, 1.0000001, 1.5, 2.0, 0.25, 3, 7.5, 11, 20]
    # k = 1000 walks these betas in chunks of 4, so N = 2000 spans three
    assert len(betas) > 2 * (chain._CHUNK_ENTRIES // 1000)
    return {
        "scan signed zeros, int delta": ("phase-scan", {
            "spec": _spec(rng, 5),
            "grid": {"delta": {"values": [1, 0.35, -0.5]}, "B": _signed_axis(rng, 14)}}),
        "scan site fields, range axis": ("phase-scan", {
            "spec": _spec(rng, 6, fields=True),
            "grid": {"delta": [0, 1.25], "B": {"min": -0.4, "max": 1.3, "step": 0.07}}}),
        "scan axis past one chunk": ("phase-scan", {
            "spec": _spec(rng, 4),
            "grid": {"delta": {"values": [0.5, 2]}, "B": {"values": long_axis}}}),
        "curve T=0 signed zeros, int delta": ("curve", {
            "spec": _spec(rng, 5), "pair": [1, 5], "delta_values": [0, 1, 0.3],
            "grid": {"B": _signed_axis(rng, 20)}}),
        "curve T>0 signed zeros, int delta": ("curve", {
            "spec": _spec(rng, 6, temperature=0.15, fields=True), "pair": [2, 5],
            "delta_values": [1, -0.7], "grid": {"B": {"values": _signed_axis(rng, 20)}}}),
        "curve T>0 range axis": ("curve", {
            "spec": _spec(rng, 4, temperature=0.4), "pair": [1, 4],
            "grid": {"B": {"min": 0, "max": 2, "step": 0.125}}}),
        "curve T=0 axis past one chunk": ("curve", {
            "spec": _spec(rng, 4), "pair": [1, 4], "delta_values": [0.25],
            "grid": {"B": long_axis}}),
        "curve T>0 axis past one chunk": ("curve", {
            "spec": _spec(rng, 4, temperature=0.05), "pair": [1, 3], "delta_values": [0.25, 1],
            "grid": {"B": long_axis}}),
        "channel betas across chunks": ("channel", {
            "n_sites_values": [4, 2000, 10], "coupling": 0.7, "grid": {"beta": betas}}),
        "channel range axis": ("channel", {
            "n_sites_values": [6, 8], "grid": {"beta": {"min": 0, "max": 3, "step": 0.5}}}),
        "design": ("design", {"n_sites": 20, "target": 0.99}),
        "table1": ("table1", {"delta_values": [0, 0.5, 1, 2]}),
    }


CASES = _cases()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("case", list(CASES))
def test_cli_bytes_are_the_row_rule_over_the_public_rows(tmp_path, case, fmt):
    command, config = CASES[case]
    rows = _public_rows(command, config)
    out, writer, code = _main(tmp_path, command, config, fmt)
    assert code == 0
    assert out == _row_rule(command, rows, fmt)
    # one write per output line, each ending in "\n" (checked by the writer)
    assert writer.writes == len(rows) + (fmt == "csv") == out.count("\n")


def test_the_cases_hold_what_they_are_named_for():
    scan = _public_rows(*CASES["scan signed zeros, int delta"])
    assert {math.copysign(1.0, row[1]) for row in scan if row[1] == 0.0} == {1.0, -1.0}
    curve = _public_rows(*CASES["curve T>0 signed zeros, int delta"])
    assert {math.copysign(1.0, row[1]) for row in curve if row[1] == 0.0} == {1.0, -1.0}
    # an int delta or field is printed as the float the rows hold
    assert all(type(row[0]) is type(row[1]) is float for row in scan + curve)
    assert {1.0, 0.35, -0.5} == {row[0] for row in scan} and 1.0 in {row[1] for row in scan}
    channel = _public_rows(*CASES["channel betas across chunks"])
    # beta <= 1 prints nan in the closed-form column, beta = 0 inf as its deviation
    assert {row[1] for row in channel if math.isnan(row[3])} == {0.0, 0.25, 0.5, 1.0}
    assert all(row[4] == math.inf for row in channel if row[1] == 0.0)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("closed_after", [0, 1, 7, 10, 11, 25])
def test_a_closed_stdout_stops_the_run_at_its_first_failed_write(
    monkeypatch, tmp_path, capsys, fmt, closed_after
):
    deltas = [0.0, 0.5, 1, 1.5]
    config = {"spec": _spec(random.Random(5), 4), "pair": [1, 4], "delta_values": deltas,
              "grid": {"B": [0.1 * m for m in range(10)]}}
    full, _, _ = _main(tmp_path, "curve", config, fmt)
    calls = []
    field_rows = sweep._SectorSpectrum.field_rows

    def counted(self, *args):
        calls.append(args)
        return field_rows(self, *args)

    monkeypatch.setattr(sweep._SectorSpectrum, "field_rows", counted)
    out, writer, code = _main(tmp_path, "curve", config, fmt, closed_after)
    assert code == cli.EXIT_CLOSED == 141
    assert capsys.readouterr().err == ""
    assert writer.writes == closed_after
    assert out == "".join(full.splitlines(keepends=True)[:closed_after])
    # the row whose write failed is the last one computed: its delta's field
    # pass ran, no later delta's did
    row = closed_after - (fmt == "csv")
    assert len(calls) == (0 if row < 0 else row // 10 + 1)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_closed_stdout_stops_the_field_pass_within_its_first_chunk(
    monkeypatch, tmp_path, capsys, fmt
):
    # 2001 fields at n = 6, T = 0: a delta's field pass spans several chunks
    config = {"spec": _spec(random.Random(29), 6), "pair": [1, 6], "delta_values": [0.0, 1.0],
              "grid": {"B": {"min": 0, "max": 2, "step": 0.001}}}
    kernel, calls = sweep.xstate_concurrences, []
    monkeypatch.setattr(sweep, "xstate_concurrences", lambda d: calls.append(len(d)) or kernel(d))
    full, _, _ = _main(tmp_path, "curve", config, fmt)
    # one kernel call per chunk: the first delta's 2001 fields take three or more
    assert sum(calls[:3]) <= 2001
    calls.clear()
    closed_after = 1 + (fmt == "csv")  # the first row, and the CSV header
    out, _, code = _main(tmp_path, "curve", config, fmt, closed_after)
    assert code == cli.EXIT_CLOSED
    assert capsys.readouterr().err == ""
    assert out == "".join(full.splitlines(keepends=True)[:closed_after])
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_closed_stdout_costs_at_most_the_chunk_of_deltas_it_is_in(monkeypatch, tmp_path, fmt):
    # 63 deltas at n = 10 are three stacked chunks of 21; a stdout closed
    # after its first line (the CSV header, or the first JSON row) stops the
    # run within the first, whose matrices are all it decomposes
    spec = ChainSpec.uniform(10)
    chunk = sweep._BlockPlan(spec, (1, 10)).chunk
    deltas = [-1 + 0.05 * m for m in range(3 * chunk)]
    config = {"spec": dataclasses.asdict(spec), "grid": {"delta": deltas, "B": [0.0, 0.5, 1.0]}}
    decompose, matrices = sweep.decompose, []

    def counted(stack):
        matrices.append(len(stack))
        return decompose(stack)

    monkeypatch.setattr(sweep, "decompose", counted)
    list(phase_scan(spec, deltas[:chunk], config["grid"]["B"]))
    first = sum(matrices)
    matrices.clear()
    out, _, code = _main(tmp_path, "phase-scan", config, fmt, closed_after=1)
    assert code == cli.EXIT_CLOSED == 141
    assert len(out.splitlines()) == 1
    assert 0 < sum(matrices) <= first


def _script(config_path, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, "-m", "xxzchain.cli", "curve", "--config", str(config_path)]
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            **kwargs)


def test_the_command_exits_141_without_a_message_when_its_reader_goes(tmp_path):
    # about 0.5 MB of rows: more than a pipe and stdout's buffer hold, so
    # writes are still due after the reader has gone
    config = {"spec": _spec(random.Random(9), 3), "pair": [1, 3], "delta_values": [0.0, 1.0],
              "grid": {"B": {"min": 0, "max": 2, "step": 2e-4}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with _script(path) as proc:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
    assert head[0] == b"delta,B,concurrence\n" and head[1].startswith(b"0,0,")
    assert (proc.returncode, err) == (141, b"")
    with _script(path) as proc:
        out, err = proc.communicate()
    assert (proc.returncode, err) == (0, b"")
    assert len(out) > 400_000
    assert out.decode() == _row_rule("curve", _public_rows("curve", config), "csv")
