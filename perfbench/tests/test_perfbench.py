"""Tests of the benchmark's own arithmetic, oracles and tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads
import xxzchain.cli as cli

SMALL = {
    "phase-scan": {
        "spec": {"n_sites": 4, "couplings": [1, 1, 1], "fields": [0, 0, 0, 0], "delta": 0},
        "grid": {"delta": {"values": [0.0, 1.0]}, "B": {"values": [0.1, 0.7, 1.3, 2.9]}},
    },
    "curve": {
        "spec": {"n_sites": 4, "couplings": [1, 1, 1], "fields": [0, 0, 0, 0],
                 "delta": 0, "temperature": 0.2},
        "pair": [1, 4], "delta_values": [0.0, 0.5],
        "grid": {"B": {"values": [0.0, 0.4, 0.8]}},
    },
    "channel": {"n_sites_values": [250], "coupling": 1.0,
                "grid": {"beta": {"values": [2.0, 3.5]}}},
}


def run_cli(tmp_path, subcommand, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert cli.main([subcommand, "--config", str(config_path), "--out", str(out)]) == 0
    return out.read_text()


def span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end,
            "attrs": None}


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        span(0, -1, "cli", 0.0, 10.0),
        span(1, 0, "sweep.phase_scan.next", 1.0, 8.0),
        span(2, 1, "eigensolver.decompose", 2.0, 5.0),
        span(3, 1, "hamiltonian.build_full", 5.5, 6.0),
        span(4, 0, "sweep.phase_scan.next", 8.5, 9.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 3.5, 3.0, 0.5, 0.5])
    values = run.span_metrics(spans)
    assert values["cli.self_s"] == pytest.approx(2.5)
    assert values["sweep.self_s"] == pytest.approx(4.0)
    assert values["eigensolver.decompose.self_s"] == pytest.approx(3.0)
    assert values["eigensolver.decompose.calls"] == 1
    assert values["channel.design_channel.calls"] == 0
    # self times partition the root span
    assert values["layer_sum_s"] == pytest.approx(10.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    # every workload has enough row gaps per child for its p90
    fewest = min(w.rows for w in workloads.WORKLOADS.values())
    run.percentile(list(range(fewest - 1)), 0.9)
    assert run.percentile(list(range(92)), 0.9) == pytest.approx(81.9)
    with pytest.raises(ValueError, match="9 beyond"):
        run.percentile(list(range(91)), 0.9)
    assert run.percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 0.5)


def test_every_child_gets_the_grace_period_however_long_the_run(monkeypatch):
    now = [0.0]
    headroom = []

    def fake_child(root, rundir, tag, cli_args, flags, deadline):
        headroom.append(deadline - now[0])
        now[0] += 40.0
        return run.ChildRun(traced=bool(flags), t_spawn=now[0], exit=0, maxrss_kib=1,
                            stdout="", meta={"t_config": now[0], "t_end": now[0]})

    monkeypatch.setattr(run.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(run, "run_child", fake_child)
    setups, children = run.run_children(None, None, [], 600.0, False)
    assert len(setups) + len(children) == 600 / 40
    assert min(headroom) >= run.GRACE_S


@pytest.mark.parametrize("subcommand", sorted(SMALL))
def test_an_injected_wrong_row_raises_fail_frac(tmp_path, subcommand):
    config = SMALL[subcommand]
    text = run_cli(tmp_path, subcommand, config)
    oracle = oracles.Oracle(subcommand, config)
    good = oracles.CheckResult()
    oracle.check(text, good)
    assert (good.attempted, good.failed) == (len(oracle.keys), 0)

    lines = text.splitlines(keepends=True)
    cells = lines[2].rstrip("\n").split(",")
    cells[-3 if subcommand == "channel" else -1] = "0.25"
    bad = oracles.CheckResult()
    oracle.check("".join(lines[:2] + [",".join(cells) + "\n"] + lines[3:]), bad)
    assert (bad.attempted, bad.failed) == (len(oracle.keys), 1)

    missing = oracles.CheckResult()
    oracle.check("".join(lines[:-1]), missing)
    assert missing.failed == 1


def test_a_noise_floor_row_passes_only_at_the_kernels_value():
    # an X state with a diagonal entry below the kernel's eigenvalue clip
    rho = np.zeros((4, 4))
    rho[0, 0], rho[1, 1], rho[2, 2] = 1e-15, 0.25, 0.25
    rho[3, 3] = 0.5 - rho[0, 0]
    rho[1, 2] = rho[2, 1] = 0.2
    exact, kernel = oracles.concurrences(rho)
    assert abs(kernel - exact) > 1e-9
    counters = {"entanglement.concurrence_floor_rows": 0}
    check = oracles.Oracle._concurrence_problem
    assert check(exact, exact, kernel, counters) is None
    assert counters["entanglement.concurrence_floor_rows"] == 0
    assert check(kernel, exact, kernel, counters) is None
    assert counters["entanglement.concurrence_floor_rows"] == 1
    for wrong in (kernel + 1e-11, 2 * kernel, 0.0):
        assert check(wrong, exact, kernel, counters) is not None
    # away from the floor the kernel's value is not a way out
    assert check(exact + 1e-9, exact, exact, counters) is not None
    assert counters["entanglement.concurrence_floor_rows"] == 1


def test_tracer_restores_every_wrapper_and_keeps_output(tmp_path):
    import xxzchain.sweep as sweep

    config = SMALL["phase-scan"]
    plain = run_cli(tmp_path, "phase-scan", config)
    originals = (cli.phase_scan, sweep.decompose, sweep.classify_ground_state)
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert cli.phase_scan is not originals[0]
        assert sweep.decompose is not originals[1]
        traced = tracer.call(tracing.ROOT, run_cli, tmp_path, "phase-scan", config)
    finally:
        tracer.uninstall()
    assert tracer.leftover() == []
    assert (cli.phase_scan, sweep.decompose, sweep.classify_ground_state) == originals
    assert traced == plain
    values = run.span_metrics(tracer.records())
    rows = len(oracles.Oracle("phase-scan", config).keys)
    assert values["eigensolver.decompose.calls"] == rows
    assert values["hamiltonian.build_full.calls"] == rows
    assert values["channel.design_channel.calls"] == 0
    assert values["eigensolver.decompose.dim_max"] == 16


def test_seed_moves_the_grid_but_not_the_row_count():
    for name, workload in workloads.WORKLOADS.items():
        a, b = workloads.make_config(name, 1), workloads.make_config(name, 2)
        assert a == workloads.make_config(name, 1)
        assert a != b
        assert len(oracles.Oracle(workload.subcommand, a).keys) == workload.rows
        assert len(oracles.Oracle(workload.subcommand, b).keys) == workload.rows


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
