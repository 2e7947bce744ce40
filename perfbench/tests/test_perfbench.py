"""Self-tests of the benchmark: checks, seeding, tracing and the run contract.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import checks
import run
import tracer
from workloads import WORKLOADS, invocation

SMALL_SWEEP = ["--mode", "tau-sweep", "--n-max", "12", "--tau-steps", "15"]
SMALL_ORACLE = ["--mode", "oracle-check", "--oracle-n-max", "6"]


def _golden(name: str) -> str:
    return (run.GOLDEN / WORKLOADS[name].golden).read_text()


def _child(tmp_path, argv: list[str], name: str, traced: bool) -> tuple[dict, bytes]:
    out = tmp_path / f"{name}.out"
    spec = {
        "src": str(run.SRC),
        "cpu": min(os.sched_getaffinity(0)),
        "result": str(tmp_path / f"{name}.json"),
        "argv": argv,
        "out": str(out),
        "invocation": 0,
        "spans": str(tmp_path / f"{name}.spans.csv") if traced else None,
    }
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "child.py"), json.dumps(spec)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / f"{name}.json").read_text()), out.read_bytes()


# seeding --------------------------------------------------------------------


def test_canonical_seed_is_the_documented_invocation():
    argv = {name: invocation(w, 0).argv for name, w in WORKLOADS.items()}
    assert argv == {
        "tau-sweep": ["--mode", "tau-sweep"],
        "s-sweep": ["--mode", "s-sweep", "--tau", "14.5", "--s-steps", "200"],
        "oracle-check": ["--mode", "oracle-check", "--oracle-n-max", "40", "--tolerance", "1e-8"],
        "tau-sweep-dense": ["--mode", "tau-sweep", "--theta", "1.5707963267948966"],
    }


def test_other_seeds_shift_the_grid_by_a_seeded_sub_step():
    step = 2.0 / 199
    inv = invocation(WORKLOADS["s-sweep"], 7)
    assert inv == invocation(WORKLOADS["s-sweep"], 7)
    assert inv != invocation(WORKLOADS["s-sweep"], 8)
    assert 0.0 < inv.grid.start < step
    assert inv.grid.end - inv.grid.start == pytest.approx(2.0)
    assert inv.argv[-4:] == ["--s-start", repr(inv.grid.start), "--s-end", repr(inv.grid.end)]
    assert len(set(inv.spot_rows)) == 2
    assert invocation(WORKLOADS["oracle-check"], 7).argv == invocation(WORKLOADS["oracle-check"], 0).argv


# output checks --------------------------------------------------------------


def test_golden_passes_its_own_check():
    inv = invocation(WORKLOADS["tau-sweep"], 0)
    result = checks.check_sweep(_golden("tau-sweep"), _golden("tau-sweep"), inv)
    assert result.ok, result.problems
    assert result.golden_max_abs_diff == 0.0


def test_golden_cell_perturbed_by_1e_9_fails():
    golden = _golden("tau-sweep")
    lines = golden.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("tau,")) + 10
    cells = lines[row].rstrip("\n").split(",")
    col = cells.index(next(c for c in cells[2:] if 0.1 < float(c) < 1.0))
    cells[col] = repr(float(cells[col]) + 1e-9)
    lines[row] = ",".join(cells) + "\n"
    result = checks.check_sweep("".join(lines), golden, invocation(WORKLOADS["tau-sweep"], 0))
    assert not result.ok
    assert result.golden_max_abs_diff == pytest.approx(1e-9, rel=1e-3)


def test_dropped_or_failed_oracle_row_fails():
    golden = _golden("oracle-check")
    assert checks.check_oracle_report(golden, golden).ok
    lines = golden.splitlines(keepends=True)
    first_row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    dropped = lines[:first_row] + lines[first_row + 1 :]
    assert not checks.check_oracle_report("".join(dropped), golden).ok
    failed = lines.copy()
    failed[first_row] = failed[first_row].replace(" ok", " FAIL")
    assert not checks.check_oracle_report("".join(failed), golden).ok


def test_oracle_row_that_lost_accuracy_fails_below_the_cli_tolerance():
    golden = _golden("oracle-check")
    lines = golden.splitlines(keepends=True)
    first_row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[first_row].split()
    cells[3] = "1e-09"  # still below the CLI's 1e-8, so the row reads ok
    lines[first_row] = " ".join(cells) + "\n"
    result = checks.check_oracle_report("".join(lines), golden)
    assert not result.ok
    assert "drifted" in result.problems[0]


# tracing --------------------------------------------------------------------


def test_layer_metrics_from_spans():
    t = tracer.Tracer()
    t.layer_of = {"a.f": "a", "b.g": "b"}
    t.calls.update({"a.f": 2, "b.g": 1})
    t.spans = [
        ["a.f", "a", 0.0, 10.0, -1, False],
        ["b.g", "b", 2.0, 6.0, 0, False],
        ["a.f", "a", 3.0, 4.0, 1, False],  # a re-entered below b
    ]
    metrics = t.layer_metrics()
    assert metrics["a"]["calls"] == 2 and metrics["b"]["calls"] == 1
    assert metrics["a"]["busy_s"] == 10.0 and metrics["a"]["self_s"] == 7.0
    assert metrics["b"]["busy_s"] == 4.0 and metrics["b"]["self_s"] == 3.0


def test_wrappers_are_removed_afterwards(tmp_path):
    import cavity3q.cli as cli

    modules = [m for name, m in sys.modules.items() if name == "cavity3q" or name.startswith("cavity3q.")]
    before = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    linalg_before = dict(vars(np.linalg))
    original_row = sys.modules["cavity3q.fock_field"].binomial_amplitude_row

    t = tracer.Tracer()
    t.install()
    try:
        # every binding site of a public function carries the same wrapper
        sites = [m.__dict__.get("binomial_amplitude_row") for m in modules]
        wrapped = {id(site) for site in sites if site is not None}
        assert len(wrapped) == 1 and original_row not in sites
        assert cli.main(SMALL_SWEEP + ["--out", str(tmp_path / "out.csv")]) == 0
    finally:
        t.uninstall()

    after = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(vars(np.linalg)[k] is v for k, v in linalg_before.items())
    assert t.calls["cli.main"] == 1 and t.linalg["entanglement"] > 0


def test_traced_and_untraced_runs_write_identical_output(tmp_path):
    plain, plain_out = _child(tmp_path, SMALL_SWEEP, "plain", traced=False)
    traced, traced_out = _child(tmp_path, SMALL_SWEEP, "traced", traced=True)
    assert plain["status"] == 0 and traced["status"] == 0
    assert plain_out == traced_out
    spans = (tmp_path / "traced.spans.csv").read_text().splitlines()
    assert spans[0] == "invocation,index,parent,name,start_s,end_s,error"
    assert spans[1].split(",")[2:4] == ["-1", "cli.main"]


def test_peak_rss_is_the_child_own_not_the_parent_high_water_mark(tmp_path):
    ballast = bytearray(96 * 1024 * 1024)  # parent resident set well above the child's
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    result, _ = _child(tmp_path, SMALL_SWEEP, "rss", traced=False)
    assert 10.0 < result["peak_rss_mb"] < 80.0
    del ballast


def test_call_counts_repeat_across_traced_processes(tmp_path):
    first, _ = _child(tmp_path, SMALL_SWEEP, "first", traced=True)
    second, _ = _child(tmp_path, SMALL_SWEEP, "second", traced=True)
    assert first["calls"] == second["calls"]
    for layer, metrics in first["layers"].items():
        for key in run.COUNTS:
            assert metrics[key] == second["layers"][layer][key], (layer, key)
    assert first["layers"]["entanglement"]["calls"] > 0
    assert first["layers"]["oracle"]["calls"] == 0


def test_oracle_check_never_enters_the_entanglement_layer(tmp_path):
    result, out = _child(tmp_path, SMALL_ORACLE, "oracle", traced=True)
    assert result["status"] == 0 and b"# result: PASS" in out
    assert result["layers"]["entanglement"]["calls"] == 0
    assert result["layers"]["oracle"]["calls"] == 72
    assert result["layers"]["oracle"]["linalg_calls"] > 0


def test_off_cpu_time_and_reaped_children_count_in_a_window():
    import child

    clock = child._Clock(min(os.sched_getaffinity(0)))
    own_start = time.process_time()
    time.sleep(0.2)
    subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True)
    window = clock.window()
    assert window["cpu_s"] - (time.process_time() - own_start) > 0.03  # the child's CPU time
    # the sleep and the wait for the child are off the CPU; the child's own
    # CPU time is not counted twice
    assert 0.15 < run.off_cpu_s(window) < window["wall_s"] - 0.03


# contention probe -----------------------------------------------------------


def test_slowdown_drops_the_slowest_tenth_and_falls_back_to_nearest_samples():
    probe = run.Probe(0, run.OUT / "unused.json")
    nominal = run.NOMINAL_PROBE_S
    probe.samples = [(0.1 * i, nominal) for i in range(9)] + [(0.95, 50 * nominal)]
    assert probe.slowdown({"start": 0.0, "wall_s": 1.0}) == pytest.approx(1.0)
    probe.samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 3 * nominal), (9.0, 9 * nominal)]
    # no sample inside: the three nearest (1, 2 and 3 times nominal), slowest dropped
    assert probe.slowdown({"start": 1.4, "wall_s": 0.2}) == pytest.approx(1.5)


def test_probe_samples_while_running_and_stops(tmp_path):
    with run.Probe(min(os.sched_getaffinity(0)), tmp_path / "samples.json") as probe:
        proc = probe.proc
    assert proc.poll() is not None
    assert probe.samples and all(seconds > 0 for _, seconds in probe.samples)


# the run contract -----------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def _copy_benchmark(tmp_path, with_source: bool):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    if with_source:
        shutil.copytree(run.SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd, workload: str = "tau-sweep") -> subprocess.CompletedProcess:
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"]
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=180)


def test_run_without_the_program_exits_nonzero_without_a_result(tmp_path):
    _copy_benchmark(tmp_path, with_source=False)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_reports_every_metric_and_fails_on_a_changed_golden(tmp_path):
    _copy_benchmark(tmp_path, with_source=True)
    proc = _run(tmp_path, "s-sweep")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == run.END_TO_END_UNITS
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in summary["metrics"].values())
    assert "error_rate" in proc.stdout

    golden = tmp_path / "perfbench" / "golden" / WORKLOADS["s-sweep"].golden
    golden.write_text(golden.read_text().replace("# tau=14.5 ", "# tau=14.6 "))
    proc = _run(tmp_path, "s-sweep")
    assert proc.returncode == 1
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert not summary["correct"] and summary["failed"] == summary["attempted"]
