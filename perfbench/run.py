"""Closed-loop benchmark of the cavity3q command line.

    python3 perfbench/run.py --workload tau-sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the repository root is the parent of this directory and
the package is taken from its ``src``.  One ``cavity3q.cli.main(argv)`` call
runs at a time, each in a fresh child process (``child.py``) pinned to one
CPU with one BLAS thread, until one more call would overrun ``--seconds``.
A contention probe (``probe.py``) samples the speed of that CPU throughout,
so each CPU time can also be given as on an uncontended CPU.  Time the
program spends off the CPU (sleep, I/O, waiting on another process) is
measured too and counted at face value.  Every output
file is checked (``checks.py``); a nonzero exit, an exception or a failed
check counts the call as failed.

``--trace 0`` reports the end-to-end metrics call_s, setup_s and peak_rss_mb
(medians over the run).  ``--trace 1`` alternates untraced and traced calls
(``tracer.py``) and reports the per-layer metrics.  A readable report, with
the raw wall times, error_rate and the run environment, goes to standard
output, followed by one JSON line: correct, attempted, failed and metrics.
A full record, with every sample, is written to ``perfbench/out/``.  The exit
code is 0 only when every call passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckResult, check_oracle_report, check_sweep, spot_check
from workloads import CANONICAL_SEED, WORKLOADS, Invocation, Workload, invocation

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"

# One BLAS thread: the decompositions are 8x8 to a few hundred square, and a
# single thread on a single pinned CPU is what the probe can correct for.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_CHILDREN = 4  # import-only children per run, besides the calls
CHILD_TIMEOUT_S = 60.0
# Probe kernel time on an uncontended CPU of the machine the baseline was
# measured on (Intel Xeon, 2 vCPUs).  Normalised times read as CPU seconds
# at that speed.  Changing it rescales every normalised time.
NOMINAL_PROBE_S = 1.1e-4
MIN_PROBE_SAMPLES = 3
# Share of a window's probe samples kept, fastest first: the slowest tenth
# holds samples stretched by an interrupt or a preemption, not by the CPU.
PROBE_KEEP = 0.9
# The program slows less than the probe: over 236 calls of the four workloads
# on that machine, call CPU time grew as slowdown ** 0.80 to 0.88 (log-log fit
# per workload), so CPU times are divided by slowdown ** SENSITIVITY.  The
# exponent is fitted to the program as it was when the benchmark was written;
# a change of its work mix (interpreted loops turned into batched numpy, say)
# has another true exponent, so two versions measured under different
# contention compare with a bias.  The raw wall and CPU times are recorded
# and reported next to the normalised ones for that reason.
SENSITIVITY = 0.85

END_TO_END_UNITS = {"call_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("cli", "fock_field", "tavis_cummings", "entanglement", "oracle")
COUNTS = ("calls", "errors", "linalg_calls")
TIMES = ("busy_s", "self_s")
PER_LAYER_UNITS = {
    **{f"{layer}.{key}": "count" for layer in LAYERS for key in COUNTS},
    **{f"{layer}.{key}": "s" for layer in LAYERS for key in TIMES},
    # diagnostics, not regression-gated
    "check.golden_max_abs_diff": "abs",
    "check.oracle_max_abs_diff": "abs",
    "trace.overhead_s": "s",
}


class Probe:
    """probe.py on ``cpu`` for the life of a ``with`` block, then its samples."""

    def __init__(self, cpu: int, path: Path) -> None:
        self.cpu, self.path = cpu, path
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> Probe:
        self.path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), str(self.cpu), str(self.path)],
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("contention probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        self.samples = json.loads(self.path.read_text()) if self.path.exists() else []

    def _stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def slowdown(self, window: dict) -> float:
        """Probe time during ``window`` over the nominal one (1.0: uncontended).

        The probe time is the mean of the fastest ``PROBE_KEEP`` of the
        samples taken in the window.
        """
        start, end = window["start"], window["start"] + window["wall_s"]
        inside = [seconds for t, seconds in self.samples if start <= t <= end]
        if len(inside) < MIN_PROBE_SAMPLES:  # a short window: take the nearest samples
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            inside = [seconds for _, seconds in nearest[:MIN_PROBE_SAMPLES]]
        if not inside:
            raise RuntimeError("contention probe recorded no samples")
        kept = sorted(inside)[: max(1, int(len(inside) * PROBE_KEEP))]
        return statistics.fmean(kept) / NOMINAL_PROBE_S


def off_cpu_s(window: dict) -> float:
    """Wall time of a child.py window spent neither on the CPU nor kept off it by contention.

    That is sleep, I/O or waiting on another process; the normalised times
    count it unscaled, so work moved off the CPU cannot read as a gain.
    Steal comes in whole clock ticks, so a window can read up to one tick
    short; it is then taken as 0.
    """
    return max(0.0, window["wall_s"] - window["cpu_s"] - window["run_delay_s"] - window["steal_s"])


def _child(spec: dict) -> tuple[dict | None, str]:
    """Run child.py with ``spec``; return its result (None if it wrote none) and a failure note."""
    result_path = OUT / "child-result.json"
    result_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "result": str(result_path), **spec}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    note = "" if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    if result and result.get("error"):
        note = result["error"].strip().splitlines()[-1]
    return result, note


def _setup(cpu: int) -> dict:
    result, note = _child({"cpu": cpu, "setup_only": True})
    if result is None:
        raise RuntimeError(f"cannot import cavity3q.cli: {note}")
    return result["setup"]


def _invoke(workload: Workload, inv: Invocation, cpu: int, index: int, traced: bool) -> dict:
    out = OUT / f"{workload.name}.out"
    out.unlink(missing_ok=True)
    spans = str(OUT / f"spans-{workload.name}-{index}.csv") if traced else None
    spec = {"cpu": cpu, "argv": inv.argv, "out": str(out), "invocation": index, "spans": spans}
    result, note = _child(spec)
    text = out.read_text() if out.exists() else None
    return {"traced": traced, "result": result, "note": note, "text": text}


def _check(workload: Workload, inv: Invocation, text: str) -> CheckResult:
    golden = (GOLDEN / workload.golden).read_text()
    if inv.grid is None:
        return check_oracle_report(text, golden)
    result = check_sweep(text, golden, inv)
    spot = spot_check(text, workload, inv)
    result.problems += spot.problems
    result.oracle_max_abs_diff = spot.oracle_max_abs_diff
    return result


def _failures(calls: list[dict], check: CheckResult, reference: str | None) -> list[str]:
    """One note per failed call: bad exit, exception, wrong output or unrepeatable counts."""
    notes = []
    first_counts = None
    for index, call in enumerate(calls):
        problem = call["note"]
        if not problem and call["text"] is None:
            problem = "no output file"
        elif not problem and call["text"] != reference:
            problem = "output differs from the first call's"
        elif not problem and not check.ok:
            problem = "; ".join(check.problems)
        if not problem and call["traced"]:
            counts = {k: {c: v[c] for c in COUNTS} for k, v in call["result"]["layers"].items()}
            first_counts = first_counts or counts
            if counts != first_counts:
                problem = "traced call counts differ from the first traced call's"
        if problem:
            notes.append(f"call {index}: {problem}")
    return notes


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else -1.0


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _environment(cpu: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for ``seconds``; return the run's record."""
    inv = invocation(workload, seed)
    cpu = min(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob(f"spans-{workload.name}-*.csv"):
        old.unlink()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    record["argv"] = inv.argv
    record["environment"] = _environment(cpu)
    record["loadavg_before"] = _loadavg()

    with Probe(cpu, OUT / "probe-samples.json") as probe:
        _setup(cpu)  # warm-up: byte-compiles and pages in the imports, not recorded
        setups = [_setup(cpu) for _ in range(SETUP_CHILDREN)]
        calls: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(calls) % 2 == 1
            began = time.perf_counter()
            calls.append(_invoke(workload, inv, cpu, len(calls), traced))
            took = time.perf_counter() - began
            kinds = {call["traced"] for call in calls}
            if len(kinds) == 1 + trace and time.perf_counter() - start + took > seconds:
                break
        record["measured_s"] = time.perf_counter() - start
    record["loadavg_after"] = _loadavg()

    reference = next((c["text"] for c in calls if c["text"] is not None and not c["note"]), None)
    check = _check(workload, inv, reference) if reference is not None else CheckResult(["no output"])
    failures = _failures(calls, check, reference)
    record.update(attempted=len(calls), failed=len(failures), failures=failures)
    record["check"] = {
        "problems": check.problems,
        "golden_max_abs_diff": check.golden_max_abs_diff,
        "oracle_max_abs_diff": check.oracle_max_abs_diff,
    }

    def norm(window: dict) -> float:
        return window["cpu_s"] / probe.slowdown(window) ** SENSITIVITY + off_cpu_s(window)

    measured = [c for c in calls if c["result"] and "call" in c["result"]]
    untraced = [c["result"] for c in measured if not c["traced"]]
    traced_results = [c["result"] for c in measured if c["traced"]]
    setups += [c["result"]["setup"] for c in calls if c["result"]]
    record["samples"] = {
        "call_s": [norm(r["call"]) for r in untraced],
        "setup_s": [norm(window) for window in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "wall_s": [r["call"]["wall_s"] for r in untraced],
        "cpu_s": [r["call"]["cpu_s"] for r in untraced],
        "off_cpu_s": [off_cpu_s(r["call"]) for r in untraced],
        "setup_wall_s": [window["wall_s"] for window in setups],
        "slowdown": [probe.slowdown(r["call"]) for r in untraced],
    }
    if not trace:
        record["metrics"] = {
            name: {"value": _median(record["samples"][name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        return record

    record["samples"]["traced_call_s"] = [norm(r["call"]) for r in traced_results]
    values = {}
    for layer in LAYERS:
        for key in COUNTS:
            first = traced_results[0]["layers"].get(layer, {}) if traced_results else {}
            values[f"{layer}.{key}"] = first.get(key, 0) if traced_results else -1
        for key in TIMES:
            # layer times are wall-clock spans, scaled like call_s
            scaled = [
                r["layers"].get(layer, {}).get(key, 0.0) / probe.slowdown(r["call"]) ** SENSITIVITY
                for r in traced_results
            ]
            values[f"{layer}.{key}"] = _median(scaled)
    values["check.golden_max_abs_diff"] = check.golden_max_abs_diff
    values["check.oracle_max_abs_diff"] = check.oracle_max_abs_diff
    values["trace.overhead_s"] = _median(record["samples"]["traced_call_s"]) - _median(record["samples"]["call_s"])
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    record["function_calls"] = traced_results[0]["calls"] if traced_results else {}
    return record


# Reported with the metrics but not gated: raw times and the probe's slowdown.
_INFORMATIVE_UNITS = {"wall_s": "s", "cpu_s": "s", "off_cpu_s": "s", "setup_wall_s": "s", "slowdown": "1"}


def _report(record: dict) -> None:
    """Readable summary of one run on standard output."""
    print(
        f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
        f"{record['attempted']} calls in {record['measured_s']:.1f} s"
    )
    extra = {"call_s": "s", "traced_call_s": "s"} if record["trace"] else {}
    rows = dict(record["metrics"])
    for name, unit in {**extra, **_INFORMATIVE_UNITS}.items():
        rows[name] = {"value": _median(record["samples"][name]), "unit": unit}
    for name, metric in rows.items():
        line = f"  {name:28s} {metric['value']:<14.6g} {metric['unit']}"
        values = record["samples"].get(name)
        if values:
            q1, _, q3 = _quartiles(values)
            line += f"   (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':28s} {rate:<14.6g} 1   ({record['failed']} of {record['attempted']} calls failed)")
    for note in record["failures"]:
        print(f"  FAILED {note}")
    print(f"  environment {json.dumps(record['environment'])}")
    print(f"  loadavg before {record['loadavg_before']!r} after {record['loadavg_after']!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the probe and any child are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cavity3q" / "cli.py").is_file():
        print(f"error: no cavity3q source under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)  # children reuse cached bytecode, as an installed CLI does
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        (OUT / f"record-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        _report(record)
        records.append(record)
    prefix = len(records) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): metric
            for r in records
            for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
