"""One cavity3q CLI invocation in a fresh process, timed from before the import.

    python3 perfbench/child.py '<json spec>'

Spec keys: ``src`` (directory holding the cavity3q package), ``cpu`` (the
CPU to pin this process to), ``result`` (path of the JSON result to write),
and unless ``setup_only`` is true, ``argv`` (CLI arguments), ``out`` (output
path handed to ``--out``), ``invocation`` (an id) and ``spans`` (span file
path when the call is traced, else null).

The result holds ``setup`` (import of cavity3q.cli until main is callable)
and, for a full invocation, ``call`` (main(argv) from call to return), each
a window (see `_Clock`); ``peak_rss_mb`` (peak resident set after the call),
the exit ``status``, any ``error`` traceback and, when traced, per-layer
``layers`` metrics and per-function ``calls``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _peak_rss_mb() -> float:
    """This process's peak resident set, from VmHWM.

    ``ru_maxrss`` is not used: Linux carries the forking parent's high-water
    mark across exec into it, so it can report the benchmark's memory, not
    the child's.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class _Clock:
    """Where the wall time of a window went, from the kernel's own accounting.

    A window is {"start", "wall_s", "cpu_s", "run_delay_s", "steal_s"}:
    ``start`` and ``wall_s`` on the ``time.perf_counter`` clock; ``cpu_s``
    the CPU time of this process and of the child processes it reaped;
    ``run_delay_s`` the time this thread waited on the run queue behind other
    tasks; ``steal_s`` the time the hypervisor took the pinned CPU away
    (whole clock ticks of /proc/stat).  What is left of ``wall_s`` is time
    off the CPU: sleep, I/O or waiting on another process.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.start = self._now()

    def _now(self) -> tuple[float, float, float, float]:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open("/proc/thread-self/schedstat", encoding="ascii") as handle:
            run_delay = int(handle.read().split()[1]) / 1e9
        with open("/proc/stat", encoding="ascii") as handle:
            line = next(line for line in handle if line.startswith(f"cpu{self.cpu} "))
        steal = int(line.split()[8]) / _CLOCK_TICKS
        cpu = time.process_time() + children.ru_utime + children.ru_stime
        return time.perf_counter(), cpu, run_delay, steal

    def window(self) -> dict:
        wall, cpu, run_delay, steal = (b - a for a, b in zip(self.start, self._now()))
        return {"start": self.start[0], "wall_s": wall, "cpu_s": cpu, "run_delay_s": run_delay, "steal_s": steal}


def _invoke(cli, spec: dict) -> dict:
    tracer = None
    if spec["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    status, error = None, None
    clock = _Clock(spec["cpu"])
    try:
        status = cli.main([*spec["argv"], "--out", spec["out"]])
    except SystemExit as exc:
        status = exc.code
    except Exception:
        error = traceback.format_exc()
    out = {
        "call": clock.window(),
        "status": status,
        "error": error,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["calls"] = dict(sorted(tracer.calls.items()))
        tracer.write_spans(spec["spans"], spec["invocation"])
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, spec["src"])
    clock = _Clock(spec["cpu"])
    import cavity3q.cli as cli

    result = {"setup": clock.window()}
    if not spec.get("setup_only"):
        result.update(_invoke(cli, spec))
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if result.get("status", 0) == 0 and not result.get("error") else 1


if __name__ == "__main__":
    sys.exit(main())
