"""Contention probe: a fixed kernel timed again and again on one CPU.

    python3 perfbench/probe.py <cpu> <samples.json>

The benchmark pins its children to the same CPU and runs this process next
to them.  On a shared host the CPU's speed changes from second to second with
what other tenants run on the same physical core; the probe samples that
speed during each measured call, so the call's CPU time can be scaled to an
uncontended CPU.

Every ``PERIOD_S`` the probe wakes and runs ``kernel`` (about 0.1 ms) twice,
2 to 3% of the CPU in all.  The first run refills the caches the child
evicted; only the second is timed, so a sample does not depend on how much
memory the program under test touches.  The kernel mixes the kinds of work
cavity3q does (interpreted loops over tuples, small-array numpy, an 8x8
Hermitian eigensolver and a complex matrix product) but shares no code with
it, so a change to the program does not change the probe.

After its first sample the probe prints ``ready``.  On SIGTERM, or when its
parent process is gone, it writes the samples, a JSON list of [start, seconds] pairs on the ``time.perf_counter``
clock, and exits.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.008
_SMALL = np.arange(64.0).reshape(8, 8) / 64.0
_HERMITIAN = (_SMALL + _SMALL.T) * (1.0 + 0.5j) + np.diag(np.arange(8.0))
_HERMITIAN = (_HERMITIAN + _HERMITIAN.conj().T) / 2.0
_DENSE = np.exp(1j * np.arange(48 * 48, dtype=float).reshape(48, 48) / 97.0)


def kernel() -> float:
    acc = 0.0
    terms = []
    for n in range(24):
        weight = math.tanh(0.7) ** n / math.cosh(0.7)
        for k in range(4):
            terms.append((n, k, weight * math.sqrt(k + 1.0)))
    acc += math.fsum(t[2] for t in terms)
    for i in range(6):
        block = _SMALL * (1.0 + 1e-3 * i)
        acc += float(np.sum(block * block.T)) + float(np.abs(np.trace(block @ block)))
    acc += float(np.linalg.eigh(_HERMITIAN)[0][0])
    acc += float(np.abs(_DENSE @ _DENSE).sum())
    return acc


def main() -> int:
    cpu, out = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    stop: list[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    parent = os.getppid()
    while not stop and os.getppid() == parent:  # also stop if the benchmark died
        kernel()
        start = time.perf_counter()
        kernel()
        samples.append((start, time.perf_counter() - start))
        if len(samples) == 1:
            print("ready", flush=True)
        time.sleep(PERIOD_S)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
