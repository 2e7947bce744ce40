"""The benchmark's workloads and how a seed turns into CLI arguments.

At the canonical seed each workload is exactly the CLI invocation listed in
``argv``.  Any other seed shifts a sweep's grid by a seeded fraction of one
grid step (same point count, same spacing) and picks which rows the oracle
spot check re-evaluates.  The oracle-check grid is fixed inside the program,
so its seed is recorded but changes nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CANONICAL_SEED = 0
SPOT_CHECK_ROWS = 2


@dataclass(frozen=True)
class Grid:
    """The swept axis of a sweep: ``steps`` points from ``start`` to ``end``."""

    axis: str  # "tau" or "s"
    start: float
    end: float
    steps: int

    def values(self) -> list[float]:
        return [self.start + i * (self.end - self.start) / (self.steps - 1) for i in range(self.steps)]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    golden: str  # file name under perfbench/golden
    grid: Grid | None = None  # None for oracle-check
    # CLI defaults the arguments leave in force, used by the oracle spot check
    s: float = 1.2
    theta: float = math.pi
    n_max: int = 80
    tau: float = 14.5


@dataclass(frozen=True)
class Invocation:
    argv: list[str]
    grid: Grid | None
    spot_rows: list[int]  # row indices re-evaluated against the oracle
    canonical: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tau-sweep", ("--mode", "tau-sweep"), "tau-sweep.csv", Grid("tau", 0.0, 20.0, 600)),
        Workload(
            "s-sweep",
            ("--mode", "s-sweep", "--tau", "14.5", "--s-steps", "200"),
            "s-sweep.csv",
            Grid("s", 0.0, 2.0, 200),
        ),
        Workload(
            "oracle-check",
            ("--mode", "oracle-check", "--oracle-n-max", "40", "--tolerance", "1e-8"),
            "oracle-check.txt",
        ),
        Workload(
            "tau-sweep-dense",
            ("--mode", "tau-sweep", "--theta", "1.5707963267948966"),
            "tau-sweep-dense.csv",
            Grid("tau", 0.0, 20.0, 600),
            theta=1.5707963267948966,
        ),
    )
}


def invocation(workload: Workload, seed: int) -> Invocation:
    """CLI arguments, grid and spot-check rows of ``workload`` at ``seed``."""
    canonical = seed == CANONICAL_SEED
    argv = list(workload.argv)
    grid = workload.grid
    if grid is None:
        return Invocation(argv, None, [], canonical)
    rng = random.Random(seed)
    fraction = rng.random()
    if not canonical:
        offset = fraction * (grid.end - grid.start) / (grid.steps - 1)
        grid = Grid(grid.axis, grid.start + offset, grid.end + offset, grid.steps)
        argv += [f"--{grid.axis}-start", repr(grid.start), f"--{grid.axis}-end", repr(grid.end)]
    return Invocation(argv, grid, sorted(rng.sample(range(grid.steps), SPOT_CHECK_ROWS)), canonical)
