"""Command-line sweeps, figure-data generation and oracle validation.

Modes:
  tau-sweep     one CSV row of diagnostics per interaction time
  s-sweep       one row per squeeze parameter at fixed interaction time
  single-point  a single row at --tau
  oracle-check  closed forms against brute-force evolution on a fixed grid

The three sweep modes are one path, `run_sweep`: each is a (tau, s) grid,
with one s, one tau or one of each, evaluated as closed form -> the
kernel's element entry -> CSV, so a sweep never assembles a dense 8x8
state.  `SweepConfig` holds every default; the parser makes one flag per
field from there, with the field's default and type.

CSV output carries a '#' header block recording the full configuration and
uses 12-significant-digit formatting, so identical configurations produce
byte-identical files on one machine at one BLAS thread count.  The BLAS
may round differently at another thread count; the sweeps and oracle
checks that `.github/workflows/tests.yml` runs give the same bytes at one
thread and at the default count.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import product
from typing import NamedTuple

import numpy as np

from .entanglement import QubitLabel, _element_batch
from .fock_field import (
    require_nonnegative_number,
    require_number,
    require_photon_number,
    require_theta,
    truncation_deficits,
)
from .oracle import compare_states, full_evolution_grid
from .tavis_cummings import _populations, closed_form_grid, states_from_elements

__all__ = [
    "SweepConfig",
    "COLUMNS",
    "MODES",
    "run_sweep",
    "run_oracle_check",
    "ORACLE_CHECK_TAUS",
    "ORACLE_CHECK_SQUEEZES",
    "ORACLE_CHECK_THETAS",
    "main",
]

COLUMNS = [
    "tau",
    "s",
    "P1",
    "P2",
    "P3",
    "P4",
    "P5",
    "P6",
    "P7",
    "P8",
    "N_G_B",
    "N_G_B_analytic",
    "N_PSDG_B",
    "N_PSDG_A1",
    "E3_B",
    "E_PSD_B_BA1",
    "E_PSD_A1_A1A2",
    "E_PSD_A1_A1B",
    "S_lin_B",
    "F_W1",
    "bell_projection",
    "truncation_deficit",
]

MODES = ("tau-sweep", "s-sweep", "single-point", "oracle-check")

ORACLE_CHECK_TAUS = (0.3, 0.8, 2.0, 14.5)
ORACLE_CHECK_SQUEEZES = (0.3, 0.6, 0.9)
ORACLE_CHECK_THETAS = (math.pi / 3.0, math.pi / 2.0, math.pi)
# Largest --oracle-n-max: the sweeps' production truncation.  The 36-point
# check takes about 0.027 s of CPU and 36 MB of VmHWM there, in a fresh
# process (one BLAS thread, one pinned Xeon core).
ORACLE_CHECK_MAX_N_MAX = 80

# Largest --tau-steps and --s-steps.  A sweep holds about 1.6 KB per grid
# point at its peak, mostly the CSV rows and their text: VmHWM 224 MB at
# 100,000 tau steps and 537 MB at 300,000, 232 MB at 100,000 s steps (one
# BLAS thread).  So a sweep at the bound peaks near 1.6 GB, far above the
# default 600 and 200 steps and a 600 x 200 (tau, s) plane, and a count
# too large to allocate is refused by name, not by numpy's allocator.
MAX_SWEEP_STEPS = 1_000_000

# Largest --n-max, in every mode.  The closed form's dense field factors
# take about 39 bytes per n_max squared: `--mode tau-sweep --theta pi/2
# --tau-steps 3` peaks at VmHWM 656 MB and 1.5 s of CPU at n_max 4,000,
# 821 MB at 4,500 and 1,008 MB at 5,000 (fresh process, one BLAS thread).
# The bound keeps 1e-12 of the norm up to s = 3 (n_max 2,786), and a larger
# n_max is refused by name, not by numpy's allocator.
MAX_N_MAX = 4_000

# A sweep that drops more norm than this to the Fock truncation (the oracle
# tolerance) prints a warning to stderr; the CSV itself is unchanged.
TRUNCATION_WARNING = 1e-8


class _SweepConfigFields(NamedTuple):
    mode: str = "tau-sweep"
    s: float = 1.2
    theta: float = math.pi
    n_max: int = 80
    tau_start: float = 0.0
    tau_end: float = 20.0
    tau_steps: int = 600
    s_start: float = 0.0
    s_end: float = 2.0
    s_steps: int = 200
    tau: float = 14.5
    out: str = "-"
    oracle_n_max: int = 40
    tolerance: float = 1e-8


class SweepConfig(_SweepConfigFields):
    """Every setting of one command-line run, with the parser's defaults.

    A named tuple: construction, ``_make`` and ``_replace`` all refuse a bad
    value by name.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        if config.mode not in MODES:
            raise ValueError(f"unknown mode {config.mode!r}")
        for name in ("tau_steps", "s_steps"):
            steps = getattr(config, name)
            if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
                raise ValueError(f"{name} must be a positive integer, got {steps!r}")
            if steps > MAX_SWEEP_STEPS:
                raise ValueError(f"{name} must be <= {MAX_SWEEP_STEPS}, got {steps}")
        require_nonnegative_number("squeeze parameter s", config.s)
        for name in ("tau", "tau_start", "tau_end", "s_start", "s_end"):
            require_nonnegative_number(name, getattr(config, name))
        for axis in ("tau", "s"):
            start, end = getattr(config, f"{axis}_start"), getattr(config, f"{axis}_end")
            steps = getattr(config, f"{axis}_steps")
            if end < start:
                raise ValueError(
                    f"{axis}_end must be >= {axis}_start, got {axis}_start={start} {axis}_end={end}"
                )
            # `_grid` multiplies the span by each step index before it divides
            if not math.isfinite((float(end) - float(start)) * (int(steps) - 1)):
                raise ValueError(
                    f"{axis}_end must keep ({axis}_end - {axis}_start) * ({axis}_steps - 1) finite, "
                    f"got {axis}_start={start} {axis}_end={end} {axis}_steps={steps}"
                )
        require_theta(config.theta)
        require_photon_number("n_max", config.n_max)
        if config.n_max > MAX_N_MAX:
            raise ValueError(f"n_max must be <= {MAX_N_MAX}, got {config.n_max}")
        require_photon_number("oracle_n_max", config.oracle_n_max)
        tolerance = require_number("tolerance", config.tolerance, "> 0")
        if not (math.isfinite(tolerance) and tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
        return config

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, builds the tuple without __new__
        return cls(*iterable)


# Every number the CSVs and oracle-check reports print: 12 significant digits.
_CELL = "%.12g"


def _fmt(value: float) -> str:
    return _CELL % (value + 0.0)  # + 0.0 turns IEEE negative zero into plain 0


def _grid(start: float, end: float, steps: int) -> np.ndarray:
    """``steps`` points from ``start`` to ``end``, ``start + i * (end - start) / (steps - 1)``, as one array."""
    if steps == 1:
        return np.array([start], dtype=float)
    return start + np.arange(steps) * (end - start) / (steps - 1)


def _warn_truncation(deficits: np.ndarray, squeezes: np.ndarray, n_max: int) -> None:
    worst = int(np.argmax(deficits))
    if deficits[worst] > TRUNCATION_WARNING:
        print(
            f"warning: n_max={n_max} truncation drops {deficits[worst]:.3g} of the norm "
            f"at s={_fmt(squeezes[worst])} (above {TRUNCATION_WARNING:g}); raise --n-max",
            file=sys.stderr,
        )


# One CSV row: `_CELL` for every column.
_ROW_FORMAT = ",".join([_CELL] * len(COLUMNS))


def _csv_text(cfg: SweepConfig, header_extra: list[str], rows: np.ndarray) -> str:
    lines = [
        "# cavity3q sweep",
        f"# mode={cfg.mode} s={_fmt(cfg.s)} theta={_fmt(cfg.theta)} n_max={cfg.n_max}",
        *header_extra,
        "# columns: " + ",".join(COLUMNS),
        ",".join(COLUMNS),
    ]
    # the whole body in one %-format call; + 0.0 turns IEEE negative zero
    # into plain 0, as in `_fmt`
    body = ((_ROW_FORMAT + "\n") * len(rows)) % tuple((rows + 0.0).ravel().tolist())
    return "\n".join(lines) + "\n" + body


def _sweep_axes(cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray, str]:
    """The (taus, squeezes) grid of a sweep mode and the header line that records it."""
    if cfg.mode == "tau-sweep":
        taus = _grid(cfg.tau_start, cfg.tau_end, cfg.tau_steps)
        span = f"tau_start={_fmt(cfg.tau_start)} tau_end={_fmt(cfg.tau_end)}"
        return taus, _grid(cfg.s, cfg.s, 1), f"# {span} tau_steps={cfg.tau_steps}"
    if cfg.mode == "s-sweep":
        squeezes = _grid(cfg.s_start, cfg.s_end, cfg.s_steps)
        span = f"s_start={_fmt(cfg.s_start)} s_end={_fmt(cfg.s_end)} s_steps={cfg.s_steps}"
        return _grid(cfg.tau, cfg.tau, 1), squeezes, f"# tau={_fmt(cfg.tau)} {span}"
    return _grid(cfg.tau, cfg.tau, 1), _grid(cfg.s, cfg.s, 1), f"# tau={_fmt(cfg.tau)}"


def run_sweep(cfg: SweepConfig) -> str:
    """The CSV of a sweep mode: one row per (tau, s) point of its grid, tau outer.

    Every mode is a (tau, s) grid: a tau-sweep has one s, an s-sweep one tau
    and a single point one of each.  The eight elements of every point come
    from one `closed_form_grid` call, and every column is read from them:
    the populations through the slot table (`tavis_cummings._populations`)
    and the diagnostics from one call of the kernel's element entry
    (`entanglement._element_batch`), so no dense 8x8 state is assembled or
    checked.  The CSV holds the global negativities of B only, which the
    kernel takes in closed form, so no transpose is eigensolved.
    """
    taus, squeezes, extra = _sweep_axes(cfg)
    elements = closed_form_grid(taus, squeezes, cfg.theta, cfg.n_max).reshape(-1, 8)
    deficits = truncation_deficits(squeezes, cfg.n_max)
    _warn_truncation(deficits, squeezes, cfg.n_max)
    B, A1 = QubitLabel.B, QubitLabel.A1
    batch = _element_batch(elements)
    columns = [
        np.repeat(taus, len(squeezes)),
        np.tile(squeezes, len(taus)),
        *_populations(elements).T,
        batch.n_g[B],
        batch.n_g[B],  # N_G_B_analytic: kept until the committed golden CSVs drop the column
        batch.n_psdg[B],
        batch.n_psdg[A1],
        batch.e_3[B],
        batch.e_psd["B-BA1"],
        batch.e_psd["A1-A1A2"],
        batch.e_psd["A1-A1B"],
        batch.linear_entropy_b,
        batch.w1_fidelity,
        batch.bell_projection,
        np.tile(deficits, len(taus)),
    ]
    return _csv_text(cfg, [extra], np.column_stack(columns))


def run_oracle_check(cfg: SweepConfig) -> tuple[str, int]:
    """Closed form versus brute force on the fixed validation grid.

    The brute-force states of every angle come from one
    `full_evolution_grid` call, so each cavity's propagators are built
    once; the closed-form states of each angle from one `closed_form_grid`
    call.  Rows follow theta, then s, then tau.  Returns the report text
    and an exit status (0 all within tolerance, 1 otherwise).
    """
    if cfg.oracle_n_max > ORACLE_CHECK_MAX_N_MAX:
        raise ValueError(
            f"oracle_n_max must be <= {ORACLE_CHECK_MAX_N_MAX} for oracle-check, "
            f"got {cfg.oracle_n_max}"
        )
    lines = [
        "# cavity3q oracle-check",
        f"# n_max={cfg.oracle_n_max} tolerance={_fmt(cfg.tolerance)}",
        "# tau s theta max_abs_diff status",
    ]
    failures = []
    worst = 0.0
    grid = (ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES)
    oracle_states = full_evolution_grid(*grid, ORACLE_CHECK_THETAS, cfg.oracle_n_max)
    for theta, references in zip(ORACLE_CHECK_THETAS, oracle_states):
        closed_states = states_from_elements(closed_form_grid(*grid, theta, cfg.oracle_n_max))
        points = product(enumerate(ORACLE_CHECK_SQUEEZES), enumerate(ORACLE_CHECK_TAUS))
        for (s_index, s), (tau_index, tau) in points:
            closed, reference = closed_states[tau_index, s_index], references[tau_index, s_index]
            report = compare_states(closed, reference)
            ok = report.max_abs_diff < cfg.tolerance
            worst = max(worst, report.max_abs_diff)
            status = "ok" if ok else "FAIL"
            lines.append(f"{_fmt(tau)} {_fmt(s)} {_fmt(theta)} {_fmt(report.max_abs_diff)} {status}")
            # the worst entry of a point out of tolerance, then every entry off the pattern
            flagged = [] if ok else [("DISCREPANCY", *report.worst_entry)]
            flagged += [("PATTERN", i, j) for i, j, _, _ in report.pattern_violations]
            for kind, i, j in flagged:
                failures.append(
                    f"# {kind} tau={_fmt(tau)} s={_fmt(s)} theta={_fmt(theta)} entry=[{i},{j}] "
                    f"closed={_CELL % closed[i, j]} reference={_CELL % reference[i, j]}"
                )
    lines.extend(failures)
    status = 0 if not failures else 1
    lines.append(f"# result: {'PASS' if status == 0 else 'FAIL'} max_abs_diff={_fmt(worst)}")
    return "\n".join(lines) + "\n", status


# The flags' help texts; every other flag is its `SweepConfig` field alone.
_FLAG_HELP = {
    "s": "squeeze parameter",
    "theta": "beam-splitter angle, radians",
    "n_max": "Fock truncation",
    "tau": "interaction time for s-sweep/single-point",
    "out": "output path, '-' for stdout",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity3q",
        description="Entanglement diagnostics for three cavity qubits driven by squeezed light.",
    )
    for name, default in SweepConfig._field_defaults.items():
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=type(default),
            default=default,
            choices=MODES if name == "mode" else None,
            help=_FLAG_HELP.get(name),
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = SweepConfig(**vars(args))
        if cfg.mode == "oracle-check":
            text, status = run_oracle_check(cfg)
        else:
            text, status = run_sweep(cfg), 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if cfg.out == "-":
            sys.stdout.write(text)
        else:
            with open(cfg.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
