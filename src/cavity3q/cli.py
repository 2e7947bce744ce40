"""Command-line sweeps, figure-data generation and oracle validation.

Modes:
  tau-sweep     one CSV row of diagnostics per interaction time
  s-sweep       one row per squeeze parameter at fixed interaction time
  single-point  a single row at --tau
  oracle-check  closed forms against brute-force evolution on a fixed grid

The three sweep modes are one path, `run_sweep`: each is a (tau, s) grid,
with one s, one tau or one of each.  `SweepConfig` holds every default; the
parser takes its defaults from there.

CSV output carries a '#' header block recording the full configuration and
uses 12-significant-digit formatting, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .entanglement import QubitLabel, negativity_batch
from .fock_field import (
    require_nonnegative_number,
    require_number,
    require_photon_number,
    require_theta,
    truncation_deficits,
)
from .oracle import compare_states, full_evolution_grid
from .tavis_cummings import closed_form_grid, diagonal_probabilities, states_from_elements

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
# check takes about 0.05 s of CPU and 43 MB of VmHWM there, in a fresh
# process (one BLAS thread, one pinned Xeon core).
ORACLE_CHECK_MAX_N_MAX = 80

# A sweep that drops more norm than this to the Fock truncation (the oracle
# tolerance) prints a warning to stderr; the CSV itself is unchanged.
TRUNCATION_WARNING = 1e-8


@dataclass(frozen=True)
class SweepConfig:
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

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("tau_steps", "s_steps"):
            steps = getattr(self, name)
            if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
                raise ValueError(f"{name} must be a positive integer, got {steps!r}")
        require_nonnegative_number("squeeze parameter s", self.s)
        for name in ("tau", "tau_start", "tau_end", "s_start", "s_end"):
            require_nonnegative_number(name, getattr(self, name))
        if self.tau_end < self.tau_start or self.s_end < self.s_start:
            raise ValueError("sweep ranges must be non-empty")
        require_theta(self.theta)
        require_photon_number("n_max", self.n_max)
        require_photon_number("oracle_n_max", self.oracle_n_max)
        tolerance = require_number("tolerance", self.tolerance, "> 0")
        if not (math.isfinite(tolerance) and tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def _fmt(value: float) -> str:
    return f"{value + 0.0:.12g}"  # + 0.0 turns IEEE negative zero into plain 0


def _grid(start: float, end: float, steps: int) -> list[float]:
    if steps == 1:
        return [start]
    return [start + i * (end - start) / (steps - 1) for i in range(steps)]


def _warn_truncation(deficits: np.ndarray, squeezes: list[float], n_max: int) -> None:
    worst = int(np.argmax(deficits))
    if deficits[worst] > TRUNCATION_WARNING:
        print(
            f"warning: n_max={n_max} truncation drops {deficits[worst]:.3g} of the norm "
            f"at s={_fmt(squeezes[worst])} (above {TRUNCATION_WARNING:g}); raise --n-max",
            file=sys.stderr,
        )


# One CSV row: `_fmt` for every cell, as a single %-format call per row
# (printf-style "%.12g" renders a float exactly as "{:.12g}" does, and faster).
_ROW_FORMAT = ",".join(["%.12g"] * len(COLUMNS))


def _csv_text(cfg: SweepConfig, header_extra: list[str], rows: np.ndarray) -> str:
    lines = [
        "# cavity3q sweep",
        f"# mode={cfg.mode} s={_fmt(cfg.s)} theta={_fmt(cfg.theta)} n_max={cfg.n_max}",
        *header_extra,
        "# columns: " + ",".join(COLUMNS),
        ",".join(COLUMNS),
    ]
    # + 0.0 turns IEEE negative zero into plain 0, as in `_fmt`
    lines.extend(_ROW_FORMAT % tuple(row) for row in (rows + 0.0).tolist())
    return "\n".join(lines) + "\n"


def _sweep_axes(cfg: SweepConfig) -> tuple[list[float], list[float], str]:
    """The (taus, squeezes) grid of a sweep mode and the header line that records it."""
    if cfg.mode == "tau-sweep":
        taus = _grid(cfg.tau_start, cfg.tau_end, cfg.tau_steps)
        span = f"tau_start={_fmt(cfg.tau_start)} tau_end={_fmt(cfg.tau_end)}"
        return taus, [cfg.s], f"# {span} tau_steps={cfg.tau_steps}"
    if cfg.mode == "s-sweep":
        squeezes = _grid(cfg.s_start, cfg.s_end, cfg.s_steps)
        span = f"s_start={_fmt(cfg.s_start)} s_end={_fmt(cfg.s_end)} s_steps={cfg.s_steps}"
        return [cfg.tau], squeezes, f"# tau={_fmt(cfg.tau)} {span}"
    return [cfg.tau], [cfg.s], f"# tau={_fmt(cfg.tau)}"


def run_sweep(cfg: SweepConfig) -> str:
    """The CSV of a sweep mode: one row per (tau, s) point of its grid, tau outer.

    Every mode is a (tau, s) grid: a tau-sweep has one s, an s-sweep one tau
    and a single point one of each.  The states come from one
    `closed_form_grid` call and their diagnostics from one kernel call.  The
    CSV holds the global negativities of B only, so only B's global
    transposes are solved.
    """
    taus, squeezes, extra = _sweep_axes(cfg)
    elements = closed_form_grid(taus, squeezes, cfg.theta, cfg.n_max).reshape(-1, 8)
    states = states_from_elements(elements)
    deficits = truncation_deficits(squeezes, cfg.n_max)
    _warn_truncation(deficits, squeezes, cfg.n_max)
    B, A1 = QubitLabel.B, QubitLabel.A1
    batch = negativity_batch(states, global_qubits=(B,))
    columns = [
        np.repeat(taus, len(squeezes)),
        np.tile(squeezes, len(taus)),
        *diagonal_probabilities(states).T,
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
        raise ValueError(f"oracle-check is limited to n_max <= {ORACLE_CHECK_MAX_N_MAX}")
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
        for s_index, s in enumerate(ORACLE_CHECK_SQUEEZES):
            for tau_index, tau in enumerate(ORACLE_CHECK_TAUS):
                closed = closed_states[tau_index, s_index]
                reference = references[tau_index, s_index]
                report = compare_states(closed, reference)
                ok = report.max_abs_diff < cfg.tolerance
                worst = max(worst, report.max_abs_diff)
                status = "ok" if ok else "FAIL"
                lines.append(
                    f"{_fmt(tau)} {_fmt(s)} {_fmt(theta)} {_fmt(report.max_abs_diff)} {status}"
                )
                if not ok:
                    i, j = report.worst_entry
                    failures.append(
                        f"# DISCREPANCY tau={_fmt(tau)} s={_fmt(s)} theta={_fmt(theta)} "
                        f"entry=[{i},{j}] closed={closed[i, j]:.12g} "
                        f"reference={reference[i, j]:.12g}"
                    )
                for i, j, _, _ in report.pattern_violations:
                    failures.append(
                        f"# PATTERN tau={_fmt(tau)} s={_fmt(s)} theta={_fmt(theta)} "
                        f"entry=[{i},{j}] closed={closed[i, j]:.12g} "
                        f"reference={reference[i, j]:.12g}"
                    )
    lines.extend(failures)
    status = 0 if not failures else 1
    lines.append(f"# result: {'PASS' if status == 0 else 'FAIL'} max_abs_diff={_fmt(worst)}")
    return "\n".join(lines) + "\n", status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity3q",
        description="Entanglement diagnostics for three cavity qubits driven by squeezed light.",
    )
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--s", type=float, help="squeeze parameter")
    parser.add_argument("--theta", type=float, help="beam-splitter angle, radians")
    parser.add_argument("--n-max", type=int, help="Fock truncation")
    parser.add_argument("--tau-start", type=float)
    parser.add_argument("--tau-end", type=float)
    parser.add_argument("--tau-steps", type=int)
    parser.add_argument("--s-start", type=float)
    parser.add_argument("--s-end", type=float)
    parser.add_argument("--s-steps", type=int)
    parser.add_argument("--tau", type=float, help="interaction time for s-sweep/single-point")
    parser.add_argument("--out", help="output path, '-' for stdout")
    parser.add_argument("--oracle-n-max", type=int)
    parser.add_argument("--tolerance", type=float)
    parser.set_defaults(**{f.name: f.default for f in fields(SweepConfig)})
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
