"""Command-line sweeps, figure-data generation and oracle validation.

Modes:
  tau-sweep     one CSV row of diagnostics per interaction time
  s-sweep       one row per squeeze parameter at fixed interaction time
  single-point  a single row at --tau
  oracle-check  closed forms against brute-force evolution on a fixed grid

CSV output carries a '#' header block recording the full configuration and
uses 12-significant-digit formatting, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .entanglement import QubitLabel, negativity_batch
from .fock_field import (
    require_finite_nonnegative,
    require_photon_number,
    require_theta,
    truncation_deficits,
)
from .oracle import compare_states, full_evolution_grid
from .tavis_cummings import (
    ThreeQubitDensityMatrix,
    closed_form_grid,
    diagonal_probabilities,
    states_from_elements,
)

__all__ = [
    "SweepConfig",
    "COLUMNS",
    "evaluate_point",
    "run_tau_sweep",
    "run_s_sweep",
    "run_single_point",
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

ORACLE_CHECK_TAUS = (0.3, 0.8, 2.0, 14.5)
ORACLE_CHECK_SQUEEZES = (0.3, 0.6, 0.9)
ORACLE_CHECK_THETAS = (math.pi / 3.0, math.pi / 2.0, math.pi)
# Largest --oracle-n-max: the sweeps' production truncation.  The 36-point
# check takes about 0.16 s of CPU and 60 MB there (one BLAS thread, one
# pinned CPU; the cached beam-splitter eigensystems are 4.3 MB of it).
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
        if self.mode not in ("tau-sweep", "s-sweep", "single-point", "oracle-check"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("tau_steps", "s_steps"):
            steps = getattr(self, name)
            if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
                raise ValueError(f"{name} must be a positive integer, got {steps!r}")
        require_finite_nonnegative("squeeze parameter s", self.s)
        for name in ("tau", "tau_start", "tau_end", "s_start", "s_end"):
            require_finite_nonnegative(name, getattr(self, name))
        if self.tau_end < self.tau_start or self.s_end < self.s_start:
            raise ValueError("sweep ranges must be non-empty")
        require_theta(self.theta)
        require_photon_number("oracle_n_max", self.oracle_n_max)
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


def _fmt(value: float) -> str:
    return f"{value + 0.0:.12g}"  # + 0.0 turns IEEE negative zero into plain 0


def _grid(start: float, end: float, steps: int) -> list[float]:
    if steps == 1:
        return [start]
    return [start + i * (end - start) / (steps - 1) for i in range(steps)]


def _stack_rows(states: np.ndarray, taus, squeezes, deficits) -> np.ndarray:
    """CSV column values for a stack of states, one row per state, from one kernel call.

    The CSV holds the global negativities of B only, so only B's global
    transposes are solved.
    """
    B, A1 = QubitLabel.B, QubitLabel.A1
    batch = negativity_batch(states, global_qubits=(B,))
    columns = [
        taus,
        squeezes,
        *diagonal_probabilities(states).T,
        batch.n_g[B],
        batch.n_g_b_analytic,
        batch.n_psdg[B],
        batch.n_psdg[A1],
        batch.e_3[B],
        batch.e_psd["B-BA1"],
        batch.e_psd["A1-A1A2"],
        batch.e_psd["A1-A1B"],
        batch.linear_entropy_b,
        batch.w1_fidelity,
        batch.bell_projection,
        deficits,
    ]
    return np.column_stack(columns)


def evaluate_point(rho: ThreeQubitDensityMatrix) -> list[float]:
    """All CSV column values for the closed-form state at one (tau, s) point."""
    deficits = truncation_deficits([rho.s], rho.n_max)
    return _stack_rows(rho.matrix[None], [rho.tau], [rho.s], deficits)[0].tolist()


def _sweep_rows(cfg: SweepConfig, elements: np.ndarray, taus, squeezes) -> np.ndarray:
    """Rows for a sweep, from one diagnostics kernel call over all its points.

    ``taus`` and ``squeezes`` give each point's parameters; the truncation
    deficit is computed once per distinct squeeze value.
    """
    distinct, which = np.unique(np.broadcast_to(squeezes, len(elements)), return_inverse=True)
    deficits = truncation_deficits(distinct, cfg.n_max)
    _warn_truncation(deficits, distinct, cfg.n_max)
    return _stack_rows(
        states_from_elements(elements),
        np.broadcast_to(taus, len(elements)),
        distinct[which],
        deficits[which],
    )


def _warn_truncation(deficits: np.ndarray, squeezes: np.ndarray, n_max: int) -> None:
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


def run_tau_sweep(cfg: SweepConfig) -> str:
    taus = _grid(cfg.tau_start, cfg.tau_end, cfg.tau_steps)
    elements = closed_form_grid(taus, [cfg.s], cfg.theta, cfg.n_max)[:, 0]
    rows = _sweep_rows(cfg, elements, taus, cfg.s)
    extra = [
        f"# tau_start={_fmt(cfg.tau_start)} tau_end={_fmt(cfg.tau_end)} tau_steps={cfg.tau_steps}"
    ]
    return _csv_text(cfg, extra, rows)


def run_s_sweep(cfg: SweepConfig) -> str:
    squeezes = _grid(cfg.s_start, cfg.s_end, cfg.s_steps)
    elements = closed_form_grid([cfg.tau], squeezes, cfg.theta, cfg.n_max)[0]
    rows = _sweep_rows(cfg, elements, cfg.tau, squeezes)
    extra = [
        f"# tau={_fmt(cfg.tau)} s_start={_fmt(cfg.s_start)} s_end={_fmt(cfg.s_end)} s_steps={cfg.s_steps}"
    ]
    return _csv_text(cfg, extra, rows)


def run_single_point(cfg: SweepConfig) -> str:
    elements = closed_form_grid([cfg.tau], [cfg.s], cfg.theta, cfg.n_max)[:, 0]
    rows = _sweep_rows(cfg, elements, cfg.tau, cfg.s)
    return _csv_text(cfg, [f"# tau={_fmt(cfg.tau)}"], rows)


def run_oracle_check(cfg: SweepConfig, corrupt=None) -> tuple[str, int]:
    """Closed form versus brute force on the fixed validation grid.

    The states of each angle come from one `closed_form_grid` call and one
    `full_evolution_grid` call; rows follow theta, then s, then tau.  Returns
    the report text and an exit status (0 all within tolerance, 1
    otherwise).  ``corrupt``, used by the test suite, post-processes each
    closed-form matrix before comparison to prove the check can fail.
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
    for theta in ORACLE_CHECK_THETAS:
        references = full_evolution_grid(*grid, theta, cfg.oracle_n_max)
        closed_states = states_from_elements(closed_form_grid(*grid, theta, cfg.oracle_n_max))
        for s_index, s in enumerate(ORACLE_CHECK_SQUEEZES):
            for tau_index, tau in enumerate(ORACLE_CHECK_TAUS):
                closed = closed_states[tau_index, s_index]
                if corrupt is not None:
                    closed = corrupt(closed.copy())
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
    parser.add_argument(
        "--mode",
        choices=["tau-sweep", "s-sweep", "single-point", "oracle-check"],
        default="tau-sweep",
    )
    parser.add_argument("--s", type=float, default=1.2, help="squeeze parameter")
    parser.add_argument("--theta", type=float, default=math.pi, help="beam-splitter angle, radians")
    parser.add_argument("--n-max", type=int, default=80, help="Fock truncation")
    parser.add_argument("--tau-start", type=float, default=0.0)
    parser.add_argument("--tau-end", type=float, default=20.0)
    parser.add_argument("--tau-steps", type=int, default=600)
    parser.add_argument("--s-start", type=float, default=0.0)
    parser.add_argument("--s-end", type=float, default=2.0)
    parser.add_argument("--s-steps", type=int, default=200)
    parser.add_argument("--tau", type=float, default=14.5, help="interaction time for s-sweep/single-point")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--oracle-n-max", type=int, default=40)
    parser.add_argument("--tolerance", type=float, default=1e-8)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = SweepConfig(
            mode=args.mode,
            s=args.s,
            theta=args.theta,
            n_max=args.n_max,
            tau_start=args.tau_start,
            tau_end=args.tau_end,
            tau_steps=args.tau_steps,
            s_start=args.s_start,
            s_end=args.s_end,
            s_steps=args.s_steps,
            tau=args.tau,
            out=args.out,
            oracle_n_max=args.oracle_n_max,
            tolerance=args.tolerance,
        )
        if cfg.mode == "tau-sweep":
            text, status = run_tau_sweep(cfg), 0
        elif cfg.mode == "s-sweep":
            text, status = run_s_sweep(cfg), 0
        elif cfg.mode == "single-point":
            text, status = run_single_point(cfg), 0
        else:
            text, status = run_oracle_check(cfg)
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
