"""Fresh sweep CSVs against the committed goldens in perfbench/golden.

The goldens were written by the per-point compensated-summation closed forms
that preceded the grid evaluator.  The '#' header, the column line and the
swept grid column must be identical text; every other cell must lie within
``CELL_ATOL + CELL_RTOL * |golden|``, the tolerance perfbench/checks.py
applies to the same files.  That allows last-digit flips of the
12-significant-digit output and nothing more.
"""

import math
from pathlib import Path

import pytest

from cavity3q.cli import SweepConfig, run_s_sweep, run_tau_sweep

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
CELL_ATOL = 1e-10
CELL_RTOL = 1e-10

CASES = {
    "tau-sweep.csv": (run_tau_sweep, SweepConfig(mode="tau-sweep"), "tau"),
    "s-sweep.csv": (run_s_sweep, SweepConfig(mode="s-sweep", tau=14.5, s_steps=200), "s"),
    "tau-sweep-dense.csv": (
        run_tau_sweep,
        SweepConfig(mode="tau-sweep", theta=1.5707963267948966),
        "tau",
    ),
}


def split_csv(text):
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return header, body[0], body[1:]


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_golden(name):
    run, cfg, axis = CASES[name]
    header, columns, rows = split_csv(run(cfg))
    gold_header, gold_columns, gold_rows = split_csv((GOLDEN_DIR / name).read_text(encoding="utf-8"))

    assert header == gold_header
    assert columns == gold_columns
    assert len(rows) == len(gold_rows)
    grid = columns.index(axis)
    for index, (row, gold_row) in enumerate(zip(rows, gold_rows)):
        assert len(row) == len(columns), index
        assert row[grid] == gold_row[grid], index
        for column, cell, gold_cell in zip(columns, row, gold_row):
            value, gold = float(cell), float(gold_cell)
            assert math.isfinite(value), (index, column)
            assert abs(value - gold) <= CELL_ATOL + CELL_RTOL * abs(gold), (index, column, cell, gold_cell)
