"""Fresh sweep CSVs and the oracle-check report against the committed goldens in perfbench/golden.

The goldens were written by the per-point compensated-summation closed forms
that preceded the grid evaluator.  The '#' header, the column line and the
swept grid column must be identical text; every other cell must lie within
``CELL_ATOL + CELL_RTOL * |golden|``, the tolerance perfbench/checks.py
applies to the same files.  That allows last-digit flips of the
12-significant-digit output and nothing more.

The default oracle-check report is held to the rules perfbench/checks.py
applies to its golden: the same '#' lines apart from the result line, the
same (tau, s, theta) rows, each ``ok`` below the CLI's default tolerance, and
each difference within ``ORACLE_DRIFT_FACTOR`` times its golden value or
within ``ORACLE_DRIFT_FLOOR``.
"""

import math
from pathlib import Path

import pytest

from cavity3q.cli import SweepConfig, run_oracle_check, run_sweep

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
CELL_ATOL = 1e-10
CELL_RTOL = 1e-10
ORACLE_TOLERANCE = 1e-8
ORACLE_DRIFT_FACTOR = 100.0
ORACLE_DRIFT_FLOOR = 1e-12

CASES = {
    "tau-sweep.csv": (SweepConfig(mode="tau-sweep"), "tau"),
    "s-sweep.csv": (SweepConfig(mode="s-sweep", tau=14.5, s_steps=200), "s"),
    "tau-sweep-dense.csv": (SweepConfig(mode="tau-sweep", theta=1.5707963267948966), "tau"),
}


def split_csv(text):
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return header, body[0], body[1:]


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_golden(name):
    cfg, axis = CASES[name]
    header, columns, rows = split_csv(run_sweep(cfg))
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


def split_report(text):
    """An oracle-check report's '#' lines other than the result line, its rows as fields, and its last line."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#") and not line.startswith("# result:")]
    return comments, [line.split() for line in lines if not line.startswith("#")], lines[-1]


def test_oracle_check_matches_golden():
    report, status = run_oracle_check(SweepConfig(mode="oracle-check"))
    comments, rows, last = split_report(report)
    gold_comments, gold_rows, _ = split_report((GOLDEN_DIR / "oracle-check.txt").read_text(encoding="utf-8"))

    assert status == 0
    assert comments == gold_comments
    assert last.startswith("# result: PASS max_abs_diff=")
    assert len(gold_rows) == 36
    assert [row[:3] for row in rows] == [row[:3] for row in gold_rows]
    for row, gold_row in zip(rows, gold_rows):
        diff, gold = float(row[3]), float(gold_row[3])
        assert row[4:] == ["ok"] and diff < ORACLE_TOLERANCE, row
        assert diff <= max(ORACLE_DRIFT_FLOOR, ORACLE_DRIFT_FACTOR * gold), (row, gold_row)
