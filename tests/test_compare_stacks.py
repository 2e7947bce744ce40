"""The batched state comparison that oracle-check makes, against `compare_states` point by point."""

import math
import re

import numpy as np
import pytest

from cavity3q import (
    ComparisonReport,
    closed_form_grid,
    compare_states,
    full_evolution_grid,
    states_from_elements,
)
from cavity3q.cli import ORACLE_CHECK_SQUEEZES, ORACLE_CHECK_TAUS, ORACLE_CHECK_THETAS
from cavity3q.oracle import _compare_stacks


def oracle_check_stacks(n_max=6):
    """The 36 closed-form and brute-force states of oracle-check, each (theta, tau, s, 8, 8)."""
    grid = (ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES)
    closed = [
        states_from_elements(closed_form_grid(*grid, theta, n_max)) for theta in ORACLE_CHECK_THETAS
    ]
    return np.stack(closed), full_evolution_grid(*grid, ORACLE_CHECK_THETAS, n_max)


def bump_diagonal(states):
    # the corruption of test_oracle_check_flags_corruption
    states[..., 4, 4] += 1e-3
    return states


def set_off_pattern(states):
    # the corruption of test_oracle_check_pattern_lines_print_real_values
    states[..., 0, 3] = states[..., 3, 0] = 1e-6
    return states


@pytest.mark.parametrize(
    "corrupt", [None, bump_diagonal, set_off_pattern], ids=["clean", "diagonal", "pattern"]
)
def test_each_point_is_compare_states_of_its_pair(corrupt):
    closed, references = oracle_check_stacks()
    if corrupt is not None:
        closed = corrupt(closed)
    diffs, worst, violations = _compare_stacks(closed, references)
    assert diffs.shape == worst.shape == closed.shape[:3]
    assert violations.shape[1] == 5
    flagged = 0
    for point in np.ndindex(*closed.shape[:3]):
        a, b = closed[point], references[point]
        rows = violations[(violations[:, :3] == point).all(axis=1), 3:].tolist()
        batched = ComparisonReport(
            float(diffs[point]),
            divmod(int(worst[point]), 8),
            [(i, j, complex(a[i, j]), complex(b[i, j])) for i, j in rows],
        )
        report = compare_states(a, b)
        assert report == batched
        assert report.max_abs_diff.hex() == float(diffs[point]).hex()
        flagged += len(rows)
    assert flagged == len(violations) == {None: 0, bump_diagonal: 0, set_off_pattern: 72}[corrupt]
    if corrupt is bump_diagonal:
        assert (worst == 4 * 8 + 4).all()


@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_point_is_refused_by_argument_and_entry(name, value):
    stacks = dict(zip("ab", oracle_check_stacks()))
    stacks[name][1, 2, 0, 3, 5] = value
    message = f"{name} must be finite, got entry [1,2,0,3,5] = {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _compare_stacks(stacks["a"], stacks["b"])


def test_stacks_of_another_shape_are_refused_by_name():
    closed, references = oracle_check_stacks()
    for a, b, message in (
        (closed[..., :4], references, "a must have shape (..., 8, 8), got shape (3, 4, 3, 8, 4)"),
        (closed, references[:2], "b must have a's shape (3, 4, 3, 8, 8), got shape (2, 4, 3, 8, 8)"),
        (closed, references[0, 0, 0], "b must have a's shape (3, 4, 3, 8, 8), got shape (8, 8)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _compare_stacks(a, b)


def bad_dtypes():
    """8x8 states of a dtype the comparison refuses, each with the dtype its message names."""
    yield pytest.param(np.eye(8, dtype=bool), "bool", id="bool")
    yield pytest.param(np.full((8, 8), "0.1"), "<U3", id="str")
    yield pytest.param(np.full((8, 8), 0.1, dtype=object), "object", id="object")


@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("bad, dtype", bad_dtypes())
def test_bool_and_non_numeric_states_are_refused_by_name(name, bad, dtype):
    # a bool state was compared as 0/1, and a non-numeric one failed inside
    # np.isfinite; both are refused where they enter, one point or a stack
    good = np.eye(8) / 8.0
    message = f"{name} must hold real or complex numbers, got dtype {dtype}"
    pair = {"a": good, "b": good, name: bad}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_states(pair["a"], pair["b"])
    stacks = {key: np.stack([value] * 3) for key, value in pair.items()}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _compare_stacks(stacks["a"], stacks["b"])


def test_integer_and_complex_states_are_compared():
    identity = np.eye(8, dtype=int)
    report = compare_states(identity, identity.astype(complex) * (1.0 + 0.5j))
    assert report.max_abs_diff == 0.5 and report.worst_entry == (0, 0)
    assert report.pattern_violations == []
