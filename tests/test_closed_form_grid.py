"""The factorised grid evaluator against a compensated-summation reference.

`reference_elements` is the per-point evaluation the grid evaluator replaced:
field-weight tables accumulated with Neumaier updates in ascending photon
number, then every matrix element summed with ``math.fsum``.  Its result is
correctly rounded up to the table accumulation, so the grid path may differ
from it only by the rounding of its own dot products; REFERENCE_TOL bounds
that (measured worst case 3.3e-16).
"""

import math

import numpy as np
import pytest

from cavity3q import (
    FieldConfig,
    binomial_amplitude_row,
    closed_form_grid,
    closed_form_rho,
    states_from_elements,
)
from cavity3q.cli import main

REFERENCE_TOL = 1e-14
ROW_TOL = 1e-15
THETAS = (math.pi, math.pi / 2.0, math.pi / 3.0, 1.1)
SQUEEZES = (0.0, 0.3, 1.2, 2.0)
N_MAXES = (0, 1, 2, 25, 80)
TAUS = (0.0, 0.3, 0.8, 2.0, 14.5)


def squeezed_weight(n: int, s: float) -> float:
    """Amplitude ``tanh(s)**n / cosh(s)`` of the |n, n> squeezed-pair component."""
    return math.tanh(s) ** n / math.cosh(s)


def _compensated_add(total, carry, delta):
    fresh = total + delta
    big = np.abs(total) >= np.abs(delta)
    carry += np.where(big, (total - fresh) + delta, (delta - fresh) + total)
    total[...] = fresh


def reference_tables(config):
    size = config.n_max + 1
    w0, c0 = np.zeros((size, size)), np.zeros((size, size))
    w1, c1 = np.zeros((size, size)), np.zeros((size, size))
    for n in range(size):
        amps = binomial_amplitude_row(n, config.theta)
        norm0 = squeezed_weight(n, config.s) ** 2
        rev_sq = (amps * amps)[::-1]
        _compensated_add(w0[: n + 1, : n + 1], c0[: n + 1, : n + 1], norm0 * np.outer(rev_sq, rev_sq))
        if n + 1 < size:
            norm1 = squeezed_weight(n, config.s) * squeezed_weight(n + 1, config.s)
            rev_pair = (amps * binomial_amplitude_row(n + 1, config.theta)[: n + 1])[::-1]
            _compensated_add(w1[: n + 1, : n + 1], c1[: n + 1, : n + 1], norm1 * np.outer(rev_pair, rev_pair))
    return w0 + c0, w1 + c1


def reference_elements(tau, config):
    """(r11, r22, r33, r44, r55, r66, r15, r26) by exact summation over the tables."""
    w0, w1 = reference_tables(config)
    size = config.n_max + 1
    q = np.arange(size + 1, dtype=float)
    stay, one_up, two_up = np.ones(size + 1), np.zeros(size + 1), np.zeros(size + 1)
    qq = q[1:]
    f = np.sqrt(2.0 * (2.0 * qq - 1.0))
    cos_f, sin_f = np.cos(f * tau), np.sin(f * tau)
    denom = 2.0 * qq - 1.0
    stay[1:] = ((qq - 1.0) + qq * cos_f) / denom
    one_up[1:] = np.sqrt(qq) * sin_f / np.sqrt(denom)
    two_up[1:] = np.sqrt(qq * (qq - 1.0)) * (cos_f - 1.0) / denom
    cos_b, sin_b = np.cos(np.sqrt(q) * tau), np.sin(np.sqrt(q) * tau)
    stay0, one0, two0 = stay[:size], one_up[:size], two_up[:size]
    cos0, sin0 = cos_b[:size], sin_b[:size]

    def fsum(values):
        return math.fsum(values.ravel().tolist())

    return np.array(
        [fsum(w0 * np.outer(a, b)) for b in (cos0**2, sin0**2) for a in (stay0**2, one0**2, two0**2)]
        + [
            -fsum(w1 * np.outer(stay0 * one_up[1:], cos0 * sin_b[1:])),
            fsum(w1 * np.outer(one0 * two_up[1:], cos0 * sin_b[1:])),
        ]
    )


@pytest.mark.parametrize("theta", THETAS)
def test_grid_matches_compensated_reference(theta):
    worst = 0.0
    for n_max in N_MAXES:
        grid = closed_form_grid(TAUS, SQUEEZES, theta, n_max)
        assert grid.shape == (len(TAUS), len(SQUEEZES), 8)
        for j, s in enumerate(SQUEEZES):
            config = FieldConfig(s, theta, n_max)
            for i, tau in enumerate(TAUS):
                diff = np.abs(grid[i, j] - reference_elements(tau, config)).max()
                worst = max(worst, diff)
    assert worst <= REFERENCE_TOL


def test_closed_form_rho_is_a_grid_of_one():
    config = FieldConfig(0.9, 1.1, 30)
    for tau in TAUS:
        elements = closed_form_grid([tau], [config.s], config.theta, config.n_max)[0, 0]
        expected = states_from_elements(elements)
        assert np.array_equal(closed_form_rho(tau, config).matrix, expected)


def test_states_are_real_symmetric():
    elements = closed_form_grid(TAUS, SQUEEZES, 1.1, 30)
    states = states_from_elements(elements)
    assert states.dtype == np.float64
    assert np.array_equal(states, states.swapaxes(-1, -2))
    for tau in TAUS:
        assert closed_form_rho(tau, FieldConfig(0.9, 1.1, 30)).matrix.dtype == np.float64


def test_s_grid_row_matches_points():
    squeezes = np.linspace(0.0, 2.0, 41)
    for theta in (math.pi, math.pi / 3.0):
        row = closed_form_grid([14.5], squeezes, theta, 80)[0]
        points = np.array([closed_form_grid([14.5], [s], theta, 80)[0, 0] for s in squeezes])
        assert np.abs(row - points).max() <= ROW_TOL


def test_tau_chunks_match_points():
    # 150 points span three internal tau blocks
    taus = np.linspace(0.0, 20.0, 150)
    grid = closed_form_grid(taus, [1.2], math.pi / 2.0, 80)[:, 0]
    points = np.array([closed_form_grid([tau], [1.2], math.pi / 2.0, 80)[0, 0] for tau in taus])
    assert np.abs(grid - points).max() <= ROW_TOL


def test_zero_squeezing_is_exactly_the_ground_state():
    for theta in THETAS:
        for tau in TAUS:
            matrix = closed_form_rho(tau, FieldConfig(0.0, theta, 25)).matrix
            assert matrix[0, 0] == 1.0
            outside = matrix.copy()
            outside[0, 0] = 0.0
            assert np.count_nonzero(outside) == 0


@pytest.mark.parametrize("tau", [math.nan, math.inf, -0.5])
def test_grid_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        closed_form_grid([0.1, tau], [0.5], 1.0, 5)
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        closed_form_rho(tau, FieldConfig(0.5, 1.0, 5))


@pytest.mark.parametrize("s", [math.nan, math.inf, -0.5])
def test_grid_rejects_bad_squeeze(s):
    with pytest.raises(ValueError, match="squeeze parameter s must be finite and >= 0"):
        closed_form_grid([0.1], [0.2, s], 1.0, 5)


@pytest.mark.parametrize("value", [True, np.False_, [True, False], [0.5, True]])
def test_grid_refuses_bool_tau_and_squeeze(value):
    # a bool would otherwise be read as 1.0 or 0.0
    with pytest.raises(ValueError, match="tau must be a finite number >= 0, not a bool"):
        closed_form_grid(value, [0.5], 1.0, 5)
    with pytest.raises(ValueError, match="squeeze parameter s must be a finite number >= 0, not a"):
        closed_form_grid([0.1], value, 1.0, 5)
    if np.ndim(value) == 0:
        with pytest.raises(ValueError, match=r"theta must be a finite number in \[0, pi\], not a bool"):
            closed_form_grid([0.1], [0.5], value, 5)


@pytest.mark.parametrize("n_max", [True, -1, 2.0])
def test_grid_rejects_bad_n_max(n_max):
    with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
        closed_form_grid([0.1], [0.2], 1.0, n_max)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--mode", "single-point", "--tau", "nan"], "tau must be finite and >= 0, got nan"),
        (["--mode", "single-point", "--tau", "inf"], "tau must be finite and >= 0, got inf"),
        (["--mode", "single-point", "--s", "nan"], "squeeze parameter s must be finite and >= 0, got nan"),
        (["--mode", "tau-sweep", "--s", "inf"], "squeeze parameter s must be finite and >= 0, got inf"),
        (["--mode", "s-sweep", "--s-end", "nan"], "s_end must be finite and >= 0, got nan"),
        (["--mode", "tau-sweep", "--tau-end", "inf"], "tau_end must be finite and >= 0, got inf"),
    ],
)
def test_cli_names_the_bad_parameter(args, message, capsys):
    assert main([*args, "--n-max", "4", "--tau-steps", "3", "--s-steps", "3"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
