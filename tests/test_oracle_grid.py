"""The grid oracle against the per-term evaluation it replaced, plus its guards.

`_per_term_reference` keeps the former `full_evolution`: the injected-field
terms of the |n - m| <= 1 bands enumerated one by one from the binomial
amplitudes, each weighted outer product of photon-traced Gram blocks summed
with one 3-operand einsum.  The grid builds its field amplitudes from the
beam-splitter blocks instead and sums every (n, m), so agreement checks the
new field side and the factorised sum at once.
"""

import math

import numpy as np
import pytest

import cavity3q.cli as cli
import cavity3q.oracle as oracle
from cavity3q import (
    PATTERN_MASK,
    FieldConfig,
    binomial_amplitude_row,
    full_evolution,
    full_evolution_grid,
)
from cavity3q.cli import (
    ORACLE_CHECK_SQUEEZES,
    ORACLE_CHECK_TAUS,
    ORACLE_CHECK_THETAS,
    SweepConfig,
)


def squeezed_weight(n: int, s: float) -> float:
    """Amplitude ``tanh(s)**n / cosh(s)`` of the |n, n> squeezed-pair component."""
    return math.tanh(s) ** n / math.cosh(s)


def _field_terms(config: FieldConfig, band: int):
    """(n, k, l, weight) of the injected-field terms with m = n + band, ascending n, k, l."""
    for n in range(config.n_max - band + 1):
        m = n + band
        norm = squeezed_weight(n, config.s) * squeezed_weight(m, config.s)
        if norm == 0.0:
            continue
        amps_n = binomial_amplitude_row(n, config.theta)
        amps_m = amps_n if band == 0 else binomial_amplitude_row(m, config.theta)
        pair = amps_n * amps_m[: n + 1]
        for k in range(n + 1):
            for l in range(n + 1):
                weight = norm * pair[k] * pair[l]
                if weight != 0.0:
                    yield n, k, l, weight


def _per_term_reference(config: FieldConfig, tau: float) -> np.ndarray:
    dim = config.n_max + 3
    count = config.n_max + 1
    psi1 = oracle._evolved_components(2, dim, np.array([tau]), count)[0]
    psi2 = oracle._evolved_components(1, dim, np.array([tau]), count)[0]
    pair1 = np.einsum("qap,rbp->qrab", psi1, psi1.conj())
    pair2 = np.einsum("qap,rbp->qrab", psi2, psi2.conj())
    rho = np.zeros((8, 8), dtype=complex)
    for band in (0, 1):
        terms = np.array(list(_field_terms(config, band)))
        if not len(terms):
            continue
        n, k, l = terms[:, :3].astype(int).T
        w = terms[:, 3]
        g1 = pair1[n - k, n - k + band]
        g2 = pair2[n - l, n - l + band]
        block = np.einsum("t,tbB,taA->baBA", w, g2, g1).reshape(8, 8)
        rho += block
        if band == 1:
            rho += block.conj().T
    return rho


@pytest.mark.parametrize("n_max", [10, 40])
def test_grid_matches_per_term_reference(n_max):
    worst = 0.0
    for theta in ORACLE_CHECK_THETAS:
        grid = full_evolution_grid(ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, theta, n_max)
        assert grid.shape == (len(ORACLE_CHECK_TAUS), len(ORACLE_CHECK_SQUEEZES), 8, 8)
        for i, tau in enumerate(ORACLE_CHECK_TAUS):
            for j, s in enumerate(ORACLE_CHECK_SQUEEZES):
                reference = _per_term_reference(FieldConfig(s, theta, n_max), tau)
                worst = max(worst, np.abs(grid[i, j] - reference).max())
    assert worst <= 1e-13


def test_full_evolution_is_the_grid_of_one():
    cfg = FieldConfig(0.7, 1.1, 12)
    for tau in (0.0, 0.9, 14.5):
        point = full_evolution(cfg, tau)
        grid = full_evolution_grid([tau], [cfg.s], cfg.theta, cfg.n_max)
        assert np.array_equal(point.matrix, grid[0, 0])
        assert (point.tau, point.s, point.theta, point.n_max) == (tau, cfg.s, cfg.theta, cfg.n_max)


def test_grid_points_do_not_depend_on_their_neighbours():
    taus, squeezes, theta = (0.3, 2.0, 14.5), (0.0, 0.6, 1.4), 2.2
    grid = full_evolution_grid(taus, squeezes, theta, 16)
    for i, tau in enumerate(taus):
        for j, s in enumerate(squeezes):
            assert np.array_equal(grid[i, j], full_evolution_grid([tau], [s], theta, 16)[0, 0])


def test_all_bands_leave_the_zero_pattern_empty():
    # the sum runs over every (n, m); the |n - m| >= 2 terms must cancel in
    # the atomic state rather than being left out by construction
    grid = full_evolution_grid((0.3, 0.8, 2.0, 14.5), (0.3, 0.9, 1.5), 1.1, 40)
    assert np.abs(grid[..., ~PATTERN_MASK]).max() <= 1e-14
    assert np.abs(grid[..., PATTERN_MASK]).max() > 0.1


def test_oracle_check_fails_on_a_wrong_beam_splitter_angle(monkeypatch):
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=8, tolerance=1e-8)
    assert cli.run_oracle_check(cfg)[1] == 0
    weights = oracle._port_weights
    monkeypatch.setattr(
        oracle, "_port_weights", lambda theta, n_max: weights(theta * 1.01, n_max)
    )
    report, status = cli.run_oracle_check(cfg)
    assert status == 1
    assert "# result: FAIL" in report and "# DISCREPANCY" in report


@pytest.mark.parametrize("tau", [math.nan, math.inf, -0.5])
def test_full_evolution_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match=f"tau must be finite and >= 0, got {tau}"):
        full_evolution(FieldConfig(0.5, 1.0, 6), tau)


@pytest.mark.parametrize("s", [math.nan, math.inf, -0.5])
def test_grid_rejects_bad_squeeze(s):
    with pytest.raises(ValueError, match=f"squeeze parameter s must be finite and >= 0, got {s}"):
        full_evolution_grid([0.5], [0.3, s], 1.0, 6)


@pytest.mark.parametrize("value", [True, np.False_, [True, False], [0.5, True]])
def test_grid_refuses_bool_tau_and_squeeze(value):
    # a bool would otherwise be read as 1.0 or 0.0
    with pytest.raises(ValueError, match="tau must be a finite number >= 0, not a bool"):
        full_evolution_grid(value, [0.3], 1.0, 6)
    with pytest.raises(ValueError, match="squeeze parameter s must be a finite number >= 0, not a"):
        full_evolution_grid([0.5], value, 1.0, 6)
    if np.ndim(value) == 0:
        with pytest.raises(ValueError, match=r"theta must be a finite number in \[0, pi\], not a bool"):
            full_evolution_grid([0.5], [0.3], value, 6)


def test_grid_rejects_bad_angle_and_truncation():
    for theta in (-0.1, 3.5, math.nan):
        with pytest.raises(ValueError, match="theta must lie in"):
            full_evolution_grid([0.5], [0.3], theta, 6)
    for n_max in (-1, True, 6.0):
        with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
            full_evolution_grid([0.5], [0.3], 1.0, n_max)


def test_norm_check_rejects_nan():
    with pytest.raises(RuntimeError, match="lost norm"):
        oracle._evolved_components(2, 8, np.array([math.nan]), 4)


def test_grid_states_are_real():
    grid = full_evolution_grid(ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, 1.1, 12)
    assert grid.dtype == np.float64
    assert grid.flags.c_contiguous


def test_grid_refuses_an_imaginary_part_above_the_bound(monkeypatch):
    # a phase on each cavity's factor leaves the state complex
    port_traced = oracle._port_traced
    monkeypatch.setattr(
        oracle, "_port_traced", lambda gram, weights: port_traced(gram, weights) * np.exp(1e-6j)
    )
    with pytest.raises(RuntimeError, match="imaginary part of .* above the bound 1e-12"):
        full_evolution_grid([0.8], [0.6], 1.1, 8)
