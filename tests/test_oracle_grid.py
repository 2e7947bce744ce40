"""The grid oracle against the closed forms, plus its structure and guards.

The closed forms share no code with the oracle, so agreement checks the
oracle's field side, its evolution and its folded (n, m) sum at once.  The
grid sums (n, m) one diagonal n - m at a time for all angles, every
diagonal on which the evolved kets share a photon number; the tests below
pin that it sums those diagonals and only those.
"""

import math
import tracemalloc

import numpy as np
import pytest

import cavity3q.cli as cli
import cavity3q.oracle as oracle
from cavity3q import (
    PATTERN_MASK,
    FieldConfig,
    closed_form_grid,
    compare_states,
    full_evolution,
    full_evolution_grid,
    states_from_elements,
    truncation_deficits,
)
from cavity3q.cli import (
    ORACLE_CHECK_SQUEEZES,
    ORACLE_CHECK_TAUS,
    ORACLE_CHECK_THETAS,
    SweepConfig,
)
from test_oracle_real import dense_bands, dense_gram


@pytest.mark.parametrize("n_max", [10, 40])
def test_grid_matches_the_closed_forms(n_max):
    # the closed forms share no code with the oracle; on the check grid,
    # and at theta = 1.1 too, every entry agrees to 1e-14 (measured worst 1.1e-15)
    thetas = (*ORACLE_CHECK_THETAS, 1.1)
    grid = full_evolution_grid(ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, thetas, n_max)
    shape = (len(thetas), len(ORACLE_CHECK_TAUS), len(ORACLE_CHECK_SQUEEZES), 8, 8)
    assert grid.shape == shape
    for theta, states in zip(thetas, grid):
        elements = closed_form_grid(ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, theta, n_max)
        assert np.abs(states - states_from_elements(elements)).max() <= 1e-14, theta


def test_large_squeezing_point_matches_the_closed_forms():
    # the check grid stops at s = 0.9; at s = 2 the truncation must reach
    # n_max 380 to keep the norm to 1e-12 (deficit 7.5e-13), and the two
    # angles agree to 1e-12 (measured 5.8e-16 and 6.8e-16); about 0.2 s of CPU
    thetas = (math.pi / 2.0, math.pi)
    assert truncation_deficits([2.0], 380)[0] < 1e-12
    grid = full_evolution_grid([14.5], [2.0], thetas, 380)
    closed = [states_from_elements(closed_form_grid([14.5], [2.0], theta, 380)) for theta in thetas]
    for theta, reference, state in zip(thetas, grid, closed):
        report = compare_states(state[0, 0], reference[0, 0])
        assert report.max_abs_diff < 1e-12, theta
        assert not report.pattern_violations, theta


def test_full_evolution_is_the_grid_of_one():
    cfg = FieldConfig(0.7, 1.1, 12)
    for tau in (0.0, 0.9, 14.5):
        point = full_evolution(cfg, tau)
        grid = full_evolution_grid([tau], [cfg.s], [cfg.theta], cfg.n_max)
        assert np.array_equal(point.matrix, grid[0, 0, 0])
        assert (point.tau, point.s, point.theta, point.n_max) == (tau, cfg.s, cfg.theta, cfg.n_max)
        # a scalar angle is an angle axis of one
        assert np.array_equal(full_evolution_grid([tau], [cfg.s], cfg.theta, cfg.n_max), grid)


def test_grid_points_do_not_depend_on_their_neighbours():
    taus, squeezes, thetas = (0.3, 2.0, 14.5), (0.0, 0.6, 1.4), (0.0, 1.1, 2.2, math.pi)
    grid = full_evolution_grid(taus, squeezes, thetas, 16)
    for k, theta in enumerate(thetas):
        for i, tau in enumerate(taus):
            for j, s in enumerate(squeezes):
                point = full_evolution_grid([tau], [s], [theta], 16)[0, 0, 0]
                assert np.array_equal(grid[k, i, j], point)


def test_all_bands_leave_the_zero_pattern_empty():
    # the sum runs over every diagonal the overlaps reach; the zero pattern
    # must come out of the evolution, exactly, rather than by construction
    grid = full_evolution_grid((0.3, 0.8, 2.0, 14.5), (0.3, 0.9, 1.5), 1.1, 40)
    assert not grid[..., ~PATTERN_MASK].any()
    assert np.abs(grid[..., PATTERN_MASK]).max() > 0.1


def test_live_bands_on_the_oracle_check_grid():
    # two atoms excite up to two levels, so their kets share photon numbers
    # up to q - r = 2; one atom only 1.  Diagonals 0 and 1 of the state sum are live
    taus = np.array(ORACLE_CHECK_TAUS)
    for n_max in (2, 8, 40):
        dim, count = n_max + 3, n_max + 1
        kets = [oracle._evolved_components(atoms, dim, taus, count) for atoms in (2, 1)]
        bands = [oracle._support_bands(psi) for psi in kets]
        assert bands == [{0, 1, 2}, {0, 1}]
        for psi, support in zip(kets, bands):
            assert dense_bands(dense_gram(psi)) <= support
    assert oracle._support_bands(kets[0][:, :1]) == {0}


def every_band(psi):
    return set(range(psi.shape[1]))


@pytest.fixture
def summed(monkeypatch):
    """The diagonals d that `full_evolution_grid` sums, in order."""
    diagonals = []
    term = oracle._diagonal_term

    def recording(bands, amps, lam, d):
        diagonals.append(d)
        return term(bands, amps, lam, d)

    monkeypatch.setattr(oracle, "_diagonal_term", recording)
    return diagonals


@pytest.mark.parametrize("n_max", [0, 1, 10, 40])
def test_live_diagonals_sum_to_every_diagonal_bit_for_bit(n_max, summed, monkeypatch):
    args = (ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, ORACLE_CHECK_THETAS, n_max)
    live = full_evolution_grid(*args)
    assert summed == [0, 1][: n_max + 1]
    summed.clear()
    monkeypatch.setattr(oracle, "_support_bands", every_band)
    assert np.array_equal(full_evolution_grid(*args), live)
    assert summed == list(range(n_max + 1))


def test_a_coupling_across_excitation_sets_is_still_summed(summed, monkeypatch):
    # join |ground, 0 photons> to |ground, 3 photons>: the components merge,
    # the kets share photon numbers across further bands, and those are
    # summed like every other (an odd photon jump, like every hop of the
    # coupling, so the state stays real)
    edges = oracle._coupling_edges

    def coupled(num_atoms, dim):
        rows, cols, values = edges(num_atoms, dim)
        return np.append(rows, [0, 3]), np.append(cols, [3, 0]), np.append(values, [0.3, 0.3])

    monkeypatch.setattr(oracle, "_coupling_edges", coupled)
    args = ([0.8, 2.0], [0.6], [1.1], 8)
    kets = [oracle._evolved_components(atoms, 11, np.array([0.8]), 9) for atoms in (2, 1)]
    bands = [oracle._support_bands(psi) for psi in kets]
    assert bands == [set(range(6)), set(range(5))]
    for psi, support in zip(kets, bands):
        assert dense_bands(dense_gram(psi)) <= support
    live = full_evolution_grid(*args)
    assert summed == sorted(bands[0] & bands[1])
    monkeypatch.setattr(oracle, "_support_bands", every_band)
    assert np.array_equal(full_evolution_grid(*args), live)


def test_oracle_check_grid_at_n_max_80_allocates_below_6_mib():
    # the photon-traced overlaps are held as the summed Gram bands, not as
    # dense (count * atoms)^2 tensors: 4.4 MiB against 9.84 MiB for the
    # dense ones.  tracemalloc counts numpy's buffers, so the peak is exact
    args = (ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, ORACLE_CHECK_THETAS, 80)
    tracemalloc.start()
    try:
        full_evolution_grid(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_oracle_check_fails_on_a_wrong_beam_splitter_angle(monkeypatch):
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=8, tolerance=1e-8)
    assert cli.run_oracle_check(cfg)[1] == 0
    columns = oracle._beam_splitter_columns
    monkeypatch.setattr(
        oracle, "_beam_splitter_columns", lambda thetas, n_max: columns(thetas * 1.01, n_max)
    )
    report, status = cli.run_oracle_check(cfg)
    assert status == 1
    assert "# result: FAIL" in report and "# DISCREPANCY" in report


@pytest.mark.parametrize("tau", [math.nan, math.inf, -0.5])
def test_full_evolution_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match=f"tau must be finite and >= 0, got {tau}"):
        full_evolution(FieldConfig(0.5, 1.0, 6), tau)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_refuses_a_tau_whose_phase_overflows():
    # at n_max 6 the coupling's largest rate is sqrt(22), that of the
    # pair's six-photon component: 1e308 times it overflows; at n_max 1 the
    # largest rate is sqrt2, and the same tau evolves
    with pytest.raises(ValueError, match=r"^tau must keep its phase tau \* 4.69042 finite, got 1e\+308$"):
        full_evolution_grid([0.5, 1e308], [0.3], [1.0], 6)
    assert np.isfinite(full_evolution_grid([0.5, 1e308], [0.3], [1.0], 1)).all()


@pytest.mark.parametrize("s", [math.nan, math.inf, -0.5])
def test_grid_rejects_bad_squeeze(s):
    with pytest.raises(ValueError, match=f"squeeze parameter s must be finite and >= 0, got {s}"):
        full_evolution_grid([0.5], [0.3, s], 1.0, 6)


BOOLS = [True, np.False_, [True, False], [0.5, True]]


@pytest.mark.parametrize("value", BOOLS)
def test_grid_refuses_bool_tau_and_squeeze(value):
    # a bool would otherwise be read as 1.0 or 0.0
    with pytest.raises(ValueError, match="tau must be a finite number >= 0, not a bool"):
        full_evolution_grid(value, [0.3], [1.0], 6)
    with pytest.raises(ValueError, match="squeeze parameter s must be a finite number >= 0, not a"):
        full_evolution_grid([0.5], value, [1.0], 6)


@pytest.mark.parametrize(
    "value, message",
    [(v, r"must be a finite number in \[0, pi\], not a bool") for v in BOOLS]
    + [
        (math.nan, r"must lie in \[0, pi\], got nan"),
        ([1.0, math.nan], r"must lie in \[0, pi\], got nan"),
        (-0.1, r"must lie in \[0, pi\], got -0.1"),
        ([1.0, 3.5], r"must lie in \[0, pi\], got 3.5"),
        (0.5j, r"must be a finite real number in \[0, pi\]"),
        ([1.0, 2 + 0j], r"must be a finite real number in \[0, pi\]"),
        ("abc", r"must be a finite real number in \[0, pi\]"),
    ],
)
def test_grid_refuses_bad_thetas(value, message):
    # the angle axis is guarded like the scalar angle it replaced
    with pytest.raises(ValueError, match="^theta " + message):
        full_evolution_grid([0.5], [0.3], value, 6)


def test_grid_rejects_bad_angle_and_truncation():
    for theta in (-0.1, 3.5, math.nan):
        with pytest.raises(ValueError, match="theta must lie in"):
            full_evolution_grid([0.5], [0.3], theta, 6)
    for n_max in (-1, True, 6.0):
        with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
            full_evolution_grid([0.5], [0.3], 1.0, n_max)


@pytest.mark.parametrize("empty", ["tau", "s", "theta"])
def test_an_empty_axis_gives_an_empty_grid(empty):
    axes = {"tau": [0.8, 2.0], "s": [0.6, 0.9, 1.2], "theta": [1.1]}
    axes[empty] = []
    taus, squeezes, thetas = axes.values()
    grid = full_evolution_grid(taus, squeezes, thetas, 5)
    assert grid.shape == (len(thetas), len(taus), len(squeezes), 8, 8)
    assert closed_form_grid(taus, squeezes, 1.1, 5).shape == (len(taus), len(squeezes), 8)


def test_norm_check_rejects_nan():
    with pytest.raises(RuntimeError, match=r"lost norm: \|norm - 1\| = nan > 1e-10"):
        oracle._evolved_components(2, 8, np.array([math.nan]), 4)


def test_grid_states_are_real():
    grid = full_evolution_grid(ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, 1.1, 12)
    assert grid.dtype == np.float64
    assert grid.flags.c_contiguous


def test_grid_refuses_an_imaginary_part_above_the_bound(monkeypatch):
    # a phase on each cavity's port-traced factor leaves the state complex
    traced = oracle._port_traced_diagonal
    monkeypatch.setattr(
        oracle,
        "_port_traced_diagonal",
        lambda band, weights: traced(band, weights) * np.exp(1e-6j),
    )
    with pytest.raises(RuntimeError, match="imaginary part of .* above the bound 1e-12"):
        full_evolution_grid([0.8], [0.6], [1.1], 8)
