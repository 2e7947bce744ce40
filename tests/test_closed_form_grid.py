"""The factorised grid evaluator against the brute-force oracle, plus its guards.

The oracle (`full_evolution_grid`) shares no code with the closed forms:
it builds the injected field from the beam-splitter generator, evolves
every field component explicitly and traces the cavities out numerically.
The grid must agree with it to REFERENCE_TOL on every element, at every
truncation from the empty band (n_max 0) to the production one (measured
worst case 2.3e-15), on the per-point path and on an arithmetic tau axis
alike.

An arithmetic tau axis takes its cos and sin from the angle-addition
identity (`_tau_trig`); any other axis evaluates them point by point.  The
two paths are compared here through their trig values, against a Dekker
reference in plain Python, and through their elements, against a bound
derived from the per-point path's own phase rounding.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavity3q.tavis_cummings as tavis_cummings
from cavity3q import (
    FieldConfig,
    closed_form_grid,
    closed_form_rho,
    compare_states,
    full_evolution_grid,
    states_from_elements,
    truncation_deficits,
)
from cavity3q.cli import ORACLE_CHECK_TAUS, main

REFERENCE_TOL = 1e-14
# two evaluations of one element by the same arithmetic in different BLAS row blocks
ROW_TOL = 1e-15
# the addition path's cos and sin against those of the exact product tau * rate
# (measured worst 1.5 eps, test_addition_trig_is_no_less_accurate_than_per_point)
TRIG_TOL = 4.0 * np.finfo(float).eps
# theta = pi makes both field factors [I 0]; theta = 0 reflects all the light
THETAS = (math.pi, math.pi / 2.0, math.pi / 3.0, 1.1, 0.0)
SQUEEZES = (0.0, 0.3, 1.2, 2.0)
N_MAXES = (0, 1, 2, 25, 80)
TAUS = (0.0, 0.3, 0.8, 2.0, 14.5)
# the closed form against brute force over (tau <= 20, s <= 2, theta), each
# point at the n_max that keeps 1e-12 of the norm
PROPERTY_TOL = 1e-12
PROPERTY_EXAMPLES = 40
# a DISCREPANCIES.md variant that moves its element by more than this must
# fail PROPERTY_TOL: each of its slots moves by at least VARIANT_MOVE / sqrt2
VARIANT_MOVE = 1e-10


@pytest.mark.parametrize("theta", THETAS)
def test_grid_matches_brute_force_evolution(theta):
    worst = 0.0
    for n_max in N_MAXES:
        grid = closed_form_grid(TAUS, SQUEEZES, theta, n_max)
        assert grid.shape == (len(TAUS), len(SQUEEZES), 8)
        reference = full_evolution_grid(TAUS, SQUEEZES, theta, n_max)[0]
        worst = max(worst, np.abs(states_from_elements(grid) - reference).max())
    assert worst <= REFERENCE_TOL


def deficit_n_max(s):
    """The least n_max whose truncation drops at most 1e-12 of the norm at s: tanh(s)^(2 n_max + 2) <= 1e-12."""
    if s == 0.0:
        return 0
    return max(0, math.ceil(math.log(1e-12) / (2.0 * math.log(math.tanh(s)))) - 1)


AMPLITUDES = tavis_cummings._pair_block_amplitudes


def slipped_amplitudes(cos_f, sin_f, spare):
    """`_pair_block_amplitudes` with DISCREPANCIES.md 2's slip: sqrt(q-1)/sqrt(2q-1) leading the one-photon rung."""
    stay, one_up, two_up = AMPLITUDES(cos_f, sin_f, spare)
    q = np.arange(one_up.shape[1], dtype=float)
    return stay, one_up * np.sqrt(np.maximum(q - 1.0, 0.0) / np.maximum(q, 1.0)), two_up


def test_grid_matches_brute_force_evolution_over_the_parameter_box():
    # DISCREPANCIES.md 1 flips the sign of r15 (element 6), 2 slips r26
    # (element 7); wherever a variant moves its element by more than
    # VARIANT_MOVE, far above PROPERTY_TOL, the same reference must reject it
    rejected = Counter()

    # the whole parameter box, at the n_max its squeeze needs; theta = 0 and
    # theta = pi, where both field factors are selections, are drawn explicitly
    @settings(deadline=None, max_examples=PROPERTY_EXAMPLES, derandomize=True)
    @given(
        st.floats(0.0, 20.0),
        st.floats(0.0, 2.0),
        st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
    )
    @example(20.0, 2.0, math.pi)
    @example(20.0, 2.0, 0.0)
    def draw(tau, s, theta):
        n_max = deficit_n_max(s)
        assert truncation_deficits([s], n_max)[0] <= 1e-12 * (1.0 + 1e-9)
        elements = closed_form_grid([tau], [s], theta, n_max)[0, 0]
        reference = full_evolution_grid([tau], [s], [theta], n_max)[0, 0, 0]
        report = compare_states(states_from_elements(elements), reference)
        assert report.max_abs_diff <= PROPERTY_TOL
        assert report.pattern_violations == []

        flipped = elements.copy()
        flipped[6] = -flipped[6]
        slipped = elements.copy()
        # a context manager, as hypothesis refuses the function-scoped monkeypatch fixture
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tavis_cummings, "_pair_block_amplitudes", slipped_amplitudes)
            slipped[7] = closed_form_grid([tau], [s], theta, n_max)[0, 0, 7]
        for variant, k, varied in (("r15 sign", 6, flipped), ("r26 slip", 7, slipped)):
            if abs(varied[k] - elements[k]) > VARIANT_MOVE:
                assert compare_states(states_from_elements(varied), reference).max_abs_diff > PROPERTY_TOL
                rejected[variant] += 1

    draw()
    assert rejected["r15 sign"] >= 1 and rejected["r26 slip"] >= 1


@pytest.mark.parametrize("tau", [20.0, 200.0, 1000.0, 5000.0])
@pytest.mark.parametrize("theta", [0.0, 1e-9, math.pi / 2.0, math.pi - 1e-15, math.pi])
def test_grid_matches_brute_force_evolution_at_long_tau(theta, tau):
    # Both sides round every phase tau * rate (the oracle's rates come from
    # its eigensolver) to about ulp(tau * rate), so their difference grows
    # linearly with tau: worst 6.0e-14 at tau 1,000 and 2.6e-13 at 5,000
    # (s = 1.6, theta = pi), where this bound is twenty times that
    bound = 1e-12 + 1e-15 * tau
    for s in (0.6, 1.6):
        n_max = deficit_n_max(s)
        elements = closed_form_grid([tau], [s], theta, n_max)[0, 0]
        reference = full_evolution_grid([tau], [s], [theta], n_max)[0, 0, 0]
        report = compare_states(states_from_elements(elements), reference)
        assert report.max_abs_diff <= bound
        assert report.pattern_violations == []


@pytest.mark.parametrize(
    "theta, u0_products, u1_products",
    # U0 = I and U1 = [I 0]; then U0 with a one in column 0 of every row and
    # a zero U1, and two dense factors, each of which takes five cos^2,
    # sin^2 and pair products with U0 and three coherence products with U1
    # per tau chunk
    [(math.pi, 0, 0), (0.0, 5, 3), (math.pi / 2.0, 5, 3)],
)
def test_identity_prefix_factors_take_no_product(theta, u0_products, u1_products, monkeypatch):
    matmul, operands = np.matmul, []

    def recording(a, b, *args, **kwargs):
        operands.append(b.shape)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    n_max, chunks = 30, 3
    size = n_max + 1
    taus = np.linspace(0.0, 20.0, 150)  # three tau chunks
    closed_form_grid(taus, [0.3, 1.2], theta, n_max)
    # U0.T is (size, size), U1.T (size, size - 1); the squeeze norms, (size, 2)
    # and (size - 1, 2), are multiplied in once per chunk and band
    expected = {
        (size, size): u0_products * chunks,
        (size, size - 1): u1_products * chunks,
        (size, 2): chunks,
        (size - 1, 2): chunks,
    }
    assert Counter(operands) == +Counter(expected)


def test_only_an_identity_with_zero_columns_after_it_is_an_identity_prefix():
    is_prefix = tavis_cummings._is_identity_prefix
    for factor in (np.eye(3), np.eye(3, 4), np.eye(1, 1), np.zeros((0, 1))):
        assert is_prefix(factor) is True
    refused = [
        np.eye(3)[[1, 0, 2]],
        np.eye(3, 4, k=1),
        np.eye(4, 3),  # a zero row after the identity
        np.diag([1.0, 2.0, 1.0]),
        np.diag([1.0, 0.5]),
        *tavis_cummings._field_factors(0.0, 25),  # a one in column 0 of every row, and zero
    ]
    for factor in refused:
        assert is_prefix(factor) is False


# 65 points are a full tau chunk and a chunk of one row, a single tau a chunk of one
CHUNK_AXES = (np.linspace(0.0, 20.0, 600), ORACLE_CHECK_TAUS, np.linspace(0.0, 20.0, 65), [14.5])


@pytest.mark.parametrize("n_max", [0, 1, 25, 80])
def test_identity_prefixes_equal_the_dense_product(n_max, monkeypatch):
    # theta = pi makes the factors I and [I 0], which take the leading
    # columns; told otherwise, the same factors take the BLAS product
    selected = [closed_form_grid(taus, SQUEEZES, math.pi, n_max) for taus in CHUNK_AXES]
    monkeypatch.setattr(tavis_cummings, "_is_identity_prefix", lambda factor: False)
    for taus, expected in zip(CHUNK_AXES, selected):
        assert np.array_equal(closed_form_grid(taus, SQUEEZES, math.pi, n_max), expected)


@pytest.mark.parametrize("n_max", [0, 1, 25, 80])
def test_full_reflection_leaves_every_atom_in_its_ground_state(n_max):
    # theta = 0 reflects all the light, so every point is |000> with the
    # norm that the truncation keeps, 1 - tanh(s)^(2 n_max + 2), to four
    # ulps of 1 (measured worst 2.5), and every other element is exactly 0
    kept = 1.0 - np.tanh(SQUEEZES) ** (2 * n_max + 2)
    for taus in CHUNK_AXES:
        elements = closed_form_grid(taus, SQUEEZES, 0.0, n_max)
        assert (elements[..., 1:] == 0.0).all()
        assert (np.abs(elements[..., 0] - kept) <= 4.0 * np.finfo(float).eps).all()


@pytest.mark.parametrize("points", [1, 7, 64])
@pytest.mark.parametrize("theta", [math.pi, 1.1], ids=["prefix", "blas"])
@pytest.mark.parametrize("band", [0, 1])
@pytest.mark.parametrize("shift", [0, 1])
def test_row_padded_products_equal_products_of_unpadded_copies(shift, band, theta, points):
    # rows of width n_max + 2, as the closed form's workspace holds them;
    # theta = pi makes the factors I and [I 0], 1.1 dense
    n_max = 25
    width = n_max + 2
    factor = tavis_cummings._field_factors(theta, n_max)[band]
    prefix = tavis_cummings._is_identity_prefix(factor)
    assert prefix == (theta == math.pi)
    m, k = factor.shape
    rng = np.random.default_rng(points + 10 * shift + 100 * band)
    x, y = rng.uniform(-1.0, 1.0, (2, points, width))
    expected = (x[:, :k].copy() * y[:, shift : shift + k].copy()) @ factor.T

    def product(x, y, fill):
        square, out = np.full((2, points, width), fill)
        return tavis_cummings._times_factor(x, y, shift, factor, prefix, square, out)[:, :m]

    got = product(x, y, 0.0)
    assert np.array_equal(got, expected)
    # other finite values in every column nothing reads: x's last, y's last
    # unless the shift reaches it, and all of the work and output buffers
    x[:, -1] = rng.uniform(-1e3, 1e3, points)
    if shift + k < width:
        y[:, -1] = rng.uniform(-1e3, 1e3, points)
    assert np.array_equal(product(x, y, 7.5), got)


def test_closed_form_rho_is_a_grid_of_one():
    config = FieldConfig(0.9, 1.1, 30)
    for tau in TAUS:
        elements = closed_form_grid([tau], [config.s], config.theta, config.n_max)[0, 0]
        expected = states_from_elements(elements)
        assert np.array_equal(closed_form_rho(tau, config).matrix, expected)


def test_closed_forms_keep_no_state_between_calls(monkeypatch):
    first = closed_form_grid(TAUS, SQUEEZES, 1.1, 25)
    turned = closed_form_grid(TAUS, SQUEEZES, 1.01 * 1.1, 25)
    # binomial rows of a wrong angle are read on the very next call
    table = tavis_cummings.binomial_amplitude_table
    monkeypatch.setattr(
        tavis_cummings, "binomial_amplitude_table", lambda n_max, theta: table(n_max, 1.01 * theta)
    )
    patched = closed_form_grid(TAUS, SQUEEZES, 1.1, 25)
    assert np.abs(patched - first).max() > 1e-3
    assert np.array_equal(patched, turned)


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


def uniform_grid_bound(taus, n_max):
    """How far an arithmetic axis's elements may lie from their per-point evaluation.

    Per point, cos and sin of the rounded phase fl(tau * rate) are off from
    those of the exact product by up to ulp(tau * rate) / 2, the addition
    path's by TRIG_TOL.  Every element is a sum of weights W[q, p] times a
    product of four block amplitudes, with sum |W| <= 1 (the rows of U0 sum
    to 1, those of U1 by Cauchy-Schwarz to at most 1, and so do the squeeze
    norms).  Each amplitude moves by at most as much as the cos or sin it is
    made of: |d stay / d cos| = q / (2q - 1), |d one_up / d sin| =
    sqrt(q / (2q - 1)) and |d two_up / d cos| = sqrt(q(q - 1)) / (2q - 1)
    are all at most 1.  So the two paths differ by at most 4 (ulp(tau_max *
    rate_max) / 2 + TRIG_TOL), plus ROW_TOL for each path's own rounding.
    The largest rate is the pair's sqrt(2(2q - 1)) at q = n_max + 1.
    """
    largest_phase = max(taus, default=0.0) * math.sqrt(4.0 * n_max + 2.0)
    return 4.0 * (np.spacing(largest_phase) / 2.0 + TRIG_TOL) + ROW_TOL


def cli_grid(start, end, steps):
    """The command line's sweep axis: start + i (end - start) / (steps - 1)."""
    return start + np.arange(steps) * (end - start) / (steps - 1)


@pytest.mark.parametrize("n_max", [0, 1, 80])
@pytest.mark.parametrize("squeezes", [[], [1.2], [0.3, 1.2, 2.0]], ids=["no-s", "one-s", "three-s"])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 150])
def test_tau_chunks_match_points(count, squeezes, n_max):
    # 63 to 65 points sit at the edge of one internal tau block, 150 span
    # three; at n_max 0 the coherence band has zero width.  From two points
    # on the axis is arithmetic and takes the angle-addition path, a single
    # tau the per-point one (measured worst 6.7e-16, against a bound of
    # 1.2e-13 at n_max 80)
    taus = np.linspace(0.0, 20.0, count + 1)[1:]
    grid = closed_form_grid(taus, squeezes, math.pi / 2.0, n_max)
    assert grid.shape == (count, len(squeezes), 8)
    points = [closed_form_grid([tau], squeezes, math.pi / 2.0, n_max)[0] for tau in taus]
    difference = np.abs(grid - np.reshape(points, grid.shape)).max(initial=0.0)
    assert difference <= uniform_grid_bound(taus, n_max)


def shifted_grids():
    """The production axis, and that axis moved by a seeded fraction of a step, as the benchmark's seeds move it."""
    step = 20.0 / 599.0
    offsets = [0.0] + [random.Random(seed).random() * step for seed in (1, 7)]
    return [cli_grid(offset, 20.0 + offset, 600) for offset in offsets]


@pytest.mark.parametrize("n_max", [0, 1, 80, 380])
@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0, 1.1, 0.0])
def test_arithmetic_axes_stay_within_the_bound_of_per_point_evaluation(theta, n_max):
    # a shuffled axis is not arithmetic, so it takes the per-point path for
    # the same taus; measured worst 8.9e-16 over these cases
    order = np.random.default_rng(3).permutation(600)
    back = np.argsort(order)
    for taus in shifted_grids():
        assert tavis_cummings._grid_residuals(taus) is not None
        assert tavis_cummings._grid_residuals(taus[order]) is None
        grid = closed_form_grid(taus, [0.3, 1.2], theta, n_max)
        points = closed_form_grid(taus[order], [0.3, 1.2], theta, n_max)[back]
        assert np.abs(grid - points).max() <= uniform_grid_bound(taus, n_max)


def split(x):
    """Veltkamp's split of a Python float into two halves of at most 26 significant bits."""
    scaled = 134217729.0 * x
    hi = scaled - (scaled - x)
    return hi, x - hi


def reference_trig(tau, rate):
    """cos and sin of the exact product tau * rate: Dekker's two-product, then math with the low part."""
    phase = tau * rate
    (tau_hi, tau_lo), (rate_hi, rate_lo) = split(tau), split(rate)
    low = ((tau_hi * rate_hi - phase) + tau_hi * rate_lo + tau_lo * rate_hi) + tau_lo * rate_lo
    cos, sin = math.cos(phase), math.sin(phase)
    return cos - low * sin, sin + low * cos


def chunk_trig(taus, rates):
    """cos and sin of taus x rates from `_tau_trig`, its chunks joined."""
    trig = tavis_cummings._tau_trig(taus, rates[None])
    cos, sin = zip(*(np.copy(trig(start)[:2])[:, 0] for start in range(0, len(taus), tavis_cummings._TAU_CHUNK)))
    return np.concatenate(cos), np.concatenate(sin)


@pytest.mark.parametrize(
    "taus",
    [
        cli_grid(0.0, 20.0, 600),
        shifted_grids()[1],
        cli_grid(0.0, 2000.0, 600),  # phases up to 36,000 rad
        cli_grid(5.0, 0.1, 150),  # descending
        np.linspace(0.37, 3.0, 65),  # a chunk of one point
    ],
    ids=["production", "shifted", "long", "descending", "linspace"],
)
def test_addition_trig_is_no_less_accurate_than_per_point(taus):
    # the phases of a closed form at n_max 80: the pair's sqrt(2(2q - 1)), q =
    # 1..81, and cavity 2's sqrt(p), p = 0..81
    rates = np.concatenate((np.sqrt(2.0 * (2.0 * np.arange(1.0, 82.0) - 1.0)), np.sqrt(np.arange(82.0))))
    assert tavis_cummings._grid_residuals(taus) is not None
    cos, sin = chunk_trig(taus, rates)
    reference = np.array([[reference_trig(tau, rate) for rate in rates.tolist()] for tau in taus.tolist()])
    phases = np.multiply.outer(taus, rates)
    per_point = max(np.abs(np.cos(phases) - reference[..., 0]).max(), np.abs(np.sin(phases) - reference[..., 1]).max())
    addition = max(np.abs(cos - reference[..., 0]).max(), np.abs(sin - reference[..., 1]).max())
    assert addition <= TRIG_TOL
    assert addition <= per_point


def nudged_grid():
    """The command line's 130-point axis on [0, 20] with point 100 moved by 1e-9."""
    taus = cli_grid(0.0, 20.0, 130)
    taus[100] += 1e-9
    return taus


# the last two pass the second-point shortcut of `_grid_residuals` and fail
# its check of every residual
@pytest.mark.parametrize(
    "taus",
    [[14.5], [0.3, 0.8, 2.0, 14.5], [0.0, 1.0, 2.0, 3.0 + 1e-9], [1e300, 2e300], [0.0, 1.0, 2.5, 3.0], nudged_grid()],
    ids=["one", "oracle", "off-by-1e-9", "beyond-the-split", "uneven-after-two", "nudged-in-chunk-two"],
)
def test_other_axes_take_the_per_point_path(taus):
    taus = np.array(taus, dtype=float)
    rates = np.sqrt(np.arange(10.0))
    assert tavis_cummings._grid_residuals(taus) is None
    cos, sin = chunk_trig(taus, rates)
    assert np.array_equal(cos, np.cos(np.multiply.outer(taus, rates)))
    assert np.array_equal(sin, np.sin(np.multiply.outer(taus, rates)))


@pytest.mark.parametrize("theta", [math.pi / 2.0, 1.1])
def test_arithmetic_axis_matches_brute_force_evolution(theta):
    # two tau chunks of the angle-addition path against the oracle
    taus = cli_grid(0.0, 20.0, 65)
    assert tavis_cummings._grid_residuals(taus) is not None
    grid = closed_form_grid(taus, [0.3, 1.2], theta, 6)
    reference = full_evolution_grid(taus, [0.3, 1.2], theta, 6)[0]
    assert np.abs(states_from_elements(grid) - reference).max() <= REFERENCE_TOL


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_refuses_a_tau_whose_phase_overflows():
    # at n_max 5 the largest rate is the pair's sqrt(22): a finite tau of
    # 1e308 has an infinite phase, whose cos and sin would be NaN; at n_max 0
    # the rate sqrt2 keeps the same tau's phase finite
    message = r"^tau must keep its phase tau \* 4.69042 finite, got 1e\+308$"
    with pytest.raises(ValueError, match=message):
        closed_form_grid([0.1, 1e308], [0.5], 1.0, 5)
    with pytest.raises(ValueError, match=message):
        closed_form_rho(1e308, FieldConfig(0.5, 1.0, 5))
    assert np.isfinite(closed_form_grid([0.1, 1e308], [0.5], 1.0, 0)).all()


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
        # n_max 4 has the largest rate sqrt(18): a finite tau whose phase overflows
        (["--mode", "single-point", "--tau", "1e308"], "tau must keep its phase tau * 4.24264 finite, got 1e+308"),
        (["--mode", "tau-sweep", "--tau-end", "5e307"], "tau must keep its phase tau * 4.24264 finite, got 5e+307"),
        # `_grid` multiplies the span by each step index, up to tau_steps - 1 = 2
        (
            ["--mode", "tau-sweep", "--tau-end", "1e308"],
            "tau_end must keep (tau_end - tau_start) * (tau_steps - 1) finite, "
            "got tau_start=0.0 tau_end=1e+308 tau_steps=3",
        ),
        (
            ["--mode", "s-sweep", "--s-end", "1e308"],
            "s_end must keep (s_end - s_start) * (s_steps - 1) finite, got s_start=0.0 s_end=1e+308 s_steps=3",
        ),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_names_the_bad_parameter(args, message, capsys):
    # each is refused before any trig, so no RuntimeWarning is raised
    assert main([*args, "--n-max", "4", "--tau-steps", "3", "--s-steps", "3"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
