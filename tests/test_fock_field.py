import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity3q import (
    FieldConfig,
    binomial_amplitude_row,
    binomial_amplitude_table,
    closed_form_grid,
    closed_form_rho,
    full_evolution,
    full_evolution_grid,
    truncation_deficit,
    truncation_deficits,
)
from cavity3q.fock_field import require_photon_number
from cavity3q.oracle import _beam_splitter_columns
from cavity3q.tavis_cummings import _field_factors, _squeeze_norms


def squeezed_weight(n: int, s: float) -> float:
    """Amplitude ``tanh(s)**n / cosh(s)`` of the |n, n> squeezed-pair component."""
    return math.tanh(s) ** n / math.cosh(s)


def _weights(s: float, theta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Field-weight tables W0 (diagonal band) and W1 (m = n + 1 band) indexed by (q, p)."""
    u0, u1 = _field_factors(theta, n_max)
    norm0, norm1 = _squeeze_norms(np.array([s]), n_max + 1)
    return u0.T @ (norm0[0][:, None] * u0), u1.T @ (norm1[0][:, None] * u1)


def test_binomial_amplitude_special_angles():
    assert binomial_amplitude_row(3, math.pi)[0] == pytest.approx(1.0, abs=1e-15)
    assert binomial_amplitude_row(3, 0.0)[3] == pytest.approx(1.0, abs=1e-15)
    # full transmission leaves nothing in the reflected port
    for n in range(1, 6):
        assert binomial_amplitude_row(n, math.pi)[n] == 0.0


def test_binomial_amplitude_direct_value():
    assert binomial_amplitude_row(2, math.pi / 2)[1] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_binomial_amplitude_rejects_bad_indices():
    with pytest.raises(ValueError):
        binomial_amplitude_row(-1, 1.0)
    with pytest.raises(ValueError):
        binomial_amplitude_row(2.0, 1.0)
    with pytest.raises(ValueError):
        binomial_amplitude_row(2, 3.5)


def test_binomial_row_matches_scalar():
    for n in (0, 1, 4, 9):
        for theta in (0.0, 0.4, math.pi / 2, 2.8, math.pi):
            row = binomial_amplitude_row(n, theta)
            for k in range(n + 1):
                direct = (
                    math.sqrt(math.comb(n, k))
                    * math.cos(theta / 2) ** k
                    * math.sin(theta / 2) ** (n - k)
                )
                assert row[k] == pytest.approx(direct, abs=1e-14)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 20), st.floats(0.0, math.pi, allow_nan=False))
def test_binomial_normalization(n, theta):
    row = binomial_amplitude_row(n, theta)
    assert math.fsum((row * row).tolist()) == pytest.approx(1.0, abs=1e-12)


def _per_row_reference(n: int, theta: float) -> np.ndarray:
    """One row from its own list of log-factorials, as each row was built before the table."""
    cos_half, sin_half = math.cos(0.5 * theta), math.sin(0.5 * theta)
    k = np.arange(n + 1)
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    log_amp = (
        0.5 * (log_fact[n] - log_fact - log_fact[::-1])
        + k * math.log(cos_half)
        + (n - k) * math.log(sin_half)
    )
    return np.exp(log_amp)


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, 1.1, 2.8])
def test_binomial_table_rows_match_per_row_evaluation(theta):
    for n_max in (40, 80):
        table = binomial_amplitude_table(n_max, theta)
        assert table.shape == (n_max + 1, n_max + 1)
        for n in range(n_max + 1):
            reference = _per_row_reference(n, theta)
            assert np.abs(table[n, : n + 1] - reference).max() <= 1e-15 * reference.max()
            assert np.array_equal(table[n, : n + 1], binomial_amplitude_row(n, theta))
            assert not table[n, n + 1 :].any()


def test_binomial_table_special_angles_and_guards():
    assert np.array_equal(binomial_amplitude_table(4, math.pi), np.eye(5)[[0] * 5])
    assert np.array_equal(binomial_amplitude_table(4, 0.0), np.eye(5))
    for n_max in (-1, True, 2.0):
        with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
            binomial_amplitude_table(n_max, 1.0)


def test_binomial_amplitude_large_n_stays_finite():
    assert np.isfinite(binomial_amplitude_row(160, math.pi / 2)).all()
    assert math.fsum((binomial_amplitude_row(160, 1.9) ** 2).tolist()) == pytest.approx(1.0, abs=1e-11)


def test_field_weight_is_four_amplitude_product():
    # the rank factors are products of binomial rows, so each coherence-band
    # weight is a sum over n of four-amplitude products C_k^n C_k^m C_l^n C_l^m
    theta, s, n_max = math.pi / 2, 0.7, 5
    rows = [binomial_amplitude_row(n, theta) for n in range(n_max + 2)]
    u0, u1 = _field_factors(theta, n_max)
    for n in range(n_max + 1):
        for k in range(n + 1):
            assert u0[n, n - k] == pytest.approx(rows[n][k] ** 2, rel=1e-14)
            if n < n_max:
                assert u1[n, n - k] == pytest.approx(rows[n][k] * rows[n + 1][k], rel=1e-14)
    _, w1 = _weights(s, theta, n_max)
    q, p = 2, 1
    expected = math.fsum(
        squeezed_weight(n, s)
        * squeezed_weight(n + 1, s)
        * rows[n][n - q]
        * rows[n + 1][n - q]
        * rows[n][n - p]
        * rows[n + 1][n - p]
        for n in range(q, n_max)
    )
    assert w1[q, p] == pytest.approx(expected, rel=1e-14)


def test_field_weight_special_cases():
    # full transmission: only k = l = 0 survives, so q = p = n with unit amplitude
    u0, u1 = _field_factors(math.pi, 5)
    assert np.array_equal(u0, np.eye(6))
    assert np.array_equal(u1, np.eye(5, 6))


def test_field_weight_diagonal_nonnegative():
    u0, _ = _field_factors(2.1, 5)
    w0, _ = _weights(0.9, 2.1, 5)
    assert (u0 >= 0.0).all()
    assert (w0 >= 0.0).all()


def test_squeezed_weight_values():
    # the production norms are products of two squeezed-pair amplitudes
    norm0, norm1 = _squeeze_norms(np.array([0.0, 1.2]), 6)
    assert norm0[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert not norm1[0].any()
    assert math.sqrt(norm0[1, 2]) == pytest.approx(0.3838278, abs=1e-7)
    for n in range(5):
        assert norm0[1, n] == pytest.approx(squeezed_weight(n, 1.2) ** 2, rel=1e-14)
        pair = squeezed_weight(n, 1.2) * squeezed_weight(n + 1, 1.2)
        assert norm1[1, n] == pytest.approx(pair, rel=1e-14)


def test_enumerate_vacuum_single_term():
    w0, w1 = _weights(0.0, 1.3, 6)
    expected = np.zeros((7, 7))
    expected[0, 0] = 1.0
    assert np.array_equal(w0, expected)
    assert not w1.any()


def test_enumerate_full_transmission_keeps_only_k0_l0():
    # k = l = 0 puts all n photons in both cavities: weights only where q = p = n
    s, n_max = 0.5, 8
    w0, w1 = _weights(s, math.pi, n_max)
    norm0, norm1 = _squeeze_norms(np.array([s]), n_max + 1)
    assert np.array_equal(w0, np.diag(norm0[0]))
    assert np.array_equal(w1[:-1, :-1], np.diag(norm1[0]))
    assert not w1[-1].any() and not w1[:, -1].any()
    assert (norm0 > 0.0).all() and (norm1 > 0.0).all()


def test_enumerate_term_count():
    # at a generic angle every (n, k, l) four-amplitude product is nonzero
    u0, _ = _field_factors(math.pi / 2, 3)
    assert sum(np.count_nonzero(row) ** 2 for row in u0) == sum((n + 1) ** 2 for n in range(4))  # 30


def test_enumerate_band_bounds_and_order():
    # row n of each factor covers q = n - k for 0 <= k <= n only; the
    # coherence band stops at m = n + 1 <= n_max
    u0, u1 = _field_factors(2.0, 5)
    assert u0.shape == (6, 6) and u1.shape == (5, 6)
    for factor in (u0, u1):
        assert not np.triu(factor, 1).any()
        assert (np.diagonal(factor) > 0.0).all()


def test_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(-0.1, 1.0, 5)
    with pytest.raises(ValueError):
        FieldConfig(0.5, 3.5, 5)
    with pytest.raises(ValueError):
        FieldConfig(0.5, 1.0, -1)


def test_truncation_deficit_values():
    assert truncation_deficit(FieldConfig(0.0, 1.0, 0)) == 0.0
    assert truncation_deficit(FieldConfig(1.2, math.pi, 80)) < 1e-12


def test_truncation_deficit_matches_partial_sum():
    for s, n_max in [(0.9, 10), (1.2, 25), (0.3, 4)]:
        cfg = FieldConfig(s, 1.0, n_max)
        partial = math.fsum(squeezed_weight(n, s) ** 2 for n in range(n_max + 1))
        assert truncation_deficit(cfg) == pytest.approx(1.0 - partial, abs=1e-14)


def test_truncation_deficit_strictly_decreasing():
    values = [truncation_deficit(FieldConfig(1.2, 1.0, n)) for n in range(12)]
    assert all(a > b > 0.0 for a, b in zip(values, values[1:]))


def test_band0_weights_reproduce_trace():
    # the diagonal band carries the whole trace: its weights plus the
    # truncation deficit must reproduce unity, and separately agree with the
    # squeezed-amplitude marginal
    cfg = FieldConfig(1.2, math.pi / 2, 80)
    w0, _ = _weights(cfg.s, cfg.theta, cfg.n_max)
    total = math.fsum(w0.ravel().tolist())
    assert total + truncation_deficit(cfg) == pytest.approx(1.0, abs=1e-10)
    marginal = math.fsum(squeezed_weight(n, cfg.s) ** 2 for n in range(cfg.n_max + 1))
    assert total == pytest.approx(marginal, abs=1e-12)


def test_beam_splitter_reproduces_binomial_amplitudes():
    # the oracle's beam-splitter columns, from a Chebyshev series of the
    # generator over every photon block, against the exact binomials
    # sqrt(C(n, k)) cos^k(theta/2) sin^(n-k)(theta/2) (measured worst
    # 1.2e-15); the transmitted photons carry an alternating sign that
    # cancels in every density-matrix weight
    n_max = 80
    thetas = (0.0, 0.4, 0.7, math.pi / 3, math.pi / 2, 1.1, 2.4, math.pi)
    for theta, amps in zip(thetas, _beam_splitter_columns(thetas, n_max)):
        cos_half, sin_half = math.cos(theta / 2), math.sin(theta / 2)
        for n in range(n_max + 1):
            expected = [
                (-1) ** (n - k) * math.sqrt(math.comb(n, k)) * cos_half**k * sin_half ** (n - k)
                for k in range(n + 1)
            ]
            assert np.abs(amps[n, : n + 1] - expected).max() <= 1e-14, (theta, n)
            assert not amps[n, n + 1 :].any()


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_squeezing(s):
    with pytest.raises(ValueError, match="squeeze parameter s must be finite and >= 0"):
        FieldConfig(s, 1.0, 5)


@pytest.mark.parametrize("s", [True, False, np.True_])
def test_squeezing_refuses_bools(s):
    # a bool would otherwise be read as 1.0 or 0.0
    message = "squeeze parameter s must be a finite number >= 0, not a bool"
    with pytest.raises(ValueError, match=message):
        FieldConfig(s, 1.0, 5)
    with pytest.raises(ValueError, match=message):
        truncation_deficits([s, s], 5)


# numpy would cut a complex value to its real part with only a ComplexWarning,
# read a numeric string as a number, and fail on None or "abc" with a message
# that names no parameter; the comparison in the angle check raised TypeError
NOT_REAL = [0.5j, 2 + 0j, np.complex128(0.5), [0.5, 1j], "abc", "1", None]
TAKES_A_NUMBER = {
    "grid tau": (lambda v: closed_form_grid(v, [1.0], 1.0, 10), "tau"),
    "grid s": (lambda v: closed_form_grid([1.0], v, 1.0, 10), "squeeze parameter s"),
    "grid theta": (lambda v: closed_form_grid([1.0], [1.0], v, 10), "theta"),
    "oracle tau": (lambda v: full_evolution_grid(v, [0.5], 1.0, 4), "tau"),
    "oracle s": (lambda v: full_evolution_grid([1.0], v, 1.0, 4), "squeeze parameter s"),
    "oracle theta": (lambda v: full_evolution_grid([1.0], [0.5], v, 4), "theta"),
    "config s": (lambda v: FieldConfig(v, 1.0, 10), "squeeze parameter s"),
    "config theta": (lambda v: FieldConfig(0.5, v, 10), "theta"),
    "deficits s": (lambda v: truncation_deficits(v, 10), "squeeze parameter s"),
}


@pytest.mark.parametrize("value", NOT_REAL)
@pytest.mark.parametrize("entry", list(TAKES_A_NUMBER), ids=list(TAKES_A_NUMBER))
def test_non_real_inputs_are_refused_by_name(entry, value):
    call, name = TAKES_A_NUMBER[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a finite real number")):
        call(value)


SCALARS = {
    "config s": (lambda v: FieldConfig(v, 1.0, 10), "squeeze parameter s"),
    "config theta": (lambda v: FieldConfig(0.5, v, 10), "theta"),
    "grid theta": (lambda v: closed_form_grid([1.0], [1.0], v, 10), "theta"),
    "closed form tau": (lambda v: closed_form_rho(v, FieldConfig(0.5, 1.0, 10)), "tau"),
    "oracle point tau": (lambda v: full_evolution(FieldConfig(0.5, 1.0, 4), v), "tau"),
}


@pytest.mark.parametrize("value", [[0.5, 1.5], [0.5], np.array([0.5])])
@pytest.mark.parametrize("entry", list(SCALARS), ids=list(SCALARS))
def test_scalar_inputs_refuse_sequences(entry, value):
    # a sequence would otherwise be evaluated at its first entry and stored whole
    call, name = SCALARS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be one number, not a sequence")):
        call(value)


def test_config_rejects_bool_n_max():
    with pytest.raises(ValueError, match="n_max must be a non-negative integer, got True"):
        FieldConfig(0.5, 1.0, True)


# bools pass isinstance(int); floats and negatives are not photon numbers
BAD_PHOTON_NUMBERS = [True, False, -1, 2.0, np.float64(1.0)]


def photon_number_error(name, value):
    return re.escape(f"{name} must be a non-negative integer, got {value!r}")


@pytest.mark.parametrize("value", BAD_PHOTON_NUMBERS)
def test_require_photon_number_names_the_parameter(value):
    with pytest.raises(ValueError, match=photon_number_error("photons kept", value)):
        require_photon_number("photons kept", value)
    require_photon_number("photons kept", np.int64(3))


@pytest.mark.parametrize("value", BAD_PHOTON_NUMBERS)
def test_binomial_amplitude_row_rejects_bad_photon_number(value):
    with pytest.raises(ValueError, match=photon_number_error("photon number n", value)):
        binomial_amplitude_row(value, 1.0)

