import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity3q import (
    FieldConfig,
    binomial_amplitude,
    binomial_amplitude_row,
    enumerate_field_terms,
    field_weight,
    squeezed_weight,
    truncated_beam_splitter,
    truncation_deficit,
)


def test_binomial_amplitude_special_angles():
    assert binomial_amplitude(3, 0, math.pi) == pytest.approx(1.0, abs=1e-15)
    assert binomial_amplitude(3, 3, 0.0) == pytest.approx(1.0, abs=1e-15)
    # full transmission leaves nothing in the reflected port
    for n in range(1, 6):
        assert binomial_amplitude(n, n, math.pi) == 0.0


def test_binomial_amplitude_direct_value():
    assert binomial_amplitude(2, 1, math.pi / 2) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_binomial_amplitude_rejects_bad_indices():
    with pytest.raises(ValueError):
        binomial_amplitude(2, 3, 1.0)
    with pytest.raises(ValueError):
        binomial_amplitude(-1, 0, 1.0)
    with pytest.raises(ValueError):
        binomial_amplitude(2, -1, 1.0)


def test_binomial_row_matches_scalar():
    for n in (0, 1, 4, 9):
        for theta in (0.0, 0.4, math.pi / 2, 2.8, math.pi):
            row = binomial_amplitude_row(n, theta)
            for k in range(n + 1):
                assert row[k] == pytest.approx(binomial_amplitude(n, k, theta), abs=1e-14)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 20), st.floats(0.0, math.pi, allow_nan=False))
def test_binomial_normalization(n, theta):
    row = binomial_amplitude_row(n, theta)
    assert math.fsum((row * row).tolist()) == pytest.approx(1.0, abs=1e-12)


def test_binomial_amplitude_large_n_stays_finite():
    vals = [binomial_amplitude(160, k, math.pi / 2) for k in range(0, 161, 16)]
    assert all(np.isfinite(vals))
    assert math.fsum((binomial_amplitude_row(160, 1.9) ** 2).tolist()) == pytest.approx(1.0, abs=1e-11)


def test_field_weight_is_four_amplitude_product():
    n, m, k, l, theta = 2, 3, 1, 0, math.pi / 2
    expected = (
        binomial_amplitude(n, k, theta)
        * binomial_amplitude(m, k, theta)
        * binomial_amplitude(n, l, theta)
        * binomial_amplitude(m, l, theta)
    )
    assert field_weight(n, m, k, l, theta) == pytest.approx(expected, rel=1e-14)


def test_field_weight_special_cases():
    assert field_weight(5, 5, 0, 0, math.pi) == pytest.approx(1.0, abs=1e-15)
    for n in range(1, 5):
        assert field_weight(n, n, n, 0, math.pi) == 0.0


def test_field_weight_diagonal_nonnegative():
    for n in range(6):
        for k in range(n + 1):
            for l in range(n + 1):
                assert field_weight(n, n, k, l, 2.1) >= 0.0


def test_field_weight_rejects_bad_indices():
    with pytest.raises(ValueError):
        field_weight(2, 3, 3, 0, 1.0)
    with pytest.raises(ValueError):
        field_weight(2, 3, 0, -1, 1.0)


def test_squeezed_weight_values():
    assert squeezed_weight(0, 0.0) == 1.0
    assert squeezed_weight(1, 0.0) == 0.0
    direct = math.tanh(1.2) ** 2 / math.cosh(1.2)
    assert squeezed_weight(2, 1.2) == pytest.approx(direct, rel=1e-15)
    assert squeezed_weight(2, 1.2) == pytest.approx(0.3838278, abs=1e-7)


def test_squeezed_weight_rejects_bad_input():
    with pytest.raises(ValueError):
        squeezed_weight(-1, 0.5)
    with pytest.raises(ValueError):
        squeezed_weight(1, -0.5)


def test_enumerate_vacuum_single_term():
    terms = list(enumerate_field_terms(FieldConfig(0.0, 1.3, 6), 0))
    assert terms == [(0, 0, 0, 0, 1.0)]
    assert list(enumerate_field_terms(FieldConfig(0.0, 1.3, 6), 1)) == []


def test_enumerate_full_transmission_keeps_only_k0_l0():
    for band in (0, 1):
        for term in enumerate_field_terms(FieldConfig(0.5, math.pi, 8), band):
            assert term.k == 0 and term.l == 0
            assert term.weight > 0.0


def test_enumerate_term_count():
    terms = list(enumerate_field_terms(FieldConfig(0.5, math.pi / 2, 3), 0))
    assert len(terms) == sum((n + 1) ** 2 for n in range(4))  # 30


def test_enumerate_band_bounds_and_order():
    cfg = FieldConfig(0.7, 2.0, 5)
    for band in (0, 1):
        terms = list(enumerate_field_terms(cfg, band))
        assert all(t.m == t.n + band for t in terms)
        assert all(t.m <= cfg.n_max for t in terms)
        assert all(0 <= t.k <= t.n and 0 <= t.l <= t.n for t in terms)
        keys = [(t.n, t.k, t.l) for t in terms]
        assert keys == sorted(keys)


def test_enumerate_rejects_bad_band():
    with pytest.raises(ValueError):
        list(enumerate_field_terms(FieldConfig(0.5, 1.0, 3), 2))


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
    total = math.fsum(t.weight for t in enumerate_field_terms(cfg, 0))
    assert total + truncation_deficit(cfg) == pytest.approx(1.0, abs=1e-10)
    marginal = math.fsum(squeezed_weight(n, cfg.s) ** 2 for n in range(cfg.n_max + 1))
    assert total == pytest.approx(marginal, abs=1e-12)


def test_beam_splitter_reproduces_binomial_amplitudes():
    # the numerically exponentiated beam splitter acting on |n>_ext |0>_cav
    # must reproduce the analytic amplitudes; the transmitted photons carry
    # an alternating sign that cancels in every density-matrix weight
    dim = 15
    for theta in (0.7, math.pi / 2, 2.4, math.pi):
        bs = truncated_beam_splitter(theta, dim)
        for n in range(13):
            column = bs[:, n * dim]
            for k in range(n + 1):
                amp = column[k * dim + (n - k)]
                expected = (-1.0) ** (n - k) * binomial_amplitude(n, k, theta)
                assert abs(amp - expected) < 1e-10


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_squeezing(s):
    with pytest.raises(ValueError, match="squeeze parameter s must be finite and >= 0"):
        FieldConfig(s, 1.0, 5)


def test_config_rejects_bool_n_max():
    with pytest.raises(ValueError, match="n_max must be a non-negative integer, got True"):
        FieldConfig(0.5, 1.0, True)
