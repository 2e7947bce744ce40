import math
import re

import numpy as np
import pytest

from cavity3q import (
    FieldConfig,
    closed_form_rho,
    compare_states,
    diagonal_probabilities,
    full_evolution,
    hamiltonian_block_evolution,
    one_atom_unitary,
    pattern_violations,
    truncation_deficit,
    two_atom_unitary,
)

SWAP_A1_A2 = [0, 2, 1, 3, 4, 6, 5, 7]


def assert_unitary(u, tol):
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < tol


def test_block_unitarity_over_grid():
    for tau in (0.0, 0.3, 0.7, 2.0, 14.5):
        for n in range(12):
            assert_unitary(two_atom_unitary(n, tau), 1e-12)
            assert_unitary(one_atom_unitary(n, tau), 1e-12)


def test_two_atom_small_photon_numbers():
    assert two_atom_unitary(0, 1.7).shape == (1, 1)
    assert two_atom_unitary(0, 1.7)[0, 0] == 1.0

    u1 = two_atom_unitary(1, 0.9)
    assert u1.shape == (2, 2)
    assert u1[0, 0] == pytest.approx(math.cos(math.sqrt(2.0) * 0.9), abs=1e-15)

    assert np.abs(two_atom_unitary(5, 0.0) - np.eye(3)).max() < 1e-15


def test_one_atom_values():
    assert one_atom_unitary(0, 2.3).shape == (1, 1)
    assert one_atom_unitary(0, 2.3)[0, 0] == 1.0

    # full excitation transfer at a quarter Rabi period; both off-diagonals
    # carry the -i of exp(-iH tau)
    u = one_atom_unitary(1, math.pi / 2.0)
    assert abs(u[0, 0]) < 1e-15 and abs(u[1, 1]) < 1e-15
    assert u[0, 1] == pytest.approx(-1j, abs=1e-15)
    assert u[1, 0] == pytest.approx(-1j, abs=1e-15)


def test_blocks_match_exponentiated_hamiltonian():
    diff2 = np.abs(two_atom_unitary(4, 0.7) - hamiltonian_block_evolution(4, 0.7, "two-atom")).max()
    assert diff2 < 1e-10
    diff1 = np.abs(one_atom_unitary(3, 0.4) - hamiltonian_block_evolution(3, 0.4, "one-atom")).max()
    assert diff1 < 1e-12
    # the reduced n = 1 block too
    diffr = np.abs(two_atom_unitary(1, 1.3) - hamiltonian_block_evolution(1, 1.3, "two-atom")).max()
    assert diffr < 1e-12


@pytest.mark.parametrize("value", [True, False, -1, 2.0])
@pytest.mark.parametrize(
    "block, name",
    [
        (two_atom_unitary, "photon number n"),
        (one_atom_unitary, "photon number m"),
        (lambda n, tau: hamiltonian_block_evolution(n, tau, "two-atom"), "photon number n_or_m"),
        (lambda m, tau: hamiltonian_block_evolution(m, tau, "one-atom"), "photon number n_or_m"),
    ],
)
def test_blocks_reject_bad_photon_numbers(block, name, value):
    message = re.escape(f"{name} must be a non-negative integer, got {value!r}")
    with pytest.raises(ValueError, match=message):
        block(value, 0.5)


def test_blocks_reject_negative_photon_numbers():
    with pytest.raises(ValueError):
        two_atom_unitary(-1, 0.5)
    with pytest.raises(ValueError):
        one_atom_unitary(-2, 0.5)


def test_closed_form_at_tau_zero():
    cfg = FieldConfig(0.9, 2.0, 25)
    rho = closed_form_rho(0.0, cfg).matrix
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0 - truncation_deficit(cfg)
    assert np.abs(rho - expected).max() < 1e-12


def test_closed_form_without_squeezing():
    rho = closed_form_rho(3.7, FieldConfig(0.0, 2.0, 25)).matrix
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert np.abs(rho)[1:, :].max() == 0.0


def test_closed_form_state_contracts():
    cfg = FieldConfig(0.9, 2.2, 30)
    for tau in (0.3, 0.8, 2.0, 14.5):
        rho = closed_form_rho(tau, cfg)
        m = rho.matrix
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert rho.trace() == pytest.approx(1.0 - truncation_deficit(cfg), abs=1e-10)
        assert np.linalg.eigvalsh(m).min() > -1e-10
        assert not pattern_violations(m, 1e-10)
        swapped = m[np.ix_(SWAP_A1_A2, SWAP_A1_A2)]
        assert np.array_equal(swapped, m)


def test_closed_form_rejects_negative_tau():
    with pytest.raises(ValueError):
        closed_form_rho(-0.1, FieldConfig(0.5, 1.0, 5))


def test_closed_form_matches_oracle_at_full_transmission():
    cfg = FieldConfig(0.5, math.pi, 40)
    report = compare_states(closed_form_rho(1.0, cfg), full_evolution(cfg, 1.0))
    assert report.max_abs_diff < 1e-8
    assert not report.pattern_violations


def test_closed_form_matches_oracle_generic_angle():
    cfg = FieldConfig(0.6, math.pi / 3.0, 12)
    for tau in (0.7, 2.0):
        report = compare_states(closed_form_rho(tau, cfg), full_evolution(cfg, tau))
        assert report.max_abs_diff < 1e-10
        assert not report.pattern_violations


def test_diagonal_probabilities():
    cfg = FieldConfig(1.2, math.pi, 60)
    rho = closed_form_rho(0.0, cfg)
    probs = diagonal_probabilities(rho)
    assert probs[0] == pytest.approx(1.0 - truncation_deficit(cfg), abs=1e-12)
    assert np.abs(probs[1:]).max() < 1e-15

    rho = closed_form_rho(2.3, cfg)
    assert math.fsum(diagonal_probabilities(rho).tolist()) == pytest.approx(rho.trace(), abs=1e-12)


def test_probability_drop_anchor():
    # ground-state occupation at tau = 0.8 for the production configuration
    rho = closed_form_rho(0.8, FieldConfig(1.2, math.pi, 80))
    assert diagonal_probabilities(rho)[0] == pytest.approx(0.34, abs=0.01)
