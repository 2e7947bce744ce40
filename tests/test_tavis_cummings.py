import math

import numpy as np
import pytest

from cavity3q import (
    PATTERN_MASK,
    FieldConfig,
    closed_form_grid,
    closed_form_rho,
    compare_states,
    diagonal_probabilities,
    full_evolution,
    states_from_elements,
    truncation_deficit,
)
from cavity3q.oracle import _evolved_components
from cavity3q.tavis_cummings import _elements_of_states, _pair_block_amplitudes

SWAP_A1_A2 = [0, 2, 1, 3, 4, 6, 5, 7]
TAUS = np.array([0.0, 0.3, 0.7, 2.0, 14.5])


def symmetric_ladder(taus, count):
    """The brute-force evolved kets |gg, q> of the c1 pair on the symmetric ladder.

    Per tau and q: the amplitudes of |gg, q>, of (|eg> + |ge>)/sqrt2 with
    q - 1 photons and of |ee> with q - 2 photons, and the largest amplitude
    off that ladder, from `_evolved_components` in the bare product basis
    (atom index a1 + 2 a2).
    """
    psi = _evolved_components(2, count + 2, taus, count)
    q = np.arange(count)
    below = np.maximum(q - 1, 0)
    ladder = np.stack(
        [
            psi[:, q, 0, q],
            (psi[:, q, 1, below] + psi[:, q, 2, below]) / math.sqrt(2.0),
            psi[:, q, 3, np.maximum(q - 2, 0)],
        ]
    )
    # q = 0 has no lower rungs and q = 1 no |ee> rung
    ladder[1:, :, 0] = 0.0
    ladder[2, :, 1] = 0.0
    rest = np.linalg.norm(psi.reshape(len(taus), count, -1), axis=-1) ** 2 - (
        np.abs(ladder) ** 2
    ).sum(axis=0)
    return ladder, np.abs(rest).max()


def pair_amplitudes(taus, count):
    """`_pair_block_amplitudes` at the pair's phases sqrt(2(2q-1)) tau, q = 1..count-1, after q = 0's rate 0."""
    rates = np.concatenate(([0.0], np.sqrt(2.0 * (2.0 * np.arange(1, count) - 1.0))))
    phase = np.multiply.outer(taus, rates)
    return _pair_block_amplitudes(np.cos(phase), np.sin(phase), np.empty(phase.shape))


def test_block_unitarity_over_grid():
    # the evolved |gg, q> stays normalised on its three rungs
    stay, one_up, two_up = pair_amplitudes(TAUS, 12)
    assert np.abs(stay**2 + one_up**2 + two_up**2 - 1.0).max() < 1e-14


def test_two_atom_small_photon_numbers():
    stay, one_up, two_up = pair_amplitudes(np.array([1.7, 0.9]), 3)
    # an empty cavity moves nothing
    assert stay[:, 0].tolist() == [1.0, 1.0]
    assert not one_up[:, 0].any() and not two_up[:, 0].any()
    # one photon: a two-level Rabi oscillation at rate sqrt2, no |ee> rung
    assert stay[1, 1] == pytest.approx(math.cos(math.sqrt(2.0) * 0.9), abs=1e-15)
    assert one_up[1, 1] == pytest.approx(math.sin(math.sqrt(2.0) * 0.9), abs=1e-15)
    assert not two_up[:, 1].any()
    # nothing moves at tau = 0
    stay, one_up, two_up = pair_amplitudes(np.array([0.0]), 8)
    assert (stay == 1.0).all() and not one_up.any() and not two_up.any()


def test_one_atom_values():
    # U(tau)|g, m> = cos(sqrt(m) tau)|g, m> - i sin(sqrt(m) tau)|e, m - 1>
    count = 10
    psi = _evolved_components(1, count + 2, TAUS, count)
    m = np.arange(count)
    phase = np.multiply.outer(TAUS, np.sqrt(m))
    assert np.abs(psi[:, m, 0, m] - np.cos(phase)).max() < 1e-12
    excited = m[1:]
    assert np.abs(psi[:, excited, 1, excited - 1] + 1j * np.sin(phase[:, 1:])).max() < 1e-12
    assert np.abs(psi[:, 0, 1]).max() < 1e-12
    # full excitation transfer at a quarter Rabi period, with the -i of exp(-iH tau)
    u = _evolved_components(1, 4, np.array([math.pi / 2.0]), 2)[0, 1]
    assert abs(u[0, 1]) < 1e-14
    assert u[1, 0] == pytest.approx(-1j, abs=1e-14)


def test_blocks_match_exponentiated_hamiltonian():
    # the closed-form amplitudes against the symmetric-ladder projection of
    # the bare-basis propagator; the one-photon rung carries the -i of exp(-iH tau)
    count = 12
    ladder, off_ladder = symmetric_ladder(TAUS, count)
    stay, one_up, two_up = pair_amplitudes(TAUS, count)
    assert np.abs(ladder[0] - stay).max() < 1e-12
    assert np.abs(ladder[1] + 1j * one_up).max() < 1e-12
    assert np.abs(ladder[2] - two_up).max() < 1e-12
    # nothing leaves the ladder: the antisymmetric state is never populated
    assert off_ladder < 1e-12


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
        assert np.trace(m) == pytest.approx(1.0 - truncation_deficit(cfg), abs=1e-10)
        assert np.linalg.eigvalsh(m).min() > -1e-10
        assert not (np.abs(m[~PATTERN_MASK]) > 1e-10).any()
        swapped = m[np.ix_(SWAP_A1_A2, SWAP_A1_A2)]
        assert np.array_equal(swapped, m)


@pytest.mark.parametrize(
    "call, value, message",
    [(states_from_elements, np.zeros(7), r"elements must have a last axis of 8, got shape \(7,\)")],
    ids=["elements-7"],
)
def test_public_helpers_refuse_wrong_shapes_by_name(call, value, message):
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_states_from_elements_refuses_non_finite_elements_by_name(bad):
    elements = closed_form_grid([0.3, 2.0], [0.9], 2.0, 25)
    elements[1, 0, 6] = bad
    with pytest.raises(ValueError, match=rf"elements must be finite, got {bad}"):
        states_from_elements(elements)


@pytest.mark.parametrize(
    "elements, message",
    [
        (np.full(8, 0.1 + 0.2j), r"elements must be a finite real number each, got array"),
        (np.ones(8, dtype=bool), r"elements must be a finite number each, not a bool"),
        ([0.1] * 7 + [True], r"elements must be a finite number each, not a bool"),
    ],
    ids=["complex", "bool-array", "bool-in-list"],
)
def test_states_from_elements_refuses_complex_and_bool_elements_by_name(elements, message):
    # a complex element is not cut to its real part, a bool not read as 1.0
    with pytest.raises(ValueError, match=message):
        states_from_elements(elements)


def test_states_from_elements_accepts_integer_elements():
    state = states_from_elements(np.arange(8))
    assert state.dtype == np.float64
    assert np.array_equal(state, states_from_elements(np.arange(8.0)))


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0, math.pi / 3.0, 1.1, 0.0])
def test_elements_read_back_from_their_slots(theta):
    # the production tau sweep: 600 points at s = 1.2, n_max 80
    elements = closed_form_grid(np.linspace(0.0, 20.0, 600), [1.2], theta, 80)[:, 0]
    states = states_from_elements(elements)
    back, spread = _elements_of_states(states)
    assert not spread.any()
    assert np.array_equal(back[:, :6], elements[:, :6])
    # a coherence is stored over sqrt2 and read back over 2 sqrt2, and the
    # rounded sqrt2 squared is not 2: within two ulps, and bit for bit the
    # r15, r26 of the upper slots, (rho[0,5] + rho[0,6]) / sqrt2 and
    # (rho[1,7] + rho[2,7]) / sqrt2
    coherences = elements[:, 6:]
    assert (np.abs(back[:, 6:] - coherences) <= 2.0 * np.spacing(np.abs(coherences))).all()
    upper = [states[:, 0, 5] + states[:, 0, 6], states[:, 1, 7] + states[:, 2, 7]]
    assert np.array_equal(back[:, 6:], np.stack(upper, axis=-1) / math.sqrt(2.0))


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
    assert math.fsum(diagonal_probabilities(rho).tolist()) == pytest.approx(np.trace(rho.matrix), abs=1e-12)


def test_probability_drop_anchor():
    # ground-state occupation at tau = 0.8 for the production configuration
    rho = closed_form_rho(0.8, FieldConfig(1.2, math.pi, 80))
    assert diagonal_probabilities(rho)[0] == pytest.approx(0.34, abs=0.01)
