"""The model's phase symmetry and what it certifies: the W class, and a 2x3 cut for Bob.

The squeezed source puts photons into the two arms in pairs, the beam
splitters keep each arm's photon number, and each cavity's resonant coupling
keeps its photons plus its atoms' excitations.  So the atoms' state, with
every field traced out, commutes with the charge q = n_A1 + n_A2 - n_B: its
entries vanish off {q(i) = q(j)}, which is `PATTERN_MASK`.

* Inside one charge sector every term of Cayley's hyperdeterminant vanishes,
  so every ket there has zero three-tangle (Coffman, Kundu & Wootters, PRA
  61, 052306 (2000)).  A state on the charge support is block diagonal by
  sector, so its eigendecomposition is one into such kets, which puts it in
  the W class (Acin, Bruss, Lewenstein & Sanpera, PRL 87, 040401 (2001)):
  no GHZ, at any tau, s, theta and n_max.
* The state has no weight on the A1A2 singlet, so across B | A1A2 it lives
  on a 2x3 space, where PPT implies separable (Horodecki, Horodecki &
  Horodecki, PLA 223, 1 (1996)).
"""

import math

import numpy as np
import pytest

from cavity3q import PATTERN_MASK, W1_STATE, closed_form_grid, states_from_elements
from cavity3q.cli import SweepConfig
from test_diagnostics_reference import oracle_states

# The label |x y z> of basis index x + 2y + 4z, qubits A1 A2 B.
LABELS = ["".join(str(index >> bit & 1) for bit in range(3)) for index in range(8)]

# q = n_A1 + n_A2 - n_B of each basis index.
CHARGES = [int(label[0]) + int(label[1]) - int(label[2]) for label in LABELS]

# The two sectors of three kets: {|000>, |101>, |011>} and {|100>, |010>, |111>}.
SECTORS = [[0, 5, 6], [1, 2, 7]]

# Cayley's hyperdeterminant as (coefficient, the four components of a term),
# in the form Coffman, Kundu & Wootters write it: the three-tangle is 4|Det|.
HYPERDETERMINANT_TERMS = [
    *((1, (a, a, b, b)) for a, b in (("000", "111"), ("001", "110"), ("010", "101"), ("100", "011"))),
    *(
        (-2, (a, b, c, d))
        for (a, b), (c, d) in (
            (("000", "111"), ("011", "100")),
            (("000", "111"), ("101", "010")),
            (("000", "111"), ("110", "001")),
            (("011", "100"), ("101", "010")),
            (("011", "100"), ("110", "001")),
            (("101", "010"), ("110", "001")),
        )
    ),
    (4, ("000", "110", "101", "011")),
    (4, ("111", "001", "010", "100")),
]


def hyperdeterminant(ket):
    """Cayley's hyperdeterminant of a three-qubit ket in basis order, summed term by term."""
    component = dict(zip(LABELS, ket))
    return sum(c * math.prod(component[label] for label in term) for c, term in HYPERDETERMINANT_TERMS)


def discriminant(ket):
    """The same invariant, independently: the discriminant of det(M0 + t M1), M_x the 2x2 matrix of A1 = x."""
    m0, m1 = np.asarray(ket).reshape(2, 2, 2).transpose(2, 1, 0)
    c0, c2 = np.linalg.det(m0), np.linalg.det(m1)
    c1 = np.linalg.det(m0 + m1) - c0 - c2
    return c1 * c1 - 4.0 * c0 * c2


def random_kets(rng, count, support=range(8)):
    kets = np.zeros((count, 8), dtype=complex)
    kets[:, support] = rng.normal(size=(count, len(support))) + 1j * rng.normal(size=(count, len(support)))
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def singlet_weights(states):
    """Weights (..., 2) of states (..., 8, 8) on the A1A2 singlet times |0> and |1> of B."""
    singlets = np.zeros((2, 8))
    singlets[0, [1, 2]] = singlets[1, [5, 6]] = [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)]
    return np.real(np.einsum("ki,...ij,kj->...k", singlets, states, singlets))


def test_pattern_mask_is_the_charge_support():
    assert CHARGES == [0, 1, 1, 2, -1, 0, 0, 1]
    charges = np.array(CHARGES)
    assert np.array_equal(PATTERN_MASK, charges[:, None] == charges[None, :])
    assert [sorted(np.flatnonzero(charges == q)) for q in (0, 1)] == SECTORS


def test_every_hyperdeterminant_term_takes_components_from_two_sectors():
    for _, term in HYPERDETERMINANT_TERMS:
        # each qubit is 0 in two components and 1 in two, so the four
        # charges sum to 2, while four components of one sector q sum to 4q
        for bit in range(3):
            assert sorted(label[bit] for label in term) == ["0", "0", "1", "1"], term
        charges = [CHARGES[LABELS.index(label)] for label in term]
        assert sum(charges) == 2 and len(set(charges)) >= 2, term


def test_hyperdeterminant_terms_give_the_discriminant():
    for ket in random_kets(np.random.default_rng(44), 100):
        assert abs(hyperdeterminant(ket) - discriminant(ket)) <= 1e-15


@pytest.mark.parametrize("sector", SECTORS, ids=["q=0", "q=1"])
def test_kets_inside_one_sector_have_zero_three_tangle(sector):
    for ket in random_kets(np.random.default_rng(sector[-1]), 100, sector):
        assert hyperdeterminant(ket) == 0.0


def test_three_tangle_of_ghz_and_w():
    ghz = np.zeros(8)
    ghz[[0, 7]] = 1.0 / math.sqrt(2.0)
    w = np.zeros(8)
    w[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
    assert abs(4.0 * abs(hyperdeterminant(ghz)) - 1.0) <= 1e-15
    assert hyperdeterminant(w) == 0.0
    assert hyperdeterminant(W1_STATE) == 0.0


@pytest.mark.parametrize("theta", [0.0, 1.1, math.pi / 2.0, math.pi], ids=["0", "1.1", "pi/2", "pi"])
def test_closed_form_states_have_no_singlet_weight(theta):
    cfg = SweepConfig()
    taus = np.linspace(cfg.tau_start, cfg.tau_end, cfg.tau_steps)
    states = states_from_elements(closed_form_grid(taus, [0.3, 1.2, 2.0], theta, 80))
    assert states.shape == (600, 3, 8, 8)
    assert not singlet_weights(states).any()


def test_oracle_states_have_no_singlet_weight_to_rounding():
    weights = singlet_weights(oracle_states())
    assert weights.shape == (36, 2)
    assert np.abs(weights).max() <= 1e-16
