"""The pairwise shares from the minors against the eigensolver route.

For a block-structured state every decomposition ket lies in one of the
state's two 3-index blocks, a family.  The kernel takes such a ket's
shares from the 2x2 minors of its split by the spec's first qubit, the
same minors that give its decomposition negativity: the term of spec
(p, q) is ``-|m_q|^2 / r``, m_q the minors whose two columns differ in
qubit q alone and ``r`` the root of the summed squared minors.  An
import-time table (`entanglement._family_minors`) lists each family's
nonzero minors of `PATTERN_MASK`, one supported product each, and refuses
a family on which that split would not be exact.  `reference_pairwise_shares`
below solves every ket as one 8-index block with the stacked eigensolver
(`_share_terms`), the route that kets of any other state take; it shares no
code with the minors.  The two run different arithmetic, so agreement is
required to 1e-14, a few hundred ulps of the O(1) values.
"""

import math
import warnings

import numpy as np
import pytest

import cavity3q.entanglement as ent
from cavity3q import (
    PATTERN_MASK,
    SELECTIVE_SPECS,
    QubitLabel,
    closed_form_grid,
    negativity_batch,
    states_from_elements,
)
from test_diagnostics_reference import oracle_states, pattern_route
from test_entanglement import decomposition

TOL = 1e-14
CUTOFF = ent.NEGATIVE_EIGENVALUE_CUTOFF


def contributing_kets(states):
    """Positions (state, column) and kets of the decomposition: positive weight, not basis states."""
    probs, vectors = decomposition(states)
    rows, cols = np.nonzero((probs > 0.0) & (np.count_nonzero(vectors, axis=-2) >= 2))
    return probs, rows, cols, vectors[rows, :, cols]


def reference_pairwise_shares(states):
    """`NegativityBatch.e_psd` of a stack, every ket solved as one 8-index block."""
    probs, rows, cols, kets = contributing_kets(states)
    terms = ent._share_terms(kets)
    shares = {}
    for column, spec in enumerate(ent._SHARE_ORDER):
        share = np.zeros(probs.shape)
        share[rows, cols] = terms[:, column]
        shares[spec] = -2.0 * (probs * share).sum(axis=-1)
    return {spec: shares[spec] for spec in SELECTIVE_SPECS}


def assert_shares_match_reference(states):
    assert pattern_route(states).all()
    batch = negativity_batch(states)
    reference = reference_pairwise_shares(states)
    for spec in SELECTIVE_SPECS:
        assert np.abs(batch.e_psd[spec] - reference[spec]).max(initial=0.0) <= TOL, spec
    return batch


def gate_states():
    """States whose B radius ``r`` sits on and around the cutoff.

    The first pair of the decomposition is ``[[g, c], [c, 0]]`` on
    (|000>, sym-excited): its upper ket has ``r = |x y| = c / hypot(g, 2c)``
    for qubit B, and its lower one zero weight.  The pair rotates when
    ``tan 2phi = 2c / g``, about ``2 r``, exceeds the cutoff, so every
    radius here above half the cutoff rotates, with ``c`` at least 1.01e-12
    and the population ``g = c / r``.  The state with ``c = 0`` leaves the
    sym-excited ket unrotated, with ``r = 0``.
    """
    targets = [0.0, 0.7e-12, 2e-12, 1e-12 * (1.0 + 1e-6), 1e-12 * (1.0 - 1e-6)]
    elements = np.zeros((len(targets), 8))
    for row, target in enumerate(targets):
        c = max(target, 1.01e-12)
        r11, r55, r15 = (0.5, 0.5, 0.0) if target == 0.0 else (c / target, 0.0, c)
        # r11, r22, r33, r44, r55, r66, r15, r26
        elements[row] = [r11, 0.0, 0.1, 0.1, r55, 0.0, r15, 0.0]
    return targets, states_from_elements(elements)


def closed_form_states(theta, taus, squeezes):
    return states_from_elements(closed_form_grid(taus, squeezes, theta, 80).reshape(-1, 8))


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0, math.pi / 3.0, 1.1])
def test_minor_shares_match_the_eigensolver(theta):
    states = closed_form_states(theta, [0.0, 0.3, 0.8, 2.0, 7.1, 14.5, 19.0], [0.0, 0.3, 1.2, 2.0])
    batch = assert_shares_match_reference(states)
    assert any((values > 0.0).any() for values in batch.e_psd.values())


def test_share_gate_at_the_cutoff():
    targets, states = gate_states()
    with warnings.catch_warnings():
        # a radius of exactly 0 must not divide
        warnings.simplefilter("error", RuntimeWarning)
        batch = assert_shares_match_reference(states)
    # the B radius of each state's one live ket, read from its components:
    # |000> against the sym-excited pair
    _, rows, _, kets = contributing_kets(states)
    radii = np.abs(kets[:, 0]) * np.hypot(np.abs(kets[:, 5]), np.abs(kets[:, 6]))
    for row, target in enumerate(targets):
        (hit,) = np.flatnonzero(rows == row)
        assert abs(radii[hit] - target) <= 1e-9 * target, target
        # at or below the cutoff both B shares are exactly 0; above, positive
        shares = [batch.e_psd[spec][row] for spec in ("B-BA1", "B-BA2")]
        if target > CUTOFF:
            assert all(share > 0.0 for share in shares), target
        else:
            assert all(share == 0.0 for share in shares), target


def test_shares_add_up_to_the_decomposition_negativity():
    # -|m_1|^2/r - |m_2|^2/r = -r, and r is half the ket's global negativity
    states = closed_form_states(1.1, np.linspace(0.0, 20.0, 60), [0.3, 1.2])
    batch = negativity_batch(states)
    for p in (QubitLabel.B, QubitLabel.A1):
        total = sum(batch.e_psd[spec] for spec, (first, _) in SELECTIVE_SPECS.items() if first is p)
        assert np.abs(total - batch.n_psdg[p]).max() <= TOL, p
        assert (batch.n_psdg[p] > 0.01).any(), p


def test_minor_split_check_passes_the_pattern_families():
    # the families are the state's own blocks of two or more indices; each
    # qubit has two nonzero minors in each, one supported product apiece;
    # each spec reads the minors of one partner qubit, two per spec, and the
    # specs of one qubit read disjoint minors
    assert [b for b in ent._index_blocks(PATTERN_MASK) if len(b) > 1] == [(0, 5, 6), (1, 2, 7)]
    table = ent._family_minors(PATTERN_MASK)
    B, A1, A2 = QubitLabel.B, QubitLabel.A1, QubitLabel.A2
    assert table == {
        (0, 5, 6): {B: {0: (0, 5), 1: (0, 6)}, A1: {1: (0, 5), 5: (6, 5)}, A2: {1: (0, 6), 5: (5, 6)}},
        (1, 2, 7): {B: {4: (1, 7), 5: (2, 7)}, A1: {0: (2, 1), 4: (2, 7)}, A2: {0: (1, 2), 4: (1, 7)}},
    }
    assert [len(minors) for minors in ent._SHARE_MINORS] == [2] * len(SELECTIVE_SPECS)
    for first in (0, 2):
        assert not set(ent._SHARE_MINORS[first]) & set(ent._SHARE_MINORS[first + 1])
    # the kets the kernel holds are those families
    assert [tuple(sorted(slots)) for _, slots in ent._FAMILIES] == list(table)


def family_mask(*families):
    mask = np.zeros((8, 8), dtype=bool)
    for family in families:
        mask[np.ix_(family, family)] = True
    return mask


def test_minor_split_check_rejects_a_tampered_family():
    cases = [
        # |000> joined to |111>: the B minor phi0 phi7 pairs columns 0 and 3,
        # which differ in A1 and A2
        ([(0, 5, 6), (1, 2, 7), (0, 7)], r"\[0, 1, 2, 5, 6, 7\], qubit B: minor phi0 phi7 .*two qubits"),
        ([(0, 7)], r"ket family \[0, 7\], qubit B: minor phi0 phi7 - phi3 phi4 .*two qubits"),
        # |000>, |100>, |001>, |101>
        ([(0, 1, 4, 5)], r"\[0, 1, 4, 5\], qubit B: minor phi0 phi5 - phi1 phi4 has two supported"),
        # the A1 split of |000>, |100>, |010>, |110>
        ([(0, 1, 2, 3)], r"\[0, 1, 2, 3\], qubit A1: minor phi0 phi3 - phi2 phi1 has two supported"),
        # |110> joined to |000>, |101>, |011>: every minor has one supported
        # product on columns one qubit apart, but four of them are nonzero,
        # so a summed square would add in an order of its own
        ([(0, 3, 5, 6)], r"^ket family \[0, 3, 5, 6\], qubit B has 4 nonzero minors, more than two$"),
    ]
    for families, message in cases:
        with pytest.raises(RuntimeError, match=message):
            ent._family_minors(family_mask(*families))


@pytest.fixture(scope="module")
def off_pattern_states():
    # the oracle states are exactly zero off the pattern; seeded noise there
    # sends them to the 8-index route
    oracle = oracle_states(noise_seed=43)
    rng = np.random.default_rng(43)
    a = rng.standard_normal((30, 8, 4)) + 1j * rng.standard_normal((30, 8, 4))
    generic = a @ a.conj().swapaxes(-1, -2)
    generic /= np.trace(generic, axis1=1, axis2=2).real[:, None, None]
    return {"oracle": oracle, "generic": generic}


@pytest.mark.parametrize("stack", ["oracle", "generic"])
def test_off_pattern_shares_keep_the_eigensolver_route(off_pattern_states, stack, monkeypatch):
    # every ket of a state off the pattern is one 8-index block, solved as before
    states = off_pattern_states[stack]
    assert not pattern_route(states).any()
    reference = reference_pairwise_shares(states)
    monkeypatch.setattr(ent, "_MINOR_SLOTS", None)
    batch = negativity_batch(states)
    for spec in SELECTIVE_SPECS:
        assert np.array_equal(batch.e_psd[spec], reference[spec]), spec
