"""The pairwise shares from the minors against the eigensolver route.

For a block-structured state every decomposition ket lies in one of the
state's two 3-index blocks, a family.  The kernel takes such a ket's
shares from the 2x2 minors of its split by the spec's first qubit, the
same minors that give its decomposition negativity: the term of spec
(p, q) is ``-|m_q|^2 / r``, m_q the minors whose two columns differ in
qubit q alone and ``r`` the root of the summed squared minors.  Literal
tables (`entanglement._MINOR_SLOTS`, `entanglement._SPEC_READS`) list each
family's two nonzero minors per qubit, one product each, and the minors
each spec reads.  `reference_pairwise_shares`
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
    for column, spec in enumerate(SELECTIVE_SPECS):
        share = np.zeros(probs.shape)
        share[rows, cols] = terms[:, column]
        shares[spec] = -2.0 * (probs * share).sum(axis=-1)
    return shares


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


# ------------------------------------------------- the families' literal tables
#
# Each literal table of the pattern route is checked against what it writes
# down: the families' 2x2 blocks and kets written out as in the paper, the
# dense minors of `_minor_products`, and the qubits in which a minor's two
# columns differ.

BASIS = np.eye(8)

# Per family: its three basis indices, ascending, and the frame of its 2x2
# block, x|000> + y(|101> + |011>)/sqrt2 and x(|100> + |010>)/sqrt2 + y|111>
FAMILIES = [
    ((0, 5, 6), np.array([BASIS[0], (BASIS[5] + BASIS[6]) / math.sqrt(2.0)])),
    ((1, 2, 7), np.array([(BASIS[1] + BASIS[2]) / math.sqrt(2.0), BASIS[7]])),
]
FAMILY_IDS = ["first family", "second family"]


@pytest.mark.parametrize("family", range(len(FAMILIES)), ids=FAMILY_IDS)
def test_family_block_is_the_states_block_in_its_frame(family):
    # `_FAMILY_BLOCKS` names the elements on the block's first diagonal,
    # second diagonal and coupling
    elements = np.random.default_rng(7).standard_normal((6, 8))
    _, frame = FAMILIES[family]
    blocks = frame @ states_from_elements(elements) @ frame.T
    first, second, off = (elements[:, k] for k in ent._FAMILY_BLOCKS[family])
    expected = np.moveaxis(np.array([[first, off], [off, second]]), -1, 0)
    assert np.abs(blocks - expected).max() <= 1e-15


@pytest.mark.parametrize("family", range(len(FAMILIES)), ids=FAMILY_IDS)
def test_family_slots_are_the_components_of_its_kets(family):
    # `_SLOT_COMPONENTS` and `_SLOT_SCALES` give the components of the ket
    # (x, y) on the family's indices, ascending; it has no other component
    x, y = np.random.default_rng(8).standard_normal((2, 6))
    indices, frame = FAMILIES[family]
    kets = x[:, None] * frame[0] + y[:, None] * frame[1]
    entries = np.stack([x, y])[ent._SLOT_COMPONENTS[family]] * ent._SLOT_SCALES[family][:, None]
    np.testing.assert_allclose(entries, kets[:, list(indices)].T, rtol=1e-15, atol=0.0)
    assert not np.delete(kets, list(indices), axis=1).any()


@pytest.mark.parametrize("qubit", list(QubitLabel), ids=[p.name for p in QubitLabel])
@pytest.mark.parametrize("family", range(len(FAMILIES)), ids=FAMILY_IDS)
def test_minor_slots_are_the_nonzero_dense_minors(family, qubit):
    # a ket with independent components on the family's indices has exactly
    # two nonzero minors split by the qubit, each one product, and they are
    # those of `_MINOR_SLOTS`, bit for bit
    indices, _ = FAMILIES[family]
    phi = np.random.default_rng(9).standard_normal((3, 6))
    kets = np.zeros((8, 6))
    kets[list(indices)] = phi
    dense = ent._squared_minors(kets, qubit)
    nonzero = dense[dense.any(axis=1)]
    a, b = ent._MINOR_SLOTS[:, qubit.value, family]
    literal = (phi[a] * phi[b]) ** 2
    assert sorted(map(tuple, nonzero.tolist())) == sorted(map(tuple, literal.tolist()))


@pytest.mark.parametrize("spec", list(SELECTIVE_SPECS))
@pytest.mark.parametrize("family", range(len(FAMILIES)), ids=FAMILY_IDS)
def test_each_spec_reads_the_minors_whose_columns_differ_in_its_partner(family, spec):
    # a minor phi_a phi_b of the first qubit p pairs an index with p's bit
    # clear and one with it set; its columns are the two with p's bit
    # cleared, and the spec (p, q) reads it when they differ in q alone
    lead, partner = SELECTIVE_SPECS[spec]
    indices, _ = FAMILIES[family]
    a, b = ent._MINOR_SLOTS[:, lead.value, family]
    expected = []
    for i, j in zip(a, b):
        differ = indices[i] ^ indices[j]
        assert differ >> lead.value & 1
        expected.append(float(differ & ~(1 << lead.value) == 1 << partner.value))
    assert sorted(expected) == [0.0, 1.0]
    assert ent._SPEC_READS[list(SELECTIVE_SPECS).index(spec), family].tolist() == expected
