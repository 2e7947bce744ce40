"""The pairwise shares from the minors against the eigensolver route.

For a block-structured state every decomposition ket lies in one of the
state's two 3-index blocks, a family.  The kernel takes such a ket's
shares from the 2x2 minors of its split by the spec's first qubit, the
same minors that give its decomposition negativity: the term of spec
(p, q) is ``-|m_q|^2 / r``, m_q the minors whose two columns differ in
qubit q alone and ``r`` the root of the summed squared minors.  A family
ket has one lone component and two equal pair components h, so its nonzero
minors square to ``cross = (lone h)^2`` and ``same = (h h)^2``: A1's are a
cross and a same, B's two crosses, and the specs B-BA1, A1-A1A2 and A1-A1B
read a cross, a same and a cross; A2's and B-BA2's values are copies of
A1's and B-BA1's.  `reference_pairwise_shares` below solves every ket as
one 8-index block with the stacked eigensolver (`_share_terms`), the route
that kets of any other state take; it shares no code with the minors.  The two run different arithmetic, so agreement is
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
    monkeypatch.setattr(ent, "_family_negativities", None)
    batch = negativity_batch(states)
    for spec in SELECTIVE_SPECS:
        assert np.array_equal(batch.e_psd[spec], reference[spec]), spec


# ------------------------------------------------- the families' minors
#
# `_family_negativities` takes each family ket's minors as two products of
# its lone component and its pair component h, ``cross = (lone h)^2`` and
# ``same = (h h)^2``.  Its premises are checked against the kets written out
# as in the paper, the dense minors of `_squared_minors` and the qubits in
# which a minor's two columns differ.

BASIS = np.eye(8)

# Per family: the basis index of its lone component, those of its two pair
# components, and the frame of its 2x2 block, x|000> + y(|101> + |011>)/sqrt2
# and x(|100> + |010>)/sqrt2 + y|111>
FAMILIES = [
    (0, (5, 6), np.array([BASIS[0], (BASIS[5] + BASIS[6]) / math.sqrt(2.0)])),
    (7, (1, 2), np.array([(BASIS[1] + BASIS[2]) / math.sqrt(2.0), BASIS[7]])),
]
FAMILY_IDS = ["first family", "second family"]

# The qubits and specs the pattern route computes; it mirrors A1's and
# B-BA1's values into A2 and B-BA2.  Per qubit, the squared minors of its
# split, and per spec, the squared minor its share reads.
COMPUTED_MINORS = {QubitLabel.A1: ["cross", "same"], QubitLabel.B: ["cross", "cross"]}
COMPUTED_SPECS = {"B-BA1": "cross", "A1-A1A2": "same", "A1-A1B": "cross"}


def family_kets(family):
    """Dense kets x frame0 + y frame1 (8, n) of a family, and the (lone, h, cross, same) of each."""
    x, y = np.random.default_rng(8).standard_normal((2, 6))
    _, _, frame = FAMILIES[family]
    kets = (x[:, None] * frame[0] + y[:, None] * frame[1]).T
    lone, h = (x, y * ent._INV_SQRT2) if family == 0 else (y, x * ent._INV_SQRT2)
    return kets, {"lone": lone, "h": h, "cross": (lone * h) ** 2, "same": (h * h) ** 2}


@pytest.mark.parametrize("family", range(len(FAMILIES)), ids=FAMILY_IDS)
def test_family_ket_is_one_lone_and_two_equal_pair_components(family):
    # the ket (x, y) has the lone component and h on the family's indices,
    # bit for bit, and no other component
    kets, values = family_kets(family)
    lone_index, pair, _ = FAMILIES[family]
    np.testing.assert_array_equal(kets[lone_index], values["lone"])
    for index in pair:
        np.testing.assert_array_equal(kets[index], values["h"])
    assert not np.delete(kets, [lone_index, *pair], axis=0).any()


@pytest.mark.parametrize("qubit", list(COMPUTED_MINORS), ids=[p.name for p in COMPUTED_MINORS])
@pytest.mark.parametrize("family", range(len(FAMILIES)), ids=FAMILY_IDS)
def test_family_kets_nonzero_minors_are_cross_and_same(family, qubit):
    # split by A1 a ket has one cross and one same minor, split by B two
    # crosses, and no other nonzero minor, bit for bit
    kets, values = family_kets(family)
    dense = ent._squared_minors(kets, qubit)
    assert (np.count_nonzero(dense, axis=0) == 2).all()
    nonzero = np.sort(dense.T[dense.T != 0.0].reshape(-1, 2), axis=1)
    expected = np.sort(np.array([values[name] for name in COMPUTED_MINORS[qubit]]).T, axis=1)
    np.testing.assert_array_equal(nonzero, expected)


@pytest.mark.parametrize("spec", list(COMPUTED_SPECS))
@pytest.mark.parametrize("family", range(len(FAMILIES)), ids=FAMILY_IDS)
def test_each_spec_reads_the_minor_whose_columns_differ_in_its_partner(family, spec):
    # the minors of the first qubit p have as columns the basis indices with
    # p's bit clear (`_minor_products`); the spec (p, q) reads those whose
    # two columns differ in q alone, and of a family ket that is the cross
    # or the same minor, bit for bit
    lead, partner = SELECTIVE_SPECS[spec]
    kets, values = family_kets(family)
    first_column, _, second_column, _ = ent._MINOR_PRODUCTS[lead]
    read = ent._squared_minors(kets, lead)[(first_column ^ second_column) == 1 << partner.value]
    assert (np.count_nonzero(read, axis=0) == 1).all()
    np.testing.assert_array_equal(read.sum(axis=0), values[COMPUTED_SPECS[spec]])
