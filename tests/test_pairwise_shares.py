"""The closed-form pairwise shares against the gathered eigensolve they replaced.

For a block-structured state every decomposition ket lies in one of the
state's two 3-index blocks, and the one block of its two-way transpose
that moves entries is a star: a zero diagonal and two edges that meet at
one centre.  The kernel takes its negative eigenpair in closed form
(`entanglement._star_share_terms`).  `reference_share_terms` below is the
route it replaced: gather each ket's projector into the blocks of
`_KET_GATHERS` and solve them with the stacked eigensolver.  It is kept here
only as the reference.  The two run different arithmetic, so agreement is
required to 1e-14, a few hundred ulps of the O(1) values.
"""

import copy
import math
import warnings

import numpy as np
import pytest

import cavity3q.entanglement as ent
from cavity3q import (
    SELECTIVE_SPECS,
    closed_form_grid,
    negativity_batch,
    states_from_elements,
)
from test_diagnostics_reference import oracle_states

TOL = 1e-14
CUTOFF = ent.NEGATIVE_EIGENVALUE_CUTOFF


# ------------------------------------------------- gathered-eigensolve reference


def reference_share_terms(kets, supports, tables):
    """Per ket and spec (in `_SHARE_ORDER`): ``Re tr(S P)`` from gathered, solved blocks.

    S is the spec's selective transpose of the ket's projector and P the
    projector on the negative eigenvectors of its two-way transpose of the
    spec's qubit.  Both are gathered into the blocks of ``tables`` on each
    ket's support, ``supports`` indexing the first axis of every table.
    """
    pure = (kets[:, :, None] * kets[:, None, :].conj()).reshape(len(kets), 64)
    traces = 0.0
    for positions in tables.values():
        gathered = np.empty((len(kets), *positions.shape[1:]), dtype=kets.dtype)
        for support, table in enumerate(positions):
            rows = supports == support
            gathered[rows] = pure[rows][:, table]
        traces = traces + ent._projected_blocks(gathered)[1]
    return traces.reshape(len(kets), -1)


def reference_pairwise_shares(states):
    """`NegativityBatch.e_psd` of a stack, every ket's blocks solved by the eigensolver."""
    codes, elements = ent._pattern_check(states)
    in_blocks = ent._in_blocks(states, codes)
    probs, vectors = ent._decompose_stack(states, codes, elements)
    rows, cols = np.nonzero((probs > 0.0) & (np.count_nonzero(vectors, axis=-2) >= 2))
    kets = vectors[rows, :, cols]
    terms = np.empty((len(kets), len(ent._SHARE_ORDER)))
    ket_in_blocks = in_blocks[rows]
    supports = np.where(ket_in_blocks, ent._FAMILY_OF[np.argmax(np.abs(kets), axis=-1)], 0)
    for take, tables in ((ket_in_blocks, ent._KET_GATHERS), (~ket_in_blocks, ent._WHOLE_KET_GATHERS)):
        if take.any():
            terms[take] = reference_share_terms(kets[take], supports[take], tables)
    shares = {}
    for column, spec in enumerate(ent._SHARE_ORDER):
        share = np.zeros(probs.shape)
        share[rows, cols] = terms[:, column]
        shares[spec] = -2.0 * (probs * share).sum(axis=-1)
    return {spec: shares[spec] for spec in SELECTIVE_SPECS}


def family_kets(states):
    """The kets that reach the star solve: positive weight, not basis states; and their families."""
    codes, elements = ent._pattern_check(states)
    assert ent._in_blocks(states, codes).all()
    probs, vectors = ent._decompose_stack(states, codes, elements)
    rows, cols = np.nonzero((probs > 0.0) & (np.count_nonzero(vectors, axis=-2) >= 2))
    kets = vectors[rows, :, cols]
    return kets, ent._FAMILY_OF[np.argmax(np.abs(kets), axis=-1)]


def assert_shares_match_reference(states):
    kets, families = family_kets(states)
    got = ent._star_share_terms(kets, families)
    expected = reference_share_terms(kets, families, ent._KET_GATHERS)
    assert np.abs(got - expected).max(initial=0.0) <= TOL
    batch = negativity_batch(states)
    reference = reference_pairwise_shares(states)
    for spec in SELECTIVE_SPECS:
        assert np.abs(batch.e_psd[spec] - reference[spec]).max(initial=0.0) <= TOL, spec
    return kets, families, got


def gate_states():
    """States whose B-owner star radius ``r`` sits on and around the cutoff.

    The first pair of the decomposition is ``[[g, c], [c, 0]]`` on
    (|000>, sym-excited): its upper ket has ``r = |x y| = c / hypot(g, 2c)``
    for qubit B.  ``c`` must reach the cutoff for the pair to rotate at all,
    so a radius below it needs a population ``g = c / r`` above 1.  The
    state with ``c = 0`` leaves the sym-excited ket unrotated, with ``r = 0``.
    """
    targets = [0.0, 0.5e-12, 2e-12, 1e-12 * (1.0 + 1e-6), 1e-12 * (1.0 - 1e-6)]
    elements = np.zeros((len(targets), 8))
    for row, target in enumerate(targets):
        c = max(target, 1.01e-12)
        r11, r55, r15 = (0.5, 0.5, 0.0) if target == 0.0 else (c / target, 0.0, c)
        # r11, r22, r33, r44, r55, r66, r15, r26
        elements[row] = [r11, 0.0, 0.1, 0.1, r55, 0.0, r15, 0.0]
    return targets, states_from_elements(elements)


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0, math.pi / 3.0, 1.1])
def test_star_shares_match_gathered_eigensolve(theta):
    taus = [0.0, 0.3, 0.8, 2.0, 7.1, 14.5, 19.0]
    elements = closed_form_grid(taus, [0.0, 0.3, 1.2, 2.0], theta, 80)
    kets, _, terms = assert_shares_match_reference(states_from_elements(elements.reshape(-1, 8)))
    assert len(kets) > 0 and (terms < 0.0).any()


def test_star_gate_at_the_cutoff():
    targets, states = gate_states()
    with warnings.catch_warnings():
        # a radius of exactly 0 must not divide
        warnings.simplefilter("error", RuntimeWarning)
        kets, families, terms = assert_shares_match_reference(states)
        negativity_batch(states)
    # the B-owner radius of every ket, by the eigensolver on its gathered block
    b_owner = ent._SHARE_QUBITS.index(ent.QubitLabel.B)
    pure = (kets[:, :, None] * kets[:, None, :].conj()).reshape(len(kets), 64)
    blocks = np.stack([pure[i, ent._KET_GATHERS[3][f, b_owner, 0, 0]] for i, f in enumerate(families)])
    radii = -np.linalg.eigvalsh(blocks)[:, 0]
    b_terms = terms.reshape(len(kets), len(ent._SHARE_QUBITS), -1)[:, b_owner]
    for target in targets:
        hits = np.flatnonzero(np.abs(radii - target) <= 1e-9 * target)
        assert hits.size, target
        # below or at the cutoff both terms are exactly 0; above, both negative
        if target > CUTOFF:
            assert (b_terms[hits] < 0.0).all(), target
        else:
            assert (b_terms[hits] == 0.0).all(), target


def test_star_shares_add_up_to_the_ket_negativity():
    # -|a|^2/r - |b|^2/r = -r, and r is half the ket's global negativity
    elements = closed_form_grid(np.linspace(0.0, 20.0, 60), [0.3, 1.2], 1.1, 80)
    kets, families = family_kets(states_from_elements(elements.reshape(-1, 8)))
    terms = ent._star_share_terms(kets, families)
    per_owner = terms.reshape(len(kets), len(ent._SHARE_QUBITS), -1).sum(axis=-1)
    for owner, p in enumerate(ent._SHARE_QUBITS):
        half_negativity = ent._pure_negativity(kets.T, p) / 2.0
        assert np.abs(per_owner[:, owner] + half_negativity).max() <= TOL, p
        assert (half_negativity > 0.0).any()


def test_star_derivation_matches_the_tables():
    edges, kept = ent._star_edges(ent._KET_GATHERS, ent._KET_SUPPORTS)
    assert np.array_equal(edges, ent._STAR_EDGES) and np.array_equal(kept, ent._STAR_KEPT)
    # two supports (ket families) x two owners (B, A1) x one block; each
    # owner's two selective maps keep different edges
    assert edges.shape == (2, 2, 1, 2) and kept.shape == (2, 2, 1, 2)
    assert (np.sort(kept, axis=-1) == [0, 1]).all()


def tampered(change):
    gathers = copy.deepcopy(ent._KET_GATHERS)
    change(gathers[3])
    return gathers


def test_star_derivation_rejects_a_non_star_block():
    def diagonal_in_support(table):
        # family (0, 5, 6): the entry [0, 0] lies in its support
        table[0, 0, 0, 0, 1, 1] = 0

    def map_keeps_both_edges(table):
        table[1, 1, 0, 1] = table[1, 1, 0, 0]

    for change in (diagonal_in_support, map_keeps_both_edges):
        with pytest.raises(RuntimeError, match="star"):
            ent._star_edges(tampered(change), ent._KET_SUPPORTS)
    with pytest.raises(RuntimeError, match="3x3"):
        ent._star_edges({**ent._KET_GATHERS, 2: ent._KET_GATHERS[3]}, ent._KET_SUPPORTS)


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
    assert not ent._in_blocks(states, ent._pattern_check(states)[0]).any()
    reference = reference_pairwise_shares(states)
    monkeypatch.setattr(ent, "_star_share_terms", None)
    batch = negativity_batch(states)
    for spec in SELECTIVE_SPECS:
        assert np.array_equal(batch.e_psd[spec], reference[spec]), spec
