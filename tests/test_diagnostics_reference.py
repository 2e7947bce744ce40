"""The diagnostics kernel against a textbook evaluation that shares none of its code.

The reference builds each partial transpose (Peres, PRL 77, 1413 (1996)) by
reshaping the state to six axes of 2 and swapping the transposed qubit's row
and column axes.  The K-way and selective variants keep the transposed entry
only where the row and column bit strings differ as their definitions say,
with the masks built entry by entry from the bit strings.  Every spectrum
comes from `numpy.linalg.eigh`/`eigvalsh` on the full 8x8 matrix, and the
pure-state decomposition is the state's own eigendecomposition, or one
stated by the test where degenerate weights leave it open.  None of it uses
the kernel's index maps, index blocks or analytic decomposition, so a wrong
map or block moves the kernel's values and not the reference's.

Closed-form and brute-force oracle states (both exactly zero outside the
zero pattern) take the kernel's pattern route: qubit B's global transpose
on its index blocks in closed form, and the analytic decomposition, both
from the state's eight elements; oracle states with seeded noise outside
the pattern, and random states, take its generic route and the eigensolver
decomposition.  On both routes A1's global transpose is solved whole, as
one 8-index block; A2's is too on the generic route, and on the pattern
route A2's values are copies of A1's.  Every diagnostic must agree to 1e-14, a few
hundred ulps of the O(1) values (measured worst 8.9e-16).

`batch_fields` is the one walk over a `NegativityBatch` that the tests
share, and `two_block_negativity_b` is the paper's gated two-block closed
form of qubit B's global negativity in 50-digit decimals, an exact
reference for ``n_g[B]``, which the kernel takes in closed form on the
pattern route.
"""

import decimal
import math

import numpy as np
import pytest

from cavity3q import (
    PATTERN_MASK,
    SELECTIVE_SPECS,
    QubitLabel,
    closed_form_grid,
    full_evolution_grid,
    negativity_batch,
    negativity_report,
    states_from_elements,
)
from cavity3q.cli import ORACLE_CHECK_SQUEEZES, ORACLE_CHECK_TAUS, ORACLE_CHECK_THETAS

TOL = 1e-14
CUTOFF = 1e-12
# The largest spread of an element's slots that keeps a state on the pattern route.
SLOT_SPREAD_TOL = 3e-15

# axis of each qubit in the (B, A2, A1) x (B, A2, A1) view of a state:
# the flat index is a1 + 2 a2 + 4 b
ROW_AXIS = {QubitLabel.B: 0, QubitLabel.A2: 1, QubitLabel.A1: 2}


def bit_string(index):
    """The (A1, A2, B) bits of a basis index."""
    return index & 1, (index >> 1) & 1, (index >> 2) & 1


def differing_qubits(i, j):
    """The set of qubits whose bit differs between basis states i and j."""
    qubits = (QubitLabel.A1, QubitLabel.A2, QubitLabel.B)
    return {q for q, a, b in zip(qubits, bit_string(i), bit_string(j)) if a != b}


def kway_mask(k):
    mask = np.zeros((8, 8), dtype=bool)
    for i in range(8):
        for j in range(8):
            mask[i, j] = len(differing_qubits(i, j)) == k
    return mask


def selective_mask(spec):
    pair = set(SELECTIVE_SPECS[spec])
    mask = np.zeros((8, 8), dtype=bool)
    for i in range(8):
        for j in range(8):
            mask[i, j] = differing_qubits(i, j) == pair
    return mask


def full_transpose(m, p):
    axis = ROW_AXIS[p]
    return np.swapaxes(m.reshape((2,) * 6), axis, axis + 3).reshape(8, 8)


def restricted_transpose(m, p, mask):
    """Transpose qubit p on the entries in mask, leave the others."""
    return np.where(mask, full_transpose(m, p), m)


def negative_vectors(h):
    vals, vecs = np.linalg.eigh(h)
    keep = vals < -CUTOFF
    return vals[keep], vecs[:, keep]


def projected(target, vectors):
    """Sum of Re <v| target |v> over the columns v."""
    return sum(float(np.real(v.conj() @ target @ v)) for v in vectors.T)


def negativity(h):
    vals = np.linalg.eigvalsh(h)
    return -2.0 * float(vals[vals < -CUTOFF].sum())


def textbook_report(m, decomposition=None):
    """Every diagnostic of the kernel for one state, keyed like `batch_fields`.

    ``decomposition`` is a list of (weight, ket) pairs; by default it is the
    eigendecomposition of ``m``.
    """
    out = {}
    for p in QubitLabel:
        vals, vectors = negative_vectors(full_transpose(m, p))
        out[("n_g", p)] = -2.0 * float(vals.sum())
        out[("e_3", p)] = -2.0 * projected(restricted_transpose(m, p, kway_mask(3)), vectors)
        out[("e_2", p)] = -2.0 * projected(restricted_transpose(m, p, kway_mask(2)), vectors)
        out[("e_0", p)] = -2.0 * projected(m, vectors)

    if decomposition is None:
        weights, kets = np.linalg.eigh(m)
        decomposition = zip(weights, kets.T)
    terms = {key: 0.0 for key in [*QubitLabel, *SELECTIVE_SPECS]}
    for weight, ket in decomposition:
        if weight <= 0.0:
            continue
        pure = np.outer(ket, ket.conj())
        for p in QubitLabel:
            terms[p] += weight * negativity(full_transpose(pure, p))
        for spec, (p, _) in SELECTIVE_SPECS.items():
            _, vectors = negative_vectors(restricted_transpose(pure, p, kway_mask(2)))
            selective = restricted_transpose(pure, p, selective_mask(spec))
            terms[spec] += weight * -2.0 * projected(selective, vectors)
    for p in QubitLabel:
        out[("n_psdg", p)] = terms[p]
    for spec in SELECTIVE_SPECS:
        out[("e_psd", spec)] = terms[spec]

    reduced_b = np.einsum("bxycxy->bc", m.reshape((2,) * 6))
    out[("linear_entropy_b", None)] = 2.0 * (1.0 - float(np.real(np.trace(reduced_b @ reduced_b))))
    w1 = np.zeros(8)
    w1[[0, 5, 6]] = 1.0 / math.sqrt(3.0)
    out[("w1_fidelity", None)] = float(np.real(w1 @ m @ w1))
    sym = np.zeros(8)
    sym[[5, 6]] = 1.0 / math.sqrt(2.0)
    out[("bell_projection", None)] = float(np.real(m[0, 0])) + float(np.real(sym @ m @ sym))
    return out


def two_block_negativity_b(m):
    """The paper's gated two-block closed form of qubit B's global negativity, in exact arithmetic.

    The B transpose of a state on the zero pattern splits into two 2x2
    blocks, on (|001>, |101>/|011>) and (|100>, |000>), whose eigenvalues
    count only below minus the cutoff; every other eigenvalue is a
    population, or the exact zero of an antisymmetric pair.  The elements
    are read from the entries, each symmetric pair summed, and everything
    after is evaluated in 50-digit decimals, so the one rounding is the
    final one to float.
    """
    with decimal.localcontext(prec=50):
        entry = [[decimal.Decimal(float(np.real(x))) for x in row] for row in m]
        r33, r44 = entry[3][3], entry[4][4]
        r22 = (entry[1][1] + entry[2][2] + entry[1][2] + entry[2][1]) / 2
        r55 = (entry[5][5] + entry[6][6] + entry[5][6] + entry[6][5]) / 2
        r15 = (entry[0][5] + entry[0][6]) / decimal.Decimal(2).sqrt()
        r26 = (entry[1][7] + entry[2][7]) / decimal.Decimal(2).sqrt()
        total = decimal.Decimal(0)
        for a, b, c in ((r33, r55, r26), (r22, r44, r15)):
            half_gap = (((a - b) / 2) ** 2 + c * c).sqrt()
            for eigenvalue in ((a + b) / 2 - half_gap, (a + b) / 2 + half_gap):
                if eigenvalue < -decimal.Decimal(CUTOFF):
                    total += eigenvalue
        return float(-2 * total)


def batch_fields(batch):
    """Every diagnostic array of a `NegativityBatch`, keyed by (field, qubit or spec, or None).

    ``pattern_ok``, the route each state took, is not a diagnostic and is
    left out.
    """
    out = {}
    for name, value in batch._asdict().items():
        if isinstance(value, dict):
            out.update({(name, key): values for key, values in value.items()})
        elif name != "pattern_ok":
            out[(name, None)] = value
    return out


def assert_bit_identical(got, expected):
    """Every array of ``got``, and its routes, equal those of ``expected`` bit for bit."""
    assert np.array_equal(got.pattern_ok, expected.pattern_ok)
    reference = batch_fields(expected)
    for key, values in batch_fields(got).items():
        assert np.array_equal(values, reference[key]), key


def assert_matches_textbook(states, decompositions=None):
    batch = negativity_batch(states)
    got = batch_fields(batch)
    worst = 0.0
    for index, m in enumerate(states):
        expected = textbook_report(m, decompositions and decompositions[index])
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            worst = max(worst, abs(got[key][index] - value))
            assert got[key][index] == pytest.approx(value, abs=TOL), (index, key)
    return worst


def closed_form_states(theta):
    taus = [0.0, 0.3, 0.8, 2.0, 7.1, 14.5, 19.0]
    elements = closed_form_grid(taus, [0.0, 0.3, 1.2, 2.0], theta, 80)
    return states_from_elements(elements.reshape(-1, 8))


def oracle_states(noise_seed=None, scale=1e-13):
    """The 36 oracle-check states at n_max 40, optionally with seeded noise off the pattern.

    The noise is real symmetric, of about ``scale``, and only outside
    `PATTERN_MASK`: not exactly zero, so the kernel takes its generic route
    for them.
    """
    grid = full_evolution_grid(ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, ORACLE_CHECK_THETAS, 40)
    states = grid.reshape(-1, 8, 8)
    if noise_seed is None:
        return states
    noise = scale * np.random.default_rng(noise_seed).standard_normal(states.shape)
    return states + (noise + noise.swapaxes(-1, -2)) * ~PATTERN_MASK


def pattern_route(states):
    """Which states of a stack the kernel sends down the pattern route."""
    return negativity_batch(states).pattern_ok


# ------------------------------------------------------------------- tests


def test_textbook_masks_match_their_definitions():
    # spot checks of the reference itself: |000><111| differs in all three
    # slots, |000><011| in A1 and A2, |100><001| in A1 and B
    assert kway_mask(3)[0, 7] and not kway_mask(2)[0, 7]
    assert kway_mask(2)[0, 3] and selective_mask("A1-A1A2")[0, 3]
    assert selective_mask("B-BA1")[1, 4] and not selective_mask("B-BA2")[1, 4]
    assert kway_mask(2).sum() == 8 * 3 and kway_mask(3).sum() == 8
    for spec in SELECTIVE_SPECS:
        assert selective_mask(spec).sum() == 8
    m = np.arange(64.0).reshape(8, 8)
    # transposing A1 swaps |0..><1..| with |1..><0..| in the A1 slot
    assert full_transpose(m, QubitLabel.A1)[0, 1] == m[1, 0]
    assert full_transpose(m, QubitLabel.B)[0, 4] == m[4, 0]
    assert full_transpose(m, QubitLabel.B)[1, 4] == m[5, 0]


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0, math.pi / 3.0, 1.1])
def test_closed_form_states_match_textbook(theta):
    states = closed_form_states(theta)
    assert pattern_route(states).all()
    assert assert_matches_textbook(states) <= TOL


def test_oracle_states_match_textbook():
    states = oracle_states()
    assert len(states) == 36
    # exact zeros outside the zero pattern: the pattern route, as for the closed forms
    assert pattern_route(states).all()
    assert assert_matches_textbook(states) <= TOL


def test_noisy_oracle_states_match_textbook():
    # any entry off the pattern sends a state down the generic route, which
    # decomposes the whole state: a state decomposed from its pattern
    # entries alone would be off the textbook by about a hundred times the
    # noise (2e-7 at 1e-9)
    for scale in (1e-13, 1e-9):
        states = oracle_states(noise_seed=7, scale=scale)
        assert not pattern_route(states).any()
        assert assert_matches_textbook(states) <= TOL


@pytest.mark.parametrize("dtype", [float, complex])
def test_random_states_match_textbook(dtype):
    rng = np.random.default_rng(2024)
    for rank in (3, 8):
        a = rng.standard_normal((12, 8, 8))
        if dtype is complex:
            a = a + 1j * rng.standard_normal((12, 8, 8))
        # at rank 3 several decomposition weights are zero
        a[:, :, rank:] = 0.0
        states = a @ a.conj().swapaxes(-1, -2)
        states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
        assert not pattern_route(states).any()
        assert assert_matches_textbook(states) <= TOL


def test_non_psd_pattern_state_keeps_its_single_index_blocks():
    # a Hermitian state on the zero pattern with negative populations: the
    # 1x1 blocks {0} and {7} of B's global transpose, the only qubit whose
    # transpose the kernel still splits into index blocks, hold negative
    # eigenvalues of their own (A1's is solved whole, and A2's is its mirror)
    state = closed_form_states(math.pi)[9].copy()
    state[[1, 1, 2, 2], [1, 2, 1, 2]] = -0.05
    state[[5, 5, 6, 6], [5, 6, 5, 6]] = -0.03
    state[0, 0] -= 0.9
    state[7, 7] = -0.02
    # and with B's 2x2 block on {1, 2, 4}, [[r22, r15], [r15, r44]], negative
    # definite: both of its eigenvalues count
    definite = state.copy()
    definite[4, 4] = -0.4
    r22, r15, r44 = -0.1, definite[0, 5] * math.sqrt(2.0), -0.4
    assert r22 * r44 > r15 * r15
    # and with that block of negative trace and a small positive eigenvalue,
    # about 1e-10, which ``mean + half_gap`` only gets to a relative 1e-6:
    # its lower eigenvalue is ``mean - half_gap``, not the determinant over it
    indefinite = state.copy()
    indefinite[[1, 1, 2, 2], [1, 2, 1, 2]] = -0.25
    indefinite[4, 4] = 1e-10
    indefinite[[0, 0, 5, 6], [5, 6, 0, 0]] = 1e-6 / math.sqrt(2.0)
    states = np.array([state, definite, indefinite])
    assert pattern_route(states).all()
    assert assert_matches_textbook(states) <= TOL


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0, math.pi / 3.0, 1.1])
def test_block_path_matches_full_fallback(theta):
    # the same states with one symmetric pair of 1e-300 entries off the
    # pattern take the generic route: its 8-index blocks and eigensolver
    # decomposition give the values of the index blocks and the analytic
    # decomposition
    states = closed_form_states(theta)
    full_states = states.copy()
    full_states[:, 0, 3] = full_states[:, 3, 0] = 1e-300
    blocks, full = negativity_batch(states), negativity_batch(full_states)
    assert blocks.pattern_ok.all() and not full.pattern_ok.any()
    expected = batch_fields(full)
    for (name, key), values in batch_fields(blocks).items():
        # the auxiliary measures read no entry off the pattern, but the
        # pattern route sums them from the eight elements and the generic
        # route from the dense state: they differ by rounding alone (at most
        # 4.4e-16 on these stacks)
        bound = 1e-15 if key is None else TOL
        assert np.abs(values - expected[(name, key)]).max() <= bound, (name, key)


def test_a_qubit_globals_do_not_depend_on_the_route():
    # A1's global transpose is solved whole on both routes, so the same
    # matrices pushed onto the generic route by a symmetric pair of 1e-300
    # entries give the same bits.  A2's is solved whole on the generic route
    # only; on the pattern route its values are A1's mirror.  A pattern
    # state is its own A1<->A2 exchange, which carries A1's transpose into
    # A2's, so the two solves agree to rounding (worst 2.2e-16 here)
    states = closed_form_states(math.pi / 2.0)
    full_states = states.copy()
    full_states[:, 0, 3] = full_states[:, 3, 0] = 1e-300
    pattern, full = negativity_batch(states), negativity_batch(full_states)
    assert pattern.pattern_ok.all() and not full.pattern_ok.any()
    for name in ("n_g", "e_3", "e_2", "e_0"):
        a1, a2 = (getattr(pattern, name)[p] for p in (QubitLabel.A1, QubitLabel.A2))
        assert np.array_equal(a1, getattr(full, name)[QubitLabel.A1]), name
        assert np.abs(a2 - getattr(full, name)[QubitLabel.A2]).max() <= TOL, name


# the slots of the four elements that have more than one, each as the
# entries that move together: a coherence and its mirror stay equal, so the
# state stays symmetric
SLOTS = [
    ((1, 1),),
    ((2, 2),),
    ((1, 2), (2, 1)),
    ((5, 5),),
    ((6, 6),),
    ((5, 6), (6, 5)),
    ((0, 5), (5, 0)),
    ((0, 6), (6, 0)),
    ((1, 7), (7, 1)),
    ((2, 7), (7, 2)),
]


def slot_noise(states, spread, seed):
    """``states`` with each slot moved at random by up to ``spread`` / 2 either way."""
    rng = np.random.default_rng(seed)
    noisy = states.copy()
    for entries in SLOTS:
        shift = rng.uniform(-0.5, 0.5, len(states)) * spread
        for i, j in entries:
            noisy[:, i, j] += shift
    return noisy


@pytest.mark.parametrize("source", ["closed form", "oracle"])
def test_slot_noise_at_the_route_boundary_matches_textbook(source):
    # the pattern route reads each element as the mean of its slots; slots
    # spread by just under the boundary keep the route and stay within the
    # textbook bound (the mean is off by up to about 2.5 times the spread)
    states = closed_form_states(1.1) if source == "closed form" else oracle_states()
    noisy = slot_noise(states, 0.98 * SLOT_SPREAD_TOL, seed=5)
    assert pattern_route(noisy).all()
    assert assert_matches_textbook(noisy) <= TOL
    assert not pattern_route(slot_noise(states, 4.0 * SLOT_SPREAD_TOL, seed=5)).all()


def test_b_global_negativity_matches_the_exact_two_block_form():
    # the kernel's closed-form B blocks against the exact reference: closed
    # forms off and at the selection angles, and the oracle states
    stacks = [closed_form_states(theta) for theta in (math.pi, math.pi / 2.0, 1.1, 0.0)]
    stacks.append(oracle_states())
    worst = 0.0
    for states in stacks:
        assert pattern_route(states).all()
        n_g_b = negativity_batch(states).n_g[QubitLabel.B]
        exact = [two_block_negativity_b(m) for m in states]
        worst = max(worst, np.abs(n_g_b - exact).max())
    assert worst <= 1e-15


def cutoff_states():
    """Pattern states whose B blocks sit 1% either side of the eigenvalue cutoff.

    Block {1, 2, 4} is [[r22, r15], [r15, r44]] with a lower eigenvalue of
    -(1 -+ 1%) times the cutoff, five hundred thousand times smaller than
    its mean; block {3, 5, 6} is [[r55, r26], [r26, r33]] with zero
    populations, so its eigenvalues are +-r26, and |r26| 1% either side of
    the cutoff.
    """
    elements = []
    for margin in (0.99, 1.01):
        delta = margin * CUTOFF
        r22, r44 = 0.5, 1e-6
        r15 = -math.sqrt((r22 + delta) * (r44 + delta))
        for r26 in (margin * CUTOFF, -margin * CUTOFF):
            r11 = 1.0 - r22 - r44
            elements.append([r11, r22, 0.0, r44, 0.0, 0.0, r15, r26])
    return states_from_elements(np.array(elements))


def test_b_blocks_at_the_cutoff_match_the_exact_form():
    states = cutoff_states()
    assert pattern_route(states).all()
    n_g_b = negativity_batch(states).n_g[QubitLabel.B]
    exact = np.array([two_block_negativity_b(m) for m in states])
    # inside the cutoff nothing counts; outside it both blocks do, each to
    # a relative 1e-8: the smaller eigenvalue is the determinant over the
    # larger, where mean - half-gap would lose about 5e-5 of it to cancellation
    assert n_g_b[:2].tolist() == exact[:2].tolist() == [0.0, 0.0]
    assert (exact[2:] > 4.0 * CUTOFF).all()
    assert (np.abs(n_g_b - exact)[2:] <= 1e-8 * exact[2:]).all()
    # and B's K-way split, from the kept eigenvectors (the states are not
    # positive, so their decompositions are left out)
    batch = batch_fields(negativity_batch(states))
    for index, m in enumerate(states):
        expected = textbook_report(m)
        for name in ("n_g", "e_3", "e_2", "e_0"):
            key = (name, QubitLabel.B)
            assert batch[key][index] == pytest.approx(expected[key], abs=TOL), (index, key)


@pytest.mark.parametrize("source", ["closed form", "oracle"])
def test_b_blocks_at_the_slot_spread_bound_match_the_exact_form(source):
    # the kernel reads the elements as the mean of their slots
    states = closed_form_states(1.1) if source == "closed form" else oracle_states()
    noisy = slot_noise(states, 0.98 * SLOT_SPREAD_TOL, seed=11)
    assert pattern_route(noisy).all()
    n_g_b = negativity_batch(noisy).n_g[QubitLabel.B]
    exact = [two_block_negativity_b(m) for m in noisy]
    assert np.abs(n_g_b - exact).max() <= TOL


def test_coherence_inside_the_cutoff_rotates_when_its_angle_counts():
    # a coherence below the 1e-12 cutoff beside a wide population gap: the
    # ket sym|0> + 3.3e-12 |111> has N_G^B = 6.6e-12, above the cutoff, so
    # the decomposition must rotate the pair, as the textbook eigensolve
    # does (0.3 x 6.6e-12 = 1.99e-12 of N_PSDG^B); and the same in the
    # other block, |000> against the sym-excited state
    # (elements r11, r22, r33, r44, r55, r66, r15, r26)
    elements = np.array(
        [
            [0.698, 0.3, 0.0, 0.0, 0.0, 1e-3, 0.0, 0.99e-12],
            [0.3, 0.698, 0.0, 0.0, 1e-3, 0.0, 0.99e-12, 0.0],
        ]
    )
    states = states_from_elements(elements)
    assert pattern_route(states).all()
    # positive: each 2x2 block has a positive determinant, and every other
    # eigenvalue is a population or zero
    r11, r22, r33, r44, r55, r66, r15, r26 = elements.T
    assert (r11 * r55 >= r15**2).all() and (r22 * r66 >= r26**2).all()
    assert assert_matches_textbook(states) <= TOL
    n_psdg_b = negativity_batch(states).n_psdg[QubitLabel.B]
    assert np.abs(n_psdg_b - 1.99e-12).max() < 1e-14


def test_diagonal_state_with_only_basis_kets_matches_textbook():
    # a generic-route state (its |100> and |010> populations differ) whose
    # decomposition kets are all basis states, whose two-way transposes are
    # diagonal, so every share term the solve gives is exactly 0
    state = np.diag(np.arange(1.0, 9.0)) / 36.0
    assert not pattern_route(state[None]).any()
    assert assert_matches_textbook(state[None]) <= TOL
    report = negativity_report(state)
    assert all(value == 0.0 for value in report.e_psd.values())
