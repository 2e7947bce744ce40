"""The diagnostics kernel against a textbook evaluation that shares none of its code.

The reference builds each partial transpose (Peres, PRL 77, 1413 (1996)) by
reshaping the state to six axes of 2 and swapping the transposed qubit's row
and column axes.  The K-way and selective variants keep the transposed entry
only where the row and column bit strings differ as their definitions say,
with the masks built entry by entry from the bit strings.  Every spectrum
comes from `numpy.linalg.eigh`/`eigvalsh` on the full 8x8 matrix, and the
pure-state decomposition is the state's own eigendecomposition.  None of it
uses the kernel's index maps, index blocks or analytic decomposition, so a
wrong map or block moves the kernel's values and not the reference's.

Closed-form and brute-force oracle states (both exactly zero outside the
zero pattern) take the kernel's pattern route, its index blocks and
analytic decomposition; oracle states with seeded noise outside the
pattern, and random states, take its generic route, one 8-index block per
transpose and the eigensolver decomposition.  Every diagnostic must agree
to 1e-12.
"""

import math

import numpy as np
import pytest

import cavity3q.entanglement as ent
from cavity3q import (
    PATTERN_MASK,
    SELECTIVE_SPECS,
    QubitLabel,
    closed_form_grid,
    full_evolution_grid,
    negativity_batch,
    states_from_elements,
)
from cavity3q.cli import ORACLE_CHECK_SQUEEZES, ORACLE_CHECK_TAUS, ORACLE_CHECK_THETAS

TOL = 1e-12
CUTOFF = 1e-12

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


def textbook_report(m):
    """Every diagnostic of the kernel for one state, keyed like `kernel_report`."""
    out = {}
    for p in QubitLabel:
        vals, vectors = negative_vectors(full_transpose(m, p))
        out[("n_g", p)] = -2.0 * float(vals.sum())
        out[("e_3", p)] = -2.0 * projected(restricted_transpose(m, p, kway_mask(3)), vectors)
        out[("e_2", p)] = -2.0 * projected(restricted_transpose(m, p, kway_mask(2)), vectors)
        out[("e_0", p)] = -2.0 * projected(m, vectors)

    weights, kets = np.linalg.eigh(m)
    terms = {key: 0.0 for key in [*QubitLabel, *SELECTIVE_SPECS]}
    for weight, ket in zip(weights, kets.T):
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
    out["linear_entropy_b"] = 2.0 * (1.0 - float(np.real(np.trace(reduced_b @ reduced_b))))
    w1 = np.zeros(8)
    w1[[0, 5, 6]] = 1.0 / math.sqrt(3.0)
    out["w1_fidelity"] = float(np.real(w1 @ m @ w1))
    sym = np.zeros(8)
    sym[[5, 6]] = 1.0 / math.sqrt(2.0)
    out["bell_projection"] = float(np.real(m[0, 0])) + float(np.real(sym @ m @ sym))
    return out


def kernel_report(batch, index):
    out = {}
    for name in ("n_g", "e_3", "e_2", "e_0", "n_psdg", "e_psd"):
        for key, values in getattr(batch, name).items():
            out[(name, key)] = float(values[index])
    for name in ("linear_entropy_b", "w1_fidelity", "bell_projection"):
        out[name] = float(getattr(batch, name)[index])
    return out


def assert_matches_textbook(states):
    batch = negativity_batch(states)
    worst = 0.0
    for index, m in enumerate(states):
        expected = textbook_report(m)
        got = kernel_report(batch, index)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            worst = max(worst, abs(got[key] - value))
            assert got[key] == pytest.approx(value, abs=TOL), (index, key)
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


def block_rows(states):
    return ent._pattern_route(states)[0]


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
    assert block_rows(states).all()
    assert assert_matches_textbook(states) <= TOL


def test_oracle_states_match_textbook():
    states = oracle_states()
    assert len(states) == 36
    # exact zeros outside the zero pattern: the pattern route, as for the closed forms
    assert block_rows(states).all()
    assert assert_matches_textbook(states) <= TOL


def test_noisy_oracle_states_match_textbook():
    # any entry off the pattern sends a state down the generic route, which
    # decomposes the whole state: a state decomposed from its pattern
    # entries alone would be off the textbook by about a hundred times the
    # noise (2e-7 at 1e-9)
    for scale in (1e-13, 1e-9):
        states = oracle_states(noise_seed=7, scale=scale)
        assert not block_rows(states).any()
        assert assert_matches_textbook(states) <= TOL


@pytest.mark.parametrize("dtype", [float, complex])
def test_random_states_match_textbook(dtype):
    rng = np.random.default_rng(2024)
    a = rng.standard_normal((12, 8, 8))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((12, 8, 8))
    # rank 3, so several decomposition weights are zero
    a[:, :, 3:] = 0.0
    states = a @ a.conj().swapaxes(-1, -2)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    assert not block_rows(states).any()
    assert assert_matches_textbook(states) <= TOL


def test_non_psd_pattern_state_keeps_its_single_index_blocks():
    # a Hermitian state on the zero pattern with negative populations: the
    # 1x1 blocks of the global transposes ({2} and {5} for A1, {1} and {6}
    # for A2, {0} and {7} for B) hold negative eigenvalues of their own
    state = closed_form_states(math.pi)[9].copy()
    state[[1, 1, 2, 2], [1, 2, 1, 2]] = -0.05
    state[[5, 5, 6, 6], [5, 6, 5, 6]] = -0.03
    state[0, 0] -= 0.9
    state[7, 7] = -0.02
    assert block_rows(state[None]).all()
    assert assert_matches_textbook(state[None]) <= TOL


def generic_route_only(monkeypatch):
    """Send every state down the generic route, through the kernel's route decision."""
    pattern_route = ent._pattern_route

    def generic(m):
        pattern_ok, elements = pattern_route(m)
        return np.zeros_like(pattern_ok), elements

    monkeypatch.setattr(ent, "_pattern_route", generic)


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0, math.pi / 3.0, 1.1])
def test_block_path_matches_full_fallback(theta, monkeypatch):
    states = closed_form_states(theta)
    blocks = negativity_batch(states)
    generic_route_only(monkeypatch)
    full = negativity_batch(states)
    assert blocks.pattern_ok.all() and not full.pattern_ok.any()
    for name in ("n_g", "e_3", "e_2", "e_0", "n_psdg", "e_psd"):
        for key, values in getattr(blocks, name).items():
            assert np.abs(values - getattr(full, name)[key]).max() <= 1e-14, (name, key)
    for name in ("linear_entropy_b", "w1_fidelity", "bell_projection"):
        assert np.array_equal(getattr(blocks, name), getattr(full, name)), name


def test_index_blocks_are_derived_from_the_pattern():
    # global transposes: two 3x3 and two 1x1 blocks per qubit
    for p, (first, second, single_a, single_b) in {
        QubitLabel.A1: ((0, 3, 6), (1, 4, 7), (2,), (5,)),
        QubitLabel.A2: ((0, 3, 5), (2, 4, 7), (1,), (6,)),
        QubitLabel.B: ((1, 2, 4), (3, 5, 6), (0,), (7,)),
    }.items():
        support = ent.PATTERN_MASK.reshape(64)[ent._transpose_positions(p, True)]
        assert sorted(ent._index_blocks(support)) == sorted([first, second, single_a, single_b])
    # the analytic decomposition kets live on the state's own two 3-index blocks
    assert sorted(ent._index_blocks(ent.PATTERN_MASK)) == [(0, 5, 6), (1, 2, 7), (3,), (4,)]
    assert sorted(ent._STATE_GATHERS) == [1, 3]


def test_whole_support_tables_hold_one_block_per_owner():
    # a state off the zero pattern is one 8-index block per transposed qubit
    # (global stage) and per share qubit (ket stage); gathered from a matrix
    # of distinct entries, each block is the textbook transpose or map in full
    m = np.arange(64.0).reshape(8, 8)
    assert list(ent._WHOLE_STATE_GATHERS) == [8]
    state = ent._WHOLE_STATE_GATHERS[8]
    assert state.shape == (len(QubitLabel), 1, 4, 8, 8)
    for p in QubitLabel:
        expected = [
            full_transpose(m, p),
            restricted_transpose(m, p, kway_mask(3)),
            restricted_transpose(m, p, kway_mask(2)),
            m,
        ]
        assert np.array_equal(m.reshape(64)[state[p.value, 0]], np.stack(expected))
    share_qubits = list(dict.fromkeys(p for p, _ in SELECTIVE_SPECS.values()))
    assert list(ent._WHOLE_KET_GATHERS) == [8]
    kets = ent._WHOLE_KET_GATHERS[8]
    assert kets.shape == (len(share_qubits), 1, 3, 8, 8)
    for owner, p in enumerate(share_qubits):
        expected = [restricted_transpose(m, p, kway_mask(2))] + [
            restricted_transpose(m, p, selective_mask(spec))
            for spec, (first, _) in SELECTIVE_SPECS.items()
            if first is p
        ]
        assert np.array_equal(m.reshape(64)[kets[owner, 0]], np.stack(expected))


def test_kernel_transpose_maps_match_textbook():
    # every (qubit, mask) the kernel gathers: global, k = 3 and k = 2 per
    # qubit, and the four selective specs, each read through the kernel's
    # own index map; None stands for the full transpose
    cases = [(p, True, None) for p in QubitLabel]
    cases += [(p, ent._kway_mask(k), kway_mask(k)) for p in QubitLabel for k in (3, 2)]
    cases += [
        (p, ent._selective_mask(spec), selective_mask(spec))
        for spec, (p, _) in SELECTIVE_SPECS.items()
    ]
    maps = [ent._transpose_positions(p, mask) for p, mask, _ in cases]
    # the cases are exactly the kernel's tables, less the state's own map
    gathered = [m for owner in ent._STATE_MAPS for m in owner[:3]]
    gathered += [m for owner in ent._SHARE_MAPS for m in owner]
    assert {m.tobytes() for m in gathered} == {m.tobytes() for m in maps}
    rng = np.random.default_rng(12)
    states = rng.standard_normal((20, 8, 8)) + 1j * rng.standard_normal((20, 8, 8))
    for (p, _, mask), positions in zip(cases, maps):
        for m in states:
            expected = full_transpose(m, p) if mask is None else restricted_transpose(m, p, mask)
            assert np.array_equal(m.reshape(64)[positions], expected), (p, mask)
