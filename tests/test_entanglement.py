"""The diagnostics on states whose values are known, through the kernel and its stages.

Every diagnostic is read from `negativity_batch` (or `negativity_report`, its
grid of one).  The transposes are the kernel's own index maps
(`_transpose_positions` on its K-way and selective masks), the pure-state
decomposition is `_decompose_stack`, the stage the kernel runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavity3q.entanglement as ent
from cavity3q import (
    SELECTIVE_SPECS,
    FieldConfig,
    QubitLabel,
    W1_STATE,
    closed_form_rho,
    negativity_batch,
    negativity_report,
)
from test_diagnostics_reference import textbook_report

A1, A2, B = QubitLabel.A1, QubitLabel.A2, QubitLabel.B

BELL_A1B = np.zeros(8, dtype=complex)
BELL_A1B[0] = BELL_A1B[5] = 1.0 / math.sqrt(2.0)  # (|000> + |101>) / sqrt2

GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1.0 / math.sqrt(2.0)


def pure(vec):
    return np.outer(vec, vec.conj())


def random_hermitian_psd(rng, dim=8, real=False):
    if real:
        a = rng.standard_normal((dim, dim))
    else:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.real(np.trace(rho))


def random_unitary(rng, dim=8):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def grid_states():
    cfg = FieldConfig(0.9, 2.2, 25)
    return [closed_form_rho(tau, cfg) for tau in (0.3, 0.8, 2.0, 14.5)]


def transposed(m, p, mask=True):
    """``m`` under the kernel's map: qubit ``p``'s bits swapped on the entries in ``mask``."""
    return m.reshape(*m.shape[:-2], 64)[..., ent._transpose_positions(p, mask)]


def kway(m, p, k):
    return transposed(m, p, ent._kway_mask(k))


def selective(m, spec):
    return transposed(m, SELECTIVE_SPECS[spec][0], ent._selective_mask(spec))


def kernel_maps(m):
    """Every transpose the kernel gathers, of one state or a stack."""
    maps = [transposed(m, p) for p in QubitLabel]
    maps += [kway(m, p, k) for p in QubitLabel for k in (2, 3)]
    return maps + [selective(m, spec) for spec in SELECTIVE_SPECS]


def decomposition(states):
    """The kernel's pure-state decomposition: probabilities (N, 8), unit kets as columns (N, 8, 8)."""
    states = np.asarray(states)
    pattern_ok, elements = ent._pattern_check(states)
    return ent._decompose_stack(states, pattern_ok, elements)


def reconstructed(probs, vectors):
    return (vectors * probs[:, None, :]) @ vectors.conj().swapaxes(-1, -2)


def matrices(states):
    return np.array([rho.matrix for rho in states])


# ---------------------------------------------------------------- transposes


def test_global_transpose_leaves_diagonal_matrices_alone():
    d = np.diag(np.arange(1.0, 9.0))
    for t in kernel_maps(d):
        assert np.array_equal(t, d)


def test_transposes_are_involutions():
    rng = np.random.default_rng(7)
    m = random_hermitian_psd(rng)
    for p in QubitLabel:
        assert np.array_equal(transposed(transposed(m, p), p), m)
        for k in (2, 3):
            assert np.array_equal(kway(kway(m, p, k), p, k), m)
    for spec in SELECTIVE_SPECS:
        assert np.array_equal(selective(selective(m, spec), spec), m)


def test_bell_pair_transpose_has_minus_half_eigenvalue():
    rho = pure(BELL_A1B)
    assert np.linalg.eigvalsh(transposed(rho, B)).min() == pytest.approx(-0.5, abs=1e-12)
    assert negativity_batch(rho[None]).n_g[B][0] == pytest.approx(1.0, abs=1e-12)


def test_ghz_two_way_transpose_is_identity_operation():
    rho = pure(GHZ)
    for p in QubitLabel:
        assert np.array_equal(kway(rho, p, 2), rho)


def test_kway_decomposition_identity():
    # 3-way plus 2-way minus the state reproduces the global transpose
    rng = np.random.default_rng(11)
    candidates = [rho.matrix for rho in grid_states()]
    candidates.append(random_hermitian_psd(rng, real=True).astype(complex))
    for m in candidates:
        for p in QubitLabel:
            lhs = kway(m, p, 3) + kway(m, p, 2) - m
            assert np.abs(lhs - transposed(m, p)).max() < 1e-14


def test_selective_split_identities():
    rng = np.random.default_rng(13)
    candidates = [rho.matrix for rho in grid_states()]
    candidates.append(random_hermitian_psd(rng))
    for m in candidates:
        lhs_b = selective(m, "B-BA1") + selective(m, "B-BA2") - m
        assert np.abs(lhs_b - kway(m, B, 2)).max() < 1e-14
        lhs_a = selective(m, "A1-A1B") + selective(m, "A1-A1A2") - m
        assert np.abs(lhs_a - kway(m, A1, 2)).max() < 1e-14


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_transpose_invariants_on_random_states(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian_psd(rng)
    for t in kernel_maps(m):
        assert np.abs(t - t.conj().T).max() < 1e-14
        assert np.trace(t) == pytest.approx(np.trace(m), abs=1e-14)


# ------------------------------------------------------------- negativities


def test_negative_eigensum_on_psd_matrix_is_zero():
    # the kernel's solver keeps no eigenpair of a positive semidefinite matrix
    rng = np.random.default_rng(3)
    vals, vecs = ent._negative_pairs(random_hermitian_psd(rng))
    assert not vals.any() and not vecs.any()


def test_negative_eigensum_rejects_non_hermitian():
    m = np.eye(8, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity_batch(m[None])


def test_negative_eigensum_unitary_conjugation_invariance():
    rng = np.random.default_rng(5)
    m = random_hermitian_psd(rng) - 0.05 * np.eye(8)
    rotated = []
    for _ in range(5):
        u = random_unitary(rng)
        rotated.append(u @ m @ u.conj().T)
    vals, _ = ent._negative_pairs(np.array([m, *rotated]))
    sums = -2.0 * vals.sum(axis=-1)
    assert sums[0] > 0.0
    assert np.abs(sums[1:] - sums[0]).max() < 1e-10


def test_pure_w_state_negativity():
    batch = negativity_batch(pure(W1_STATE)[None])
    assert batch.n_g[B][0] == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-10)


def test_product_state_negativities_vanish():
    rng = np.random.default_rng(9)
    factors = [random_hermitian_psd(rng, dim=2) for _ in range(3)]
    m = np.kron(factors[2], np.kron(factors[1], factors[0]))  # B slowest, A1 fastest
    batch = negativity_batch(m[None])
    for p in QubitLabel:
        assert batch.n_g[p][0] == 0.0
        assert batch.n_psdg[p][0] < 1e-12


def test_kway_split_identity():
    batch = negativity_batch(matrices(grid_states()))
    for p in QubitLabel:
        split = batch.e_3[p] + batch.e_2[p] - batch.e_0[p]
        assert np.abs(batch.n_g[p] - split).max() < 1e-10


def test_ghz_three_way_negativity():
    batch = negativity_batch(pure(GHZ)[None])
    for p in QubitLabel:
        assert batch.n_g[p][0] == pytest.approx(1.0, abs=1e-10)
        assert batch.e_3[p][0] == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------ decomposition


def test_decompose_at_tau_zero():
    cfg = FieldConfig(0.9, 2.0, 25)
    probs, vectors = decomposition(closed_form_rho(0.0, cfg).matrix[None])
    ordered = sorted(probs[0], reverse=True)
    assert ordered[0] == pytest.approx(1.0, abs=1e-6)
    assert max(ordered[1:]) < 1e-12
    top = vectors[0][:, int(np.argmax(probs[0]))]
    assert abs(abs(top[0]) - 1.0) < 1e-12


def test_decompose_reconstructs_state():
    states = grid_states()
    probs, vectors = decomposition(matrices(states))
    assert np.abs(reconstructed(probs, vectors) - matrices(states)).max() < 1e-10
    for rho, weights in zip(states, probs):
        assert math.fsum(weights.tolist()) == pytest.approx(np.trace(rho.matrix), abs=1e-10)
    assert np.abs(np.linalg.norm(vectors, axis=-2) - 1.0).max() < 1e-12


def test_decompose_matches_generic_eigenvalues():
    m = matrices(grid_states())
    probs, _ = decomposition(m)
    expected = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    assert np.abs(np.sort(probs, axis=-1) - expected).max() < 1e-10


def test_decompose_fallback_for_generic_states():
    rng = np.random.default_rng(21)
    m = random_hermitian_psd(rng)
    probs, vectors = decomposition(m[None])
    assert np.abs(reconstructed(probs, vectors)[0] - m).max() < 1e-10


def test_decompose_degenerate_pair_is_deterministic():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 0.25
    for i in (5, 6):
        for j in (5, 6):
            m[i, j] = 0.125  # sym-excited population equal to |000> population
    m[3, 3] = 0.5
    _, vectors = decomposition(m[None])
    # the degenerate pair stays unrotated: |000> itself, then the symmetric state
    assert abs(vectors[0, 0, 0] - 1.0) < 1e-12
    assert abs(vectors[0, 5, 1] - 1.0 / math.sqrt(2.0)) < 1e-12


def test_psdg_swap_symmetry_and_lower_bound():
    batch = negativity_batch(matrices(grid_states()))
    assert np.abs(batch.n_psdg[A1] - batch.n_psdg[A2]).max() < 1e-10
    assert (batch.n_psdg[B] >= batch.n_g[B] - 1e-10).all()


def test_psd_partial_split_identities():
    batch = negativity_batch(matrices(grid_states()))
    share_1, share_2 = batch.e_psd["B-BA1"], batch.e_psd["B-BA2"]
    assert np.abs(share_1 - share_2).max() < 1e-10
    assert np.abs(batch.n_psdg[B] - (share_1 + share_2)).max() < 1e-10
    pair_share, remote_share = batch.e_psd["A1-A1A2"], batch.e_psd["A1-A1B"]
    assert np.abs(batch.n_psdg[A1] - (pair_share + remote_share)).max() < 1e-10


def test_decomposition_states_have_no_three_way_negativity():
    probs, vectors = decomposition(matrices(grid_states()))
    kets = vectors.swapaxes(-1, -2)[probs > 1e-15]
    batch = negativity_batch(kets[:, :, None] * kets[:, None, :].conj())
    for p in QubitLabel:
        assert np.abs(batch.e_3[p]).max() < 1e-10


# ------------------------------------------------------- reduced-state tools


def test_partial_trace_of_product_state():
    # B's reduced state of a product state is its B factor
    rng = np.random.default_rng(17)
    fa1 = random_hermitian_psd(rng, dim=2)
    fa2 = random_hermitian_psd(rng, dim=2)
    fb = random_hermitian_psd(rng, dim=2)
    m = np.kron(fb, np.kron(fa2, fa1))
    expected = 2.0 * (1.0 - np.real(np.trace(fb @ fb)))
    assert abs(negativity_batch(m[None]).linear_entropy_b[0] - expected) < 1e-14


def test_partial_trace_of_bell_pair():
    # B's reduced state of a Bell pair with A1 is maximally mixed
    entropy = negativity_batch(pure(BELL_A1B)[None]).linear_entropy_b[0]
    assert abs(entropy - 1.0) < 1e-14


def test_linear_entropy_limits():
    # B pure, then B maximally mixed, with the pair in any state
    rest = random_hermitian_psd(np.random.default_rng(19), dim=4)
    states = [np.kron(np.diag([1.0, 0.0]), rest), np.kron(np.eye(2) / 2.0, rest)]
    entropy = negativity_batch(np.array(states)).linear_entropy_b
    assert entropy[0] == pytest.approx(0.0, abs=1e-15)
    assert entropy[1] == pytest.approx(1.0, abs=1e-15)


def test_w1_fidelity_values():
    rho0 = closed_form_rho(0.0, FieldConfig(1.2, math.pi, 80)).matrix
    fidelity = negativity_batch(np.array([pure(W1_STATE), rho0])).w1_fidelity
    assert fidelity[0] == pytest.approx(1.0, abs=1e-12)
    assert fidelity[1] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_bell_projection_probability():
    cfg = FieldConfig(1.2, math.pi, 60)
    rho0, rho = closed_form_rho(0.0, cfg), closed_form_rho(2.3, cfg)
    m = rho.matrix
    projection = negativity_batch(np.array([rho0.matrix, m])).bell_projection
    assert projection[0] == pytest.approx(np.trace(rho0.matrix), abs=1e-12)
    # sector weight |000> plus sym-excited, which is also the top
    # decomposition pair's combined probability
    sector = float(np.real(m[0, 0])) + float(np.real(m[5, 5] + m[5, 6] + m[6, 5] + m[6, 6])) / 2.0
    assert projection[1] == pytest.approx(sector, abs=1e-12)
    probs, _ = decomposition(m[None])
    assert projection[1] == pytest.approx(probs[0, 0] + probs[0, 1], abs=1e-10)


def test_symmetric_bell_projection_via_partial_trace():
    # the probability of finding the c1 pair in (|10>+|01>)/sqrt2 after
    # tracing out B, checked against the sym-sector populations
    rho = closed_form_rho(2.3, FieldConfig(1.2, math.pi, 60))
    m = rho.matrix
    # B is the slowest bit: trace it out of the (B, A2 A1) x (B, A2 A1) view
    reduced = np.trace(m.reshape(2, 4, 2, 4), axis1=0, axis2=2)
    psi_plus = np.zeros(4, dtype=complex)
    psi_plus[1] = psi_plus[2] = 1.0 / math.sqrt(2.0)
    projection = float(np.real(psi_plus.conj() @ reduced @ psi_plus))
    sym_populations = float(
        np.real(m[1, 1] + m[1, 2] + m[2, 1] + m[2, 2] + m[5, 5] + m[5, 6] + m[6, 5] + m[6, 6])
    ) / 2.0
    assert projection == pytest.approx(sym_populations, abs=1e-12)


def test_report_consistency_with_individual_functions():
    # the scalar report against the textbook evaluation of each quantity
    rho = closed_form_rho(2.0, FieldConfig(0.9, 2.2, 25))
    report = negativity_report(rho)
    for key, value in textbook_report(rho.matrix).items():
        name, sub = key if isinstance(key, tuple) else (key, None)
        got = getattr(report, name) if sub is None else getattr(report, name)[sub]
        assert got == pytest.approx(value, abs=1e-12), key
    for value in (*report.n_g.values(), *report.n_psdg.values(), *report.e_psd.values()):
        assert value >= 0.0


# -------------------------------------------------------------- bad inputs


def scalar_state():
    return closed_form_rho(0.8, FieldConfig(1.2, math.pi, 40)).matrix[None]


@pytest.mark.parametrize("qubit", [2, 2.0, True, "B", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda m, p: negativity_batch(m, global_qubits=(p,)),
        lambda m, p: negativity_batch(m, global_qubits=[B, p]).e_2[p],
        lambda m, p: negativity_batch(m, global_qubits=(p,)).n_g[p],
        lambda m, p: negativity_batch(m, global_qubits=(A1, p)).e_3[p],
    ],
    ids=["transpose", "kway-transpose", "global", "kway-negativity"],
)
def test_qubit_must_be_a_label(call, qubit):
    # global_qubits names the qubits whose global transpose (n_g) and K-way
    # split (e_3, e_2, e_0) are solved; True would otherwise read as A2
    with pytest.raises(ValueError, match="global_qubits must hold QubitLabel members"):
        call(scalar_state(), qubit)
