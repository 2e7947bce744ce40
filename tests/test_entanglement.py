import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity3q import (
    FieldConfig,
    QubitLabel,
    W1_STATE,
    analytic_negativity_b,
    bell_projection_probability,
    closed_form_rho,
    decompose,
    global_negativity,
    linear_entropy,
    negative_eigensum,
    negativity_report,
    partial_kway_negativity,
    partial_trace,
    partial_transpose_global,
    partial_transpose_kway,
    psd_partial_negativity,
    psdg_negativity,
    selective_partial_transpose,
    w1_fidelity,
)
from cavity3q.entanglement import negative_eigenpairs

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


# ---------------------------------------------------------------- transposes


def test_global_transpose_leaves_diagonal_matrices_alone():
    d = np.diag(np.arange(1.0, 9.0))
    for p in QubitLabel:
        assert np.array_equal(partial_transpose_global(d, p), d)
        assert np.array_equal(partial_transpose_kway(d, p, 2), d)
        assert np.array_equal(partial_transpose_kway(d, p, 3), d)
    for spec in ("B-BA1", "B-BA2", "A1-A1A2", "A1-A1B"):
        assert np.array_equal(selective_partial_transpose(d, spec), d)


def test_transposes_are_involutions():
    rng = np.random.default_rng(7)
    m = random_hermitian_psd(rng)
    for p in QubitLabel:
        assert np.array_equal(partial_transpose_global(partial_transpose_global(m, p), p), m)
        for k in (2, 3):
            twice = partial_transpose_kway(partial_transpose_kway(m, p, k), p, k)
            assert np.array_equal(twice, m)
    for spec in ("B-BA1", "B-BA2", "A1-A1A2", "A1-A1B"):
        twice = selective_partial_transpose(selective_partial_transpose(m, spec), spec)
        assert np.array_equal(twice, m)


def test_bell_pair_transpose_has_minus_half_eigenvalue():
    rho = pure(BELL_A1B)
    transposed = partial_transpose_global(rho, B)
    assert np.linalg.eigvalsh(transposed).min() == pytest.approx(-0.5, abs=1e-12)
    assert negative_eigensum(transposed) == pytest.approx(1.0, abs=1e-12)


def test_kway_rejects_bad_k():
    with pytest.raises(ValueError):
        partial_transpose_kway(np.eye(8), B, 1)


def test_selective_rejects_unknown_spec():
    with pytest.raises(ValueError):
        selective_partial_transpose(np.eye(8), "B-A1A2")


def test_ghz_two_way_transpose_is_identity_operation():
    rho = pure(GHZ)
    for p in QubitLabel:
        assert np.array_equal(partial_transpose_kway(rho, p, 2), rho)


def test_kway_decomposition_identity():
    # 3-way plus 2-way minus the state reproduces the global transpose
    for rho in grid_states():
        m = rho.matrix
        for p in QubitLabel:
            lhs = partial_transpose_kway(m, p, 3) + partial_transpose_kway(m, p, 2) - m
            assert np.abs(lhs - partial_transpose_global(m, p)).max() < 1e-14
    rng = np.random.default_rng(11)
    m = random_hermitian_psd(rng, real=True).astype(complex)
    for p in QubitLabel:
        lhs = partial_transpose_kway(m, p, 3) + partial_transpose_kway(m, p, 2) - m
        assert np.abs(lhs - partial_transpose_global(m, p)).max() < 1e-14


def test_selective_split_identities():
    rng = np.random.default_rng(13)
    candidates = [rho.matrix for rho in grid_states()]
    candidates.append(random_hermitian_psd(rng))
    for m in candidates:
        lhs_b = (
            selective_partial_transpose(m, "B-BA1")
            + selective_partial_transpose(m, "B-BA2")
            - m
        )
        assert np.abs(lhs_b - partial_transpose_kway(m, B, 2)).max() < 1e-14
        lhs_a = (
            selective_partial_transpose(m, "A1-A1B")
            + selective_partial_transpose(m, "A1-A1A2")
            - m
        )
        assert np.abs(lhs_a - partial_transpose_kway(m, A1, 2)).max() < 1e-14


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_transpose_invariants_on_random_states(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian_psd(rng)
    transposed = [partial_transpose_global(m, p) for p in QubitLabel]
    transposed += [partial_transpose_kway(m, p, k) for p in QubitLabel for k in (2, 3)]
    transposed += [selective_partial_transpose(m, spec) for spec in ("B-BA1", "A1-A1A2")]
    for t in transposed:
        assert np.abs(t - t.conj().T).max() < 1e-14
        assert np.trace(t) == pytest.approx(np.trace(m), abs=1e-14)


# ------------------------------------------------------------- negativities


def test_negative_eigensum_on_psd_matrix_is_zero():
    rng = np.random.default_rng(3)
    assert negative_eigensum(random_hermitian_psd(rng)) == 0.0


def test_negative_eigensum_rejects_non_hermitian():
    m = np.eye(8, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError):
        negative_eigensum(m)


def test_negative_eigensum_unitary_conjugation_invariance():
    rng = np.random.default_rng(5)
    m = random_hermitian_psd(rng) - 0.05 * np.eye(8)
    base = negative_eigensum(m)
    assert base > 0.0
    for _ in range(5):
        u = random_unitary(rng)
        assert negative_eigensum(u @ m @ u.conj().T) == pytest.approx(base, abs=1e-10)


def test_pure_w_state_negativity():
    rho = pure(W1_STATE)
    expected = 2.0 * math.sqrt(2.0) / 3.0
    assert global_negativity(rho, B) == pytest.approx(expected, abs=1e-10)


def test_product_state_negativities_vanish():
    rng = np.random.default_rng(9)
    factors = [random_hermitian_psd(rng, dim=2) for _ in range(3)]
    m = np.kron(factors[2], np.kron(factors[1], factors[0]))  # B slowest, A1 fastest
    for p in QubitLabel:
        assert global_negativity(m, p) == 0.0
        assert psdg_negativity(m, p) < 1e-12


def test_analytic_negativity_matches_eigensolver():
    cfg = FieldConfig(1.2, math.pi, 60)
    for tau in np.linspace(0.0, 20.0, 41):
        rho = closed_form_rho(float(tau), cfg)
        assert analytic_negativity_b(rho) == pytest.approx(
            global_negativity(rho, B), abs=1e-10
        )


def test_analytic_negativity_rejects_pattern_violation():
    m = closed_form_rho(1.0, FieldConfig(0.8, 2.0, 20)).matrix.copy()
    m[0, 3] = m[3, 0] = 0.05
    with pytest.raises(ValueError):
        analytic_negativity_b(m)


def test_kway_split_identity():
    for rho in grid_states():
        for p in QubitLabel:
            n_g = global_negativity(rho, p)
            e3 = partial_kway_negativity(rho, p, 3)
            e2 = partial_kway_negativity(rho, p, 2)
            e0 = partial_kway_negativity(rho, p, 0)
            assert n_g == pytest.approx(e3 + e2 - e0, abs=1e-10)


def test_ghz_three_way_negativity():
    rho = pure(GHZ)
    for p in QubitLabel:
        assert global_negativity(rho, p) == pytest.approx(1.0, abs=1e-10)
        assert partial_kway_negativity(rho, p, 3) == pytest.approx(1.0, abs=1e-10)


def test_partial_kway_rejects_bad_k():
    with pytest.raises(ValueError):
        partial_kway_negativity(np.eye(8) / 8.0, B, 1)


# ------------------------------------------------------------ decomposition


def test_decompose_at_tau_zero():
    cfg = FieldConfig(0.9, 2.0, 25)
    dec = decompose(closed_form_rho(0.0, cfg))
    probs = sorted(dec.probabilities, reverse=True)
    assert probs[0] == pytest.approx(1.0, abs=1e-6)
    assert max(probs[1:]) < 1e-12
    top = dec.vectors[:, int(np.argmax(dec.probabilities))]
    assert abs(abs(top[0]) - 1.0) < 1e-12


def test_decompose_reconstructs_state():
    for rho in grid_states():
        dec = decompose(rho)
        assert np.abs(dec.reconstruct() - rho.matrix).max() < 1e-10
        assert math.fsum(dec.probabilities.tolist()) == pytest.approx(rho.trace(), abs=1e-10)
        assert np.abs(np.linalg.norm(dec.vectors, axis=0) - 1.0).max() < 1e-12


def test_decompose_matches_generic_eigenvalues():
    for rho in grid_states():
        dec = decompose(rho)
        expected = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
        assert np.abs(np.sort(dec.probabilities) - expected).max() < 1e-10


def test_decompose_fallback_for_generic_states():
    rng = np.random.default_rng(21)
    m = random_hermitian_psd(rng)
    dec = decompose(m)
    assert np.abs(dec.reconstruct() - m).max() < 1e-10


def test_decompose_degenerate_pair_is_deterministic():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 0.25
    for i in (5, 6):
        for j in (5, 6):
            m[i, j] = 0.125  # sym-excited population equal to |000> population
    m[3, 3] = 0.5
    dec = decompose(m)
    # the degenerate pair stays unrotated: |000> itself, then the symmetric state
    assert abs(dec.vectors[0, 0] - 1.0) < 1e-12
    assert abs(dec.vectors[5, 1] - 1.0 / math.sqrt(2.0)) < 1e-12


def test_psdg_swap_symmetry_and_lower_bound():
    for rho in grid_states():
        a1 = psdg_negativity(rho, A1)
        a2 = psdg_negativity(rho, A2)
        assert a1 == pytest.approx(a2, abs=1e-10)
        assert psdg_negativity(rho, B) >= global_negativity(rho, B) - 1e-10


def test_psd_partial_split_identities():
    for rho in grid_states():
        n_b = psdg_negativity(rho, B)
        share_1 = psd_partial_negativity(rho, "B-BA1")
        share_2 = psd_partial_negativity(rho, "B-BA2")
        assert share_1 == pytest.approx(share_2, abs=1e-10)
        assert n_b == pytest.approx(share_1 + share_2, abs=1e-10)

        n_a = psdg_negativity(rho, A1)
        pair_share = psd_partial_negativity(rho, "A1-A1A2")
        remote_share = psd_partial_negativity(rho, "A1-A1B")
        assert n_a == pytest.approx(pair_share + remote_share, abs=1e-10)


def test_decomposition_states_have_no_three_way_negativity():
    for rho in grid_states():
        for prob, vec in decompose(rho):
            if prob <= 1e-15:
                continue
            state = pure(vec)
            for p in QubitLabel:
                assert abs(partial_kway_negativity(state, p, 3)) < 1e-10


# ------------------------------------------------------- reduced-state tools


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(17)
    fa1 = random_hermitian_psd(rng, dim=2)
    fa2 = random_hermitian_psd(rng, dim=2)
    fb = random_hermitian_psd(rng, dim=2)
    m = np.kron(fb, np.kron(fa2, fa1))
    assert np.abs(partial_trace(m, {A1, A2}) - np.kron(fa2, fa1)).max() < 1e-14
    assert np.abs(partial_trace(m, {B}) - fb).max() < 1e-14
    assert np.abs(partial_trace(m, {A1}) - fa1).max() < 1e-14


def test_partial_trace_of_bell_pair():
    reduced = partial_trace(pure(BELL_A1B), {B})
    assert np.abs(reduced - np.eye(2) / 2.0).max() < 1e-14


def test_partial_trace_requires_nonempty_keep():
    with pytest.raises(ValueError):
        partial_trace(np.eye(8) / 8.0, set())


def test_linear_entropy_limits():
    assert linear_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert linear_entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        linear_entropy(np.eye(1))


def test_w1_fidelity_values():
    assert w1_fidelity(pure(W1_STATE)) == pytest.approx(1.0, abs=1e-12)
    rho0 = closed_form_rho(0.0, FieldConfig(1.2, math.pi, 80))
    assert w1_fidelity(rho0) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_bell_projection_probability():
    cfg = FieldConfig(1.2, math.pi, 60)
    rho0 = closed_form_rho(0.0, cfg)
    assert bell_projection_probability(rho0) == pytest.approx(rho0.trace(), abs=1e-12)
    rho = closed_form_rho(2.3, cfg)
    m = rho.matrix
    # sector weight |000> plus sym-excited, which is also the top
    # decomposition pair's combined probability
    sector = float(np.real(m[0, 0])) + float(np.real(m[5, 5] + m[5, 6] + m[6, 5] + m[6, 6])) / 2.0
    assert bell_projection_probability(rho) == pytest.approx(sector, abs=1e-12)
    dec = decompose(rho)
    pair_weight = dec.probabilities[0] + dec.probabilities[1]
    assert bell_projection_probability(rho) == pytest.approx(pair_weight, abs=1e-10)


def test_symmetric_bell_projection_via_partial_trace():
    # the probability of finding the c1 pair in (|10>+|01>)/sqrt2 after
    # tracing out B, checked against the sym-sector populations
    rho = closed_form_rho(2.3, FieldConfig(1.2, math.pi, 60))
    m = rho.matrix
    reduced = partial_trace(m, {A1, A2})
    psi_plus = np.zeros(4, dtype=complex)
    psi_plus[1] = psi_plus[2] = 1.0 / math.sqrt(2.0)
    projection = float(np.real(psi_plus.conj() @ reduced @ psi_plus))
    sym_populations = float(
        np.real(m[1, 1] + m[1, 2] + m[2, 1] + m[2, 2] + m[5, 5] + m[5, 6] + m[6, 5] + m[6, 6])
    ) / 2.0
    assert projection == pytest.approx(sym_populations, abs=1e-12)


def test_report_consistency_with_individual_functions():
    rho = closed_form_rho(2.0, FieldConfig(0.9, 2.2, 25))
    report = negativity_report(rho)
    assert report.n_g[B] == pytest.approx(global_negativity(rho, B), abs=1e-12)
    assert report.n_g_b_analytic == pytest.approx(analytic_negativity_b(rho), abs=1e-12)
    assert report.n_psdg[A1] == pytest.approx(psdg_negativity(rho, A1), abs=1e-12)
    assert report.e_psd["B-BA1"] == pytest.approx(psd_partial_negativity(rho, "B-BA1"), abs=1e-12)
    assert report.e_3[B] == pytest.approx(partial_kway_negativity(rho, B, 3), abs=1e-12)
    assert report.linear_entropy_b == pytest.approx(
        linear_entropy(partial_trace(rho, {B})), abs=1e-12
    )
    assert report.w1_fidelity == pytest.approx(w1_fidelity(rho), abs=1e-14)
    assert report.bell_projection == pytest.approx(bell_projection_probability(rho), abs=1e-14)
    for value in (*report.n_g.values(), *report.n_psdg.values(), *report.e_psd.values()):
        assert value >= 0.0


# -------------------------------------------------------------- bad inputs


def scalar_state():
    return closed_form_rho(0.8, FieldConfig(1.2, math.pi, 40)).matrix


@pytest.mark.parametrize("qubit", [2, 2.0, True, "B", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda m, p: partial_transpose_global(m, p),
        lambda m, p: partial_transpose_kway(m, p, 2),
        lambda m, p: global_negativity(m, p),
        lambda m, p: partial_kway_negativity(m, p, 3),
        lambda m, p: psdg_negativity(m, p),
    ],
    ids=["transpose", "kway-transpose", "global", "kway-negativity", "psdg"],
)
def test_qubit_must_be_a_label(call, qubit):
    # an int used to fail later with "'int' object has no attribute 'value'"
    with pytest.raises(ValueError, match="p must be a QubitLabel member"):
        call(scalar_state(), qubit)


@pytest.mark.parametrize("k", [False, True, np.False_, np.True_, 1, 4])
def test_kway_order_refuses_bools(k):
    # False == 0 used to pass as the E_0 term, True == 1 as a bad k
    m = scalar_state()
    with pytest.raises(ValueError, match=r"k must be 0, 2 or 3"):
        partial_kway_negativity(m, B, k)
    with pytest.raises(ValueError, match=r"k must be 2 or 3"):
        partial_transpose_kway(m, B, k)


def test_kway_order_accepts_numpy_ints():
    m = scalar_state()
    assert partial_kway_negativity(m, B, np.int64(0)) == partial_kway_negativity(m, B, 0)
    assert np.array_equal(partial_transpose_kway(m, B, np.int64(2)), partial_transpose_kway(m, B, 2))


@pytest.mark.parametrize("keep", [[True], [0], [B, 2], ["B"], [None]])
def test_partial_trace_keep_must_hold_labels(keep):
    # [True] used to keep A2, as QubitLabel(True) is QubitLabel(1)
    with pytest.raises(ValueError, match="keep must hold QubitLabel members"):
        partial_trace(scalar_state(), keep)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -1e-12, -1.0])
def test_cutoff_must_be_finite_and_nonnegative(cutoff):
    # a NaN cutoff used to make every eigenvalue count as zero
    m = scalar_state()
    transposed = partial_transpose_global(m, B)
    calls = [
        lambda: negative_eigensum(transposed, cutoff=cutoff),
        lambda: negative_eigenpairs(transposed, cutoff=cutoff),
        lambda: analytic_negativity_b(m, cutoff=cutoff),
        lambda: decompose(m, cutoff=cutoff),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="cutoff must be finite and >= 0"):
            call()


@pytest.mark.parametrize("cutoff", [True, False, np.True_])
def test_cutoff_refuses_bools(cutoff):
    # cutoff=True used to run with a cutoff of 1.0
    m = scalar_state()
    transposed = partial_transpose_global(m, B)
    calls = [
        lambda: negative_eigensum(transposed, cutoff=cutoff),
        lambda: negative_eigenpairs(transposed, cutoff=cutoff),
        lambda: analytic_negativity_b(m, cutoff=cutoff),
        lambda: decompose(m, cutoff=cutoff),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="cutoff must be a finite number >= 0, not a bool"):
            call()


def test_zero_cutoff_is_accepted():
    transposed = partial_transpose_global(pure(BELL_A1B), B)
    assert negative_eigensum(transposed, cutoff=0.0) == pytest.approx(1.0, abs=1e-12)
