"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The production grid (600 interaction times at s=1.2, theta=pi, n_max=80) is
computed once per session and shared across the criteria that consume it.
"""

import math
import time

import numpy as np
import pytest

from cavity3q import (
    NEGATIVE_EIGENVALUE_CUTOFF,
    SELECTIVE_SPECS,
    FieldConfig,
    QubitLabel,
    ThreeQubitDensityMatrix,
    W1_STATE,
    closed_form_grid,
    closed_form_rho,
    negativity_batch,
    negativity_report,
    states_from_elements,
)
from cavity3q.cli import (
    ORACLE_CHECK_SQUEEZES,
    ORACLE_CHECK_TAUS,
    ORACLE_CHECK_THETAS,
    SweepConfig,
    run_oracle_check,
    run_sweep,
)
from test_diagnostics_batch import ref_analytic_negativity_b, ref_pattern_elements
from test_diagnostics_reference import full_transpose
from test_entanglement import decomposition, kway, selective, transposed

A1, A2, B = QubitLabel.A1, QubitLabel.A2, QubitLabel.B

PRODUCTION_FIELD = FieldConfig(1.2, math.pi, 80)
TAU_GRID = [i * 20.0 / 599 for i in range(600)]


def _passed(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


@pytest.fixture(scope="module")
def production_data():
    """Diagnostics on the 600-point production interaction-time grid.

    The states come from one `closed_form_grid` call and their diagnostics
    from one `negativity_batch` call.
    """
    s, theta, n_max = PRODUCTION_FIELD.s, PRODUCTION_FIELD.theta, PRODUCTION_FIELD.n_max
    matrices = states_from_elements(closed_form_grid(TAU_GRID, [s], theta, n_max)[:, 0])
    batch = negativity_batch(matrices)
    assert batch.pattern_ok.all()
    states = [
        ThreeQubitDensityMatrix(m, tau, s, theta, n_max) for tau, m in zip(TAU_GRID, matrices)
    ]
    return states, [batch.report(i) for i in range(len(states))]


def test_criterion_1_oracle_equivalence():
    # the production oracle check: closed forms against brute-force evolution
    # on the 36-point grid at its default truncation (n_max 40)
    start = time.time()
    text, status = run_oracle_check(SweepConfig(mode="oracle-check"))
    elapsed = time.time() - start
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    grid = len(ORACLE_CHECK_THETAS) * len(ORACLE_CHECK_SQUEEZES) * len(ORACLE_CHECK_TAUS)
    assert len(rows) == grid
    for tau, s, theta, diff, verdict in rows:
        assert verdict == "ok" and float(diff) < 1e-8, (tau, s, theta, diff)
    assert "DISCREPANCY" not in text and "PATTERN" not in text
    assert status == 0 and "# result: PASS" in text
    tau, s, theta, diff, _ = max(rows, key=lambda row: float(row[3]))
    assert elapsed < 120.0
    _passed(
        f"1 oracle equivalence on {grid}-point grid, max |diff| = {float(diff):.3e} "
        f"at {(tau, s, theta)}, {elapsed:.1f}s"
    )


def test_criterion_2_ground_state_probability_anchor():
    rho = closed_form_rho(0.8, PRODUCTION_FIELD)
    p1 = float(np.real(rho.matrix[0, 0]))
    assert p1 == pytest.approx(0.34, abs=0.01)
    _passed(f"2 ground-state probability at tau=0.8 is {p1:.4f} (0.34 +/- 0.01)")


def test_criterion_3_bound_entanglement_window(production_data):
    _, reports = production_data
    flags = [
        (r.n_g[B] < 1e-6) and (r.n_psdg[B] > 0.01) and (r.linear_entropy_b > 0.01)
        for r in reports
    ]
    best_len, best_start, run, run_start = 0, 0, 0, 0
    for i, flag in enumerate(flags):
        if flag:
            if run == 0:
                run_start = i
            run += 1
            if run > best_len:
                best_len, best_start = run, run_start
        else:
            run = 0
    width = (best_len - 1) * 20.0 / 599 if best_len > 1 else 0.0
    assert width >= 0.1, f"widest window only {width:.3f}"
    lo = TAU_GRID[best_start]
    hi = TAU_GRID[best_start + best_len - 1]
    _passed(
        f"3 bound-entanglement window of width {width:.2f} on tau in "
        f"[{lo:.2f}, {hi:.2f}] with N_G^B < 1e-6, N_PSDG^B > 0.01, S_l^B > 0.01"
    )


def test_criterion_4_no_ghz_like_coherences(production_data):
    states, reports = production_data
    worst_mixed = max(r.e_3[B] for r in reports)
    assert worst_mixed < 1e-10
    # every decomposition ket of positive weight of every third state, as a
    # pure state, through one kernel call
    probs, vectors = decomposition(np.array([rho.matrix for rho in states[::3]]))
    kets = vectors.swapaxes(-1, -2)[probs > 1e-15]
    pure = negativity_batch(kets[:, :, None] * kets[:, None, :].conj())
    worst_pure = max(float(np.abs(pure.e_3[p]).max()) for p in QubitLabel)
    assert worst_pure < 1e-10
    _passed(
        f"4 no GHZ-like coherences: max E_3^B = {worst_mixed:.2e}, "
        f"max pure-state 3-way contribution = {worst_pure:.2e} over {len(kets)} kets"
    )


def test_criterion_5_squeeze_sweep_peaks():
    s_grid = [i * 2.0 / 199 for i in range(200)]
    n_psdg_b = []
    n_psdg_a1 = []
    for s in s_grid:
        report = negativity_report(closed_form_rho(14.5, FieldConfig(s, math.pi, 80)))
        n_psdg_b.append(report.n_psdg[B])
        n_psdg_a1.append(report.n_psdg[A1])
    peak_b = s_grid[int(np.argmax(n_psdg_b))]
    peak_a1 = s_grid[int(np.argmax(n_psdg_a1))]
    assert 0.90 <= peak_b <= 1.00, peak_b
    assert 0.99 <= peak_a1 <= 1.09, peak_a1
    _passed(f"5 squeeze-sweep peaks at tau=14.5: N_PSDG^B at s={peak_b:.3f}, N_PSDG^A1 at s={peak_a1:.3f}")


def test_criterion_6_identity_suite(production_data):
    states, reports = production_data
    sample = states[::10]

    # exact matrix identities on the physical states, under the kernel's maps
    for rho in sample:
        m = rho.matrix
        for p in QubitLabel:
            residual = np.abs(kway(m, p, 3) + kway(m, p, 2) - m - transposed(m, p)).max()
            assert residual < 1e-14
        res_b = np.abs(selective(m, "B-BA1") + selective(m, "B-BA2") - m - kway(m, B, 2)).max()
        res_a = np.abs(selective(m, "A1-A1B") + selective(m, "A1-A1A2") - m - kway(m, A1, 2)).max()
        assert res_b < 1e-14 and res_a < 1e-14

    # negativity splits and swap symmetry
    for rho, report in zip(states[::10], reports[::10]):
        for p in QubitLabel:
            split = report.e_3[p] + report.e_2[p] - report.e_0[p]
            assert report.n_g[p] == pytest.approx(split, abs=1e-10)
        assert report.n_psdg[B] == pytest.approx(
            report.e_psd["B-BA1"] + report.e_psd["B-BA2"], abs=1e-10
        )
        assert report.n_psdg[A1] == pytest.approx(
            report.e_psd["A1-A1A2"] + report.e_psd["A1-A1B"], abs=1e-10
        )
        assert report.n_g[A1] == pytest.approx(report.n_g[A2], abs=1e-10)
        assert report.n_psdg[A1] == pytest.approx(report.n_psdg[A2], abs=1e-10)
        for k in ("e_3", "e_2", "e_0"):
            values = getattr(report, k)
            assert values[A1] == pytest.approx(values[A2], abs=1e-10)
        assert report.e_psd["B-BA1"] == pytest.approx(report.e_psd["B-BA2"], abs=1e-10)

    # transpose invariants on 500 random mixed states
    rng = np.random.default_rng(2024)
    for _ in range(500):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = a @ a.conj().T
        m /= np.real(np.trace(m))
        trans = [transposed(m, p) for p in QubitLabel]
        trans += [kway(m, p, k) for p in QubitLabel for k in (2, 3)]
        trans += [selective(m, spec) for spec in SELECTIVE_SPECS]
        for t in trans:
            assert np.abs(t - t.conj().T).max() < 1e-14
            assert abs(np.trace(t) - np.trace(m)) < 1e-14
        for p in QubitLabel:
            assert np.array_equal(transposed(transposed(m, p), p), m)
    _passed("6 identity suite: transpose identities, negativity splits, swap symmetry, 500 random states")


def test_criterion_7_known_state_values():
    bell = np.zeros(8, dtype=complex)
    bell[0] = bell[5] = 1.0 / math.sqrt(2.0)
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    kets = np.array([bell, W1_STATE, ghz])
    batch = negativity_batch(kets[:, :, None] * kets[:, None, :].conj())
    bell_neg, w_neg, _ = batch.n_g[B]
    ghz_e3 = batch.e_3[B][2]
    assert bell_neg == pytest.approx(1.0, abs=1e-10)
    assert w_neg == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-10)
    assert ghz_e3 == pytest.approx(1.0, abs=1e-10)
    _passed(
        f"7 known states: Bell negativity {bell_neg:.12f}, W negativity {w_neg:.12f} "
        f"(2*sqrt(2)/3), GHZ three-way {ghz_e3:.12f}"
    )


def test_criterion_8_analytic_negativity_gate(production_data):
    # the kernel's N_G_B against the paper's gated two-block closed form and
    # against the textbook eigensolve of the full 8x8 B transpose
    states, reports = production_data
    matrices = [rho.matrix for rho in states]
    kernel = [report.n_g[B] for report in reports]
    # also off the production angle, where every index range is exercised
    for theta in ORACLE_CHECK_THETAS:
        elements = closed_form_grid(ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, theta, 40)
        stack = states_from_elements(elements.reshape(-1, 8))
        matrices.extend(stack)
        kernel.extend(negativity_batch(stack, global_qubits=(B,)).n_g[B].tolist())
    worst_analytic = worst_textbook = 0.0
    for m, n_g_b in zip(matrices, kernel):
        elements = ref_pattern_elements(m)
        assert elements is not None
        eigenvalues = np.linalg.eigvalsh(full_transpose(m, B))
        textbook = -2.0 * eigenvalues[eigenvalues < -NEGATIVE_EIGENVALUE_CUTOFF].sum()
        worst_analytic = max(worst_analytic, abs(ref_analytic_negativity_b(elements) - n_g_b))
        worst_textbook = max(worst_textbook, abs(textbook - n_g_b))
    assert worst_analytic < 1e-10 and worst_textbook < 1e-10
    _passed(
        f"8 kernel N_G_B on {len(matrices)} states equals the gated two-block closed form "
        f"(max |diff| = {worst_analytic:.2e}) and the textbook eigensolve ({worst_textbook:.2e})"
    )


def test_criterion_9_production_sweep_determinism():
    cfg = SweepConfig(mode="tau-sweep")  # defaults are the production settings
    start = time.time()
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    elapsed = time.time() - start
    assert first.encode() == second.encode()
    assert elapsed < 600.0
    rows = [line for line in first.splitlines() if line and not line.startswith("#")]
    assert len(rows) == 601  # header + 600 points
    _passed(f"9 production sweep (2 runs of 600 points) byte-identical in {elapsed:.1f}s")
