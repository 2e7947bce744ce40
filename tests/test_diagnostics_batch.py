"""The batched diagnostics kernel against the per-point suite it replaced.

`reference_report` below is the per-point `negativity_report` that preceded
`negativity_batch`: its own decomposition, one 8x8 eigensolve per global
transpose, per pure decomposition state and per two-way transpose, and
compensated sums.  It is kept here only as the reference.  Its transposes
are the textbook ones of `test_diagnostics_reference` (tensor axes swapped,
masks from bit strings), so no reference shares the kernel's index maps.
The kernel's sums run in another order and the decomposition negativity
uses the pure-state identity instead of an eigensolve, so agreement is
required to 1e-14, a few hundred ulps of the O(1) values.
"""

import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

import cavity3q.entanglement as ent
from cavity3q import (
    PATTERN_MASK,
    SELECTIVE_SPECS,
    W1_STATE,
    FieldConfig,
    QubitLabel,
    closed_form_grid,
    closed_form_rho,
    compare_states,
    negativity_batch,
    negativity_report,
    states_from_elements,
)
from test_diagnostics_reference import (
    full_transpose,
    generic_route_only,
    kway_mask,
    oracle_states,
    restricted_transpose,
    selective_mask,
)
from test_entanglement import decomposition, reconstructed

TOL = 1e-14
CUTOFF = 1e-12
SQRT2 = math.sqrt(2.0)
BASIS = np.eye(8, dtype=complex)
SYM_GROUND = (BASIS[1] + BASIS[2]) / SQRT2
SYM_EXCITED = (BASIS[5] + BASIS[6]) / SQRT2
ASYM_GROUND = (BASIS[1] - BASIS[2]) / SQRT2
ASYM_EXCITED = (BASIS[5] - BASIS[6]) / SQRT2


# ------------------------------------------------------ per-point reference


def ref_negative_eigenpairs(m):
    assert np.abs(m - m.conj().T).max() <= 1e-9
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    keep = vals < -CUTOFF
    return vals[keep], vecs[:, keep]


def ref_projected_sum(matrix, vectors):
    if vectors.shape[1] == 0:
        return 0.0
    vals = np.einsum("ik,ij,jk->k", vectors.conj(), matrix, vectors)
    return math.fsum(np.real(vals).tolist())


def ref_pattern_elements(m, tol=1e-8, compare_coherences=True):
    """The eight elements of a state on the kernel's pattern route, else None.

    A state takes the pattern route when every entry outside `PATTERN_MASK`
    is exactly zero, no imaginary part of a pattern entry exceeds ``tol``,
    and no two entries of one element, the four of a symmetric block or of
    a coherence with its mirror, are further apart than ``tol``;
    ``compare_coherences=False`` leaves the coherences out of that last test.
    """
    for i in range(8):
        for j in range(8):
            if not PATTERN_MASK[i, j] and m[i, j] != 0:
                return None
    if np.abs(np.imag(m[PATTERN_MASK])).max() > tol:
        return None
    groups = [
        [m[1, 1], m[2, 2], m[1, 2], m[2, 1]],
        [m[5, 5], m[6, 6], m[5, 6], m[6, 5]],
    ]
    if compare_coherences:
        groups += [[m[0, 5], m[0, 6], m[5, 0], m[6, 0]], [m[1, 7], m[2, 7], m[7, 1], m[7, 2]]]
    if any(np.ptp(np.real(entries)) > tol for entries in groups):
        return None
    return {
        "r11": float(np.real(m[0, 0])),
        "r22": float(np.real(m[1, 1] + m[2, 2] + m[1, 2] + m[2, 1])) / 2.0,
        "r33": float(np.real(m[3, 3])),
        "r44": float(np.real(m[4, 4])),
        "r55": float(np.real(m[5, 5] + m[6, 6] + m[5, 6] + m[6, 5])) / 2.0,
        "r66": float(np.real(m[7, 7])),
        "r15": float(np.real(m[0, 5] + m[0, 6])) / SQRT2,
        "r26": float(np.real(m[1, 7] + m[2, 7])) / SQRT2,
    }


def ref_two_level_pairs(d_first, d_second, off):
    if abs(off) < CUTOFF:
        if abs(d_first - d_second) < CUTOFF or d_first <= d_second:
            return [(d_first, (1.0, 0.0)), (d_second, (0.0, 1.0))]
        return [(d_second, (0.0, 1.0)), (d_first, (1.0, 0.0))]
    half_gap = 0.5 * math.hypot(d_first - d_second, 2.0 * off)
    mean = 0.5 * (d_first + d_second)
    pairs = []
    for lam in (mean - half_gap, mean + half_gap):
        v_a = (off, lam - d_first)
        v_b = (lam - d_second, off)
        v = v_a if math.hypot(*v_a) >= math.hypot(*v_b) else v_b
        norm = math.hypot(*v)
        v = (v[0] / norm, v[1] / norm)
        if abs(v[0]) < abs(v[1]):
            sign = 1.0 if v[1] > 0 else -1.0
        else:
            sign = 1.0 if v[0] > 0 else -1.0
        pairs.append((lam, (sign * v[0], sign * v[1])))
    return pairs


def ref_fix_phase(vec):
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if pivot == 0:
        return vec
    return vec * (abs(pivot) / pivot)


def ref_decompose(m):
    e = ref_pattern_elements(m)
    if e is None:
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
        cols = [ref_fix_phase(vecs[:, i]) for i in range(8)]
        return np.clip(vals, 0.0, None), np.column_stack(cols)
    entries = []
    for lam, (x, y) in ref_two_level_pairs(e["r11"], e["r55"], e["r15"]):
        entries.append((lam, x * BASIS[0] + y * SYM_EXCITED))
    for lam, (x, y) in ref_two_level_pairs(e["r22"], e["r66"], e["r26"]):
        entries.append((lam, x * SYM_GROUND + y * BASIS[7]))
    entries.append((e["r33"], BASIS[3].copy()))
    entries.append((e["r44"], BASIS[4].copy()))
    entries.append((0.0, ASYM_GROUND.copy()))
    entries.append((0.0, ASYM_EXCITED.copy()))
    probs = np.array([max(p, 0.0) for p, _ in entries])
    return probs, np.column_stack([ref_fix_phase(v) for _, v in entries])


def ref_analytic_negativity_b(e):
    """The paper's gated two-block closed form of qubit B's global negativity, no eigensolver.

    The B transpose of a state on the pattern route splits into
    two 2x2 blocks whose lower eigenvalues count only below minus the
    cutoff (each gate is one block's discriminant inequality); every other
    eigenvalue is a population.
    """
    lam1 = 0.5 * (e["r33"] + e["r55"]) - 0.5 * math.hypot(e["r33"] - e["r55"], 2.0 * e["r26"])
    lam2 = 0.5 * (e["r22"] + e["r44"]) - 0.5 * math.hypot(e["r22"] - e["r44"], 2.0 * e["r15"])
    total = 0.0
    if lam1 < -CUTOFF:
        total += lam1
    if lam2 < -CUTOFF:
        total += lam2
    return -2.0 * total


def ref_partial_trace_b(m):
    tensor = m.reshape(2, 2, 2, 2, 2, 2)
    tensor = np.trace(tensor, axis1=1, axis2=4)  # A2
    tensor = np.trace(tensor, axis1=1, axis2=3)  # A1
    return tensor


def reference_report(m):
    """Every diagnostic of one state, per point, as a flat dict of floats."""
    out = {}
    for p in QubitLabel:
        vals, vecs = ref_negative_eigenpairs(full_transpose(m, p))
        out[("n_g", p)] = -2.0 * math.fsum(vals.tolist())
        out[("e_3", p)] = -2.0 * ref_projected_sum(restricted_transpose(m, p, kway_mask(3)), vecs)
        out[("e_2", p)] = -2.0 * ref_projected_sum(restricted_transpose(m, p, kway_mask(2)), vecs)
        out[("e_0", p)] = -2.0 * ref_projected_sum(m, vecs)

    probs, vectors = ref_decompose(m)
    psdg_terms = {p: [] for p in QubitLabel}
    psd_terms = {spec: [] for spec in SELECTIVE_SPECS}
    for prob, vec in zip(probs, vectors.T):
        if prob <= 0.0:
            continue
        pure = np.outer(vec, vec.conj())
        for p in QubitLabel:
            vals, _ = ref_negative_eigenpairs(full_transpose(pure, p))
            psdg_terms[p].append(prob * -2.0 * math.fsum(vals.tolist()))
        neg_vecs = {
            p: ref_negative_eigenpairs(restricted_transpose(pure, p, kway_mask(2)))[1]
            for p in (QubitLabel.B, QubitLabel.A1)
        }
        for spec, (p, _) in SELECTIVE_SPECS.items():
            basis = neg_vecs[p]
            if basis.shape[1]:
                selective = restricted_transpose(pure, p, selective_mask(spec))
                psd_terms[spec].append(prob * ref_projected_sum(selective, basis))
    for p in QubitLabel:
        out[("n_psdg", p)] = math.fsum(psdg_terms[p])
    for spec in SELECTIVE_SPECS:
        out[("e_psd", spec)] = -2.0 * math.fsum(psd_terms[spec])

    elements = ref_pattern_elements(m)
    if elements is not None:
        # the paper's closed form against the textbook eigensolve it stands for
        n_g_b = out[("n_g", QubitLabel.B)]
        assert ref_analytic_negativity_b(elements) == pytest.approx(n_g_b, abs=TOL)
    reduced = ref_partial_trace_b(m)
    out["linear_entropy_b"] = 2.0 * (1.0 - float(np.real(np.trace(reduced @ reduced))))
    out["w1_fidelity"] = float(np.real(W1_STATE.conj() @ m @ W1_STATE))
    out["bell_projection"] = float(np.real(m[0, 0])) + float(
        np.real(SYM_EXCITED.conj() @ m @ SYM_EXCITED)
    )
    return out


def flatten(batch, index):
    """One state's values of a `NegativityBatch`, keyed like `reference_report`."""
    out = {}
    for name in ("n_g", "e_3", "e_2", "e_0", "n_psdg", "e_psd"):
        for key, values in getattr(batch, name).items():
            out[(name, key)] = float(values[index])
    for name in ("linear_entropy_b", "w1_fidelity", "bell_projection"):
        out[name] = float(getattr(batch, name)[index])
    return out


def sweep_states(theta, squeezes, taus, n_max=80):
    elements = closed_form_grid(taus, squeezes, theta, n_max)
    return states_from_elements(elements.reshape(-1, 8))


def batch_fields(batch):
    """Every per-state array of a `NegativityBatch`, keyed by (field, dict key or None)."""
    out = {}
    for name in ("n_g", "e_3", "e_2", "e_0", "n_psdg", "e_psd"):
        for key, values in getattr(batch, name).items():
            out[(name, key)] = values
    for name in ("linear_entropy_b", "w1_fidelity", "bell_projection"):
        out[(name, None)] = getattr(batch, name)
    return out


def assert_bit_identical(a, b):
    for name in ("n_g", "e_3", "e_2", "e_0", "n_psdg", "e_psd"):
        for key in getattr(a, name):
            assert np.array_equal(getattr(a, name)[key], getattr(b, name)[key]), (name, key)
    for name in ("linear_entropy_b", "w1_fidelity", "bell_projection", "pattern_ok"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0, math.pi / 3.0])
def test_kernel_matches_per_point_reference(theta):
    taus = [0.0, 0.3, 0.8, 2.0, 7.1, 14.5]
    squeezes = [0.0, 0.3, 1.2, 2.0]
    states = sweep_states(theta, squeezes, taus)
    batch = negativity_batch(states)
    assert batch.pattern_ok.all()
    worst = 0.0
    for index, m in enumerate(states):
        expected = reference_report(m)
        got = flatten(batch, index)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            worst = max(worst, abs(got[key] - value))
            assert got[key] == pytest.approx(value, abs=TOL), (theta, index, key)
    assert worst <= TOL


def test_kernel_matches_reference_on_degenerate_pairs():
    # exact degeneracies and zero coherences take the unrotated branches of
    # the two-level solve, in both orders
    states = []
    for r11, r55, r15 in ((0.25, 0.25, 0.0), (0.5, 0.1, 0.0), (0.1, 0.5, 0.0), (0.3, 0.3, 0.1)):
        m = np.zeros((8, 8), dtype=complex)
        m[0, 0] = r11
        m[5:7, 5:7] = r55 / 2.0
        m[0, 5] = m[0, 6] = m[5, 0] = m[6, 0] = r15 / SQRT2
        m[3, 3] = 1.0 - r11 - r55
        states.append(m)
    batch = negativity_batch(np.array(states))
    assert batch.pattern_ok.all()
    for index, m in enumerate(states):
        expected = reference_report(m)
        got = flatten(batch, index)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=TOL), (index, key)
        # the decomposition itself, free of the kets' order and phases
        probs, vectors = ref_decompose(m)
        got_probs, got_vectors = decomposition(m[None])
        assert np.abs(np.sort(got_probs[0]) - np.sort(probs)).max() <= TOL
        expected = reconstructed(probs[None], vectors[None])
        assert np.abs(reconstructed(got_probs, got_vectors) - expected).max() <= TOL


def test_kernel_matches_reference_on_generic_states():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((5, 8, 8)) + 1j * rng.standard_normal((5, 8, 8))
    states = a @ a.conj().swapaxes(-1, -2)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    batch = negativity_batch(states)
    assert not batch.pattern_ok.any()
    for index, m in enumerate(states):
        expected = reference_report(m)
        got = flatten(batch, index)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=TOL), (index, key)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_outputs_do_not_depend_on_ket_phases(dtype, monkeypatch):
    # every diagnostic reads the decomposition only through p |k><k|: a random
    # sign on each ket of a real stack changes no bit, a random unit phase on
    # each ket of a complex stack changes only the rounding, within 1e-15 on
    # the closed-form rows; the generic rows' pairwise shares come from 8x8
    # eigensolves, which amplify it to several ulps (up to 6.2e-15 over 40
    # random stacks), so TOL
    rng = np.random.default_rng(47)
    closed = sweep_states(1.1, [0.6, 2.0], np.linspace(0.0, 20.0, 30))
    a = rng.standard_normal((20, 8, 8)).astype(dtype)
    if dtype is np.complex128:
        a += 1j * rng.standard_normal((20, 8, 8))
    generic = a @ a.conj().swapaxes(-1, -2)
    generic /= np.trace(generic, axis1=1, axis2=2).real[:, None, None]
    states = np.concatenate([closed.astype(dtype), generic])
    expected = negativity_batch(states)
    calls = []

    def rephased(decompose):
        def decomposition(*args):
            probs, vectors = decompose(*args)
            if dtype is np.float64:
                phases = rng.choice([-1.0, 1.0], size=(len(vectors), 1, 8))
            else:
                phases = np.exp(2j * math.pi * rng.random((len(vectors), 1, 8)))
            calls.append(len(vectors))
            return probs, vectors * phases

        return decomposition

    for name in ("_analytic_decomposition", "_generic_decomposition"):
        monkeypatch.setattr(ent, name, rephased(getattr(ent, name)))
    got = negativity_batch(states)
    assert calls == [len(closed), len(generic)]
    if dtype is np.float64:
        assert_bit_identical(got, expected)
        return
    assert np.array_equal(got.pattern_ok, expected.pattern_ok)
    reference = batch_fields(expected)
    for key, values in batch_fields(got).items():
        deviation = np.abs(values - reference[key])
        assert deviation[: len(closed)].max() <= 1e-15, key
        assert deviation[len(closed) :].max() <= TOL, key


def test_eigenvalues_inside_cutoff_count_as_zero():
    # the B transpose moves the |000><101| coherence onto the |100>, |001>
    # populations: eigenvalues 1e-13 -+ 5e-13, the negative one inside the cutoff
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 0.5
    m[5, 5] = 0.5 - 2e-13
    m[1, 1] = m[4, 4] = 1e-13
    m[0, 5] = m[5, 0] = 5e-13
    assert np.linalg.eigvalsh(full_transpose(m, QubitLabel.B)).min() < 0.0
    got = flatten(negativity_batch(m[None]), 0)
    for key, value in reference_report(m).items():
        assert got[key] == pytest.approx(value, abs=TOL), key
    for name in ("n_g", "e_3", "e_2", "e_0"):
        assert got[(name, QubitLabel.B)] == 0.0


def test_product_states_have_exactly_zero_decomposition_negativity():
    # every decomposition state of a full-rank product state is a product
    # ket, whose negativity is rounding noise far inside the cutoff
    rng = np.random.default_rng(3)
    factors = []
    for _ in range(3):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        factor = a @ a.conj().T
        factors.append(factor / np.trace(factor).real)
    m = np.kron(factors[2], np.kron(factors[1], factors[0]))  # B slowest, A1 fastest
    batch = negativity_batch(m[None])
    expected = reference_report(m)
    for p in QubitLabel:
        assert batch.n_psdg[p][0] == expected[("n_psdg", p)] == 0.0


def test_pairwise_solves_only_positive_weight_states(monkeypatch):
    states = sweep_states(math.pi, [0.0, 1.2], [0.0, 0.7, 3.0, 14.5])
    probs, vectors = decomposition(states)
    basis_kets = int(((probs > 0.0) & (np.count_nonzero(vectors, axis=-2) == 1)).sum())
    solved = Counter()
    eigh = np.linalg.eigh
    solved_kets = []
    share_terms = ent._share_terms

    def counting(a, *args, **kwargs):
        solved[a.shape[-1]] += math.prod(a.shape[:-2])
        return eigh(a, *args, **kwargs)

    def counting_kets(kets):
        solved_kets.append(len(kets))
        return share_terms(kets)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(ent, "_share_terms", counting_kets)
    negativity_batch(states)
    # closed-form states are solved as index blocks, none larger than 3x3:
    # two 3x3 blocks of each of the three global transposes per state (the
    # 1x1 blocks need no solve); their decomposition kets' shares come from
    # the minors, with no eigensolve
    assert solved == {3: 6 * len(states)}
    assert solved_kets == []
    # the same states on the generic route, one 8-index block each: the kets
    # of positive weight that are not basis states, and only those, go to
    # the eigensolver
    generic_route_only(monkeypatch)
    probs, vectors = decomposition(states)
    components = np.count_nonzero(vectors, axis=-2)
    positive = int(((probs > 0.0) & (components >= 2)).sum())
    negativity_batch(states)
    assert solved_kets == [positive]
    assert positive < 8 * len(states)
    assert basis_kets > 0


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0])
def test_real_stack_matches_its_complex_cast(theta, monkeypatch):
    # closed-form states are real, so the kernel runs real LAPACK on them; the
    # same stack cast to complex takes the same code with complex LAPACK
    states = sweep_states(theta, [0.3, 1.2], np.linspace(0.0, 20.0, 40))
    assert states.dtype == np.float64
    solved = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        solved.append(a.dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    real = negativity_batch(states)
    assert set(solved) == {np.dtype(np.float64)}
    solved.clear()
    cast = negativity_batch(states.astype(complex))
    assert set(solved) == {np.dtype(np.complex128)}
    assert np.array_equal(real.pattern_ok, cast.pattern_ok)
    expected = batch_fields(cast)
    for key, values in batch_fields(real).items():
        assert values.dtype == np.float64, key
        assert np.abs(values - expected[key]).max() <= TOL, key


def test_mixed_stack_of_real_and_complex_states():
    states = sweep_states(math.pi / 3.0, [1.2], [0.5, 1.0, 1.5, 2.0])
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    generic = a @ a.conj().T
    generic /= np.trace(generic).real
    batch = negativity_batch([*states[:2], generic, *states[2:]])
    assert batch.pattern_ok.tolist() == [True, True, False, True, True]
    alone = batch_fields(negativity_batch(states))
    single = batch_fields(negativity_batch(generic[None]))
    for key, values in batch_fields(batch).items():
        assert np.abs(values[[0, 1, 3, 4]] - alone[key]).max() <= TOL, key
        assert values[2] == single[key][0], key


def test_only_non_pattern_rows_take_generic_fallback(monkeypatch):
    states = sweep_states(math.pi, [1.2], [0.5, 1.0, 1.5, 2.0])
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    generic = a @ a.conj().T
    generic /= np.trace(generic).real
    stack = np.concatenate([states[:2], generic[None], states[2:]])

    seen = []
    original = ent._generic_decomposition

    def recording(rows):
        seen.append(rows.copy())
        return original(rows)

    monkeypatch.setattr(ent, "_generic_decomposition", recording)
    batch = negativity_batch(stack)
    assert len(seen) == 1
    assert seen[0].shape == (1, 8, 8)
    assert np.array_equal(seen[0][0], generic)
    assert batch.pattern_ok.tolist() == [True, True, False, True, True]
    seen.clear()
    negativity_batch(states)
    assert seen == []


def test_non_hermitian_row_raises():
    states = sweep_states(math.pi, [1.2], [0.5, 1.0, 1.5])
    states[1, 0, 5] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity_batch(states)
    states[1, 0, 5] = np.nan
    with pytest.raises(ValueError, match=r"^states must be finite, got entry \[0,5\] = nan in matrix 1"):
        negativity_batch(states)
    with pytest.raises(ValueError):
        negativity_batch(np.eye(8))


@pytest.mark.parametrize("bad", [ent._DIAGNOSTIC_BLOCK + 7, 2 * ent._DIAGNOSTIC_BLOCK + 1])
def test_non_hermitian_error_names_the_state_in_the_callers_stack(bad):
    # the kernel evaluates the stack in blocks; the message counts from the
    # start of the caller's stack, not of the block
    states = sweep_states(math.pi, [1.2], np.linspace(0.0, 20.0, 2 * ent._DIAGNOSTIC_BLOCK + 5))
    states[bad, 0, 5] += 1e-6
    with pytest.raises(ValueError, match=rf"not Hermitian \(matrix {bad} of the stack\)"):
        negativity_batch(states)
    states[bad, 0, 5] = np.nan
    with pytest.raises(ValueError, match=rf"must be finite, .* in matrix {bad} of the stack$"):
        negativity_batch(states)


@pytest.mark.parametrize("i, j", [(3, 3), (0, 5)], ids=["diagonal", "off-diagonal"])
def test_infinite_entry_is_refused_without_a_warning(i, j):
    # refused as non-finite before any arithmetic could warn (inf - inf);
    # the state is named by its index in the caller's stack
    bad = ent._DIAGNOSTIC_BLOCK + 7
    states = sweep_states(math.pi, [1.2], np.linspace(0.0, 20.0, ent._DIAGNOSTIC_BLOCK + 10))
    states[bad, i, j] = states[bad, j, i] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        entry = rf"\[{min(i, j)},{max(i, j)}\] = inf in matrix {bad} of the stack$"
        with pytest.raises(ValueError, match=rf"^states must be finite, got entry {entry}"):
            negativity_batch(states)


def bad_stacks():
    """Stacks the kernel refuses before any arithmetic, each with its whole message."""
    dtype_message = "states must hold real or complex numbers, got dtype "
    yield pytest.param(np.eye(8, dtype=bool)[None], dtype_message + "bool", id="bool")
    yield pytest.param(np.full((1, 8, 8), "0.1"), dtype_message + "<U3", id="str")
    for value in (np.nan, np.inf, -np.inf):
        state = sweep_states(math.pi, [1.2], [0.8])
        state[0, 0, 5] = value
        message = f"states must be finite, got entry [0,5] = {value} in matrix 0 of the stack"
        yield pytest.param(state, message, id=str(value))


@pytest.mark.parametrize("states, message", bad_stacks())
def test_bad_stacks_are_refused_by_name(states, message):
    # through the kernel and through its grid of one
    for call, argument in ((negativity_batch, states), (negativity_report, states[0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(argument)


def test_integer_stacks_are_accepted():
    # an integer state takes the same routes as its float cast
    m = np.zeros((2, 8, 8), dtype=int)
    m[0, 0, 0] = 1
    m[1] = np.eye(8, dtype=int)
    m[1, 0, 3] = m[1, 3, 0] = 1
    assert_bit_identical(negativity_batch(m), negativity_batch(m.astype(float)))
    assert negativity_batch(m).pattern_ok.tolist() == [True, False]


def test_decomposition_negativities_reject_non_hermitian_pattern_state():
    # the zero pattern holds, but the mirrored coherences differ; the
    # kernel checks both, also when it solves no global transpose
    m = closed_form_rho(1.2, FieldConfig(1.2, math.pi, 40)).matrix.copy()
    m[5, 0] += 1e-6
    assert not m[~PATTERN_MASK].any()
    for selection in ((), tuple(QubitLabel)):
        with pytest.raises(ValueError, match="not Hermitian"):
            negativity_batch(m[None], global_qubits=selection)


def test_generic_decomposition_rejects_non_hermitian_state():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity_batch(m[None], global_qubits=())


def test_kernel_and_scalar_negativity_share_one_path():
    # a grid of one with one qubit selected gives the stack's values bit for bit
    states = sweep_states(math.pi / 2.0, [0.3, 1.2], [0.0, 0.8, 14.5])
    noisy = states.copy()
    noisy[:, 3, 0] = noisy[:, 0, 3] = 1e-17
    batch, noisy_batch = negativity_batch(states), negativity_batch(noisy)
    for p in QubitLabel:
        for index in range(len(states)):
            single = negativity_batch(states[index : index + 1], global_qubits=(p,))
            assert single.n_g[p][0] == batch.n_g[p][index]
            # a state off the zero pattern takes the generic route
            single = negativity_batch(noisy[index : index + 1], global_qubits=(p,))
            assert single.n_g[p][0] == noisy_batch.n_g[p][index]
        assert np.abs(noisy_batch.n_g[p] - batch.n_g[p]).max() <= TOL
    # the kernel's solver on a stack gives each matrix's own eigenpairs
    transposes = np.array([full_transpose(m, QubitLabel.B) for m in states])
    vals, vecs = ent._negative_pairs(transposes)
    for index, t in enumerate(transposes):
        ref_vals, ref_vecs = ref_negative_eigenpairs(t)
        kept = vals[index] != 0.0
        assert np.array_equal(vals[index][kept], ref_vals)
        assert np.array_equal(vecs[index][:, kept], ref_vecs)
        assert not vecs[index][:, ~kept].any()


def test_scalar_global_negativity_solves_only_its_qubit(global_solves):
    states = sweep_states(math.pi / 2.0, [1.2], [0.3, 0.8, 14.5])
    noisy = states.copy()
    noisy[:, 3, 0] = noisy[:, 0, 3] = 1e-17
    for p in QubitLabel:
        global_solves.clear()
        negativity_batch(states, global_qubits=(p,))
        # the two 3x3 index blocks of qubit p's transpose per state
        assert global_solves == {3: 2 * len(states)}
        global_solves.clear()
        negativity_batch(noisy, global_qubits=(p,))
        # one 8-index block per state off the zero pattern
        assert global_solves == {8: len(states)}


# ------------------------------------------------- global-qubit selection


@pytest.fixture(scope="module")
def selection_stacks():
    taus = np.linspace(0.0, 20.0, 2 * ent._DIAGNOSTIC_BLOCK + 44)
    closed = sweep_states(math.pi / 3.0, [1.2], taus, n_max=40)
    rng = np.random.default_rng(41)
    a = rng.standard_normal((40, 8, 4)) + 1j * rng.standard_normal((40, 8, 4))
    generic = a @ a.conj().swapaxes(-1, -2)
    generic /= np.trace(generic, axis1=1, axis2=2).real[:, None, None]
    noisy = oracle_states(noise_seed=41)
    mixed = np.concatenate([closed[:3], generic[:2], noisy[:2], closed[200:203]])
    return {
        "closed": closed,
        "oracle": oracle_states(),
        "noisy": noisy,
        "generic": generic,
        "mixed": mixed,
    }


@pytest.mark.parametrize("stack", ["closed", "oracle", "noisy", "generic", "mixed"])
@pytest.mark.parametrize("selection", [(QubitLabel.B,), (QubitLabel.A1, QubitLabel.A2), ()])
def test_global_selection_is_bit_identical_to_the_full_kernel(selection_stacks, stack, selection):
    states = selection_stacks[stack]
    full = negativity_batch(states)
    subset = negativity_batch(states, global_qubits=selection)
    for name in ("n_g", "e_3", "e_2", "e_0"):
        assert list(getattr(subset, name)) == list(selection), name
    for name in ("n_psdg", "e_psd"):
        assert list(getattr(subset, name)) == list(getattr(full, name)), name
    assert_bit_identical(subset, full)


def test_selection_stacks_cover_both_block_paths(selection_stacks):
    # the closed-form states span three kernel blocks, and they and the
    # oracle states are exactly zero off the pattern: the pattern route; the
    # noisy oracle states and the random states take the generic route
    assert len(selection_stacks["closed"]) > 2 * ent._DIAGNOSTIC_BLOCK
    for name, pattern in (("closed", True), ("oracle", True), ("noisy", False), ("generic", False)):
        assert (ent._pattern_route(selection_stacks[name])[0] == pattern).all(), name
    assert len(selection_stacks["oracle"]) == len(selection_stacks["noisy"]) == 36


def test_selection_order_does_not_matter():
    states = sweep_states(math.pi / 2.0, [1.2], [0.3, 0.8, 14.5])
    forward = negativity_batch(states, global_qubits=(QubitLabel.A1, QubitLabel.B))
    backward = negativity_batch(states, global_qubits=[QubitLabel.B, QubitLabel.A1])
    assert list(backward.n_g) == [QubitLabel.A1, QubitLabel.B]
    assert_bit_identical(backward, forward)


@pytest.mark.parametrize(
    "selection",
    [
        (QubitLabel.B, QubitLabel.B),
        ("B",),
        "B",
        (2,),
        QubitLabel.B,
        None,
        (QubitLabel.B, None),
    ],
)
def test_bad_global_selection_names_the_keyword(selection):
    states = sweep_states(math.pi / 2.0, [1.2], [0.8])
    with pytest.raises(ValueError, match="global_qubits"):
        negativity_batch(states, global_qubits=selection)


def test_empty_selection_skips_the_global_stage(global_solves):
    states = sweep_states(math.pi / 2.0, [1.2], [0.3, 0.8, 14.5])
    noisy = states.copy()
    noisy[:, 3, 0] = noisy[:, 0, 3] = 1e-17
    for stack, tables in ((states, ent._STATE_GATHERS), (noisy, ent._WHOLE_STATE_GATHERS)):
        n_g, split = ent._global_split(stack, tables, [])
        assert n_g.shape == (3, 0) and split.shape == (3, 0, 3)
        batch = negativity_batch(stack, global_qubits=())
        assert batch.n_g == batch.e_3 == batch.e_2 == batch.e_0 == {}
    assert not global_solves


def test_scalar_functions_solve_only_the_global_tables_they_need(global_solves):
    # grids of one: one qubit's transpose, none, or all three
    states = sweep_states(math.pi / 2.0, [1.2], [0.3, 0.8, 14.5])
    noisy = states.copy()
    noisy[:, 3, 0] = noisy[:, 0, 3] = 1e-17
    for stack, size in ((states, 3), (noisy, 8)):
        # the two 3x3 index blocks of one transpose, or its one 8-index block
        per_qubit = 2 if size == 3 else 1
        for m in stack:
            for p in QubitLabel:
                global_solves.clear()
                negativity_batch(m[None], global_qubits=(p,))
                assert global_solves == {size: per_qubit}
            global_solves.clear()
            negativity_batch(m[None], global_qubits=())
            assert not global_solves
            global_solves.clear()
            negativity_batch(m[None])
            assert global_solves == {size: 3 * per_qubit}


def assert_each_state_is_its_single_call(states):
    batch = negativity_batch(states)
    assert len(batch.n_g[QubitLabel.B]) == len(states)
    for index in range(len(states)):
        single = negativity_batch(states[index : index + 1])
        assert single.report(0) == batch.report(index)
        assert single.pattern_ok[0] == batch.pattern_ok[index]
        assert_bit_identical(single, negativity_batch([states[index]]))
    return batch


@pytest.mark.parametrize("length", [1, 32, 33, ent._DIAGNOSTIC_BLOCK, ent._DIAGNOSTIC_BLOCK + 1])
def test_stack_is_bit_identical_to_per_point(length):
    taus = np.linspace(0.0, 20.0, length)
    assert_each_state_is_its_single_call(sweep_states(math.pi / 3.0, [1.2], taus, n_max=40))


def test_mixed_stack_is_bit_identical_to_per_point(selection_stacks):
    # closed-form, noisy oracle and random states interleaved across two
    # kernel blocks, so each block holds states of both routes
    closed, noisy, generic = (selection_stacks[name] for name in ("closed", "noisy", "generic"))
    states = np.concatenate([closed[:150], noisy, closed[150:180], generic, closed[180:220]])
    batch = assert_each_state_is_its_single_call(states)
    assert 0 < batch.pattern_ok[: ent._DIAGNOSTIC_BLOCK].sum() < ent._DIAGNOSTIC_BLOCK
    assert 0 < batch.pattern_ok[ent._DIAGNOSTIC_BLOCK :].sum() < len(states) - ent._DIAGNOSTIC_BLOCK


def test_negativity_report_is_kernel_grid_of_one():
    for tau in (0.0, 0.8, 14.5):
        rho = closed_form_rho(tau, FieldConfig(1.2, math.pi / 2.0, 60))
        assert negativity_report(rho) == negativity_batch([rho]).report(0)


def test_negativity_report_is_kernel_grid_of_one_off_the_pattern():
    # a state on the generic route is reported like any other
    bumped = closed_form_rho(1.0, FieldConfig(0.8, 2.0, 20)).matrix.copy()
    bumped[0, 3] = bumped[3, 0] = 0.05
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / SQRT2
    for m in (bumped, unequal_coherence_state(), np.outer(ghz, ghz)):
        assert not ent._pattern_route(m[None])[0][0]
        assert negativity_report(m) == negativity_batch([m]).report(0)


def test_negativity_report_names_the_shape_it_got():
    # the caller's shape, not that of the stack of one it becomes
    for shape in ((4, 4), (1, 8, 8), (8,)):
        with pytest.raises(ValueError, match=rf"^rho must be 8x8, got shape {re.escape(str(shape))}$"):
            negativity_report(np.zeros(shape))


def test_empty_stack():
    batch = negativity_batch(np.zeros((0, 8, 8), dtype=complex))
    assert batch.n_g[QubitLabel.B].shape == (0,)
    assert batch.e_psd["B-BA1"].shape == (0,)


# ---------------------------------------------------- zero-pattern checks


def loop_compare_violations(ma, mb, tol):
    out = []
    for i in range(8):
        for j in range(8):
            if not PATTERN_MASK[i, j] and max(abs(ma[i, j]), abs(mb[i, j])) > tol:
                out.append((i, j, complex(ma[i, j]), complex(mb[i, j])))
    return out


def pattern_clean_state():
    # complex, so an imaginary bump is kept rather than cast away
    return closed_form_rho(2.3, FieldConfig(0.9, 2.0, 20)).matrix.astype(complex)


def bumped_pairs(clean, bumps):
    """(bumped, clean) and (clean, bumped) per (i, j, value) of ``bumps``."""
    for i, j, value in bumps:
        bumped = clean.copy()
        bumped[i, j] += value
        yield bumped, clean
        yield clean, bumped


def pattern_cases():
    rng = np.random.default_rng(77)
    clean = pattern_clean_state()
    yield clean, clean
    for _ in range(20):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = np.where(rng.random((8, 8)) < 0.5, 0.0, rng.standard_normal((8, 8)) * 1e-9)
        yield a, clean + b
    yield from bumped_pairs(clean, ((4, 4, 1e-3), (0, 3, 2e-10), (7, 0, -1e-7j)))


def non_finite_pattern_cases():
    """Pairs of which one state holds a NaN or inf entry, the [2,5] NaN also against a violation."""
    clean = pattern_clean_state()
    yield from bumped_pairs(clean, ((2, 5, np.nan), (1, 0, np.inf)))
    nan_entry, violation = clean.copy(), clean.copy()
    nan_entry[2, 5] = np.nan
    violation[2, 5] = 1e-3
    yield nan_entry, violation
    yield violation, nan_entry


def test_mask_pattern_checks_match_loops():
    for a, b in [*pattern_cases(), *non_finite_pattern_cases()]:
        for m in (a, b):
            assert ent._pattern_route(m[None])[0][0] == (ref_pattern_elements(m) is not None)
    for a, b in pattern_cases():
        got = compare_states(a, b).pattern_violations
        expected = loop_compare_violations(a, b, 1e-10)
        assert len(got) == len(expected)
        for row, ref in zip(got, expected):
            assert row[:2] == ref[:2]
            assert row[2:] == ref[2:]


def test_compare_states_refuses_a_non_finite_state():
    # the message names the argument and its first non-finite entry
    for a, b in non_finite_pattern_cases():
        name = "a" if not np.isfinite(a).all() else "b"
        bad = a if name == "a" else b
        i, j = np.argwhere(~np.isfinite(bad))[0]
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got entry \[{i},{j}\] = "):
            compare_states(a, b)


def test_compare_states_names_a_wrong_shape():
    clean = pattern_clean_state()
    for a, b, message in (
        (clean, np.eye(4) / 4.0, "b must be 8x8, got shape (4, 4)"),
        (clean[None], clean, "a must be 8x8, got shape (1, 8, 8)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compare_states(a, b)


def unequal_coherence_state():
    """Half |psi><psi| plus half |phi><phi|, whose |000><101| and |000><011| coherences differ.

    psi = 0.6|000> + 0.8 (|101> + |011>)/sqrt2 and phi = sqrt(1 - 1.8e-8)|000>
    + sqrt(1.8e-8) (|101> - |011>)/sqrt2: the entries of each symmetric
    block agree to 0.9e-8, inside the pattern tolerance, but the coherences
    rho[0,5] and rho[0,6] are 9.5e-5 apart.
    """
    psi = np.zeros(8)
    psi[0], psi[5], psi[6] = 0.6, 0.8 / SQRT2, 0.8 / SQRT2
    phi = np.zeros(8)
    phi[0], phi[5] = math.sqrt(1.0 - 1.8e-8), math.sqrt(1.8e-8) / SQRT2
    phi[6] = -phi[5]
    return 0.5 * np.outer(psi, psi) + 0.5 * np.outer(phi, phi)


def test_unequal_coherence_slots_fail_the_pattern_check():
    m = unequal_coherence_state()
    assert m[0, 5] - m[0, 6] == pytest.approx(9.5e-5, rel=1e-2)
    assert ref_pattern_elements(m, compare_coherences=False) is not None
    assert ref_pattern_elements(m) is None
    assert not ent._pattern_route(m[None])[0][0]
    batch = negativity_batch(m[None])
    assert not batch.pattern_ok[0]
    # the generic route sees that the state is not symmetric in the c1
    # pair: A1 and A2 get different decomposition negativities
    probs, vectors = ent._generic_decomposition(m[None])
    n_psdg, e_psd = ent._decomposition_negativities(probs, vectors, by_minors=False)
    for p in QubitLabel:
        assert abs(batch.n_psdg[p][0] - n_psdg[p][0]) <= 1e-12, p
    for spec in SELECTIVE_SPECS:
        assert abs(batch.e_psd[spec][0] - e_psd[spec][0]) <= 1e-12, spec
    assert batch.n_psdg[QubitLabel.A1][0] == pytest.approx(0.676020, abs=1e-6)
    assert batch.n_psdg[QubitLabel.A2][0] == pytest.approx(0.675899, abs=1e-6)


@pytest.mark.parametrize("size, inside", [(0.9e-8, True), (1.1e-8, False)])
@pytest.mark.parametrize("where", ["off-pattern entry", "block spread", "imaginary slot part"])
def test_pattern_check_boundaries(where, size, inside):
    # a slot spread, real or imaginary, inside 1e-8 keeps the pattern
    # route; an entry off the pattern never does, however small
    m = closed_form_rho(2.3, FieldConfig(0.9, 2.0, 20)).matrix.astype(complex)
    if where == "off-pattern entry":
        m[0, 3] = m[3, 0] = size
    elif where == "block spread":
        m[1, 1] += size
    else:
        m[0, 5] += 1j * size
        m[5, 0] -= 1j * size
    pattern = inside and where != "off-pattern entry"
    assert ent._pattern_route(m[None])[0][0] == pattern
    assert negativity_batch(m[None]).pattern_ok[0] == pattern
    assert (ref_pattern_elements(m, compare_coherences=False) is not None) == pattern


@pytest.mark.parametrize("size", [1e-300, 1e-17, 0.9e-8])
def test_any_off_pattern_entry_takes_the_generic_route(size):
    # one symmetric pair of entries off the pattern, at every such position
    clean = closed_form_rho(2.3, FieldConfig(0.9, 2.0, 20)).matrix
    rows, cols = np.nonzero(np.triu(~PATTERN_MASK))
    states = np.repeat(clean[None], len(rows), axis=0)
    states[np.arange(len(rows)), rows, cols] = size
    states[np.arange(len(rows)), cols, rows] = size
    assert not negativity_batch(states).pattern_ok.any()
    assert negativity_batch(clean[None]).pattern_ok.all()


def test_comparing_coherence_slots_changes_no_verdict_on_the_suites_stacks(selection_stacks):
    # closed-form, oracle, noisy oracle and random states, and Bell, W and
    # GHZ states: the pattern check with and without the coherences agree
    rng = np.random.default_rng(83)
    a = rng.standard_normal((10, 8, 8))
    b = a + 1j * rng.standard_normal((10, 8, 8))
    random_states = np.concatenate([a @ a.swapaxes(-1, -2), b @ b.conj().swapaxes(-1, -2)])
    random_states /= np.trace(random_states, axis1=1, axis2=2).real[:, None, None]
    bell = np.zeros(8)
    bell[0] = bell[5] = 1.0 / SQRT2
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / SQRT2
    named = np.array([np.outer(ket, ket) for ket in (bell, W1_STATE, ghz)])
    taus = np.linspace(0.0, 20.0, 30)
    closed = [sweep_states(theta, [0.3, 1.2], taus) for theta in (math.pi, math.pi / 2.0, 1.1)]
    stacks = [*closed, selection_stacks["oracle"], selection_stacks["noisy"], random_states, named]
    verdicts = Counter()
    for states in stacks:
        pattern_ok = ent._pattern_route(states)[0]
        for m, ok in zip(states, pattern_ok):
            assert ok == (ref_pattern_elements(m) is not None)
            assert ok == (ref_pattern_elements(m, compare_coherences=False) is not None)
            verdicts[bool(ok)] += 1
    assert verdicts[True]
    assert verdicts[False] == len(selection_stacks["noisy"]) + len(random_states) + 2
