"""The batched diagnostics kernel's structure: routes, blocks, solves and stacks.

The values are checked against the textbook evaluation in
`test_diagnostics_reference`; the tests here pin how the kernel gets
them.  A state's values do not depend on the stack around it, each route
solves only what it needs (counted by the `eigh_solves` fixture through
public calls), and bad stacks are refused by name.
"""

import math
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import cavity3q.entanglement as ent
import cavity3q.tavis_cummings as tc
from cavity3q import (
    PATTERN_MASK,
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
    SLOT_SPREAD_TOL,
    TOL,
    assert_bit_identical,
    assert_matches_textbook,
    batch_fields,
    full_transpose,
    oracle_states,
    pattern_route,
    textbook_report,
)

BLOCK = ent._DIAGNOSTIC_BLOCK
SQRT2 = math.sqrt(2.0)


def ref_pattern_elements(m, tol=SLOT_SPREAD_TOL, compare_coherences=True):
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


def sweep_states(theta, squeezes, taus, n_max=80):
    elements = closed_form_grid(taus, squeezes, theta, n_max)
    return states_from_elements(elements.reshape(-1, 8))


def off_pattern(states, size=1e-17):
    """``states`` with one symmetric pair of entries off the zero pattern: the generic route."""
    noisy = states.copy()
    noisy[:, 3, 0] = noisy[:, 0, 3] = size
    return noisy


def random_states(rng, count, dtype=complex):
    a = rng.standard_normal((count, 8, 8)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal((count, 8, 8))
    states = a @ a.conj().swapaxes(-1, -2)
    return states / np.trace(states, axis1=1, axis2=2).real[:, None, None]


# ------------------------------------------------------------------- tests


def test_kernel_matches_reference_on_degenerate_pairs():
    # exact degeneracies and zero coherences take the unrotated branches of
    # the two-level solve, in both orders; where weights are degenerate the
    # decomposition is not fixed by the state, so the textbook takes the
    # kets the kernel must keep: |000> and the symmetric excited state
    # unrotated, or their even and odd combinations when they couple
    basis = np.eye(8)
    sym = (basis[5] + basis[6]) / SQRT2
    states, decompositions = [], []
    for r11, r55, r15 in ((0.25, 0.25, 0.0), (0.5, 0.1, 0.0), (0.1, 0.5, 0.0), (0.3, 0.3, 0.1)):
        m = np.zeros((8, 8))
        m[0, 0] = r11
        m[5:7, 5:7] = r55 / 2.0
        m[0, 5] = m[0, 6] = m[5, 0] = m[6, 0] = r15 / SQRT2
        m[3, 3] = 1.0 - r11 - r55
        if r15:
            kets = [(r11 + r15, (basis[0] + sym) / SQRT2), (r11 - r15, (basis[0] - sym) / SQRT2)]
        else:
            kets = [(r11, basis[0]), (r55, sym)]
        kets.append((m[3, 3], basis[3]))
        assert np.abs(sum(w * np.outer(k, k) for w, k in kets) - m).max() <= 1e-16
        states.append(m)
        decompositions.append(kets)
    states = np.array(states)
    assert pattern_route(states).all()
    assert assert_matches_textbook(states, decompositions) <= TOL


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_outputs_do_not_depend_on_ket_phases(dtype, monkeypatch):
    # every diagnostic reads the decomposition only through p |k><k|: a random
    # sign on each ket of a real stack changes no bit, a random unit phase on
    # each ket of a complex stack changes only the rounding; the generic
    # rows' pairwise shares come from 8x8 eigensolves, which amplify it to
    # several ulps (up to 6.2e-15 over 40 random stacks), so TOL.  The
    # pattern route holds each ket of a family's 2x2 block, and each
    # eigenvector of B's transpose blocks, as the real (x, y) of
    # `_two_level_pairs`, in either dtype: a random sign on each changes no
    # bit
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

    def resigned(solve):
        def two_level_pairs(*args):
            (lam, x, y), rotated = solve(*args)
            calls.append(np.shape(args[0]))
            sign = rng.choice([-1.0, 1.0], size=lam.shape)
            return (lam, x * sign, y * sign), rotated

        return two_level_pairs

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

    monkeypatch.setattr(ent, "_two_level_pairs", resigned(ent._two_level_pairs))
    monkeypatch.setattr(ent, "_generic_decomposition", rephased(ent._generic_decomposition))
    got = negativity_batch(states)
    # the four 2x2 blocks of the closed-form states in one call, then the
    # generic states' eigenpairs
    assert calls == [(len(ent._BLOCKS), len(closed)), len(generic)]
    if dtype is np.float64:
        assert_bit_identical(got, expected)
        return
    assert np.array_equal(got.pattern_ok, expected.pattern_ok)
    reference = batch_fields(expected)
    for key, values in batch_fields(got).items():
        deviation = np.abs(values - reference[key])
        assert np.array_equal(values[: len(closed)], reference[key][: len(closed)]), key
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
    got = batch_fields(negativity_batch(m[None]))
    for key, value in textbook_report(m).items():
        assert got[key][0] == pytest.approx(value, abs=TOL), key
    for name in ("n_g", "e_3", "e_2", "e_0"):
        assert got[(name, QubitLabel.B)][0] == 0.0


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
    expected = textbook_report(m)
    for p in QubitLabel:
        assert batch.n_psdg[p][0] == expected[("n_psdg", p)] == 0.0


def test_pairwise_solves_every_decomposition_ket_off_the_pattern_alone(eigh_solves):
    states = sweep_states(math.pi, [0.0, 1.2], [0.0, 0.7, 3.0, 14.5])
    # of a closed-form state only A1's global transpose is solved, as one
    # 8-index block (A2's values are A1's mirror, and B's two 3x3 blocks come
    # in closed form from the elements); its decomposition kets' shares come
    # from the minors, with no eigensolve
    assert eigh_solves(negativity_batch, states) == {8: len(states)}
    # off the pattern every state is one 8-index block per global transpose
    # and for its decomposition (its eigenpairs, the states being exactly
    # symmetric); each of its eight kets, basis kets and kets of zero weight
    # included, is solved once per qubit that leads a selective spec, B and A1
    # (the diagonal state coupled at [0,3] has basis kets of positive weight)
    coupled = np.eye(8) / 8.0
    coupled[0, 3] = coupled[3, 0] = 0.05
    noisy = np.concatenate([off_pattern(states), coupled[None]])
    weights, kets = np.linalg.eigh(noisy)
    positive = (weights > 0.0) & (np.count_nonzero(kets, axis=-2) >= 2)
    assert 0 < positive.sum() < (weights > 0.0).sum()
    solved = eigh_solves(negativity_batch, noisy)
    assert solved == {8: (4 + 2 * 8) * len(noisy)}


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2.0])
def test_real_stack_matches_its_complex_cast(theta, eigh_solves):
    # closed-form states are real, so the kernel runs real LAPACK on them; the
    # same stack cast to complex takes the same code with complex LAPACK
    states = sweep_states(theta, [0.3, 1.2], np.linspace(0.0, 20.0, 40))
    assert states.dtype == np.float64
    for stack, dtype in ((states, np.float64), (states.astype(complex), np.complex128)):
        eigh_solves(negativity_batch, stack)
        assert {solved for _, solved in eigh_solves.calls} == {np.dtype(dtype)}
    real, cast = negativity_batch(states), negativity_batch(states.astype(complex))
    assert np.array_equal(real.pattern_ok, cast.pattern_ok)
    expected = batch_fields(cast)
    for key, values in batch_fields(real).items():
        assert values.dtype == np.float64, key
        assert np.abs(values - expected[key]).max() <= TOL, key


def test_mixed_stack_of_real_and_complex_states():
    states = sweep_states(math.pi / 3.0, [1.2], [0.5, 1.0, 1.5, 2.0])
    generic = random_states(np.random.default_rng(11), 1)
    batch = negativity_batch([*states[:2], generic[0], *states[2:]])
    assert batch.pattern_ok.tolist() == [True, True, False, True, True]
    alone = batch_fields(negativity_batch(states))
    single = batch_fields(negativity_batch(generic))
    for key, values in batch_fields(batch).items():
        assert np.abs(values[[0, 1, 3, 4]] - alone[key]).max() <= TOL, key
        assert values[2] == single[key][0], key


def test_only_non_pattern_rows_take_generic_fallback(eigh_solves):
    # only the state off the pattern takes the eigensolver decomposition and
    # the 8-index blocks; a stack of pattern states solves A1's global
    # transpose, one 8x8 matrix per state, and nothing else
    states = sweep_states(math.pi, [1.2], [0.5, 1.0, 1.5, 2.0])
    generic = random_states(np.random.default_rng(5), 1)
    stack = np.concatenate([states[:2], generic, states[2:]])
    assert negativity_batch(stack).pattern_ok.tolist() == [True, True, False, True, True]
    on_pattern = eigh_solves(negativity_batch, states)
    assert on_pattern == {8: len(states)}
    apart = on_pattern + eigh_solves(negativity_batch, generic)
    assert eigh_solves(negativity_batch, stack) == apart


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


@pytest.mark.parametrize("bad", [BLOCK + 7, 2 * BLOCK + 1])
def test_non_hermitian_error_names_the_state_in_the_callers_stack(bad):
    # the kernel evaluates the stack in blocks; the message counts from the
    # start of the caller's stack, not of the block
    states = sweep_states(math.pi, [1.2], np.linspace(0.0, 20.0, 2 * BLOCK + 5))
    states[bad, 0, 5] += 1e-6
    with pytest.raises(ValueError, match=rf"not Hermitian \(matrix {bad} of the stack\)"):
        negativity_batch(states)
    states[bad, 0, 5] = np.nan
    with pytest.raises(ValueError, match=rf"must be finite, .* in matrix {bad} of the stack$"):
        negativity_batch(states)


def test_a_non_finite_entry_is_named_before_an_earlier_non_hermitian_state():
    # the checks run block by block, but every state is checked finite
    # before any is checked Hermitian: a non-Hermitian state in the first
    # block does not hide a NaN in the second
    states = sweep_states(math.pi, [1.2], np.linspace(0.0, 20.0, BLOCK + 10))
    states[3, 0, 5] += 1e-6
    states[BLOCK + 4, 5, 0] = np.nan
    message = rf"^states must be finite, got entry \[5,0\] = nan in matrix {BLOCK + 4} of the stack$"
    with pytest.raises(ValueError, match=message):
        negativity_batch(states)


@pytest.fixture(scope="module")
def large_sweep_stack():
    """A 24,000-state closed-form stack of 12.3 MB: 600 taus by 40 squeezes at theta = pi/2."""
    return sweep_states(math.pi / 2.0, np.linspace(0.0, 2.0, 40), np.linspace(0.0, 20.0, 600))


def traced_peak(call, *args):
    """The traced peak of one call, and what it returned."""
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def test_the_input_checks_hold_no_temporary_the_size_of_the_stack(large_sweep_stack):
    # the 24,000-state stack through the kernel's input checks: the
    # Hermiticity residual is filled block by block, so the traced peak
    # (0.50 MB) stays below half the stack; a residual formed over the whole
    # stack at once took it to 23.4 MB
    states = large_sweep_stack
    peak, _ = traced_peak(ent._require_states, states)
    assert peak < states.nbytes / 2, f"peak {peak / 1e6:.1f} MB for a {states.nbytes / 1e6:.1f} MB stack"


def test_the_pattern_route_holds_no_dense_per_state_temporary(large_sweep_stack):
    # the element entry on the 24,000 states' elements, as a sweep calls it:
    # beyond the arrays it returns, the traced peak is the largest set of
    # temporaries of one 200-state block, 0.26 MB, set by the family kets'
    # tables, with the auxiliary measures summed from the eight elements
    # rather than from two (200, 8, 8) products; dense kets, their minors,
    # gathered blocks and 3x3 projectors of B took the dense call to 0.69
    # MB.  One more (200, 8, 8) array, 0.10 MB, alive at that peak would
    # pass the bound
    elements = ent._pattern_route(large_sweep_stack)[1]
    peak, batch = traced_peak(ent._element_batch, elements)
    returned = sum(values.nbytes for values in batch_fields(batch).values()) + batch.pattern_ok.nbytes
    held = peak - returned
    assert held < 0.40e6, f"{held / 1e6:.3f} MB held beyond the {returned / 1e6:.2f} MB returned"


@pytest.mark.parametrize("i, j", [(3, 3), (0, 5)], ids=["diagonal", "off-diagonal"])
def test_infinite_entry_is_refused_without_a_warning(i, j):
    # refused as non-finite before any arithmetic could warn (inf - inf);
    # the state is named by its index in the caller's stack
    bad = BLOCK + 7
    states = sweep_states(math.pi, [1.2], np.linspace(0.0, 20.0, BLOCK + 10))
    states[bad, i, j] = states[bad, j, i] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        entry = rf"\[{min(i, j)},{max(i, j)}\] = inf in matrix {bad} of the stack$"
        with pytest.raises(ValueError, match=rf"^states must be finite, got entry {entry}"):
            negativity_batch(states)


BOUND_MESSAGE = r"^states must have real and imaginary parts of magnitude below 8\.37\d*e\+152, got entry "


def near_the_float64_limit():
    # r55 and r15 at 1e308 passed the input checks and overflowed in the
    # route check, returning inf and NaN
    yield states_from_elements([[1, 0.5, 0.1, 0.1, 1e308, 0.2, 1e308, 0]]), r"\[0,5\] = 7\.07\d*e\+307"
    # a pair of opposite entries overflowed the Hermiticity residual, which
    # was then taken for a non-finite entry that the message could not name
    pair = np.zeros((1, 8, 8))
    pair[0, 0, 1], pair[0, 1, 0] = 1e308, -1e308
    yield pair, r"\[0,1\] = 1e\+308"
    # the bound holds for imaginary parts too: this state is Hermitian
    yield 1j * pair, r"\[0,1\] = 1e\+308j"


@pytest.mark.parametrize("states, entry", near_the_float64_limit())
def test_a_finite_entry_near_the_float64_limit_is_refused_by_name(states, entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=BOUND_MESSAGE + entry + " in matrix 0 of the stack$"):
            negativity_batch(states)


def test_states_just_below_the_entry_bound_evaluate_without_overflow():
    # every part at 1, the worst case of B's linear entropy: 2 tr rho_B^2 is
    # 192 times the square of the largest part, three quarters of float64's
    # largest value at the bound
    coupled = np.triu(np.full((8, 8), 1.0 + 1.0j), 1)
    worst = coupled + coupled.conj().T + np.eye(8)
    closed = sweep_states(math.pi / 2.0, [1.2], [0.8, 14.5])
    stacks = [worst[None], -np.eye(8)[None], closed / np.abs(closed).max(axis=(1, 2))[:, None, None]]
    below, above = np.nextafter(ent._ENTRY_BOUND, 0.0), np.nextafter(ent._ENTRY_BOUND, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for states in stacks:
            batch = negativity_batch(states * below)
            for key, values in batch_fields(batch).items():
                assert np.isfinite(values).all(), key
            with pytest.raises(ValueError, match=BOUND_MESSAGE):
                negativity_batch(states * above)
    linear_entropy = negativity_batch(worst[None] * below).linear_entropy_b[0]
    assert -linear_entropy == pytest.approx(0.75 * np.finfo(np.float64).max, rel=1e-12)


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


@pytest.mark.parametrize(
    "states, shape",
    [
        pytest.param(np.zeros((2, 8)), "shape (2, 8)", id="rows"),
        pytest.param(np.eye(8), "shape (8, 8)", id="one matrix"),
        pytest.param(np.zeros((3, 4, 4)), "shape (3, 4, 4)", id="4x4 stack"),
        pytest.param([np.eye(8) / 8.0, np.eye(4) / 4.0], "states of shapes [(4, 4), (8, 8)]", id="ragged"),
        pytest.param(np.zeros(8), "shape (8,)", id="one row"),
        pytest.param(np.float64(0.125), "shape ()", id="scalar"),
        pytest.param(None, "shape ()", id="none"),
        pytest.param(np.zeros((2, 8, 8, 1)), "shape (2, 8, 8, 1)", id="4-d stack"),
        pytest.param(np.zeros((2, 8, 4)), "shape (2, 8, 4)", id="8x4 stack"),
    ],
)
def test_stacks_of_other_shapes_are_refused_by_name(states, shape):
    # a ragged sequence failed inside numpy with "inhomogeneous shape"
    message = f"states must be an (N, 8, 8) stack of 8x8 states, got {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        negativity_batch(states)


# the kernel on a stack, and its grid of one on the stack's first state
ENTRIES = {"kernel": negativity_batch, "grid of one": lambda states: negativity_report(states[0])}


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("dtype", [np.float16, np.longdouble, np.clongdouble])
def test_float_widths_without_lapack_are_refused(dtype, entry):
    # unchecked, they raised numpy's TypeError from inside linalg
    states = sweep_states(math.pi, [1.2], [0.8, 14.5]).astype(dtype)
    floats = "float32, float64, complex64 or complex128"
    message = f"states must hold integers or {floats} numbers, got dtype {np.dtype(dtype)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ENTRIES[entry](states)


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("dtype", [np.int32, np.float32, np.float64, np.complex64, np.complex128])
def test_integer_and_lapack_float_stacks_are_evaluated(dtype, entry):
    states = (8 * sweep_states(math.pi / 2.0, [1.2], [0.8, 14.5])).astype(dtype)
    got = ENTRIES[entry](states)
    if entry == "grid of one":
        assert got == negativity_batch(states[:1]).report(0)
        got = negativity_batch(states[:1])
    for key, values in batch_fields(got).items():
        assert np.isfinite(values).all(), key


def test_integer_stacks_are_accepted():
    # an integer state takes the same routes as its float cast
    m = np.zeros((2, 8, 8), dtype=int)
    m[0, 0, 0] = 1
    m[1] = np.eye(8, dtype=int)
    m[1, 0, 3] = m[1, 3, 0] = 1
    assert_bit_identical(negativity_batch(m), negativity_batch(m.astype(float)))
    assert negativity_batch(m).pattern_ok.tolist() == [True, False]


def test_decomposition_negativities_reject_non_hermitian_pattern_state():
    # the zero pattern holds, but the mirrored coherences differ
    m = closed_form_rho(1.2, FieldConfig(1.2, math.pi, 40)).matrix.copy()
    m[5, 0] += 1e-6
    assert not m[~PATTERN_MASK].any()
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity_batch(m[None])


def test_generic_decomposition_rejects_non_hermitian_state():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity_batch(m[None])


def test_kernel_and_scalar_negativity_share_one_path():
    # a grid of one gives the stack's values bit for bit
    states = sweep_states(math.pi / 2.0, [0.3, 1.2], [0.0, 0.8, 14.5])
    noisy = off_pattern(states)
    batch, noisy_batch = negativity_batch(states), negativity_batch(noisy)
    for index in range(len(states)):
        single = negativity_batch(states[index : index + 1])
        # a state off the zero pattern takes the generic route
        noisy_single = negativity_batch(noisy[index : index + 1])
        for p in QubitLabel:
            assert single.n_g[p][0] == batch.n_g[p][index]
            assert noisy_single.n_g[p][0] == noisy_batch.n_g[p][index]
    for p in QubitLabel:
        assert np.abs(noisy_batch.n_g[p] - batch.n_g[p]).max() <= TOL


def test_scalar_functions_solve_only_the_global_tables_they_need(eigh_solves):
    # grids of one: on the pattern route A1's transpose as one 8-index
    # block, A2's values its mirror, and B's two blocks in closed form from
    # the elements; nothing else is solved
    states = sweep_states(math.pi / 2.0, [1.2], [0.3, 0.8, 14.5])
    for m in states:
        assert eigh_solves(negativity_batch, m[None]) == {8: 1}
        assert eigh_solves(negativity_report, m) == {8: 1}
    # off the zero pattern: the decomposition, the three transposes and two
    # two-way transposes per decomposition ket, as 8-index blocks
    for m in off_pattern(states):
        assert eigh_solves(negativity_batch, m[None]) == {8: 4 + 2 * 8}


# ------------------------------------------------- the pattern route's block table

BASIS = np.eye(8)

# Per row of `_BLOCKS`: the frame of its 2x2 block, and whether the block is
# the state's (a family) or B's global transpose's
BLOCK_FRAMES = {
    "first family": ((BASIS[0], (BASIS[5] + BASIS[6]) / SQRT2), False),
    "second family": (((BASIS[1] + BASIS[2]) / SQRT2, BASIS[7]), False),
    "B's first block": (((BASIS[1] + BASIS[2]) / SQRT2, BASIS[4]), True),
    "B's second block": (((BASIS[5] + BASIS[6]) / SQRT2, BASIS[3]), True),
}


@pytest.mark.parametrize("row", range(len(BLOCK_FRAMES)), ids=list(BLOCK_FRAMES))
def test_block_table_row_is_the_dense_block_in_its_exchange_frame(row):
    # each row of `_BLOCKS` names the elements on the first diagonal, second
    # diagonal and coupling of a 2x2 block in the exchange frame: a family
    # row the dense state's, a B row that of B's dense global transpose
    frame, transposed = list(BLOCK_FRAMES.values())[row]
    assert len(BLOCK_FRAMES) == len(ent._BLOCKS)
    elements = np.random.default_rng(7).standard_normal((6, 8))
    states = states_from_elements(elements)
    if transposed:
        states = np.array([full_transpose(m, QubitLabel.B) for m in states])
    frame = np.array(frame)
    first, second, off = elements[:, ent._BLOCKS[row]].T
    expected = np.moveaxis(np.array([[first, off], [off, second]]), -1, 0)
    assert np.abs(frame @ states @ frame.T - expected).max() <= 1e-15


@pytest.mark.parametrize("index, coupled", [(0, True), (1, False), (2, True), (3, False)], ids=["global", "k = 3", "k = 2", "state"])
def test_b_block_tables_read_each_map_of_a_pattern_state(index, coupled):
    # every map of B's closed form holds r11 and r66 on |000> and |111>
    # (`_B_SINGLES`), and, in each block's frame of the symmetric pair vector
    # and |k>, the block [[pair, coupling], [coupling, k]] of B's rows of
    # `_BLOCKS`: [[r22, r15], [r15, r44]] on (|100> + |010>)/sqrt2 and
    # |001>, [[r55, r26], [r26, r33]] on (|101> + |011>)/sqrt2 and |110>.
    # B's transpose moves the coherences r15 and r26 into the blocks, as
    # does its k = 2 map; the k = 3 map and the state leave them out
    # (`_B_COUPLED`)
    assert index == 0 or ent._B_COUPLED[index - 1] == float(coupled)
    elements = np.random.default_rng(11).standard_normal((6, 8))
    maps = states_from_elements(elements).reshape(-1, 64)[:, ent._STATE_MAPS[QubitLabel.B.value, index]]
    for single, i in zip(ent._B_SINGLES, (0, 7)):
        assert np.array_equal(maps[:, i, i], elements[:, single])
    frames = [frame for frame, transposed in BLOCK_FRAMES.values() if transposed]
    pair, k, coupling = (elements[:, columns] for columns in ent._BLOCKS[2:].T)
    expected = np.zeros_like(maps)
    expected[:, 0, 0], expected[:, 7, 7] = elements[:, 0], elements[:, 5]
    for block, (u, v) in enumerate(frames):
        frame = np.array([u, v])
        c = coupling[:, block] * coupled
        got = frame @ maps @ frame.T
        want = np.moveaxis(np.array([[pair[:, block], c], [c, k[:, block]]]), -1, 0)
        assert np.abs(got - want).max() <= 1e-15, block
        expected += want[:, 0, 0, None, None] * np.outer(u, u) + want[:, 1, 1, None, None] * np.outer(v, v)
        expected += c[:, None, None] * (np.outer(u, v) + np.outer(v, u))
    if index == 0:
        # B's transpose is those blocks alone: the antisymmetric pair
        # vectors are null directions
        assert np.abs(maps - expected).max() <= 1e-15


# ------------------------------------------------------ route stacks


@pytest.fixture(scope="module")
def route_stacks():
    taus = np.linspace(0.0, 20.0, 2 * BLOCK + 44)
    closed = sweep_states(math.pi / 3.0, [1.2], taus, n_max=40)
    rng = np.random.default_rng(41)
    a = rng.standard_normal((40, 8, 4)) + 1j * rng.standard_normal((40, 8, 4))
    generic = a @ a.conj().swapaxes(-1, -2)
    generic /= np.trace(generic, axis1=1, axis2=2).real[:, None, None]
    return {
        "closed": closed,
        "oracle": oracle_states(),
        "noisy": oracle_states(noise_seed=41),
        "generic": generic,
    }


def test_route_stacks_cover_both_block_paths(route_stacks):
    # the closed-form states span three kernel blocks, and they and the
    # oracle states are exactly zero off the pattern: the pattern route; the
    # noisy oracle states and the random states take the generic route
    assert len(route_stacks["closed"]) > 2 * BLOCK
    for name, pattern in (("closed", True), ("oracle", True), ("noisy", False), ("generic", False)):
        assert (pattern_route(route_stacks[name]) == pattern).all(), name
    assert len(route_stacks["oracle"]) == len(route_stacks["noisy"]) == 36


def assert_each_state_is_its_single_call(states):
    batch = negativity_batch(states)
    assert len(batch.n_g[QubitLabel.B]) == len(states)
    for index in range(len(states)):
        single = negativity_batch(states[index : index + 1])
        assert single.report(0) == batch.report(index)
        assert single.pattern_ok[0] == batch.pattern_ok[index]
        assert_bit_identical(single, negativity_batch([states[index]]))
    return batch


@pytest.mark.parametrize("length", [1, 32, 33, BLOCK, BLOCK + 1])
def test_stack_is_bit_identical_to_per_point(length):
    taus = np.linspace(0.0, 20.0, length)
    assert_each_state_is_its_single_call(sweep_states(math.pi / 3.0, [1.2], taus, n_max=40))


def test_mixed_stack_is_bit_identical_to_per_point(route_stacks):
    # closed-form, noisy oracle and random states interleaved across two
    # kernel blocks, so each block holds states of both routes
    closed, noisy, generic = (route_stacks[name] for name in ("closed", "noisy", "generic"))
    states = np.concatenate([closed[:150], noisy, closed[150:180], generic, closed[180:220]])
    batch = assert_each_state_is_its_single_call(states)
    assert 0 < batch.pattern_ok[: BLOCK].sum() < BLOCK
    assert 0 < batch.pattern_ok[BLOCK :].sum() < len(states) - BLOCK


A1, A2, B = QubitLabel.A1, QubitLabel.A2, QubitLabel.B


def exchanged(states, p, q):
    """``states`` with qubits ``p`` and ``q`` exchanged: the two bits of each basis index swapped."""
    index = np.arange(8)
    differ = ((index >> p.value) ^ (index >> q.value)) & 1
    swapped = index ^ (differ << p.value) ^ (differ << q.value)
    return states[:, swapped][:, :, swapped]


# Per exchange of two qubits: the labels it maps onto each other, of the
# qubits and of the specs whose image is a spec, and whether B's measures
# stay where they are
EXCHANGES = {
    "A1-A2": ({A1: A2, A2: A1, B: B}, {"B-BA1": "B-BA2", "B-BA2": "B-BA1"}, True),
    "A1-B": (
        {A1: B, B: A1, A2: A2},
        {"B-BA1": "A1-A1B", "A1-A1B": "B-BA1", "B-BA2": "A1-A1A2", "A1-A1A2": "B-BA2"},
        False,
    ),
}


@pytest.mark.parametrize("stack", ["closed", "oracle", "noisy", "generic"])
@pytest.mark.parametrize("exchange", list(EXCHANGES))
def test_exchanging_two_qubits_exchanges_their_values(route_stacks, exchange, stack):
    # a pattern state is its own A1<->A2 exchange, so its A1 and A2 values
    # and its B-BA1 and B-BA2 shares agree; the A1<->B exchange takes it off
    # the pattern, so B's closed form and the family minors meet A1's
    # values from eight-index solves
    qubits, specs, measures = EXCHANGES[exchange]
    p, q = (label for label, image in qubits.items() if label is not image)
    states = route_stacks[stack]
    batch = negativity_batch(states)
    moved = negativity_batch(exchanged(states, p, q))
    for name in ("n_g", "e_3", "e_2", "e_0", "n_psdg"):
        for label, image in qubits.items():
            assert np.abs(getattr(moved, name)[image] - getattr(batch, name)[label]).max() <= TOL, (name, label)
    for spec, image in specs.items():
        assert np.abs(moved.e_psd[image] - batch.e_psd[spec]).max() <= TOL, spec
    if measures:
        for name in ("linear_entropy_b", "w1_fidelity", "bell_projection"):
            assert np.abs(getattr(moved, name) - getattr(batch, name)).max() <= TOL, name
        assert np.array_equal(moved.pattern_ok, batch.pattern_ok)
    elif batch.pattern_ok.any():
        assert (batch.pattern_ok & ~moved.pattern_ok).any()


# ------------------------------------------------------ the A1<->A2 mirror

# The A1<->A2 exchange on basis indices: bits 0 and 1 swapped
A1_A2_SWAP = [0, 2, 1, 3, 4, 6, 5, 7]


def test_every_element_slot_set_is_exchange_invariant():
    # the condition the pattern route's mirror rests on: each element's
    # slots map onto themselves under the exchange, so every state on the
    # pattern is its own A1<->A2 exchange
    for slots in tc._ELEMENT_SLOTS:
        assert {(A1_A2_SWAP[i], A1_A2_SWAP[j]) for i, j in slots} == set(slots), slots


@pytest.mark.parametrize("stack", ["closed", "oracle", "noisy", "non-psd"])
def test_pattern_rows_copy_a1_into_a2(route_stacks, stack):
    # on the pattern route A2's five fields and the B-BA2 share are A1's and
    # B-BA1's, bit for bit; the noisy oracle states, whose noise off the
    # pattern breaks the exchange, take the generic route, which solves A2
    # apart from A1
    if stack == "non-psd":
        states = states_from_elements(np.random.default_rng(19).standard_normal((50, 8)))
        assert (np.linalg.eigvalsh(states)[:, 0] < 0.0).all()
    else:
        states = route_stacks[stack]
    batch = negativity_batch(states)
    fields = [(getattr(batch, name), A1, A2) for name in ("n_g", "e_3", "e_2", "e_0", "n_psdg")]
    fields.append((batch.e_psd, "B-BA1", "B-BA2"))
    if stack == "noisy":
        assert not batch.pattern_ok.any()
        assert not all(np.array_equal(field[a], field[b]) for field, a, b in fields)
        return
    assert batch.pattern_ok.all()
    for field, a, b in fields:
        assert np.array_equal(field[a], field[b]), b


def local_unitary(rng, qubits):
    """An 8x8 product of random 2x2 unitaries on ``qubits`` and the identity on the others."""
    factors = []
    # the Kronecker product takes the most significant bit first
    for p in (B, A2, A1):
        if p in qubits:
            unitary, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            factors.append(unitary)
        else:
            factors.append(np.eye(2))
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


@pytest.mark.parametrize("stack", ["closed", "oracle", "noisy", "generic"])
@pytest.mark.parametrize("qubits", [(A1,), (A2,), (B,), (A1, A2, B)], ids=["A1", "A2", "B", "all"])
def test_local_unitaries_change_no_invariant(route_stacks, qubits, stack):
    # N_G and B's linear entropy do not depend on each qubit's basis; a
    # local unitary takes a pattern state to the generic route, so B's
    # closed form meets the eight-index solves.  The K-way splits, the
    # shares and the W1 and Bell weights are basis-dependent, and N_PSDG is
    # not compared: the closed-form stack's second state has the weights
    # 2.672e-6 and 2.678e-6, and a rotated decomposition mixes their kets,
    # which moves it by 1.9e-14
    states = route_stacks[stack]
    u = local_unitary(np.random.default_rng(17), qubits)
    batch = negativity_batch(states)
    moved = negativity_batch(u @ states @ u.conj().T)
    assert not moved.pattern_ok.any()
    for p in QubitLabel:
        assert np.abs(moved.n_g[p] - batch.n_g[p]).max() <= TOL, p
    assert np.abs(moved.linear_entropy_b - batch.linear_entropy_b).max() <= TOL


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
        assert not pattern_route(m[None])[0]
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
    # the route decision on the Hermitian part of each case, and the
    # comparison's zero-pattern violations on the cases as they are
    for a, b in pattern_cases():
        for m in (a, b):
            m = (m + m.conj().T) / 2.0
            assert pattern_route(m[None])[0] == (ref_pattern_elements(m) is not None)
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

    psi = 0.6|000> + 0.8 (|101> + |011>)/sqrt2 and phi = sqrt(1 - 5e-15)|000>
    + sqrt(5e-15) (|101> - |011>)/sqrt2: the entries of each symmetric
    block agree to 2.5e-15, inside the slot tolerance, but the coherences
    rho[0,5] and rho[0,6] are 5e-8 apart.
    """
    psi = np.zeros(8)
    psi[0], psi[5], psi[6] = 0.6, 0.8 / SQRT2, 0.8 / SQRT2
    phi = np.zeros(8)
    phi[0], phi[5] = math.sqrt(1.0 - 5e-15), math.sqrt(5e-15) / SQRT2
    phi[6] = -phi[5]
    return 0.5 * np.outer(psi, psi) + 0.5 * np.outer(phi, phi)


def test_unequal_coherence_slots_fail_the_pattern_check():
    m = unequal_coherence_state()
    assert m[0, 5] - m[0, 6] == pytest.approx(5e-8, rel=1e-2)
    assert ref_pattern_elements(m, compare_coherences=False) is not None
    assert ref_pattern_elements(m) is None
    batch = negativity_batch(m[None])
    assert not batch.pattern_ok[0]
    # the generic route sees that the state is not symmetric in the c1
    # pair: A1 and A2 get different decomposition negativities, each the
    # textbook value
    got = batch_fields(batch)
    for key, value in textbook_report(m).items():
        assert got[key][0] == pytest.approx(value, abs=TOL), key
    assert batch.n_psdg[QubitLabel.A1][0] - batch.n_psdg[QubitLabel.A2][0] > 1e-8


@pytest.mark.parametrize("size, inside", [(0.9 * SLOT_SPREAD_TOL, True), (1.1 * SLOT_SPREAD_TOL, False)])
@pytest.mark.parametrize("where", ["off-pattern entry", "block spread", "imaginary slot part"])
def test_pattern_check_boundaries(where, size, inside):
    # a slot spread, real or imaginary, inside the slot tolerance keeps the
    # pattern route; an entry off the pattern never does, however small
    m = closed_form_rho(2.3, FieldConfig(0.9, 2.0, 20)).matrix.astype(complex)
    if where == "off-pattern entry":
        m[0, 3] = m[3, 0] = size
    elif where == "block spread":
        m[1, 1] += size
    else:
        m[0, 5] += 1j * size
        m[5, 0] -= 1j * size
    pattern = inside and where != "off-pattern entry"
    assert pattern_route(m[None])[0] == pattern
    assert (ref_pattern_elements(m, compare_coherences=False) is not None) == pattern


@pytest.mark.parametrize("size", [1e-300, 1e-17, 0.9 * SLOT_SPREAD_TOL])
def test_any_off_pattern_entry_takes_the_generic_route(size):
    # one symmetric pair of entries off the pattern, at every such position
    clean = closed_form_rho(2.3, FieldConfig(0.9, 2.0, 20)).matrix
    rows, cols = np.nonzero(np.triu(~PATTERN_MASK))
    states = np.repeat(clean[None], len(rows), axis=0)
    states[np.arange(len(rows)), rows, cols] = size
    states[np.arange(len(rows)), cols, rows] = size
    assert not negativity_batch(states).pattern_ok.any()
    assert negativity_batch(clean[None]).pattern_ok.all()


def test_comparing_coherence_slots_changes_no_verdict_on_the_suites_stacks(route_stacks):
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
    stacks = [*closed, route_stacks["oracle"], route_stacks["noisy"], random_states, named]
    verdicts = Counter()
    for states in stacks:
        pattern_ok = pattern_route(states)
        for m, ok in zip(states, pattern_ok):
            assert ok == (ref_pattern_elements(m) is not None)
            assert ok == (ref_pattern_elements(m, compare_coherences=False) is not None)
            verdicts[bool(ok)] += 1
    assert verdicts[True]
    assert verdicts[False] == len(route_stacks["noisy"]) + len(random_states) + 2
