"""Entanglement diagnostics for the three-qubit cavity state.

The diagnostic suite is one batched kernel, `negativity_batch`, which takes a
stack of states and returns every quantity the paper reads its four claims
from: the global negativities of the partial transposes (Peres, PRL 77, 1413
(1996); Vidal & Werner, PRA 65, 032314 (2002)) and their split into K-way
(restricted) parts, the negativities of the analytic pure-state
decomposition, which flag bound entanglement, their pairwise shares through
the selective two-qubit transposes, and the auxiliary measures (linear
entropy of B, W-state fidelity, Bell-sector weight).  `negativity_report` is
the kernel on a grid of one state and accepts every state the kernel does.
Each quantity has one implementation per route: the paper's gated
two-block closed form of qubit B's global negativity is how the pattern
route solves B's two 3x3 blocks; the tests check it against the same form
in exact arithmetic and the textbook eigensolve.  The pattern route's
formulas take the state's eight elements (`_pattern_values`), so the
command-line sweeps call them on the closed form's elements directly,
through the private element entry `_element_batch`, and never assemble a
dense state.

The kernel refuses, by the name ``states``, a stack that does not hold
finite numbers of a dtype numpy's LAPACK takes, an entry too large for its
products (`_ENTRY_BOUND`) or a state that is not Hermitian to 1e-9 (named
by its index in the caller's stack).  It evaluates the stack in fixed blocks
of `_DIAGNOSTIC_BLOCK` rows and decides each state's route once; each route
gathers its rows of a block and writes its values back to them.

* The pattern route takes a state whose entries outside `PATTERN_MASK` are
  exactly zero and whose element slots spread by at most 3e-15 (two slots
  of one element apart, or a slot's imaginary part): every closed-form and
  brute-force oracle state.  `tavis_cummings` reads the elements back from
  the slot table that `states_from_elements` writes with, and every
  diagnostic but A1's global negativity is computed from those eight
  elements (N, 8), with no dense ket, gather or projector.  Such a state is
  its own A1<->A2 exchange, so A2's values are A1's mirror (`_mirrored`),
  and in the exchange frame of symmetric pair vectors the state and B's
  global transpose split into 2x2 blocks of the elements: four rows of one
  table (`_BLOCKS`), whose eigenpairs (lam, x, y) one `_two_level_pairs`
  call solves:

  - the pure-state decomposition is the two eigenpairs of each of the
    state's two 2x2 blocks, a family of two kets, and the basis kets |110>
    and |001>;
  - the decomposition negativity of a ket uses the pure-state identity
    ``N_G^p(phi) = 2 sqrt(det rho_p)``, ``rho_p`` its reduced state of
    qubit p, and ``det rho_p`` is the sum of the squared 2x2 minors of the
    ket split by qubit p.  A family ket has one lone component and two
    equal pair components h, so its nonzero minors square to ``cross =
    (lone h)^2`` or ``same = (h h)^2``: A1's are a cross and a same, B's
    two crosses, and each sum of two has the same bits in any order;
  - the pairwise share term of spec (p, q) of a ket is
    ``-|m_q|^2 / r``, m_q its minor whose columns differ in qubit q alone,
    a cross for B-BA1 and A1-A1B and a same for A1-A1A2, and ``r = N_G^p
    / 2``;
  - qubit B's global negativity and its K-way split come from the paper's
    gated two-block closed form (`_b_global_split`): each of B's 3-index
    transpose blocks (Tavis & Cummings, Phys. Rev. 170, 379 (1968): each
    field component conserves photon number plus atomic excitation) is the
    table's 2x2 block [[r22, r15], [r15, r44]] or [[r55, r26], [r26, r33]]
    plus an exact null direction, its lower eigenvalue is refined as the
    determinant over the upper, and E_3/E_2/E_0 are quadratic forms of its
    kept eigenvectors;
  - B's linear entropy, the W1 fidelity and the Bell weight come from six
    linear functionals of the state (`_FUNCTIONALS`), read on the elements
    through that table applied once, at import, to the unit states
    (`_ELEMENT_FUNCTIONALS`).

* The generic route takes every other state, rounding noise outside the
  pattern included: the decomposition is a stacked eigendecomposition,
  N_PSDG comes from the minors of its dense kets, every one of its eight
  kets has its shares solved as one 8-index block per qubit that leads a
  spec, all in one stacked call (a ket of zero weight adds nothing, and a
  basis ket's terms are exactly 0), and the auxiliary measures come from
  the same six functionals on the dense state.  On both routes one
  formula turns them into the measures (`_measures`), B's linear entropy
  without cancellation where B is nearly pure.

A1's global transpose on both routes, and A2's and B's on the generic route,
are solved whole: each is gathered as one 8x8 matrix by flat index maps
(`_STATE_MAPS`), its negative eigenvalues give the global negativity, and
the K-way split E_3/E_2/E_0 is ``Re tr(T P)``, T the K-way transpose (or
the state) gathered the same way and P the projector on the negative
eigenvectors, in one stacked symmetrised call.  The command-line sweeps
report B's alone, so they make no eigensolve.  The closed-form states are
real symmetric, so real arithmetic and real symmetric LAPACK solve them; a
complex stack (a user's state, the generic route) takes the same lines
with complex LAPACK.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .tavis_cummings import (
    PATTERN_MASK,
    ThreeQubitDensityMatrix,
    _elements_of_states,
    _require_elements,
    states_from_elements,
)

__all__ = [
    "QubitLabel",
    "SELECTIVE_SPECS",
    "NEGATIVE_EIGENVALUE_CUTOFF",
    "NegativityReport",
    "NegativityBatch",
    "negativity_batch",
    "negativity_report",
    "W1_STATE",
]

# Eigenvalues in (-cutoff, 0) are treated as zero: 8x8 Hermitian solves carry
# O(1e-14) noise, and a transpose whose negative eigenvalue is that noise is
# not entangled.
NEGATIVE_EIGENVALUE_CUTOFF = 1e-12

# States evaluated together by `negativity_batch`.  Bounds the per-block
# stacks of gathered transposes and decomposition kets: at 200, a global
# transpose with its three projected maps takes 0.41 MB of a real stack, A1's
# on the pattern route and each qubit's on the generic route (the sweeps
# solve B's alone, in closed form, and gather none).  Blocks grew from 32 to
# 128 while the pattern route gathered index blocks of at most 3, at about
# the peak resident set of the 8x8 kernel at 32; the closed-form pairwise
# shares dropped the kets' gathered blocks, which made room for 200.  VmHWM
# of one `cli.main` call (MB, median of 5, one BLAS thread, byte-compiled
# package), the gathered ket blocks at 128 -> the closed-form shares at 128,
# 200 and 256:
#   tau-sweep        32.32 -> 32.18, 32.19, 32.41
#   s-sweep          31.63 -> 31.48, 31.42, 31.42
#   tau-sweep-dense  32.24 -> 32.20, 32.20, 32.29
# At 200 a sweep takes about 6% less CPU than at 128 for no higher peak.
_DIAGNOSTIC_BLOCK = 200

_HERMITICITY_TOL = 1e-9

# The kernel refuses a state with a real or imaginary part of this magnitude
# (about 8.4e152).  Its largest products of two entries are in qubit B's
# linear entropy, ``2 ((1 - t)(1 + t) + 2 (p0 p1 - c01 c10))``: p0, p1, c01
# and c10 each sum four of the state's entries and t eight, so for a
# Hermitian state whose parts lie below P, ``(1 - t)(1 + t)`` stays below
# 64 P^2, ``2 (p0 p1 - c01 c10)`` below 96 P^2, and their sum, which is
# ``1 - p0^2 - p1^2 - 2 |c01|^2``, between -96 P^2 and 1, so the entropy
# stays below 192 P^2, here three quarters of float64's largest value.
# Every other step multiplies an entry by at most one other entry of the
# state, or sums entries and their products with unit vectors.
_ENTRY_BOUND = math.sqrt(np.finfo(np.float64).max) / 16.0

# The float dtypes the kernel evaluates; numpy's LAPACK takes no other, and
# integer stacks are accepted too.
_KERNEL_FLOATS = (np.float32, np.float64, np.complex64, np.complex128)

# The pattern route reads each element as the mean real part of its slots;
# a state whose slots spread further takes the generic route.  The mean is
# off the textbook evaluation by up to about 2.5 times the spread: with
# every slot of 148 closed-form and oracle states moved at random within
# the spread, 7.4e-15 at 3e-15, 9.9e-15 at 4e-15 and 1.2e-14 at 5e-15.  So
# a state at this bound stays within 1e-14 of it.  Closed-form states
# spread by exactly 0, brute-force oracle states by up to 3.2e-16 at n_max
# 80 and 6.2e-16 at n_max 240 with s up to 2.
_SLOT_SPREAD_TOL = 3e-15


class QubitLabel(Enum):
    """The three qubits, valued by their bit position in the flat basis index."""

    A1 = 0
    A2 = 1
    B = 2


# Selective two-qubit transposes: key -> (transposed qubit, partner qubit).
# "B-BA1" transposes B on exactly those elements where the B and A1 indices
# both change and A2 is a spectator, and so on.  Read-only: the pattern
# route computes B-BA1, A1-A1A2 and A1-A1B from a family ket's cross, same
# and cross minors (`_family_negativities`), and copies B-BA1 into B-BA2.
SELECTIVE_SPECS = MappingProxyType(
    {
        "B-BA1": (QubitLabel.B, QubitLabel.A1),
        "B-BA2": (QubitLabel.B, QubitLabel.A2),
        "A1-A1A2": (QubitLabel.A1, QubitLabel.A2),
        "A1-A1B": (QubitLabel.A1, QubitLabel.B),
    }
)

_ROW, _COL = np.indices((8, 8))
_XOR = _ROW ^ _COL
_DIFF_COUNT = ((_XOR >> 0) & 1) + ((_XOR >> 1) & 1) + ((_XOR >> 2) & 1)

# Index maps implementing "swap bit b between row and column", as flat
# positions ``8 * row + col`` into an 8x8 matrix.
_POSITION = 8 * _ROW + _COL
_SWAPPED = {}
for _b in range(3):
    _delta = (((_ROW >> _b) ^ (_COL >> _b)) & 1) << _b
    _SWAPPED[_b] = 8 * (_ROW ^ _delta) + (_COL ^ _delta)


def _transpose_positions(p: QubitLabel, mask) -> np.ndarray:
    """Where each entry comes from when qubit ``p``'s bits are swapped on the entries in ``mask``."""
    return np.where(mask, _SWAPPED[p.value], _POSITION)


def _minor_products(p: QubitLabel) -> tuple[np.ndarray, ...]:
    """Basis indices (a, b, c, d) of the six 2x2 minors ``phi_a phi_b - phi_c phi_d``.

    Split by qubit p's bit, a ket phi is the 2x4 matrix M of qubit p against
    the other two, its columns in ascending basis order.  The minor of the
    columns j < k is ``M[0, j] M[1, k] - M[0, k] M[1, j]``, so a and c are
    the indices with p's bit clear of columns j and k, b and d those with
    it set.
    """
    clear = np.array([i for i in range(8) if not (i >> p.value) & 1])
    first, second = np.triu_indices(4, k=1)
    bit = 1 << p.value
    return clear[first], clear[second] | bit, clear[second], clear[first] | bit


_MINOR_PRODUCTS = {p: _minor_products(p) for p in QubitLabel}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

W1_STATE = np.eye(8)[[0, 5, 6]].sum(axis=0) / math.sqrt(3.0)
W1_STATE.setflags(write=False)

# The six linear functionals the auxiliary measures read, as real weights on
# the 64 entries of a state, row-major (`_measures`): qubit B's populations p0
# and p1 and rho_B's coherences c01 = <0|rho_B|1> and c10, each the sum of
# the four entries whose A1 and A2 bits agree (B is bit 2), then the W1
# projector and the projector on {|000>, (|101> + |011>)/sqrt2}, each the
# outer product of its kets.
_FUNCTIONALS = np.zeros((6, 8, 8))
_FUNCTIONALS[0, range(4), range(4)] = 1.0
_FUNCTIONALS[1, range(4, 8), range(4, 8)] = 1.0
_FUNCTIONALS[2, range(4), range(4, 8)] = 1.0
_FUNCTIONALS[3, range(4, 8), range(4)] = 1.0
_FUNCTIONALS[4] = np.outer(W1_STATE, W1_STATE)
_FUNCTIONALS[5, 0, 0] = 1.0
_FUNCTIONALS[5][np.ix_([5, 6], [5, 6])] = _INV_SQRT2 * _INV_SQRT2
_FUNCTIONALS = _FUNCTIONALS.reshape(6, 64)


def _part_magnitudes(m: np.ndarray) -> np.ndarray:
    """The larger magnitude of the real and the imaginary part of each entry."""
    magnitudes = np.abs(m.real)
    return np.maximum(magnitudes, np.abs(m.imag)) if m.dtype.kind == "c" else magnitudes


def _require_states(stack: np.ndarray) -> None:
    """Raise a ValueError naming ``states`` unless a stack (N, 8, 8) is finite, bounded and Hermitian.

    A bool or non-numeric dtype is refused first, and a float dtype other
    than float32, float64, complex64 or complex128, such as float16 or
    longdouble, which numpy's LAPACK does not take, by name rather than by
    a TypeError from inside linalg; then the first non-finite entry, then
    the first entry with a part at `_ENTRY_BOUND` or above in magnitude,
    then the first matrix that is not Hermitian to 1e-9; a matrix is named
    by its index in the stack.  Integer stacks are accepted.  The largest
    part of each block of `_DIAGNOSTIC_BLOCK` matrices and the residual of
    each matrix are filled block by block, so no temporary is the size of
    the stack; the residual of a matrix with a part at the bound may
    overflow, without a warning, as that matrix is refused first.
    """
    if stack.dtype.kind not in "iufc":
        raise ValueError(f"states must hold real or complex numbers, got dtype {stack.dtype}")
    if stack.dtype.kind in "fc" and stack.dtype.type not in _KERNEL_FLOATS:
        floats = "float32, float64, complex64 or complex128"
        raise ValueError(f"states must hold integers or {floats} numbers, got dtype {stack.dtype}")
    starts = range(0, len(stack), _DIAGNOSTIC_BLOCK)
    largest, residual = np.empty(len(starts)), np.empty(len(stack))
    with np.errstate(invalid="ignore", over="ignore"):
        for index, start in enumerate(starts):
            block = stack[start : start + _DIAGNOSTIC_BLOCK]
            largest[index] = _part_magnitudes(block).max()
            difference = np.abs(block - block.conj().swapaxes(-1, -2))
            residual[start : start + len(block)] = difference.max(axis=(-2, -1))
    bound = f"have real and imaginary parts of magnitude below {_ENTRY_BOUND}"
    for refused, entries, requirement in (
        (~np.isfinite(largest), lambda m: ~np.isfinite(m), "be finite"),
        (largest >= _ENTRY_BOUND, lambda m: _part_magnitudes(m) >= _ENTRY_BOUND, bound),
    ):
        if refused.any():
            start = starts[np.argmax(refused)]
            block = stack[start : start + _DIAGNOSTIC_BLOCK]
            k, i, j = np.argwhere(entries(block))[0]
            entry = f"entry [{i},{j}] = {block[k, i, j]} in matrix {start + k} of the stack"
            raise ValueError(f"states must {requirement}, got {entry}")
    bad = np.flatnonzero(residual > _HERMITICITY_TOL)
    if bad.size:
        raise ValueError(
            f"states holds a matrix that is not Hermitian (matrix {bad[0]} of the stack): "
            f"residual {residual[bad[0]]:.3g}"
        )


def _symmetrised_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs, ascending, of each matrix of a stack (..., n, n), already checked Hermitian.

    The check passes noise up to 1e-9, so the matrix is symmetrised first.
    """
    return np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)


def _pattern_route(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which states of an (N, 8, 8) stack take the pattern route, and their eight elements.

    A state takes it when every entry outside `PATTERN_MASK` is exactly zero
    and the slots of no element spread (`_elements_of_states`) by more than
    `_SLOT_SPREAD_TOL`.  The elements r11, r22, r33, r44, r55, r66, r15,
    r26 are meaningful where it does.
    """
    elements, spread = _elements_of_states(m)
    return ~m[:, ~PATTERN_MASK].any(axis=-1) & (spread <= _SLOT_SPREAD_TOL), elements


def _two_level_pairs(d_first: np.ndarray, d_second: np.ndarray, off: np.ndarray):
    """Eigenpairs of [[d_first, off], [off, d_second]] per row, in no fixed order or sign.

    Returns ``(lam, x, y)``, the eigenvector being ``(x, y)``, each with the
    two eigenpairs stacked on axis -2 (..., 2, N), and the rows it rotated.
    A row rotates when its angle counts, ``tan 2phi = 2|off| / |d_first -
    d_second|`` above the eigenvalue cutoff, and its half gap
    ``hypot(d_first - d_second, 2 off) / 2`` exceeds the cutoff times its
    mean, so that rounding of the mean cannot turn the eigenvectors.  A
    rotated row has ``mean - half_gap`` first; any other row keeps the
    basis vectors where they are, ``(d_first, 1, 0)`` then ``(d_second, 0,
    1)``: a ket it leaves unrotated has a negativity of ``sin 2phi`` at
    most, inside the cutoff, or lies in a pair that is degenerate to within
    the cutoff of its mean, which the basis kets decompose as well.
    """
    gap, twice = np.abs(d_first - d_second), 2.0 * np.abs(off)
    half_gap, mean = 0.5 * np.hypot(gap, twice), 0.5 * (d_first + d_second)
    cutoff = NEGATIVE_EIGENVALUE_CUTOFF
    rotated = (twice > cutoff * gap) & (half_gap > cutoff * np.abs(mean))
    lam = np.stack([mean - half_gap, mean + half_gap], axis=-2)
    d_first, d_second, off = (a[..., None, :] for a in (d_first, d_second, off))
    # every row is solved and the rows that keep their basis vectors are
    # put back after, so a row with nothing to rotate may divide 0 by 0
    with np.errstate(invalid="ignore"):
        to_first, to_second = lam - d_first, lam - d_second
        # the better-conditioned of the two eigenvector formulas
        norm_a, norm_b = np.hypot(off, to_first), np.hypot(to_second, off)
        use_a = norm_a >= norm_b
        norm = np.maximum(norm_a, norm_b)
        x = np.where(use_a, off, to_second) / norm
        y = np.where(use_a, to_first, off) / norm
    kept = (np.concatenate([d_first, d_second], axis=-2), [[1.0], [0.0]], [[0.0], [1.0]])
    on = rotated[..., None, :]
    return tuple(np.where(on, value, basis) for value, basis in zip((lam, x, y), kept)), rotated


def _generic_decomposition(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state decomposition of generic-route states (N, 8, 8): eigenpairs, weights clipped."""
    vals, vecs = _symmetrised_eigh(m)
    return np.clip(vals, 0.0, None), vecs


def _squared_minors(kets: np.ndarray, p: QubitLabel) -> np.ndarray:
    """Squared moduli of the 2x2 minors of each ket in the columns of ``kets``, split by qubit ``p``.

    A ket split by qubit p's bit is a 2x4 matrix M with reduced state
    ``rho_p = M M^H``; its partial transpose has one negative eigenvalue,
    ``-sqrt(det rho_p)``.  By Cauchy-Binet ``det rho_p`` is the sum of the
    squared moduli of the six 2x2 minors of M (`_minor_products`), returned
    along axis -2; the sum avoids the cancellation of
    ``rho_00 rho_11 - |rho_01|^2``.
    """
    a, b, c, d = _MINOR_PRODUCTS[p]
    minors = kets[..., a, :] * kets[..., b, :] - kets[..., c, :] * kets[..., d, :]
    return np.abs(minors) ** 2


def _measures(entries: np.ndarray, functionals: np.ndarray) -> np.ndarray:
    """B's linear entropy, the W1 fidelity and the Bell weight (3, N) of states given as entries (N, k).

    ``functionals`` (6, k) are `_FUNCTIONALS` on the flat entries of dense
    states (k = 64) or `_ELEMENT_FUNCTIONALS` on elements (k = 8).  Each
    state's six values are summed along its contiguous row, not taken as a
    BLAS product, so they do not depend on the stack around it.  The linear
    entropy ``2 (1 - tr rho_B^2)``, 0 for a pure qubit and 1 for a maximally
    mixed one, is written as ``2 ((1 - t)(1 + t) + 2 (p0 p1 - c01 c10))``
    with ``t = p0 + p1``, which keeps its relative accuracy where qubit B is
    nearly pure and ``1 - p0^2 - p1^2`` would cancel.
    """
    p0, p1, c01, c10, w1_fidelity, bell_projection = (entries[:, None, :] * functionals).sum(axis=-1).T
    t = p0 + p1
    return np.real([2.0 * ((1.0 - t) * (1.0 + t) + 2.0 * (p0 * p1 - c01 * c10)), w1_fidelity, bell_projection])


# The table on the elements (6, 8): `_FUNCTIONALS` on the state of each unit
# element, as `states_from_elements` writes it.  On the pattern rho_B is
# diagonal, so its coherence rows are exactly 0.
_ELEMENT_FUNCTIONALS = (states_from_elements(np.eye(8)).reshape(8, 1, 64) * _FUNCTIONALS).sum(axis=-1).T


class NegativityReport(NamedTuple):
    """Every diagnostic evaluated at one (tau, s, theta) point."""

    n_g: dict[QubitLabel, float]
    e_3: dict[QubitLabel, float]
    e_2: dict[QubitLabel, float]
    e_0: dict[QubitLabel, float]
    n_psdg: dict[QubitLabel, float]
    e_psd: dict[str, float]
    linear_entropy_b: float
    w1_fidelity: float
    bell_projection: float


class NegativityBatch(NamedTuple):
    """The `NegativityReport` quantities of a stack of N states, as length-N arrays.

    ``n_g``, ``e_3``, ``e_2`` and ``e_0`` hold every qubit, in `QubitLabel`
    order, except in the batch of the private element entry, which holds
    qubit B alone; every other field is complete.  ``pattern_ok`` marks the
    states that took the pattern route; the others took the generic route
    (module docstring).  A pattern-route state is its own A1<->A2 exchange,
    so its A2 values and its B-BA2 share are copies of A1's and B-BA1's.
    """

    n_g: dict[QubitLabel, np.ndarray]
    e_3: dict[QubitLabel, np.ndarray]
    e_2: dict[QubitLabel, np.ndarray]
    e_0: dict[QubitLabel, np.ndarray]
    n_psdg: dict[QubitLabel, np.ndarray]
    e_psd: dict[str, np.ndarray]
    linear_entropy_b: np.ndarray
    w1_fidelity: np.ndarray
    bell_projection: np.ndarray
    pattern_ok: np.ndarray

    def report(self, index: int) -> NegativityReport:
        """The report of state ``index``, as Python floats."""

        def pick(value):
            if isinstance(value, dict):
                return {key: float(array[index]) for key, array in value.items()}
            return float(value[index])

        return NegativityReport._make(
            pick(getattr(self, name)) for name in NegativityReport._fields
        )


def _projected_trace(target: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """``Re tr(target @ projector)`` per matrix: the summed ``Re <v| target |v>``.

    The products are laid out in C order and summed along one contiguous
    axis: numpy may reorder a reduction over strided axes, and the order
    would then depend on the stack around each matrix.
    """
    product = np.multiply(target, projector.swapaxes(-1, -2), order="C")
    return np.real(product.reshape(*product.shape[:-2], -1).sum(axis=-1))


# ----------------------------------------------------------- transpose maps
#
# Every transpose the kernel solves by eigensolver is gathered whole, as one
# 8x8 matrix, by these flat maps.

# Per qubit: the global transpose, then the maps its negative eigenvectors
# project, k = 3, k = 2 and the state itself (E_3, E_2, E_0), as flat
# positions (qubits, maps, 8, 8).
_STATE_MAPS = np.array(
    [
        [_transpose_positions(p, True)]
        + [_transpose_positions(p, _DIFF_COUNT == k) for k in (3, 2)]
        + [_POSITION]
        for p in QubitLabel
    ]
)

# Per qubit that leads a selective spec, B then A1: its two-way transpose,
# then the selective transposes it projects, those of the entries whose
# indices differ in the two qubits of the spec alone, for the kets of
# generic-route states.  Flattened, the specs run in `SELECTIVE_SPECS` order.
_SHARE_MAPS = np.array(
    [
        [_transpose_positions(p, _DIFF_COUNT == 2)]
        + [_transpose_positions(p, _XOR == (1 << p.value | 1 << q.value))
           for lead, q in SELECTIVE_SPECS.values() if lead is p]
        for p in (QubitLabel.B, QubitLabel.A1)
    ]
)

# --------------------------------------------- the pattern route's 2x2 blocks
#
# The A1<->A2 exchange swaps |100> with |010> and |101> with |011>.  Pattern
# states are invariant under it, and qubit B's transposes commute with it,
# so in a frame of symmetric pair vectors both the state and B's global
# transpose split into 2x2 blocks of the elements, and the antisymmetric
# pair vectors are exact null directions.
#
# The state is block diagonal in {|000>, (|101> + |011>)/sqrt2},
# {(|100> + |010>)/sqrt2, |111>}, |110> and |001>.  Its decomposition is the
# two eigenpairs (lam, x, y) of each 2x2 block, a family of two kets, and the
# two basis kets, weighted r33 and r44.
#
# B's global transpose splits into the 1-index blocks {|000>} and {|111>},
# which hold r11 and r66, and two 3-index blocks, each of one swapped pair and
# a fixed |k>: in the frame of the symmetric pair vector and |k>, the paper's
# 2x2 block, [[r22, r15], [r15, r44]] on {(|100> + |010>)/sqrt2, |001>} and
# [[r55, r26], [r26, r33]] on {(|101> + |011>)/sqrt2, |110>}.  Its kept
# eigenvectors (x, y) lie in that frame, so the K-way split reads each map
# that they project as its 2x2 block in the frame too, a quadratic form in
# the elements: the maps hold the same diagonals, and the k = 2 map the
# transposed coupling, while the k = 3 map and the state hold none.  A1's
# blocks, such as {|000>, |110>, |011>}, are not exchange-invariant, so its
# transpose is solved whole (`_global_split`), and A2's values are its
# mirror.

# Per 2x2 block, the elements on its first diagonal, second diagonal and
# coupling (elements r11, r22, r33, r44, r55, r66, r15, r26 are 0..7): the
# state's two families [[r11, r15], [r15, r55]] and [[r22, r26], [r26, r66]],
# then B's transpose blocks [[r22, r15], [r15, r44]] and [[r55, r26], [r26,
# r33]].  `_pattern_values` solves all four in one `_two_level_pairs` call.
_BLOCKS = np.array([(0, 4, 6), (1, 5, 7), (1, 3, 6), (4, 2, 7)])
# B's 1-index blocks: r11 and r66
_B_SINGLES = [0, 5]
# whether the k = 3 map, the k = 2 map and the state hold B's coupling
_B_COUPLED = np.array([0.0, 1.0, 0.0])


def _mirrored(rows: np.ndarray) -> np.ndarray:
    """Rows (A1, B) or (B-BA1, A1-A1A2, A1-A1B) with the first's image, A2 or B-BA2, next to it."""
    return rows[[0, *range(len(rows))]]


def _ket_negativity(root: np.ndarray) -> np.ndarray:
    """``N_G^p = 2 r`` of each ket from the root ``r`` of its summed squared minors, gated at the cutoff."""
    return np.where(root > NEGATIVE_EIGENVALUE_CUTOFF, 2.0 * root, 0.0)


def _family_negativities(lam: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N_PSDG (qubits, N) and its shares (specs, N) from the families' eigenpairs, each (families, 2, N).

    A ket (x, y) of a family (`_BLOCKS`) has one lone component and two
    equal pair components h: x|000> + y(|101> + |011>)/sqrt2 has the lone x
    and h = y/sqrt2, x(|100> + |010>)/sqrt2 + y|111> the lone y and h =
    x/sqrt2.  So each of its nonzero 2x2 minors is one product, ``lone h``
    or ``h h``, whose squares are ``cross`` and ``same``.  Split by A1 a ket
    has one minor of each, split by B two crosses, so ``N_G^p = 2 r`` with
    ``r`` the root of ``cross + same`` or ``cross + cross``.  The share term
    of spec (p, q) is ``-|m_q|^2 / r``, m_q the minor whose columns differ
    in qubit q alone: ``cross`` for B-BA1 and A1-A1B, ``same`` for A1-A1A2
    (0 unless ``r`` exceeds the cutoff).  No dense ket and no eigensolve.
    The basis kets |110> and |001> have no minor, and so no negativity and
    no share.  The weighted values are summed over each family's two kets,
    then over the families: the pairwise order in which numpy sums the
    generic route's eight eigenpairs, had these four kets come first.  A2's
    and B-BA2's values are A1's and B-BA1's (`_mirrored`).
    """
    weights = np.maximum(lam, 0.0)
    lone = np.stack([x[0], y[1]])
    h = np.stack([y[0], x[1]]) * _INV_SQRT2
    cross, same = (lone * h) ** 2, (h * h) ** 2
    # each sum has two terms, so it has the same bits in any order
    root_a1, root_b = np.sqrt(cross + same), np.sqrt(cross + cross)
    share_roots = np.stack([root_b, root_a1, root_a1])
    live = share_roots > NEGATIVE_EIGENVALUE_CUTOFF
    scale = np.divide(-1.0, share_roots, out=np.zeros_like(share_roots), where=live)
    n_psdg = (weights * _ket_negativity(np.stack([root_a1, root_b]))).sum(axis=2).sum(axis=1)
    shares = -2.0 * (weights * (np.stack([cross, same, cross]) * scale)).sum(axis=2).sum(axis=1)
    return _mirrored(n_psdg), _mirrored(shares)


def _b_global_split(elements: np.ndarray, blocks: np.ndarray, pairs: tuple, rotated: np.ndarray) -> tuple:
    """N_G of qubit B (N,) and its split E_3, E_2, E_0 (3, N), from pattern-route elements (N, 8).

    ``blocks`` (3, blocks, N) are B's 2x2 blocks as their first diagonal,
    second diagonal and coupling, ``pairs`` their eigenpairs (lam, x, y),
    each (blocks, 2, N), and ``rotated`` the rows `_two_level_pairs`
    rotated.  The 1-index blocks count their entry when it is below minus
    the cutoff, in N_G and in every map.  The eigenvalues of the 2x2 blocks
    below minus the cutoff count in N_G, and in each map's split as its
    quadratic form ``x^2 a + y^2 b + 2 x y c`` on the kept eigenvector,
    [[a, c], [c, b]] the map's block in the frame (`_B_COUPLED`).  The null
    direction is never kept.  On a rotated block whose trace is not
    negative, as on every positive state, the lower eigenvalue is the
    determinant over the upper, written into ``lam``: ``mean - half_gap``
    cancels where it is small.  Against 50-digit decimals, on the negative
    blocks of the sweeps' grids at four angles, its worst relative error is
    3.5e-12 and the quotient's 1.4e-13.  The arrays hold the states last,
    (..., blocks, eigenpairs, N), so every step runs on contiguous rows.
    """
    single = elements.T[_B_SINGLES]
    single = np.where(single < -NEGATIVE_EIGENVALUE_CUTOFF, single, 0.0).sum(axis=0)
    (a, b, c), (lam, x, y) = blocks, pairs
    np.divide(a * b - c * c, lam[:, 1], out=lam[:, 0], where=rotated & (a + b >= 0.0))
    keep = lam < -NEGATIVE_EIGENVALUE_CUTOFF
    c = (c * _B_COUPLED[:, None, None])[:, :, None]
    forms = np.where(keep, x * x * a[:, None] + y * y * b[:, None] + 2.0 * x * y * c, 0.0)
    # each state's kept values summed in one order, blocks then eigenvalues
    lam = np.where(keep, lam, 0.0).reshape(-1, len(elements)).sum(axis=0)
    forms = forms.reshape(len(forms), -1, len(elements)).sum(axis=1)
    return -2.0 * (single + lam), -2.0 * (single + forms)


def _projected_maps(gathered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve map 0 of gathered maps (..., maps, 8, 8) and project the other maps.

    Map 0 is checked Hermitian.  Its eigenvalues below minus the eigenvalue
    cutoff are kept; returns them summed, and ``Re tr(map @ P)`` per
    projected map, with P the projector on the kept eigenvectors, the sum
    of their outer products.
    """
    vals, vecs = _symmetrised_eigh(gathered[..., 0, :, :])
    keep = vals < -NEGATIVE_EIGENVALUE_CUTOFF
    vecs = vecs * keep[..., None, :]
    traces = _projected_trace(gathered[..., 1:, :, :], (vecs @ vecs.conj().swapaxes(-1, -2))[..., None, :, :])
    return np.where(keep, vals, 0.0).sum(axis=-1), traces


def _global_split(m: np.ndarray, maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N_G (qubits, N) and its split E_3, E_2, E_0 (qubits, 3, N) of an (N, 8, 8) stack.

    ``maps`` are the rows of `_STATE_MAPS` of the transposed qubits; each
    transpose is solved whole.
    """
    sums, traces = _projected_maps(m.reshape(-1, 64)[:, maps])
    return -2.0 * sums.T, -2.0 * np.moveaxis(traces, 0, -1)


def _share_terms(kets: np.ndarray) -> np.ndarray:
    """Per ket (rows of ``kets``) and spec (columns, in `SELECTIVE_SPECS` order): ``Re tr(S P)``.

    S is the spec's selective transpose of the ket's projector and P the
    projector on the negative eigenvectors of its two-way transpose of the
    spec's qubit, both gathered whole by `_SHARE_MAPS`.
    """
    pure = (kets[:, :, None] * kets[:, None, :].conj()).reshape(len(kets), 64)
    return _projected_maps(pure[:, _SHARE_MAPS])[1].reshape(len(kets), len(SELECTIVE_SPECS))


def _pattern_values(elements: np.ndarray) -> tuple:
    """Every diagnostic but A1's and A2's global split, of pattern-route elements (n, 8), states last.

    The four 2x2 blocks of `_BLOCKS` are solved in one `_two_level_pairs`
    call: the families' eigenpairs give N_PSDG and the shares, B's blocks
    its global split, with the 1-index blocks; the auxiliary measures come
    from their coefficients.  Returns B's n_g (1, n) and its split (1, 3,
    n), N_PSDG (qubits, n), the shares (specs, n) and the measures (3, n).
    """
    blocks = elements.T[_BLOCKS.T]
    (lam, x, y), rotated = _two_level_pairs(*blocks)
    n_g, split = _b_global_split(elements, blocks[:, 2:], (lam[2:], x[2:], y[2:]), rotated[2:])
    return n_g[None], split[None], *_family_negativities(lam[:2], x[:2], y[:2]), _measures(elements, _ELEMENT_FUNCTIONALS)


def _generic_values(m: np.ndarray) -> tuple:
    """Every diagnostic of generic-route states (n, 8, 8), in the layout of `_batch_arrays`.

    The pure-state decomposition is the states' eigenpairs
    (`_generic_decomposition`), eight kets per state.  Each ket of qubit p's
    split has ``N_G^p = 2 r``, ``r`` the root of its summed squared minors
    (`_squared_minors`), gated at the eigenvalue cutoff like every other
    negativity; N_PSDG is the weighted sum.  A spec's share term of a ket
    is ``Re tr(S P)``, S the spec's selective transpose of the ket's
    projector and P the projector on the negative eigenvectors of its
    two-way transpose of the spec's first qubit; the -2 weight makes the
    shares of a qubit add up to its N_PSDG.  Every ket of every state is
    solved, in one `_share_terms` call: a ket of zero weight adds 0 times
    a finite term, and a basis ket such as |110> has a diagonal two-way
    transpose, so its terms are exactly 0.
    """
    probs, vectors = _generic_decomposition(m)
    terms = _share_terms(vectors.swapaxes(-1, -2).reshape(-1, 8)).T.reshape(len(SELECTIVE_SPECS), *probs.shape)
    roots = np.array([np.sqrt(_squared_minors(vectors, p).sum(axis=-2)) for p in QubitLabel])
    n_psdg = (probs * _ket_negativity(roots)).sum(axis=-1)
    # laid out in C order, so each state's eight terms are summed along one
    # contiguous axis, in an order that does not depend on the stack
    shares = -2.0 * np.multiply(probs, terms, order="C").sum(axis=-1)
    return *_global_split(m, _STATE_MAPS), n_psdg, shares, _measures(m.reshape(len(m), 64), _FUNCTIONALS)


def _batch_arrays(count: int, qubits: int) -> list[np.ndarray]:
    """The output arrays of ``count`` states, states last: n_g, its split, N_PSDG, the shares, the measures.

    ``qubits`` is the number of qubits whose global split is held.
    """
    return [
        np.empty((qubits, count)),
        np.empty((qubits, 3, count)),
        np.empty((len(QubitLabel), count)),
        np.empty((len(SELECTIVE_SPECS), count)),
        np.empty((3, count)),
    ]


def _as_batch(arrays: list[np.ndarray], qubits: list[QubitLabel], pattern_ok: np.ndarray) -> NegativityBatch:
    """The `NegativityBatch` of filled `_batch_arrays`, each field a row of them."""
    n_g, split, n_psdg, shares, (linear_entropy_b, w1_fidelity, bell_projection) = arrays
    return NegativityBatch(
        n_g=dict(zip(qubits, n_g)),
        e_3=dict(zip(qubits, split[:, 0])),
        e_2=dict(zip(qubits, split[:, 1])),
        e_0=dict(zip(qubits, split[:, 2])),
        n_psdg=dict(zip(QubitLabel, n_psdg)),
        e_psd=dict(zip(SELECTIVE_SPECS, shares)),
        linear_entropy_b=linear_entropy_b,
        w1_fidelity=w1_fidelity,
        bell_projection=bell_projection,
        pattern_ok=pattern_ok,
    )


def negativity_batch(states) -> NegativityBatch:
    """Evaluate the full diagnostic suite for a stack of states at once.

    ``states`` is an (N, 8, 8) array or a sequence of 8x8 states.  The stack
    is processed in blocks of `_DIAGNOSTIC_BLOCK`, so the temporaries do not
    grow with N.  Each state's route is decided once in its block, and each
    route's values are written into the arrays this call returns, so every
    state's values are independent of its block-mates.  Raises a ValueError
    naming ``states`` for a stack of another shape, states of different
    shapes, a bool, non-numeric, float16 or longdouble stack, a non-finite
    entry, an entry with a part at `_ENTRY_BOUND` or above in magnitude, or
    a state that is not Hermitian to 1e-9, and for one
    `ThreeQubitDensityMatrix` record, which is a tuple of its fields, not a
    stack.
    """
    if isinstance(states, ThreeQubitDensityMatrix):
        raise ValueError(
            "states must be a stack of states, not one ThreeQubitDensityMatrix: "
            "pass [rho], or call negativity_report(rho)"
        )
    expected = "states must be an (N, 8, 8) stack of 8x8 states"
    if isinstance(states, np.ndarray) or not isinstance(states, Iterable):
        stack = np.asarray(states)
    else:
        matrices = [np.asarray(getattr(rho, "matrix", rho)) for rho in states]
        shapes = sorted({m.shape for m in matrices})
        if len(shapes) > 1:
            raise ValueError(f"{expected}, got states of shapes {shapes}")
        stack = np.array(matrices)
    if stack.ndim != 3 or stack.shape[1:] != (8, 8):
        raise ValueError(f"{expected}, got shape {stack.shape}")
    _require_states(stack)
    count = len(stack)
    arrays = _batch_arrays(count, len(QubitLabel))
    pattern_ok = np.empty(count, dtype=bool)
    for start in range(0, count, _DIAGNOSTIC_BLOCK):
        block = stack[start : start + _DIAGNOSTIC_BLOCK]
        at = slice(start, start + len(block))
        pattern_ok[at], elements = _pattern_route(block)
        for on_pattern in (True, False):
            rows = np.flatnonzero(pattern_ok[at] == on_pattern)
            if not rows.size:
                continue
            if on_pattern:
                # A1's global transpose is solved whole, and A2 is its mirror
                n_g, split, *values = _pattern_values(elements[rows])
                a1 = _global_split(block[rows], _STATE_MAPS[:1])
                values = [_mirrored(np.concatenate(pair)) for pair in zip(a1, (n_g, split))] + values
            else:
                values = _generic_values(block[rows])
            for array, route_values in zip(arrays, values):
                array[..., start + rows] = route_values
    return _as_batch(arrays, list(QubitLabel), pattern_ok)


def _element_batch(elements) -> NegativityBatch:
    """Qubit B's `negativity_batch` values of the states of an (N, 8) element stack.

    The states are those `states_from_elements` builds from the elements:
    Hermitian and on the pattern route by construction, so neither is
    checked and ``pattern_ok`` is all True, and no (N, 8, 8) stack is
    built.  Each block of `_DIAGNOSTIC_BLOCK` elements is evaluated by the
    pattern route's formulas (`_pattern_values`): ``n_g``, ``e_3``, ``e_2``
    and ``e_0`` hold B's global transpose alone, the one the command-line
    sweeps report, and every other field is complete.  The values agree
    with the dense call to rounding: that call reads r15 and r26 back from
    their slots, which moves them by up to an ulp.  Raises a ValueError
    naming ``elements`` for a bool, complex or non-finite element, or a
    shape other than (N, 8).
    """
    elements = _require_elements(elements)
    if elements.ndim != 2:
        raise ValueError(f"elements must be an (N, 8) stack, got shape {elements.shape}")
    arrays = _batch_arrays(len(elements), 1)
    for start in range(0, len(elements), _DIAGNOSTIC_BLOCK):
        at = slice(start, start + _DIAGNOSTIC_BLOCK)
        for array, values in zip(arrays, _pattern_values(elements[at])):
            array[..., at] = values
    return _as_batch(arrays, [QubitLabel.B], np.ones(len(elements), dtype=bool))


def negativity_report(rho) -> NegativityReport:
    """Evaluate the full diagnostic suite at one state: `negativity_batch` on a grid of one.

    ``rho`` is an 8x8 state or has one as its ``matrix``; any other shape
    raises a ValueError that names it, and otherwise it raises as
    `negativity_batch` does.
    """
    matrix = np.asarray(getattr(rho, "matrix", rho))
    if matrix.shape != (8, 8):
        raise ValueError(f"rho must be 8x8, got shape {matrix.shape}")
    return negativity_batch([matrix]).report(0)
