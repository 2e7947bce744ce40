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
Each quantity has one implementation: the paper's gated two-block closed
form of qubit B's global negativity is not a second path but lies inside
the kernel's two 3x3 blocks of B's transpose, and is a test reference only.

The kernel checks every state Hermitian to 1e-9 once (a bad state is named
by its index in the caller's stack) and evaluates the stack in fixed blocks
of `_DIAGNOSTIC_BLOCK` rows:

* the pattern of every row is checked once: no entry outside
  `PATTERN_MASK`, no two slots of one element apart and no slot with an
  imaginary part, by more than 1e-8.  `tavis_cummings` reads the elements
  back from the slot table that `states_from_elements` writes with;
* every partial transpose the kernel solves is gathered into index blocks,
  with each map it projects gathered on the same index pairs.  A state
  whose entries outside `PATTERN_MASK` are exactly zero and whose pattern
  check passes (every closed-form and brute-force oracle state) is block
  diagonal, and so is each such transpose, on blocks of at most 3 indices
  derived from `PATTERN_MASK` at import (Tavis & Cummings, Phys. Rev. 170,
  379 (1968): each field component conserves photon number plus atomic
  excitation).  Every other state, a state with rounding noise outside the
  pattern among them, is one block of all 8 indices, from tables built the
  same way on the whole support;
* the pure-state decomposition is computed in closed form for rows that
  pass the pattern check and by a stacked eigendecomposition for the rest;
* the global negativities come from the negative eigenvalues of the global
  transpose of each qubit named in ``global_qubits`` (default all three),
  and their K-way split E_3/E_2/E_0 from ``Re tr(T P)``, T the K-way
  transpose (or the state) and P the projector on the negative
  eigenvectors, summed over the blocks; a qubit left out is not solved;
* the decomposition negativity uses the pure-state identity
  ``N_G^p(phi) = 2 sqrt(det rho_p)``, with ``rho_p`` the reduced state of
  qubit p, and ``det rho_p`` is the sum of the squared 2x2 minors of the
  ket split by qubit p, so it needs no eigensolver;
* the pairwise shares come from the two-way transposes of the
  decomposition states of positive weight only, and of those only the ones
  that are not basis states.  For a block-structured state each such ket
  lies in one of the state's two 3-index blocks, and the same squared
  minors split its negativity: the share term of spec (p, q) is
  ``-|m_q|^2 / r``, m_q the minors whose columns differ in qubit q alone
  and ``r = N_G^p / 2``.  A check at import derives the blocks from
  `PATTERN_MASK` and refuses any on which that split would not be exact,
  so these kets need no eigensolver.  The kets of any other state are
  solved as one 8-index block per qubit.

All blocks of one size go to one symmetrised solver in one stacked call, and
a 1x1 block needs no solve, so a sweep makes no 8x8 eigensolve; the
command-line sweeps ask for qubit B's global transpose only, the one their
CSV reports, so their only solves are its two 3x3 blocks per state.
Every step keeps the dtype of its input.  The closed-form states are real
symmetric, so a sweep runs real arithmetic and real symmetric LAPACK solves;
a complex stack (a user's state, the generic fallback) takes the same lines
with complex LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from .tavis_cummings import PATTERN_MASK, _elements_of_states

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
# stacks of gathered blocks and decomposition kets.  Index blocks made those
# about 4x smaller than the 8x8 transposes, so blocks grew from 32 to 128 at
# about the peak resident set of the 8x8 kernel at 32; the closed-form
# pairwise shares dropped the kets' gathered blocks, which makes room for
# 200.  VmHWM of one `cli.main` call (MB, median of 5, one BLAS thread,
# byte-compiled package), the gathered ket blocks at 128 -> the closed-form
# shares at 128, 200 and 256:
#   tau-sweep        32.32 -> 32.18, 32.19, 32.41
#   s-sweep          31.63 -> 31.48, 31.42, 31.42
#   tau-sweep-dense  32.24 -> 32.20, 32.20, 32.29
# At 200 a sweep takes about 6% less CPU than at 128 for no higher peak.
_DIAGNOSTIC_BLOCK = 200

_HERMITICITY_TOL = 1e-9
_PATTERN_TOL = 1e-8


class QubitLabel(Enum):
    """The three qubits, valued by their bit position in the flat basis index."""

    A1 = 0
    A2 = 1
    B = 2


# Selective two-qubit transposes: key -> (transposed qubit, partner qubit).
# "B-BA1" transposes B on exactly those elements where the B and A1 indices
# both change and A2 is a spectator, and so on.
SELECTIVE_SPECS: dict[str, tuple[QubitLabel, QubitLabel]] = {
    "B-BA1": (QubitLabel.B, QubitLabel.A1),
    "B-BA2": (QubitLabel.B, QubitLabel.A2),
    "A1-A1A2": (QubitLabel.A1, QubitLabel.A2),
    "A1-A1B": (QubitLabel.A1, QubitLabel.B),
}

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


def _kway_mask(k: int) -> np.ndarray:
    return _DIFF_COUNT == k


def _selective_mask(spec: str) -> np.ndarray:
    p, q = SELECTIVE_SPECS[spec]
    return _XOR == ((1 << p.value) | (1 << q.value))




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

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2

_BASIS = np.eye(8)
_SYM_EXCITED = (_BASIS[5] + _BASIS[6]) / _SQRT2  # (|101> + |011>) / sqrt2

W1_STATE = (_BASIS[0] + _BASIS[5] + _BASIS[6]) / math.sqrt(3.0)
W1_STATE.setflags(write=False)


def _require_hermitian(m: np.ndarray) -> None:
    """Raise unless every matrix of ``m`` (n x n or a stack) is Hermitian to 1e-9 (NaN and inf fail).

    The message names the first bad matrix by its flat index in the stack.
    An infinite entry leaves a NaN residual (``inf - inf``) without a warning.
    """
    with np.errstate(invalid="ignore"):
        residual = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(~(residual <= _HERMITICITY_TOL))
    if bad.size:
        where = f" (matrix {bad[0]} of the stack)" if m.ndim > 2 else ""
        raise ValueError(
            f"input matrix is not Hermitian{where}: residual {residual.flat[bad[0]]:.3g}"
        )


def _symmetrised_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs, ascending, of each matrix of a stack (..., n, n), already checked Hermitian.

    The check passes noise up to 1e-9, so the matrix is symmetrised first.
    """
    return np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)


def _negative_pairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues below minus the eigenvalue cutoff, with eigenvectors, of each matrix of a stack.

    The stack is checked Hermitian.  Returns all n eigenvalues (ascending)
    and eigenvectors (as columns) of each matrix, those at or above minus
    the cutoff set to zero, so every matrix gives arrays of the same shape.
    A 1x1 matrix needs no solve.
    """
    if m.shape[-1] == 1:
        vals, vecs = m.real[..., 0], np.ones_like(m)
    else:
        vals, vecs = _symmetrised_eigh(m)
    keep = vals < -NEGATIVE_EIGENVALUE_CUTOFF
    return np.where(keep, vals, 0.0), vecs * keep[..., None, :]


def _pattern_check(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each state of an (N, 8, 8) stack passes the pattern check, and its eight elements.

    A state passes when no entry outside `PATTERN_MASK` and no spread of its
    slots (`_elements_of_states`) exceeds `_PATTERN_TOL`.  The elements
    r11, r22, r33, r44, r55, r66, r15, r26 are meaningful where it passes.
    """
    elements, spread = _elements_of_states(m)
    outside = ((np.abs(m) > _PATTERN_TOL) & ~PATTERN_MASK).any(axis=(-2, -1))
    return ~outside & (spread <= _PATTERN_TOL), elements


def _two_level_pairs(d_first: np.ndarray, d_second: np.ndarray, off: np.ndarray):
    """Eigenpairs of [[d_first, off], [off, d_second]] per row, in no fixed order or sign.

    Returns ``[(lam, x, y), (lam, x, y)]`` of arrays, the eigenvector being
    ``(x, y)``.  A row whose off-diagonal is below the eigenvalue cutoff
    keeps the basis vectors where they are, ``(d_first, 1, 0)`` then
    ``(d_second, 0, 1)``.
    """
    ones, zeros = np.ones_like(d_first), np.zeros_like(d_first)
    pairs = [[d_first.copy(), ones, zeros], [d_second.copy(), zeros.copy(), ones.copy()]]
    rotated = np.abs(off) >= NEGATIVE_EIGENVALUE_CUTOFF
    d1, d2, c = d_first[rotated], d_second[rotated], off[rotated]
    half_gap = 0.5 * np.hypot(d1 - d2, 2.0 * c)
    mean = 0.5 * (d1 + d2)
    for pair, lam in zip(pairs, (mean - half_gap, mean + half_gap)):
        # pick the better-conditioned of the two eigenvector formulas
        use_a = np.hypot(c, lam - d1) >= np.hypot(lam - d2, c)
        x = np.where(use_a, c, lam - d2)
        y = np.where(use_a, lam - d1, c)
        norm = np.hypot(x, y)
        for out, value in zip(pair, (lam, x / norm, y / norm)):
            out[rotated] = value
    return pairs


def _generic_decomposition(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fallback for an (N, 8, 8) stack checked Hermitian: eigenpairs, negative weights clipped."""
    vals, vecs = _symmetrised_eigh(m)
    return np.clip(vals, 0.0, None), vecs


def _decompose_stack(
    m: np.ndarray, pattern_ok: np.ndarray, elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state decomposition of each state of an (N, 8, 8) stack.

    A state that passes the pattern check is block diagonal in the basis
    {|000>, sym|1>}, {sym|0>, |111>}, |110>, |001> plus the two antisymmetric
    null directions, so six analytic eigenpairs (plus two zero-weight
    completions) suffice.  Returns the probabilities (N, 8) and the unit
    vectors as columns (N, 8, 8).  States that fail the pattern check go
    through `_generic_decomposition`, all of them in one call.  Every output
    reads the kets only through their projectors, so no phase or order is
    fixed.
    """
    probs = np.zeros(m.shape[:2])
    vectors = np.zeros(m.shape, dtype=np.result_type(m, float))
    r11, r22, r33, r44, r55, r66, r15, r26 = elements[pattern_ok].T
    lams = []
    kets = np.zeros((len(r11), 8, 8))
    for col, (lam, x, y) in enumerate(_two_level_pairs(r11, r55, r15)):
        lams.append(lam)
        kets[:, 0, col] = x
        kets[:, 5, col] = kets[:, 6, col] = y * _INV_SQRT2
    for col, (lam, x, y) in enumerate(_two_level_pairs(r22, r66, r26), start=2):
        lams.append(lam)
        kets[:, 1, col] = kets[:, 2, col] = x * _INV_SQRT2
        kets[:, 7, col] = y
    kets[:, 3, 4] = kets[:, 4, 5] = 1.0
    kets[:, 1, 6] = kets[:, 5, 7] = _INV_SQRT2
    kets[:, 2, 6] = kets[:, 6, 7] = -_INV_SQRT2
    zero = np.zeros_like(r33)
    probs[pattern_ok] = np.maximum(np.stack([*lams, r33, r44, zero, zero], axis=-1), 0.0)
    vectors[pattern_ok] = kets
    if not pattern_ok.all():
        probs[~pattern_ok], vectors[~pattern_ok] = _generic_decomposition(m[~pattern_ok])
    return probs, vectors


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


def _linear_entropy_b(m: np.ndarray) -> np.ndarray:
    """Mixedness ``2 (1 - tr rho_B^2)`` of qubit B's reduced state, per state of a stack (N, 8, 8).

    0 for a pure qubit, 1 for a maximally mixed one.
    """
    # axes of the (2,2,2, 2,2,2) view: (B, A2, A1) x (B, A2, A1); A2 is traced out, then A1
    reduced = np.trace(m.reshape(*m.shape[:-2], 2, 2, 2, 2, 2, 2), axis1=-5, axis2=-2)
    reduced = np.trace(reduced, axis1=-3, axis2=-1)
    purity = np.real(np.trace(reduced @ reduced, axis1=-2, axis2=-1))
    return 2.0 * (1.0 - purity)


def _expectation(vector: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Real part of <v| m |v> for each state of a stack (..., 8, 8).

    Elementwise, so each state's value does not depend on the stack around it
    (a matrix-vector product over a stack may take another BLAS path).
    """
    return np.real((vector.conj()[:, None] * m * vector).sum(axis=(-2, -1)))


def _bell_projection(m: np.ndarray) -> np.ndarray:
    """Weight of the {|000>, (|101>+|011>)/sqrt2} sector of each state of a stack.

    This is the probability of the two decomposition states in which the c1
    pair, conditioned on finding B excited, is projected into the symmetric
    Bell state.
    """
    return np.real(m[..., 0, 0]) + _expectation(_SYM_EXCITED, m)


@dataclass(frozen=True)
class NegativityReport:
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

    ``n_g``, ``e_3``, ``e_2`` and ``e_0`` hold the qubits selected by the
    ``global_qubits`` of `negativity_batch` (all three by default); every
    other field is complete.  ``pattern_ok`` marks the states that pass the
    pattern check; the others were decomposed by the generic
    eigendecomposition fallback.
    (A named tuple rather than a frozen dataclass: the dataclass
    costs about 1.5 ms of import time, which every command-line call pays.)
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

        return NegativityReport(
            **{f.name: pick(getattr(self, f.name)) for f in fields(NegativityReport)}
        )


def _join(parts: tuple):
    if isinstance(parts[0], dict):
        return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    return np.concatenate(parts)


def _projector(vecs: np.ndarray) -> np.ndarray:
    """Sum of the outer products of the columns of ``vecs``, per state."""
    return vecs @ vecs.conj().swapaxes(-1, -2)


def _projected_trace(target: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """``Re tr(target @ projector)`` per matrix: the summed ``Re <v| target |v>``.

    The products are laid out in C order and summed along one contiguous
    axis: numpy may reorder a reduction over strided axes, and the order
    would then depend on the stack around each matrix.
    """
    product = np.multiply(target, projector.swapaxes(-1, -2), order="C")
    return np.real(product.reshape(*product.shape[:-2], -1).sum(axis=-1))


# ------------------------------------------------------------- index blocks
#
# A matrix supported on `PATTERN_MASK` is block diagonal, and so is each
# partial transpose the kernel solves, on index blocks of at most 3; any
# other matrix is one block of all 8 indices.  The blocks are derived here
# from the masks and the transpose maps; the kernel gathers each block of
# the transpose it solves and, on the same index pairs, of every map it
# projects.


def _index_blocks(support: np.ndarray) -> list[tuple[int, ...]]:
    """The connected index sets of ``support``, by smallest index, without the all-zero ones."""
    # neighbours of each index as a bit set, in plain Python: this runs at import
    linked = (support | support.T).tolist()
    neighbours = [sum(1 << j for j in range(8) if row[j]) for row in linked]
    blocks, seen = [], 0
    for start in range(8):
        if seen >> start & 1:
            continue
        block, grown = 0, 1 << start
        while grown != block:
            block = grown
            for i in range(8):
                if block >> i & 1:
                    grown |= neighbours[i]
        seen |= block
        members = tuple(i for i in range(8) if block >> i & 1)
        if len(members) > 1 or support[start, start]:
            blocks.append(members)
    return blocks


def _block_gathers(support, maps_by_owner) -> dict[int, np.ndarray]:
    """Gather positions of every map on the index blocks of each owner's first map.

    ``support`` is the mask of the matrices to be transposed and
    ``maps_by_owner`` lists, per owner, maps as from `_transpose_positions`:
    the first is the transpose to solve, the others are projected on its
    eigenvectors.  Returns, per block size n, flat positions into an 8x8
    matrix, shape (owners, blocks, maps, n, n).  The stacking needs every
    owner to have the same number of blocks of each size.
    """
    # nested lists, not a numpy call per block: this runs at import
    owners = []  # per owner: {block size: the gathers of each block}
    for maps in maps_by_owner:
        rows_of_maps = [positions.tolist() for positions in maps]
        by_size: dict[int, list] = {}
        for block in _index_blocks(support.reshape(64)[maps[0]]):
            gathers = [[[rows[i][j] for j in block] for i in block] for rows in rows_of_maps]
            by_size.setdefault(len(block), []).append(gathers)
        owners.append(by_size)
    counts = {tuple(sorted((size, len(blocks)) for size, blocks in o.items())) for o in owners}
    if len(counts) != 1:
        raise RuntimeError(f"owners differ in their index blocks: {sorted(counts)}")
    return {
        size: np.array([by_size[size] for by_size in owners]).reshape(
            len(maps_by_owner), -1, len(maps_by_owner[0]), size, size
        )
        for size in sorted(owners[0])
    }


# Any other state is one 8-index block: the tables of the whole support
# gather each transpose and map in full.
_WHOLE = np.ones((8, 8), dtype=bool)

# Per qubit: the global transpose, then the maps its negative eigenvectors
# project, k = 3, k = 2 and the state itself (E_3, E_2, E_0).
_STATE_MAPS = [
    [_transpose_positions(p, True)]
    + [_transpose_positions(p, _kway_mask(k)) for k in (3, 2)]
    + [_POSITION]
    for p in QubitLabel
]
_STATE_GATHERS = _block_gathers(PATTERN_MASK, _STATE_MAPS)
_WHOLE_STATE_GATHERS = _block_gathers(_WHOLE, _STATE_MAPS)

# Per qubit that leads a selective spec: its two-way transpose, then the
# selective transposes it projects, gathered whole for the kets of states
# that are not in blocks.  `_SHARE_ORDER` is the order of the specs in the
# result.
_SHARE_QUBITS = list(dict.fromkeys(first for first, _ in SELECTIVE_SPECS.values()))
_SHARE_SPECS = [
    [spec for spec, (first, _) in SELECTIVE_SPECS.items() if first is p] for p in _SHARE_QUBITS
]
_SHARE_ORDER = [spec for specs in _SHARE_SPECS for spec in specs]
_SHARE_MAPS = [
    [_transpose_positions(p, _kway_mask(2))]
    + [_transpose_positions(p, _selective_mask(spec)) for spec in specs]
    for p, specs in zip(_SHARE_QUBITS, _SHARE_SPECS)
]
_WHOLE_KET_GATHERS = _block_gathers(_WHOLE, _SHARE_MAPS)

# Per spec of `_SHARE_ORDER`: the minors of its first qubit's split whose
# two columns differ in its partner qubit alone.
_SHARE_MINORS = [
    np.flatnonzero(_MINOR_PRODUCTS[p][0] ^ _MINOR_PRODUCTS[p][2] == 1 << q.value)
    for p, q in (SELECTIVE_SPECS[spec] for spec in _SHARE_ORDER)
]


def _check_minor_split(support: np.ndarray) -> None:
    """Raise RuntimeError unless the minors split the shares of each ket on ``support`` exactly.

    The decomposition kets of a state on ``support`` each lie in one of its
    index blocks of two or more indices, a family.  A product
    ``phi_a phi_b`` of a minor (`_minor_products`) is supported when both
    its indices lie in the family: it is the entry of the ket's projector
    that the two-way transpose of qubit p moves.  A family fails, for a
    qubit that leads a selective spec, if a minor has two supported
    products, so that a moved entry lands on one the projector holds, or if
    a supported minor's columns (a and c) differ in two qubits, a three-way
    entry that counts towards ``N_G^p`` but that no two-way transpose moves.
    """
    for family in [set(block) for block in _index_blocks(support) if len(block) > 1]:
        for p in _SHARE_QUBITS:
            for a, b, c, d in zip(*(indices.tolist() for indices in _MINOR_PRODUCTS[p])):
                supported = [pair for pair in ((a, b), (c, d)) if set(pair) <= family]
                minor = f"phi{a} phi{b} - phi{c} phi{d}"
                where = f"ket family {sorted(family)}, qubit {p.name}: minor {minor}"
                if len(supported) > 1:
                    raise RuntimeError(f"{where} has two supported products")
                if supported and bin(a ^ c).count("1") != 1:
                    raise RuntimeError(f"{where} is supported on columns that differ in two qubits")


_check_minor_split(PATTERN_MASK)


def _in_blocks(m: np.ndarray, pattern_ok: np.ndarray) -> np.ndarray:
    """States of an (N, 8, 8) stack evaluated from the index blocks of `PATTERN_MASK`.

    Those that pass the pattern check and whose entries outside
    `PATTERN_MASK` are exactly zero, as in every closed-form and brute-force
    oracle state; the others, a state with rounding noise outside the
    pattern among them, are one 8-index block.
    """
    return pattern_ok & ~m[:, ~PATTERN_MASK].any(axis=-1)


def _projected_blocks(gathered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve map 0 of gathered blocks (..., owners, blocks, maps, n, n) and project the other maps.

    Returns the kept eigenvalues summed per owner, and ``Re tr(map @ P)``
    per owner and projected map, with P the projector on the kept
    eigenvectors of the block; both summed over the blocks.
    """
    vals, vecs = _negative_pairs(gathered[..., 0, :, :])
    projector = _projector(vecs)[..., None, :, :]
    traces = _projected_trace(gathered[..., 1:, :, :], projector)
    return vals.sum(axis=(-2, -1)), traces.sum(axis=-2)


def _global_split(
    m: np.ndarray, in_blocks: np.ndarray, owners: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """N_G (N, owner) and its split E_3, E_2, E_0 (N, owner, 3) of an (N, 8, 8) stack.

    ``owners`` are the values of the transposed qubits; with none, nothing
    is solved.  The rows marked ``in_blocks`` are gathered into the index
    blocks of `PATTERN_MASK`, the others into one 8-index block per qubit.
    """
    n_g = np.empty((len(m), len(owners)))
    split = np.empty((len(m), len(owners), 3))
    for rows, tables in ((in_blocks, _STATE_GATHERS), (~in_blocks, _WHOLE_STATE_GATHERS)):
        if not (owners and rows.any()):
            continue
        flat = m[rows].reshape(-1, 64)
        sums = traces = 0.0
        for positions in tables.values():
            block_sums, block_traces = _projected_blocks(flat[:, positions[owners]])
            sums, traces = sums + block_sums, traces + block_traces
        n_g[rows], split[rows] = -2.0 * sums, -2.0 * traces
    return n_g, split


def _share_terms(kets: np.ndarray) -> np.ndarray:
    """Per ket (rows of ``kets``) and spec (columns, in `_SHARE_ORDER`): ``Re tr(S P)``.

    S is the spec's selective transpose of the ket's projector and P the
    projector on the negative eigenvectors of its two-way transpose of the
    spec's qubit, both gathered whole by `_WHOLE_KET_GATHERS`.
    """
    pure = (kets[:, :, None] * kets[:, None, :].conj()).reshape(len(kets), 64)
    traces = 0.0
    for positions in _WHOLE_KET_GATHERS.values():
        traces = traces + _projected_blocks(pure[:, positions])[1]
    return traces.reshape(len(kets), -1)


def _decomposition_negativities(
    probs: np.ndarray, vectors: np.ndarray, in_blocks: np.ndarray
) -> tuple[dict[QubitLabel, np.ndarray], dict[str, np.ndarray]]:
    """N_PSDG per qubit and its pairwise shares per selective spec, from one pass over the minors.

    Each decomposition ket of qubit p's split has ``N_G^p = 2 r``, ``r`` the
    root of its summed squared minors (`_squared_minors`), gated at the
    eigenvalue cutoff like every other negativity; N_PSDG is the weighted
    sum.  A spec's share term of a ket is ``Re tr(S P)``, S the spec's
    selective transpose of the ket's projector and P the projector on the
    negative eigenvectors of its two-way transpose of the spec's first
    qubit; the -2 weight makes the shares of a qubit add up to its N_PSDG.
    Only the kets that can contribute are evaluated: those of positive
    weight with at least two nonzero components.  A basis-state ket such as
    |110> has a diagonal two-way transpose, so its shares are exactly 0.
    A ket of a state marked ``in_blocks`` lies in one of the families that
    `_check_minor_split` passed at import, so its term is ``-|m_q|^2 / r``,
    m_q the minors of `_SHARE_MINORS` (0 unless ``r`` exceeds the cutoff),
    with no eigensolve.  The kets of any other state go to `_share_terms`.
    """
    rows, cols = np.nonzero((probs > 0.0) & (np.count_nonzero(vectors, axis=-2) >= 2))
    by_minors = in_blocks[rows]
    minor_rows, minor_cols = rows[by_minors], cols[by_minors]
    terms = np.empty((len(rows), len(_SHARE_ORDER)))
    n_psdg = {}
    for p in QubitLabel:
        squared = _squared_minors(vectors, p)
        root = np.sqrt(squared.sum(axis=-2))
        ket_squared = squared[minor_rows, :, minor_cols]
        del squared  # one qubit's minors at a time bounds the peak
        live = root > NEGATIVE_EIGENVALUE_CUTOFF
        n_psdg[p] = (probs * np.where(live, 2.0 * root, 0.0)).sum(axis=-1)
        if p not in _SHARE_QUBITS or not by_minors.any():
            continue
        r = root[minor_rows, minor_cols]
        scale = np.divide(-1.0, r, out=np.zeros_like(r), where=live[minor_rows, minor_cols])
        for column, spec in enumerate(_SHARE_ORDER):
            if SELECTIVE_SPECS[spec][0] is p:
                terms[by_minors, column] = ket_squared[:, _SHARE_MINORS[column]].sum(-1) * scale
    if not by_minors.all():
        terms[~by_minors] = _share_terms(vectors[rows[~by_minors], :, cols[~by_minors]])
    shares = {}
    for column, spec in enumerate(_SHARE_ORDER):
        share = np.zeros(probs.shape)
        share[rows, cols] = terms[:, column]
        shares[spec] = -2.0 * (probs * share).sum(axis=-1)
    return n_psdg, {spec: shares[spec] for spec in SELECTIVE_SPECS}


def _negativity_block(m: np.ndarray, qubits: list[QubitLabel]) -> NegativityBatch:
    """`negativity_batch` for one block of at most `_DIAGNOSTIC_BLOCK` states, checked Hermitian.

    ``qubits`` are those whose global transposes are solved, in `QubitLabel` order.
    """
    pattern_ok, elements = _pattern_check(m)
    in_blocks = _in_blocks(m, pattern_ok)
    n_g, split = _global_split(m, in_blocks, [p.value for p in qubits])
    probs, vectors = _decompose_stack(m, pattern_ok, elements)
    n_psdg, e_psd = _decomposition_negativities(probs, vectors, in_blocks)
    return NegativityBatch(
        n_g={p: n_g[:, i] for i, p in enumerate(qubits)},
        e_3={p: split[:, i, 0] for i, p in enumerate(qubits)},
        e_2={p: split[:, i, 1] for i, p in enumerate(qubits)},
        e_0={p: split[:, i, 2] for i, p in enumerate(qubits)},
        n_psdg=n_psdg,
        e_psd=e_psd,
        linear_entropy_b=_linear_entropy_b(m),
        w1_fidelity=_expectation(W1_STATE, m),
        bell_projection=_bell_projection(m),
        pattern_ok=pattern_ok,
    )


def _global_selection(global_qubits) -> list[QubitLabel]:
    """The selected qubits in `QubitLabel` order, or a ValueError naming ``global_qubits``."""
    try:
        selection = list(global_qubits)
    except TypeError:
        selection = None
    if selection is None or not all(isinstance(p, QubitLabel) for p in selection):
        raise ValueError(f"global_qubits must hold QubitLabel members, got {global_qubits!r}")
    if len(set(selection)) != len(selection):
        raise ValueError(f"global_qubits names a qubit twice: {global_qubits!r}")
    return sorted(selection, key=lambda p: p.value)


def negativity_batch(states, *, global_qubits=tuple(QubitLabel)) -> NegativityBatch:
    """Evaluate the full diagnostic suite for a stack of states at once.

    ``states`` is an (N, 8, 8) array or a sequence of 8x8 states.  The stack
    is processed in blocks of `_DIAGNOSTIC_BLOCK`, so the temporaries do not
    grow with N, and every state's values are independent of its block-mates.
    Raises ValueError if any state is not Hermitian to 1e-9 (or not finite).

    ``global_qubits`` selects the qubits whose global transposes are solved
    (default all three): ``n_g``, ``e_3``, ``e_2`` and ``e_0`` hold those
    qubits only, in `QubitLabel` order, and an empty selection solves none.
    Every other field is complete and, like the selected values, bit for bit
    what the full selection gives.
    """
    qubits = _global_selection(global_qubits)
    if isinstance(states, np.ndarray):
        stack = states
    else:
        stack = np.array([getattr(rho, "matrix", rho) for rho in states])
    if stack.ndim != 3 or stack.shape[1:] != (8, 8):
        raise ValueError(f"expected an (N, 8, 8) stack of states, got shape {stack.shape}")
    _require_hermitian(stack)
    blocks = [
        _negativity_block(stack[start : start + _DIAGNOSTIC_BLOCK], qubits)
        for start in range(0, max(len(stack), 1), _DIAGNOSTIC_BLOCK)
    ]
    if len(blocks) == 1:
        return blocks[0]
    return NegativityBatch(*(_join(parts) for parts in zip(*blocks)))


def negativity_report(rho) -> NegativityReport:
    """Evaluate the full diagnostic suite at one state: `negativity_batch` on a grid of one.

    ``rho`` is an 8x8 state or has one as its ``matrix``; it raises as
    `negativity_batch` does.
    """
    return negativity_batch([rho]).report(0)
