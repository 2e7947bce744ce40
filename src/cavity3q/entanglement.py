"""Entanglement diagnostics for the three-qubit cavity state.

The diagnostic suite is one batched kernel, `negativity_batch`, which takes a
stack of states and returns every quantity the paper reads its four claims
from: the global negativities of the partial transposes (Peres, PRL 77, 1413
(1996); Vidal & Werner, PRA 65, 032314 (2002)) and their split into K-way
(restricted) parts, the negativities of the analytic pure-state
decomposition, which flag bound entanglement, their pairwise shares through
the selective two-qubit transposes, and the auxiliary measures (linear
entropy of B, W-state fidelity, Bell-sector weight).  `negativity_report` is
the kernel on a grid of one state.

The kernel checks every state Hermitian to 1e-9 once (a bad state is named
by its index in the caller's stack) and evaluates the stack in fixed blocks
of `_DIAGNOSTIC_BLOCK` rows:

* the zero pattern of every row is checked once against `PATTERN_MASK`;
* every partial transpose the kernel solves is gathered into index blocks,
  with each map it projects gathered on the same index pairs.  A state
  whose entries outside `PATTERN_MASK` are exactly zero and whose pattern
  check passes (every closed-form state) is block diagonal, and so is each
  such transpose, on blocks of at most 3 indices derived from
  `PATTERN_MASK` at import (Tavis & Cummings, Phys. Rev. 170, 379 (1968):
  each field component conserves photon number plus atomic excitation).
  Every other state, a brute-force oracle state with rounding noise outside
  the pattern among them, is one block of all 8 indices, from tables built
  the same way on the whole support;
* the pure-state decomposition is computed in closed form for rows that
  pass the pattern check and by a stacked eigendecomposition for the rest;
* the global negativities come from the negative eigenvalues of the global
  transpose of each qubit named in ``global_qubits`` (default all three),
  and their K-way split E_3/E_2/E_0 from ``Re tr(T P)``, T the K-way
  transpose (or the state) and P the projector on the negative
  eigenvectors, summed over the blocks; a qubit left out is not solved;
* the decomposition negativity uses the pure-state identity
  ``N_G^p(phi) = 2 sqrt(det rho_p)``, with ``rho_p`` the reduced state of
  qubit p, so it needs no eigensolver;
* the pairwise shares come from the two-way transposes of the
  decomposition states of positive weight only, and of those only the ones
  that are not basis states.  For a block-structured state each such ket
  lies in one of the state's two 3-index blocks, and of its transposes
  only the 3x3 block can go negative: the 2x2 and 1x1 blocks are left in
  place, so they are principal submatrices of the ket's projector.  That
  3x3 block is a star, two edges a and b meeting at one centre on a zero
  diagonal, as checked at import; its one negative eigenvalue is
  ``-hypot(|a|, |b|)`` and each share term is ``-|a|^2 / r`` or
  ``-|b|^2 / r``, so these kets need no eigensolver.  The kets of any other
  state are solved as one 8-index block per qubit.

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

from .tavis_cummings import PATTERN_MASK, pattern_violations

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
# O(1e-14) noise and the gate inequalities of the analytic negativity become
# fragile near equality.
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


# Basis indices with qubit p's bit clear, ascending; setting the bit gives
# the partner index.  A ket split this way is the 2x4 matrix of qubit p
# against the other two.
_BIT_CLEAR = {p: np.array([i for i in range(8) if not (i >> p.value) & 1]) for p in QubitLabel}
_BIT_SET = {p: idx | (1 << p.value) for p, idx in _BIT_CLEAR.items()}
# Column pairs (j < k) of the 2x2 minors of a 2x4 matrix.
_MINOR_FIRST, _MINOR_SECOND = np.triu_indices(4, k=1)

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2

_BASIS = np.eye(8)
_SYM_EXCITED = (_BASIS[5] + _BASIS[6]) / _SQRT2  # (|101> + |011>) / sqrt2

W1_STATE = (_BASIS[0] + _BASIS[5] + _BASIS[6]) / math.sqrt(3.0)
W1_STATE.setflags(write=False)


def _as_matrix(rho) -> np.ndarray:
    m = getattr(rho, "matrix", rho)
    m = np.asarray(m)
    if m.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {m.shape}")
    return m


def _require_hermitian(m: np.ndarray) -> None:
    """Raise unless every matrix of ``m`` (n x n or a stack) is Hermitian to 1e-9 (NaN fails).

    The message names the first bad matrix by its flat index in the stack.
    """
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


def _negative_pairs(m: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues below ``-cutoff``, with eigenvectors, of each matrix of a stack checked Hermitian.

    Returns all n eigenvalues (ascending) and eigenvectors (as columns) of
    each matrix, those at or above ``-cutoff`` set to zero, so every matrix
    gives arrays of the same shape.  A 1x1 matrix needs no solve.
    """
    if m.shape[-1] == 1:
        vals, vecs = m.real[..., 0], np.ones_like(m)
    else:
        vals, vecs = _symmetrised_eigh(m)
    keep = vals < -cutoff
    return np.where(keep, vals, 0.0), vecs * keep[..., None, :]


# Failure codes of `_pattern_check` beyond the zero pattern itself (code 1).
_PATTERN_ERRORS = {
    2: "state pattern requires real matrix elements",
    3: "state pattern requires equal entries across the symmetric blocks",
}


def _pattern_check(m: np.ndarray, tol: float = _PATTERN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Validate the structured-state pattern of each state in an (N, 8, 8) stack.

    Returns a failure code per state (0 passes; 1 an entry outside
    `PATTERN_MASK`, 2 a complex pattern entry, 3 unequal entries across a
    symmetric block) and the eight independent real elements r11, r22, r33,
    r44, r55, r66, r15, r26 (meaningful where the code is 0).
    """
    outside = ((np.abs(m) > tol) & ~PATTERN_MASK).any(axis=(-2, -1))
    complex_entries = np.abs(m.imag[:, PATTERN_MASK]).max(axis=-1) > tol
    real = m.real
    unequal = (np.ptp(real[:, [1, 2, 1, 2], [1, 2, 2, 1]], axis=-1) > tol) | (
        np.ptp(real[:, [5, 6, 5, 6], [5, 6, 6, 5]], axis=-1) > tol
    )
    codes = np.select([outside, complex_entries, unequal], [1, 2, 3], 0)
    elements = np.stack(
        [
            m[:, 0, 0].real,
            (m[:, 1, 1] + m[:, 2, 2] + m[:, 1, 2] + m[:, 2, 1]).real / 2.0,
            m[:, 3, 3].real,
            m[:, 4, 4].real,
            (m[:, 5, 5] + m[:, 6, 6] + m[:, 5, 6] + m[:, 6, 5]).real / 2.0,
            m[:, 7, 7].real,
            (m[:, 0, 5] + m[:, 0, 6]).real / _SQRT2,
            (m[:, 1, 7] + m[:, 2, 7]).real / _SQRT2,
        ],
        axis=-1,
    )
    return codes, elements


def _require_pattern(m: np.ndarray) -> np.ndarray:
    """The eight independent elements of one state, or a ValueError naming the failure."""
    codes, elements = _pattern_check(m[None])
    code = int(codes[0])
    if code == 1:
        i, j, v = pattern_violations(m, _PATTERN_TOL)[0]
        raise ValueError(f"state does not have the expected zero pattern: entry [{i},{j}] = {v}")
    if code:
        raise ValueError(_PATTERN_ERRORS[code])
    return elements[0]


def _analytic_negativity_b(elements: np.ndarray, cutoff: float) -> np.ndarray:
    """Negativity with respect to B of each row of an (N, 8) element array, no eigensolver.

    The partial transpose splits into two 2x2 blocks whose lower eigenvalues

        lam1 = (r33 + r55)/2 - sqrt((r33 - r55)^2 + 4 r26^2)/2
        lam2 = (r22 + r44)/2 - sqrt((r22 - r44)^2 + 4 r15^2)/2

    contribute -2*lam only while below ``-cutoff`` (each gate is one block's
    discriminant inequality); all other eigenvalues are populations.
    """
    r11, r22, r33, r44, r55, r66, r15, r26 = elements.T
    lam1 = 0.5 * (r33 + r55) - 0.5 * np.hypot(r33 - r55, 2.0 * r26)
    lam2 = 0.5 * (r22 + r44) - 0.5 * np.hypot(r22 - r44, 2.0 * r15)
    return -2.0 * (np.where(lam1 < -cutoff, lam1, 0.0) + np.where(lam2 < -cutoff, lam2, 0.0))


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Deterministic phase per column: its largest-magnitude component is real positive."""
    idx = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    pivot = np.take_along_axis(vectors, idx, axis=-2)
    pivot = np.where(pivot == 0, 1.0, pivot)
    return vectors * (np.abs(pivot) / pivot)


def _two_level_pairs(d_first: np.ndarray, d_second: np.ndarray, off: np.ndarray, cutoff: float):
    """Eigenpairs of [[d_first, off], [off, d_second]] per row, smaller eigenvalue first.

    Returns ``[(lam, x, y), (lam, x, y)]`` of arrays, the eigenvector being
    ``(x, y)``.  With a negligible off-diagonal the basis vectors are returned
    unrotated (first basis vector first when also degenerate), which keeps
    the decomposition deterministic where the pair is degenerate.
    """
    in_order = (np.abs(d_first - d_second) < cutoff) | (d_first <= d_second)
    first = in_order.astype(float)  # 1 where the first basis vector comes first
    pairs = [  # distinct arrays, filled in below on the rotated rows
        [np.where(in_order, d_first, d_second), first, 1.0 - first],
        [np.where(in_order, d_second, d_first), 1.0 - first, first.copy()],
    ]
    rotated = np.abs(off) >= cutoff
    d1, d2, c = d_first[rotated], d_second[rotated], off[rotated]
    half_gap = 0.5 * np.hypot(d1 - d2, 2.0 * c)
    mean = 0.5 * (d1 + d2)
    for pair, lam in zip(pairs, (mean - half_gap, mean + half_gap)):
        # pick the better-conditioned of the two eigenvector formulas
        use_a = np.hypot(c, lam - d1) >= np.hypot(lam - d2, c)
        x = np.where(use_a, c, lam - d2)
        y = np.where(use_a, lam - d1, c)
        norm = np.hypot(x, y)
        x, y = x / norm, y / norm
        sign = np.where(np.where(np.abs(x) < np.abs(y), y, x) > 0, 1.0, -1.0)
        for out, value in zip(pair, (lam, sign * x, sign * y)):
            out[rotated] = value
    return pairs


def _generic_decomposition(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fallback for an (N, 8, 8) stack checked Hermitian: eigenpairs ascending, phases fixed."""
    vals, vecs = _symmetrised_eigh(m)
    return np.clip(vals, 0.0, None), _fix_phase(vecs)


def _decompose_stack(
    m: np.ndarray, codes: np.ndarray, elements: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state decomposition of each state of an (N, 8, 8) stack.

    A state that passes the pattern check is block diagonal in the basis
    {|000>, sym|1>}, {sym|0>, |111>}, |110>, |001> plus the two antisymmetric
    null directions, so six analytic eigenpairs (plus two zero-weight
    completions) suffice.  Returns the probabilities (N, 8) and the unit
    vectors as columns (N, 8, 8).  States whose pattern code is nonzero go
    through `_generic_decomposition`, all of them in one call.
    """
    probs = np.zeros(m.shape[:2])
    vectors = np.zeros(m.shape, dtype=np.result_type(m, float))
    ok = codes == 0
    r11, r22, r33, r44, r55, r66, r15, r26 = elements[ok].T
    lams = []
    kets = np.zeros((len(r11), 8, 8))
    for col, (lam, x, y) in enumerate(_two_level_pairs(r11, r55, r15, cutoff)):
        lams.append(lam)
        kets[:, 0, col] = x
        kets[:, 5, col] = kets[:, 6, col] = y * _INV_SQRT2
    for col, (lam, x, y) in enumerate(_two_level_pairs(r22, r66, r26, cutoff), start=2):
        lams.append(lam)
        kets[:, 1, col] = kets[:, 2, col] = x * _INV_SQRT2
        kets[:, 7, col] = y
    kets[:, 3, 4] = kets[:, 4, 5] = 1.0
    kets[:, 1, 6] = kets[:, 5, 7] = _INV_SQRT2
    kets[:, 2, 6] = kets[:, 6, 7] = -_INV_SQRT2
    zero = np.zeros_like(r33)
    probs[ok] = np.maximum(np.stack([*lams, r33, r44, zero, zero], axis=-1), 0.0)
    vectors[ok] = _fix_phase(kets)
    if not ok.all():
        probs[~ok], vectors[~ok] = _generic_decomposition(m[~ok])
    return probs, vectors


def _pure_negativity(kets: np.ndarray, p: QubitLabel, cutoff: float) -> np.ndarray:
    """Global negativity for qubit ``p`` of each pure state in the columns of ``kets``.

    A ket split by qubit p's bit is a 2x4 matrix M with reduced state
    ``rho_p = M M^H``; its partial transpose has one negative eigenvalue,
    ``-sqrt(det rho_p)``, so ``N_G^p = 2 sqrt(det rho_p)``.  By Cauchy-Binet
    ``det rho_p`` is the sum of the squared moduli of the 2x2 minors of M,
    which avoids the cancellation of ``rho_00 rho_11 - |rho_01|^2``.  Gated at
    the eigenvalue cutoff like every other negativity.
    """
    clear = kets[..., _BIT_CLEAR[p], :]
    set_ = kets[..., _BIT_SET[p], :]
    minors = (
        clear[..., _MINOR_FIRST, :] * set_[..., _MINOR_SECOND, :]
        - clear[..., _MINOR_SECOND, :] * set_[..., _MINOR_FIRST, :]
    )
    root = np.sqrt((np.abs(minors) ** 2).sum(axis=-2))
    return np.where(root > cutoff, 2.0 * root, 0.0)


def _partial_trace(m: np.ndarray, keep_set: set[QubitLabel]) -> np.ndarray:
    """Reduced states of a stack (..., 8, 8) on the qubits in ``keep_set``.

    Kept qubits retain their relative order (A1 fastest, B slowest).
    """
    lead = m.shape[:-2]
    # axes of the (2,2,2, 2,2,2) view: (B, A2, A1) x (B, A2, A1)
    tensor = m.reshape(*lead, 2, 2, 2, 2, 2, 2)
    remaining = [QubitLabel.B, QubitLabel.A2, QubitLabel.A1]
    for q in (QubitLabel.B, QubitLabel.A2, QubitLabel.A1):
        if q in keep_set:
            continue
        axis = len(lead) + remaining.index(q)
        tensor = np.trace(tensor, axis1=axis, axis2=axis + len(remaining))
        remaining.remove(q)
    dim = 2 ** len(keep_set)
    return tensor.reshape(*lead, dim, dim)


def _linear_entropy(m: np.ndarray) -> np.ndarray:
    """Mixedness ``d/(d-1) (1 - tr rho^2)`` of each matrix of a stack (..., d, d).

    0 for a pure state, 1 for a maximally mixed one.
    """
    d = m.shape[-1]
    purity = np.real(np.trace(m @ m, axis1=-2, axis2=-1))
    return (d / (d - 1.0)) * (1.0 - purity)


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
    n_g_b_analytic: float
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
    other field is complete.  ``n_g_b_analytic`` is NaN where the state
    lacks the structured zero pattern; ``pattern_ok`` marks the states that
    have it.  The others were decomposed by the generic eigendecomposition
    fallback.  (A named tuple rather than a frozen dataclass: the dataclass
    costs about 1.5 ms of import time, which every command-line call pays.)
    """

    n_g: dict[QubitLabel, np.ndarray]
    n_g_b_analytic: np.ndarray
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


def _block_gathers(supports, maps_by_owner, psd: bool = False) -> dict[int, np.ndarray]:
    """Gather positions of every map on the index blocks of each owner's first map.

    ``supports`` are the masks of the matrices to be transposed and
    ``maps_by_owner`` lists, per owner, maps as from `_transpose_positions`:
    the first is the transpose to solve, the others are projected on its
    eigenvectors.  Returns, per block size n, flat positions into an 8x8
    matrix, shape (supports, owners, blocks, maps, n, n).  The stacking needs
    every (support, owner) to have the same number of blocks of each size.
    With ``psd`` the matrices are positive semidefinite, and a block that the
    first map leaves in place is dropped: it is a principal submatrix, so it
    has no negative eigenvalue to find.
    """
    # nested lists, not a numpy call per block: this runs at import
    in_place = _POSITION.tolist()
    owners = []  # per (support, owner): {block size: the gathers of each block}
    for support in supports:
        for maps in maps_by_owner:
            rows_of_maps = [positions.tolist() for positions in maps]
            by_size: dict[int, list] = {}
            for block in _index_blocks(support.reshape(64)[maps[0]]):
                gathers = [[[rows[i][j] for j in block] for i in block] for rows in rows_of_maps]
                if psd and gathers[0] == [[in_place[i][j] for j in block] for i in block]:
                    continue
                by_size.setdefault(len(block), []).append(gathers)
            owners.append(by_size)
    counts = {tuple(sorted((size, len(blocks)) for size, blocks in o.items())) for o in owners}
    if len(counts) != 1:
        raise RuntimeError(f"owners differ in their index blocks: {sorted(counts)}")
    return {
        size: np.array([by_size[size] for by_size in owners]).reshape(
            len(supports), len(maps_by_owner), -1, len(maps_by_owner[0]), size, size
        )
        for size in sorted(owners[0])
    }


# The state's own blocks; those of two or more indices hold the analytic
# decomposition kets that are not basis states.
_KET_FAMILIES = [block for block in _index_blocks(PATTERN_MASK) if len(block) > 1]
_FAMILY_OF = np.full(8, -1)
for _family, _block in enumerate(_KET_FAMILIES):
    _FAMILY_OF[list(_block)] = _family

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
_STATE_GATHERS, _WHOLE_STATE_GATHERS = (
    {size: positions[0] for size, positions in _block_gathers([support], _STATE_MAPS).items()}
    for support in (PATTERN_MASK, _WHOLE)
)

# Per qubit that leads a selective spec: its two-way transpose, then the
# selective transposes it projects; per ket family, or the whole support.
# The kets are pure, so only the blocks the two-way transpose moves are
# kept.  `_SHARE_ORDER` is the order of the specs in the result.
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
_KET_SUPPORTS = [(_FAMILY_OF[:, None] == f) & (_FAMILY_OF == f) for f in range(len(_KET_FAMILIES))]
_KET_GATHERS = _block_gathers(_KET_SUPPORTS, _SHARE_MAPS, psd=True)
_WHOLE_KET_GATHERS = _block_gathers([_WHOLE], _SHARE_MAPS, psd=True)


def _star_edges(gathers: dict[int, np.ndarray], supports) -> tuple[np.ndarray, np.ndarray]:
    """The two edges of every ket block of ``gathers``, and the edge each projected map keeps.

    ``gathers`` are ket tables as from `_block_gathers` on the masks
    ``supports``.  Each block must be a star on its support: the two-way
    transpose (map 0) reads the support only on two edges ``[leaf, centre]``
    and ``[centre, leaf]`` with one centre, so its diagonal and the entry
    between the leaves are zero; and each selective map reads the support
    on exactly one of those edges, at map 0's positions.  Returns the flat
    8x8 positions of the ``[leaf, centre]`` entries, shape (supports,
    owners, blocks, 2), and the edge (0 or 1) that each selective map keeps,
    shape (supports, owners, blocks, maps - 1).  Raises RuntimeError for a
    block of any other shape.
    """
    if sorted(gathers) != [3]:
        raise RuntimeError(f"ket blocks must all be 3x3, got sizes {sorted(gathers)}")
    table = gathers[3]
    # per centre, the cells [leaf, centre] and [centre, leaf] of its two edges
    stars = {c: [{(leaf, c), (c, leaf)} for leaf in range(3) if leaf != c] for c in range(3)}
    edges, kept = [], []
    # nested lists, not a numpy call per block: this runs at import
    for support, by_owner in zip(supports, table.tolist()):
        inside = support.reshape(64).tolist()
        for owner, blocks in enumerate(by_owner):
            for maps in blocks:
                read = [
                    {(i, j) for i in range(3) for j in range(3) if inside[m[i][j]]} for m in maps
                ]
                centres = [c for c, (a, b) in stars.items() if read[0] == a | b]
                if not centres:
                    raise RuntimeError(
                        f"ket block of owner {owner} is not a star: map 0 reads {sorted(read[0])}"
                    )
                centre = centres[0]
                edges.append([maps[0][leaf][centre] for leaf in range(3) if leaf != centre])
                kept.append([])
                for k, positions in enumerate(maps[1:], start=1):
                    keeps = [
                        e
                        for e, cells in enumerate(stars[centre])
                        if read[k] == cells
                        and all(positions[i][j] == maps[0][i][j] for i, j in cells)
                    ]
                    if not keeps:
                        raise RuntimeError(
                            f"selective map {k} of owner {owner} must keep one edge of the "
                            f"star, reads {sorted(read[k])}"
                        )
                    kept[-1].append(keeps[0])
    lead = table.shape[:3]
    return np.array(edges).reshape(*lead, 2), np.array(kept).reshape(*lead, -1)


# Every ket block the two-way transposes move is a star, so its one negative
# eigenvalue is -hypot(a, b) of its two edges a and b: the rows and columns
# of the edges in the ket's projector, per ket family, and the edge that
# each spec of `_SHARE_ORDER` keeps.
_STAR_EDGES, _STAR_KEPT = _star_edges(_KET_GATHERS, _KET_SUPPORTS)
_STAR_ROWS, _STAR_COLS = np.divmod(_STAR_EDGES, 8)


def _in_blocks(m: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """States of an (N, 8, 8) stack evaluated from the index blocks of `PATTERN_MASK`.

    Those whose pattern code is 0 and whose entries outside `PATTERN_MASK`
    are exactly zero; the others, brute-force oracle states with rounding
    noise outside the pattern among them, are one 8-index block.
    """
    return (codes == 0) & ~m[:, ~PATTERN_MASK].any(axis=-1)


def _projected_blocks(gathered: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve map 0 of gathered blocks (..., owners, blocks, maps, n, n) and project the other maps.

    Returns the kept eigenvalues summed per owner, and ``Re tr(map @ P)``
    per owner and projected map, with P the projector on the kept
    eigenvectors of the block; both summed over the blocks.
    """
    vals, vecs = _negative_pairs(gathered[..., 0, :, :], cutoff)
    projector = _projector(vecs)[..., None, :, :]
    traces = _projected_trace(gathered[..., 1:, :, :], projector)
    return vals.sum(axis=(-2, -1)), traces.sum(axis=-2)


def _global_split(
    m: np.ndarray, in_blocks: np.ndarray, cutoff: float, owners: list[int]
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
            block_sums, block_traces = _projected_blocks(flat[:, positions[owners]], cutoff)
            sums, traces = sums + block_sums, traces + block_traces
        n_g[rows], split[rows] = -2.0 * sums, -2.0 * traces
    return n_g, split


def _share_terms(kets: np.ndarray, cutoff: float) -> np.ndarray:
    """Per ket (rows of ``kets``) and spec (columns, in `_SHARE_ORDER`): ``Re tr(S P)``.

    S is the spec's selective transpose of the ket's projector and P the
    projector on the negative eigenvectors of its two-way transpose of the
    spec's qubit, both gathered whole by `_WHOLE_KET_GATHERS`.
    """
    pure = (kets[:, :, None] * kets[:, None, :].conj()).reshape(len(kets), 64)
    traces = 0.0
    for positions in _WHOLE_KET_GATHERS.values():
        traces = traces + _projected_blocks(pure[:, positions[0]], cutoff)[1]
    return traces.reshape(len(kets), -1)


def _star_share_terms(kets: np.ndarray, families: np.ndarray, cutoff: float) -> np.ndarray:
    """`_share_terms` of kets that each lie in the ket family ``families`` names, in closed form.

    The block of the two-way transpose is a star with edges a and b, so
    its one negative eigenvalue is ``-r``, ``r = hypot(|a|, |b|)``, with
    eigenvector ``(a, b, -r) / (sqrt2 r)`` on (leaf, leaf, centre).  A
    selective transpose keeps one edge, so its term is ``-|a|^2 / r`` or
    ``-|b|^2 / r``; both are 0 unless ``r`` exceeds the cutoff, as an
    eigenvalue at or above ``-cutoff`` counts as zero.
    """
    ket = np.arange(len(kets))[:, None, None, None]
    edges = np.abs(kets[ket, _STAR_ROWS[families]] * kets[ket, _STAR_COLS[families]].conj())
    r = np.hypot(edges[..., 0], edges[..., 1])
    scale = np.divide(-1.0, r, out=np.zeros_like(r), where=r > cutoff)
    terms = np.take_along_axis(edges**2 * scale[..., None], _STAR_KEPT[families], axis=-1)
    return terms.sum(axis=-2).reshape(len(kets), -1)


def _pairwise_shares(
    probs: np.ndarray, vectors: np.ndarray, in_blocks: np.ndarray, cutoff: float
) -> dict[str, np.ndarray]:
    """Pairwise shares of the decomposition negativity, per selective spec.

    For each decomposition state, the spec's selective transpose of its
    projector is projected on the negative eigenvectors of its own two-way
    transpose with respect to the spec's first qubit; the -2 weight makes the
    two shares of a qubit add up to its decomposition negativity.  Only the
    kets that can contribute are evaluated: those of positive weight with at
    least two nonzero components.  A basis-state ket such as |110> has a diagonal
    two-way transpose, so its shares are exactly 0.  The kets of states
    marked ``in_blocks`` each lie in one family; their shares come from the
    star blocks in closed form (`_star_share_terms`), with no eigensolve.
    The other kets are solved as one 8-index block per qubit.
    """
    rows, cols = np.nonzero((probs > 0.0) & (np.count_nonzero(vectors, axis=-2) >= 2))
    kets = vectors[rows, :, cols]
    terms = np.empty((len(kets), len(_SHARE_ORDER)))
    in_family = in_blocks[rows]
    if in_family.any():
        family_kets = kets[in_family]
        families = _FAMILY_OF[np.argmax(np.abs(family_kets), axis=-1)]
        terms[in_family] = _star_share_terms(family_kets, families, cutoff)
    if not in_family.all():
        terms[~in_family] = _share_terms(kets[~in_family], cutoff)
    shares = {}
    for column, spec in enumerate(_SHARE_ORDER):
        share = np.zeros(probs.shape)
        share[rows, cols] = terms[:, column]
        shares[spec] = -2.0 * (probs * share).sum(axis=-1)
    return {spec: shares[spec] for spec in SELECTIVE_SPECS}


def _negativity_block(m: np.ndarray, cutoff: float, qubits: list[QubitLabel]) -> NegativityBatch:
    """`negativity_batch` for one block of at most `_DIAGNOSTIC_BLOCK` states, checked Hermitian.

    ``qubits`` are those whose global transposes are solved, in `QubitLabel` order.
    """
    codes, elements = _pattern_check(m)
    pattern_ok = codes == 0
    in_blocks = _in_blocks(m, codes)
    n_g, split = _global_split(m, in_blocks, cutoff, [p.value for p in qubits])
    probs, vectors = _decompose_stack(m, codes, elements, cutoff)
    return NegativityBatch(
        n_g={p: n_g[:, i] for i, p in enumerate(qubits)},
        n_g_b_analytic=np.where(pattern_ok, _analytic_negativity_b(elements, cutoff), np.nan),
        e_3={p: split[:, i, 0] for i, p in enumerate(qubits)},
        e_2={p: split[:, i, 1] for i, p in enumerate(qubits)},
        e_0={p: split[:, i, 2] for i, p in enumerate(qubits)},
        n_psdg={p: (probs * _pure_negativity(vectors, p, cutoff)).sum(axis=-1) for p in QubitLabel},
        e_psd=_pairwise_shares(probs, vectors, in_blocks, cutoff),
        linear_entropy_b=_linear_entropy(_partial_trace(m, {QubitLabel.B})),
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
        _negativity_block(
            stack[start : start + _DIAGNOSTIC_BLOCK], NEGATIVE_EIGENVALUE_CUTOFF, qubits
        )
        for start in range(0, max(len(stack), 1), _DIAGNOSTIC_BLOCK)
    ]
    if len(blocks) == 1:
        return blocks[0]
    return NegativityBatch(*(_join(parts) for parts in zip(*blocks)))


def negativity_report(rho) -> NegativityReport:
    """Evaluate the full diagnostic suite at one state: `negativity_batch` on a grid of one.

    Raises ValueError for a state without the structured zero pattern, which
    the analytic B negativity needs.
    """
    m = _as_matrix(rho)
    batch = negativity_batch(m[None])
    if not batch.pattern_ok[0]:
        _require_pattern(m)
    return batch.report(0)
