"""Resonant atom-field block amplitudes and the closed-form three-qubit state.

Two ground-state atoms sit in cavity c1 and one in cavity c2, all coupled
resonantly with equal strength g to their local field mode.  In the
interaction picture the dynamics factors into photon-number blocks: a 3x3
block for the symmetric two-atom ladder in c1 and a 2x2 block in c2.  With
``tau = g * t`` those blocks have trigonometric closed forms, and summing
them against the injected-field weights yields the 8x8 reduced density
matrix of the three atomic qubits directly, with no Hilbert-space evolution.

Each independent matrix element is a bilinear form ``a(tau) . W(s) b(tau)``
in block amplitudes indexed by the photons left in each cavity.  The weight
tables factor exactly as ``W(s) = U.T @ diag(norm(s)) @ U`` with ``U``
depending only on (theta, n_max) and the squeezed-pair norms carrying all of
the s dependence, so a whole (tau, s) grid costs a few small matrix
products: `closed_form_grid`.  `closed_form_rho` is its grid of one.

Computational basis order throughout: |000>, |100>, |010>, |110>, |001>,
|101>, |011>, |111>, where the first two slots are the c1 atoms (A1, A2)
and the third is the c2 atom (B); the flat index is i1 + 2*i2 + 4*i3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_field import (
    FieldConfig,
    binomial_amplitude_table,
    require_finite_nonnegative,
    require_nonnegative_number,
    require_photon_number,
    require_theta,
)

__all__ = [
    "ThreeQubitDensityMatrix",
    "PATTERN_MASK",
    "pattern_violations",
    "closed_form_grid",
    "states_from_elements",
    "closed_form_rho",
    "diagonal_probabilities",
]


@dataclass(frozen=True)
class ThreeQubitDensityMatrix:
    """8x8 reduced state of (A1, A2, B) plus the parameters that produced it.

    The matrix is Hermitian and positive semidefinite with trace
    ``1 - truncation deficit``; it is intentionally not renormalised so that
    truncation problems stay visible.  The closed-form matrix is real
    symmetric (float64): its populations and its two coherences come from
    real couplings, a real squeeze parameter and a real beam-splitter angle.
    So is the brute-force matrix of `full_evolution`, whose imaginary
    rounding residue is checked against a 1e-12 bound and dropped.
    """

    matrix: np.ndarray
    tau: float
    s: float
    theta: float
    n_max: int


# Where each element of `closed_form_grid` lands in the 8x8 state, and the
# divisor it is stored with.  r22 and r55 weigh states symmetric in the c1
# pair, (|100>+|010>)/sqrt2 and (|101>+|011>)/sqrt2, so each fills a 2x2
# block at half weight; each coherence links a basis state to one of them.
_ELEMENT_SLOTS = (
    ((0, 0),),
    ((1, 1), (1, 2), (2, 1), (2, 2)),
    ((3, 3),),
    ((4, 4),),
    ((5, 5), (5, 6), (6, 5), (6, 6)),
    ((7, 7),),
    ((0, 5), (0, 6), (5, 0), (6, 0)),
    ((1, 7), (2, 7), (7, 1), (7, 2)),
)
_ELEMENT_DIVISORS = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)])
_SLOT_SOURCE = np.array([k for k, slots in enumerate(_ELEMENT_SLOTS) for _ in slots])
_SLOT_ROWS, _SLOT_COLS = np.array([ij for slots in _ELEMENT_SLOTS for ij in slots]).T


# Entries that can be nonzero in the reduced state, the slots above:
# populations of the symmetric sector, the |000><101|-type coherences and the
# |100><111|-type coherences.  Everything else vanishes because each field
# component conserves photon number plus atomic excitation.
PATTERN_MASK = np.zeros((8, 8), dtype=bool)
PATTERN_MASK[_SLOT_ROWS, _SLOT_COLS] = True
PATTERN_MASK.setflags(write=False)


def pattern_violations(matrix: np.ndarray, tol: float = 1e-10) -> list[tuple[int, int, complex]]:
    """Entries outside the allowed zero pattern whose magnitude exceeds ``tol``, row-major."""
    m = np.asarray(matrix)
    if m.shape != (8, 8):
        raise ValueError(f"matrix must be one 8x8 state, got shape {m.shape}")
    rows, cols = np.nonzero(~PATTERN_MASK & (np.abs(m) > tol))
    return [(int(i), int(j), complex(m[i, j])) for i, j in zip(rows, cols)]


def _field_factors(theta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank factors of the field-weight tables, independent of the squeezing.

    The diagonal-band weights regroup by the photon numbers q, p left in the
    c1 and c2 cavities as ``W0 = U0.T @ diag(norm0) @ U0`` and the m = n + 1
    coherence band as ``W1 = U1.T @ diag(norm1) @ U1``.  Row n of ``U0`` is the
    squared binomial row of n photons reversed (so it is indexed by
    q = n - k); row n of ``U1`` is the reversed product of the rows for n and
    n + 1.  The squeezing only enters through the norms, see
    `_squeeze_norms`.
    """
    size = n_max + 1
    rows = binomial_amplitude_table(n_max, theta)
    n = np.arange(size)[:, None]
    kept = np.arange(size) <= n  # q <= n
    k = np.where(kept, n - np.arange(size), 0)  # photons in the reflected port
    u0 = np.where(kept, rows[n, k] * rows[n, k], 0.0)
    u1 = np.where(kept[:-1], rows[n[:-1], k[:-1]] * rows[n[:-1] + 1, k[:-1]], 0.0)
    return u0, u1


def _squeeze_norms(squeezes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Squeezed-pair norms per squeeze value (rows) and photon number n (columns).

    ``norm0[n] = tanh(s)^(2n) / cosh^2(s)`` weighs the diagonal band and
    ``norm1[n] = tanh(s)^(2n+1) / cosh^2(s)``, n < n_max, the m = n + 1 band.
    """
    tanh_s = np.tanh(squeezes)[:, None]
    # cosh^2(s) overflows to inf above s ~ 355 (cosh itself above ~ 710), where
    # the correctly rounded norms are 0, which is what 1 / inf gives
    with np.errstate(over="ignore"):
        inv_cosh2 = 1.0 / np.cosh(squeezes)[:, None] ** 2
    power = 2 * np.arange(size)
    return tanh_s**power * inv_cosh2, tanh_s ** (power[:-1] + 1) * inv_cosh2


def _pair_block_amplitudes(taus: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-atom block amplitudes per tau (rows) against photon number q = 0..count-1.

    Returns (stay, one_up, two_up): the amplitudes for the symmetric pair to
    absorb zero, one or two photons out of q.  The generic expressions
    reference sqrt(2(2q-1)), which only exists for q >= 1, so the empty-cavity
    entries (stay = 1, others 0) are set directly; at q = 1 the two-photon
    rung vanishes through its sqrt(q(q-1)) factor.
    """
    shape = (len(taus), count)
    stay = np.ones(shape)
    one_up = np.zeros(shape)
    two_up = np.zeros(shape)
    q = np.arange(1, count, dtype=float)
    phase = np.multiply.outer(taus, np.sqrt(2.0 * (2.0 * q - 1.0)))
    cos_f = np.cos(phase)
    sin_f = np.sin(phase)
    denom = 2.0 * q - 1.0
    stay[:, 1:] = ((q - 1.0) + q * cos_f) / denom
    one_up[:, 1:] = np.sqrt(q) * sin_f / np.sqrt(denom)
    two_up[:, 1:] = np.sqrt(q * (q - 1.0)) * (cos_f - 1.0) / denom
    return stay, one_up, two_up


# Tau points evaluated together.  Bounds the (points, n_max + 1) work arrays,
# which for a whole 600-point sweep would raise the peak resident set by MBs.
_TAU_CHUNK = 64


def _chunk_elements(
    taus: np.ndarray, u0: np.ndarray, u1: np.ndarray, norm0: np.ndarray, norm1: np.ndarray
) -> np.ndarray:
    """`closed_form_grid` for one block of tau values, shape (len(taus), S, 8)."""
    size = u0.shape[0]
    # one extra slot so the shifted (q+1, p+1) bra factors of the coherence
    # band stay in range
    stay, one_up, two_up = _pair_block_amplitudes(taus, size + 1)
    phase = np.multiply.outer(taus, np.sqrt(np.arange(size + 1, dtype=float)))
    cos_b = np.cos(phase)
    sin_b = np.sin(phase)

    stay0, one0, two0 = stay[:, :size], one_up[:, :size], two_up[:, :size]
    cos0, sin0 = cos_b[:, :size], sin_b[:, :size]

    # Each element is sum_{q,p} W[q, p] a[q] b[p] = sum_n norm[n] (U a)[n] (U b)[n].
    pair0 = [(x * x) @ u0.T for x in (stay0, one0, two0)]
    cos_u0 = (cos0 * cos0) @ u0.T
    sin_u0 = (sin0 * sin0) @ u0.T
    band0 = np.stack([a * cos_u0 for a in pair0] + [a * sin_u0 for a in pair0])
    coh_u1 = (cos0 * sin_b[:, 1:]) @ u1.T
    band1 = np.stack(
        [-((stay0 * one_up[:, 1:]) @ u1.T * coh_u1), (one0 * two_up[:, 1:]) @ u1.T * coh_u1]
    )
    elements = np.concatenate([band0 @ norm0.T, band1 @ norm1.T])
    return np.moveaxis(elements, 0, -1)


def closed_form_grid(taus, squeezes, theta: float, n_max: int) -> np.ndarray:
    """The independent real elements of the analytic state on a (tau, s) grid.

    Returns an array of shape (len(taus), len(squeezes), 8) holding, per
    point, the populations r11, r22, r33, r44, r55, r66 (r22 and r55 are the
    weights of the symmetric one-excitation states of the c1 pair) and the
    coherences r15, r26; `states_from_elements` assembles them into 8x8
    matrices.  Populations come from the diagonal field band, the two
    coherences from the m = n + 1 band.  With the exp(-i H tau) convention in
    both cavities the |000><101|-type coherence is minus the product of the
    four real block amplitudes; the |100><111|-type coherence is plus.
    """
    taus = require_finite_nonnegative("tau", taus).reshape(-1)
    squeezes = require_finite_nonnegative("squeeze parameter s", squeezes).reshape(-1)
    require_photon_number("n_max", n_max)
    require_theta(theta)  # before float() reads a bool as 1.0
    u0, u1 = _field_factors(float(theta), int(n_max))
    norm0, norm1 = _squeeze_norms(squeezes, n_max + 1)
    out = np.empty((taus.size, squeezes.size, 8))
    for start in range(0, taus.size, _TAU_CHUNK):
        block = slice(start, start + _TAU_CHUNK)
        out[block] = _chunk_elements(taus[block], u0, u1, norm0, norm1)
    return out


def states_from_elements(elements: np.ndarray) -> np.ndarray:
    """The real 8x8 states, shape (..., 8, 8), from elements of `closed_form_grid` (..., 8)."""
    elements = np.asarray(elements)
    if elements.ndim == 0 or elements.shape[-1] != 8:
        raise ValueError(f"elements must have a last axis of 8, got shape {elements.shape}")
    m = np.zeros(elements.shape[:-1] + (8, 8))
    m[..., _SLOT_ROWS, _SLOT_COLS] = (elements / _ELEMENT_DIVISORS)[..., _SLOT_SOURCE]
    return m


def closed_form_rho(tau: float, config: FieldConfig) -> ThreeQubitDensityMatrix:
    """Analytic 8x8 reduced state of the three qubits at interaction time tau."""
    tau = require_nonnegative_number("tau", tau)
    elements = closed_form_grid([tau], [config.s], config.theta, config.n_max)[0, 0]
    matrix = states_from_elements(elements)
    return ThreeQubitDensityMatrix(matrix, tau, config.s, config.theta, config.n_max)


def diagonal_probabilities(rho: ThreeQubitDensityMatrix | np.ndarray) -> np.ndarray:
    """The eight basis-state occupation probabilities, in basis order (per state of a stack)."""
    matrix = np.asarray(getattr(rho, "matrix", rho))
    return np.real(np.diagonal(matrix, axis1=-2, axis2=-1)).copy()
