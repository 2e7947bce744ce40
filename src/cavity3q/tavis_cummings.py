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
products: `closed_form_grid`.  At theta = 0 and theta = pi the snapped
half-angle makes every factor an exact 0/1 selection, which is applied by
indexing instead of a product.  `closed_form_rho` is its grid of one.

The block amplitudes need cos and sin of every phase tau * rate, at the
pair's rates sqrt(2(2q-1)) and cavity 2's sqrt(p).  When the tau axis is an
arithmetic progression, as every sweep's is, they come from the
angle-addition identity: one table per call for the offsets within a chunk
of taus, one row per chunk for its first tau, both of the exact products,
and a first-order correction for each point's few-ulp distance from the
progression (`_tau_trig`).  That calls libm about 24,000 times for a
600-point sweep at n_max 80, not 196,000, and every value is within a few
ulps of 1 of cos and sin of the exact product, where the rounded product's
per-point cos is off by up to ulp(tau * rate) / 2.  A single tau, or any
other axis, is evaluated point by point.

Computational basis order throughout: |000>, |100>, |010>, |110>, |001>,
|101>, |011>, |111>, where the first two slots are the c1 atoms (A1, A2)
and the third is the c2 atom (B); the flat index is i1 + 2*i2 + 4*i3.

One table says which entries of the 8x8 state hold which element, and this
module is the only one that reads it, in both directions:
`states_from_elements` writes the elements into their slots,
`_elements_of_states` reads them back, with the spread of each element's
slots, for the diagnostics' route decision, and `_populations` reads the
diagonal slots straight from the elements, for the sweeps, which build no
8x8 state.  `PATTERN_MASK` marks the slots.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .fock_field import (
    FieldConfig,
    _real_array,
    binomial_amplitude_table,
    require_finite_nonnegative,
    require_finite_phases,
    require_nonnegative_number,
    require_photon_number,
    require_theta,
)

__all__ = [
    "ThreeQubitDensityMatrix",
    "PATTERN_MASK",
    "closed_form_grid",
    "states_from_elements",
    "closed_form_rho",
    "diagonal_probabilities",
]


class ThreeQubitDensityMatrix(NamedTuple):
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
# The element on each diagonal entry, in basis order.
_DIAGONAL_SOURCE = np.array([_SLOT_SOURCE[(_SLOT_ROWS == i) & (_SLOT_COLS == i)][0] for i in range(8)])
# Where each element's slots start in that flat order, and what they sum to
# per unit of the element: the slot count over the divisor, written out
# because 4 / sqrt2 rounds one ulp away from 2 sqrt2.
_SLOT_STARTS = np.searchsorted(_SLOT_SOURCE, np.arange(8))
_SLOT_SUMS = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0)])


# Entries that can be nonzero in the reduced state, the slots above:
# populations of the symmetric sector, the |000><101|-type coherences and the
# |100><111|-type coherences.  Everything else vanishes because each field
# component conserves photon number plus atomic excitation.
PATTERN_MASK = np.zeros((8, 8), dtype=bool)
PATTERN_MASK[_SLOT_ROWS, _SLOT_COLS] = True
PATTERN_MASK.setflags(write=False)


def _field_factors(theta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank factors of the field-weight tables, independent of the squeezing.

    The diagonal-band weights regroup by the photon numbers q, p left in the
    c1 and c2 cavities as ``W0 = U0.T @ diag(norm0) @ U0`` and the m = n + 1
    coherence band as ``W1 = U1.T @ diag(norm1) @ U1``.  Row n of ``U0`` is the
    squared binomial row of n photons reversed (so it is indexed by
    q = n - k); row n of ``U1`` is the reversed product of the rows for n and
    n + 1.  The squeezing only enters through the norms, see
    `_squeeze_norms`.  At theta = pi the factors are ``U0 = I`` and
    ``U1 = [I 0]``; at theta = 0 every row of ``U0`` picks q = 0 and ``U1``
    is zero: both are 0/1 selections (`_selection`).
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


def _pair_block_amplitudes(cos_f: np.ndarray, sin_f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-atom block amplitudes per tau (rows) against photon number q = 0..count-1.

    ``cos_f`` and ``sin_f`` hold cos and sin of the pair's phases
    sqrt(2(2q-1)) tau for q = 1..count-1 (columns).
    Returns (stay, one_up, two_up): the amplitudes for the symmetric pair to
    absorb zero, one or two photons out of q.  The generic expressions
    reference sqrt(2(2q-1)), which only exists for q >= 1, so the empty-cavity
    entries (stay = 1, others 0) are set directly; at q = 1 the two-photon
    rung vanishes through its sqrt(q(q-1)) factor.  The arithmetic runs in
    place in the three returned arrays.
    """
    shape = (cos_f.shape[0], cos_f.shape[1] + 1)
    stay, one_up, two_up = np.empty(shape), np.empty(shape), np.empty(shape)
    stay[:, :1], one_up[:, :1], two_up[:, :1] = 1.0, 0.0, 0.0
    q = np.arange(1, shape[1], dtype=float)
    denom = 2.0 * q - 1.0
    stay_q, one_q, two_q = stay[:, 1:], one_up[:, 1:], two_up[:, 1:]
    np.add(q - 1.0, np.multiply(q, cos_f, out=stay_q), out=stay_q)
    stay_q /= denom
    np.multiply(np.sqrt(q), sin_f, out=one_q)
    one_q /= np.sqrt(denom)
    np.multiply(np.sqrt(q * (q - 1.0)), np.subtract(cos_f, 1.0, out=two_q), out=two_q)
    two_q /= denom
    return stay, one_up, two_up


# Tau points evaluated together.  Sizes the workspace that each
# `closed_form_grid` call allocates once, after its result, and every chunk
# reuses: (points, n_max + 2) work arrays for a whole 600-point sweep would
# raise the peak resident set by MBs, and work arrays made afresh per chunk
# would be trimmed from the heap and faulted back in by the next chunk.
_TAU_CHUNK = 64
# A tau axis is arithmetic when every point lies within this many ulps of
# its largest tau from its chunk's first point plus j steps; the command
# line's grids and np.linspace stay within 3.
_GRID_ULPS = 8.0
# Veltkamp's constant, 2**27 + 1: splits a double into two halves of at most
# 26 significant bits, whose products are exact.
_SPLITTER = 134217729.0
_SPLIT_LIMIT = sys.float_info.max / _SPLITTER  # larger values overflow in the split


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split x = hi + lo, exactly, with hi and lo of at most 26 significant bits."""
    scaled = _SPLITTER * x
    hi = scaled - (scaled - x)
    return hi, x - hi


def _exact_phase_trig(
    x: np.ndarray, rates: np.ndarray, cos: np.ndarray, sin: np.ndarray, phase: np.ndarray, error: np.ndarray
) -> None:
    """cos and sin of the exact products x[:, None] * rates into cos and sin, to a few ulps of 1.

    ``phase`` and ``error`` are work arrays of the same (len(x), len(rates))
    shape.  The rounded product p and its rounding error e (Dekker's
    two-product, p + e = x * rate exactly) give cos(p + e) = cos p - e sin p
    and sin(p + e) = sin p + e cos p, to first order in |e| <= ulp(p) / 2.
    """
    (x_hi, x_lo), (r_hi, r_lo) = _split(x), _split(rates)
    np.multiply.outer(x, rates, out=phase)
    np.cos(phase, out=cos)
    np.sin(phase, out=sin)
    np.subtract(np.multiply.outer(x_hi, r_hi, out=error), phase, out=error)
    error += np.multiply.outer(x_hi, r_lo, out=phase)
    error += np.multiply.outer(x_lo, r_hi, out=phase)
    error += np.multiply.outer(x_lo, r_lo, out=phase)
    cos -= np.multiply(error, sin, out=phase)
    # with the corrected cos, which moves sin by e^2 only
    sin += np.multiply(error, cos, out=error)


def _grid_residuals(taus: np.ndarray) -> tuple[float, np.ndarray] | None:
    """The step h of an arithmetic tau axis and each point's residual, or None for any other axis.

    Point i = start + j of the chunk that starts at ``start`` is
    ``taus[start] + fl(j h) + residual[i]``, with h = (last - first) / (n - 1)
    and the residual exact to rounding of its own size (Knuth's two-sum for
    the difference from the chunk's first point).  The axis is arithmetic
    when it has at least two points and every residual is within
    `_GRID_ULPS` ulps of its largest tau.  Larger taus than Veltkamp's split
    takes without overflow also take the per-point path.
    """
    count = len(taus)
    if count < 2:
        return None
    largest = taus.max()
    if not largest <= _SPLIT_LIMIT:
        return None
    step = (taus[-1] - taus[0]) / (count - 1)
    bound = _GRID_ULPS * np.spacing(largest)
    # the second point's residual, to within its rounding, settles most
    # other axes in a few scalar operations
    if not abs(taus[1] - taus[0] - step) <= 2.0 * bound:
        return None
    j = np.arange(count) % _TAU_CHUNK
    anchors = taus[np.arange(count) - j]
    difference = taus - anchors
    back = difference - taus
    rounding = (taus - (difference - back)) + (-anchors - back)
    residuals = (difference - j * step) + rounding
    if not np.abs(residuals).max() <= bound:
        return None
    return step, residuals


def _tau_trig(taus: np.ndarray, *rate_blocks: np.ndarray):
    """cos and sin of the phases taus x rates, one `_TAU_CHUNK` of taus and one block of rates at a time.

    Returns ``trig(start, block)``: cos and sin of the chunk of taus from
    ``start`` against ``rate_blocks[block]``, two (points, rates) views of
    one workspace that the next call overwrites.  On an arithmetic axis
    (`_grid_residuals`) libm runs once per in-chunk offset and once per
    chunk, not once per point: with a = tau_start * rate and b = j h * rate
    from per-call tables of their exact products (`_exact_phase_trig`),
    cos(a + b) = cos a cos b - sin a sin b and sin(a + b) = sin a cos b +
    cos a sin b, corrected to first order in each point's residual phase
    residual * rate.  Each value is then within a few ulps of 1 of cos and
    sin of the exact product tau * rate, where a per-point ``np.cos`` of the
    rounded product is off by up to ulp(tau * rate) / 2.  Any other axis is
    evaluated point by point.
    """
    rows, width = min(_TAU_CHUNK, len(taus)), max(map(len, rate_blocks))
    cos_w, sin_w, scratch_w = (np.empty(rows * width) for _ in range(3))
    grid = _grid_residuals(taus)
    tables = []
    if grid is not None:
        step, residuals = grid
        offsets, starts = np.arange(rows) * step, taus[::_TAU_CHUNK]
        for rates in rate_blocks:
            # the offsets' table, with the chunk buffers as its work arrays
            cos_step, sin_step = np.empty((2, rows, len(rates)))
            work = (_leading(w, rows, len(rates)) for w in (cos_w, sin_w))
            _exact_phase_trig(offsets, rates, cos_step, sin_step, *work)
            cos_start, sin_start = np.empty((2, len(starts), len(rates)))
            _exact_phase_trig(starts, rates, cos_start, sin_start, *np.empty((2, len(starts), len(rates))))
            tables.append((cos_step, sin_step, cos_start, sin_start))

    def trig(start: int, block: int) -> tuple[np.ndarray, np.ndarray]:
        rates = rate_blocks[block]
        points = min(_TAU_CHUNK, len(taus) - start)
        cos, sin, scratch = (_leading(w, points, len(rates)) for w in (cos_w, sin_w, scratch_w))
        if grid is None:
            np.multiply.outer(taus[start : start + points], rates, out=scratch)
            np.cos(scratch, out=cos)
            np.sin(scratch, out=sin)
            return cos, sin
        cos_step, sin_step, cos_start, sin_start = tables[block]
        cos_a, sin_a = cos_start[start // _TAU_CHUNK], sin_start[start // _TAU_CHUNK]
        cos_b, sin_b = cos_step[:points], sin_step[:points]
        np.multiply(cos_b, cos_a, out=cos)
        cos -= np.multiply(sin_b, sin_a, out=scratch)
        np.multiply(cos_b, sin_a, out=sin)
        sin += np.multiply(sin_b, cos_a, out=scratch)
        # the residual phase is a few ulps of tau * rate, so its square is far
        # below rounding, and sin may take it in from the corrected cos
        residual = residuals[start : start + points]
        cos -= np.multiply(np.multiply.outer(residual, rates, out=scratch), sin, out=scratch)
        sin += np.multiply(np.multiply.outer(residual, rates, out=scratch), cos, out=scratch)
        return cos, sin

    return trig


def _selection(factor: np.ndarray) -> np.ndarray | None:
    """How a 0/1 selection factor picks columns: ``x @ factor.T`` is ``x[:, picks]``.

    A selection factor holds at most one nonzero entry per row, and that
    entry is exactly 1.  Returns the column each row picks (-1 for an
    all-zero row), or None for any other factor.
    """
    nonzero = factor != 0.0
    if (nonzero.sum(axis=1) > 1).any() or (factor[nonzero] != 1.0).any():
        return None
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), -1)


def _times_factor(
    a: np.ndarray,
    b: np.ndarray,
    factor: np.ndarray,
    picks: np.ndarray | None,
    square: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``(a * b) @ factor.T`` into out, with `_selection`'s ``picks`` of the factor.

    a * b is formed in ``square``.  A selection is applied by indexing, with
    no product, and an all-zero row writes 0: a product by a selection row
    is its one picked entry times 1 plus products with 0, so the copy is bit
    for bit the product.  Any other factor takes the BLAS product.
    """
    np.multiply(a, b, out=square)
    if picks is None:
        return np.matmul(square, factor.T, out=out)
    np.take(square, picks, axis=1, out=out, mode="wrap")
    np.copyto(out, 0.0, where=picks < 0)
    return out


def _leading(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The first prod(shape) slots of a flat workspace buffer, as a C-contiguous array."""
    return buffer[: math.prod(shape)].reshape(shape)


def _fill_elements(
    out: np.ndarray,
    taus: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
    norm0: np.ndarray,
    norm1: np.ndarray,
) -> None:
    """`closed_form_grid` written to out (len(taus), S, 8), `_TAU_CHUNK` taus at a time.

    Every chunk reuses one workspace of flat buffers.  Each product lands in a
    C-contiguous view of the leading slots of one of them, the layout of a
    fresh array, so every element rounds as a freshly allocated product would.
    A field factor that is a 0/1 selection (`_selection`), as both are at
    theta = 0 and theta = pi, is applied by indexing (`_times_factor`); any
    other takes the BLAS product.  The squeeze norms always do.  The cos and
    sin of every phase come from `_tau_trig`.
    """
    size, rows = u0.shape[0], min(_TAU_CHUNK, len(taus))
    picks0, picks1 = _selection(u0), _selection(u1)
    # a squared amplitude or product, cos^2 @ U0.T, sin^2 @ U0.T and the
    # cavity-2 coherence product
    square_w, cos_u0_w, sin_u0_w, coh_w = (np.empty(rows * size) for _ in range(4))
    band0_w, band1_w = np.empty(6 * rows * size), np.empty(2 * rows * (size - 1))
    elements_w = np.empty(8 * rows * norm0.shape[0])
    # the pair's phases for q = 1..size (block 0), then cavity 2's for p =
    # 0..size (block 1): one photon number beyond the table each, so the
    # shifted (q+1, p+1) bra factors of the coherence band stay in range
    q = np.arange(1, size + 1, dtype=float)
    trig = _tau_trig(taus, np.sqrt(2.0 * (2.0 * q - 1.0)), np.sqrt(np.arange(size + 1, dtype=float)))
    for start in range(0, len(taus), _TAU_CHUNK):
        # looked up through the module on every chunk, so a test can substitute it
        stay, one_up, two_up = _pair_block_amplitudes(*trig(start, 0))
        cos_b, sin_b = trig(start, 1)
        points = len(cos_b)
        stay0, one0, two0 = stay[:, :size], one_up[:, :size], two_up[:, :size]
        cos0, sin0 = cos_b[:, :size], sin_b[:, :size]
        square, cos_u0, sin_u0 = (_leading(w, points, size) for w in (square_w, cos_u0_w, sin_u0_w))
        band0 = _leading(band0_w, 6, points, size)

        # Each element is sum_{q,p} W[q, p] a[q] b[p] = sum_n norm[n] (U a)[n] (U b)[n].
        _times_factor(cos0, cos0, u0, picks0, square, cos_u0)
        _times_factor(sin0, sin0, u0, picks0, square, sin_u0)
        for k, x in enumerate((stay0, one0, two0)):
            pair = _times_factor(x, x, u0, picks0, square, band0[k + 3])
            np.multiply(pair, cos_u0, out=band0[k])
            pair *= sin_u0

        coh_u1 = _leading(coh_w, points, size - 1)
        band1 = _leading(band1_w, 2, points, size - 1)
        _times_factor(cos0, sin_b[:, 1:], u1, picks1, square, coh_u1)
        for k, (x, y) in enumerate(((stay0, one_up[:, 1:]), (one0, two_up[:, 1:]))):
            _times_factor(x, y, u1, picks1, square, band1[k])
            band1[k] *= coh_u1
        np.negative(band1[0], out=band1[0])

        elements = _leading(elements_w, 8, points, norm0.shape[0])
        np.matmul(band0, norm0.T, out=elements[:6])
        np.matmul(band1, norm1.T, out=elements[6:])
        out[start : start + points] = np.moveaxis(elements, 0, -1)


def closed_form_grid(taus, squeezes, theta: float, n_max: int) -> np.ndarray:
    """The independent real elements of the analytic state on a (tau, s) grid.

    Returns an array of shape (len(taus), len(squeezes), 8) holding, per
    point, the populations r11, r22, r33, r44, r55, r66 (r22 and r55 are the
    weights of the symmetric one-excitation states of the c1 pair) and the
    coherences r15, r26; `states_from_elements` assembles them into 8x8
    matrices.  Populations come from the diagonal field band, the two
    coherences from the m = n + 1 band.  With the exp(-i H tau) convention in
    both cavities the |000><101|-type coherence is minus the product of the
    four real block amplitudes; the |100><111|-type coherence is plus.  A
    tau whose phase overflows at the largest rate, the pair's sqrt(4 n_max
    + 2), is refused by name.
    """
    taus = require_finite_nonnegative("tau", taus).reshape(-1)
    squeezes = require_finite_nonnegative("squeeze parameter s", squeezes).reshape(-1)
    require_photon_number("n_max", n_max)
    # the pair's rates sqrt(2 (2q - 1)), q <= n_max + 1, exceed cavity 2's sqrt(p)
    require_finite_phases(taus, math.sqrt(4.0 * n_max + 2.0))
    require_theta(theta)  # before float() reads a bool as 1.0
    u0, u1 = _field_factors(float(theta), int(n_max))
    norm0, norm1 = _squeeze_norms(squeezes, n_max + 1)
    out = np.empty((taus.size, squeezes.size, 8))
    _fill_elements(out, taus, u0, u1, norm0, norm1)
    return out


def _require_elements(elements) -> np.ndarray:
    """``elements`` (..., 8) as a float array, or a ValueError naming ``elements``.

    A bool or non-real element is refused (a complex one is not cut to its
    real part), then a last axis other than 8, then a non-finite element.
    """
    elements = _real_array("elements", elements, "each")
    if elements.ndim == 0 or elements.shape[-1] != 8:
        raise ValueError(f"elements must have a last axis of 8, got shape {elements.shape}")
    finite = np.isfinite(elements)
    if not finite.all():
        raise ValueError(f"elements must be finite, got {elements[~finite][0]}")
    return elements


def _slot_entries(elements: np.ndarray) -> np.ndarray:
    """The value each element (..., 8) is stored with in every one of its slots: element / divisor."""
    return elements / _ELEMENT_DIVISORS


def states_from_elements(elements: np.ndarray) -> np.ndarray:
    """The real 8x8 states, shape (..., 8, 8), from elements of `closed_form_grid` (..., 8).

    Raises ValueError, naming ``elements``, for a bool or non-real element
    (a complex one is not cut to its real part), a last axis other than 8
    or a non-finite element.
    """
    elements = _require_elements(elements)
    m = np.zeros(elements.shape[:-1] + (8, 8))
    m[..., _SLOT_ROWS, _SLOT_COLS] = _slot_entries(elements)[..., _SLOT_SOURCE]
    return m


def _populations(elements: np.ndarray) -> np.ndarray:
    """The eight basis-state populations (..., 8) of the states of checked elements (..., 8).

    Read through the slot table, so they are bit for bit the
    `diagonal_probabilities` of `states_from_elements`, with no 8x8 state.
    """
    return _slot_entries(elements)[..., _DIAGONAL_SOURCE]


def _elements_of_states(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The elements of states (..., 8, 8), shape (..., 8), and the spread of their slots (...).

    Each element is the real part of its slots' sum over `_SLOT_SUMS`, the
    way back from `states_from_elements`.  The spread is the largest
    difference between two slots of one element, or the largest imaginary
    part of a slot; it is 0 for every state `states_from_elements` makes.
    """
    slots = states[..., _SLOT_ROWS, _SLOT_COLS]
    real = slots.real
    elements = np.add.reduceat(real, _SLOT_STARTS, axis=-1) / _SLOT_SUMS
    spread = np.maximum.reduceat(real, _SLOT_STARTS, axis=-1)
    spread -= np.minimum.reduceat(real, _SLOT_STARTS, axis=-1)
    return elements, np.maximum(spread.max(axis=-1), np.abs(slots.imag).max(axis=-1))


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
