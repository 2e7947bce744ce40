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
products: `closed_form_grid`.  At theta = pi the snapped half-angle makes
the factors exactly ``U0 = I`` and ``U1 = [I 0]``, which take no product:
each band is the elementwise product of the amplitudes' leading columns,
the values of the product up to the sign of a zero.  Every other factor,
theta = 0's included, takes the BLAS product.  `closed_form_rho` is its
grid of one.

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
    ``U1 = [I 0]`` (`_is_identity_prefix`); at theta = 0 every row of ``U0``
    picks q = 0 and ``U1`` is zero.
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


def _pair_block_amplitudes(cos_f: np.ndarray, sin_f: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, ...]:
    """Two-atom block amplitudes per tau (rows) against photon number q = 0..count-1, in place.

    ``cos_f`` and ``sin_f`` hold cos and sin of the pair's phases
    sqrt(2(2q-1)) tau for q = 1..count-1 (columns), after a column for q = 0
    whose values are never read: any finite ones, such as those of a rate
    of 0.  Returns (stay, one_up, two_up): the amplitudes for the symmetric
    pair to absorb zero, one or two photons out of q, written over
    ``cos_f``, ``sin_f`` and ``spare``, an array of their shape whose values
    are not read.  The generic expressions reference sqrt(2(2q-1)), which
    only exists for q >= 1, so they run over whole rows and the
    empty-cavity column is then written as stay = 1, others 0; at q = 1 the
    two-photon rung vanishes through its sqrt(q(q-1)) factor.
    """
    q = np.arange(cos_f.shape[1], dtype=float)
    denom = 2.0 * q - 1.0
    # two_up first, while cos_f still holds the cosines
    two_up = np.multiply(np.sqrt(q * (q - 1.0)), np.subtract(cos_f, 1.0, out=spare), out=spare)
    two_up /= denom
    stay = np.add(q - 1.0, np.multiply(q, cos_f, out=cos_f), out=cos_f)
    stay /= denom
    one_up = np.multiply(np.sqrt(q), sin_f, out=sin_f)
    # |denom| keeps q = 0's square root real; that column is overwritten below
    one_up /= np.sqrt(np.abs(denom))
    stay[:, 0], one_up[:, 0], two_up[:, 0] = 1.0, 0.0, 0.0
    return stay, one_up, two_up


# Tau points evaluated together.  Sizes the workspace that each
# `closed_form_grid` call allocates once, after its result, and every chunk
# reuses: rows of n_max + 2 values, one per tau, so that each elementwise
# step of a chunk is one pass over a contiguous buffer.  One `_tau_trig`
# call per chunk writes cos and sin of the pair's and cavity 2's phases into
# it, and the pair's amplitudes are written over the pair's rows.  Work
# arrays for a whole 600-point sweep would raise the peak resident set by
# MBs, and work arrays made afresh per chunk would be trimmed from the heap
# and faulted back in by the next chunk.
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
    """cos and sin of the exact products x * rates into cos and sin, to a few ulps of 1.

    x and rates broadcast to the shape of cos and sin, and ``phase`` and
    ``error`` are work arrays of that shape too.  The rounded product p and
    its rounding error e (Dekker's two-product, p + e = x * rate exactly)
    give cos(p + e) = cos p - e sin p and sin(p + e) = sin p + e cos p, to
    first order in |e| <= ulp(p) / 2.
    """
    (x_hi, x_lo), (r_hi, r_lo) = _split(x), _split(rates)
    np.multiply(x, rates, out=phase)
    np.cos(phase, out=cos)
    np.sin(phase, out=sin)
    np.subtract(np.multiply(x_hi, r_hi, out=error), phase, out=error)
    error += np.multiply(x_hi, r_lo, out=phase)
    error += np.multiply(x_lo, r_hi, out=phase)
    error += np.multiply(x_lo, r_lo, out=phase)
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


def _tau_trig(taus: np.ndarray, rates: np.ndarray):
    """cos and sin of the phases taus x rates, one `_TAU_CHUNK` of taus at a time, every row of rates at once.

    Returns ``trig(start)``: cos and sin of the chunk of taus from ``start``
    against each row of ``rates`` (rows, width), and a spare of their shape
    whose values are not read, three (rows, points, width) views of one
    workspace that the next call overwrites.  On an arithmetic axis
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
    shape = (len(rates), min(_TAU_CHUNK, len(taus)), rates.shape[1])
    cos_w, sin_w, scratch_w = np.empty((3, math.prod(shape)))
    rates = rates[:, None, :]
    grid = _grid_residuals(taus)
    if grid is not None:
        step, residuals = grid
        # the offsets' table, with the chunk buffers as its work arrays
        cos_step, sin_step = np.empty((2, *shape))
        offsets = np.arange(shape[1])[:, None] * step
        _exact_phase_trig(offsets, rates, cos_step, sin_step, cos_w.reshape(shape), sin_w.reshape(shape))
        starts = taus[::_TAU_CHUNK, None]
        cos_start, sin_start, *work = np.empty((4, shape[0], len(starts), shape[2]))
        _exact_phase_trig(starts, rates, cos_start, sin_start, *work)

    def trig(start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        points = min(_TAU_CHUNK, len(taus) - start)
        cos, sin, scratch = (_leading(w, shape[0], points, shape[2]) for w in (cos_w, sin_w, scratch_w))
        if grid is None:
            np.multiply(taus[start : start + points, None], rates, out=scratch)
            np.cos(scratch, out=cos)
            np.sin(scratch, out=sin)
            return cos, sin, scratch
        chunk = start // _TAU_CHUNK
        cos_a, sin_a = cos_start[:, chunk, None], sin_start[:, chunk, None]
        cos_b, sin_b = cos_step[:, :points], sin_step[:, :points]
        np.multiply(cos_b, cos_a, out=cos)
        cos -= np.multiply(sin_b, sin_a, out=scratch)
        np.multiply(cos_b, sin_a, out=sin)
        sin += np.multiply(sin_b, cos_a, out=scratch)
        # the residual phase is a few ulps of tau * rate, so its square is far
        # below rounding, and sin may take it in from the corrected cos
        residual = residuals[start : start + points, None]
        cos -= np.multiply(np.multiply(residual, rates, out=scratch), sin, out=scratch)
        sin += np.multiply(np.multiply(residual, rates, out=scratch), cos, out=scratch)
        return cos, sin, scratch

    return trig


def _is_identity_prefix(factor: np.ndarray) -> bool:
    """Whether an (m, k) factor is ``[I 0]``: ones on its diagonal, m <= k and no other nonzero.

    Then ``x @ factor.T`` is the leading m columns of x, which is what
    theta = pi's ``U0 = I`` and ``U1 = [I 0]`` select.  It counts the
    nonzeros and reads the diagonal, so it allocates no (m, k) temporary.
    """
    diagonal = np.diagonal(factor)
    return bool(len(diagonal) == len(factor) == np.count_nonzero(factor) and (diagonal == 1.0).all())


def _times_factor(
    x: np.ndarray,
    y: np.ndarray,
    shift: int,
    factor: np.ndarray,
    identity_prefix: bool,
    square: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``(x[:, :k] * y[:, shift:shift + k]) @ factor.T`` into out's leading m columns, factor (m, k).

    x, y, ``square`` and out are C-contiguous (points, width) arrays with
    k + shift <= width, and ``identity_prefix`` is `_is_identity_prefix` of
    the factor.  The product is formed over the whole flat buffers, y read
    ``shift`` (0 or 1) slots on, so each row's columns from m on hold values
    that nothing is meant to read: with a shift of 1 its last column pairs
    x's with the next row's first, and the last row's last slot keeps what
    it held.  For ``[I 0]`` the leading m columns of that flat product are
    the result, formed straight in out with no product by the factor: each
    value is its one entry times 1 plus products with 0, which the BLAS
    product gives too, up to the sign of a zero.  Any other factor takes
    the BLAS product of the leading columns of ``square``.
    """
    m, k = factor.shape
    flat = (out if identity_prefix else square).reshape(-1)
    np.multiply(x.reshape(-1)[: flat.size - shift], y.reshape(-1)[shift:], out=flat[: flat.size - shift])
    if not identity_prefix:
        np.matmul(square[:, :k], factor.T, out=out[:, :m])
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

    Every chunk reuses one workspace of flat buffers, zeroed once per call,
    whose rows hold one tau's values at photon numbers 0..n_max + 1.  So
    every elementwise step, from cos and sin to the bands, is one pass over
    whole rows, and the columns past a band's width get finite values that
    nothing reads.  One `_tau_trig` call per chunk writes cos and sin of
    both cavities' phases into its workspace, and the pair's amplitudes are
    written over the pair's rows there (`_pair_block_amplitudes`).  A field
    factor that is ``[I 0]`` (`_is_identity_prefix`), as both are at theta
    = pi, takes no product (`_times_factor`): the bands are the amplitudes'
    elementwise products.  Any other factor takes the BLAS product, and so
    do the squeeze norms, each on a view of a band's leading columns with
    rows n_max + 2 apart.  BLAS reads such a view through its leading
    dimension, in the order it reads a C-contiguous copy, so each element
    rounds the same: with OpenBLAS at one and two threads, the elements of
    1,296 grids (8 angles from 0 to pi, n_max 0 to 80, axes of 1 to 600
    taus, 1 to 200 squeezes) are bit for bit those of products formed in
    C-contiguous arrays of each band's width, and the tests hold
    `_times_factor` to it.
    """
    size, rows = u0.shape[0], min(_TAU_CHUNK, len(taus))
    width = size + 1
    prefix0, prefix1 = _is_identity_prefix(u0), _is_identity_prefix(u1)
    # a squared amplitude or product, cos^2 @ U0.T, sin^2 @ U0.T and the
    # cavity-2 coherence product
    work = [np.zeros(rows * width) for _ in range(4)]
    band0_w, band1_w = np.zeros(6 * rows * width), np.zeros(2 * rows * width)
    elements_w = np.empty(8 * rows * norm0.shape[0])
    # the pair's rates for q = 0..size (row 0), with q = 0's rate 0 for a
    # column `_pair_block_amplitudes` overwrites, then cavity 2's for p =
    # 0..size (row 1): one photon number beyond the table each, so the
    # shifted (q+1, p+1) bra factors of the coherence band stay in range
    q = np.arange(1, width, dtype=float)
    pair_rates = np.concatenate(([0.0], np.sqrt(2.0 * (2.0 * q - 1.0))))
    trig = _tau_trig(taus, np.stack((pair_rates, np.sqrt(np.arange(width, dtype=float)))))
    for start in range(0, len(taus), _TAU_CHUNK):
        (cos_f, cos_b), (sin_f, sin_b), (spare, _) = trig(start)
        # looked up through the module on every chunk, so a test can substitute it
        stay, one_up, two_up = _pair_block_amplitudes(cos_f, sin_f, spare)
        points = len(cos_b)
        square, cos_u0, sin_u0, coh_u1 = (_leading(w, points, width) for w in work)
        band0, band1 = _leading(band0_w, 6, points, width), _leading(band1_w, 2, points, width)

        # Each element is sum_{q,p} W[q, p] a[q] b[p] = sum_n norm[n] (U a)[n] (U b)[n].
        _times_factor(cos_b, cos_b, 0, u0, prefix0, square, cos_u0)
        _times_factor(sin_b, sin_b, 0, u0, prefix0, square, sin_u0)
        for k, x in enumerate((stay, one_up, two_up)):
            pair = _times_factor(x, x, 0, u0, prefix0, square, band0[k + 3])
            np.multiply(pair, cos_u0, out=band0[k])
            pair *= sin_u0

        _times_factor(cos_b, sin_b, 1, u1, prefix1, square, coh_u1)
        for k, (x, y) in enumerate(((stay, one_up), (one_up, two_up))):
            _times_factor(x, y, 1, u1, prefix1, square, band1[k])
            band1[k] *= coh_u1
        np.negative(band1[0], out=band1[0])

        elements = _leading(elements_w, 8, points, norm0.shape[0])
        np.matmul(band0[..., :size], norm0.T, out=elements[:6])
        np.matmul(band1[..., : size - 1], norm1.T, out=elements[6:])
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
