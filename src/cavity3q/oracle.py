"""Brute-force reference dynamics on the truncated Hilbert space.

Everything in this module avoids the trigonometric closed forms and the
binomial field weights they are built on.  The beam splitters and the
atom-field couplings are written as explicit generators on Fock spaces:
the beam splitters are applied by a Chebyshev series of products with
their generator, the couplings are exponentiated through symmetric
eigendecompositions, and the reflected beams and the cavity fields are
traced out numerically.  Agreement with the analytic reduced state is the
package's core correctness check.

Field side: each beam-splitter generator conserves the photon number of its
(external, cavity) mode pair, so its total-photon blocks are exact, with no
truncation edge.  Each block is real, antisymmetric and tridiagonal, and
the blocks are packed into one flat vector with exactly zero hops between
them.  One Chebyshev recursion of products with those hops applies every
block to its injected state, and each angle sums the terms with its own
Bessel coefficients, from Miller's backward recurrence; no eigensolver is
used.  Row n of the result gives the amplitudes ``A[th, n, k]`` of keeping
k of the n injected photons in the external port
(`_beam_splitter_columns`), and each row's norm is checked.  Nothing is
cached: the module keeps no state between calls.

Atom side: the evolution works in the bare product basis (no coupled
collective-spin states), so it independently validates the symmetric-block
structure that the closed forms assume.  The coupling Hamiltonian is real
and is kept as its list of nonzero entries (`_coupling_edges`).  It is
solved in real arithmetic, one connected component of those entries at a
time (`_coupling_components`, found from the entries, not from an
excitation count), and only where a component holds an initial state.
Each evolved ket is its component's propagator column, exactly zero
outside it, with real and imaginary parts from two real products.

The reduced state is the sum over every pair (n, m) of squeezed-pair photon
numbers, not only the |n - m| <= 1 bands the closed forms keep, so their
selection rule is checked rather than assumed.  The external-port trace and
the (n, m) sum are one loop over the diagonals d = n - m >= 0
(`_diagonal_term`): per diagonal, one real matrix product per cavity traces
the port for every angle at once, and one product folds the two cavities'
factors with the squeezed-pair weights.  A diagonal on which the photon
supports of either cavity's kets never meet (`_support_bands`, read from
the computed kets, not from a conservation law) adds exact zeros and is
left out, which leaves every bit of the sum as it is; the photon-traced
overlaps are computed on the other diagonals only (`_gram_bands`).
Diagonal -d is added as the conjugate transpose of diagonal d, which is
exact because the photon-traced overlaps form a Gram matrix.  A whole
(theta, tau, s) grid costs one propagator per tau: `full_evolution_grid`.
`full_evolution` is its grid of one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fock_field import (
    FieldConfig,
    require_finite_nonnegative,
    require_finite_phases,
    require_nonnegative_number,
    require_photon_number,
    require_thetas,
)
from .tavis_cummings import PATTERN_MASK, ThreeQubitDensityMatrix

__all__ = [
    "full_evolution_grid",
    "full_evolution",
    "ComparisonReport",
    "compare_states",
]


# Largest imaginary part `full_evolution_grid` drops from its states.  The
# reduced state is real (real couplings, squeeze parameter and beam-splitter
# angle); the complex propagators leave rounding residue, at most 1.3e-16 on
# the oracle-check grid at n_max 40 and at n_max 80.
_IMAGINARY_TOL = 1e-12

# Smallest entry `compare_states` reports off the zero pattern
_PATTERN_TOL = 1e-10

# Smallest Bessel coefficient |J_k| the Chebyshev series of a beam
# splitter keeps.  Each term has norm at most 2 |J_k|, and past the cutoff
# |J_k| falls faster than geometrically, so the terms left out move a unit
# amplitude row by about 1e-17.
_BESSEL_CUTOFF = 1e-17

# Chebyshev terms summed by one matrix-vector product per angle, sized by
# measurement at the three check angles (one BLAS thread, medians): from 8
# to 32 terms the call takes 1.53 to 1.40 ms at n_max 40 and 267 to 230 ms
# at n_max 380, and 4 terms are slower at both.  A batch of 16 holds 16 * 8
# bytes per packed slot, 9.3 MB at n_max 380.
_TERM_BATCH = 16


def _bessel_row(x: float) -> np.ndarray:
    """``J_0(x), ..., J_K(x)`` for x >= 0, up to the last k with ``|J_k(x)| >= 1e-17``.

    Miller's backward recurrence ``J_{k-1} = (2k / x) J_k - J_{k+1}``,
    started far enough above the order x that the start values have decayed
    out by the last kept order, and scaled by ``J_0 + 2 (J_2 + J_4 + ...) =
    1``.  Below x = 2e-17, J_1(x) ~ x / 2 is under the cutoff and J_0(x)
    rounds to 1, so the row is [1.0].
    """
    if x < 2.0 * _BESSEL_CUTOFF:
        return np.ones(1)
    top = int(x + 25.0 * x ** (1.0 / 3.0)) + 40
    # J_{top + 1}, J_top, ..., J_0, up to one common scale
    tail = [0.0, 1.0]
    for k in range(top, 0, -1):
        tail.append(2.0 * k / x * tail[-1] - tail[-2])
        if abs(tail[-1]) > 1e250:
            tail = [v * 1e-250 for v in tail]
    row = np.array(tail[:0:-1])
    row /= math.fsum([row[0], *(2.0 * row[2::2])])
    return row[: np.flatnonzero(np.abs(row) >= _BESSEL_CUTOFF)[-1] + 1]


def _beam_splitter_columns(thetas, n_max: int) -> np.ndarray:
    """Amplitudes ``A[th, n, k] = <k external, n - k cavity| U_BS(theta) |n external, 0 cavity>``.

    The beam splitter exp(theta G), G = (c f' - c' f) / 2 with ``c`` the
    cavity mode and ``f`` the external one, moves photons between the two
    modes and conserves their sum, so the block of total photon number N is
    exact, with no truncation edge.  In block N, slot e = 0..N holds |e
    external, N - e cavity>, and G is real, antisymmetric and tridiagonal:
    ``(G u)[e] = h[e - 1] u[e - 1] - h[e] u[e + 1]`` with the hops ``h[e] =
    sqrt((e + 1)(N - e)) / 2``.  The blocks are packed flat, block N after
    block N - 1; the hop out of a block's last slot, e = N, is exactly 0, so
    one flat G holds every block uncoupled.

    Row N of the table is ``exp(theta G)`` applied to the last slot of
    block N (all N photons arrive in the external mode and the cavity
    starts empty), by the Chebyshev series of Tal-Ezer & Kosloff (J. Chem.
    Phys. 81, 3967 (1984)) on the Hermitian ``i G``, with rho the Gershgorin
    bound of G.  Its terms ``(-i)^k T_k(i G / rho) v`` are the real vectors
    ``u_{k+1} = 2 (G / rho) u_k + u_{k-1}``, ``u_1 = (G / rho) u_0``, and

        exp(theta G) v = sum_k c_k J_k(theta rho) u_k,  c_0 = 1, c_k = 2,

    so one recursion of products with the hops serves every block and every
    angle.  Each angle sums its own Bessel row (`_bessel_row`), one
    fixed-shape product per batch of terms, so its amplitudes do not depend
    on the other angles of the call.  Entries with k > n are exactly zero.
    Raises RuntimeError when a row's norm is off 1 by more than 1e-10.
    """
    thetas = np.asarray(thetas, dtype=float)
    size = n_max + 1
    # slot (N, e) of the packed blocks, block N at offset N (N + 1) / 2
    photons, kept = np.tril_indices(size)
    hop = 0.5 * np.sqrt((kept + 1.0) * (photons - kept))
    # (G u)[i] = lo[i] u[i - 1] - hop[i] u[i + 1]
    lo = np.concatenate(([0.0], hop[:-1]))
    rho = (lo + hop).max()
    coefficients = [_bessel_row(theta * rho) for theta in thetas]
    terms = max(map(len, coefficients), default=1)
    # zero-padded, so that every batch of terms takes a full slice
    weights = np.zeros((len(thetas), terms + _TERM_BATCH))
    for weight, row in zip(weights, coefficients):
        weight[: len(row)] = 2.0 * row
        weight[0] = row[0]
    if rho:
        lo, hop = lo * (2.0 / rho), hop * (2.0 / rho)
    # a ring of term rows, each with a zero slot at both ends
    ring = np.zeros((_TERM_BATCH, len(hop) + 2))
    diagonal = np.arange(size)
    ring[0, 1 + diagonal * (diagonal + 3) // 2] = 1.0  # slot (N, N)
    # each row's slots, and its slots shifted by one to either side
    slots, below, above = ([row[i : len(row) - 2 + i] for row in ring] for i in (1, 0, 2))
    scratch = np.empty(len(hop))
    columns = np.zeros((len(thetas), len(hop) + 2))
    for k in range(terms):
        here = k % _TERM_BATCH
        if k:
            new, last = slots[here], here - 1
            np.multiply(lo, below[last], out=new)
            np.multiply(hop, above[last], out=scratch)
            new -= scratch
            if k == 1:
                new *= 0.5
            else:
                new += slots[here - 2]
        if here == _TERM_BATCH - 1 or k == terms - 1:
            first = k - here
            for column, weight, row in zip(columns, weights, coefficients):
                if first < len(row):
                    column += weight[first : first + _TERM_BATCH] @ ring
    amps = np.zeros((len(thetas), size, size))
    amps[:, photons, kept] = columns[:, 1:-1]
    worst = np.abs(np.linalg.norm(amps, axis=2) - 1.0).max(initial=0.0)
    # written so that a NaN norm fails too
    if not worst <= 1e-10:
        raise RuntimeError(f"beam-splitter column lost norm: |norm - 1| = {worst:.3g} > 1e-10")
    return amps


def _coupling_edges(num_atoms: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries ``(rows, cols, values)`` of sum_i (sigma+_i a + sigma-_i a'), each once.

    The Hamiltonian acts on the bare (atoms x field) space.  Atom basis
    index is a bit string with atom 0 the least significant bit; flat index
    = atom_index * dim + photons.  Each entry ``|raised, p - 1><a, p|
    sqrt(p)`` is listed with its Hermitian partner; the values are real.
    """
    atoms, atom = np.divmod(np.arange(2**num_atoms * num_atoms), num_atoms)
    # sigma+ annihilates an atom that is already excited
    ground = (atoms >> atom) & 1 == 0
    atoms, raised = atoms[ground], (atoms | 1 << atom)[ground]
    photons = np.arange(1, dim)
    rows = (raised[:, None] * dim + photons - 1).ravel()
    cols = (atoms[:, None] * dim + photons).ravel()
    values = np.tile(np.sqrt(photons), len(atoms))
    return (
        np.concatenate((rows, cols)),
        np.concatenate((cols, rows)),
        np.concatenate((values, values)),
    )


def _coupling_components(rows: np.ndarray, cols: np.ndarray, size: int) -> list[np.ndarray]:
    """Connected components of the edges ``(rows, cols)`` on ``size`` nodes, stacked by width.

    One (count, width) index array per component width.  Each node takes the
    lowest label among its neighbours and itself, then the label of that
    label, until nothing changes; every component then carries the label of
    its lowest node.  Rows list a component's nodes in ascending order.
    Nothing about the Hamiltonian's conservation laws is assumed: the
    components are read from its nonzero entries.
    """
    labels = np.arange(size)
    while True:
        lowest = labels.copy()
        np.minimum.at(lowest, rows, labels[cols])
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    members: dict[int, list[int]] = {}
    for node, label in enumerate(labels.tolist()):
        members.setdefault(label, []).append(node)
    by_size: dict[int, list[list[int]]] = {}
    for nodes in members.values():
        by_size.setdefault(len(nodes), []).append(nodes)
    return [np.array(stack) for stack in by_size.values()]


def _evolved_components(num_atoms: int, dim: int, taus: np.ndarray, count: int) -> np.ndarray:
    """Evolved kets U(tau) |all ground, q photons> for each tau and q = 0..count-1.

    Returns an array (len(taus), count, 2**num_atoms, dim) of amplitudes.
    The all-ground initial states are the nodes 0..count-1.  Only the
    coupling components that hold one are solved, one stacked eigensolve
    per component size (`_coupling_components`), each block gathered from
    the edge list (`_coupling_edges`); each initial state j gets its
    component's propagator column ``V (e^(-i tau L) * V[j])`` from two real
    matrix-vector products per tau, and exact zeros elsewhere.  A tau whose
    phase overflows at a component's largest rate is refused by name before
    that component's cos and sin.  The propagators are unitary to rounding,
    so the norm check fails only on a non-finite or failed solve.
    """
    rows, cols, values = _coupling_edges(num_atoms, dim)
    size = 2**num_atoms * dim
    psi = np.zeros((len(taus), count, size), dtype=complex)
    for nodes in _coupling_components(rows, cols, size):
        nodes = nodes[(nodes < count).any(axis=1)]
        if not nodes.size:
            continue
        # each node's row in the stacked blocks, component * width +
        # position, and -1 off the stack; an edge never leaves its component
        width = nodes.shape[1]
        place = np.full(size, -1)
        place[nodes] = np.arange(nodes.size).reshape(nodes.shape)
        inside = place[rows] >= 0
        blocks = np.zeros(nodes.size * width)
        blocks[place[rows[inside]] * width + place[cols[inside]] % width] = values[inside]
        vals, vecs = np.linalg.eigh(blocks.reshape(len(nodes), width, width))
        require_finite_phases(taus, float(np.abs(vals).max()))
        # the (component, position) of each initial state
        comp, pos = np.nonzero(nodes < count)
        start = vecs[comp, pos, :, None]
        angles = np.multiply.outer(taus, vals[comp])[..., None]
        kets, amplitudes = nodes[comp, pos, None], nodes[comp]
        psi.real[:, kets, amplitudes] = (vecs[comp] @ (np.cos(angles) * start))[..., 0]
        psi.imag[:, kets, amplitudes] = (vecs[comp] @ (-np.sin(angles) * start))[..., 0]
    worst = np.abs(np.linalg.norm(psi, axis=2) - 1.0).max()
    # written so that a NaN norm fails too
    if not worst <= 1e-10:
        raise RuntimeError(f"evolved component lost norm: |norm - 1| = {worst:.3g} > 1e-10")
    return psi.reshape(len(taus), count, 2**num_atoms, dim)


def _gram_bands(psi: np.ndarray, diagonals) -> list[np.ndarray]:
    """Diagonals d of the photon-traced Gram tensor, each as rows ``B[t, a, j, 2a']``.

    ``G[t, j + d, a, j, a'] = sum_p psi[t, j + d, a, p] conj(psi[t, j, a', p])``
    is the field trace of the evolved ket of j + d photons (atom state a)
    against that of j photons (atom state a'), one small product per (tau,
    j); the kets are conjugated once for every diagonal.  The complex
    entries of a' are viewed as their real and imaginary parts, the float
    layout that `_port_traced_diagonal` multiplies.
    """
    count = psi.shape[1]
    bras = psi.conj().swapaxes(-1, -2)
    return [(psi[:, d:] @ bras[:, : count - d]).swapaxes(1, 2).view(float) for d in diagonals]


def _support_bands(psi: np.ndarray) -> set[int]:
    """Bands d = q - r >= 0 on which the photon supports of kets q and r meet.

    ``S[q, p]`` is 1 where ket q has a nonzero amplitude on p photons, at
    any tau and atom state; ``S S^T`` counts the photon numbers two kets
    share.  Off these bands every Gram term has an exactly zero factor.
    """
    support = psi.any(axis=(0, 2)).astype(float)
    q, r = np.nonzero(support @ support.T)
    return set((q - r)[q >= r].tolist())


def _diagonal_weights(amps: np.ndarray, d: int) -> np.ndarray:
    """Port-trace weights of diagonal d, ``M[th, p, j] = A[th, p + d, p - j] A[th, p, p - j]``.

    ``amps`` is the `_beam_splitter_columns` table of every angle.  p and j count
    along the diagonal d = n - m of the output and of the Gram tensor, and
    p - j is the number of photons left in the external port, so M is lower
    triangular.  Where j > p the index p - j < 0 wraps to column
    size + p - j > p, where row p of A is exactly zero.
    """
    p = np.arange(amps.shape[1] - d)[:, None]
    kept = p - p.T
    return amps[:, d + p, kept] * amps[:, p, kept]


def _port_traced_diagonal(band: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``X[th, t, a, p, a'] = sum_j M[th, p, j] G[t, j + d, a, j, a']``, diagonal d of one cavity.

    One cavity's share of the reduced state for squeezed-pair photon
    numbers n = p + d (ket) and m = p (bra), with the photons left in the
    external port traced out: ``X[n, m] = sum_k A[n, k] A[m, k] G[n - k,
    m - k]``.  For each (tau, a), row j of the band (`_gram_bands`) holds
    the real and imaginary parts of a', so the trace is one real matrix
    product per (angle, tau, a), viewed back as complex.
    """
    return (weights[:, None, None] @ band).view(complex)


def _diagonal_term(
    bands: tuple[np.ndarray, np.ndarray], amps: np.ndarray, lam: np.ndarray, d: int
) -> np.ndarray:
    """``sum_p lambda_{p+d} lambda_p X2[p + d, p] (x) X1[p + d, p]``, diagonal d of the state sum.

    ``bands`` holds the Gram bands d of cavities c1 and c2 (`_gram_bands`).
    Each cavity's factor comes from one port-trace product
    (`_port_traced_diagonal`); one more product folds them with the pair
    weights, per (angle, tau) and c1 ket atom state a: rows (s, b, b') of
    the weighted c2 factor against (p, a') of the c1 factor.  Returns
    (angles, taus, a, (s, b, b'), a'), complex.
    """
    weights = _diagonal_weights(amps, d)
    x1, x2 = (_port_traced_diagonal(band, weights) for band in bands)
    length = lam.shape[1] - d
    pair = lam[:, d:] * lam[:, :length]
    # (angle, tau, s, b, b', p)
    c2 = x2.transpose(0, 1, 2, 4, 3)[:, :, None]
    weighted = np.multiply(pair[:, None, None], c2, order="C")
    return weighted.reshape(*x1.shape[:2], 1, -1, length) @ x1


def full_evolution_grid(taus, squeezes, thetas, n_max: int) -> np.ndarray:
    """Reduced three-qubit states by explicit evolution and field trace, on a (theta, tau, s) grid.

    Returns an array of shape (len(thetas), len(taus), len(squeezes), 8, 8).
    The squeezed pair ``sum_n lambda_n(s) |n, n>``, ``lambda_n =
    tanh(s)^n / cosh(s)`` for n <= n_max, enters the cavities through
    `_beam_splitter_columns`; each cavity's injected photon number is
    evolved through the bare-basis propagator (with two extra photon slots
    of headroom), and the external ports and both cavity fields are traced
    out; a tau whose phase overflows at a coupling rate is refused by name.
    The state is

        rho(s) = sum_{n, m} lambda_n(s) lambda_m(s) X2[n, m] (x) X1[n, m]

    summed one diagonal d = n - m >= 0 at a time (`_diagonal_term`), over
    every diagonal on which, in both cavities, the photon supports of some
    kets q and q - d meet (`_support_bands`); the others add exact zeros.  Only those diagonals
    of each cavity's Gram tensor are computed (`_gram_bands`).  Diagonal -d
    is the conjugate transpose of diagonal d, exactly, because each
    cavity's X[m, n] is X[n, m]^dagger (G is a Gram matrix), so it is added
    as such.  One Chebyshev recursion of the beam-splitter blocks serves
    every angle, and the propagators and Gram bands depend only on tau, so
    each is computed once per call for all angles.  The sum is complex; the
    states are returned real (float64) after checking that no imaginary
    part exceeds 1e-12 (RuntimeError otherwise).  An empty axis gives an
    empty grid.  Cost grows steeply with the truncation: one (tau, s) point
    at three angles takes about 0.09 s of CPU and 43 MB of peak memory at
    n_max 240, and 0.29 s and 58 MB at n_max 380 (one BLAS thread, one Xeon
    core, fresh process); the closed forms carry production scale.
    """
    taus = require_finite_nonnegative("tau", taus).reshape(-1)
    squeezes = require_finite_nonnegative("squeeze parameter s", squeezes).reshape(-1)
    thetas = require_thetas(thetas).reshape(-1)
    require_photon_number("n_max", n_max)
    if not (taus.size and squeezes.size and thetas.size):
        return np.zeros((len(thetas), len(taus), len(squeezes), 8, 8))
    size = n_max + 1
    dim = n_max + 3
    amps = _beam_splitter_columns(thetas, n_max)
    kets = [_evolved_components(atoms, dim, taus, size) for atoms in (2, 1)]
    diagonals = sorted(_support_bands(kets[0]) & _support_bands(kets[1]))
    # (c1, c2) bands per diagonal; the kets are released before the sum
    bands = list(zip(*(_gram_bands(psi, diagonals) for psi in kets)))
    del kets
    # cosh(s) overflows to inf above s ~ 710, where the correctly rounded
    # amplitudes are 0, which is what dividing by inf gives
    with np.errstate(over="ignore"):
        lam = np.tanh(squeezes)[:, None] ** np.arange(size) / np.cosh(squeezes)[:, None]

    # each ket has norm 1, so it meets itself: diagonals[0] is 0
    rho = _diagonal_term(bands[0], amps, lam, 0)
    folded = np.zeros_like(rho)
    for d, pair in zip(diagonals[1:], bands[1:]):
        folded += _diagonal_term(pair, amps, lam, d)
    shape = (len(thetas), len(taus), 4, len(squeezes), 2, 2, 4)
    folded = folded.reshape(shape)
    # indices (a, s, b, b', a'); diagonal -d is the conjugate transpose of diagonal d
    rho = rho.reshape(shape) + folded + folded.transpose(0, 1, 6, 3, 5, 4, 2).conj()
    # flat index a + 4 b: the c1 pair is the low part, the c2 atom the high bit
    rho = rho.transpose(0, 1, 3, 4, 2, 5, 6).reshape(*shape[:2], len(squeezes), 8, 8)
    imaginary = np.abs(rho.imag).max(initial=0.0)
    # written so that a NaN fails too
    if not imaginary <= _IMAGINARY_TOL:
        raise RuntimeError(
            f"brute-force state has an imaginary part of {imaginary:.3g}, "
            f"above the bound {_IMAGINARY_TOL:g} for a real state"
        )
    return np.ascontiguousarray(rho.real)


def full_evolution(config: FieldConfig, tau: float) -> ThreeQubitDensityMatrix:
    """`full_evolution_grid` at one point."""
    tau = require_nonnegative_number("tau", tau)
    matrix = full_evolution_grid([tau], [config.s], [config.theta], config.n_max)[0, 0, 0]
    return ThreeQubitDensityMatrix(matrix, tau, config.s, config.theta, config.n_max)


class ComparisonReport(NamedTuple):
    """Elementwise comparison of two 8x8 states."""

    max_abs_diff: float
    worst_entry: tuple[int, int]
    pattern_violations: list[tuple[int, int, complex, complex]]


def compare_states(a, b) -> ComparisonReport:
    """Max elementwise difference plus any zero-pattern violations (above 1e-10) in either state.

    Raises ValueError for a state that is not 8x8, or not finite: the
    message names the argument, ``a`` or ``b``, and its shape or its first
    bad entry.
    """
    ma = np.asarray(getattr(a, "matrix", a))
    mb = np.asarray(getattr(b, "matrix", b))
    for name, m in (("a", ma), ("b", mb)):
        if m.shape != (8, 8):
            raise ValueError(f"{name} must be 8x8, got shape {m.shape}")
        bad = np.argwhere(~np.isfinite(m))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"{name} must be finite, got entry [{i},{j}] = {m[i, j]}")
    diff = np.abs(ma - mb)
    worst_flat = int(np.argmax(diff))
    worst = (worst_flat // 8, worst_flat % 8)
    larger = np.maximum(np.abs(ma), np.abs(mb))
    rows, cols = np.nonzero(~PATTERN_MASK & (larger > _PATTERN_TOL))
    violations = [
        (int(i), int(j), complex(ma[i, j]), complex(mb[i, j])) for i, j in zip(rows, cols)
    ]
    return ComparisonReport(float(diff.max()), worst, violations)
