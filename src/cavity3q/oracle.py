"""Brute-force reference dynamics on the truncated Hilbert space.

Everything in this module avoids the trigonometric closed forms and the
binomial field weights they are built on.  The beam splitters and the
atom-field couplings are written as explicit matrices on Fock spaces and
exponentiated through symmetric eigendecompositions; the reflected beams and
the cavity fields are traced out numerically.  Agreement with the analytic
reduced state is the package's core correctness check.

Field side: each beam-splitter generator conserves the photon number of its
(external, cavity) mode pair, so it is exponentiated one total-photon block
at a time, exactly.  The Hermitian i * generator is imaginary and
tridiagonal; the diagonal unitary ``D = diag(i^e)`` turns it into the angle
times a fixed real symmetric tridiagonal matrix, so each block is solved
once per call in real arithmetic and each angle only scales its
eigenvalues.  The last column of block n gives the amplitudes ``A[th, n,
k]`` of keeping k of the n injected photons in the external port
(`_beam_splitter_columns`).  Nothing is cached: the module keeps no state
between calls.

Atom side: the evolution works in the bare product basis (no coupled
collective-spin states), so it independently validates the symmetric-block
structure that the closed forms assume.  The coupling Hamiltonian is real
and is solved in real arithmetic, one connected component of its nonzero
entries at a time (`_coupling_components`, found from the matrix, not from
an excitation count), and only where a component holds an initial state.
Each evolved ket is its component's propagator column, exactly zero
outside it, with real and imaginary parts from two real products.

The reduced state is the sum over every pair (n, m) of squeezed-pair photon
numbers, not only the |n - m| <= 1 bands the closed forms keep, so their
selection rule is checked rather than assumed.  The external-port trace and
the (n, m) sum are one loop over the diagonals d = n - m >= 0
(`_diagonal_term`): per diagonal, one real matrix product per cavity traces
the port for every angle at once, and one product folds the two cavities'
factors with the squeezed-pair weights.  A diagonal on which either
cavity's photon-traced overlaps are all exactly zero (`_live_bands`, read
from the computed tensors) adds exact zeros and is left out, which leaves
every bit of the sum as it is.  Diagonal -d is added as the conjugate
transpose of diagonal d, which is exact because the photon-traced overlaps
form a Gram matrix.  A whole (theta, tau, s) grid costs one propagator per
tau: `full_evolution_grid`.  `full_evolution` is its grid of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_field import (
    FieldConfig,
    require_finite_nonnegative,
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

# Sign of Re(i^d) or Im(i^d), whichever is nonzero, by d mod 4
_QUARTER_TURN_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


def _beam_splitter_columns(thetas: np.ndarray, n_max: int) -> np.ndarray:
    """Amplitudes ``A[th, n, k] = <k external, n - k cavity| U_BS(theta) |n external, 0 cavity>``.

    The beam splitter exp(theta G), G = (c f' - c' f) / 2 with ``c`` the
    cavity mode and ``f`` the external one, moves photons between the two
    modes and conserves their sum, so the block of total photon number N is
    exact, with no truncation edge.  Rows and columns e = 0..N index
    |e external, N - e cavity>.  The block is exp(-i theta H) with the
    Hermitian H = i G, and ``H = D T D*`` with ``D = diag(i^e)`` and T real
    symmetric tridiagonal, off-diagonals ``sqrt((e + 1)(N - e)) / 2``.  T
    does not depend on the angle, so each block is solved once per call for
    every angle, ``T = V L V^T``, and dropped once its row is written.  Row
    N of the table is the last column of block N (all N photons arrive in
    the external mode and the cavity starts empty), ``A[th, N, j] = U[j, N]
    = Re(i^(j-N) (V e^(-i theta L) V^T)[j, N])``: the cosine part where
    j - N is even, the sine part where it is odd.  Entries with k > n are
    exactly zero.
    """
    size = n_max + 1
    amps = np.zeros((len(thetas), size, size))
    # j - N for j = 0..N: the last N + 1 entries, for every block N
    offset = np.arange(-n_max, 1)
    sign = _QUARTER_TURN_SIGN[offset % 4]
    even_offset = offset % 2 == 0
    for photons in range(size):
        e = np.arange(photons, dtype=float)
        # c f' |e, N - e> = sqrt((e + 1)(N - e)) |e + 1, N - e - 1>; c' f is its transpose
        hop = 0.5 * np.sqrt((e + 1.0) * (photons - e))
        vals, vecs = np.linalg.eigh(np.diag(hop, -1) + np.diag(hop, 1))
        # row N of V: the injected state |N external, 0 cavity>
        last = vecs[photons]
        phase = np.multiply.outer(thetas, vals)
        # one matrix-vector product per angle: a stacked (angles, l) @ V.T
        # product rounds each angle differently depending on how many angles
        # share the call
        even = (vecs @ (np.cos(phase) * last)[:, :, None])[:, :, 0]
        odd = (vecs @ (np.sin(phase) * last)[:, :, None])[:, :, 0]
        tail = slice(n_max - photons, None)
        amps[:, photons, : photons + 1] = sign[tail] * np.where(even_offset[tail], even, odd)
    return amps


def _full_coupling_hamiltonian(num_atoms: int, dim: int) -> np.ndarray:
    """sum_i (sigma+_i a + sigma-_i a') on the bare (atoms x field) space, real.

    Atom basis index is a bit string with atom 0 the least significant bit;
    flat index = atom_index * dim + photons.
    """
    atom_dim = 2**num_atoms
    size = atom_dim * dim
    h = np.zeros((size, size))
    for a_idx in range(atom_dim):
        for atom in range(num_atoms):
            if (a_idx >> atom) & 1:
                continue  # atom already excited; sigma+ annihilates
            raised = a_idx | (1 << atom)
            for p in range(1, dim):
                # |raised, p-1><a_idx, p| * sqrt(p), plus Hermitian partner
                row = raised * dim + (p - 1)
                col = a_idx * dim + p
                h[row, col] += math.sqrt(p)
                h[col, row] += math.sqrt(p)
    return h


def _coupling_components(h: np.ndarray) -> list[np.ndarray]:
    """Connected components of ``h != 0``, stacked by size: one (count, size) index array each.

    Each node takes the lowest label among its neighbours and itself, then
    the label of that label, until nothing changes; every component then
    carries the label of its lowest node.  Rows list a component's nodes
    in ascending order.  Nothing about the Hamiltonian's conservation laws
    is assumed: the components are read from its nonzero entries.
    """
    rows, cols = np.nonzero(h)
    labels = np.arange(len(h))
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
    per component size (`_coupling_components`); each initial state j gets
    its component's propagator column ``V (e^(-i tau L) * V[j])`` from two
    real matrix-vector products per tau, and exact zeros elsewhere.  The
    propagators are unitary to rounding, so the norm check fails only on a
    non-finite or failed solve.
    """
    h = _full_coupling_hamiltonian(num_atoms, dim)
    psi = np.zeros((len(taus), count, len(h)), dtype=complex)
    for nodes in _coupling_components(h):
        nodes = nodes[(nodes < count).any(axis=1)]
        if not nodes.size:
            continue
        vals, vecs = np.linalg.eigh(h[nodes[:, :, None], nodes[:, None, :]])
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


def _photon_traced_gram(psi: np.ndarray) -> np.ndarray:
    """``G[t, q, a, r, a'] = sum_p psi[t, q, a, p] conj(psi[t, r, a', p])``.

    The field trace of the evolved ket of q photons (atom state a) against
    that of r photons (atom state a').  As a Gram matrix it satisfies
    ``G[t, r, a', q, a] = conj(G[t, q, a, r, a'])``.
    """
    taus, count, atoms, dim = psi.shape
    flat = psi.reshape(taus, count * atoms, dim)
    return (flat @ flat.conj().swapaxes(1, 2)).reshape(taus, count, atoms, count, atoms)


def _live_bands(gram: np.ndarray) -> set[int]:
    """Bands d = q - r >= 0 on which ``G[t, q, a, r, a']`` has a nonzero entry."""
    q, r = np.nonzero(gram.any(axis=(0, 2, 4)))
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


def _port_traced_diagonal(gram: np.ndarray, weights: np.ndarray, d: int) -> np.ndarray:
    """``X[th, t, a, p, a'] = sum_j M[th, p, j] G[t, j + d, a, j, a']``, diagonal d of one cavity.

    One cavity's share of the reduced state for squeezed-pair photon
    numbers n = p + d (ket) and m = p (bra), with the photons left in the
    external port traced out: ``X[n, m] = sum_k A[n, k] A[m, k] G[n - k,
    m - k]``.  On a float view of the Gram tensor the entries (j + d, a, j)
    form, for each (tau, a), a matrix whose row j holds the real and
    imaginary parts of a', so the trace is one real matrix product per
    (angle, tau, a), viewed back as complex.
    """
    rows = np.diagonal(gram.view(float), -d, 1, 3).swapaxes(-1, -2)
    return (weights[:, None, None] @ rows).view(complex)


def _diagonal_term(
    grams: tuple[np.ndarray, np.ndarray], amps: np.ndarray, lam: np.ndarray, d: int
) -> np.ndarray:
    """``sum_p lambda_{p+d} lambda_p X2[p + d, p] (x) X1[p + d, p]``, diagonal d of the state sum.

    Each cavity's factor comes from one port-trace product
    (`_port_traced_diagonal`); one more product folds them with the pair
    weights, per (angle, tau) and c1 ket atom state a: rows (s, b, b') of
    the weighted c2 factor against (p, a') of the c1 factor.  Returns
    (angles, taus, a, (s, b, b'), a'), complex.
    """
    weights = _diagonal_weights(amps, d)
    x1, x2 = (_port_traced_diagonal(gram, weights, d) for gram in grams)
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
    out.  The state is

        rho(s) = sum_{n, m} lambda_n(s) lambda_m(s) X2[n, m] (x) X1[n, m]

    summed one diagonal d = n - m >= 0 at a time (`_diagonal_term`), over
    every diagonal on which both cavities' Gram tensors have a nonzero entry
    (`_live_bands`); the others add exact zeros.  Diagonal -d is the
    conjugate transpose of diagonal d, exactly, because each cavity's
    X[m, n] is X[n, m]^dagger (G is a Gram matrix), so it is added as such.
    The beam-splitter blocks depend on neither theta nor tau, and the
    propagators and Gram tensors depend only on tau, so each is solved once
    per call for all angles.  The sum is complex; the states are returned
    real (float64) after checking that no imaginary part exceeds 1e-12
    (RuntimeError otherwise).  An empty axis gives an empty grid.  Cost
    grows steeply with the truncation: one (tau, s) point at three angles
    takes about 0.5 s of CPU and 58 MB of peak memory at n_max 240, and
    2.2 s and 95 MB at n_max 380 (one BLAS thread, one Xeon core); the
    closed forms carry production scale.
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
    grams = tuple(
        _photon_traced_gram(_evolved_components(atoms, dim, taus, size)) for atoms in (2, 1)
    )
    # cosh(s) overflows to inf above s ~ 710, where the correctly rounded
    # amplitudes are 0, which is what dividing by inf gives
    with np.errstate(over="ignore"):
        lam = np.tanh(squeezes)[:, None] ** np.arange(size) / np.cosh(squeezes)[:, None]

    rho = _diagonal_term(grams, amps, lam, 0)
    folded = np.zeros_like(rho)
    for d in sorted(_live_bands(grams[0]) & _live_bands(grams[1]) - {0}):
        folded += _diagonal_term(grams, amps, lam, d)
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


@dataclass(frozen=True)
class ComparisonReport:
    """Elementwise comparison of two 8x8 states."""

    max_abs_diff: float
    worst_entry: tuple[int, int]
    pattern_violations: list[tuple[int, int, complex, complex]]


def compare_states(a, b) -> ComparisonReport:
    """Max elementwise difference plus any zero-pattern violations (above 1e-10) in either state.

    Raises ValueError for a state that is not 8x8, or not finite: the
    message names the argument, ``a`` or ``b``, and its first bad entry.
    """
    ma = np.asarray(getattr(a, "matrix", a))
    mb = np.asarray(getattr(b, "matrix", b))
    if ma.shape != (8, 8) or mb.shape != (8, 8):
        raise ValueError("comparison expects 8x8 states")
    for name, m in (("a", ma), ("b", mb)):
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
