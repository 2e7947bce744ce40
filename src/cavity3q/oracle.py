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
times a fixed real symmetric tridiagonal matrix, so there is one angle-free
real solve per block, cached per n_max (`_beam_splitter_eigh`), and each
angle only scales its eigenvalues.  The last column of block n gives the
amplitudes ``A[n, k]`` of keeping k of the n injected photons in the
external port (`_beam_splitter_columns`).

Atom side: the evolution works in the bare product basis (no coupled
collective-spin states), so it independently validates the symmetric-block
structure that the closed forms assume.  The coupling Hamiltonian is real,
so it is diagonalised in real arithmetic too, and the real and imaginary
parts of the propagators ``exp(-i H tau)`` are two real matrix products.

The reduced state is summed over every pair (n, m) of squeezed-pair photon
numbers, not only the |n - m| <= 1 bands the closed forms keep, so their
selection rule is checked rather than assumed.  The port trace runs one
diagonal d = n - m of the photon-traced Gram tensor at a time, as one real
matrix product (`_port_traced`).  The sum factorises over the two cavities,
and a whole (tau, s) grid costs one propagator per tau and one matrix
product: `full_evolution_grid`.  `full_evolution` is its grid of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock_field import (
    FieldConfig,
    require_finite_nonnegative,
    require_photon_number,
    require_theta,
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
# angle); the complex propagators leave rounding residue, at most 5.3e-16 on
# the oracle-check grid at n_max 40 and 1.5e-15 at n_max 80.
_IMAGINARY_TOL = 1e-12

# Sign of Re(i^d) or Im(i^d), whichever is nonzero, by d mod 4
_QUARTER_TURN_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


@lru_cache(maxsize=8)
def _beam_splitter_eigh(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Angle-free eigensystems of the beam-splitter blocks N = 0..n_max, cached and read-only.

    The beam splitter exp(theta G), G = (c f' - c' f) / 2 with ``c`` the
    cavity mode and ``f`` the external one, moves photons between the two
    modes and conserves their sum, so the block of total photon number N is
    exact, with no truncation edge.  Rows and columns e = 0..N index
    |e external, N - e cavity>.  The block is exp(-i theta H) with the
    Hermitian H = i G, and ``H = D T D*`` with ``D = diag(i^e)`` and T real
    symmetric tridiagonal, off-diagonals ``sqrt((e + 1)(N - e)) / 2``.  T
    does not depend on the angle, so each block is solved once,
    ``T = V L V^T``.  Returns ``vals[N, l]`` and ``vecs[N, e, l]``, the
    eigenvalues and eigenvectors of block N, zero-padded past index N:
    (n_max + 1)^3 floats, 0.55 MB at n_max 40 and 4.3 MB at 80.
    """
    require_photon_number("n_max", n_max)
    size = n_max + 1
    vals = np.zeros((size, size))
    vecs = np.zeros((size, size, size))
    for photons in range(size):
        e = np.arange(photons, dtype=float)
        # c f' |e, N - e> = sqrt((e + 1)(N - e)) |e + 1, N - e - 1>; c' f is its transpose
        hop = 0.5 * np.sqrt((e + 1.0) * (photons - e))
        block_vals, block_vecs = np.linalg.eigh(np.diag(hop, -1) + np.diag(hop, 1))
        vals[photons, : photons + 1] = block_vals
        vecs[photons, : photons + 1, : photons + 1] = block_vecs
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


@lru_cache(maxsize=8)
def _beam_splitter_columns(theta: float, n_max: int) -> np.ndarray:
    """Amplitudes ``A[n, k] = <k external, n - k cavity| U_BS |n external, 0 cavity>``.

    Row n is the last column of the n-photon block: all n photons arrive in
    the external mode and the cavity starts empty.  From the eigensystem of
    `_beam_splitter_eigh`, ``U[j, n] = Re(i^(j-n) (V e^(-i theta L) V^T)[j, n])``:
    the cosine part where j - n is even, the sine part where it is odd.
    Entries with k > n are zero.  Cached per (theta, n_max) and read-only.
    """
    vals, vecs = _beam_splitter_eigh(n_max)
    size = n_max + 1
    # row n of block n: the injected state |n external, 0 cavity>
    last = vecs[np.arange(size), np.arange(size)]
    phase = theta * vals
    even = (vecs @ (np.cos(phase) * last)[:, :, None])[:, :, 0]
    odd = (vecs @ (np.sin(phase) * last)[:, :, None])[:, :, 0]
    offset = np.arange(size) - np.arange(size)[:, None]  # j - n
    amps = np.tril(_QUARTER_TURN_SIGN[offset % 4] * np.where(offset % 2 == 0, even, odd))
    amps.setflags(write=False)
    return amps


@lru_cache(maxsize=8)
def _port_weights(theta: float, n_max: int) -> tuple[np.ndarray, ...]:
    """Port-trace weights of each diagonal, ``M_d[p, r] = A[d + p, p - r] A[p, p - r]``.

    Entry d = 0..n_max is an (n_max + 1 - d) square lower-triangular matrix:
    p and r count along the diagonal d of the output and of the Gram tensor,
    and p - r is the number of photons left in the external port
    (`_port_traced`).  The weights of diagonal -d are those of d.  Built from
    `_beam_splitter_columns`, cached per (theta, n_max) and read-only.
    """
    amps = _beam_splitter_columns(theta, n_max)
    weights = []
    for d in range(n_max + 1):
        p = np.arange(n_max + 1 - d)[:, None]
        kept = p - p.T
        k = np.maximum(kept, 0)
        matrix = np.where(kept >= 0, amps[d + p, k] * amps[p, k], 0.0)
        matrix.setflags(write=False)
        weights.append(matrix)
    return tuple(weights)


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


@lru_cache(maxsize=8)
def _coupling_eigh(num_atoms: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Real eigendecomposition of `_full_coupling_hamiltonian`, cached and read-only."""
    vals, vecs = np.linalg.eigh(_full_coupling_hamiltonian(num_atoms, dim))
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def _evolved_components(num_atoms: int, dim: int, taus: np.ndarray, count: int) -> np.ndarray:
    """Evolved kets U(tau) |all ground, q photons> for each tau and q = 0..count-1.

    Returns an array (len(taus), count, 2**num_atoms, dim) of amplitudes.
    All-ground initial states sit at flat indices 0..count-1, so the evolved
    kets are the first ``count`` columns of each propagator.
    """
    vals, vecs = _coupling_eigh(num_atoms, dim)
    angles = np.multiply.outer(taus, vals)[:, None, :]
    # U(tau)[i, q] = (V e^(-i tau L) V^T)[i, q], indexed [q, i]: two real products
    psi = np.empty((len(taus), count, len(vals)), dtype=complex)
    psi.real = (vecs[:count] * np.cos(angles)) @ vecs.T
    psi.imag = (vecs[:count] * -np.sin(angles)) @ vecs.T
    psi = psi.reshape(len(taus), count, 2**num_atoms, dim)
    norms = np.linalg.norm(psi.reshape(len(taus), count, -1), axis=2)
    # written so that a NaN norm fails too
    if not np.abs(norms - 1.0).max() <= 1e-10:
        raise RuntimeError("evolved component lost norm; truncation too small")
    return psi


def _photon_traced_gram(psi: np.ndarray) -> np.ndarray:
    """``G[t, q, r, a, a'] = sum_p psi[t, q, a, p] conj(psi[t, r, a', p])``.

    The field trace of the evolved ket of q photons (atom state a) against
    that of r photons (atom state a').
    """
    taus, count, atoms, dim = psi.shape
    flat = psi.reshape(taus, count * atoms, dim)
    gram = flat @ flat.conj().swapaxes(1, 2)
    return gram.reshape(taus, count, atoms, count, atoms).swapaxes(2, 3)


def _port_traced(gram: np.ndarray, weights: tuple[np.ndarray, ...]) -> np.ndarray:
    """``X[t, n, m] = sum_k A[n, k] A[m, k] G[t, n - k, m - k]``.

    One cavity's share of the reduced state for squeezed-pair photon numbers
    n (ket) and m (bra), with the k photons left in the external port traced
    out.  Along a diagonal d = n - m this reads
    ``X[t, n, n - d] = sum_j A[n, n - j] A[n - d, n - j] G[t, j, j - d]``, a
    product with the weights ``M_|d|`` of `_port_weights` (rows and columns
    counted along the diagonal).  So each of the 2 n_max + 1 diagonals is one
    real matrix product, on a float view in which the real and imaginary
    parts of the Gram entries are columns.
    """
    taus, size, _, atoms, _ = gram.shape
    out = np.empty(gram.shape, dtype=complex)
    # entry (n, n - d) of the output sits at flat position n (size + 1) - d
    flat = out.reshape(taus, size * size, atoms, atoms).view(float)
    real_gram = gram.view(float)
    for d in range(1 - size, size):
        length = size - abs(d)
        start = max(d, 0) * (size + 1) - d
        part = np.diagonal(real_gram, -d, 1, 2) @ weights[abs(d)].T
        flat[:, start : start + length * (size + 1) : size + 1] = part.transpose(0, 3, 1, 2)
    return out


def full_evolution_grid(taus, squeezes, theta: float, n_max: int) -> np.ndarray:
    """Reduced three-qubit states by explicit evolution and field trace, on a (tau, s) grid.

    Returns an array of shape (len(taus), len(squeezes), 8, 8).  The squeezed
    pair ``sum_n lambda_n(s) |n, n>``, ``lambda_n = tanh(s)^n / cosh(s)`` for
    n <= n_max, enters the cavities through `_beam_splitter_columns`; each
    cavity's injected photon number is evolved through the bare-basis
    propagator (with two extra photon slots of headroom), and the external
    ports and both cavity fields are traced out.  The state is

        rho(s) = sum_{n, m} lambda_n(s) lambda_m(s) X2[n, m] (x) X1[n, m]

    with `_port_traced` giving each cavity's X, summed over all (n, m).  The
    beam-splitter eigensystems depend on neither theta nor tau (solved once
    per n_max), the port weights follow from them with one product per
    angle, and the propagators depend only on tau, so each is built at most
    once per call.  The sum is complex; the states are returned real
    (float64) after checking that no imaginary part exceeds 1e-12
    (RuntimeError otherwise).  Intended for moderate truncations
    (n_max <= 80 or so); the closed forms carry production scale.
    """
    taus = require_finite_nonnegative("tau", taus).reshape(-1)
    squeezes = require_finite_nonnegative("squeeze parameter s", squeezes).reshape(-1)
    require_photon_number("n_max", n_max)
    require_theta(theta)
    size = n_max + 1
    dim = n_max + 3
    weights = _port_weights(float(theta), int(n_max))
    x1 = _port_traced(_photon_traced_gram(_evolved_components(2, dim, taus, size)), weights)
    x2 = _port_traced(_photon_traced_gram(_evolved_components(1, dim, taus, size)), weights)

    # cosh(s) overflows to inf above s ~ 710, where the correctly rounded
    # amplitudes are 0, which is what dividing by inf gives
    with np.errstate(over="ignore"):
        lam = np.tanh(squeezes)[:, None] ** np.arange(size) / np.cosh(squeezes)[:, None]
    pair_weights = (lam[:, :, None] * lam[:, None, :]).reshape(len(squeezes), size * size)
    # sum over (n, m) as one product per tau: rows (s, b, b') of the weighted
    # c2 factor against columns (a, a') of the c1 factor
    x1 = x1.reshape(len(taus), size * size, 16)
    x2 = x2.reshape(len(taus), size * size, 4).swapaxes(1, 2)
    # C order, so that the reshape is a view rather than a copy of the product
    weighted = np.multiply(pair_weights[None, :, None, :], x2[:, None], order="C")
    weighted = weighted.reshape(len(taus), -1, size * size)
    rho = (weighted @ x1).reshape(len(taus), len(squeezes), 2, 2, 4, 4)
    # flat index a + 4 b: the c1 pair is the low part, the c2 atom the high bit
    rho = rho.transpose(0, 1, 2, 4, 3, 5).reshape(len(taus), len(squeezes), 8, 8)
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
    matrix = full_evolution_grid([tau], [config.s], config.theta, config.n_max)[0, 0]
    return ThreeQubitDensityMatrix(matrix, float(tau), config.s, config.theta, config.n_max)


@dataclass(frozen=True)
class ComparisonReport:
    """Elementwise comparison of two 8x8 states."""

    max_abs_diff: float
    worst_entry: tuple[int, int]
    pattern_violations: list[tuple[int, int, complex, complex]]


def compare_states(a, b, pattern_tol: float = 1e-10) -> ComparisonReport:
    """Max elementwise difference plus any zero-pattern violations in either state."""
    ma = np.asarray(getattr(a, "matrix", a))
    mb = np.asarray(getattr(b, "matrix", b))
    if ma.shape != (8, 8) or mb.shape != (8, 8):
        raise ValueError("comparison expects 8x8 states")
    diff = np.abs(ma - mb)
    worst_flat = int(np.argmax(diff))
    worst = (worst_flat // 8, worst_flat % 8)
    abs_a, abs_b = np.abs(ma), np.abs(mb)
    # Python's max(|a|, |b|), NaNs included: a NaN in ``a`` wins, one in ``b`` loses
    larger = np.where(abs_b > abs_a, abs_b, abs_a)
    rows, cols = np.nonzero(~PATTERN_MASK & (larger > pattern_tol))
    violations = [
        (int(i), int(j), complex(ma[i, j]), complex(mb[i, j])) for i, j in zip(rows, cols)
    ]
    return ComparisonReport(float(diff.max()), worst, violations)
