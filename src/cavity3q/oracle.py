"""Brute-force reference dynamics on the truncated Hilbert space.

Everything in this module avoids the trigonometric closed forms and the
binomial field weights they are built on.  The beam splitters and the
atom-field couplings are written as explicit matrices on Fock spaces and
exponentiated through Hermitian eigendecompositions; the reflected beams and
the cavity fields are traced out numerically.  Agreement with the analytic
reduced state is the package's core correctness check.

Field side: each beam-splitter generator conserves the photon number of its
(external, cavity) mode pair, so it is exponentiated one total-photon block
at a time, exactly (`_beam_splitter_block`).  The last column of block n
gives the amplitudes ``A[n, k]`` of keeping k of the n injected photons in
the external port.

Atom side: the evolution works in the bare product basis (no coupled
collective-spin states), so it independently validates the symmetric-block
structure that the closed forms assume.

The reduced state is summed over every pair (n, m) of squeezed-pair photon
numbers, not only the |n - m| <= 1 bands the closed forms keep, so their
selection rule is checked rather than assumed.  The sum factorises over the
two cavities, and a whole (tau, s) grid costs one propagator per tau and one
matrix product: `full_evolution_grid`.  `full_evolution` is its grid of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock_field import (
    FieldConfig,
    require_finite_nonnegative,
    require_n_max,
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
# angle); the complex propagators leave rounding residue, at most 1e-16 on
# the oracle-check grid at n_max 40 and 6.4e-16 at n_max 80.
_IMAGINARY_TOL = 1e-12


def _beam_splitter_block(theta: float, photons: int) -> np.ndarray:
    """Beam-splitter unitary exp[(theta/2)(c f' - c' f)] on ``photons`` total photons.

    ``c`` is the cavity mode and ``f`` the external one.  The generator moves
    photons between them and conserves their sum, so the block of total
    photon number N is exact, with no truncation edge.  Rows and columns
    e = 0..N index |e external, N - e cavity>.  The generator is real and
    antisymmetric, so the block is real orthogonal; it is exponentiated as
    exp(-i H) with the Hermitian H = i * generator, and the imaginary
    rounding residue is dropped.
    """
    require_photon_number("photon number", photons)
    e = np.arange(photons, dtype=float)
    # c f' |e, N - e> = sqrt((e + 1)(N - e)) |e + 1, N - e - 1>; c' f is its transpose
    hop = 0.5 * theta * np.sqrt((e + 1.0) * (photons - e))
    generator = np.diag(hop, -1) - np.diag(hop, 1)
    vals, vecs = np.linalg.eigh(1j * generator)
    return ((vecs * np.exp(-1j * vals)) @ vecs.conj().T).real


@lru_cache(maxsize=8)
def _beam_splitter_columns(theta: float, n_max: int) -> np.ndarray:
    """Amplitudes ``A[n, k] = <k external, n - k cavity| U_BS |n external, 0 cavity>``.

    Row n is the last column of the n-photon block: all n photons arrive in
    the external mode and the cavity starts empty.  Entries with k > n are
    zero.  Cached per (theta, n_max) and read-only.
    """
    amps = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        amps[n, : n + 1] = _beam_splitter_block(theta, n)[:, n]
    amps.setflags(write=False)
    return amps


def _full_coupling_hamiltonian(num_atoms: int, dim: int) -> np.ndarray:
    """sum_i (sigma+_i a + sigma-_i a') on the bare (atoms x field) space.

    Atom basis index is a bit string with atom 0 the least significant bit;
    flat index = atom_index * dim + photons.
    """
    atom_dim = 2**num_atoms
    size = atom_dim * dim
    h = np.zeros((size, size), dtype=complex)
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
    """Eigendecomposition of `_full_coupling_hamiltonian`, cached and read-only."""
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
    phases = np.exp(-1j * np.multiply.outer(taus, vals))
    columns = (vecs * phases[:, None, :]) @ vecs[:count].conj().T
    psi = columns.swapaxes(1, 2).reshape(len(taus), count, 2**num_atoms, dim)
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


def _port_traced(gram: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """``X[t, n, m] = sum_k A[n, k] A[m, k] G[t, n - k, m - k]``.

    One cavity's share of the reduced state for squeezed-pair photon numbers
    n (ket) and m (bra), with the k photons left in the external port traced
    out.  Built by adding shifted slices, one per k.
    """
    size = amps.shape[0]
    out = np.zeros_like(gram)
    for k in range(size):
        col = amps[k:, k]
        weights = np.multiply.outer(col, col)[..., None, None]
        out[:, k:, k:] += weights * gram[:, : size - k, : size - k]
    return out


def full_evolution_grid(taus, squeezes, theta: float, n_max: int) -> np.ndarray:
    """Reduced three-qubit states by explicit evolution and field trace, on a (tau, s) grid.

    Returns an array of shape (len(taus), len(squeezes), 8, 8).  The squeezed
    pair ``sum_n lambda_n(s) |n, n>``, ``lambda_n = tanh(s)^n / cosh(s)`` for
    n <= n_max, enters the cavities through `_beam_splitter_block`; each
    cavity's injected photon number is evolved through the bare-basis
    propagator (with two extra photon slots of headroom), and the external
    ports and both cavity fields are traced out.  The state is

        rho(s) = sum_{n, m} lambda_n(s) lambda_m(s) X2[n, m] (x) X1[n, m]

    with `_port_traced` giving each cavity's X, summed over all (n, m).  The
    field amplitudes depend only on theta and the propagators only on tau, so
    each is built once per call.  The sum is complex; the states are returned
    real (float64) after checking that no imaginary part exceeds 1e-12
    (RuntimeError otherwise).  Intended for moderate truncations
    (n_max <= 80 or so); the closed forms carry production scale.
    """
    taus = require_finite_nonnegative("tau", taus).reshape(-1)
    squeezes = require_finite_nonnegative("squeeze parameter s", squeezes).reshape(-1)
    require_n_max(n_max)
    require_theta(theta)
    size = n_max + 1
    dim = n_max + 3
    amps = _beam_splitter_columns(float(theta), int(n_max))
    x1 = _port_traced(_photon_traced_gram(_evolved_components(2, dim, taus, size)), amps)
    x2 = _port_traced(_photon_traced_gram(_evolved_components(1, dim, taus, size)), amps)

    lam = np.tanh(squeezes)[:, None] ** np.arange(size) / np.cosh(squeezes)[:, None]
    pair_weights = (lam[:, :, None] * lam[:, None, :]).reshape(len(squeezes), size * size)
    # sum over (n, m) as one product per tau: rows (s, b, b') of the weighted
    # c2 factor against columns (a, a') of the c1 factor
    x1 = x1.reshape(len(taus), size * size, 16)
    x2 = x2.reshape(len(taus), size * size, 4).swapaxes(1, 2)
    weighted = (pair_weights[None, :, None, :] * x2[:, None]).reshape(len(taus), -1, size * size)
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
    diff: np.ndarray
    pattern_violations: list[tuple[int, int, complex, complex]]

    def table(self) -> str:
        lines = ["|difference| by entry:"]
        for i in range(8):
            lines.append(" ".join(f"{self.diff[i, j]:9.2e}" for j in range(8)))
        return "\n".join(lines)


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
    return ComparisonReport(float(diff.max()), worst, diff, violations)
