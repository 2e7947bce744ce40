"""Brute-force reference dynamics on the truncated Hilbert space.

Everything in this module avoids the trigonometric closed forms: beam
splitters and atom-field couplings are written as explicit matrices on the
truncated Fock space, exponentiated through Hermitian eigendecompositions,
and the cavity fields are traced out numerically.  Agreement with the
analytic reduced state is the package's core correctness check.

The atom-field evolution here works in the bare product basis (no coupled
collective-spin states), so it independently validates the symmetric-block
structure that the closed forms assume.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock_field import FieldConfig, enumerate_field_terms
from .tavis_cummings import PATTERN_MASK, ThreeQubitDensityMatrix

__all__ = [
    "annihilation",
    "truncated_beam_splitter",
    "hamiltonian_block_evolution",
    "full_evolution",
    "ComparisonReport",
    "compare_states",
]


def annihilation(dim: int) -> np.ndarray:
    """Photon annihilation operator on a Fock space truncated at dim - 1."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def _expm_hermitian(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(-i * scale * h) for Hermitian h, via eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * scale * vals)) @ vecs.conj().T


def truncated_beam_splitter(theta: float, dim: int) -> np.ndarray:
    """Beam-splitter unitary exp[(theta/2)(c f' - c' f)] on two truncated modes.

    Mode order is external (x) cavity, flat index e * dim + c.  The generator
    is anti-Hermitian, so the matrix is the exponential of -i times a
    Hermitian operator and comes out unitary to machine precision.  Columns
    with total photon number below ``dim`` are exact; only the truncation
    edge deviates from the infinite-dimensional operator.
    """
    if dim < 2:
        raise ValueError(f"per-mode dimension must be >= 2, got {dim}")
    a = annihilation(dim)
    c_op = np.kron(np.eye(dim), a)
    f_op = np.kron(a, np.eye(dim))
    generator = 0.5 * theta * (c_op @ f_op.conj().T - c_op.conj().T @ f_op)
    return _expm_hermitian(1j * generator, 1.0)


def hamiltonian_block_evolution(n_or_m: int, tau: float, block: str) -> np.ndarray:
    """Numerically exponentiated photon-number block of the coupling Hamiltonian.

    ``block`` selects "two-atom" (symmetric ladder in c1, couplings
    sqrt(2n) and sqrt(2(n-1))) or "one-atom" (coupling sqrt(m) in c2).
    Built from the bare matrix elements and diagonalised, so it shares no
    code with the trigonometric forms it is used to check.
    """
    if not isinstance(n_or_m, (int, np.integer)) or n_or_m < 0:
        raise ValueError(f"photon number must be a non-negative integer, got {n_or_m!r}")
    if block == "two-atom":
        n = n_or_m
        if n == 0:
            return np.eye(1, dtype=complex)
        if n == 1:
            h = np.array([[0.0, math.sqrt(2.0)], [math.sqrt(2.0), 0.0]])
        else:
            b = math.sqrt(2.0 * n)
            a = math.sqrt(2.0 * (n - 1))
            h = np.array([[0.0, b, 0.0], [b, 0.0, a], [0.0, a, 0.0]])
    elif block == "one-atom":
        m = n_or_m
        if m == 0:
            return np.eye(1, dtype=complex)
        h = np.array([[0.0, math.sqrt(m)], [math.sqrt(m), 0.0]])
    else:
        raise ValueError(f"block must be 'two-atom' or 'one-atom', got {block!r}")
    return _expm_hermitian(h.astype(complex), tau)


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


_eigh_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _cached_eigh(num_atoms: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    key = (num_atoms, dim)
    if key not in _eigh_cache:
        vals, vecs = np.linalg.eigh(_full_coupling_hamiltonian(num_atoms, dim))
        _eigh_cache[key] = (vals, vecs)
    return _eigh_cache[key]


def _evolved_components(num_atoms: int, dim: int, tau: float, count: int) -> np.ndarray:
    """Evolved kets U(tau) |all ground, q photons> for q = 0..count-1.

    Returns an array (count, 2**num_atoms, dim) of amplitudes.  All-ground
    initial states sit at flat indices 0..count-1, so the evolved kets are
    simply the first ``count`` columns of the propagator.
    """
    vals, vecs = _cached_eigh(num_atoms, dim)
    u = (vecs * np.exp(-1j * tau * vals)) @ vecs.conj().T
    psi = u[:, :count].T.reshape(count, 2**num_atoms, dim)
    norms = np.linalg.norm(psi.reshape(count, -1), axis=1)
    if np.abs(norms - 1.0).max() > 1e-10:
        raise RuntimeError("evolved component lost norm; truncation too small")
    return psi


def full_evolution(config: FieldConfig, tau: float) -> ThreeQubitDensityMatrix:
    """Reduced three-qubit state by explicit evolution and field trace.

    Each injected-field component |q1, q2> is evolved through the bare-basis
    propagators (with two extra photon slots of headroom), outer products are
    accumulated with the field weights, and both cavity photon numbers are
    traced out.  Intended for moderate truncations (n_max <= 40 or so); the
    closed forms carry production scale.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    dim = config.n_max + 3
    count = config.n_max + 1
    psi1 = _evolved_components(2, dim, tau, count)
    psi2 = _evolved_components(1, dim, tau, count)
    # cross Gram tensors over the photon index: pair[q, r, a, a'] is the field
    # trace of (evolved q, atom a) against (evolved r, atom a')
    pair1 = np.einsum("qap,rbp->qrab", psi1, psi1.conj())
    pair2 = np.einsum("qap,rbp->qrab", psi2, psi2.conj())

    rho = np.zeros((8, 8), dtype=complex)
    dropped = 0.0
    for band in (0, 1):
        terms = list(enumerate_field_terms(config, band))
        if not terms:
            continue
        n = np.array([t.n for t in terms])
        k = np.array([t.k for t in terms])
        l = np.array([t.l for t in terms])
        w = np.array([t.weight for t in terms])
        q1 = n - k
        q2 = n - l
        valid = (q1 + band <= config.n_max) & (q2 + band <= config.n_max)
        if not valid.all():
            dropped += float(np.abs(w[~valid]).sum())
            n, k, l, w, q1, q2 = (x[valid] for x in (n, k, l, w, q1, q2))
        g1 = pair1[q1, q1 + band]
        g2 = pair2[q2, q2 + band]
        block = np.einsum("t,tbB,taA->baBA", w, g2, g1).reshape(8, 8)
        rho += block
        if band == 1:
            rho += block.conj().T
    if dropped > 0.0:
        warnings.warn(f"dropped field components with total weight {dropped:g}", stacklevel=2)
    return ThreeQubitDensityMatrix(rho, float(tau), config.s, config.theta, config.n_max)


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
