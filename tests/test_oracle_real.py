"""The oracle's real-arithmetic stages against the complex ones they replaced.

Each reference keeps the former code: the beam-splitter block exponentiated
through a complex Hermitian eigendecomposition at each angle, the coupling
Hamiltonian written entry by entry into a dense matrix, the coupling
propagators from a complex Hamiltonian, the photon-traced overlaps as one
dense Gram tensor over every pair of kets, and the port trace as one
shifted-slice add per photon number left in the external port, summed over
every (n, m) with no Hermitian fold.
"""

import math
from collections import Counter

import numpy as np
import pytest

import cavity3q.oracle as oracle
from cavity3q.cli import (
    ORACLE_CHECK_SQUEEZES,
    ORACLE_CHECK_TAUS,
    ORACLE_CHECK_THETAS,
    SweepConfig,
    run_oracle_check,
)
from cavity3q.oracle import (
    _beam_splitter_columns,
    _diagonal_weights,
    _evolved_components,
    _gram_bands,
    _port_traced_diagonal,
    full_evolution_grid,
)

THETAS = (math.pi / 3, math.pi / 2, math.pi, 1.1)


def _complex_beam_splitter_block(theta: float, photons: int) -> np.ndarray:
    e = np.arange(photons, dtype=float)
    hop = 0.5 * theta * np.sqrt((e + 1.0) * (photons - e))
    generator = np.diag(hop, -1) - np.diag(hop, 1)
    vals, vecs = np.linalg.eigh(1j * generator)
    return ((vecs * np.exp(-1j * vals)) @ vecs.conj().T).real


def _loop_coupling_hamiltonian(num_atoms: int, dim: int) -> np.ndarray:
    """sum_i (sigma+_i a + sigma-_i a'), one entry at a time; flat index = atom_index * dim + photons."""
    h = np.zeros((2**num_atoms * dim,) * 2)
    for a_idx in range(2**num_atoms):
        for atom in range(num_atoms):
            if (a_idx >> atom) & 1:
                continue  # atom already excited; sigma+ annihilates
            raised = a_idx | (1 << atom)
            for p in range(1, dim):
                # |raised, p-1><a_idx, p| * sqrt(p), plus Hermitian partner
                h[raised * dim + p - 1, a_idx * dim + p] += math.sqrt(p)
                h[a_idx * dim + p, raised * dim + p - 1] += math.sqrt(p)
    return h


def _dense_coupling_hamiltonian(num_atoms: int, dim: int) -> np.ndarray:
    """The coupling Hamiltonian as a dense matrix, from the oracle's edge list."""
    rows, cols, values = oracle._coupling_edges(num_atoms, dim)
    hamiltonian = np.zeros((2**num_atoms * dim,) * 2)
    np.add.at(hamiltonian, (rows, cols), values)
    return hamiltonian


def _complex_evolved_components(num_atoms: int, dim: int, taus: np.ndarray, count: int) -> np.ndarray:
    hamiltonian = _dense_coupling_hamiltonian(num_atoms, dim)
    vals, vecs = np.linalg.eigh(hamiltonian.astype(complex))
    phases = np.exp(-1j * np.multiply.outer(taus, vals))
    columns = (vecs * phases[:, None, :]) @ vecs[:count].conj().T
    return columns.swapaxes(1, 2).reshape(len(taus), count, 2**num_atoms, dim)


def dense_gram(psi: np.ndarray) -> np.ndarray:
    """``G[t, q, a, r, a'] = sum_p psi[t, q, a, p] conj(psi[t, r, a', p])``, every (q, r)."""
    taus, count, atoms, dim = psi.shape
    flat = psi.reshape(taus, count * atoms, dim)
    return (flat @ flat.conj().swapaxes(1, 2)).reshape(taus, count, atoms, count, atoms)


def dense_bands(gram: np.ndarray) -> set[int]:
    """Bands d = q - r >= 0 on which ``G[t, q, a, r, a']`` has a nonzero entry."""
    q, r = np.nonzero(gram.any(axis=(0, 2, 4)))
    return set((q - r)[q >= r].tolist())


def _shifted_slice_port_traced(gram: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """``X[t, n, m, a, a'] = sum_k A[n, k] A[m, k] G[t, n - k, a, m - k, a']``, every (n, m)."""
    size = amps.shape[0]
    gram = gram.swapaxes(2, 3)  # (t, q, r, a, a')
    out = np.zeros_like(gram)
    for k in range(size):
        col = amps[k:, k]
        weights = np.multiply.outer(col, col)[..., None, None]
        out[:, k:, k:] += weights * gram[:, : size - k, : size - k]
    return out


def _explicit_pair_sum(taus, squeezes, theta: float, n_max: int) -> np.ndarray:
    """The reduced state summed over every (n, m) one pair at a time, diagonal -d included."""
    dim, size = n_max + 3, n_max + 1
    amps = _beam_splitter_columns([theta], n_max)[0]
    x1, x2 = (
        _shifted_slice_port_traced(
            dense_gram(_evolved_components(atoms, dim, np.array(taus), size)), amps
        )
        for atoms in (2, 1)
    )
    rho = np.zeros((len(taus), len(squeezes), 8, 8), dtype=complex)
    for j, s in enumerate(squeezes):
        lam = np.tanh(s) ** np.arange(size) / np.cosh(s)
        for n in range(size):
            for m in range(size):
                # flat index a + 4 b: the c2 atom b is the high bit
                block = np.einsum("tbB,taA->tbaBA", x2[:, n, m], x1[:, n, m]).reshape(-1, 8, 8)
                rho[:, j] += lam[n] * lam[m] * block
    return rho


@pytest.mark.parametrize("theta", (0.0, 0.4, *THETAS))
def test_real_beam_splitter_block_matches_complex_solve(theta):
    # row n of the table is the last column of block n, for every block up to n_max 80
    amps = _beam_splitter_columns([theta], 80)[0]
    for photons in range(81):
        reference = _complex_beam_splitter_block(theta, photons)
        assert np.abs(amps[photons, : photons + 1] - reference[:, photons]).max() <= 1e-14
    assert not np.triu(amps, 1).any()


def test_oracle_keeps_no_state_between_calls(monkeypatch):
    args = (ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, ORACLE_CHECK_THETAS, 12)
    first = full_evolution_grid(*args)
    assert np.array_equal(full_evolution_grid(*args), first)
    halved = full_evolution_grid([tau / 2 for tau in ORACLE_CHECK_TAUS], *args[1:])
    # a halved Hamiltonian is solved on the very next call: the dynamics of half the time
    edges = oracle._coupling_edges

    def halved_edges(*args):
        rows, cols, values = edges(*args)
        return rows, cols, 0.5 * values

    monkeypatch.setattr(oracle, "_coupling_edges", halved_edges)
    slower = full_evolution_grid(*args)
    assert np.abs(slower - first).max() > 0.1
    assert np.abs(slower - halved).max() <= 1e-13


def test_oracle_check_solves_only_the_coupling_components(monkeypatch):
    # the beam splitters take no eigensolver: their Chebyshev series needs
    # only products with the hops.  The coupling Hamiltonians are solved one
    # stacked call per component size, never whole, and only the components
    # holding an initial state |ground, q photons>, q <= 8: for two atoms
    # the excitation sets N = 0 (1 node), 1 (3 nodes) and 2..8 (4 nodes),
    # for one atom N = 0 (1 node) and 1..8 (2 nodes); a stack holding none,
    # such as the 3-node set N = dim of two atoms, is never solved
    solved = Counter()
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        solved[a.shape] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _beam_splitter_columns(THETAS, 40)
    assert not solved
    report, status = run_oracle_check(SweepConfig(mode="oracle-check", oracle_n_max=8))
    assert status == 0 and len(ORACLE_CHECK_THETAS) == 3
    assert solved == Counter({(1, 1, 1): 2, (1, 3, 3): 1, (7, 4, 4): 1, (8, 2, 2): 1})


@pytest.mark.parametrize("num_atoms", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 9, 43])
def test_coupling_edges_are_the_loop_hamiltonian(num_atoms, dim):
    rows, cols, values = oracle._coupling_edges(num_atoms, dim)
    assert np.all(values != 0.0)
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    dense = _dense_coupling_hamiltonian(num_atoms, dim)
    assert np.array_equal(dense, _loop_coupling_hamiltonian(num_atoms, dim))


@pytest.mark.parametrize("num_atoms", [1, 2])
def test_real_coupling_solve_matches_complex_propagator(num_atoms):
    taus = np.array(ORACLE_CHECK_TAUS)
    for n_max in (10, 40):
        dim, count = n_max + 3, n_max + 1
        reference = _complex_evolved_components(num_atoms, dim, taus, count)
        psi = _evolved_components(num_atoms, dim, taus, count)
        assert np.abs(psi - reference).max() <= 1e-13


@pytest.mark.parametrize("num_atoms", [1, 2])
def test_a_component_holding_two_initial_states_matches_complex_propagator(num_atoms, monkeypatch):
    # join |ground, 0 photons> to |ground, 3 photons>: both initial states
    # sit in one component, and each of their kets is written from it
    edges = oracle._coupling_edges

    def coupled(num_atoms, dim):
        rows, cols, values = edges(num_atoms, dim)
        return np.append(rows, [0, 3]), np.append(cols, [3, 0]), np.append(values, [0.3, 0.3])

    monkeypatch.setattr(oracle, "_coupling_edges", coupled)
    taus = np.array(ORACLE_CHECK_TAUS)
    dim, count = 11, 9
    rows, cols, _ = coupled(num_atoms, dim)
    components = oracle._coupling_components(rows, cols, 2**num_atoms * dim)
    assert any({0, 3} <= set(nodes) for stack in components for nodes in stack.tolist())
    reference = _complex_evolved_components(num_atoms, dim, taus, count)
    psi = _evolved_components(num_atoms, dim, taus, count)
    assert np.abs(psi - reference).max() <= 1e-13


@pytest.mark.parametrize("n_max", [0, 2, 8, 40])
@pytest.mark.parametrize("num_atoms", [1, 2])
def test_gram_bands_are_the_dense_gram_diagonals(n_max, num_atoms):
    taus = np.array(ORACLE_CHECK_TAUS)
    psi = _evolved_components(num_atoms, n_max + 3, taus, n_max + 1)
    gram = dense_gram(psi)
    bands = _gram_bands(psi, range(n_max + 1))
    assert len(bands) == n_max + 1
    for d, band in enumerate(bands):
        diagonal = np.diagonal(gram, -d, 1, 3).transpose(0, 1, 3, 2)  # (t, a, j, a')
        assert band.view(complex).shape == diagonal.shape
        assert np.abs(band.view(complex) - diagonal).max() <= 1e-15
    # a subset of the diagonals, in any order, gives the same bands
    picked = _gram_bands(psi, [n_max, 0])
    assert np.array_equal(picked[0], bands[n_max]) and np.array_equal(picked[1], bands[0])


@pytest.mark.parametrize("n_max", [10, 40])
@pytest.mark.parametrize("num_atoms", [1, 2])
def test_port_trace_by_diagonals_matches_shifted_slices(n_max, num_atoms):
    # each diagonal d >= 0 of one cavity's factor, for every angle at once
    taus = np.array(ORACLE_CHECK_TAUS)
    psi = _evolved_components(num_atoms, n_max + 3, taus, n_max + 1)
    gram = dense_gram(psi)
    amps = _beam_splitter_columns(THETAS, n_max)
    references = [_shifted_slice_port_traced(gram, a) for a in amps]
    for d, band in enumerate(_gram_bands(psi, range(n_max + 1))):
        traced = _port_traced_diagonal(band, _diagonal_weights(amps, d))
        for reference, angle in zip(references, traced):
            diagonal = np.diagonal(reference, -d, 1, 2)  # (t, a, a', p)
            assert np.abs(angle - diagonal.transpose(0, 1, 3, 2)).max() <= 1e-14


@pytest.mark.parametrize("n_max", [10, 40])
def test_folded_diagonals_match_the_explicit_pair_sum(n_max):
    # the whole state: every (n, m) summed explicitly, diagonal -d computed
    # rather than folded in as the conjugate transpose of diagonal d
    grid = full_evolution_grid(ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, THETAS, n_max)
    for theta, states in zip(THETAS, grid):
        reference = _explicit_pair_sum(ORACLE_CHECK_TAUS, ORACLE_CHECK_SQUEEZES, theta, n_max)
        assert np.abs(states - reference).max() <= 1e-14


def test_oracle_check_evolves_each_cavity_once(monkeypatch):
    # one full_evolution_grid call serves all three angles
    calls = []
    evolved = oracle._evolved_components

    def counting(num_atoms, *args):
        calls.append(num_atoms)
        return evolved(num_atoms, *args)

    monkeypatch.setattr(oracle, "_evolved_components", counting)
    report, status = run_oracle_check(SweepConfig(mode="oracle-check", oracle_n_max=8))
    assert status == 0 and len(ORACLE_CHECK_THETAS) == 3
    assert sorted(calls) == [1, 2]


def test_diagonal_weights_are_lower_triangles():
    amps = _beam_splitter_columns(THETAS, 12)
    for d in range(13):
        weights = _diagonal_weights(amps, d)
        assert weights.shape == (len(THETAS), 13 - d, 13 - d)
        assert not np.triu(weights, 1).any()  # no photons taken out of the port
        for p in range(13 - d):
            for j in range(p + 1):
                expected = amps[:, d + p, p - j] * amps[:, p, p - j]
                assert np.array_equal(weights[:, p, j], expected)
