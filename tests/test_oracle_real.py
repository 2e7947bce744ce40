"""The oracle's real-arithmetic stages against their definitions, plus their structure.

The coupling Hamiltonian is checked entry by entry against its definition
written as loops, a coupling with joined components against the textbook
propagator ``exp(-i H tau)`` of the dense Hamiltonian, and the photon-traced
overlaps against the dense Gram tensor over every pair of kets.  The
oracle's states as a whole are checked against the closed forms in
`test_oracle_grid` and `test_closed_form_grid`.
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
    full_evolution_grid,
)

THETAS = (math.pi / 3, math.pi / 2, math.pi, 1.1)


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


def textbook_kets(hamiltonian: np.ndarray, dim: int, taus: np.ndarray, count: int) -> np.ndarray:
    """``exp(-i H tau)`` of the first ``count`` basis states, from a complex eigensolve of all of H.

    Shaped like `_evolved_components`: (taus, count, atom index, photons up to ``dim``).
    """
    vals, vecs = np.linalg.eigh(hamiltonian.astype(complex))
    phases = np.exp(-1j * np.multiply.outer(taus, vals))
    columns = (vecs * phases[:, None, :]) @ vecs[:count].conj().T
    return columns.swapaxes(1, 2).reshape(len(taus), count, -1, dim)


def dense_gram(psi: np.ndarray) -> np.ndarray:
    """``G[t, q, a, r, a'] = sum_p psi[t, q, a, p] conj(psi[t, r, a', p])``, every (q, r)."""
    taus, count, atoms, dim = psi.shape
    flat = psi.reshape(taus, count * atoms, dim)
    return (flat @ flat.conj().swapaxes(1, 2)).reshape(taus, count, atoms, count, atoms)


def dense_bands(gram: np.ndarray) -> set[int]:
    """Bands d = q - r >= 0 on which ``G[t, q, a, r, a']`` has a nonzero entry."""
    q, r = np.nonzero(gram.any(axis=(0, 2, 4)))
    return set((q - r)[q >= r].tolist())


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


def test_oracle_check_solves_only_the_coupling_components(eigh_solves):
    # the beam splitters take no eigensolver: their Chebyshev series needs
    # only products with the hops.  The coupling Hamiltonians are solved one
    # stacked call per component size, never whole, and only the components
    # holding an initial state |ground, q photons>, q <= 8: for two atoms
    # the excitation sets N = 0 (1 node), 1 (3 nodes) and 2..8 (4 nodes),
    # for one atom N = 0 (1 node) and 1..8 (2 nodes); a stack holding none,
    # such as the 3-node set N = dim of two atoms, is never solved.  Each
    # cavity is evolved once for all three angles
    eigh_solves(_beam_splitter_columns, THETAS, 40)
    assert eigh_solves.calls == []
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=8)
    assert run_oracle_check(cfg)[1] == 0 and len(ORACLE_CHECK_THETAS) == 3
    eigh_solves(run_oracle_check, cfg)
    solved = Counter(shape for shape, _ in eigh_solves.calls)
    assert solved == Counter({(1, 1, 1): 2, (1, 3, 3): 1, (7, 4, 4): 1, (8, 2, 2): 1})


@pytest.mark.parametrize("num_atoms", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 9, 43])
def test_coupling_edges_are_the_loop_hamiltonian(num_atoms, dim):
    rows, cols, values = oracle._coupling_edges(num_atoms, dim)
    assert np.all(values != 0.0)
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    dense = np.zeros((2**num_atoms * dim,) * 2)
    dense[rows, cols] = values
    assert np.array_equal(dense, _loop_coupling_hamiltonian(num_atoms, dim))


@pytest.mark.parametrize("num_atoms", [1, 2])
def test_real_coupling_solve_matches_complex_propagator(num_atoms):
    # the oracle's real solves, one per component, against exp(-i H tau) of
    # the whole loop Hamiltonian
    taus = np.array(ORACLE_CHECK_TAUS)
    for n_max in (10, 40):
        dim, count = n_max + 3, n_max + 1
        reference = textbook_kets(_loop_coupling_hamiltonian(num_atoms, dim), dim, taus, count)
        psi = _evolved_components(num_atoms, dim, taus, count)
        assert np.abs(psi - reference).max() <= 1e-13


@pytest.mark.parametrize("num_atoms", [1, 2])
def test_a_component_holding_two_initial_states_matches_complex_propagator(num_atoms, monkeypatch):
    # join |ground, 0 photons> to |ground, 3 photons>: both initial states
    # sit in one component, and each of their kets is written from it.  No
    # closed form covers this coupling; the reference is the textbook
    # propagator of the loop Hamiltonian with the same two entries added
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
    hamiltonian = _loop_coupling_hamiltonian(num_atoms, dim)
    hamiltonian[0, 3] = hamiltonian[3, 0] = 0.3
    reference = textbook_kets(hamiltonian, dim, taus, count)
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
