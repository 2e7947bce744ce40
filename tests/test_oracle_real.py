"""The oracle's real-arithmetic stages against the complex ones they replaced.

Each reference keeps the former code: the beam-splitter block exponentiated
through a complex Hermitian eigendecomposition at each angle, the coupling
propagators from a complex Hamiltonian, and the port trace as one
shifted-slice add per photon number left in the external port.
"""

import math
from collections import Counter

import numpy as np
import pytest

import cavity3q.oracle as oracle
from cavity3q.cli import ORACLE_CHECK_TAUS, ORACLE_CHECK_THETAS, SweepConfig, run_oracle_check
from cavity3q.oracle import (
    _beam_splitter_columns,
    _beam_splitter_eigh,
    _evolved_components,
    _full_coupling_hamiltonian,
    _photon_traced_gram,
    _port_traced,
    _port_weights,
)

THETAS = (math.pi / 3, math.pi / 2, math.pi, 1.1)


def _complex_beam_splitter_block(theta: float, photons: int) -> np.ndarray:
    e = np.arange(photons, dtype=float)
    hop = 0.5 * theta * np.sqrt((e + 1.0) * (photons - e))
    generator = np.diag(hop, -1) - np.diag(hop, 1)
    vals, vecs = np.linalg.eigh(1j * generator)
    return ((vecs * np.exp(-1j * vals)) @ vecs.conj().T).real


def _complex_evolved_components(num_atoms: int, dim: int, taus: np.ndarray, count: int) -> np.ndarray:
    vals, vecs = np.linalg.eigh(_full_coupling_hamiltonian(num_atoms, dim).astype(complex))
    phases = np.exp(-1j * np.multiply.outer(taus, vals))
    columns = (vecs * phases[:, None, :]) @ vecs[:count].conj().T
    return columns.swapaxes(1, 2).reshape(len(taus), count, 2**num_atoms, dim)


def _shifted_slice_port_traced(gram: np.ndarray, amps: np.ndarray) -> np.ndarray:
    size = amps.shape[0]
    out = np.zeros_like(gram)
    for k in range(size):
        col = amps[k:, k]
        weights = np.multiply.outer(col, col)[..., None, None]
        out[:, k:, k:] += weights * gram[:, : size - k, : size - k]
    return out


@pytest.mark.parametrize("theta", (0.0, 0.4, *THETAS))
def test_real_beam_splitter_block_matches_complex_solve(theta):
    # row n of the table is the last column of block n, for every block up to n_max 80
    amps = _beam_splitter_columns(theta, 80)
    for photons in range(81):
        reference = _complex_beam_splitter_block(theta, photons)
        assert np.abs(amps[photons, : photons + 1] - reference[:, photons]).max() <= 1e-14
    assert not np.triu(amps, 1).any()


def test_beam_splitter_eigensystem_is_read_only():
    vals, vecs = _beam_splitter_eigh(12)
    assert vals.shape == (13, 13) and vecs.shape == (13, 13, 13)
    for table in (vals, vecs):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


def test_oracle_check_solves_each_beam_splitter_block_once(monkeypatch):
    # the generator is the angle times a fixed matrix: one solve per block
    # serves all three angles, and the two coupling Hamiltonians one each
    caches = (_beam_splitter_eigh, oracle._port_weights, oracle._coupling_eigh)
    for cached in caches:
        cached.cache_clear()
    solved = Counter()
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        solved[a.shape] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    report, status = run_oracle_check(SweepConfig(mode="oracle-check", oracle_n_max=8))
    assert status == 0 and len(ORACLE_CHECK_THETAS) == 3
    dim = 8 + 3
    expected = Counter({(n, n): 1 for n in range(1, 10)})
    expected.update({(4 * dim, 4 * dim): 1, (2 * dim, 2 * dim): 1})
    assert solved == expected


@pytest.mark.parametrize("num_atoms", [1, 2])
def test_real_coupling_solve_matches_complex_propagator(num_atoms):
    taus = np.array(ORACLE_CHECK_TAUS)
    for n_max in (10, 40):
        dim, count = n_max + 3, n_max + 1
        reference = _complex_evolved_components(num_atoms, dim, taus, count)
        psi = _evolved_components(num_atoms, dim, taus, count)
        assert np.abs(psi - reference).max() <= 1e-13


@pytest.mark.parametrize("n_max", [10, 40])
@pytest.mark.parametrize("num_atoms", [1, 2])
def test_port_trace_by_diagonals_matches_shifted_slices(n_max, num_atoms):
    taus = np.array(ORACLE_CHECK_TAUS)
    gram = _photon_traced_gram(_evolved_components(num_atoms, n_max + 3, taus, n_max + 1))
    for theta in THETAS:
        reference = _shifted_slice_port_traced(gram, _beam_splitter_columns(theta, n_max))
        traced = _port_traced(gram, _port_weights(theta, n_max))
        assert np.abs(traced - reference).max() <= 1e-14


def test_port_weights_are_read_only_lower_triangles():
    weights = _port_weights(1.1, 12)
    assert [w.shape for w in weights] == [(13 - d, 13 - d) for d in range(13)]
    for matrix in weights:
        assert not matrix.flags.writeable
        assert not np.triu(matrix, 1).any()  # no photons taken out of the port
