import math

import numpy as np
import pytest

import cavity3q.oracle as oracle
from cavity3q import (
    FieldConfig,
    closed_form_rho,
    compare_states,
    full_evolution,
    full_evolution_grid,
    truncation_deficit,
)
from cavity3q.oracle import (
    _beam_splitter_columns,
    _bessel_row,
    _coupling_components,
    _coupling_edges,
    _evolved_components,
)
from cavity3q.tavis_cummings import _field_factors, _squeeze_norms
from test_fock_field import squeezed_weight


def test_beam_splitter_identity_at_zero_angle():
    # at theta = 0 every injected photon stays in the external port
    assert np.abs(_beam_splitter_columns([0.0], 7)[0] - np.eye(8)).max() < 1e-12


def test_beam_splitter_is_unitary():
    # every block exp(theta G) is orthogonal, so the amplitude columns
    # the oracle reads (one per injected photon number) are normalised
    amps = _beam_splitter_columns([0.4, math.pi / 2, math.pi], 40)
    assert np.abs((amps * amps).sum(axis=2) - 1.0).max() < 1e-12


def test_beam_splitter_full_transmission():
    # at theta = pi every injected photon ends up in the cavity
    amps = _beam_splitter_columns([math.pi], 40)[0]
    assert np.abs(np.abs(amps[:, 0]) - 1.0).max() < 1e-10
    assert np.abs(amps[:, 1:]).max() < 1e-10


@pytest.mark.parametrize(
    "x, k, expected",
    [
        (1.0, 0, 0.7651976865579666),
        (1.0, 1, 0.44005058574493355),
        (10.0, 0, -0.24593576445134832),
        (10.0, 5, -0.2340615281867936),
    ],
)
def test_bessel_row_known_values(x, k, expected):
    assert abs(_bessel_row(x)[k] - expected) <= 1e-15


@pytest.mark.parametrize("x", [20.0 * math.pi, 190.0 * math.pi])
def test_bessel_row_sums_to_one_in_squares(x):
    # J_0^2 + 2 sum_k J_k^2 = 1; the row stops at the last |J_k| >= 1e-17
    row = _bessel_row(x)
    assert abs(row[0] ** 2 + 2.0 * (row[1:] ** 2).sum() - 1.0) <= 1e-13
    assert abs(row[-1]) >= 1e-17 and len(row) > x


def test_bessel_row_at_zero_is_one_term():
    assert _bessel_row(0.0).tolist() == [1.0]


def test_cut_short_beam_splitter_series_fails_the_norm_check(monkeypatch):
    bessel = oracle._bessel_row
    monkeypatch.setattr(oracle, "_bessel_row", lambda x: bessel(x)[: len(bessel(x)) // 2 + 1])
    with pytest.raises(RuntimeError, match=r"beam-splitter column lost norm: \|norm - 1\| = .* > 1e-10"):
        full_evolution_grid([0.8], [0.6], [math.pi / 2], 40)


def test_beam_splitter_rejects_tiny_dimension():
    # checked before the blocks are built, even when the grid is empty
    for n_max in (-1, True, 2.0):
        for axis in ([0.8], []):
            with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
                full_evolution_grid(axis, [0.6], [1.1], n_max)


def test_evolved_components_conserve_norm_and_excitation():
    dim = 12
    psi = _evolved_components(2, dim, np.array([1.3]), 8)[0]
    norms = np.linalg.norm(psi.reshape(len(psi), -1), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-10
    # photons plus atomic excitations stay at the initial photon count
    for q in range(len(psi)):
        for a in range(4):
            excitation = bin(a).count("1")
            for p in range(dim):
                if p + excitation != q:
                    assert abs(psi[q, a, p]) < 1e-12


def excitations(num_atoms: int, dim: int) -> np.ndarray:
    """Photons plus atomic excitations |a| + p of each flat index a * dim + p."""
    atoms = np.array([bin(a).count("1") for a in range(2**num_atoms)])
    return (atoms[:, None] + np.arange(dim)).reshape(-1)


@pytest.mark.parametrize("num_atoms", [1, 2])
@pytest.mark.parametrize("dim", [2, 3, 9])
def test_coupling_components_are_the_excitation_sets(num_atoms, dim):
    # read from the Hamiltonian's nonzero entries alone, the components must
    # be the sets of equal |a| + p, each listed in ascending order
    rows, cols, _ = _coupling_edges(num_atoms, dim)
    stacks = _coupling_components(rows, cols, 2**num_atoms * dim)
    found = [nodes for stack in stacks for nodes in stack.tolist()]
    excitation = excitations(num_atoms, dim)
    expected = [np.flatnonzero(excitation == n).tolist() for n in range(excitation.max() + 1)]
    assert sorted(found) == sorted(expected)
    # one stack per size
    assert len({stack.shape[1] for stack in stacks}) == len(stacks)


@pytest.mark.parametrize("num_atoms", [1, 2])
def test_propagators_are_exactly_zero_across_components(num_atoms):
    dim, count = 14, 12
    excitation = excitations(num_atoms, dim)
    psi = _evolved_components(num_atoms, dim, np.array([0.3, 1.3, 14.5]), count)
    moved = excitation.reshape(2**num_atoms, dim) != np.arange(count)[:, None, None]
    assert not psi[:, moved].any()
    assert psi[:, ~moved].any()


def test_field_state_construction_matches_weights():
    # squeezed pair through the two beam-splitter blocks, reflected ports
    # traced out, must reproduce the closed form's factorised field weights
    # on the bands the dynamics uses
    s, theta, n_top = 0.8, 2.0, 5
    size = n_top + 1
    amps = _beam_splitter_columns([theta], n_top)[0]
    psi = np.zeros((size, size, size, size))  # (e1, c1, e2, c2)
    for n in range(size):
        port = np.zeros((size, size))  # (external, cavity)
        port[np.arange(n + 1), n - np.arange(n + 1)] = amps[n, : n + 1]
        psi += squeezed_weight(n, s) * np.multiply.outer(port, port)
    rho_field = np.einsum("ecfd,eCfD->cdCD", psi, psi)

    u0, u1 = _field_factors(theta, n_top)
    norm0, norm1 = _squeeze_norms(np.array([s]), size)
    w0 = u0.T @ (norm0[0][:, None] * u0)
    w1 = u1.T @ (norm1[0][:, None] * u1)
    q, p = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    assert np.abs(rho_field[q, p, q, p] - w0).max() < 1e-14
    q, p = q[:-1, :-1], p[:-1, :-1]
    assert np.abs(rho_field[q, p, q + 1, p + 1] - w1[:-1, :-1]).max() < 1e-14
    assert np.abs(rho_field[q + 1, p + 1, q, p] - w1[:-1, :-1]).max() < 1e-14

    trace = np.einsum("cdcd->", rho_field)
    assert trace == pytest.approx(1.0 - truncation_deficit(FieldConfig(s, theta, n_top)), abs=1e-12)


def test_full_evolution_without_squeezing():
    rho = full_evolution(FieldConfig(0.0, 1.0, 8), 2.2).matrix
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.abs(rho - expected).max() < 1e-12


def test_full_evolution_at_tau_zero():
    cfg = FieldConfig(0.7, 1.9, 10)
    rho = full_evolution(cfg, 0.0).matrix
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0 - truncation_deficit(cfg)
    assert np.abs(rho - expected).max() < 1e-10


def test_full_evolution_zero_pattern():
    cfg = FieldConfig(0.8, 1.3, 10)
    report = compare_states(full_evolution(cfg, 1.7), full_evolution(cfg, 1.7))
    assert report.max_abs_diff == 0.0
    assert not report.pattern_violations


def test_compare_states_flags_differences():
    cfg = FieldConfig(0.6, math.pi / 3, 8)
    rho = closed_form_rho(0.9, cfg)
    bumped = rho.matrix.copy()
    bumped[4, 4] += 1e-3
    report = compare_states(bumped, rho)
    assert report.max_abs_diff == pytest.approx(1e-3, rel=1e-9)
    assert report.worst_entry == (4, 4)


def test_compare_states_flags_pattern_violations():
    cfg = FieldConfig(0.6, math.pi / 3, 8)
    rho = closed_form_rho(0.9, cfg)
    bumped = rho.matrix.copy()
    bumped[0, 3] += 1e-3
    report = compare_states(bumped, rho)
    assert any(v[:2] == (0, 3) for v in report.pattern_violations)


def test_full_evolution_agrees_with_closed_form():
    cfg = FieldConfig(0.5, math.pi, 40)
    report = compare_states(closed_form_rho(1.0, cfg), full_evolution(cfg, 1.0))
    assert report.max_abs_diff < 1e-8
