"""Each cavity's populations against the thermal-field reference.

On its own, each mode of a two-mode squeezed vacuum is a thermal state with
mean photon number sinh^2 s, and a beam splitter with vacuum in its other
port keeps it thermal with the mean scaled by sin^2(theta/2) (Barnett &
Knight, J. Opt. Soc. Am. B 2, 467 (1985)).  Each cavity's atoms therefore
see a thermal field: B's excited population is the Jaynes-Cummings thermal
average (Knight & Radmore, Phys. Lett. A 90, 342 (1982)), and the A1A2
pair's populations are the thermal average of the two-atom ladder.

The reference sums the thermal series until its geometric tail is below
1e-16.  It uses no field-weight table, no beam-splitter amplitude and no
brute-force evolution, so it checks the closed form at any squeezing; the
only gap is the norm the closed form's truncation drops.
"""

import math

import numpy as np
import pytest

from cavity3q import FieldConfig, closed_form_grid, truncation_deficit

TAUS = np.linspace(0.0, 20.0, 600)
N_MAX = 80
TAIL = 1e-16


def thermal_weights(s, theta):
    """p_n = nbar^n / (1 + nbar)^(n+1) for n = 0..N, nbar = sinh^2 s sin^2(theta/2).

    N is the first photon number whose tail beyond it, ratio^(N+1), is below `TAIL`.
    """
    mean = math.sinh(s) ** 2 * math.sin(0.5 * theta) ** 2
    ratio = mean / (1.0 + mean)
    weights = [1.0 / (1.0 + mean)]
    while ratio ** len(weights) >= TAIL:
        weights.append(weights[-1] * ratio)
    return np.array(weights)


def thermal_b_excited(taus, weights):
    """A ground-state atom in the thermal field: sum_n p_n sin^2(sqrt(n) tau)."""
    photons = np.arange(len(weights))
    return np.sin(np.sqrt(photons) * taus[:, None]) ** 2 @ weights


def thermal_pair_populations(taus, weights):
    """Both ground, one excited, both excited: the thermal average of the two-atom ladder.

    With n photons, |gg, n> couples to the symmetric one-excitation state
    with n - 1 photons by sqrt(2n), and that to |ee, n - 2> by sqrt(2(n - 1)).
    Each 3x3 ladder is solved by `eigh`; the columns are (T, 3).
    """
    photons = np.arange(len(weights))
    ladders = np.zeros((len(weights), 3, 3))
    ladders[:, 0, 1] = ladders[:, 1, 0] = np.sqrt(2.0 * photons)
    ladders[:, 1, 2] = ladders[:, 2, 1] = np.sqrt(2.0 * np.maximum(photons - 1, 0))
    values, vectors = np.linalg.eigh(ladders)
    phases = np.exp(-1j * values * taus[:, None, None])  # (T, n, k)
    amplitudes = np.einsum("njk,tnk,nk->tnj", vectors, phases, vectors[:, 0, :])
    return np.einsum("tnj,n->tj", np.abs(amplitudes) ** 2, weights)


def test_thermal_series_sums_to_one_within_its_tail():
    for s, theta in [(0.3, math.pi), (1.2, math.pi), (1.2, 1.1), (2.0, math.pi / 2)]:
        weights = thermal_weights(s, theta)
        assert abs(weights.sum() - 1.0) < 1e-15
    assert thermal_weights(1.2, 0.0).tolist() == [1.0]


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2, 1.1, 0.0])
@pytest.mark.parametrize("s", [0.3, 1.2])
def test_cavity_populations_match_the_thermal_reference(s, theta):
    elements = closed_form_grid(TAUS, [s], theta, N_MAX)[:, 0]
    weights = thermal_weights(s, theta)
    bound = truncation_deficit(FieldConfig(s, theta, N_MAX)) + 1e-14
    # r44 + r55 + r66: B excited, with the pair in any state
    b_excited = elements[:, 3:6].sum(axis=1)
    assert np.abs(b_excited - thermal_b_excited(TAUS, weights)).max() <= bound
    # r11 + r44, r22 + r55, r33 + r66: the pair's populations, with B in either state
    pair = elements[:, 0:3] + elements[:, 3:6]
    assert np.abs(pair - thermal_pair_populations(TAUS, weights)).max() <= bound
