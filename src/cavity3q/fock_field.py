"""The squeezed-field configuration, beam-splitter amplitudes and input guards.

A two-mode squeezed vacuum with squeeze parameter ``s`` feeds two cavities,
one mode each, through beam splitters of mixing angle ``theta`` (reflection
coefficient ``cos(theta/2)``).  This module holds what the closed forms and
the oracle share about that field:

* `FieldConfig`, the parameters (s, theta) and the Fock truncation n_max;
* `binomial_amplitude_table`, the amplitudes of keeping k of n injected
  photons in the reflected port, every row up to n_max from one
  log-factorial table (`binomial_amplitude_row` is one row of it);
* the input guards that refuse a bad squeeze parameter, interaction time,
  angle or photon number with a message naming the parameter;
* `truncation_deficits`, the norm the truncation at n_max drops.

The field weights built from the binomial rows live with the closed forms
(`tavis_cummings._field_factors`); the oracle builds its field from the
beam-splitter unitary instead and checks their selection rule.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldConfig",
    "binomial_amplitude_row",
    "binomial_amplitude_table",
    "truncation_deficit",
    "truncation_deficits",
]

# cos(theta/2) or sin(theta/2) below this is treated as an exact zero so the
# full-transmission (theta = pi) and full-reflection (theta = 0) selection
# rules hold exactly instead of leaving ~1e-17 residues under large binomials.
_HALF_ANGLE_SNAP = 1e-15


def _half_angle(theta: float) -> tuple[float, float]:
    require_theta(theta)
    cos_half = math.cos(0.5 * theta)
    sin_half = math.sin(0.5 * theta)
    if abs(cos_half) < _HALF_ANGLE_SNAP:
        cos_half = 0.0
    if abs(sin_half) < _HALF_ANGLE_SNAP:
        sin_half = 0.0
    return cos_half, sin_half


def require_finite_nonnegative(name: str, values) -> np.ndarray:
    """``values`` as a float array, or a ValueError naming ``name`` and the first bad value.

    A bool, or a sequence or array holding one, is refused rather than read
    as 1.0 or 0.0.
    """
    array = np.asarray(values)
    # numpy reads a sequence that mixes bools with floats, [0.5, True], as floats
    if array.dtype == bool or (
        not isinstance(values, np.ndarray)
        and any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat)
    ):
        raise ValueError(f"{name} must be a finite number >= 0, not a bool, got {values!r}")
    array = np.asarray(array, dtype=float)
    bad = array[~(np.isfinite(array) & (array >= 0.0))]
    if bad.size:
        raise ValueError(f"{name} must be finite and >= 0, got {bad.flat[0]}")
    return array


def require_theta(theta) -> None:
    """Reject a beam-splitter angle outside [0, pi] (NaN included) or a bool."""
    if isinstance(theta, (bool, np.bool_)):
        raise ValueError(f"theta must be a finite number in [0, pi], not a bool, got {theta!r}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")


def require_photon_number(name: str, value) -> None:
    """Reject anything but a non-negative integer (bools included), naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class FieldConfig:
    """Squeezed-field parameters and the Fock-space truncation.

    ``s`` is the squeeze parameter (>= 0), ``theta`` the beam-splitter angle
    in radians (0 = full reflection, pi = full transmission into the cavity)
    and ``n_max`` the largest squeezed-pair photon number kept in all sums.
    The truncated state is deliberately not renormalised; see
    `truncation_deficit` for the norm that is dropped.
    """

    s: float
    theta: float
    n_max: int

    def __post_init__(self) -> None:
        require_finite_nonnegative("squeeze parameter s", self.s)
        require_theta(self.theta)
        require_photon_number("n_max", self.n_max)


def binomial_amplitude_table(n_max: int, theta: float) -> np.ndarray:
    """`binomial_amplitude_row` of every photon number n = 0..n_max, as rows.

    Entry ``[n, k]`` is the amplitude of keeping ``k`` of ``n`` photons in the
    reflected port, zero for k > n.  All rows come from one log-factorial
    table and one array expression.
    """
    require_photon_number("n_max", n_max)
    cos_half, sin_half = _half_angle(theta)
    size = n_max + 1
    photons = np.arange(size)
    table = np.zeros((size, size))
    if cos_half == 0.0:
        table[:, 0] = sin_half**photons
        return table
    if sin_half == 0.0:
        table[photons, photons] = cos_half**photons
        return table
    log_fact = np.array([math.lgamma(i + 1) for i in range(size)])
    n, k = photons[:, None], photons
    kept = k <= n
    log_amp = (
        0.5 * (log_fact[n] - log_fact - log_fact[np.where(kept, n - k, 0)])
        + k * math.log(cos_half)
        + (n - k) * math.log(sin_half)
    )
    np.exp(log_amp, out=table, where=kept)
    return table


def binomial_amplitude_row(n: int, theta: float) -> np.ndarray:
    """Beam-splitter amplitudes of keeping ``k`` of ``n`` photons in the reflected port.

    Entry ``k = 0..n`` is ``sqrt(n!/(k!(n-k)!)) cos^k(theta/2) sin^(n-k)(theta/2)``,
    evaluated in log space so it stays finite and accurate up to n ~ 160.
    The last row of `binomial_amplitude_table`.
    """
    require_photon_number("photon number n", n)
    return binomial_amplitude_table(n, theta)[n]


def truncation_deficits(squeezes, n_max: int) -> np.ndarray:
    """Norm lost by truncating the squeezed-pair sum at ``n_max``, per squeeze value.

    Equals ``1 - sum_{n=0}^{n_max} (tanh s)^{2n} / cosh^2(s)``.  The tail is
    geometric, so this is computed in closed form as ``tanh(s)^(2 n_max + 2)``,
    which avoids the cancellation of subtracting a partial sum from 1.
    """
    squeezes = require_finite_nonnegative("squeeze parameter s", squeezes)
    require_photon_number("n_max", n_max)
    return np.tanh(squeezes) ** (2 * n_max + 2)


def truncation_deficit(config: FieldConfig) -> float:
    """`truncation_deficits` of one field configuration."""
    return float(truncation_deficits(config.s, config.n_max))
