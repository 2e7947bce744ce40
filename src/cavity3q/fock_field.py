"""Weights of a two-mode squeezed field injected into a pair of cavities.

A two-mode squeezed vacuum with squeeze parameter ``s`` feeds two cavities,
one mode each, through beam splitters of mixing angle ``theta`` (reflection
coefficient ``cos(theta/2)``).  Tracing out the reflected beams leaves the
cavity pair in a mixed Fock-basis state in which each term

    |n-k, n-l><m-k, m-l|,   0 <= k, l <= min(n, m)

carries the real weight ``(tanh s)^(n+m) / cosh^2(s) * G_kl^nm(theta)``,
where ``G_kl^nm`` is a product of four binomial beam-splitter amplitudes
(`binomial_amplitude_row`) and ``k``, ``l`` count photons lost to the
reflected ports.  Only ``|n-m| <= 1`` terms survive the field trace of the
reduced atomic dynamics.

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

    A bool, or an array of bools, is refused rather than read as 1.0 or 0.0.
    """
    array = np.asarray(values)
    if array.dtype == bool:
        raise ValueError(f"{name} must be a finite number >= 0, not a bool, got {values!r}")
    array = np.asarray(array, dtype=float)
    bad = array[~(np.isfinite(array) & (array >= 0.0))]
    if bad.size:
        raise ValueError(f"{name} must be finite and >= 0, got {bad.flat[0]}")
    return array


def require_theta(theta) -> None:
    """Reject a beam-splitter angle outside [0, pi] (NaN included)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")


def require_photon_number(name: str, value) -> None:
    """Reject anything but a non-negative integer (bools included), naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def require_n_max(n_max) -> None:
    """Reject anything but a non-negative integer truncation (bools included)."""
    require_photon_number("n_max", n_max)


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
        require_n_max(self.n_max)


def binomial_amplitude_table(n_max: int, theta: float) -> np.ndarray:
    """`binomial_amplitude_row` of every photon number n = 0..n_max, as rows.

    Entry ``[n, k]`` is the amplitude of keeping ``k`` of ``n`` photons in the
    reflected port, zero for k > n.  All rows come from one log-factorial
    table and one array expression.
    """
    require_n_max(n_max)
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
    require_n_max(n_max)
    return np.tanh(squeezes) ** (2 * n_max + 2)


def truncation_deficit(config: FieldConfig) -> float:
    """`truncation_deficits` of one field configuration."""
    return float(truncation_deficits(config.s, config.n_max))
