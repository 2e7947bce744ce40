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
  angle or photon number, or a sequence where one number is expected, with
  a message naming the parameter;
* `truncation_deficits`, the norm the truncation at n_max drops.

The field weights built from the binomial rows live with the closed forms
(`tavis_cummings._field_factors`); the oracle builds its field from the
beam-splitter unitary instead and checks their selection rule.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

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


def _real_array(name: str, values, domain: str) -> np.ndarray:
    """``values`` as a float array, refusing bools and non-real values by ``name``.

    A bool, or a sequence or array holding one, is refused rather than read
    as 1.0 or 0.0.  So is anything else that is not a real number: a complex
    value is not cut to its real part, and a string is not left to numpy's
    conversion error.  ``domain`` ends the message, e.g. ">= 0".
    """
    array = np.asarray(values)
    # numpy reads a sequence that mixes bools with floats, [0.5, True], as floats
    items = () if isinstance(values, np.ndarray) else np.asarray(values, dtype=object).flat
    if array.dtype == bool or any(isinstance(v, (bool, np.bool_)) for v in items):
        raise ValueError(f"{name} must be a finite number {domain}, not a bool, got {values!r}")
    if array.dtype.kind not in "iuf" and not (
        array.dtype == object and all(isinstance(v, numbers.Real) for v in array.flat)
    ):
        raise ValueError(f"{name} must be a finite real number {domain}, got {values!r}")
    return np.asarray(array, dtype=float)


def _one(name: str, values, array: np.ndarray) -> float:
    """``array``, the checked form of ``values``, as one float; a sequence is refused."""
    if array.ndim:
        raise ValueError(f"{name} must be one number, not a sequence, got {values!r}")
    return float(array)


def require_number(name: str, value, domain: str) -> float:
    """One real number, refused by ``name`` if it is a bool, non-real or a sequence.

    The caller checks the range; ``domain`` (e.g. "> 0") only words the message.
    """
    return _one(name, value, _real_array(name, value, domain))


def require_finite_nonnegative(name: str, values) -> np.ndarray:
    """``values`` as a float array, or a ValueError naming ``name`` and the first bad value.

    Bools and non-real values are refused as in `_real_array`, and so is
    anything not finite or below 0.
    """
    array = _real_array(name, values, ">= 0")
    bad = array[~(np.isfinite(array) & (array >= 0.0))]
    if bad.size:
        raise ValueError(f"{name} must be finite and >= 0, got {bad.flat[0]}")
    return array


def require_nonnegative_number(name: str, value) -> float:
    """One value checked as in `require_finite_nonnegative`; a sequence is refused."""
    return _one(name, value, require_finite_nonnegative(name, value))


def require_thetas(thetas) -> np.ndarray:
    """Beam-splitter angles as a float array.

    A bool, a non-real value or an angle outside [0, pi] (NaN included) is
    refused with a message naming theta.
    """
    array = _real_array("theta", thetas, "in [0, pi]")
    bad = array[~((array >= 0.0) & (array <= math.pi))]
    if bad.size:
        raise ValueError(f"theta must lie in [0, pi], got {bad.flat[0]}")
    return array


def require_theta(theta) -> float:
    """One beam-splitter angle, checked as in `require_thetas`; a sequence is refused."""
    return _one("theta", theta, require_thetas(theta))


def require_photon_number(name: str, value) -> None:
    """Reject anything but a non-negative integer (bools included), naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


class _FieldConfigFields(NamedTuple):
    s: float
    theta: float
    n_max: int


class FieldConfig(_FieldConfigFields):
    """Squeezed-field parameters and the Fock-space truncation.

    ``s`` is the squeeze parameter (>= 0), ``theta`` the beam-splitter angle
    in radians (0 = full reflection, pi = full transmission into the cavity)
    and ``n_max`` the largest squeezed-pair photon number kept in all sums.
    The truncated state is deliberately not renormalised; see
    `truncation_deficit` for the norm that is dropped.

    A named tuple: construction, ``_make`` and ``_replace`` all refuse a bad
    value by name.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        require_nonnegative_number("squeeze parameter s", config.s)
        require_theta(config.theta)
        require_photon_number("n_max", config.n_max)
        return config

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, builds the tuple without __new__
        return cls(*iterable)


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
    evaluated in log space so it stays finite.  Its relative error grows
    with n: against exact binomials (``math.comb`` in 60-digit decimals),
    on entries above 1e-200 at theta = pi/2, 1.1 and 2.5, it is at most
    8.6e-14 at n = 160, 9.6e-13 at n = 1,000 and 3.5e-12 at n = 3,000.
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
