"""The kernel's element entry, `_element_batch`, which the command-line sweeps call.

A sweep's states are fixed by the eight elements of `closed_form_grid`, and
the element entry evaluates every diagnostic from them, with no 8x8 state,
solving qubit B's global transpose only.  Its values must lie within 1e-15
of `negativity_batch` with the same selection on the states that
`states_from_elements` builds (whose read-back moves r15 and r26 by up to an
ulp), and within 1e-14 of the textbook evaluation; bad elements are refused
by the name ``elements``.
"""

import math
import re
import warnings

import numpy as np
import pytest

import cavity3q.entanglement as ent
from cavity3q import (
    QubitLabel,
    closed_form_grid,
    diagonal_probabilities,
    negativity_batch,
    states_from_elements,
)
from cavity3q.tavis_cummings import _elements_of_states, _populations
from test_diagnostics_reference import TOL, batch_fields, oracle_states, textbook_report

# The element entry against the dense kernel on the same states.
DENSE_TOL = 1e-15

STACKS = {
    "pi": math.pi,
    "pi/2": math.pi / 2.0,
    "1.1": 1.1,
    "0": 0.0,
}


def stack_elements(name):
    """The closed form's elements at 240 taus by three squeezes (four kernel blocks), or the oracle's."""
    if name == "oracle":
        elements, spread = _elements_of_states(oracle_states())
        assert len(elements) == 36 and spread.max() <= ent._SLOT_SPREAD_TOL
        return elements
    taus = np.linspace(0.0, 20.0, 240)
    return closed_form_grid(taus, [0.3, 1.2, 2.0], STACKS[name], 80).reshape(-1, 8)


def random_pattern_elements(rng, count):
    """Elements of random positive pattern states of unit trace, each coherence within its block's bound."""
    populations = rng.random((count, 6))
    populations /= populations.sum(axis=1, keepdims=True)
    r11, r22, r33, r44, r55, r66 = populations.T
    r15 = rng.uniform(-1.0, 1.0, count) * np.sqrt(r11 * r55)
    r26 = rng.uniform(-1.0, 1.0, count) * np.sqrt(r22 * r66)
    return np.column_stack([r11, r22, r33, r44, r55, r66, r15, r26])


@pytest.mark.parametrize("name", [*STACKS, "oracle"])
def test_element_entry_matches_the_dense_kernel(name):
    elements = stack_elements(name)
    got = ent._element_batch(elements)
    expected = negativity_batch(states_from_elements(elements))
    assert got.pattern_ok.all() and expected.pattern_ok.all()
    reference = batch_fields(expected)
    # the element entry holds B's global split alone, and every other field
    a_globals = {(name, p) for name in ("n_g", "e_3", "e_2", "e_0") for p in (QubitLabel.A1, QubitLabel.A2)}
    assert batch_fields(got).keys() == reference.keys() - a_globals
    for key, values in batch_fields(got).items():
        assert np.abs(values - reference[key]).max() <= DENSE_TOL, key


def test_element_entry_matches_textbook_on_random_pattern_states():
    elements = random_pattern_elements(np.random.default_rng(30), 60)
    batch = batch_fields(ent._element_batch(elements))
    for index, m in enumerate(states_from_elements(elements)):
        assert np.linalg.eigvalsh(m).min() > -1e-15
        textbook = textbook_report(m)
        for key, values in batch.items():
            assert values[index] == pytest.approx(textbook[key], abs=TOL), (index, key)


def test_populations_are_the_dense_diagonal_bit_for_bit():
    for name in (*STACKS, "oracle"):
        elements = stack_elements(name)
        assert np.array_equal(_populations(elements), diagonal_probabilities(states_from_elements(elements)))


def test_element_values_do_not_depend_on_the_stack():
    # each state's row is its own call, across kernel blocks
    elements = stack_elements("1.1")[: ent._DIAGNOSTIC_BLOCK + 3]
    batch = ent._element_batch(elements)
    for index in (0, 1, ent._DIAGNOSTIC_BLOCK - 1, ent._DIAGNOSTIC_BLOCK, ent._DIAGNOSTIC_BLOCK + 2):
        assert ent._element_batch(elements[index : index + 1]).report(0) == batch.report(index)


def bad_elements():
    """Element stacks the entry refuses, each with the start of its message."""
    good = stack_elements("pi")[:2]
    yield pytest.param(good > 0.1, "elements must be a finite number each, not a bool", id="bool")
    yield pytest.param(good + 0j, "elements must be a finite real number each", id="complex")
    for value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[1, 6] = value
        yield pytest.param(bad, f"elements must be finite, got {value}", id=str(value))
    yield pytest.param(good[:, :7], "elements must have a last axis of 8, got shape (2, 7)", id="last axis")
    yield pytest.param(good[0], "elements must be an (N, 8) stack, got shape (8,)", id="one state")
    yield pytest.param(good[None], "elements must be an (N, 8) stack, got shape (1, 2, 8)", id="grid")


@pytest.mark.parametrize("elements, message", bad_elements())
def test_bad_elements_are_refused_by_name(elements, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ent._element_batch(elements)


def test_empty_element_stack():
    batch = ent._element_batch(np.zeros((0, 8)))
    assert batch.pattern_ok.shape == (0,)
    for key, values in batch_fields(batch).items():
        assert values.shape == (0,), key
